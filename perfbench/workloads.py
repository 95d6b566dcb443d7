"""The benchmark's workloads: their CLI pipelines and pinned rule-set digests.

This module uses the standard library only.  The orchestrator (run.py)
imports it, and it must stay small: a child started with vfork/posix_spawn
reports the parent's peak RSS as a floor for its own ``ru_maxrss``, so the
process that measures peak RSS must never load aptmine or numpy itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

EPOCH = "2014-06-08"  # period 1 of the generated event CSV


PINNED_SEED = 0  # seed at which a freshly drawn corpus must give the pinned digest


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``fixed_corpus``: the inputs are one fixed corpus whose atom names the
    seed permutes (setup_inputs.renamed), so every seed does the same work
    and mines the same rule set by atom id.  Otherwise the seed draws fresh
    content of a fixed size.  ``digest`` is the sha256 of the parsed rule
    set (check.rules_digest): for every seed with a fixed corpus, else at
    PINNED_SEED.
    """

    name: str
    ingest: bool  # True: the pipeline starts from an event CSV
    fixed_corpus: bool
    mine_args: tuple[str, ...]
    compare_k: str
    digest: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-980",
            ingest=False,
            fixed_corpus=True,
            mine_args=("--max-dim", "3", "--supp-lb", "3", "--min-prob", "0.5"),
            compare_k="all",
            digest="64ac7c1a0e51588fe08e6006a57c8aade270e1afe529a70ff6170c0de913dcd2",
        ),
        Workload(
            name="dense-synth",
            ingest=False,
            fixed_corpus=True,
            mine_args=("--max-dim", "3", "--supp-lb", "3", "--min-prob", "0.3"),
            compare_k="all",
            digest="961df60b3f9618f67c3647c27246127a594c25469555c1d05aab40c6814f96f9",
        ),
        Workload(
            name="csv-events",
            ingest=True,
            fixed_corpus=False,
            mine_args=("--max-dim", "1"),
            compare_k="10",
            digest="c33b8a7d26299c8b4ef1aa40e2a19de5d4dc55eea5e584429df50c1f989b17e2",
        ),
        # The six-period worked example: too small to time, used by selftest.py.
        Workload(
            name="t1",
            ingest=False,
            fixed_corpus=True,
            mine_args=("--max-dim", "2", "--supp-lb", "1"),
            compare_k="all",
            digest="c92fe8cb671f4cc7f3d9ab13118abe53293774d9570c1d0906dc053239368567",
        ),
    )
}

COMMANDS = ("ingest", "mine", "compare", "report")

# Files a pipeline writes; all of them must be byte-identical across runs.
ARTIFACTS = (
    "corpus.thread",
    "corpus.thread.rejects",
    "corpus.counts",
    "corpus.rules",
    "corpus.scored",
    "report.txt",
)


def thread_path(workload: Workload, inputs: Path, out: Path) -> Path:
    """The thread file mine and compare read: ingested, or generated by setup."""
    return out / "corpus.thread" if workload.ingest else inputs / "corpus.thread"


def pipeline(workload: Workload, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The workload's CLI commands as (command, aptmine arguments), in order."""
    thread = str(thread_path(workload, inputs, out))
    rules, scored = str(out / "corpus.rules"), str(out / "corpus.scored")
    steps = []
    if workload.ingest:
        steps.append(
            (
                "ingest",
                [
                    "ingest", str(inputs / "events.csv"),
                    "--location-map", str(inputs / "cities.csv"),
                    "--epoch", EPOCH,
                    "--out", thread,
                    "--emit-counts", str(out / "corpus.counts"),
                ],
            )
        )
    steps.append(("mine", ["mine", thread, "--out", rules, *workload.mine_args]))
    steps.append(("compare", ["compare", rules, thread, "--out", scored, "--k", workload.compare_k]))
    steps.append(("report", ["report", scored, "--out", str(out / "report.txt")]))
    return steps


def artifacts(out: Path) -> list[Path]:
    """The artifact files present in one pipeline's output directory."""
    return [out / name for name in ARTIFACTS if (out / name).exists()]


def files_digest(paths: list[Path]) -> str:
    """sha256 over the names and bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()

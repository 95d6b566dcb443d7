"""Run one aptmine CLI command with spans around each layer's public calls.

Usage: python3 perfbench/tracer.py SPANS_JSON RUN_ID -- ARGS...

ARGS are the arguments of ``aptmine`` (e.g. ``mine corpus.thread --out
corpus.rules``).  The layers are timed only from outside: the public
functions the CLI calls are replaced, in the namespaces they are looked up
from, by wrappers that record a span (name, layer, start, end, parent) in
memory and derive counters from the call's arguments and result.  The
spans and counters are written to SPANS_JSON when the command ends; the
exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def span(self, name: str, layer: str, fn, count=None):
        """fn wrapped to record a span per call; count(counters, args, result) after it."""

        def traced(*args, **kwargs):
            record = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        spans = [
            {"name": n, "layer": layer, "start": s, "end": e, "parent": p, "run": self.run_id}
            for n, layer, s, e, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": spans, "counters": dict(self.counters)}, fh)


def _count_rejects(counters: Counter, rejects) -> None:
    for reject in rejects:
        counters["ingestion.rejects"] += 1
        counters[f"ingestion.rejects.{reject.reason.replace(' ', '-')}"] += 1


def count_parse(counters, args, result) -> None:
    records, rejects = result
    counters["ingestion.rows"] += len(records) + len(rejects)
    _count_rejects(counters, rejects)


def count_build(counters, args, result) -> None:
    events = args[0]
    _, rejects = result
    counters["ingestion.events"] += len(events) - len(rejects)
    _count_rejects(counters, rejects)


def count_spikes(counters, args, result) -> None:
    counters["spikes.series"] += 1
    counters["spikes.emissions"] += len(result)


def count_model(counters, args, result) -> None:
    # mine and compare both load the thread; the shape is the same, so set, not add.
    thread, registry, _ = result
    counters["model.atoms"] = len(registry)
    counters["model.periods"] = thread.t_max
    counters["model.active_per_period"] = (
        sum(len(thread.world(t)) for t in range(1, thread.t_max + 1)) / thread.t_max
    )


def count_extract(counters, args, report) -> None:
    counters["extraction.explored"] = report.combinations_explored
    counters["extraction.bound"] = report.per_period_bound()
    counters["extraction.rules"] = len(report.rules)


def count_candidates(counters, args, result) -> None:
    counters["extraction.consequences"] += 1


def count_compare(counters, args, ranked) -> None:
    sizes = Counter(rule.consequence for rule, _ in args[1])
    counters["causality.groups"] = len(sizes)
    counters["causality.max_group"] = max(sizes.values(), default=0)
    counters["causality.pair_cells"] = sum(n * n for n in sizes.values())
    kept = [sr for group in ranked.values() for sr in group]
    counters["causality.related_pairs"] = sum(sr.related_count for sr in kept)
    counters["causality.never_separated"] = sum(sr.never_separated_count for sr in kept)
    counters["causality.unscored"] = sum(sr.is_unscored for sr in kept)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the CLI reaches, where it is looked up from."""
    from aptmine import cli, extraction, ingestion

    targets = [
        (cli, "parse_events", "ingestion", count_parse),
        (cli, "build_corpus", "ingestion", count_build),
        (ingestion, "spike_atoms", "spikes", count_spikes),
        (cli, "pf_rule_extract", "extraction", count_extract),
        (extraction, "candidate_preconditions", "extraction", count_candidates),
        (cli, "pf_rule_compare", "causality", count_compare),
        (cli, "load_thread", "formats", count_model),
    ]
    for name in ("save_thread", "save_rules", "load_rules", "save_scored", "load_scored",
                 "save_rejects", "save_counts"):
        targets.append((cli, name, "formats", None))
    for module, name, layer, count in targets:
        setattr(module, name, tracer.span(name, layer, getattr(module, name), count))


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- ARGS...")
    tracer = Tracer(run_id)
    install(tracer)
    from aptmine import cli

    try:
        return tracer.span(f"cli.{args[0]}", "cli", cli.main)(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Benchmark of the aptmine CLI pipeline: ingest -> mine -> compare -> report.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload sparse-980 --seed 2024 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, every metric

One run generates the workload's inputs from the seed (several times, for
``setup_s``), then runs the workload's CLI commands, each in a fresh
process, one pipeline at a time, until the time budget is spent.  The
artifacts of every pipeline are checked (see check.py).  With ``--trace 1``
one more pipeline runs under perfbench/tracer.py, which records spans
around every layer's public calls, and the per-layer metrics are
reported instead of the end-to-end ones.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

This process imports neither aptmine nor numpy: children spawned by a
large parent inherit its peak RSS as the floor of their ``ru_maxrss``.
Everything that needs aptmine runs in a child process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import COMMANDS, WORKLOADS, Workload, artifacts, files_digest, pipeline

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = HERE / ".work"
MIN_PIPELINES = 2  # byte identity needs two runs to compare
STARTUP_PROBES = 3
SETUP_BATCH_S = 0.25  # set-up repetitions between two timed pipelines
TRACE_LAYERS = ("cli", "ingestion", "spikes", "extraction", "causality", "formats")

# Metric names and units, in report order, as BENCHMARK.json declares them.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}
TIMED = tuple(w["name"] for w in _DECLARED["workloads"])  # what `--workload all` runs

# Span name -> per-layer metric that sums its self time.
SPAN_METRICS = {
    "parse_events": "ingestion.parse_s",
    "build_corpus": "ingestion.build_self_s",
    "spike_atoms": "spikes.detect_s",
    "candidate_preconditions": "extraction.candidates_s",
    "pf_rule_extract": "extraction.evaluate_s",
    "pf_rule_compare": "causality.compare_s",
    "save_thread": "formats.save_thread_s",
    "load_thread": "formats.load_thread_s",
    "save_rules": "formats.save_rules_s",
    "load_rules": "formats.load_rules_s",
    "save_scored": "formats.save_scored_s",
    "load_scored": "formats.load_scored_s",
    "save_counts": "formats.save_counts_rejects_s",
    "save_rejects": "formats.save_counts_rejects_s",
}


class Child:
    """Spawns one process, waits for it, and keeps its wall time and peak RSS."""

    def __init__(self, argv: list[str], log: Path) -> None:
        env = dict(os.environ)
        paths = [str(ROOT / "src")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), flags, 0o644), (os.POSIX_SPAWN_DUP2, 1, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        self.wall_s = time.perf_counter() - start
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.log = log

    def last_json(self):
        """The JSON object a helper printed as its last line, or None."""
        lines = self.log.read_text(encoding="utf-8", errors="replace").splitlines()
        if self.exit_code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


def run_pipeline(workload: Workload, inputs: Path, out: Path, spans: Path | None = None):
    """Run the workload's commands in order; stop at the first failing one."""
    out.mkdir(parents=True)
    children = {}
    for command, args in pipeline(workload, inputs, out):
        if spans is None:
            argv = ["-m", "aptmine", *args]
        else:
            run_id = f"{out.parent.name}/{command}"
            argv = [str(HERE / "tracer.py"), str(spans / f"{command}.json"), run_id, "--", *args]
        child = Child(argv, out / f"{command}.log")
        children[command] = child
        if child.exit_code != 0:
            break
    return children


def digest(out: Path) -> str:
    return files_digest(artifacts(out))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.dir = WORK / f"{workload.name}-s{seed}"
        self.inputs = self.dir / "inputs"
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.setup_times: list[float] = []
        self.inputs_digest: str | None = None

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL {self.workload.name}: {message}", file=sys.stderr)

    def setup(self, min_reps: int, min_seconds: float) -> None:
        """Generate the inputs again; every batch must write the same bytes."""
        child = Child(
            [str(HERE / "setup_inputs.py"), self.workload.name, str(self.seed), str(self.inputs),
             str(min_reps), str(min_seconds)],
            self.dir / "setup.log",
        )
        result = child.last_json()
        if result is None:
            raise RuntimeError(f"setup failed, see {child.log}")
        if self.inputs_digest not in (None, result["digest"]):
            raise RuntimeError("setup wrote different inputs for the same seed")
        self.inputs_digest = result["digest"]
        self.setup_times += result["times"]

    def startup(self) -> float:
        """Median time of a process that imports aptmine.cli and exits (also warms caches)."""
        probes = [Child(["-c", "import aptmine.cli"], self.dir / "startup.log") for _ in range(STARTUP_PROBES)]
        if any(p.exit_code != 0 for p in probes):
            raise RuntimeError(f"cannot import aptmine.cli, see {probes[0].log}")
        return median([p.wall_s for p in probes])

    def timed(self) -> list[dict]:
        """Untraced pipelines until the time budget is spent (at least MIN_PIPELINES).

        A short set-up batch follows each pipeline: the machine's speed drifts
        over seconds, and spreading the set-up samples over the whole run
        keeps their median from resting on one moment.
        """
        pipelines = []
        start = time.perf_counter()
        while True:
            out = self.dir / f"p{len(pipelines)}"
            children = run_pipeline(self.workload, self.inputs, out)
            self.attempted += 1
            ok = len(children) == len(pipeline(self.workload, self.inputs, out)) and all(
                c.exit_code == 0 for c in children.values()
            )
            if not ok:
                self.failed += 1
                self.fail(f"pipeline {out.name} exited non-zero, see {out}/*.log")
            pipelines.append({"out": out, "children": children, "ok": ok, "completed": ok,
                              "wall_s": sum(c.wall_s for c in children.values())})
            self.setup(1, SETUP_BATCH_S)
            elapsed = time.perf_counter() - start
            typical = median([p["wall_s"] for p in pipelines])
            if len(pipelines) >= MIN_PIPELINES and elapsed + typical > self.seconds:
                return pipelines

    def check_identity(self, pipelines: list[dict]) -> str:
        """Every successful pipeline's artifacts must equal the first one's."""
        ok = [p for p in pipelines if p["ok"]]
        if not ok:
            return ""
        first = digest(ok[0]["out"])
        for p in ok[1:]:
            if digest(p["out"]) == first:
                shutil.rmtree(p["out"])
            else:
                p["ok"] = False
                self.failed += 1
                self.fail(f"artifacts of {p['out'].name} differ from {ok[0]['out'].name}")
        return first

    def check_outputs(self, out: Path, pipelines: list[dict]) -> dict:
        child = Child(
            [str(HERE / "check.py"), self.workload.name, str(self.seed), str(self.inputs), str(out)],
            self.dir / "check.log",
        )
        result = child.last_json()
        if result is None:
            result = {"failures": [f"checker crashed, see {child.log}"], "counters": {}}
        for message in result["failures"]:
            self.fail(message)
        if result["failures"]:
            # The artifacts are identical across pipelines, so every one is wrong.
            for p in pipelines:
                if p["ok"]:
                    p["ok"] = False
                    self.failed += 1
        return result["counters"]

    def traced(self, reference: str, untraced_s: float) -> dict:
        """One pipeline under the tracer: per-layer self times and counters."""
        spans_dir = self.dir / "spans"
        spans_dir.mkdir()
        out = self.dir / "traced"
        children = run_pipeline(self.workload, self.inputs, out, spans_dir)
        self.attempted += 1
        if any(c.exit_code != 0 for c in children.values()):
            self.failed += 1
            self.fail(f"traced pipeline exited non-zero, see {out}/*.log")
            return {}
        if digest(out) != reference:
            self.failed += 1
            self.fail("traced artifacts differ from the untraced ones")
        metrics = dict.fromkeys(PER_LAYER, 0)
        metrics["cli.self_s"] = 0.0
        for command, child in children.items():
            record = json.loads((spans_dir / f"{command}.json").read_text(encoding="utf-8"))
            spans = record["spans"]
            # Self time = duration minus the child spans' durations.
            child_time = [0.0] * len(spans)
            for span in spans:
                if span["parent"] is not None:
                    child_time[span["parent"]] += span["end"] - span["start"]
            for span, covered in zip(spans, child_time):
                self_s = span["end"] - span["start"] - covered
                if span["layer"] == "cli":
                    # Interpreter start-up, imports and exit lie outside the root span.
                    metrics["cli.self_s"] += self_s + child.wall_s - (span["end"] - span["start"])
                else:
                    metrics[SPAN_METRICS[span["name"]]] += self_s
            for name, value in record["counters"].items():
                if name not in PER_LAYER:
                    self.fail(f"traced run reported an unexpected counter {name}")
                    continue
                metrics[name] = value
        metrics["trace.pipeline_s"] = sum(c.wall_s for c in children.values())
        metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] - untraced_s
        metrics["formats.bytes_written"] = sum(p.stat().st_size for p in artifacts(out))
        explored, bound = metrics["extraction.explored"], metrics["extraction.bound"]
        metrics["extraction.yield"] = metrics["extraction.rules"] / explored if explored else 0.0
        if explored > bound:
            self.fail(f"extraction explored {explored} candidates, above the bound {bound}")
        return metrics

    def execute(self, trace: bool) -> dict:
        # Keep only this run's files of the workload: a run leaves up to 10 MB.
        for old in WORK.glob(f"{self.workload.name}-s*"):
            shutil.rmtree(old)
        self.inputs.mkdir(parents=True)
        self.setup(3, SETUP_BATCH_S)
        startup_s = self.startup()
        pipelines = self.timed()
        reference = self.check_identity(pipelines)
        # Timings count every pipeline whose commands all exited 0, also when
        # its artifacts then fail a check.
        completed = [p for p in pipelines if p["completed"]]
        counters = self.check_outputs(completed[0]["out"], pipelines) if completed else {}
        walls = [p["wall_s"] for p in completed]
        peaks = [max(c.rss_mb for c in p["children"].values()) for p in completed]
        samples = {"pipeline_s": len(walls), "peak_rss_mb": len(peaks),
                   "setup_s": len(self.setup_times), "success_rate": self.attempted}
        end_to_end = {
            "pipeline_s": median(walls),
            "peak_rss_mb": median(peaks),
            "setup_s": median(self.setup_times),
            "success_rate": 1 - self.failed / self.attempted,
        }
        per_layer = {}
        if trace and completed:
            per_layer = self.traced(reference, end_to_end["pipeline_s"])
            per_layer.update(counters)
            per_layer["cli.startup_s"] = startup_s
            for command in COMMANDS:
                runs = [p["children"][command] for p in completed if command in p["children"]]
                per_layer[f"cli.{command}_s"] = median([c.wall_s for c in runs])
                per_layer[f"cli.{command}_rss_mb"] = median([c.rss_mb for c in runs])
        return {"end_to_end": end_to_end, "samples": samples, "per_layer": per_layer}


def table(title: str, values: dict, units: dict, samples: dict | None = None) -> None:
    print(title)
    for name, unit in units.items():
        value = values.get(name, 0)
        n = f"  (n={samples[name]})" if samples and name in samples else ""
        print(f"  {name:34s} {value:>16.6g} {unit}{n}")


def layer_shares(per_layer: dict) -> None:
    """Traced self time per layer; together they make up trace.pipeline_s."""
    total = per_layer["trace.pipeline_s"]
    traced = {*SPAN_METRICS.values(), "cli.self_s"}
    print(f"  traced self time by layer (of {total:.3f} s):")
    for layer in TRACE_LAYERS:
        seconds = sum(per_layer[m] for m in traced if m.split(".")[0] == layer)
        print(f"    {layer:12s} {seconds:10.3f} s  {100 * seconds / total:5.1f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aptmine" / "cli.py").is_file():
        print(f"error: no aptmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = TIMED if args.workload == "all" else (args.workload,)
    trace = bool(args.trace) or args.workload == "all"
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = Run(WORKLOADS[name], args.seed, args.seconds)
        try:
            result = run.execute(trace)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        title = f"{name} seed {args.seed}"
        table(f"{title}: end to end (medians, n samples)", result["end_to_end"], END_TO_END, result["samples"])
        if trace and result["per_layer"]:
            table(f"{title}: per layer (traced run)", result["per_layer"], PER_LAYER)
            layer_shares(result["per_layer"])
        total["correct"] = total["correct"] and not run.failures
        total["attempted"] += run.attempted
        total["failed"] += run.failed
        reported = result["per_layer"] if args.trace else result["end_to_end"]
        units = PER_LAYER if args.trace else END_TO_END
        prefix = f"{name}/" if args.workload == "all" else ""
        for metric, unit in units.items():
            total["metrics"][prefix + metric] = {"value": reported.get(metric, 0), "unit": unit}
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

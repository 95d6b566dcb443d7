"""Self-test of the benchmark's orchestrator and checker on the worked example.

Usage (from the root of the repository): python3 perfbench/selftest.py

1. Runs the six-period worked example (workload ``t1``) through run.py,
   traced, and asserts a correct result and the worked-example rule set.
2. Corrupts one statistic in a copy of its rules file and asserts that
   check.py reports it.
3. Runs run.py in a directory holding only BENCHMARK.json and perfbench/
   and asserts that it exits non-zero without printing a result.
Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = HERE / ".work"

# The worked example mined at --max-dim 2 --supp-lb 1: (precondition, p, p*, support).
WORKED_RULES = {
    ("a()",): ("0.5", "0.5", "2"),
    ("b()",): ("0.6666666666666666", "0.0", "3"),
    ("a()", "b()"): ("1.0", "0.5", "1"),
}


def python(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def worked_example() -> Path:
    result = python([str(HERE / "run.py"), "--workload", "t1", "--seed", "0", "--seconds", "1", "--trace", "1"])
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0, summary
    metrics = summary["metrics"]
    assert metrics["extraction.rules"]["value"] == 3
    assert metrics["causality.never_separated"]["value"] == 2

    out = WORK / "t1-s0" / "p0"
    rules = {}
    for line in (out / "corpus.rules").read_text(encoding="utf-8").splitlines()[2:]:
        p, p_star, rho, supp, consequence, _, *atoms = line.split("\t")
        assert consequence == "g()" and rho == repr(1 / 3), line
        rules[tuple(atoms)] = (p, p_star, supp)
    assert rules == WORKED_RULES, rules
    ranked = [line.split("\t")[11:] for line in (out / "corpus.scored").read_text().splitlines()[2:]]
    assert ranked == [["b()"], ["a()", "b()"], ["a()"]], ranked
    return out


def corrupted_statistic(out: Path) -> None:
    bad = WORK / "t1-corrupt"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(out, bad)
    rules = bad / "corpus.rules"
    lines = rules.read_text(encoding="utf-8").splitlines()
    fields = lines[2].split("\t")
    fields[0] = repr(float(fields[0]) + 1e-9)  # one p, off by far more than 1e-12
    lines[2] = "\t".join(fields)
    rules.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs = WORK / "t1-s0" / "inputs"
    result = python([str(HERE / "check.py"), "t1", "0", str(inputs), str(bad)])
    assert result.returncode == 0, result.stderr
    failures = json.loads(result.stdout.splitlines()[-1])["failures"]
    assert any(f.startswith("oracle: p of") for f in failures), failures
    assert any(f.startswith("digest:") for f in failures), failures


def missing_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "csv-events", "--seed", "1", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(
        [sys.executable if command[0] == "python3" else command[0], *command[1:], *args],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0, result.stdout
    assert '"correct"' not in result.stdout, result.stdout
    shutil.rmtree(bare)


def main() -> int:
    out = worked_example()
    print("ok: worked example through run.py and check.py")
    corrupted_statistic(out)
    print("ok: checker rejects a rules file with one corrupted statistic")
    missing_program()
    print("ok: run.py fails without a result where the program is missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Generate a workload's input files from its seed, and time doing so.

Usage: python3 perfbench/setup_inputs.py WORKLOAD SEED DIR MIN_REPS MIN_SECONDS

Writes the inputs into DIR at least MIN_REPS times and for at least
MIN_SECONDS (at most 200 times), checks that every repetition writes the
same bytes, and prints {"times": [...], "digest": ...} (seconds per
repetition, sha256 of the inputs) as its last line.  Imports are done
before the first repetition, so the times cover generating and writing
only.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import random
import sys
import time
from pathlib import Path

from aptmine.formats import save_thread
from aptmine.ingestion import THEATERS
from aptmine.model import AtomRegistry, Thread
from aptmine.oracle import PlantedRule, SynthSpec, generate_synthetic, sparse_benchmark_corpus, t1_corpus

from workloads import EPOCH, files_digest

MAX_REPS = 200

# ---------------------------------------------------------------- event CSV

N_ROWS = 200_000  # data rows, bad ones included
N_DAYS = 700  # 100 weekly periods
N_CITIES = 200  # half per theater
BURSTS = 5  # burst weeks per (predicate, theater) series
BURST_WEIGHT = 4.0  # row rate in a burst week, relative to a normal week
PREDICATES = (
    "armedAtk", "bombing", "shelling", "airStrike", "ambush", "kidnap", "assassination",
    "raid", "ied", "suicideAtk", "sniper", "mortar", "rocket", "arson", "looting",
    "checkpointAtk", "protest", "arrest", "execution", "sabotage",
)
# Rows injected per reject reason; the checker expects exactly these counts.
BAD_ROWS = {
    "unparseable date": 12,
    "wrong field count": 9,
    "unmapped location": 15,
    "date before epoch": 8,
    "gap in arguments": 6,
    "reserved character": 10,
}


def cities() -> list[tuple[str, str]]:
    """(city, theater) pairs: the first half in Iraq, the second in Syria."""
    half = N_CITIES // 2
    return [(f"city{i:03d}", THEATERS[i // half]) for i in range(N_CITIES)]


def event_rows(seed: int) -> list[list[str]]:
    """Event CSV rows (header first): bursty weeks per series plus bad rows."""
    rng = random.Random(seed)
    epoch = dt.date.fromisoformat(EPOCH)
    dates = [(epoch + dt.timedelta(days=d)).isoformat() for d in range(N_DAYS)]
    by_theater = {th: [c for c, t in cities() if t == th] for th in THEATERS}
    weeks = N_DAYS // 7

    cells = [(w, p, th) for w in range(weeks) for p in PREDICATES for th in THEATERS]
    bursty = {
        (p, th): set(rng.sample(range(weeks), BURSTS)) for p in PREDICATES for th in THEATERS
    }
    weights = [BURST_WEIGHT if w in bursty[(p, th)] else 1.0 for w, p, th in cells]
    n_good = N_ROWS - sum(BAD_ROWS.values())
    rows = []
    for w, p, th in rng.choices(cells, weights=weights, k=n_good):
        day = dates[7 * w + rng.randrange(7)]
        rows.append([day, p, rng.choice(by_theater[th]), "", f"actor{rng.randrange(40)}"])

    def valid_row(i: int) -> list[str]:
        return [rng.choice(dates), PREDICATES[i % len(PREDICATES)], rng.choice(by_theater[THEATERS[i % 2]]), "", "actor0"]

    bad = []
    for i in range(BAD_ROWS["unparseable date"]):
        bad.append([f"2015-02-{30 + i % 2}", *valid_row(i)[1:]])
    for i in range(BAD_ROWS["wrong field count"]):
        bad.append(valid_row(i)[: 4 - i % 2])
    for i in range(BAD_ROWS["unmapped location"]):
        bad.append([*valid_row(i)[:2], f"atlantis{i}", "", "actor0"])
    for i in range(BAD_ROWS["date before epoch"]):
        bad.append([(epoch - dt.timedelta(days=1 + 9 * i)).isoformat(), *valid_row(i)[1:]])
    for i in range(BAD_ROWS["gap in arguments"]):
        row = valid_row(i)
        bad.append([row[0], row[1], "", row[2], row[4]])
    for i in range(BAD_ROWS["reserved character"]):
        row = valid_row(i)
        bad.append([row[0], row[1], f"{row[2]}(old)", "", row[4]])
    for row in bad:
        rows.insert(rng.randrange(len(rows) + 1), row)
    return [["date", "predicate", "arg1", "arg2", "actor"], *rows]


def write_csv_events(seed: int, out: Path) -> None:
    with open(out / "events.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(event_rows(seed))
    with open(out / "cities.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(cities())


# ------------------------------------------------------------ thread files


# The thread corpora are fixed; the benchmark seed only renames their atoms.
# Two other uses of the seed were measured and rejected.  The generators'
# own seeds move the rule count by about 10%, and compare time and memory
# with its square.  Permuting atom ids changes the order in which compare
# allocates, which moved sparse-980's peak RSS between 82 and 93 MB.


def renamed(registry: AtomRegistry, seed: int) -> AtomRegistry:
    """A copy of the registry whose atoms of each predicate swap names by the seed.

    Atom ids, and with them the thread and the engine's work, are unchanged.
    """
    rng = random.Random(seed)
    by_predicate: dict = {}
    for a in registry.ids():
        by_predicate.setdefault(registry.atom(a).predicate, []).append(a)
    args = {}
    for atoms in by_predicate.values():
        donors = atoms[:]
        rng.shuffle(donors)
        args.update((a, registry.atom(d).args) for a, d in zip(atoms, donors))
    out = AtomRegistry()
    for a in registry.ids():
        out.intern(registry.atom(a).predicate, args[a])
        if a in registry.env_set:
            out.mark_env(a)
        if a in registry.action_set:
            out.mark_action(a)
    return out.freeze()


def write_renamed(name: str, thread: Thread, registry: AtomRegistry, seed: int, out: Path) -> None:
    params = {"corpus": name, "seed": str(seed)}
    save_thread(out / "corpus.thread", thread, renamed(registry, seed), params)


def write_sparse(seed: int, out: Path) -> None:
    write_renamed("sparse-980", *sparse_benchmark_corpus(seed=2024), seed, out)


def write_dense(seed: int, out: Path) -> None:
    spec = SynthSpec(
        n_env=80,
        t_max=1000,
        planted=(PlantedRule((0, 1), "g0", 0.9, 40),),
        density=0.15,
        seed=0,
    )
    corpus = generate_synthetic(spec)
    write_renamed("dense-synth", corpus.thread, corpus.registry, seed, out)


def write_t1(seed: int, out: Path) -> None:
    write_renamed("t1", *t1_corpus(), seed, out)


WRITERS = {
    "sparse-980": write_sparse,
    "dense-synth": write_dense,
    "csv-events": write_csv_events,
    "t1": write_t1,
}


def main(argv: list[str]) -> int:
    name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    min_reps, min_seconds = int(argv[3]), float(argv[4])
    write = WRITERS[name]
    out.mkdir(parents=True, exist_ok=True)
    times: list[float] = []
    digests = set()
    while len(times) < min_reps or (sum(times) < min_seconds and len(times) < MAX_REPS):
        start = time.perf_counter()
        write(seed, out)
        times.append(time.perf_counter() - start)
        digests.add(files_digest(sorted(out.iterdir())))
    if len(digests) != 1:
        print(f"setup for {name} seed {seed} wrote different inputs on repetition", file=sys.stderr)
        return 1
    print(json.dumps({"times": times, "digest": digests.pop()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Check one pipeline's artifacts; also compute the counters read from them.

Usage: python3 perfbench/check.py WORKLOAD SEED INPUTS_DIR OUT_DIR

Checks, on a sample drawn from SEED:
  * written rule statistics equal the exact-fraction oracle within 1e-12;
  * scored rules equal the scalar ``causal_scores`` path exactly;
  * the scored file is in rank order (and top-k truncated when k is set);
  * the parsed rule set's digest equals the pinned one (see workloads.py);
  * csv-events: the rejects file holds exactly the injected bad rows, and
    spike atoms fire in every theater.
Prints {"failures": [...], "counters": {...}, "digest": "..."} as its last
line; the exit code is 0 even when checks fail.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from aptmine.causality import causal_scores
from aptmine.formats import load_rules, load_scored, load_thread
from aptmine.ingestion import THEATERS, TOTAL_THEATER
from aptmine.model import Atom, Conjunction, low_time_mask
from aptmine.oracle import exact_negative_probability, exact_prior, exact_rule_probability, exact_support
from aptmine.stats import AptRule

from setup_inputs import BAD_ROWS
from workloads import PINNED_SEED, WORKLOADS, thread_path

TOL = Fraction(1, 10**12)
ORACLE_SAMPLE = 20
SCORED_SAMPLE = 6


def rules_digest(rules) -> str:
    """sha256 over the sorted (consequence id, precondition ids, stats) records of a rule set."""
    records = sorted(
        (rule.consequence, rule.precondition.atoms,
         repr(stats.p), repr(stats.p_star), repr(stats.rho), stats.support)
        for rule, stats in rules
    )
    return hashlib.sha256(repr(records).encode()).hexdigest()


def check_oracle(thread, rules, rng) -> list[str]:
    failures = []
    for rule, stats in rng.sample(rules, min(ORACLE_SAMPLE, len(rules))):
        atoms, g = rule.precondition.atoms, rule.consequence
        exact = {
            "p": exact_rule_probability(thread, atoms, g),
            "p*": exact_negative_probability(thread, atoms, g),
            "rho": exact_prior(thread, Atom(g)),
        }
        written = {"p": stats.p, "p*": stats.p_star, "rho": stats.rho}
        for name, want in exact.items():
            if want is None or abs(Fraction(written[name]) - want) > TOL:
                failures.append(f"oracle: {name} of {rule} is {written[name]!r}, exact {want}")
        if stats.support != exact_support(thread, atoms):
            failures.append(f"oracle: support of {rule} is {stats.support}, exact {exact_support(thread, atoms)}")
    return failures


def _rank_key(record, ids):
    # pf_rule_compare's documented order: scored first; eps_avg, p, support
    # descending; then the canonical precondition atom order.
    atoms = tuple(sorted(ids[a] for a in record.precondition))
    if record.eps_avg is None:
        return (1, 0.0, 0.0, 0, atoms)
    return (0, -record.eps_avg, -record.p, -record.support, atoms)


def check_scored(thread, registry, rules, records, k, rng) -> list[str]:
    failures = []
    ids = {registry.render(a): a for a in registry.ids()}
    groups: dict[int, list] = {}
    for rule, _ in rules:
        groups.setdefault(rule.consequence, []).append(rule)
    by_group: dict[int, list] = {}
    for record in records:
        by_group.setdefault(ids[record.consequence], []).append(record)
    sequence = [ids[r.consequence] for r in records]
    runs = [g for i, g in enumerate(sequence) if i == 0 or sequence[i - 1] != g]
    if runs != sorted(set(runs)):
        failures.append("rank: consequence groups are not contiguous and ascending")
    for g, members in by_group.items():
        if g not in groups:
            failures.append(f"rank: scored consequence {registry.render(g)} has no rules")
            continue
        keys = [_rank_key(r, ids) for r in members]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            failures.append(f"rank: group {registry.render(g)} is not in strict rank order")
        if k is None and len(members) != len(groups[g]):
            failures.append(f"rank: group {registry.render(g)} keeps {len(members)} of {len(groups[g])}")
        if k is not None and (len(members) > k or any(r.eps_avg is None for r in members)):
            failures.append(f"rank: group {registry.render(g)} breaks the top-{k} cut")

    for record in rng.sample(records, min(SCORED_SAMPLE, len(records))):
        g = ids[record.consequence]
        if g not in groups:
            continue
        rule = AptRule(Conjunction(ids[a] for a in record.precondition), g)
        want = causal_scores(thread, rule, groups[g])
        got = (record.eps_avg, record.eps_min, record.eps_frac, record.related_count,
               record.never_separated_count, record.p, record.p_star, record.rho, record.support)
        ref = (want.eps_avg, want.eps_min, want.eps_frac, want.related_count,
               want.never_separated_count, want.stats.p, want.stats.p_star, want.stats.rho,
               want.stats.support)
        if got != ref:
            failures.append(f"scalar: {rule} scored {got}, causal_scores gives {ref}")
    return failures


def check_csv_events(out: Path, registry) -> list[str]:
    failures = []
    lines = (out / "corpus.thread.rejects").read_text(encoding="utf-8").splitlines()[2:]
    found = Counter(line.split("\t")[1] for line in lines)
    if found != Counter(BAD_ROWS):
        failures.append(f"rejects: found {dict(found)}, injected {BAD_ROWS}")
    theaters = {registry.atom(a).args[0] for a in registry.action_set}
    for theater in (*THEATERS, TOTAL_THEATER):
        if theater not in theaters:
            failures.append(f"spikes: no spike atom fired in theater {theater}")
    return failures


def distinct_mask_cells(thread, rules) -> int:
    """Sum over consequence groups of (distinct restricted precondition masks)^2."""
    low = low_time_mask(thread.t_max - 1)
    masks: dict[int, set[int]] = {}
    for rule, _ in rules:
        masks.setdefault(rule.consequence, set()).add(
            thread.times_mask(rule.precondition.atoms) & low
        )
    return sum(len(group) ** 2 for group in masks.values())


def main(argv: list[str]) -> int:
    name, seed, inputs, out = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    thread, registry, _ = load_thread(thread_path(workload, inputs, out))
    rules, _ = load_rules(out / "corpus.rules", registry)
    records, _ = load_scored(out / "corpus.scored")
    k = None if workload.compare_k == "all" else int(workload.compare_k)

    failures = check_oracle(thread, rules, rng)
    failures += check_scored(thread, registry, rules, records, k, rng)
    if workload.ingest:
        failures += check_csv_events(out, registry)
    digest = rules_digest(rules)
    if (workload.fixed_corpus or seed == PINNED_SEED) and digest != workload.digest:
        failures.append(f"digest: rule set {digest} differs from the pinned {workload.digest}")
    counters = {"causality.distinct_mask_cells": distinct_mask_cells(thread, rules)}
    print(json.dumps({"failures": failures, "counters": counters, "digest": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

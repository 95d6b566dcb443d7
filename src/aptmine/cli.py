"""Command line interface: ingest, mine, compare, report, synth.

Outputs are written atomically after all computation succeeds, so a failed
invocation leaves no partial files, and a command refuses an output path
that names one of its inputs or another of its outputs.  Exit codes: 0 on
success, 1 on any domain or I/O error (diagnostic on stderr), 2 on usage
errors (argparse).
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from pathlib import Path

from . import __version__
from .causality import pf_rule_compare
from .extraction import ExtractParams, pf_rule_extract
from .formats import (
    decode_utf8,
    load_rules,
    load_scored,
    load_thread,
    save_counts,
    save_rejects,
    save_rules,
    save_scored,
    save_thread,
    write_atomic,
)
from .ingestion import CorpusConfig, build_corpus, load_location_map, parse_date, parse_events
from .model import AptmineError
from .oracle import PlantedRule, SynthSpec, generate_synthetic
from .spikes import SpikeConfig


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad thresholds {text!r}, expected e.g. 1,2")


def _parse_date(text: str) -> dt.date:
    try:
        return parse_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad date {text!r}, expected YYYY-MM-DD")


def _parse_k(text: str):
    if text.lower() == "all":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k {text!r}, expected a positive integer or 'all'")
    if value < 1:
        raise argparse.ArgumentTypeError("k must be positive")
    return value


def _parse_plant(text: str) -> tuple[tuple[int, ...], float, int]:
    # IDX[,IDX...]:FIRE_PROB:PLACEMENTS e.g. 0,3:0.9:20
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"bad plant {text!r}, expected IDX[,IDX..]:PROB:PLACEMENTS")
    try:
        atoms = tuple(int(p) for p in parts[0].split(","))
        prob = float(parts[1])
        placements = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad plant {text!r}, expected IDX[,IDX..]:PROB:PLACEMENTS")
    return atoms, prob, placements


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aptmine",
        description="Mine and rank temporal rules over event threads.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="event CSV -> thread file (+ rejects report)")
    ingest.add_argument("events", type=Path, help="CSV with header date,predicate,arg1,arg2,actor")
    ingest.add_argument("--location-map", type=Path, required=True, help="city,theater CSV")
    ingest.add_argument("--epoch", type=_parse_date, required=True, help="period 1 start, YYYY-MM-DD")
    ingest.add_argument("--out", type=Path, required=True, help="thread file to write")
    ingest.add_argument("--period-days", type=_positive_int, default=7)
    ingest.add_argument("--window", type=_positive_int, default=4, help="spike moving window")
    ingest.add_argument("--thresholds", type=_parse_thresholds, default=(1.0, 2.0))
    ingest.add_argument(
        "--spike-series",
        default=None,
        help="comma-separated predicates to build spike series for (default: all observed)",
    )
    ingest.add_argument("--emit-counts", type=Path, default=None, help="also write the count series")
    ingest.add_argument("--rejects", type=Path, default=None, help="rejects report (default OUT.rejects)")
    ingest.set_defaults(func=_cmd_ingest)

    mine = sub.add_parser("mine", help="thread file -> rules file")
    mine.add_argument("thread", type=Path)
    mine.add_argument("--out", type=Path, required=True)
    mine.add_argument("--max-dim", type=_positive_int, default=3)
    mine.add_argument("--supp-lb", type=_positive_int, default=3)
    mine.add_argument("--min-prob", type=float, default=0.5)
    mine.set_defaults(func=_cmd_mine)

    compare = sub.add_parser("compare", help="rules + thread -> scored rules file")
    compare.add_argument("rules", type=Path)
    compare.add_argument("thread", type=Path)
    compare.add_argument("--out", type=Path, required=True)
    compare.add_argument("--k", type=_parse_k, default=None, help="top-k per consequence, or 'all'")
    compare.set_defaults(func=_cmd_compare)

    report = sub.add_parser("report", help="scored rules file -> readable table")
    report.add_argument("scored", type=Path)
    report.add_argument("--out", type=Path, default=None, help="write here instead of stdout")
    report.set_defaults(func=_cmd_report)

    synth = sub.add_parser("synth", help="generate a synthetic thread file")
    synth.add_argument("--out", type=Path, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--n-env", type=_positive_int, default=12)
    synth.add_argument("--t-max", type=_positive_int, default=60)
    synth.add_argument("--density", type=float, default=0.1)
    synth.add_argument(
        "--plant",
        action="append",
        type=_parse_plant,
        default=[],
        metavar="IDX[,IDX..]:PROB:PLACEMENTS",
        help="plant a rule (repeatable); consequences are labeled g0, g1, ...",
    )
    synth.set_defaults(func=_cmd_synth)
    return parser


def _read_csv(path: Path, parse):
    """Run a CSV parser over a file; bad UTF-8 raises a FormatError naming path:line."""
    with open(path, "rb") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError:
            decode_utf8(path, path.read_bytes())  # raises, naming the first bad line
            raise


def _check_outputs(inputs: dict[str, Path], outputs: dict[str, Path | None]) -> None:
    """Refuse an output that resolves to one of the inputs or to another output.

    Both map the argument's name to its path, for the diagnostic.
    """
    seen = {path.resolve(): f"{name} {path}" for name, path in inputs.items()}
    for name, path in outputs.items():
        if path is None:
            continue
        key = path.resolve()
        if key in seen:
            raise AptmineError(f"{name} {path} is the same file as {seen[key]}")
        seen[key] = f"{name} {path}"


def _cmd_ingest(args: argparse.Namespace) -> int:
    rejects_path = args.rejects if args.rejects is not None else Path(f"{args.out}.rejects")
    _check_outputs(
        {"events": args.events, "--location-map": args.location_map},
        {"--out": args.out, "--rejects": rejects_path, "--emit-counts": args.emit_counts},
    )
    location_map = _read_csv(args.location_map, load_location_map)
    spike_series = None
    if args.spike_series is not None:
        spike_series = tuple(p for p in args.spike_series.split(",") if p)
    config = CorpusConfig(
        epoch=args.epoch,
        location_map=location_map,
        period_days=args.period_days,
        spike_config=SpikeConfig(window=args.window, thresholds=args.thresholds),
        spike_series=spike_series,
    )
    events, parse_rejects = _read_csv(args.events, parse_events)
    corpus, build_rejects = build_corpus(events, config)

    params = {
        "epoch": args.epoch.isoformat(),
        "period_days": str(args.period_days),
        "window": str(args.window),
        "thresholds": ",".join(f"{k:g}" for k in args.thresholds),
        "spike_series": args.spike_series if args.spike_series is not None else "auto",
    }
    written: list[Path] = []
    try:
        save_thread(args.out, corpus.thread, corpus.registry, params)
        written.append(args.out)
        save_rejects(rejects_path, [*parse_rejects, *build_rejects], params)
        written.append(rejects_path)
        if args.emit_counts is not None:
            save_counts(args.emit_counts, corpus.count_series, params)
    except BaseException:
        # A failed run leaves no outputs, not the first of several.
        for path in written:
            path.unlink(missing_ok=True)
        raise
    total_rejects = len(parse_rejects) + len(build_rejects)
    print(
        f"ingested {len(events) - len(build_rejects)} events into "
        f"{corpus.thread.t_max} periods, {len(corpus.registry)} atoms, "
        f"{total_rejects} reject(s) -> {args.out}"
    )
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    _check_outputs({"thread": args.thread}, {"--out": args.out})
    thread, registry, _ = load_thread(args.thread)
    params = ExtractParams(max_dim=args.max_dim, supp_lb=args.supp_lb, min_prob=args.min_prob)
    report = pf_rule_extract(thread, registry, params)
    file_params = {
        "max_dim": str(params.max_dim),
        "supp_lb": str(params.supp_lb),
        "min_prob": repr(params.min_prob),
    }
    save_rules(args.out, report.rules, registry, file_params)
    print(
        f"extracted {len(report.rules)} rules "
        f"({report.combinations_explored} combinations explored) -> {args.out}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _check_outputs({"rules": args.rules, "thread": args.thread}, {"--out": args.out})
    thread, registry, _ = load_thread(args.thread)
    rules, _ = load_rules(args.rules, registry)
    ranked = pf_rule_compare(thread, rules, k=args.k)
    file_params = {"k": "all" if args.k is None else str(args.k)}
    save_scored(args.out, ranked, registry, file_params)
    kept = sum(len(group) for group in ranked.values())
    print(f"scored {kept} rules in {len(ranked)} consequence group(s) -> {args.out}")
    return 0


def _render_report(records) -> str:
    columns = ("No.", "precondition", "eps_avg", "p", "p*", "rho", "s", "eps_min", "eps_frac", "|R(r)|")
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(record.consequence, []).append(record)

    def fmt(value: float | None) -> str:
        return "na" if value is None else f"{value:.3f}"

    rows_by_group = []
    for consequence, members in groups.items():
        rows = []
        for number, record in enumerate(members, start=1):
            rows.append(
                (
                    str(number),
                    " & ".join(record.precondition),
                    fmt(record.eps_avg),
                    f"{record.p:.3f}",
                    f"{record.p_star:.3f}",
                    f"{record.rho:.3f}",
                    str(record.support),
                    fmt(record.eps_min),
                    fmt(record.eps_frac),
                    str(record.related_count),
                )
            )
        rows_by_group.append((consequence, rows))

    widths = [len(c) for c in columns]
    for _, rows in rows_by_group:
        for row in rows:
            widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()
    lines = [header]
    for consequence, rows in rows_by_group:
        lines.append("")
        lines.append(f"consequence: {consequence}")
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_report(args: argparse.Namespace) -> int:
    _check_outputs({"scored": args.scored}, {"--out": args.out})
    records, _ = load_scored(args.scored)
    text = _render_report(records)
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_atomic(args.out, text)
        print(f"wrote report -> {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    planted = tuple(
        PlantedRule(atoms, f"g{i}", prob, placements)
        for i, (atoms, prob, placements) in enumerate(args.plant)
    )
    spec = SynthSpec(
        n_env=args.n_env,
        t_max=args.t_max,
        planted=planted,
        density=args.density,
        seed=args.seed,
    )
    corpus = generate_synthetic(spec)
    plant_texts = [
        f"{','.join(str(a) for a in atoms)}:{prob:g}:{placements}"
        for atoms, prob, placements in args.plant
    ]
    params = {
        "seed": str(args.seed),
        "n_env": str(args.n_env),
        "t_max": str(args.t_max),
        "density": repr(args.density),
        "plants": ";".join(plant_texts) if plant_texts else "none",
    }
    save_thread(args.out, corpus.thread, corpus.registry, params)
    print(
        f"synthesized {corpus.thread.t_max} periods over {len(corpus.registry)} atoms -> {args.out}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AptmineError, ValueError, OSError) as exc:
        # ValueError covers semantic parameter validation (e.g. a planted
        # firing probability above 1) that argparse types cannot see.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

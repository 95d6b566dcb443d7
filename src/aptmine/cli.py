"""Command line interface: ingest, mine, compare, report, synth.

Once a command's computation succeeds, each output is streamed a line at a
time to a temp file that is moved into place when complete, so a failed
invocation leaves no partial files, and a command refuses an output path
that names one of its inputs or another of its outputs.  Exit codes: 0 on
success, 1 on any domain or I/O error (diagnostic on stderr), 2 on usage
errors (argparse).  A diagnostic quotes a long argument or path briefly.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from pathlib import Path
from typing import Iterator

from . import __version__
from .causality import pf_rule_compare
from .extraction import ExtractParams, pf_rule_extract
from .formats import (
    _named,
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
from .ingestion import (
    CorpusConfig,
    EmptyCorpusError,
    SpikeConfig,
    build_corpus,
    load_location_map,
    parse_date,
    parse_events,
)
from .model import AptmineError, _clipped, _quoted


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad thresholds {_quoted(text)}, expected e.g. 1,2")


def _parse_date(text: str) -> dt.date:
    try:
        return parse_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad date {_quoted(text)}, expected YYYY-MM-DD")


def _parse_k(text: str):
    if text.lower() == "all":
        return None
    try:
        return _positive_int(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad k {_quoted(text)}, expected a positive integer or 'all'")


def _parse_plant(text: str) -> tuple[tuple[int, ...], float, int]:
    # IDX[,IDX...]:FIRE_PROB:PLACEMENTS e.g. 0,3:0.9:20; a wrong part count fails the unpacking
    try:
        atoms, prob, placements = text.split(":")
        return tuple(int(p) for p in atoms.split(",")), float(prob), int(placements)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad plant {_quoted(text)}, expected IDX[,IDX..]:PROB:PLACEMENTS")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # worded as argparse words it for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors quote an argument as file diagnostics do.

    Its subparsers are of this class too.
    """

    _args: tuple[str, ...] = ()

    def parse_known_args(self, args=None, namespace=None):
        self._args = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(self._args, namespace)

    def error(self, message: str):
        # argparse names a refused argument whole, as given or by its repr, or
        # only its value after "=" or after a one-letter flag ("-hVALUE").
        parts = {part for arg in self._args for part in (arg, arg.partition("=")[2], arg[2:])}
        for part in sorted(parts, key=len, reverse=True):
            message = message.replace(repr(part), _quoted(part)).replace(part, _clipped(part))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _check_outputs(inputs: dict[str, Path], outputs: dict[str, Path | None]) -> None:
    """Refuse an output that resolves to one of the inputs or to another output.

    Both map the argument's name to its path, for the diagnostic.
    """
    seen = {path.resolve(): f"{name} {_named(path)}" for name, path in inputs.items()}
    for name, path in outputs.items():
        if path is None:
            continue
        key, named = path.resolve(), f"{name} {_named(path)}"
        if key in seen:
            raise AptmineError(f"{named} is the same file as {seen[key]}")
        seen[key] = named


def _cmd_ingest(args: argparse.Namespace) -> int:
    rejects_path = args.rejects if args.rejects is not None else Path(f"{args.out}.rejects")
    _check_outputs(
        {"events": args.events, "--location-map": args.location_map},
        {"--out": args.out, "--rejects": rejects_path, "--emit-counts": args.emit_counts},
    )
    with open(args.location_map, "rb") as fh:
        location_map = load_location_map(fh)
    spike_series = None
    if args.spike_series is not None:
        # Stripped like the CSV cells they must match; empty parts are dropped.
        names = (part.strip() for part in args.spike_series.split(","))
        spike_series = tuple(sorted({name for name in names if name}))
    config = CorpusConfig(
        epoch=args.epoch,
        location_map=location_map,
        period_days=args.period_days,
        spike_config=SpikeConfig(window=args.window, thresholds=args.thresholds),
        spike_series=spike_series,
    )
    with open(args.events, "rb") as fh:
        events, parse_rejects = parse_events(fh)
    try:
        corpus, build_rejects = build_corpus(events, config)
    except EmptyCorpusError as exc:
        rejects = sorted([*parse_rejects, *exc.rejects])
        if not rejects:
            raise EmptyCorpusError(f"{_named(args.events)}: the file has no event rows") from None
        first = rejects[0]
        detail = _clipped(" ".join(first.detail.splitlines()))  # a quoted line break stays in its cell
        if first.reason == "unmapped location":
            detail += f", not in --location-map {_named(args.location_map)}"
        raise EmptyCorpusError(
            f"{_named(args.events)}: all {len(rejects)} rows rejected; "
            f"first: line {first.line}, {first.reason} {detail}"
        ) from None

    params = {
        "epoch": args.epoch.isoformat(),
        "period_days": str(args.period_days),
        "window": str(args.window),
        "thresholds": ",".join(f"{k:g}" for k in args.thresholds),
        "spike_series": ",".join(spike_series) if spike_series is not None else "auto",
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
        f"({report.combinations_explored} frequent candidates evaluated) -> {args.out}"
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


def _render_report(records) -> Iterator[str]:
    titles = ("No.", "precondition", "eps_avg", "p", "p*", "rho", "s", "eps_min", "eps_frac", "|R(r)|")
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(record.consequence, []).append(record)
    if not groups:
        yield "  ".join(titles)
        return
    _, preconditions, avgs, mins, fracs, related, _, ps, p_stars, rhos, supports = zip(
        *(record for members in groups.values() for record in members)
    )

    def fixed(values) -> list[str]:
        return ["na" if value is None else f"{value:.3f}" for value in values]

    columns = [
        [str(n) for members in groups.values() for n in range(1, len(members) + 1)],
        [" & ".join(atoms) for atoms in preconditions],
        fixed(avgs),
        fixed(ps),
        fixed(p_stars),
        fixed(rhos),
        list(map(str, supports)),
        fixed(mins),
        fixed(fracs),
        list(map(str, related)),
    ]
    widths = [max(len(title), *map(len, column)) for title, column in zip(titles, columns)]
    row = "  ".join(f"{{:<{width}}}" for width in widths).format
    rows = map(row, *columns)  # in group order
    yield row(*titles).rstrip()
    for consequence, members in groups.items():
        yield ""
        yield f"consequence: {consequence}"
        for _ in members:
            yield next(rows).rstrip()


def _cmd_report(args: argparse.Namespace) -> int:
    _check_outputs({"scored": args.scored}, {"--out": args.out})
    records, _ = load_scored(args.scored)
    lines = _render_report(records)
    if args.out is None:
        for line in lines:
            print(line)
    else:
        write_atomic(args.out, lines)
        print(f"wrote report -> {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .oracle import PlantedRule, SynthSpec, generate_synthetic  # so no other command loads it

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
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:  # str(exc) quotes paths whole
            names = (_named(name, repr) for name in (exc.filename, exc.filename2) if name is not None)
            message = f"[Errno {exc.errno}] {exc.strerror}: {' -> '.join(names)}"
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface over the library.

Every verb prints its primary output on stdout (byte-identical across runs
for identical invocations), streams progress to stderr, and exits 0 on a
confirmed/true outcome, 1 on a refuted/false outcome, and 2 on usage or
input errors.  The library reports bad input as ``ValueError``; ``main`` is
the one place that turns it into an ``error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .coloring import (
    MatchParams,
    color_class,
    construct_critical,
    contract_partition,
    find_structure,
    is_free,
    matching_profile,
    proof_ledger,
)
from .formats import (
    check_graph_order,
    coloring_from_dict,
    coloring_to_dict,
    format_dot,
    format_ecg,
    parse_adjlist,
    parse_ecg,
    parse_partition,
)
from .gallai_edmonds import decompose, verify_decomposition
from .search import DEFAULT_ORDER_GUARD, enumerate_critical, ramsey_value, verify_ramsey_exhaustive
from .star import construct_star_free, star_critical_value, verify_star_exhaustive

USAGE_ERROR = 2


def _params(values: list[int]) -> MatchParams:
    """Sizes naming a parameter point; verbs reading a coloring take them per color."""
    ordered = tuple(sorted(values, reverse=True))
    if tuple(values) != ordered:
        print(f"warning: sizes reordered non-increasingly: {list(ordered)}", file=sys.stderr)
    return MatchParams(ordered)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc}") from exc


def _check_writable(output: str) -> None:
    """Reject an output path that cannot be written, before a long run; touch nothing."""
    path = Path(output)
    if path.is_dir():
        raise ValueError(f"cannot write {output}: it is a directory")
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise ValueError(f"cannot write {output}: it or its directory is read-only or missing")


def _render_coloring(ec, fmt: str) -> str:
    if fmt == "ecg":
        return format_ecg(ec)
    if fmt == "json":
        return json.dumps(coloring_to_dict(ec), indent=2) + "\n"
    if fmt == "dot":
        return format_dot(ec)
    raise ValueError(f"unknown format {fmt!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _progress(level: int, count: int) -> None:
    print(f"order {level}: {count} classes", file=sys.stderr)


def cmd_value(args) -> int:
    p = _params(args.sizes)
    print(f"r={ramsey_value(p)} r*={star_critical_value(p)}")
    return 0


def cmd_construct(args) -> int:
    p = _params(args.sizes)
    check_graph_order(p.critical_order + 1 if args.star else p.critical_order)
    ec = construct_star_free(p) if args.star else construct_critical(p)
    _emit(_render_coloring(ec, args.format), args.output)
    return 0


def cmd_free_check(args) -> int:
    p = MatchParams(tuple(args.sizes))
    ec = _parse_coloring(args.file)
    # is_free rejects a color count other than p.c before matching_profile
    # walks all ec.c classes, which a header can make arbitrarily many
    free = is_free(ec, p)
    profile = matching_profile(ec)
    print(("FREE" if free else "NOT-FREE") + " nu=" + str(list(profile)).replace(" ", ""))
    return 0 if free else 1


def cmd_structure(args) -> int:
    p = MatchParams(tuple(args.sizes))
    ec = _parse_coloring(args.file)
    witness = find_structure(ec, p)
    if witness is None:
        print("NONE")
        return 1
    print("relabel=" + ",".join(str(x) for x in witness.color_relabel))
    for i, part in enumerate(witness.parts, start=1):
        print(f"V{i}=" + ",".join(str(v) for v in sorted(part)))
    return 0


def cmd_decompose(args) -> int:
    if args.color is not None:
        g = color_class(_parse_coloring(args.file), args.color)
    else:
        g = parse_adjlist(_read(args.file))
    ged = decompose(g)
    report = verify_decomposition(g, ged)
    def fmt_set(s):
        return "{" + ",".join(str(v) for v in sorted(s)) + "}"
    print("D=" + ";".join(fmt_set(comp) for comp in ged.d_components))
    print("A=" + fmt_set(ged.a))
    print("C=" + fmt_set(ged.c))
    for key, val in report.as_dict().items():
        print(f"{key}={val}")
    return 0 if report.all_ok else 1


def cmd_ledger(args) -> int:
    p = MatchParams(tuple(args.sizes))
    ec = _parse_coloring(args.file)
    led = proof_ledger(ec, p)
    if args.format == "json":
        print(json.dumps(led.as_dict(), indent=2))
    else:
        for entry in led.per_color:
            ds = ",".join(str(d) for d in entry.d_values)
            print(
                f"color {entry.color}: a={entry.a} d=[{ds}] b={entry.b} "
                f"edges {entry.edge_bound_lhs} <= {entry.edge_bound_rhs}"
            )
    return 0


def cmd_verify(args) -> int:
    p = _params(args.sizes)
    report = verify_ramsey_exhaustive(p, guard=args.guard, jobs=args.jobs, progress=_progress)
    if report.verified:
        print(f"VERIFIED r={report.order_checked}")
        return 0
    print(f"REFUTED r={report.order_checked} free_count={report.free_count}")
    return 1


def cmd_critical(args) -> int:
    p = _params(args.sizes)
    if args.output is not None:
        _check_writable(args.output)
    elif args.format is not None:
        # the list goes only to a file; stdout carries the summary line
        raise ValueError("--format needs --output")
    report = enumerate_critical(p, guard=args.guard, jobs=args.jobs, progress=_progress)
    print(
        f"order={report.order_checked} classes={len(report.critical_classes)} "
        f"structure_failures={len(report.structure_failures)}"
    )
    if args.output is not None:
        if args.format == "json":
            _emit(json.dumps(report.as_dict(), indent=2) + "\n", args.output)
        else:
            _emit("".join(format_ecg(ec) for ec in report.critical_classes), args.output)
    return 0 if report.structure_ok else 1


def cmd_star(args) -> int:
    p = _params(args.sizes)
    report = verify_star_exhaustive(p, guard=args.guard, jobs=args.jobs, progress=_progress)
    if report.verified:
        print(f"VERIFIED r*={report.star_value}")
        return 0
    print(f"REFUTED r*={report.star_value} lower={report.lower_ok} upper={report.upper_ok}")
    return 1


def cmd_contract(args) -> int:
    ec = _parse_coloring(args.file)
    parts = parse_partition(_read(args.partition), ec.host.n)
    contracted, rep_map = contract_partition(ec, parts)
    _emit(_render_coloring(contracted, args.format), args.output)
    for (i, j), (u, v) in sorted(rep_map.items()):
        print(f"edge {i}-{j} from {u}-{v}", file=sys.stderr)
    return 0


def _parse_coloring(path: str):
    text = _read(path)
    if path.endswith(".json"):
        return coloring_from_dict(json.loads(text))
    return parse_ecg(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matching-ramsey",
        description="Ramsey numbers of matchings: values, constructions, exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_sizes(sp):
        sp.add_argument("sizes", type=int, nargs="+", help="matching sizes n_1 n_2 ...")

    def add_search_flags(sp):
        sp.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
        sp.add_argument(
            "--guard", type=_positive_int, default=DEFAULT_ORDER_GUARD,
            help="order guard for enumeration",
        )

    sp = sub.add_parser("value", help="print r and r*")
    add_sizes(sp)
    sp.set_defaults(fn=cmd_value)

    sp = sub.add_parser("construct", help="write the critical (or star) construction")
    add_sizes(sp)
    sp.add_argument("--star", action="store_true", help="star host construction instead")
    sp.add_argument("--format", choices=("ecg", "json", "dot"), default="ecg")
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("free-check", help="matching profile and freeness of a coloring")
    sp.add_argument("file")
    sp.add_argument("--params", dest="sizes", type=int, nargs="+", required=True)
    sp.set_defaults(fn=cmd_free_check)

    sp = sub.add_parser("structure", help="read off the block-structure witness")
    sp.add_argument("file")
    sp.add_argument("--params", dest="sizes", type=int, nargs="+", required=True)
    sp.set_defaults(fn=cmd_structure)

    sp = sub.add_parser("decompose", help="Gallai-Edmonds partition and clause report")
    sp.add_argument("file", help="adjlist graph, or ecg coloring with --color")
    sp.add_argument("--color", type=int, default=None, help="take this color class of an ecg file")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("ledger", help="per-color decomposition ledger of a free coloring")
    sp.add_argument("file")
    sp.add_argument("--params", dest="sizes", type=int, nargs="+", required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_ledger)

    sp = sub.add_parser("verify", help="exhaustively confirm the Ramsey value")
    add_sizes(sp)
    add_search_flags(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("critical", help="enumerate critical classes and check structure")
    add_sizes(sp)
    add_search_flags(sp)
    sp.add_argument("--format", choices=("ecg", "json"), default=None, help="default ecg")
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(fn=cmd_critical)

    sp = sub.add_parser("star", help="confirm the star-critical value over every critical base")
    add_sizes(sp)
    add_search_flags(sp)
    sp.set_defaults(fn=cmd_star)

    sp = sub.add_parser("contract", help="contract a partition of a colored host")
    sp.add_argument("file", help="ecg coloring of the host")
    sp.add_argument("partition", help="partition file, one part per line")
    sp.add_argument("--format", choices=("ecg", "json"), default="ecg")
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(fn=cmd_contract)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        # also json.JSONDecodeError and UnicodeDecodeError, both subclasses
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

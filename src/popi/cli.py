"""Command-line front end.

Every command prints a deterministic report; `--json` emits a versioned
machine-readable document, `--csv` a flat projection of the same records.
Exit codes: 0 success, 1 selftest mismatch, 2 invalid arguments, input too
large to build (a chain of more than MAX_ELEMENTS points included) or an
`--out` path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import combinations

from . import __version__, errors
from .green import (
    green_characterized,
    green_oracle,
    is_regular_characterized,
    is_regular_oracle,
)
from .iso import bruteforce_isomorphism, decide_isomorphic
from .rank import deletion_test, semigroup_rank, top_rank_factorization
from .semigroup import (
    RangeContext,
    cardinality_formula,
    check_table_size,
    closure,
    element_blocks,
    element_count,
    enumerate_semigroup,
)
from .transform import PartialInjection

SCHEMA = 1


def _parse_points(text: str) -> tuple[int, ...]:
    try:
        pts = [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise errors.BadParameters("point list %r is not comma-separated integers" % text)
    if len(pts) != len(set(pts)):
        raise errors.BadParameters("point list %r has duplicates" % text)
    return tuple(sorted(pts))


def _fmt_elem(a: PartialInjection) -> str:
    if a.is_empty():
        return "empty"
    return " ".join(map("%d>%d".__mod__, zip(a.domain, a.image_seq)))


def _int_list(seq: tuple[int, ...]) -> str:
    """A list of ints as json.dumps(indent=2) writes it inside a record."""
    return "[\n        " + ",\n        ".join(map(str, seq)) + "\n      ]" if seq else "[]"


def _csv_list(seq: tuple[int, ...]) -> str:
    """A list of ints as the CSV writer writes it: joined by commas, and
    quoted when that gives a comma."""
    text = ",".join(map(str, seq))
    return '"%s"' % text if len(seq) > 1 else text


def _text_list(seq: tuple[int, ...]) -> str:
    """A list of ints as `_text_report` writes it: the list's str."""
    return "[%s]" % ", ".join(map(str, seq))


# One element of a listing in each format, as json.dumps(indent=2) (two
# levels deep), the CSV writer and `_text_report` write its record, the dict
# {"index", "rank", "domain", "image"}, with the writer of its int lists.  A
# domain fills in its rank and its list; what is left to fill per element is
# the index and the image list.
_LISTING = {
    "json": (
        '    {\n      "index": %%d,\n      "rank": %d,\n      "domain": %s,\n'
        '      "image": %%s\n    }',
        _int_list,
    ),
    "csv": ("%%d,%d,%s,%%s", _csv_list),
    "text": ("  index=%%d  rank=%d  domain=%s  image=%%s", _text_list),
}


def _listing(fmt: str, report: dict, blocks) -> str:
    """The report with "count" and, as its last key, "elements": one record
    per element of the listing's blocks, in format `fmt`, written without
    building the records.  Each image sequence's list is written once per
    block, that is once per rank, and each domain's list once.  JSON and
    text write the report itself around the records; CSV writes the records
    alone."""
    record, int_list = _LISTING[fmt]
    rows: list[str] = []
    for seqs, domains in blocks:
        texts = [int_list(seq) for seq in seqs]
        for domain in domains:
            row = record % (len(domain), int_list(domain))
            start = len(rows)
            rows.extend(map(row.__mod__, zip(range(start, start + len(texts)), texts)))
    report["count"] = len(rows)
    # the head and the tail ride on the first and last rows, so the
    # document is copied once, by the join
    if fmt == "json":
        head = json.dumps(report, indent=2)  # ends with "\n}"
        rows[0] = head[:-2] + ',\n  "elements": [\n' + rows[0]
        rows[-1] += "\n  ]\n}\n"
        return ",\n".join(rows)
    if fmt == "csv":
        rows[0] = "index,rank,domain,image\r\n" + rows[0]
        rows[-1] += "\r\n"
        return "\r\n".join(rows)
    rows[0] = _text_report(report) + "elements:\n" + rows[0]
    rows[-1] += "\n"
    return "\n".join(rows)


def _emit(args, report: dict, records: list[dict] | None = None, listing=None) -> None:
    """Write the report to stdout or --out; records drive the CSV projection
    when given.  A listing (`element_blocks`) becomes the report's "count"
    and its last key, "elements", written by `_listing`."""
    if listing is not None:
        text = _listing(args.format, report, listing)
    elif args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        rows = records if records is not None else [_flatten(report)]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: (",".join(map(str, v)) if isinstance(v, list) else v) for k, v in row.items()}
            )
        text = buf.getvalue()
    else:
        text = _text_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(report: dict) -> dict:
    """One CSV row: nested dicts become dotted keys, lists of scalars stay
    (the writer joins them with commas), lists of lists or dicts are dropped."""
    flat = {}
    for k, v in report.items():
        if isinstance(v, dict):
            for k2, v2 in v.items():
                flat["%s.%s" % (k, k2)] = v2
        elif not (isinstance(v, list) and any(isinstance(x, (list, dict)) for x in v)):
            flat[k] = v
    return flat


def _text_report(report: dict, indent: str = "") -> str:
    lines = []
    for k, v in report.items():
        if isinstance(v, dict):
            lines.append("%s%s:" % (indent, k))
            lines.append(_text_report(v, indent + "  ").rstrip("\n"))
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            lines.append("%s%s:" % (indent, k))
            for row in v:
                lines.append(
                    indent + "  " + "  ".join("%s=%s" % (k2, v2) for k2, v2 in row.items())
                )
        else:
            lines.append("%s%s: %s" % (indent, k, v))
    return "\n".join(lines) + "\n"


def _base_report(command: str, config: dict) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": config,
    }


# -- commands ---------------------------------------------------------------


def cmd_enumerate(args) -> int:
    ctx = RangeContext(args.n, _parse_points(args.y))
    report = _base_report("enumerate", {"n": ctx.n, "y": list(ctx.points)})
    _emit(args, report, listing=element_blocks(ctx))
    return 0


def cmd_card(args) -> int:
    if args.y is not None and args.r is not None:
        raise errors.BadParameters("card takes --y or --r, not both")
    if args.y is not None:
        pts = _parse_points(args.y)
    elif args.r is not None:
        # lazy, and RangeContext checks n before it reads the points; any
        # point past n is refused alike, so none past n + 1 is built
        pts = range(1, min(args.r, args.n + 1) + 1)
    else:
        raise errors.BadParameters("card needs --y or --r")
    ctx = RangeContext(args.n, pts)
    enumerated = element_count(ctx)  # refuses a count too large to compute
    formula = cardinality_formula(ctx.n, ctx.r)
    report = _base_report("card", {"n": ctx.n, "y": list(ctx.points)})
    report.update(
        {"formula": formula, "enumerated": enumerated, "match": formula == enumerated}
    )
    _emit(args, report)
    return 0


def cmd_green(args) -> int:
    ctx = RangeContext(args.n, _parse_points(args.y))
    if args.check:
        check_table_size(ctx.n, ctx.r)  # before anything is counted or built
    part = green_characterized(ctx, args.rel)
    report = _base_report(
        "green", {"n": ctx.n, "y": list(ctx.points), "rel": args.rel, "check": args.check}
    )
    report["class_count"] = len(part)
    report["class_sizes"] = [len(c) for c in part]
    if args.check:
        oracle = green_oracle(enumerate_semigroup(ctx), args.rel)
        report["oracle_agrees"] = part == oracle[args.rel]
    _emit(args, report)
    return 0


def cmd_rank(args) -> int:
    ctx = RangeContext(args.n, _parse_points(args.y))
    cert = semigroup_rank(ctx)
    closed = closure(ctx, list(cert.generating_set))
    deletions = deletion_test(ctx, list(cert.generating_set))
    report = _base_report("rank", {"n": ctx.n, "y": list(ctx.points)})
    report["claimed_rank"] = cert.claimed_rank
    report["generators"] = [_fmt_elem(a) for a in cert.generating_set]
    report["closure_ok"] = len(closed) == cert.order
    report["deletion_test"] = (
        "all-shrink" if all(deletions) else "kept:" + ",".join(
            str(i) for i, d in enumerate(deletions) if not d
        )
    )
    _emit(args, report)
    return 0


def cmd_iso(args) -> int:
    y = _parse_points(args.y)
    z = _parse_points(args.z)
    witness = decide_isomorphic(args.n, y, z)
    report = _base_report("iso", {"n": args.n, "y": list(y), "z": list(z)})
    report["verdict"] = witness.verdict
    report["reason"] = witness.reason
    if witness.delta is not None:
        report["delta"] = _fmt_elem(witness.delta)
    if args.oracle:
        found = bruteforce_isomorphism(args.n, y, z)
        report["oracle"] = found is not None
        report["agree"] = (found is not None) == witness.verdict
        if found is not None:
            report["element_map"] = [[i, j] for i, j in sorted(found.items())]
    _emit(args, report)
    return 0


def cmd_decompose(args) -> int:
    ctx = RangeContext(args.n, _parse_points(args.y))
    try:
        data = json.loads(args.element)
    except RecursionError:
        raise errors.BadParameters("--element is nested too deeply") from None
    elem = PartialInjection.from_json_dict(data, chain=ctx.n)
    steps: list = []
    factors = top_rank_factorization(ctx, elem, steps)
    # each step's input is an earlier β or γ, and each factor is one, so
    # every element is formatted once per report
    texts: dict = {}

    def fmt(a: PartialInjection) -> str:
        text = texts.get(a.table)
        if text is None:
            text = texts[a.table] = _fmt_elem(a)
        return text

    report = _base_report(
        "decompose", {"n": ctx.n, "y": list(ctx.points), "element": fmt(elem)}
    )
    report["factors"] = [fmt(f) for f in factors]
    report["steps"] = [
        {
            "op": op,
            "case": d.case,
            "shift": d.shift_exponent,
            "input": fmt(a),
            "beta": fmt(d.beta),
            "gamma": fmt(d.gamma),
        }
        for op, a, d in steps
    ]
    _emit(args, report, report["steps"] or None)
    return 0


def cmd_selftest(args) -> int:
    if args.max_n < 1:
        raise errors.BadParameters("--max-n must be at least 1, got %d" % args.max_n)
    check_table_size(args.max_n, args.max_n)  # the full range's table is the largest
    failures = []
    for n in range(1, args.max_n + 1):
        for size in range(1, n + 1):
            for pts in combinations(range(1, n + 1), size):
                ctx = RangeContext(n, pts)
                S = enumerate_semigroup(ctx)
                # no commas, so the CSV projection's joined list splits back
                where = "n=%d y={%s}" % (n, " ".join(map(str, pts)))
                if len(S) != cardinality_formula(n, ctx.r):
                    failures.append("cardinality " + where)
                for i in range(len(S)):
                    if is_regular_oracle(S, i) != is_regular_characterized(ctx, S[i]):
                        failures.append("regularity %s i=%d" % (where, i))
                        break
                oracle = green_oracle(S, "LRHD")
                for rel in ("L", "R", "H", "D"):
                    if green_characterized(ctx, rel) != oracle[rel]:
                        failures.append("green-%s %s" % (rel, where))
    report = _base_report("selftest", {"max_n": args.max_n})
    report["failures"] = failures
    report["ok"] = not failures
    _emit(args, report)
    return 0 if not failures else 1


# -- entry point ------------------------------------------------------------


def _chain_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", type=str, required=True, help="comma-separated points")
    _format_args(p)


def _format_args(p) -> None:
    p.add_argument("--json", dest="format", action="store_const", const="json", default="text")
    p.add_argument("--csv", dest="format", action="store_const", const="csv")
    p.add_argument("--out", type=str, default=None)


def _card_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    _format_args(p)
    p.add_argument("--y", type=str, default=None)
    p.add_argument("--r", type=int, default=None)


def _green_args(p) -> None:
    _chain_args(p)
    p.add_argument("--rel", choices=["L", "R", "H", "D"], required=True)
    p.add_argument("--check", action="store_true", help="compare against the oracle")


def _iso_args(p) -> None:
    _chain_args(p)
    p.add_argument("--z", type=str, required=True)
    p.add_argument("--oracle", action="store_true", help="also run the brute-force search")


def _decompose_args(p) -> None:
    _chain_args(p)
    p.add_argument("--element", type=str, required=True, help='e.g. {"n":3,"pairs":[[3,1]]}')


def _selftest_args(p) -> None:
    p.add_argument("--max-n", type=int, default=4)
    _format_args(p)


# name -> (help, handler, function adding the command's arguments); usage
# lines list arguments in the order they are added
COMMANDS = {
    "enumerate": ("list every element", cmd_enumerate, _chain_args),
    "card": ("formula vs enumerated count", cmd_card, _card_args),
    "green": ("Green's relation classes", cmd_green, _green_args),
    "rank": ("rank certificate", cmd_rank, _chain_args),
    "iso": ("isomorphism decision", cmd_iso, _iso_args),
    "decompose": ("factor an element into top-rank products", cmd_decompose, _decompose_args),
    "selftest": ("oracle-vs-characterization sweep", cmd_selftest, _selftest_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for every argv that is not plain."""
    parser = argparse.ArgumentParser(
        prog="popi",
        description="Orientation-preserving partial injections with restricted range.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_args) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


class _OptionTable(dict):
    """A command's options as its argument function adds them: option name
    -> (dest, type, const, default, required, choices), where a flag, which
    takes no value, has type None.  The defaults are argparse's."""

    def add_argument(self, name, action="store", dest=None, type=str, const=None,
                     default=None, required=False, choices=None, help=None):
        if action == "store_true":
            const, default = True, False
        dest = dest or name.lstrip("-").replace("-", "_")
        type = type if action == "store" else None
        self[name] = (dest, type, const, default, required, choices)


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """What the full parser gives for a plain argv, less `command`, read
    without building a parser; None for any other argv.  A plain argv is a
    command's name, then exact option names of that command, each option
    that takes a value followed by one that does not start with "-", every
    value valid and every required option given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, add_args = COMMANDS[argv[0]]
    options = _OptionTable()
    add_args(options)
    values, missing = {}, set()
    for name, (dest, _, _, default, required, _) in options.items():
        values.setdefault(dest, default)  # as argparse: a dest's first default
        if required:
            missing.add(name)
    tokens = iter(argv[1:])
    for name in tokens:
        if name not in options:
            return None
        dest, type_, const, _, _, choices = options[name]
        missing.discard(name)
        if type_ is None:
            values[dest] = const
            continue
        text = next(tokens, "-")  # a missing value is not plain either
        if text.startswith("-"):
            return None
        try:
            value = type_(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if missing:
        return None
    return argparse.Namespace(**values, func=handler)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What the full parser gives for argv, less `command`: a plain argv is
    read from its command's option table, and the full parser takes every
    other argv, with its help, usage and error texts."""
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        del args.command
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # parsed in its own frame, so that no parser is alive while the command runs
    args = _parse_args(argv)
    try:
        return args.func(args)
    except (errors.PopiError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

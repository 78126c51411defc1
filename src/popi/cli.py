"""Command-line front end.

Every command prints a deterministic report; `--json` emits a versioned
machine-readable document, `--csv` a flat projection of the same records.
Exit codes: 0 success, 1 selftest mismatch, 2 invalid arguments, input too
large to build (a chain of more than MAX_ELEMENTS points included) or an
`--out` path that cannot be written.
"""

from __future__ import annotations

import io
import json
import sys
from itertools import chain, combinations, repeat, takewhile
from json.encoder import encode_basestring_ascii as _quote
from operator import eq
from types import SimpleNamespace

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


def _fmt_elem(table: tuple[int, ...]) -> str:
    """An element's defined pairs as "x>y" words, in one pass over its
    table, or "empty"."""
    return " ".join([f"{x}>{y}" for x, y in enumerate(table, 1) if y]) or "empty"


class _Texts(dict):
    """Element texts by table, each formatted at its first lookup."""

    def __missing__(self, table: tuple[int, ...]) -> str:
        text = self[table] = _fmt_elem(table)
        return text


def _json(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, indent=2)`, written directly, for what a report
    holds: str, int, bool, None, and lists and str-keyed dicts of them;
    TypeError for anything else.  `pad` starts the value's closing line."""
    cls = type(obj)
    if cls is str:
        return _quote(obj)
    if cls is int:
        return repr(obj)
    inner = pad + "  "
    if cls is list:
        items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if cls is dict:
        items = [_quote(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if cls is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    raise TypeError("a report holds no %s" % cls.__name__)


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
# {"index", "rank", "domain", "image"}, split around its index: the head
# before the index, the middle after it (a template for the domain's rank
# and list), and the close after the image list, separator included; then
# the document's close, which replaces the last record's close; then the
# writer of the int lists.
_LISTING = {
    "json": (
        '    {\n      "index": ',
        ',\n      "rank": %d,\n      "domain": %s,\n      "image": ',
        "\n    },\n",
        "\n    }\n  ]\n}\n",
        _int_list,
    ),
    "csv": ("", ",%d,%s,", "\r\n", "\r\n", _csv_list),
    "text": ("  index=", "  rank=%d  domain=%s  image=", "\n", "\n", _text_list),
}


def _listing(fmt: str, report: dict, blocks) -> str:
    """The report with "count" and, as its last key, "elements": one record
    per element of the listing's blocks, in format `fmt`, written without
    building or formatting a record.  A block's image sequences each get
    one tail, their list and the record's close; a domain gets one middle,
    its rank and list; and each element is four pieces, the shared head,
    its index, its domain's middle and its sequence's tail, joined once
    over the whole document.  JSON and text write the report itself around
    the records; CSV writes the records alone."""
    head, middle, close, end, int_list = _LISTING[fmt]
    parts: list[str] = []
    count = 0
    for seqs, domains in blocks:
        tails = [int_list(seq) + close for seq in seqs]
        m = len(tails)
        for domain in domains:
            mid = middle % (len(domain), int_list(domain))
            parts.extend(
                chain.from_iterable(
                    zip(repeat(head, m), map(str, range(count, count + m)), repeat(mid, m), tails)
                )
            )
            count += m
    report["count"] = count
    # the document's head and close ride on the first and last pieces, so
    # the document is copied once, by the join
    parts[0] = _records_head(fmt, report, "elements", "index,rank,domain,image") + head
    parts[-1] = parts[-1][: -len(close)] + end
    return "".join(parts)


def _records_head(fmt: str, report: dict, key: str, fields: str) -> str:
    """What comes before the first record of the report's last key `key`:
    the report and the list's opening in JSON and text, the header `fields`
    in CSV, which writes the records alone."""
    if fmt == "json":
        return _json(report)[:-2] + ',\n  "%s": [\n' % key  # _json ends with "\n}"
    if fmt == "csv":
        return fields + "\r\n"
    return _text_report(report) + key + ":\n"


# One step of a decompose report in each format, as json.dumps(indent=2)
# (two levels deep), the CSV writer and `_text_report` write its record, the
# dict {"op", "case", "shift", "input", "beta", "gamma"}; then what joins two
# records, and the document's close after the last.  No field needs quoting
# or escaping in any format: an element's text holds only digits, ">" and
# spaces, or is "empty", and an op or case name holds only [a-z._].
_STEP = {
    "json": (
        '    {\n      "op": "%s",\n      "case": "%s",\n      "shift": %d,\n'
        '      "input": "%s",\n      "beta": "%s",\n      "gamma": "%s"\n    }',
        ",\n",
        "\n  ]\n}\n",
    ),
    "csv": ("%s,%s,%d,%s,%s,%s", "\r\n", "\r\n"),
    "text": ("  op=%s  case=%s  shift=%d  input=%s  beta=%s  gamma=%s", "\n", "\n"),
}


def _steps(fmt: str, report: dict, steps: list, texts: _Texts) -> str:
    """The report with, as its last key, "steps": one record per
    `(op, input, Decomposition)` step, in format `fmt`, each filled once
    from its template with the elements' texts.  JSON and text write the
    report itself before the records; CSV writes the records alone."""
    template, sep, end = _STEP[fmt]
    records = [
        template
        % (op, d.case, d.shift_exponent, texts[a.table], texts[d.beta.table], texts[d.gamma.table])
        for op, a, d in steps
    ]
    head = _records_head(fmt, report, "steps", "op,case,shift,input,beta,gamma")
    return head + sep.join(records) + end


def _emit(args, report: dict, write=None, *items) -> None:
    """Write the report to stdout or --out, in `args.format`.  A report that
    ends in a list of records is written by `write`, `_listing` or `_steps`,
    called with the format, the report and `items`."""
    if write is not None:
        text = write(args.format, report, *items)
    elif args.format == "json":
        text = _json(report) + "\n"
    elif args.format == "csv":
        import csv

        row = _flatten(report)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(
            {k: (",".join(map(str, v)) if isinstance(v, list) else v) for k, v in row.items()}
        )
        text = buf.getvalue()
    else:
        text = _text_report(report)
    if args.out is not None:
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
    _emit(args, report, _listing, element_blocks(ctx))
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
    classes = green_characterized(ctx, args.rel)
    report = _base_report(
        "green", {"n": ctx.n, "y": list(ctx.points), "rel": args.rel, "check": args.check}
    )
    report["class_count"] = len(classes[args.rel])
    report["class_sizes"] = [len(c) for c in classes[args.rel]]
    if args.check:
        report["oracle_agrees"] = classes == green_oracle(enumerate_semigroup(ctx), args.rel)
    _emit(args, report)
    return 0


def cmd_rank(args) -> int:
    ctx = RangeContext(args.n, _parse_points(args.y))
    cert = semigroup_rank(ctx)
    closed = closure(ctx, list(cert.generating_set))
    deletions = deletion_test(ctx, list(cert.generating_set))
    report = _base_report("rank", {"n": ctx.n, "y": list(ctx.points)})
    report["claimed_rank"] = cert.claimed_rank
    report["generators"] = [_fmt_elem(a.table) for a in cert.generating_set]
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
        report["delta"] = _fmt_elem(witness.delta.table)
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
    texts = _Texts()
    report = _base_report(
        "decompose", {"n": ctx.n, "y": list(ctx.points), "element": texts[elem.table]}
    )
    report["factors"] = [texts[f.table] for f in factors]
    if steps:
        _emit(args, report, _steps, steps, texts)
    else:  # a top-rank member
        report["steps"] = []
        _emit(args, report)
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
                characterized, oracle = is_regular_characterized(ctx), is_regular_oracle(S)
                if characterized != oracle:
                    # their common prefix's length: where they first differ, or where one ends
                    i = sum(takewhile(bool, map(eq, characterized, oracle)))
                    failures.append("regularity %s i=%d" % (where, i))
                characterized = green_characterized(ctx, "LRHD")
                oracle = green_oracle(S, "LRHD")
                for rel in "LRHD":
                    if characterized[rel] != oracle[rel]:
                        failures.append("green-%s %s" % (rel, where))
    report = _base_report("selftest", {"max_n": args.max_n})
    report["failures"] = failures
    report["ok"] = not failures
    _emit(args, report)
    return 0 if not failures else 1


# -- entry point ------------------------------------------------------------


# One row per option, in usage order: (name, dest, type, const, default,
# required, choices, help).  A flag takes no value: its type is None and it
# sets its dest to const.  The two format flags share one dest, so they
# share its default too.
_N = ("--n", "n", int, None, None, True, None, None)
_FORMAT = (
    ("--json", "format", None, "json", "text", False, None, None),
    ("--csv", "format", None, "csv", "text", False, None, None),
    ("--out", "out", str, None, None, False, None, None),
)
_CHAIN = (_N, ("--y", "y", str, None, None, True, None, "comma-separated points"), *_FORMAT)

# name -> (help, handler, option rows)
COMMANDS = {
    "enumerate": ("list every element", cmd_enumerate, _CHAIN),
    "card": ("formula vs enumerated count", cmd_card, (
        _N,
        *_FORMAT,
        ("--y", "y", str, None, None, False, None, None),
        ("--r", "r", int, None, None, False, None, None),
    )),
    "green": ("Green's relation classes", cmd_green, (
        *_CHAIN,
        ("--rel", "rel", str, None, None, True, ("L", "R", "H", "D"), None),
        ("--check", "check", None, True, False, False, None, "compare against the oracle"),
    )),
    "rank": ("rank certificate", cmd_rank, _CHAIN),
    "iso": ("isomorphism decision", cmd_iso, (
        *_CHAIN,
        ("--z", "z", str, None, None, True, None, None),
        ("--oracle", "oracle", None, True, False, False, None, "also run the brute-force search"),
    )),
    "decompose": ("factor an element into top-rank products", cmd_decompose, (
        *_CHAIN,
        ("--element", "element", str, None, None, True, None, 'e.g. {"n":3,"pairs":[[3,1]]}'),
    )),
    "selftest": ("oracle-vs-characterization sweep", cmd_selftest, (
        ("--max-n", "max_n", int, None, 4, False, None, None),
        *_FORMAT,
    )),
}


def build_parser():
    """The argparse parser of every command, for every argv that is not
    plain.  argparse is imported here alone, so a plain argv never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="popi",
        description="Orientation-preserving partial injections with restricted range.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, dest, type_, const, default, required, choices, help_ in options:
            kind = (
                {"action": "store_const", "const": const}
                if type_ is None
                else {"type": type_, "choices": choices}
            )
            p.add_argument(
                name, dest=dest, default=default, required=required, help=help_, **kind
            )
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """What the full parser gives for a plain argv, read from the command's
    option rows without building a parser; None for any other argv.  A
    plain argv is a command's name, then exact option names of that
    command, each option that takes a value followed by one that does not
    start with "-", every value valid and every required option given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    rows = {row[0]: row for row in COMMANDS[argv[0]][2]}
    values = {row[1]: row[4] for row in rows.values()}
    missing = {name for name, row in rows.items() if row[5]}
    tokens = iter(argv[1:])
    for name in tokens:
        if name not in rows:
            return None
        _, dest, type_, const, _, _, choices, _ = rows[name]
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
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--":
        # argparse reads a leading "--" as a command before 3.13.13 and as the
        # end of options since; refuse it as an invalid command on every release
        choices = ", ".join(map(repr, COMMANDS))
        build_parser().error("argument command: invalid choice: '--' (choose from %s)" % choices)
    # a parser, if one is built, is freed before the command runs
    args = _read_plain(argv) or build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][1](args)
    except (errors.PopiError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every command builds a deterministic report; `--json` emits a versioned
machine-readable document, `--csv` a flat projection of the same records.
Each handler returns its report's text and exit code and does no I/O;
`main` alone writes the text, to stdout or to `--out`.
Exit codes: 0 success, 1 selftest mismatch, 2 invalid arguments, input too
large to build (a chain of more than MAX_ELEMENTS points included), or an
`--out` path or stdout that cannot be written.
"""

from __future__ import annotations

import errno
import json
import sys
from itertools import combinations, takewhile
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


def _csv(value) -> str:
    """One CSV field as csv.writer writes a report's: a list or tuple joined
    by commas, and quoted when its text holds a comma.  No report field
    holds a quote or a line end, which would need more."""
    text = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
    return '"%s"' % text if "," in text else text


def _text_list(seq: tuple[int, ...]) -> str:
    """A list of ints as `_text_report` writes it: the list's str."""
    return "[%s]" % ", ".join(map(str, seq))


# One element of a listing in each format, as json.dumps(indent=2) (two
# levels deep), `_csv` and `_text_report` write its record, the dict
# {"index", "rank", "domain", "image"}, split around its index: the head
# before the index, the middle after it (a template for the domain's rank
# and list), and the close after the image list, the format's separator
# included; then the writer of the int lists.  In a listing the head rides
# on the close before it, so an element is three pieces.
_LISTING = {
    "json": (
        '    {\n      "index": ',
        ',\n      "rank": %d,\n      "domain": %s,\n      "image": ',
        "\n    },\n",
        _int_list,
    ),
    "csv": ("", ",%d,%s,", "\r\n", _csv),
    "text": ("  index=", "  rank=%d  domain=%s  image=", "\n", _text_list),
}


def _listing(fmt: str, report: dict, blocks) -> str:
    """The report with "count" and, as its last key, "elements": one record
    per element of the listing's blocks, in format `fmt`, written without
    building or formatting a record.  Each element is three pieces: its
    index, its domain's middle (its rank and list) and its image sequence's
    tail (its list, the record's close and the next record's head).  A rank
    block of m sequences and k domains makes m tails and k middles and
    fills one list of 3·m·k slots by strided slice assignment, domain d
    with sequence s at slots 3·(d·m + s) to 3·(d·m + s) + 2; `_records`
    joins the pieces once over the whole document.  The first piece gets
    the head and the last tail drops it.  The blocks hold at least one
    element, the empty map."""
    head, middle, close, int_list = _LISTING[fmt]
    parts: list[str] = []
    count = 0
    for seqs, domains in blocks:
        tails = [int_list(seq) + close + head for seq in seqs]
        mids = [middle % (len(domain), int_list(domain)) for domain in domains]
        m, k = len(tails), len(mids)
        block = [""] * (3 * m * k)
        # format(i) is str(i); before 3.13 calling the str type costs more
        block[0::3] = map(format, range(count, count + m * k))
        for s in range(m):  # block[1::3]: each middle m times
            block[3 * s + 1 :: 3 * m] = mids
        block[2::3] = tails * k
        parts += block
        count += m * k
    parts[0] = head + parts[0]
    parts[-1] = parts[-1][: len(parts[-1]) - len(head)]
    report["count"] = count
    return _records(fmt, report, "elements", "index,rank,domain,image", parts)


# One step of a decompose report in each format, as json.dumps(indent=2)
# (two levels deep), `_csv` and `_text_report` write its record, the dict
# {"op", "case", "shift", "input", "beta", "gamma"}, the format's separator
# included.  No field needs quoting or escaping in any format: an element's
# text holds only digits, ">" and spaces, or is "empty", and an op or case
# name holds only [a-z._].
_STEP = {
    "json": '    {\n      "op": "%s",\n      "case": "%s",\n      "shift": %d,\n'
    '      "input": "%s",\n      "beta": "%s",\n      "gamma": "%s"\n    },\n',
    "csv": "%s,%s,%d,%s,%s,%s\r\n",
    "text": "  op=%s  case=%s  shift=%d  input=%s  beta=%s  gamma=%s\n",
}


def _steps(fmt: str, report: dict, steps: list, texts: _Texts) -> str:
    """The report with, as its last key, "steps": one record per
    `(op, input, Decomposition)` step, in format `fmt`, each filled once
    from its template with the elements' texts and finished by `_records`."""
    template = _STEP[fmt]
    records = [
        template
        % (op, d.case, d.shift_exponent, texts[a.table], texts[d.beta.table], texts[d.gamma.table])
        for op, a, d in steps
    ]
    return _records(fmt, report, "steps", "op,case,shift,input,beta,gamma", records)


def _records(fmt: str, report: dict, key: str, fields: str, pieces: list[str]) -> str:
    """The report with, as its last key `key`, the records written in
    `pieces`, each record's last piece ending in the format's separator.
    The report goes on the first piece in JSON and text, the header `fields`
    in CSV, which writes the records alone; the document's close replaces
    the last separator (in CSV and text it is that separator); and one join
    copies the document.  With no records the report is one row, its `key`
    an empty list."""
    if not pieces:
        report[key] = []
        return _report(fmt, report)
    if fmt == "json":
        head = _json(report)[:-2] + ',\n  "%s": [\n' % key  # _json ends with "\n}"
        pieces[-1] = pieces[-1][:-2] + "\n  ]\n}\n"  # for the last ",\n"
    elif fmt == "csv":
        head = fields + "\r\n"
    else:
        head = _text_report(report) + key + ":\n"
    pieces[0] = head + pieces[0]
    return "".join(pieces)


def _report(fmt: str, report: dict) -> str:
    """A report with no records, in format `fmt`: its JSON, its CSV header
    and one row, or its text."""
    if fmt == "json":
        return _json(report) + "\n"
    if fmt == "csv":
        row = _flatten(report)
        return ",".join(map(_csv, row)) + "\r\n" + ",".join(map(_csv, row.values())) + "\r\n"
    return _text_report(report)


def _flatten(report: dict) -> dict:
    """One CSV row: nested dicts become dotted keys, lists of scalars stay
    (`_csv` joins them with commas), lists of lists or dicts are dropped."""
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


def cmd_enumerate(args) -> tuple[str, int]:
    ctx = RangeContext(args.n, _parse_points(args.y))
    report = _base_report("enumerate", {"n": ctx.n, "y": list(ctx.points)})
    return _listing(args.format, report, element_blocks(ctx)), 0


def cmd_card(args) -> tuple[str, int]:
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
    return _report(args.format, report), 0


def cmd_green(args) -> tuple[str, int]:
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
    return _report(args.format, report), 0


def cmd_rank(args) -> tuple[str, int]:
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
    return _report(args.format, report), 0


def cmd_iso(args) -> tuple[str, int]:
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
    return _report(args.format, report), 0


def cmd_decompose(args) -> tuple[str, int]:
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
    return _steps(args.format, report, steps, texts), 0


def cmd_selftest(args) -> tuple[str, int]:
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
    return _report(args.format, report), 0 if not failures else 1


# -- entry point ------------------------------------------------------------


# Each command's options: a dict from option name to the keyword arguments
# of argparse's `add_argument`, in usage order.  A flag takes no value: its
# action is "store_const" and it sets its dest to const.  The two format
# flags share one dest, so they share its default too.
_N = {"--n": {"dest": "n", "type": int, "required": True}}
_FORMAT = {
    "--json": {"dest": "format", "action": "store_const", "const": "json", "default": "text"},
    "--csv": {"dest": "format", "action": "store_const", "const": "csv", "default": "text"},
    "--out": {"dest": "out", "type": str},
}
_CHAIN = {
    **_N, "--y": {"dest": "y", "type": str, "required": True, "help": "comma-separated points"},
    **_FORMAT,
}

# name -> (help, handler, options); a handler takes the parsed args and
# returns its report's text and exit code, and `main` writes the text
COMMANDS = {
    "enumerate": ("list every element", cmd_enumerate, _CHAIN),
    "card": ("formula vs enumerated count", cmd_card, {
        **_N, **_FORMAT, "--y": {"dest": "y", "type": str}, "--r": {"dest": "r", "type": int},
    }),
    "green": ("Green's relation classes", cmd_green, {
        **_CHAIN,
        "--rel": {"dest": "rel", "type": str, "required": True, "choices": ("L", "R", "H", "D")},
        "--check": {"dest": "check", "action": "store_const", "const": True, "default": False,
                    "help": "compare against the oracle"},
    }),
    "rank": ("rank certificate", cmd_rank, _CHAIN),
    "iso": ("isomorphism decision", cmd_iso, {
        **_CHAIN,
        "--z": {"dest": "z", "type": str, "required": True},
        "--oracle": {"dest": "oracle", "action": "store_const", "const": True, "default": False,
                     "help": "also run the brute-force search"},
    }),
    "decompose": ("factor an element into top-rank products", cmd_decompose, {
        **_CHAIN,
        "--element": {"dest": "element", "type": str, "required": True,
                      "help": 'e.g. {"n":3,"pairs":[[3,1]]}'},
    }),
    "selftest": ("oracle-vs-characterization sweep", cmd_selftest, {
        "--max-n": {"dest": "max_n", "type": int, "default": 4},
        **_FORMAT,
    }),
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
        for name, kwargs in options.items():
            p.add_argument(name, **kwargs)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """What the full parser gives for a plain argv, read from the command's
    options without building a parser; None for any other argv.  A plain
    argv is a command's name, then exact option names of that command, each
    option that takes a value followed by one that does not start with "-",
    every value valid and every required option given (a required option
    has no default, so its dest holds None until it is given)."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][2]
    values = {kwargs["dest"]: kwargs.get("default") for kwargs in options.values()}
    tokens = iter(argv[1:])
    for name in tokens:
        kwargs = options.get(name)
        if kwargs is None:
            return None
        if "action" in kwargs:
            values[kwargs["dest"]] = kwargs["const"]
            continue
        text = next(tokens, "-")  # a missing value is not plain either
        if text.startswith("-"):
            return None
        try:
            value = kwargs["type"](text)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[kwargs["dest"]] = value
    if any(values[kwargs["dest"]] is None for kwargs in options.values() if kwargs.get("required")):
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
        text, code = COMMANDS[args.command][1](args)
        if args.out is None:
            if sys.stdout is None:  # fd 1 was closed when the process started
                raise OSError(errno.EBADF, "stdout is closed")
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
        return code
    except (errors.PopiError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

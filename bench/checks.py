"""Output checks that do not trust popi.

Each checker reads one captured JSON report and verifies it against facts
the benchmark computes itself, on raw slot tables (slot x-1 holds the image
of x, 0 when undefined).  A checker returns None when the report is right
and a one-line reason when it is not.  This module does not import popi.
"""

from __future__ import annotations

import json
import math

from workloads import dihedral_images, rank_layer_elements


def card_formula(n: int, r: int) -> int:
    return 1 + r * math.comb(n + r - 1, r)


def is_cyclic(seq) -> bool:
    """At most one descent when the sequence is read circularly."""
    t = len(seq)
    return sum(1 for i in range(t) if seq[i] > seq[(i + 1) % t]) <= 1


def parse_element(n: int, text: str) -> list[int]:
    """Slot table of an element printed as "x>y x>y ..." or "empty"."""
    table = [0] * n
    if text != "empty":
        for pair in text.split():
            x, y = pair.split(">")
            table[int(x) - 1] = int(y)
    return table


def compose(a: list[int], b: list[int]) -> list[int]:
    """a followed by b."""
    return [b[v - 1] if v else 0 for v in a]


def green_class_count(n: int, y, rel: str) -> int:
    """Class count from the closed-form keys: an element is regular when its
    domain lies in Y; regular L-classes share an image, R-classes a domain,
    H-classes both, D-classes a rank; a non-regular element is alone in its
    L- and H-class and shares its D-class with its domain."""
    ys = set(y)
    keys = set()
    for k in range(len(ys) + 1):
        for i, (dom, img) in enumerate(rank_layer_elements(n, y, k)):
            regular = set(dom) <= ys
            image = frozenset(img)
            if rel == "L":
                key = ("reg", image) if regular else ("one", k, i)
            elif rel == "R":
                key = dom
            elif rel == "H":
                key = ("reg", dom, image) if regular else ("one", k, i)
            else:
                key = ("reg", k) if regular else ("non", dom)
            keys.add(key)
    return len(keys)


def _config(report: dict, task: dict) -> str | None:
    if report.get("schema") != 1 or report.get("command") != task["kind"]:
        return "wrong schema or command"
    return None


def check_green(task, report):
    if report["oracle_agrees"] is not True:
        return "oracle disagrees"
    n, y = task["n"], task["y"]
    if sum(report["class_sizes"]) != card_formula(n, len(y)):
        return "class sizes do not cover the semigroup"
    expected = green_class_count(n, y, task["rel"])
    if report["class_count"] != expected or len(report["class_sizes"]) != expected:
        return "class_count %r, expected %d" % (report["class_count"], expected)
    return None


def check_rank(task, report):
    n, r = task["n"], len(task["y"])
    expected = 2 if r == n else math.comb(n, r)
    if report["claimed_rank"] != expected or len(report["generators"]) != expected:
        return "claimed rank %r, expected %d" % (report["claimed_rank"], expected)
    if report["closure_ok"] is not True:
        return "generators do not close to the semigroup"
    if report["deletion_test"] != "all-shrink":
        return "deletion test: %s" % report["deletion_test"]
    return None


def check_iso(task, report):
    n, y, z = task["n"], task["y"], task["z"]
    if len(y) != len(z):
        verdict = False
    else:
        verdict = len(y) <= 2 or tuple(sorted(z)) in dihedral_images(n, y)
    if report["verdict"] is not verdict or report["oracle"] is not verdict:
        return "verdict %r, oracle %r, expected %r" % (report["verdict"], report["oracle"], verdict)
    if report["agree"] is not True:
        return "oracle disagrees"
    return None


def check_selftest(task, report):
    if report["ok"] is not True or report["failures"]:
        return "selftest failures: %r" % report["failures"][:3]
    return None


def check_decompose(task, report):
    n, y = task["n"], set(task["y"])
    target = [0] * n
    for x, v in task["pairs"]:
        target[x - 1] = v
    factors = [parse_element(n, f) for f in report["factors"]]
    if not factors:
        return "no factors"
    for f in factors:
        image = [v for v in f if v]
        if len(image) != len(y) or not set(image) <= y or not is_cyclic(image):
            return "factor %r is not a top-rank element" % (f,)
    product = factors[0]
    for f in factors[1:]:
        product = compose(product, f)
    if product != target:
        return "factors compose to %r, not %r" % (product, target)
    return None


def check_elements(task, report):
    n, y = task["n"], task["y"]
    expected = card_formula(n, len(y))
    if report["count"] != expected or len(report["elements"]) != expected:
        return "count %r, expected %d" % (report["count"], expected)
    ys = set(y)
    seen = set()
    for rec in report["elements"]:
        dom, img = tuple(rec["domain"]), tuple(rec["image"])
        if (
            len(dom) != len(img)
            or rec["rank"] != len(dom)
            or list(dom) != sorted(set(dom))
            or not all(1 <= x <= n for x in dom)
            or len(set(img)) != len(img)
            or not set(img) <= ys
            or not is_cyclic(img)
        ):
            return "record %r is not an element" % (rec,)
        seen.add((dom, img))
    if len(seen) != expected:
        return "records repeat"
    return None


def check_card(task, report):
    expected = card_formula(task["n"], len(task["y"]))
    if report["formula"] != expected or report["enumerated"] != expected or report["match"] is not True:
        return "formula %r, enumerated %r, expected %d" % (
            report["formula"], report["enumerated"], expected
        )
    return None


CHECKERS = {
    "green": check_green,
    "rank": check_rank,
    "iso": check_iso,
    "selftest": check_selftest,
    "decompose": check_decompose,
    "enumerate": check_elements,
    "card": check_card,
}


def check(task: dict, code: int, out: str) -> tuple[str | None, dict | None]:
    """(reason the task failed or None, parsed report or None)."""
    if code != 0:
        return "exit code %r" % (code,), None
    try:
        report = json.loads(out)
        reason = _config(report, task) or CHECKERS[task["kind"]](task, report)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return "malformed report: %s: %s" % (type(exc).__name__, exc), None
    return reason, report

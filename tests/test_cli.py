import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import string
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import popi as P
from popi.cli import (
    COMMANDS,
    _base_report,
    _csv,
    _json,
    _read_plain,
    build_parser,
    main,
)

from conftest import (
    all_range_sets,
    member_of,
    proper_range_sets,
    semigroup,
    text_report,
    to_json_dict,
)


FULL_30 = ",".join(map(str, range(1, 31)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestCard:
    def test_matches_formula(self, capsys):
        code, doc = run_json(capsys, "card", "--n", "3", "--y", "1,2")
        assert code == 0
        assert doc["formula"] == 13 and doc["enumerated"] == 13 and doc["match"]

    def test_r_shortcut(self, capsys):
        code, doc = run_json(capsys, "card", "--n", "3", "--r", "3")
        assert code == 0 and doc["formula"] == 31

    def test_needs_y_or_r(self, capsys):
        code, out, err = run(capsys, "card", "--n", "3")
        assert code == 2 and "BadParameters" in err

    def test_y_and_r_refused(self, capsys):
        code, out, err = run(capsys, "card", "--n", "5", "--y", "1,2", "--r", "4")
        assert code == 2 and out == ""
        assert err == "error: BadParameters: card takes --y or --r, not both\n"

    def test_builds_no_element_set(self, capsys, element_sets):
        # the count reads the blocks' pairs; |S| = 923,781 at n = 10
        code, doc = run_json(capsys, "card", "--n", "10", "--r", "10")
        assert code == 0 and doc["formula"] == doc["enumerated"] == 923781
        assert element_sets == []

    def test_r_past_n_refused_before_building(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "card", "--n", "5", "--r", str(10**6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == "error: PointOutOfRange: range set not contained in 1..5\n"
        assert peak < 2**20


def _y(pts) -> str:
    return ",".join(map(str, pts))


def listed_report(n: int, pts: tuple[int, ...]) -> dict:
    """The enumerate report built from element objects: "count", then one
    {"index", "rank", "domain", "image"} record per element, in order."""
    S = P.enumerate_semigroup(P.RangeContext(n, pts))
    report = _base_report("enumerate", {"n": n, "y": list(pts)})
    report["count"] = len(S)
    report["elements"] = [
        {"index": i, "rank": a.rank, "domain": list(a.domain), "image": list(a.image_seq)}
        for i, a in enumerate(S)
    ]
    return report


def written_csv(report: dict) -> str:
    """The enumerate report's records as csv.DictWriter writes them, each
    list joined by commas."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["index", "rank", "domain", "image"])
    writer.writeheader()
    for record in report["elements"]:
        writer.writerow(
            {k: ",".join(map(str, v)) if isinstance(v, list) else v for k, v in record.items()}
        )
    return buf.getvalue()


def first_difference(got: str, want: str):
    """None when equal; else the first differing line's number and both
    versions of it, which pytest prints at once where a diff of two whole
    listings takes minutes."""
    if got == want:
        return None
    pairs = zip(got.splitlines(True) + [""], want.splitlines(True) + [""])
    return next((i, g, w) for i, (g, w) in enumerate(pairs) if g != w)


# listings past the n <= 6 goldens, and the one-point ranges
LISTING_CASES = [(8, tuple(range(1, 9))), (9, (1, 3, 5, 7, 9)), (7, (2,)), (1, (1,))]


class TestEnumerate:
    def test_count_and_schema(self, capsys):
        code, doc = run_json(capsys, "enumerate", "--n", "3", "--y", "1,2")
        assert code == 0
        assert doc["schema"] == 1 and doc["command"] == "enumerate"
        assert doc["count"] == 13 and len(doc["elements"]) == 13

    def test_byte_stable(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--n", "4", "--y", "2,4", "--json")
        _, second, _ = run(capsys, "enumerate", "--n", "4", "--y", "2,4", "--json")
        assert first == second

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--y", "1,2", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "index,rank,domain,image"
        assert len(lines) == 14

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--y", "1,2", "--json", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["count"] == 13

    def test_out_file_same_bytes_as_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        argv = ("enumerate", "--n", "5", "--y", "1,3,4", "--json")
        _, out, _ = run(capsys, *argv)
        code, nothing, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and nothing == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize(
        "n, pts",
        [(n, pts) for n in range(1, 6) for pts in all_range_sets(n)]
        + [(8, tuple(range(1, 9))), (9, (1, 3, 5, 7, 9)), (7, (2,))],
    )
    def test_json_equals_dumped_records(self, capsys, n, pts):
        report = listed_report(n, pts)
        code, out, _ = run(capsys, "enumerate", "--n", str(n), "--y", _y(pts), "--json")
        assert code == 0
        assert first_difference(out, json.dumps(report, indent=2) + "\n") is None

    @pytest.mark.parametrize("n, pts", LISTING_CASES)
    def test_text_equals_report_of_records(self, capsys, n, pts):
        code, out, _ = run(capsys, "enumerate", "--n", str(n), "--y", _y(pts))
        assert code == 0
        assert first_difference(out, text_report(listed_report(n, pts))) is None

    @pytest.mark.parametrize("n, pts", LISTING_CASES)
    def test_csv_equals_written_records(self, capsys, n, pts):
        code, out, _ = run(capsys, "enumerate", "--n", str(n), "--y", _y(pts), "--csv")
        assert code == 0
        assert first_difference(out, written_csv(listed_report(n, pts))) is None

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(7, 9), data=st.data())
    def test_every_format_equals_its_reference(self, n, data):
        # past the goldens: rank blocks of up to 30 sequences, indices past
        # 1,000, and the last record, whose tail drops the next head
        pts = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=5))))
        report = listed_report(n, pts)
        references = {
            ("--json",): json.dumps(report, indent=2) + "\n",
            ("--csv",): written_csv(report),
            (): text_report(report),
        }
        for flags, want in references.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["enumerate", "--n", str(n), "--y", _y(pts), *flags])
            assert code == 0
            assert first_difference(out.getvalue(), want) is None, flags

    def test_too_large_refused_before_building(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "enumerate", "--n", "30", "--y", FULL_30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == "error: TooLarge: n=30 with |Y|=30 gives more than 1000000 elements\n"
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["enumerate", "--n", "30", "--y", FULL_30], id="enumerate"),
            pytest.param(["card", "--n", "30", "--y", FULL_30], id="card"),
            # counts of thousands of digits, refused before they are computed
            pytest.param(["card", "--n", "100000", "--r", "20000"], id="card-huge-count"),
            pytest.param(["card", "--n", "300000", "--r", "300000"], id="card-huge-full-range"),
            # |S| fits, but the canonical generating set holds C(n, |Y|)
            # tables of n slots: 10^10 and about 5 * 10^8
            pytest.param(["rank", "--n", "100000", "--y", "1"], id="rank-generators-one-point"),
            pytest.param(["rank", "--n", "999", "--y", "1,2"], id="rank-generators-two-points"),
            # the closure multiplies bytes tables, of at most 255 points
            pytest.param(["rank", "--n", "256", "--y", "1"], id="rank-search-points"),
            # the empty map's factors: 3 * 2^11 tables of 20,000 slots each
            pytest.param(
                ["decompose", "--n", "20000", "--y", ",".join(map(str, range(1, 13))),
                 "--element", '{"n":20000,"pairs":[]}'],
                id="decompose-factor-slots",
            ),
        ],
    )
    def test_too_large_refused_within_a_second(self, argv):
        # a child process, so that a missing check is killed, not left building
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "popi.cli", *argv],
            capture_output=True, text=True, env=env, timeout=1.0,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: TooLarge")


class TestGreen:
    def test_class_counts_with_check(self, capsys):
        code, doc = run_json(
            capsys, "green", "--n", "3", "--y", "1,2", "--rel", "R", "--check"
        )
        assert code == 0
        assert doc["oracle_agrees"] is True
        assert sum(doc["class_sizes"]) == 13

    def test_csv_keeps_class_sizes(self, capsys):
        code, out, _ = run(capsys, "green", "--n", "3", "--y", "1,2", "--rel", "D", "--csv")
        [row] = list(csv.DictReader(io.StringIO(out)))
        _, doc = run_json(capsys, "green", "--n", "3", "--y", "1,2", "--rel", "D")
        assert code == 0
        assert row["class_sizes"] == ",".join(map(str, doc["class_sizes"]))

    def test_h_relation(self, capsys):
        code, doc = run_json(capsys, "green", "--n", "3", "--y", "1,2,3", "--rel", "H")
        assert code == 0 and sum(doc["class_sizes"]) == 31

    def test_only_check_builds_an_element_set(self, capsys, element_sets):
        code, doc = run_json(capsys, "green", "--n", "4", "--y", "1,3", "--rel", "D")
        assert code == 0 and sum(doc["class_sizes"]) == 21
        assert element_sets == []
        code, checked = run_json(capsys, "green", "--n", "4", "--y", "1,3", "--rel", "D", "--check")
        assert code == 0 and checked["oracle_agrees"] is True
        assert checked["class_sizes"] == doc["class_sizes"]
        assert len(element_sets) == 1

    def test_check_too_large_refused_before_building(self, capsys):
        y = ",".join(map(str, range(1, 11)))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "green", "--n", "10", "--y", y, "--rel", "D", "--check")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == "error: TooLarge: n=10 with |Y|=10 gives more than 10000000 table entries\n"
        assert peak < 2**20


class TestRank:
    def test_proper_range(self, capsys):
        code, doc = run_json(capsys, "rank", "--n", "3", "--y", "1,2")
        assert code == 0
        assert doc["claimed_rank"] == 3
        assert doc["closure_ok"] is True
        assert doc["deletion_test"] == "all-shrink"
        assert len(doc["generators"]) == 3

    def test_csv_keeps_generators(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "3", "--y", "1,2", "--csv")
        [row] = list(csv.DictReader(io.StringIO(out)))
        _, doc = run_json(capsys, "rank", "--n", "3", "--y", "1,2")
        assert code == 0
        assert row["generators"] == ",".join(doc["generators"])
        assert row["closure_ok"] == "True" and row["config.y"] == "1,2"

    def test_builds_no_element_set(self, capsys, element_sets):
        # the certificate counts S from its blocks, and closures are sets of
        # tables, so no element set is built
        code, doc = run_json(capsys, "rank", "--n", "4", "--y", "1,3")
        assert code == 0 and doc["closure_ok"] and doc["deletion_test"] == "all-shrink"
        assert element_sets == []
        # the counter sees an enumeration
        P.enumerate_semigroup(P.RangeContext(4, (1, 3)))
        assert len(element_sets) == 1

    def test_full_range(self, capsys):
        code, doc = run_json(capsys, "rank", "--n", "4", "--y", "1,2,3,4")
        assert code == 0 and doc["claimed_rank"] == 2 and doc["closure_ok"]


class TestIso:
    def test_positive(self, capsys):
        code, doc = run_json(capsys, "iso", "--n", "4", "--y", "1,2,3", "--z", "1,2,4")
        assert code == 0
        assert doc["verdict"] is True and doc["reason"] == "dihedral"
        assert "delta" in doc

    def test_negative_with_oracle(self, capsys):
        code, doc = run_json(
            capsys, "iso", "--n", "5", "--y", "1,2,3", "--z", "1,2,4", "--oracle"
        )
        assert code == 0
        assert doc["verdict"] is False
        assert doc["oracle"] is False and doc["agree"] is True

    def test_positive_with_oracle_map(self, capsys):
        code, doc = run_json(
            capsys, "iso", "--n", "4", "--y", "1,3", "--z", "2,4", "--oracle"
        )
        assert code == 0 and doc["agree"] is True
        assert len(doc["element_map"]) == 1 + 2 * 10  # 1 + r*C(n+r-1, r)

    def test_csv_drops_element_map(self, capsys):
        argv = ("iso", "--n", "4", "--y", "1,3", "--z", "2,4", "--oracle")
        code, out, _ = run(capsys, *argv, "--csv")
        [row] = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and "element_map" not in row
        assert row["oracle"] == "True" and row["config.z"] == "2,4"

    def test_oracle_builds_nothing_for_unequal_sizes(self, capsys, element_sets):
        code, doc = run_json(
            capsys, "iso", "--n", "6", "--y", "1,2,3", "--z", "1,2,3,4", "--oracle"
        )
        assert code == 0 and element_sets == []
        assert doc["verdict"] is False and doc["oracle"] is False and doc["agree"] is True


class TestDecompose:
    def test_rank_one_element(self, capsys):
        elem = json.dumps({"n": 3, "pairs": [[3, 1]]})
        code, doc = run_json(
            capsys, "decompose", "--n", "3", "--y", "1,2", "--element", elem
        )
        assert code == 0
        assert doc["steps"][0]["op"] in ("corank_one_split", "raise_rank")
        assert len(doc["factors"]) >= 1

    def test_bad_element(self, capsys):
        elem = json.dumps({"n": 3, "pairs": [[1, 3]]})
        code, out, err = run(
            capsys, "decompose", "--n", "3", "--y", "1,2", "--element", elem
        )
        assert code == 2 and "error:" in err

    def test_chain_size_checked_before_building(self, capsys):
        elem = json.dumps({"n": 3000000, "pairs": []})
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "decompose", "--n", "3", "--y", "1,2", "--element", elem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and err.startswith("error: MismatchedChainSize")
        assert peak < 2**20

    @pytest.mark.parametrize("elem", ['[1]', '{"n":"3","pairs":[]}', '{"n":3,"pairs":[1]}'])
    def test_malformed_element(self, capsys, elem):
        code, out, err = run(
            capsys, "decompose", "--n", "3", "--y", "1,2", "--element", elem
        )
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err

    def test_deeply_nested_element_exits_two(self):
        # a child process, so that a traceback shows as it would to a user
        argv = ["decompose", "--n", "3", "--y", "1,2", "--element", "[" * 50000]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "popi.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10.0,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: BadParameters") and "Traceback" not in done.stderr

    def test_chain_past_element_bound_refused_within_a_second(self):
        # its rank-1 layer alone has n*|Y| elements; a child process, so that
        # a missing check is killed, not left building tables of n slots
        n = 10**6 + 1
        elem = json.dumps({"n": n, "pairs": [[5, 1]]})
        argv = ["decompose", "--n", str(n), "--y", "1,2,3", "--element", elem]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "popi.cli", *argv],
            capture_output=True, text=True, env=env, timeout=1.0,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: TooLarge")

    @pytest.mark.parametrize("n, r", [(17, 16), (1100, 1050)])
    def test_factors_past_element_bound_refused(self, capsys, n, r):
        # the empty map gives up to 3 * 2^(r-1) factors of n slots; at
        # r = 1050 the splits once ran past the recursion limit
        elem = json.dumps({"n": n, "pairs": []})
        y = ",".join(map(str, range(1, r + 1)))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "decompose", "--n", str(n), "--y", y, "--element", elem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: TooLarge: ") and "Traceback" not in err
        assert peak < 2**20

    @pytest.mark.parametrize("point", ["1.5", '"1"', "true"])
    def test_points_must_be_ints(self, capsys, point):
        elem = '{"n":3,"pairs":[[%s,2]]}' % point
        code, out, err = run(
            capsys, "decompose", "--n", "3", "--y", "1,2", "--element", elem
        )
        assert code == 2 and out == "" and err.startswith("error: BadParameters")


def _elem_text(a) -> str:
    """An element's text in a report, read off its pairs."""
    return " ".join("%d>%d" % (x, a(x)) for x in a.domain) or "empty"


def stepped_report(ctx, a) -> dict:
    """The decompose report built as dicts: the head, "factors", and one
    {"op", "case", "shift", "input", "beta", "gamma"} dict per step."""
    steps: list = []
    factors = P.top_rank_factorization(ctx, a, steps)
    config = {"n": ctx.n, "y": list(ctx.points), "element": _elem_text(a)}
    report = _base_report("decompose", config)
    report["factors"] = [_elem_text(f) for f in factors]
    report["steps"] = [
        {
            "op": op,
            "case": d.case,
            "shift": d.shift_exponent,
            "input": _elem_text(x),
            "beta": _elem_text(d.beta),
            "gamma": _elem_text(d.gamma),
        }
        for op, x, d in steps
    ]
    return report


@st.composite
def decompose_inputs(draw):
    """A chain size n <= 10, a proper range set Y and a member of Y's
    semigroup, of low rank more often than not: its rank is drawn up to a
    bound that is drawn first."""
    n = draw(st.integers(2, 10))
    pts = tuple(sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True))))
    a = draw(member_of(n, pts, max_rank=draw(st.integers(0, len(pts)))))
    return P.RangeContext(n, pts), a


# the empty map at (16, {1..15}): 32,767 steps
EMPTY_16 = (P.RangeContext(16, range(1, 16)), P.empty_map(16))


def decompose_stdout(ctx, a, *flags) -> str:
    """The stdout of `decompose` of `a`, which must exit 0; read without a
    fixture, which Hypothesis would share between examples."""
    element = json.dumps(to_json_dict(a))
    argv = ["decompose", "--n", str(ctx.n), "--y", _y(ctx.points), "--element", element]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + list(flags))
    assert code == 0
    return out.getvalue()


class TestDecomposeRecords:
    """The steps are written from one template per format, with no step
    record built: each format's bytes equal those of the record dicts."""

    @settings(max_examples=60, deadline=None)
    @given(decompose_inputs())
    @example(EMPTY_16)
    def test_json_equals_dumped_records(self, ctx_a):
        out = decompose_stdout(*ctx_a, "--json")
        assert first_difference(out, json.dumps(stepped_report(*ctx_a), indent=2) + "\n") is None

    @settings(max_examples=60, deadline=None)
    @given(decompose_inputs())
    @example(EMPTY_16)
    def test_text_equals_report_of_records(self, ctx_a):
        out = decompose_stdout(*ctx_a)
        assert first_difference(out, text_report(stepped_report(*ctx_a))) is None

    @settings(max_examples=60, deadline=None)
    @given(decompose_inputs())
    @example(EMPTY_16)
    def test_csv_equals_written_records(self, ctx_a):
        report = stepped_report(*ctx_a)
        out = decompose_stdout(*ctx_a, "--csv")
        rows = report["steps"]
        if not rows:  # a top-rank member: the report is one row, its lists joined
            row: dict = {}
            for k, v in report.items():
                if isinstance(v, dict):
                    row.update(("%s.%s" % (k, k2), v2) for k2, v2 in v.items())
                else:
                    row[k] = v
            rows = [
                {k: ",".join(map(str, v)) if isinstance(v, list) else v for k, v in row.items()}
            ]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        assert first_difference(out, buf.getvalue()) is None

    @settings(max_examples=100, deadline=None)
    @given(decompose_inputs())
    @example(EMPTY_16)
    def test_fields_need_no_escaping(self, ctx_a):
        # what lets the templates write each field as it is, in every format
        for step in stepped_report(*ctx_a)["steps"]:
            assert re.fullmatch(r"[a-z._]+", step["op"]) and re.fullmatch(r"[a-z._]+", step["case"])
            for key in ("input", "beta", "gamma"):
                assert re.fullmatch(r"empty|[0-9]+>[0-9]+( [0-9]+>[0-9]+)*", step[key])

    @pytest.mark.parametrize("flags", [["--json"], ["--csv"], []])
    @pytest.mark.parametrize(
        # one member with steps and one top-rank member, which has none
        "pairs, has_steps",
        [([[3, 6]], True), ([[1, 1], [2, 2], [4, 4], [6, 6], [7, 7]], False)],
    )
    def test_out_file_same_bytes_as_stdout(self, capsys, tmp_path, flags, pairs, has_steps):
        target = tmp_path / "report"
        element = json.dumps({"n": 8, "pairs": pairs})
        argv = ("decompose", "--n", "8", "--y", "1,2,4,6,7", "--element", element, *flags)
        _, out, _ = run(capsys, *argv)
        code, nothing, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and nothing == ""
        assert target.read_bytes() == out.encode()
        assert ("raise_rank" in out) is has_steps


# sha256 per (format, n, Y) of the concatenated `decompose` stdout of every
# element in listing order, captured before the factorization stages shared
# one check: --json for every proper Y at n <= 5, --csv and text at n <= 4.
GOLDEN_DECOMPOSE = os.path.join(os.path.dirname(__file__), "golden", "decompose.json")
DECOMPOSE_FORMATS = (("json", 5, ["--json"]), ("csv", 4, ["--csv"]), ("text", 4, []))


def decompose_digests() -> dict:
    digests = {}
    for name, top, flags in DECOMPOSE_FORMATS:
        for n in range(1, top + 1):
            for pts in proper_range_sets(n):
                y = ",".join(map(str, pts))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    for a in semigroup(n, pts)[1]:
                        element = json.dumps(to_json_dict(a))
                        argv = ["decompose", "--n", str(n), "--y", y, "--element", element]
                        assert main(argv + flags) == 0
                digests["%s %d %s" % (name, n, y)] = hashlib.sha256(
                    out.getvalue().encode()
                ).hexdigest()
    return digests


def test_decompose_reports_match_golden_digests():
    with open(GOLDEN_DECOMPOSE) as fh:
        golden = json.load(fh)
    digests = decompose_digests()
    assert sorted(digests) == sorted(golden)
    assert [k for k in digests if digests[k] != golden[k]] == []


# sha256 per (format, n, Y) of `decompose` stdout for the empty map, past the
# n <= 5 sweep, captured before each distinct input was split once per call:
# (8, {1,2,4,6,7}) and (12, {1,2,4,5,7,8,10,11}) in every format, and
# (16, {1..15}), 32,767 steps, in json.
GOLDEN_DECOMPOSE_LARGE = os.path.join(os.path.dirname(__file__), "golden", "decompose_large.json")


def test_larger_decompose_reports_match_golden_digests():
    with open(GOLDEN_DECOMPOSE_LARGE) as fh:
        golden = json.load(fh)
    assert "json 16 " + ",".join(map(str, range(1, 16))) in golden and len(golden) == 7
    flags = {name: f for name, _, f in DECOMPOSE_FORMATS}
    digests = {}
    for key in golden:
        name, n, y = key.split()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            element = json.dumps({"n": int(n), "pairs": []})
            assert main(["decompose", "--n", n, "--y", y, "--element", element] + flags[name]) == 0
        digests[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests == golden


# sha256 per (format, n, Y) of `enumerate` stdout, captured while the listing
# was still written from element objects: every Y at n <= 6, full ranges
# included, in text, --csv and --json.
GOLDEN_ENUMERATE = os.path.join(os.path.dirname(__file__), "golden", "enumerate.json")
ENUMERATE_FORMATS = (("text", []), ("csv", ["--csv"]), ("json", ["--json"]))


def enumerate_digests() -> dict:
    digests = {}
    for name, flags in ENUMERATE_FORMATS:
        for n in range(1, 7):
            for pts in all_range_sets(n):
                y = ",".join(map(str, pts))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["enumerate", "--n", str(n), "--y", y] + flags) == 0
                digests["%s %d %s" % (name, n, y)] = hashlib.sha256(
                    out.getvalue().encode()
                ).hexdigest()
    return digests


def test_enumerate_listings_match_golden_digests():
    with open(GOLDEN_ENUMERATE) as fh:
        golden = json.load(fh)
    digests = enumerate_digests()
    assert len(golden) == 3 * 120
    assert sorted(digests) == sorted(golden)
    assert [k for k in digests if digests[k] != golden[k]] == []


# sha256 per (format, group, n) of every report's exit code and stdout, in
# argv order, captured while one-row --csv reports were still written by
# csv.DictWriter: at every Y with n <= 4, `card` by --y and by --r, `rank`,
# `green` for each letter with and without --check, and `iso` for every pair
# of equal size with and without --oracle; and `selftest --max-n 1..3`, and
# at --max-n 2 with the cardinality side or the Green side patched to fail.
GOLDEN_REPORTS = os.path.join(os.path.dirname(__file__), "golden", "reports.json")
SELFTEST_FAULTS = {
    "card": ("cardinality_formula", lambda n, r: -1),
    "green": ("green_characterized", lambda ctx, relations: dict.fromkeys(relations, ())),
}


def report_groups():
    """(group, n, fault, argvs) for each group of one-row reports."""
    for n in range(1, 5):
        ys = [_y(pts) for pts in all_range_sets(n)]
        head = ["--n", str(n)]
        yield "card-y", n, None, [["card", *head, "--y", y] for y in ys]
        yield "card-r", n, None, [["card", *head, "--r", str(r)] for r in range(1, n + 1)]
        yield "rank", n, None, [["rank", *head, "--y", y] for y in ys]
        for flag in ([], ["--check"]):
            argvs = [["green", *head, "--y", y, "--rel", rel, *flag] for y in ys for rel in "LRHD"]
            yield "green" + "".join(flag), n, None, argvs
        pairs = [(y, z) for y in ys for z in ys if y.count(",") == z.count(",")]
        for flag in ([], ["--oracle"]):
            argvs = [["iso", *head, "--y", y, "--z", z, *flag] for y, z in pairs]
            yield "iso" + "".join(flag), n, None, argvs
    for max_n in (1, 2, 3):
        yield "selftest", max_n, None, [["selftest", "--max-n", str(max_n)]]
    for name, fault in SELFTEST_FAULTS.items():
        yield "selftest-" + name, 2, fault, [["selftest", "--max-n", "2"]]


def report_digests() -> dict:
    import popi.cli

    digests = {}
    for name, flags in ENUMERATE_FORMATS:
        for group, n, fault, argvs in report_groups():
            h = hashlib.sha256()
            with pytest.MonkeyPatch.context() as mp:
                if fault is not None:
                    mp.setattr(popi.cli, *fault)
                for argv in argvs:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(argv + flags)
                    h.update(b"%d\n" % code + out.getvalue().encode())
            digests["%s %s %d" % (name, group, n)] = h.hexdigest()
    return digests


def test_one_row_reports_match_golden_digests():
    with open(GOLDEN_REPORTS) as fh:
        golden = json.load(fh)
    digests = report_digests()
    assert len(golden) == 3 * (7 * 4 + 3 + 2)
    assert sorted(digests) == sorted(golden)
    assert [k for k in digests if digests[k] != golden[k]] == []


class TestSelftest:
    def test_small_sweep_passes(self, capsys):
        code, doc = run_json(capsys, "selftest", "--max-n", "3")
        assert code == 0 and doc["ok"] is True and doc["failures"] == []

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_max_n_below_one_refused(self, capsys, max_n):
        # a sweep that checks nothing must not report ok
        code, out, err = run(capsys, "selftest", "--max-n", max_n)
        assert code == 2 and out == ""
        assert err == "error: BadParameters: --max-n must be at least 1, got %s\n" % max_n

    def test_csv_failures_split_back(self, capsys, monkeypatch):
        import popi.cli

        monkeypatch.setattr(popi.cli, "cardinality_formula", lambda n, r: -1)
        code, out, _ = run(capsys, "selftest", "--max-n", "2", "--csv")
        [row] = list(csv.DictReader(io.StringIO(out)))
        _, doc = run_json(capsys, "selftest", "--max-n", "2")
        assert code == 1 and doc["failures"][0] == "cardinality n=1 y={1}"
        assert row["failures"].split(",") == doc["failures"]

    @staticmethod
    def regularity_failures(capsys, monkeypatch, wrong):
        """The failure lines of `selftest --max-n 2` whose characterized
        regularity is `wrong` of the true flags; it must exit 1, not raise."""
        import popi.cli

        real = popi.cli.is_regular_characterized
        monkeypatch.setattr(popi.cli, "is_regular_characterized", lambda ctx: wrong(real(ctx)))
        code, out, err = run(capsys, "selftest", "--max-n", "2", "--json")
        doc = json.loads(out)
        assert code == 1 and doc["ok"] is False and err == ""
        return doc["failures"]

    # the range sets of n <= 2, whose semigroups have 2, 3, 3 and 7 elements
    WHERE = ("n=1 y={1}", "n=2 y={1}", "n=2 y={2}", "n=2 y={1 2}")

    def test_regularity_failure_once_per_range_set(self, capsys, monkeypatch):
        failures = self.regularity_failures(capsys, monkeypatch, lambda flags: (None,) * len(flags))
        assert failures == ["regularity %s i=0" % where for where in self.WHERE]

    def test_regularity_failure_names_first_differing_index(self, capsys, monkeypatch):
        # the last flag flipped: the first index where the two sides differ
        flip_last = lambda flags: flags[:-1] + (not flags[-1],)
        failures = self.regularity_failures(capsys, monkeypatch, flip_last)
        assert failures == ["regularity %s i=%d" % p for p in zip(self.WHERE, (1, 2, 2, 6))]

    def test_regularity_failure_short_characterized(self, capsys, monkeypatch):
        # a prefix of the oracle's tuple differs where it ends
        failures = self.regularity_failures(capsys, monkeypatch, lambda flags: flags[:1])
        assert failures == ["regularity %s i=1" % where for where in self.WHERE]

    def test_green_failure_per_relation(self, capsys, monkeypatch):
        import popi.cli

        no_classes = lambda ctx, relations: dict.fromkeys(relations, ())
        monkeypatch.setattr(popi.cli, "green_characterized", no_classes)
        code, doc = run_json(capsys, "selftest", "--max-n", "1")
        assert code == 1 and doc["ok"] is False
        assert doc["failures"] == ["green-%s n=1 y={1}" % rel for rel in "LRHD"]


# Report-shaped values: str, int, bool and None, in lists and str-keyed
# dicts.  The texts lean on what JSON escapes: quotes, backslashes, control
# characters and non-ASCII.
REPORT_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\r é€\u2028𝔖ab') | st.characters(), max_size=8
)
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**100), 10**100) | REPORT_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(REPORT_TEXT, inner, max_size=4),
    max_leaves=24,
)


class TestJsonWriter:
    @given(REPORT_VALUES)
    @example({"q\"uo\\te": ["\x00\x1f\n", "é€𝔖", [], {}, -7, 10**99, -(10**100) + 1]})
    @example([True, False, None, 0, "", {"": {"": []}}])
    def test_equals_json_dumps_indent_2(self, value):
        assert _json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [0.0]}])
    def test_other_values_refused(self, value):
        with pytest.raises(TypeError):
            _json(value)


# Report-shaped CSV fields: ints, negative ones and bools included, texts
# over the characters a report holds, and lists and tuples of those, empty
# ones included.
CSV_SCALARS = (
    st.integers(-(10**6), 10**6)
    | st.booleans()
    | st.text(st.sampled_from(string.digits + string.ascii_letters + " ,.:>={}_-"), max_size=8)
)
CSV_FIELDS = (
    CSV_SCALARS
    | st.lists(CSV_SCALARS, max_size=4)
    | st.lists(CSV_SCALARS, max_size=4).map(tuple)
)


class TestCsvField:
    @given(st.lists(CSV_FIELDS, min_size=2, max_size=6))
    @example([[], ()])
    @example(["a,b", [1, 2], (3,), ",", True, -7])
    def test_row_equals_csv_writer(self, row):
        # every report row has at least two fields: csv.writer quotes an
        # empty field when it is a row's only one
        buf = io.StringIO()
        csv.writer(buf).writerow(
            [",".join(map(str, v)) if isinstance(v, (list, tuple)) else v for v in row]
        )
        assert ",".join(map(_csv, row)) + "\r\n" == buf.getvalue()


class TestErrors:
    def test_every_error_class_is_raised(self):
        # read from the sources, so a class that nothing raises any more is caught
        import pathlib

        from popi import errors

        package = pathlib.Path(errors.__file__).parent
        source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
        classes = [
            name
            for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.PopiError)
        ]
        assert classes[0] == "PopiError"  # the base class, caught and never raised
        assert [c for c in classes[1:] if "raise errors.%s(" % c not in source] == []

    @pytest.mark.parametrize("out", [("--out", ""), ("--out=",)])
    def test_empty_out_path_is_refused(self, capsys, out):
        # the plain reader takes "--out ''" and argparse "--out=": either way
        # the path cannot be opened, so the report is not printed instead
        argv = ["rank", "--n", "3", "--y", "1,2", *out]
        assert (_read_plain(argv) is None) == (len(out) == 1)
        code, printed, err = run(capsys, *argv)
        assert code == 2 and printed == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: FileNotFoundError")

    def test_bad_points(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--y", "1,x")
        assert code == 2 and "BadParameters" in err

    def test_duplicate_points(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--y", "1,1")
        assert code == 2 and out == "" and "BadParameters" in err and "duplicates" in err

    def test_point_out_of_range(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--y", "1,4")
        assert code == 2

    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [["green", "--n", "7", "--y", "1,2,3,4,5,6,7", "--rel", "D", "--check"],
         ["selftest", "--max-n", "7"],
         ["iso", "--n", "10", "--y", ",".join(map(str, range(1, 11))),
          "--z", ",".join(map(str, range(1, 11))), "--oracle"],
         # element counts of thousands of digits, refused before they are
         # computed
         ["selftest", "--max-n", "20000"],
         ["selftest", "--max-n", "300000"],
         ["selftest", "--max-n", "1000000"],
         ["iso", "--n", "100000", "--y", ",".join(map(str, range(1, 10001))),
          "--z", ",".join(map(str, range(2, 10002))), "--oracle"]],
    )
    def test_too_large_table_refused_within_two_seconds(self, argv):
        # 12,013^2 entries or more; a child process, so that a missing check
        # is killed
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "popi.cli", *argv],
            capture_output=True, text=True, env=env, timeout=2.0,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: TooLarge")

    @pytest.mark.parametrize(
        "argv",
        [["green", "--n", "256", "--y", "1", "--rel", "D", "--check"],
         ["iso", "--n", "256", "--y", "1", "--z", "2", "--oracle"],
         ["rank", "--n", "256", "--y", "1"]],
        ids=["green-check", "iso-oracle", "rank"],
    )
    def test_search_past_255_points_refused_before_building(self, capsys, element_sets, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: TooLarge: a chain of 256 points is longer than the 255 a search takes\n"
        assert element_sets == []

    def test_out_unwritable(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run(capsys, "rank", "--n", "3", "--y", "1,2", "--out", str(target))
        assert code == 2 and out == "" and err.startswith("error: FileNotFoundError: ")
        assert "Traceback" not in err and not target.exists()


# -- the argument parser ----------------------------------------------------

# Help texts and argparse errors, byte for byte: `golden/cli_parser.json`
# holds each argv's stdout, stderr and exit code from `python -m popi.cli`
# at COLUMNS=80. The cases down to "missing-required" were captured from the
# parser that built all seven subparsers for every command; the edge argvs
# from the parser that built only the named command's subparser. Python
# 3.10 to 3.12 share that file. 3.13 reads its own, captured under 3.13.13,
# the release its CI cell pins: its argparse prints choices unquoted, wraps
# some usage lines differently and reads a leading "--" as the end of options.
GOLDEN_PARSER = os.path.join(
    os.path.dirname(__file__),
    "golden",
    "cli_parser_3.13.json" if sys.version_info[:2] == (3, 13) else "cli_parser.json",
)
COMMAND_NAMES = ("enumerate", "card", "green", "rank", "iso", "decompose", "selftest")
PARSER_CASES = {
    "help": ["--help"],
    **{"%s-help" % name: [name, "--help"] for name in COMMAND_NAMES},
    "no-argv": [],
    "unknown-command": ["bogus"],
    "extra-argument": ["rank", "--n", "3", "--y", "1,2", "extra"],
    "invalid-choice": ["green", "--n", "3", "--y", "1", "--rel", "Q"],
    "invalid-int": ["rank", "--n", "x", "--y", "1"],
    "missing-required": ["decompose", "--n", "3", "--y", "1,2"],
    # edge argvs, where a command's own parser and the full one could part
    "version-first": ["--version", "rank"],
    "version-after-command": ["rank", "--version"],
    "version-after-full-command": ["rank", "--n", "3", "--y", "1", "--version"],
    "command-twice": ["rank", "rank", "--n", "3", "--y", "1,2"],
    "unknown-option": ["rank", "--n", "3", "--y", "1,2", "--bogus"],
    "unknown-option-missing-required": ["rank", "--bogus"],
    "abbreviated-option": ["rank", "--n", "3", "--y", "1,2", "--js"],
    "ambiguous-abbreviation": ["iso", "--n", "3", "--y", "1", "--z", "2", "--o"],
    "help-before-command": ["-h", "rank"],
    "help-after-extra": ["rank", "extra", "--help"],
    "missing-value": ["decompose", "--n", "3", "--y", "1,2", "--element"],
    "equals-form": ["rank", "--n=3", "--y=1,2"],
    "equals-form-invalid-int": ["card", "--n=3", "--r=x"],
    "double-dash-first": ["--", "rank", "--n", "3", "--y", "1,2"],
    "double-dash-in-command": ["rank", "--", "--n", "3", "--y", "1,2"],
    "repeated-option": ["rank", "--n", "4", "--n", "3", "--y", "1,2"],
    "negative-leftover": ["selftest", "--max-n", "1", "-5"],
    # argvs where a reader of plain argvs and argparse could part; captured
    # from the parser that built only the named command's subparser
    "negative-int-value": ["rank", "--n", "-3", "--y", "1"],
    "dash-value": ["rank", "--n", "3", "--y", "-1,2"],
    "empty-value": ["rank", "--n", "3", "--y", ""],
    "option-as-value": ["rank", "--n", "3", "--y", "1,2", "--out", "--json"],
    "repeated-flag": ["green", "--n", "3", "--y", "1,2", "--rel", "D", "--check", "--check"],
    "csv-then-json": ["rank", "--n", "3", "--y", "1,2", "--csv", "--json"],
    "json-then-csv": ["rank", "--n", "3", "--y", "1,2", "--json", "--csv"],
    "selftest-bare": ["selftest"],
    # a flag given a value; captured from the parser that built all seven
    # subparsers, each flag a `store_true` or `store_const` argument
    "check-with-value": ["green", "--n", "3", "--y", "1,2", "--rel", "D", "--check=yes"],
    "json-with-value": ["rank", "--n", "3", "--y", "1,2", "--json=1"],
}


# one argv of each command
COMMAND_ARGVS = [
    ["enumerate", "--n", "3", "--y", "1,2", "--csv"],
    ["card", "--n", "4", "--r", "2", "--json", "--out", "card.json"],
    ["green", "--n", "4", "--y", "1,3", "--rel", "D", "--check"],
    ["rank", "--n", "5", "--y", "2,4,5"],
    ["iso", "--n", "5", "--y", "1,2,3", "--z", "1,2,4", "--oracle", "--json"],
    ["decompose", "--n", "3", "--y", "1,2", "--element", '{"n":3,"pairs":[[3,1]]}'],
    ["selftest", "--max-n", "2", "--csv"],
]


def popi_process(argv) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "popi.cli", *argv], capture_output=True, text=True, env=env
    )
    return {
        "argv": list(argv), "code": done.returncode, "stdout": done.stdout, "stderr": done.stderr
    }


class TestParser:
    @pytest.mark.parametrize("case", sorted(PARSER_CASES))
    def test_matches_golden(self, case):
        with open(GOLDEN_PARSER) as fh:
            golden = json.load(fh)[case]
        assert popi_process(PARSER_CASES[case]) == golden

    def test_table_names_every_command(self):
        assert tuple(COMMANDS) == COMMAND_NAMES

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_options_use_the_keys_the_plain_reader_reads(self, command):
        # build_parser passes each option's kwargs to argparse as they are,
        # and _read_plain reads these keys alone, as argparse does: a flag
        # stores its const, any other option's value goes through its type,
        # and a required option's dest holds None until it is given
        keys = {"dest", "type", "action", "const", "default", "required", "choices", "help"}
        defaults: dict = {}
        for name, kwargs in COMMANDS[command][2].items():
            assert kwargs.keys() <= keys, name
            if "action" in kwargs:
                assert kwargs["action"] == "store_const", name
                assert "const" in kwargs and "type" not in kwargs, name
            else:
                assert "type" in kwargs, name
            default = kwargs.get("default")
            assert defaults.setdefault(kwargs["dest"], default) == default, name
            if kwargs.get("required"):
                assert default is None, name

    def test_leading_double_dash_refused_alike_on_every_release(self, capsys):
        # argparse 3.13.13 would read it as the end of options and run rank
        with pytest.raises(SystemExit) as exc:
            main(PARSER_CASES["double-dash-first"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.splitlines()[-1].startswith("popi: error: argument command: invalid choice: '--'")
        cases = []
        for name in ("cli_parser.json", "cli_parser_3.13.json"):
            with open(os.path.join(os.path.dirname(GOLDEN_PARSER), name)) as fh:
                cases.append(json.load(fh)["double-dash-first"])
        assert cases[0] == cases[1]

    @pytest.mark.parametrize("argv", COMMAND_ARGVS + [PARSER_CASES["extra-argument"]])
    def test_only_leftover_strings_build_the_full_parser(
        self, argv, monkeypatch, capsys, tmp_path
    ):
        import popi.cli

        calls = []

        def counted():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(popi.cli, "build_parser", counted)
        monkeypatch.chdir(tmp_path)  # card's --out writes there
        with contextlib.suppress(SystemExit):
            main(list(argv))
        assert len(calls) == (argv not in COMMAND_ARGVS)

    @pytest.mark.parametrize("argv", COMMAND_ARGVS)
    def test_one_command_parser_parses_as_the_full_one(self, argv):
        assert vars(_read_plain(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", COMMAND_ARGVS)
    def test_plain_argv_builds_no_parser(self, argv, monkeypatch, capsys, tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        monkeypatch.chdir(tmp_path)  # card's --out writes there
        assert main(list(argv)) == 0
        assert built == []

    @pytest.fixture(scope="class")
    def full_parser(self):
        return build_parser()

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_plain_reader_agrees_with_argparse(self, data, full_parser):
        # a plain reader may decline any argv, but what it reads is what
        # argparse parses, and it declines every argv argparse exits on
        command = data.draw(st.sampled_from(COMMAND_NAMES))
        options = COMMANDS[command][2]
        names = sorted(options)
        values = st.one_of(
            st.integers(-20, 20).map(str),
            st.sampled_from(["x", "1,2", "1.5", "", "-1,2", "-x", "-", " 3", "L", "D", "Q"]),
        )
        tokens = st.one_of(
            st.sampled_from(names),
            st.sampled_from(names).flatmap(
                lambda name: st.integers(2, len(name) - 1).map(lambda k: name[:k])
            ),
            st.tuples(st.sampled_from(names), values).map("=".join),
            st.sampled_from(["--", "-h", "--help", "--version", command]),
            values,
        )

        def valid(name):
            kwargs = options[name]
            if "choices" in kwargs:
                return st.sampled_from(kwargs["choices"])
            return st.integers(1, 4).map(str) if kwargs["type"] is int else st.just("1,2")

        # most options in turn, each mostly with a valid value if it takes
        # one, so that many argvs are plain; then a few tokens of any kind
        # anywhere
        argv = [command]
        for name in data.draw(st.permutations(names)):
            kind = data.draw(st.sampled_from(["absent", "bare", "any", "valid", "valid", "valid"]))
            if kind != "absent":
                argv.append(name)
            if kind in ("any", "valid") and "type" in options[name]:
                argv.append(data.draw(values if kind == "any" else valid(name)))
        for _ in range(data.draw(st.integers(0, 3))):
            argv.insert(data.draw(st.integers(1, len(argv))), data.draw(tokens))
        plain = _read_plain(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                full = full_parser.parse_args(argv)
        except SystemExit:
            assert plain is None
            return
        if plain is not None:
            assert vars(plain) == vars(full)


# one argv of each one-row report, with the fault TestSelftest patches in, if
# any, and the exit code it must give
ONE_ROW_ARGVS = {
    "card-y": (["card", "--n", "4", "--y", "1,3"], None, 0),
    "card-r": (["card", "--n", "4", "--r", "2"], None, 0),
    "green": (["green", "--n", "4", "--y", "1,3", "--rel", "D"], None, 0),
    "green-check": (["green", "--n", "4", "--y", "1,3", "--rel", "D", "--check"], None, 0),
    "rank": (["rank", "--n", "5", "--y", "2,4,5"], None, 0),
    "iso-oracle": (["iso", "--n", "5", "--y", "1,2,3", "--z", "1,2,4", "--oracle"], None, 0),
    "selftest": (["selftest", "--max-n", "3"], None, 0),
    "selftest-failing": (["selftest", "--max-n", "2"], SELFTEST_FAULTS["card"], 1),
}


def drawn_values(command: str, out_dir) -> dict:
    """A strategy per option dest for argvs of `command`: valid values on
    chains of at most 5 points, bad, duplicated and out-of-range points,
    values past a bound that is refused before anything is built, malformed
    `--element` JSON and `--out` paths under `out_dir`."""
    points = st.one_of(
        st.sets(st.integers(1, 5), min_size=1, max_size=4).map(sorted).map(_y),
        st.lists(st.integers(-1, 8), max_size=6).map(_y),
        st.sampled_from(["x", "1,x", "1.5", "", "2,2", "1000001"]),
    )
    pairs = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).map(list), max_size=3)
    elements = st.one_of(
        st.builds(lambda n, p: json.dumps({"n": n, "pairs": p}), st.integers(0, 6), pairs),
        st.sampled_from([
            "{", "[]", "null", '"x"', "1e999", '{"n":3}', '{"n":3,"pairs":[[1]]}',
            '{"n":3,"pairs":[["a",1]]}', '{"n":3,"pairs":{"1":2}}', '{"n":NaN,"pairs":[]}',
            "[" * 100000,
        ]),
    )
    # a search refuses 256 points before it builds anything; green and iso
    # search only with --check or --oracle
    searches = ["256"] if command == "rank" else []
    return {
        "n": st.sampled_from(["3", "4", "5"])
        | st.sampled_from(["1", "2", "0", "-1", "x", "1000001", *searches]),
        "y": points,
        "z": points,
        "r": st.sampled_from(["1", "3", "5", "0", "-2", "x", "1000001"]),
        "rel": st.sampled_from(["L", "R", "H", "D", "Q", "LR"]),
        "element": elements,
        "max_n": st.sampled_from(["1", "2", "3", "0", "-1", "x", "7", "256"]),
        "out": st.sampled_from(
            [str(out_dir / "report"), str(out_dir / "missing" / "report"), str(out_dir), ""]
        ),
    }


class TestMain:
    """`main` is the one write site: a handler returns its report's text
    and exit code, and `main` writes the text to stdout or to `--out`."""

    @pytest.mark.parametrize("flags", [["--json"], ["--csv"], []])
    @pytest.mark.parametrize("case", sorted(ONE_ROW_ARGVS))
    def test_out_file_same_bytes_as_stdout(self, capsys, tmp_path, monkeypatch, case, flags):
        import popi.cli

        argv, fault, want = ONE_ROW_ARGVS[case]
        if fault is not None:
            monkeypatch.setattr(popi.cli, *fault)
        target = tmp_path / "report"
        code, out, err = run(capsys, *argv, *flags)
        assert code == want and out != "" and err == ""
        code, nothing, err = run(capsys, *argv, *flags, "--out", str(target))
        assert code == want and nothing == "" and err == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=COMMAND_NAMES)
    def test_handlers_do_no_io(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # where each --out names a file
        argv = argv + ["--out", "report"]
        result = COMMANDS[argv[0]][1](_read_plain(argv))
        assert capsys.readouterr() == ("", "") and os.listdir(tmp_path) == []
        assert type(result) is tuple and len(result) == 2
        text, code = result
        assert type(text) is str and type(code) is int
        # the text and code that main writes and returns
        assert main(argv) == code and (tmp_path / "report").read_bytes() == text.encode()

    def test_closed_stdout_exits_two(self):
        # a process started with fd 1 closed has no sys.stdout at all
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "popi.cli", "rank", "--n", "3", "--y", "1,2"],
            stderr=subprocess.PIPE, text=True, env=env, preexec_fn=lambda: os.close(1),
        )
        assert done.returncode == 2
        assert done.stderr == "error: OSError: [Errno 9] stdout is closed\n"

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("out")

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_any_argv_exits_zero_one_or_two(self, data, out_dir):
        # the exit-code contract: main returns 0, 1 or 2 or exits 0 or 2 on
        # any argv, and no other exception escapes
        command = data.draw(st.sampled_from(COMMAND_NAMES + ("bogus",)))
        options = COMMANDS.get(command, COMMANDS["iso"])[2]
        values = drawn_values(command, out_dir)
        # each required option and some others, each name in full or
        # abbreviated, and an option's value after it or in one "=" token
        argv = [command]
        for name, kwargs in data.draw(st.permutations(list(options.items()))):
            if not (kwargs.get("required") or data.draw(st.booleans())):
                continue
            form = data.draw(st.sampled_from(["full"] * 4 + ["short", "equals"]))
            if form == "short":
                name = name[: data.draw(st.integers(3, len(name)))]
            if "type" not in kwargs:
                argv.append(name)
            elif form == "equals":
                argv.append(name + "=" + data.draw(values[kwargs["dest"]]))
            else:
                argv.extend([name, data.draw(values[kwargs["dest"]])])
        # then maybe a token dropped, and a few tokens of any kind anywhere,
        # each place counted from the end
        if data.draw(st.sampled_from([False] * 4 + [True])):
            del argv[~data.draw(st.integers(0, len(argv) - 1))]
        names = sorted({name for entry in COMMANDS.values() for name in entry[2]})
        strays = st.sampled_from(
            names + ["--", "-h", "--help", "--version", "--json=1", "extra", command]
        )
        for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
            argv.insert(len(argv) - data.draw(st.integers(0, len(argv))), data.draw(strays))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 2), argv
                return
        assert code in (0, 1, 2), argv


class TestStartUp:
    """What a `popi` process imports: a clean interpreter (`-S`, so that no
    `.pth` file preloads anything) with the package's directory on its path."""

    UNUSED = ("dataclasses", "inspect", "typing", "csv", "argparse", "gettext")

    def child(self, code: str) -> subprocess.CompletedProcess:
        root = os.path.dirname(os.path.dirname(P.__file__))
        prelude = "import sys; sys.path.insert(0, %r); " % root
        return subprocess.run(
            [sys.executable, "-S", "-c", prelude + code], capture_output=True, check=True
        )

    def test_import_loads_no_unused_stdlib(self):
        code = "import popi.cli; print(sorted(sys.modules.keys() & set(%r)))" % (self.UNUSED,)
        assert self.child(code).stdout == b"[]\n"

    def test_csv_loaded_by_no_output(self, capsys):
        # --csv output too writes its fields itself, without the csv module
        argv = ["card", "--n", "3", "--y", "1,2"]
        code = (
            "from popi.cli import main; main(%r); sys.stdout.flush(); "
            "sys.stderr.write(repr('csv' in sys.modules))"
        )
        for fmt in ("--json", "--csv"):
            done = self.child(code % (argv + [fmt],))
            assert done.stderr == b"False"
            assert done.stdout == run(capsys, *argv, fmt)[1].encode()

    def test_plain_command_loads_no_argparse(self, capsys):
        argv = ["rank", "--n", "5", "--y", "2,4,5", "--json"]
        code = (
            "from popi.cli import main; main(%r); sys.stdout.flush(); "
            "sys.stderr.write(repr(sorted(sys.modules.keys() & {'argparse', 'gettext'})))"
        )
        done = self.child(code % (argv,))
        assert done.stderr == b"[]"
        assert done.stdout == run(capsys, *argv)[1].encode()


PUBLIC_NAMES = [
    "Decomposition", "ElementSet", "HClassProfile", "IsoWitness", "PartialInjection",
    "RangeContext", "RankCertificate", "bruteforce_isomorphism", "canonical_generating_set",
    "cardinality_formula", "closure", "contains", "decide_isomorphic", "deletion_test",
    "empty_map", "enumerate_semigroup", "green_characterized", "green_oracle",
    "h_class_profile", "identity_on", "is_cyclic", "is_regular_characterized",
    "is_regular_oracle", "is_restricted_corank_one", "order_isomorphism",
    "range_rotation_power", "semigroup_rank", "shift_decompose", "top_rank_factorization",
]


def test_public_names():
    # the names the package exports, each one resolving, and none of those
    # that no command called
    assert sorted(P.__all__) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 29
    assert all(hasattr(P, name) for name in PUBLIC_NAMES)
    for name in (
        "rotation_perm", "decompose_low_rank", "decompose_corank_one",
        "decompose_restricted_corank_one",
    ):
        assert not hasattr(P, name), name
    assert not hasattr(P.PartialInjection, "inverse")
    assert not hasattr(P.PartialInjection, "to_json_dict")
    assert not hasattr(P.errors, "NotRestricted")
    assert not hasattr(P.errors, "BadRank")
    # the pipeline's raise-rank split itself, which bench/tracer.py times
    # by this name
    assert callable(P.rank.decompose_low_rank)

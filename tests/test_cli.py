import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import popi as P
from popi.cli import COMMANDS, _base_report, _parse_args, build_parser, main

from conftest import all_range_sets, proper_range_sets, semigroup


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
        [(n, pts) for n in range(1, 6) for pts in all_range_sets(n)] + [(8, tuple(range(1, 9)))],
    )
    def test_json_equals_dumped_records(self, capsys, n, pts):
        S = P.enumerate_semigroup(P.RangeContext(n, pts))
        report = _base_report("enumerate", {"n": n, "y": list(pts)})
        report["count"] = len(S)
        report["elements"] = [
            {"index": i, "rank": a.rank, "domain": list(a.domain), "image": list(a.image_seq)}
            for i, a in enumerate(S)
        ]
        y = ",".join(map(str, pts))
        code, out, _ = run(capsys, "enumerate", "--n", str(n), "--y", y, "--json")
        assert code == 0
        assert out == json.dumps(report, indent=2) + "\n"

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

    def test_enumerates_once(self, capsys, monkeypatch):
        import popi.cli
        import popi.rank

        calls = []
        real_enumerate = popi.rank.enumerate_semigroup

        def counting_enumerate(ctx):
            calls.append(ctx)
            return real_enumerate(ctx)

        for module in (popi.cli, popi.rank):
            monkeypatch.setattr(module, "enumerate_semigroup", counting_enumerate)
        code, doc = run_json(capsys, "rank", "--n", "4", "--y", "1,3")
        assert code == 0 and doc["closure_ok"] and doc["deletion_test"] == "all-shrink"
        assert len(calls) == 1

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

    def test_oracle_builds_nothing_for_unequal_sizes(self, capsys, monkeypatch):
        import popi.cli

        calls = []
        monkeypatch.setattr(popi.cli, "enumerate_semigroup", calls.append)
        code, doc = run_json(
            capsys, "iso", "--n", "6", "--y", "1,2,3", "--z", "1,2,3,4", "--oracle"
        )
        assert code == 0 and calls == []
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

    @pytest.mark.parametrize("point", ["1.5", '"1"', "true"])
    def test_points_must_be_ints(self, capsys, point):
        elem = '{"n":3,"pairs":[[%s,2]]}' % point
        code, out, err = run(
            capsys, "decompose", "--n", "3", "--y", "1,2", "--element", elem
        )
        assert code == 2 and out == "" and err.startswith("error: BadParameters")


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
                        element = json.dumps(a.to_json_dict())
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


class TestSelftest:
    def test_small_sweep_passes(self, capsys):
        code, doc = run_json(capsys, "selftest", "--max-n", "3")
        assert code == 0 and doc["ok"] is True and doc["failures"] == []

    def test_csv_failures_split_back(self, capsys, monkeypatch):
        import popi.cli

        monkeypatch.setattr(popi.cli, "cardinality_formula", lambda n, r: -1)
        code, out, _ = run(capsys, "selftest", "--max-n", "2", "--csv")
        [row] = list(csv.DictReader(io.StringIO(out)))
        _, doc = run_json(capsys, "selftest", "--max-n", "2")
        assert code == 1 and doc["failures"][0] == "cardinality n=1 y={1}"
        assert row["failures"].split(",") == doc["failures"]


class TestErrors:
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
# from the parser that built only the named command's subparser.
GOLDEN_PARSER = os.path.join(os.path.dirname(__file__), "golden", "cli_parser.json")
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
        full = build_parser().parse_args(argv)
        del full.command  # what _parse_args leaves out
        assert _parse_args(argv) == full

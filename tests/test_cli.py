import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import popi as P
from popi.cli import _base_report, _elem_record, main

from conftest import all_range_sets


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
        report["elements"] = [_elem_record(i, a) for i, a in enumerate(S)]
        y = ",".join(map(str, pts))
        code, out, _ = run(capsys, "enumerate", "--n", str(n), "--y", y, "--json")
        assert code == 0
        assert out == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("command", ["enumerate", "card"])
    def test_too_large_refused_within_a_second(self, command):
        # a child process, so that a missing check is killed, not left building
        argv = [command, "--n", "30", "--y", ",".join(map(str, range(1, 31)))]
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

    def test_point_out_of_range(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--y", "1,4")
        assert code == 2

    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

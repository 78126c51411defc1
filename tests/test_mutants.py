"""Mutants of the characterized side that each claim's own comparison
catches: the `selftest` row or the `--oracle` flag.  Each test runs the
command as it is, which passes, then with one mutant patched in, which
that comparison must refuse."""

import json
from itertools import repeat

import popi.green
import popi.iso
from popi.cli import main


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_d_keyed_by_rank_alone(capsys, monkeypatch):
    argv = ("selftest", "--max-n", "2")
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["ok"] is True and doc["failures"] == []
    # the characterization keys a non-regular element's D-class by its domain
    monkeypatch.setitem(
        popi.green._KEYS, "D", lambda dom, reg, images, block: repeat(len(dom), len(block))
    )
    code, doc = run_json(capsys, *argv)
    assert code == 1 and doc["ok"] is False
    assert doc["failures"] == ["green-D n=2 y={1}", "green-D n=2 y={2}"]


def test_iso_without_reflections(capsys, monkeypatch):
    # {1,2,4} and {1,2,5} on the 6-chain are a reflection apart, and no rotation
    argv = ("iso", "--n", "6", "--y", "1,2,4", "--z", "1,2,5", "--oracle")
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["verdict"] is doc["oracle"] is doc["agree"] is True
    dihedral_map = popi.iso._dihedral_map
    monkeypatch.setattr(
        popi.iso,
        "_dihedral_map",
        lambda n, k, reflected: (lambda x: 0) if reflected else dihedral_map(n, k, False),
    )
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["verdict"] is False
    assert doc["oracle"] is True and doc["agree"] is False

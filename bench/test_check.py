"""Tests of the benchmark's own output checker.

    python3 -m pytest bench/test_check.py -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import check  # noqa: E402
from gridfree.detect import GRID_EDGES, PRISM_EDGES  # noqa: E402

GRID = sorted(GRID_EDGES)
PRISM = sorted(PRISM_EDGES)


def hg3(n, edges):
    return f"# modulus 5\n{n} {len(edges)}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges)


def grid_witness():
    rows, cols = check.find_grid(GRID)
    return {"rows": list(rows), "cols": list(cols), "vertices": list(range(9))}


def core_witness(edges):
    return {"edges": list(range(len(edges))), "vertices": list(range(9)), "degrees": [2] * 9}


def test_reader_round_trip():
    assert check.read_hg3(hg3(9, GRID)) == (9, GRID)
    with pytest.raises(check.CheckError):
        check.read_hg3(hg3(9, GRID)[:-1])
    with pytest.raises(check.CheckError):
        check.read_hg3("9 2\n0 1 2\n")


def test_grid_search_finds_grid_and_not_prism():
    rows, cols = check.find_grid(GRID)
    assert sorted(rows + cols) == list(range(6))
    assert check.find_grid(PRISM) is None


def test_grid_search_sees_grid_beside_extra_edges():
    edges = sorted(GRID + [(0, 4, 8), (9, 10, 11)])
    rows, cols = check.find_grid(edges)
    check.check_grid_witness(edges, {"rows": list(rows), "cols": list(cols),
                                     "vertices": list(range(9))})


def test_grid_witness_accepted_and_perturbed_rejected():
    witness = grid_witness()
    check.check_grid_witness(GRID, witness)
    swapped = dict(witness, rows=sorted(witness["rows"][:2] + witness["cols"][:1]))
    with pytest.raises(check.CheckError):
        check.check_grid_witness(GRID, swapped)
    with pytest.raises(check.CheckError):
        check.check_grid_witness(GRID, dict(witness, vertices=list(range(1, 10))))
    with pytest.raises(check.CheckError):
        check.check_grid_witness(PRISM, witness)


def test_prism_witness_accepted_and_grid_rejected():
    check.check_prism_witness(PRISM, core_witness(PRISM))
    with pytest.raises(check.CheckError, match="not a prism"):
        check.check_prism_witness(GRID, core_witness(GRID))


def test_core_witness_perturbed_rejected():
    witness = core_witness(PRISM)
    check.check_core_witness(PRISM, witness, 9)
    with pytest.raises(check.CheckError):
        check.check_core_witness(PRISM, dict(witness, edges=[0, 1, 2, 3, 4]), 9)
    with pytest.raises(check.CheckError):
        check.check_core_witness(PRISM, dict(witness, degrees=[2] * 8 + [3]), 9)
    with pytest.raises(check.CheckError):
        check.check_core_witness(PRISM, witness, 8)


def test_linear_violation():
    assert check.linear_violation(9, GRID) is None
    assert check.linear_violation(9, GRID + [(0, 1, 5)]) == (0, 6)


def verify_stdout(infile, requested, **result):
    manifest = {"command": "verify", "parameters": {"checks": requested}, "seed": None,
                "version": "0.1.0", "inputs": [infile], "outputs": []}
    return (json.dumps({"manifest": manifest, **result}) + "\n").encode()


def test_verify_check_rejects_false_claims():
    files = {"g.hg3": hg3(9, GRID).encode(), "p.hg3": hg3(9, PRISM).encode()}
    argv = ("verify", "--checks", "gridfree", "--in", "g.hg3")
    found = verify_stdout("g.hg3", ["gridfree"], ok=False, failed="gridfree",
                          witness=grid_witness())
    check.check_verify(argv, 1, found, files)
    with pytest.raises(check.CheckError):
        check.check_verify(argv, 0, found, files)
    passed = verify_stdout("g.hg3", ["gridfree"], ok=True, checks=["gridfree"])
    with pytest.raises(check.CheckError, match="contains a grid"):
        check.check_verify(argv, 0, passed, files)
    argv = ("verify", "--checks", "gridfree", "--in", "p.hg3")
    check.check_verify(argv, 0, verify_stdout("p.hg3", ["gridfree"], ok=True,
                                              checks=["gridfree"]), files)

"""End-to-end command tests: golden bytes, exit codes, determinism."""

import errno
import gc
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from childenv import child_env

GOLDEN = Path(__file__).parent / "golden"
TIMING = re.compile(r"^gridfree: \d+\.\d{3}s elapsed$")


def run(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "gridfree", *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True,
    )


def assert_clean_stderr(proc):
    lines = proc.stderr.strip().splitlines()
    assert lines, "timing line expected on stderr"
    assert TIMING.match(lines[-1]), proc.stderr


def prepare_instances(cwd):
    for args in (("construct", "base", "--p", "7", "--out", "base7.hg3"),
                 ("construct", "base", "--p", "5", "--out", "base5.hg3")):
        assert run(args, cwd).returncode == 0


GOLDEN_STDOUT = [
    (("construct", "base", "--p", "5"), "construct_base5.json", 0),
    (("construct", "qr", "--p", "7"), "construct_qr7.json", 0),
    (("construct", "random", "--p", "11", "--rho", "1/2", "--seed", "3"),
     "construct_random11.json", 0),
    (("census", "--p", "5..13"), "census_5_13.jsonl", 0),
    (("lemma", "--N", "2..8", "--seed", "5"), "lemma_2_8.jsonl", 0),
    (("pascal", "--p", "13", "--samples", "25", "--seed", "7"), "pascal_13.json", 0),
    (("census", "--p", "5..499"), "census_5_499.jsonl", 0),
    (("lemma", "--N", "2..16", "--seed", "0"), "lemma_2_16.jsonl", 0),
]


@pytest.mark.parametrize("args,golden,code", GOLDEN_STDOUT)
def test_golden_stdout(args, golden, code, tmp_path):
    proc = run(args, tmp_path)
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN / golden).read_text()
    assert_clean_stderr(proc)


def test_construct_out_writes_files(tmp_path):
    proc = run(("construct", "base", "--p", "7", "--out", "base7.hg3"), tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "construct_base7_out.json").read_text()
    assert (tmp_path / "base7.hg3").read_text() == (GOLDEN / "base7.hg3").read_text()
    # the report file mirrors stdout exactly
    assert (tmp_path / "base7.report.json").read_text() == proc.stdout
    assert (tmp_path / "base7.report.json").read_text() == \
        (GOLDEN / "base7.report.json").read_text()


def test_qr_hg3_golden(tmp_path):
    proc = run(("construct", "qr", "--p", "5", "--out", "qr5.hg3"), tmp_path)
    assert proc.returncode == 0
    assert (tmp_path / "qr5.hg3").read_text() == (GOLDEN / "qr5.hg3").read_text()


def test_verify_passes_on_clean_instance(tmp_path):
    prepare_instances(tmp_path)
    proc = run(("verify", "--in", "base5.hg3"), tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "verify_base5_all.json").read_text()
    data = json.loads(proc.stdout)
    assert data["ok"] is True
    assert data["checks"] == ["linear", "gridfree", "prismfree", "corefree9"]


def test_verify_reports_prism_witness(tmp_path):
    prepare_instances(tmp_path)
    proc = run(("verify", "--in", "base7.hg3"), tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == (GOLDEN / "verify_base7_all.json").read_text()
    data = json.loads(proc.stdout)
    assert data["ok"] is False
    assert data["failed"] == "prismfree"
    assert data["witness"]["edges"] == [0, 1, 6, 8, 11, 13]


def test_verify_subset_of_checks(tmp_path):
    prepare_instances(tmp_path)
    proc = run(("verify", "--in", "base7.hg3", "--checks", "linear,gridfree"), tmp_path)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["ok"] is True


def test_verify_gridfree_fails_on_grid_fixture(tmp_path):
    from gridfree import Hypergraph3, encode
    from gridfree.detect import GRID_EDGES

    (tmp_path / "grid.hg3").write_text(encode(Hypergraph3.from_edges(9, GRID_EDGES)))
    proc = run(("verify", "--in", "grid.hg3", "--checks", "gridfree"), tmp_path)
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["failed"] == "gridfree"
    assert data["witness"] == {"rows": [0, 4, 5], "cols": [1, 2, 3],
                               "vertices": list(range(9))}


def test_malformed_provenance_keeps_the_search_and_its_output(tmp_path, capsys):
    # verify and detect read a file's provenance to certify it grid-free.
    # One malformed vertex comment makes them read it as decode does, which
    # never parses comments: every outcome is that of the same file with
    # its comments removed, planted grid, body fault and all.
    from gridfree import FormatError, build_base, cli, decode, decode_with_provenance, encode
    from gridfree.detect import GRID_EDGES

    h, vmap, _ = build_base(7)
    lines = encode(h, vmap).splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("# vertex 3 "))
    lines[at] = lines[at].rsplit(" ", 1)[0] + "\n"  # no y coordinate
    head = lines.index(f"{h.n} {h.m}\n")
    clean = "".join(lines)
    planted = "".join(lines[:head] + [f"{h.n + 9} {h.m + 6}\n"] + lines[head + 1:]
                      + [f"{h.n + a} {h.n + b} {h.n + c}\n" for a, b, c in GRID_EDGES])
    path = tmp_path / "h.hg3"

    def outcome(text, argv):
        path.write_text(text)
        code = cli.main([*argv, "--in", str(path)])
        out, err = capsys.readouterr()
        return code, out, err.splitlines()[:-1]  # without the timing line

    verify, detect = ["verify"], ["detect", "--find", "grid"]
    for text, failed in ((clean, "prismfree"), (planted, "gridfree")):
        with pytest.raises(FormatError, match="malformed vertex comment"):
            decode_with_provenance(text)
        bare = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("#"))
        for argv in (verify, detect):
            assert outcome(text, argv) == outcome(bare, argv), (failed, argv)
        code, out, _ = outcome(text, verify)
        assert (code, json.loads(out)["failed"]) == (1, failed)
        code, out, _ = outcome(text, detect)
        assert (code, json.loads(out)["found"]) == (0, failed == "gridfree")
    broken = clean + "0 1\n"
    with pytest.raises(FormatError) as fault:
        decode(broken)
    for argv in (verify, detect):
        assert outcome(broken, argv) == (2, "", [f"parse error: {fault.value}"])


def test_verify_linear_witness(tmp_path):
    (tmp_path / "bad.hg3").write_text("4 2\n0 1 2\n0 1 3\n")
    proc = run(("verify", "--in", "bad.hg3", "--checks", "linear"), tmp_path)
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["failed"] == "linear"
    assert data["witness"] == {"pair": [0, 1], "edges": [0, 1]}


def test_linear_witness_matches_loop_oracle(tmp_path, capsys):
    from gridfree import cli, encode

    violations = 0
    for i in range(60):
        rng = random.Random(i)
        h = oracles.random_hypergraph(rng, rng.randint(5, 12), rng.randint(2, 14))
        expected = oracles.linear_witness_by_loop(h)
        if expected is None:
            continue
        violations += 1
        path = tmp_path / "h.hg3"
        path.write_text(encode(h))
        for checks in (["--checks", "linear"], [], ["--checks", "linear,gridfree"]):
            assert cli.main(["verify", "--in", str(path), *checks]) == 1
            assert json.loads(capsys.readouterr().out)["witness"] == expected, (i, checks)
    assert violations >= 40


def test_detect_core_golden(tmp_path):
    prepare_instances(tmp_path)
    proc = run(("detect", "--in", "base7.hg3", "--find", "core"), tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "detect_core_base7.json").read_text()


def test_detect_grid_absent(tmp_path):
    prepare_instances(tmp_path)
    proc = run(("detect", "--in", "base7.hg3", "--find", "grid"), tmp_path)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["found"] is False and data["witness"] is None


def test_byte_identical_reruns(tmp_path):
    for args in (("construct", "base", "--p", "13"),
                 ("census", "--p", "5..13"),
                 ("lemma", "--N", "2..8", "--seed", "5")):
        a = run(args, tmp_path)
        b = run(args, tmp_path)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


def test_pretty_output_is_equivalent_json(tmp_path):
    compact = run(("construct", "qr", "--p", "7"), tmp_path)
    pretty = run(("construct", "qr", "--p", "7", "--pretty"), tmp_path)
    assert json.loads(compact.stdout) == json.loads(pretty.stdout)
    assert compact.stdout != pretty.stdout


USAGE_ERRORS = [
    ("construct", "base", "--p", "9"),
    ("construct", "base", "--p", "4"),
    ("construct", "base", "--p", "7", "--seed", "1"),
    ("construct", "random", "--p", "7", "--seed", "1"),
    ("construct", "random", "--p", "7", "--rho", "1/2"),
    ("construct", "random", "--p", "7", "--rho", "3/2", "--seed", "1"),
    ("construct", "random", "--p", "7", "--rho", "1/2", "--seed", "-1"),
    ("census", "--p", "13..5"),
    ("lemma", "--N", "1..4"),
    ("pascal", "--p", "5"),
    ("verify", "--in", "nosuch.hg3"),
    ("detect", "--in", "nosuch.hg3", "--find", "grid"),
    ("nonsense",),
    ("pascal", "--p", "13", "--samples", "-5"),
    *(("construct", "qr", "--p", "7", "--out", name) for name in ("", ".", "..", "/", "x/..")),
    # past a work budget: refused before any work, a 30-digit prime included
    ("construct", "base", "--p", "1000000000000000000000000000057", "--out", "big.hg3"),
    ("construct", "qr", "--p", "20011"),
    ("census", "--p", "5..2001"),
    ("lemma", "--N", "2..99999999999999999999"),
    ("pascal", "--p", "13", "--samples", "1000001"),
    # the least strong pseudoprime to bases 2..37, and the limit of the test
    ("pascal", "--p", "318665857834031151167461"),
    ("pascal", "--p", "3317044064679887385961981"),
]


@pytest.mark.parametrize("args", USAGE_ERRORS)
def test_usage_errors_exit_two(args, tmp_path):
    proc = run(args, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p,why", [("318665857834031151167461", "is not an odd prime"),
                                   ("3317044064679887385961981", "too large")])
def test_pascal_refuses_a_pseudoprime_in_one_error_line(p, why, tmp_path):
    proc = run(("pascal", "--p", p), tmp_path)
    lines = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (2, "")
    assert lines[0].startswith("usage: gridfree pascal") and len(lines) == 2, proc.stderr
    assert lines[1].startswith("gridfree pascal: error: argument --p: " + p) and why in lines[1]


BUDGETS = [
    # (flag's command and value at the budget, the same past it, the budget)
    (("construct", "base", "--p", "19997"), ("construct", "base", "--p", "20011"),
     "MAX_CONSTRUCT_P"),
    (("census", "--p", "5..2000"), ("census", "--p", "2000..2001"), "MAX_CENSUS_P"),
    (("lemma", "--N", "2..500"), ("lemma", "--N", "501"), "MAX_LEMMA_N"),
    (("pascal", "--p", "7", "--samples", "1000000"),
     ("pascal", "--p", "7", "--samples", "1000001"), "MAX_PASCAL_SAMPLES"),
]


@pytest.mark.parametrize("inside,past,name", BUDGETS)
def test_work_budgets_are_refused_at_parse_time_and_named(inside, past, name, capsys):
    from gridfree import cli

    budget = getattr(cli, name)
    parser = cli.build_parser()
    parser.parse_args(inside)  # the largest accepted value parses
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(past)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(f"exceeds the work budget of {budget}")
    assert sum("work budget" in line for line in err) == 1
    with pytest.raises(SystemExit):
        parser.parse_args([inside[0], "--help"])
    assert f"{budget} (work budget)" in " ".join(capsys.readouterr().out.split())
    assert f"{budget:,}" in (GOLDEN.parents[1] / "README.md").read_text(encoding="utf-8")


def test_construct_accepts_the_p_the_roadmap_cites():
    from gridfree import cli

    assert cli.build_parser().parse_args(["construct", "base", "--p", "10007"]).p == 10007


def test_unknown_check_and_bad_max_vertices(tmp_path):
    prepare_instances(tmp_path)
    proc = run(("verify", "--in", "base7.hg3", "--checks", "linear,nope"), tmp_path)
    assert proc.returncode == 2
    assert "unknown check" in proc.stderr
    proc = run(("detect", "--in", "base7.hg3", "--find", "core",
                "--max-vertices", "3"), tmp_path)
    assert proc.returncode == 2


def test_unknown_check_is_reported_before_the_input_is_read(tmp_path, monkeypatch, capsys):
    from gridfree import cli

    proc = run(("verify", "--in", "missing.hg3", "--checks", "linear,nope"), tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("unknown check 'nope'; pick from "), proc.stderr

    def unread(path):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "file_instance", unread)
    monkeypatch.setattr(cli, "file_linear_witness", unread)
    (tmp_path / "h.hg3").write_text("3 1\n0 1 2\n")
    for checks in ("linear,nope", "nope", "gridfree,,linear", ""):
        assert cli.main(["verify", "--in", str(tmp_path / "h.hg3"), "--checks", checks]) == 2
    assert capsys.readouterr().err.count("unknown check") == 4


@pytest.mark.parametrize("args", [
    ("verify", "--in", "adir"),
    ("detect", "--in", "adir", "--find", "grid"),
])
def test_directory_input_cannot_be_read(args, tmp_path):
    (tmp_path / "adir").mkdir()
    proc = run(args, tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("cannot read adir"), proc.stderr
    assert_clean_stderr(proc)


@pytest.mark.parametrize("args", [
    ("verify", "--in", "elf.hg3"),
    ("detect", "--in", "elf.hg3", "--find", "grid"),
])
def test_non_utf8_input_cannot_be_read(args, tmp_path):
    (tmp_path / "elf.hg3").write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0xe0)))
    proc = run(args, tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 2 and lines[0] == "cannot read elf.hg3: not UTF-8 text", proc.stderr
    assert_clean_stderr(proc)


def test_report_named_out_is_rejected_before_building(tmp_path):
    proc = run(("construct", "base", "--p", "5", "--out", "r.report.json"), tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 2 and ".report.json" in lines[0], proc.stderr
    assert_clean_stderr(proc)
    assert list(tmp_path.iterdir()) == []


def test_failed_report_write_leaves_no_partial_files(tmp_path):
    # a report name held by a directory is refused before anything is
    # written, so the old file at the .hg3 name stays as it was
    (tmp_path / "base5.hg3").write_text("junk\n" * 1000)
    (tmp_path / "base5.report.json").mkdir()
    proc = run(("construct", "base", "--p", "5", "--out", "base5.hg3"), tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot write base5.report.json: Is a directory"), proc.stderr
    assert_clean_stderr(proc)
    assert (tmp_path / "base5.hg3").read_text() == "junk\n" * 1000
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base5.hg3", "base5.report.json"]
    (tmp_path / "base5.report.json").rmdir()
    (tmp_path / "base5.hg3").unlink()
    (tmp_path / "base5.hg3").mkdir()
    proc = run(("construct", "base", "--p", "5", "--out", "base5.hg3"), tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("cannot write base5.hg3"), proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["base5.hg3"]
    assert list((tmp_path / "base5.hg3").iterdir()) == []


def test_link_to_a_directory_at_the_report_name_is_replaced(tmp_path):
    # a rename replaces a symbolic link without following it, so a link to a
    # directory is no reason to refuse the report name
    (tmp_path / "adir").mkdir()
    (tmp_path / "base5.report.json").symlink_to("adir")
    proc = run(("construct", "base", "--p", "5", "--out", "base5.hg3"), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "base5.report.json").is_symlink()
    assert (tmp_path / "base5.report.json").read_text() == proc.stdout
    assert list((tmp_path / "adir").iterdir()) == []


def test_out_name_whose_report_fills_name_max(tmp_path):
    # the temporaries beside --out are named by the process id alone, so
    # any name whose report sibling fits the file system is written
    stem = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".report.json"))
    out, report = f"{stem}.hg3", f"{stem}.report.json"
    proc = run(("construct", "base", "--p", "7", "--out", out), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert_clean_stderr(proc)
    assert (tmp_path / out).read_text() == (GOLDEN / "base7.hg3").read_text()
    golden = (GOLDEN / "base7.report.json").read_text()
    assert proc.stdout == golden.replace("base7.report.json", report).replace("base7.hg3", out)
    assert (tmp_path / report).read_text() == proc.stdout
    assert json.loads(proc.stdout)["manifest"]["outputs"] == [out, report]
    assert sorted(path.name for path in tmp_path.iterdir()) == [out, report]


def test_out_name_whose_report_is_past_name_max_writes_nothing(tmp_path):
    # refused before the build: the old file at the --out name stays as it was
    stem = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".report.json") + 1)
    (tmp_path / f"{stem}.hg3").write_text("old\n")
    proc = run(("construct", "base", "--p", "7", "--out", f"{stem}.hg3"), tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"cannot write {stem}.report.json: File name too long"), \
        proc.stderr
    assert_clean_stderr(proc)
    assert [path.name for path in tmp_path.iterdir()] == [f"{stem}.hg3"]
    assert (tmp_path / f"{stem}.hg3").read_text() == "old\n"


def test_temporaries_left_by_a_killed_run_are_neither_met_nor_removed(tmp_path, monkeypatch,
                                                                       capsys):
    # a killed run leaves its temporaries behind; a later run in this
    # directory whose process reuses the pid still writes, and leaves them
    # alone, since a peer sharing the directory may own them
    from gridfree import cli

    monkeypatch.chdir(tmp_path)
    stale = {f".gridfree-{os.getpid()}.{suffix}": f"stale {suffix}\n"
             for suffix in ("edges", "hg3", "json")}
    for name, text in stale.items():
        (tmp_path / name).write_text(text)
    assert cli.main(["construct", "base", "--p", "7", "--out", "base7.hg3"]) == 0
    report = (GOLDEN / "base7.report.json").read_text()
    assert capsys.readouterr().out == report
    assert {path.name: path.read_text() for path in tmp_path.iterdir()} == {
        **stale, "base7.hg3": (GOLDEN / "base7.hg3").read_text(), "base7.report.json": report}


def test_failed_out_write_is_not_a_read_error(tmp_path):
    proc = run(("construct", "base", "--p", "5", "--out", "nodir/base5.hg3"), tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot write nodir/base5.hg3"), proc.stderr
    assert_clean_stderr(proc)


def test_truncated_file_is_a_parse_error(tmp_path):
    prepare_instances(tmp_path)
    text = (tmp_path / "base7.hg3").read_text()
    (tmp_path / "trunc.hg3").write_text(text[:40])
    proc = run(("verify", "--in", "trunc.hg3"), tmp_path)
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


def test_over_long_vertex_id_is_a_parse_error(tmp_path):
    # more digits than int() accepts by default: the line checker must name it
    (tmp_path / "long.hg3").write_text("3 1\n0 1 " + "9" * 5000 + "\n")
    proc = run(("verify", "--in", "long.hg3"), tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("parse error: line 2:"), proc.stderr[:200]
    assert_clean_stderr(proc)


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    from gridfree import cli

    def broken(kind, p):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "construction", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["construct", "base", "--p", "5"])


def _broken_at(real, at, value):
    """real, except that it returns value when called with at first."""
    return lambda first, *rest: value if first == at else real(first, *rest)


# (argv, the module and name of the check that census or lemma calls, its
# broken stand-in, the message of the identity it breaks, the golden stdout
# and how many of its lines come before the failing p or N: the manifest
# and one record per p or N).  lemma's records call its integer cores; each
# case's id names the Fraction function that states the same identity.
IDENTITY_BREAKS = [
    pytest.param(["census", "--p", "5..13"], "charsum", "gauss_sum_check",
                 lambda real: _broken_at(real, 11, 0),
                 "gauss sum identity failed at p=11: 0", "census_5_13.jsonl", 3,
                 id="gauss_sum_check"),
    pytest.param(["census", "--p", "5..13"], "charsum", "delta_sum_check",
                 lambda real: _broken_at(real, 7, 3),
                 "delta sum identity failed at p=7: 3", "census_5_13.jsonl", 2,
                 id="delta_sum_check"),
    pytest.param(["census", "--p", "5..13"], "charsum", "reciprocity_check",
                 lambda real: _broken_at(real, 13, types.SimpleNamespace(consistent=False)),
                 "reciprocity failed at p=13", "census_5_13.jsonl", 4,
                 id="reciprocity_check"),
    pytest.param(["lemma", "--N", "2..8", "--seed", "5"], "lemma", "_delta",
                 lambda real: _broken_at(real, 3, (*real(3)[:2], False)),
                 "ceiling gap bound failed at N=3", "lemma_2_8.jsonl", 2,
                 id="delta_check"),
    pytest.param(["lemma", "--N", "2..8", "--seed", "5"], "lemma", "_hits",
                 lambda real: lambda N, k, size: real(N, k, size) + (N == 5),
                 "expectation formula failed at N=5", "lemma_2_8.jsonl", 4,
                 id="expected_coverage"),
    pytest.param(["lemma", "--N", "2..8", "--seed", "5"], "lemma", "_exhaustive_hits",
                 lambda real: lambda N, k, fam: real(N, k, fam) - (N == 8),
                 "exhaustive average disagrees at N=8", "lemma_2_8.jsonl", 7,
                 id="exhaustive_average"),
    pytest.param(["lemma", "--N", "2..8", "--seed", "5"], "lemma", "best_subset",
                 lambda real: lambda N, k, fam: (real(N, k, fam)[0], -1) if N == 4
                 else real(N, k, fam),
                 "attained coverage below bound at N=4", "lemma_2_8.jsonl", 3,
                 id="best_subset"),
]


@pytest.mark.parametrize("argv,module,name,broken,message,golden,lines", IDENTITY_BREAKS)
def test_a_broken_identity_exits_one_with_main_s_line(argv, module, name, broken, message,
                                                      golden, lines, monkeypatch, capsys):
    import importlib

    from gridfree import cli

    module = importlib.import_module(f"gridfree.{module}")
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out.splitlines(keepends=True) == \
        (GOLDEN / golden).read_text().splitlines(keepends=True)[:lines]
    err = err.splitlines()
    assert err[0] == f"internal invariant violated: {message}" and len(err) == 2
    assert TIMING.match(err[1])


def test_a_hexagon_off_its_pascal_line_exits_one_and_is_listed(monkeypatch, capsys):
    from gridfree import cli

    real, samples = cli.pascal_collinear, []

    def once(xs, p):
        samples.append(list(xs))
        return len(samples) != 3 and real(xs, p)

    monkeypatch.setattr(cli, "pascal_collinear", once)
    assert cli.main(["pascal", "--p", "13", "--samples", "25", "--seed", "7"]) == 1
    out, err = capsys.readouterr()
    want = json.loads((GOLDEN / "pascal_13.json").read_text())
    want.update(all_collinear=False, failures=[{"sample": 2, "xs": samples[2]}])
    assert out == json.dumps(want, separators=(",", ":")) + "\n"
    assert TIMING.match(err.strip())


def test_an_invalid_prime_from_a_command_is_a_usage_error(monkeypatch, capsys):
    from gridfree import InvalidPrimeError, cli

    def refused(kind, p):
        raise InvalidPrimeError("p = 7 refused")

    monkeypatch.setattr(cli, "construction", refused)
    assert cli.main(["construct", "base", "--p", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[0] == "p = 7 refused"


@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
@pytest.mark.parametrize("args", [
    ("construct", "base", "--p", "7"),
    ("verify", "--in", "base7.hg3"),
    ("census", "--p", "5..499"),  # 12.5 KB: a write fails before the command ends
])
def test_unwritable_stdout_is_one_error_line(args, sink, tmp_path):
    from gridfree import build_base, encode

    (tmp_path / "base7.hg3").write_text(encode(*build_base(7)[:2]))
    argv = [sys.executable, "-m", "gridfree", *args]
    if sink == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, cwd=tmp_path, env=child_env(), stdout=full,
                                  stderr=subprocess.PIPE, text=True)
        why = os.strerror(errno.ENOSPC)
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(argv, cwd=tmp_path, env=child_env(), stdout=write,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        why = os.strerror(errno.EPIPE)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert lines[0] == f"cannot write stdout: {why}" and len(lines) == 2, proc.stderr
    assert TIMING.match(lines[1])
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args,code", [
    (("census", "--p", "5..13"), 0),
    (("verify", "--in", "missing.hg3"), 2),
    (("verify", "--in", "base17.hg3"), 1),
])
def test_an_unwritable_stderr_keeps_the_command_s_exit_code(args, code, tmp_path):
    # main's stderr lines are best-effort: neither their failure nor the
    # exit flush of what they left buffered may change the exit or stdout
    from gridfree import build_base, encode

    (tmp_path / "base17.hg3").write_text(encode(*build_base(17)[:2]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "gridfree", *args], cwd=tmp_path,
                              env=child_env(), stdout=subprocess.PIPE, stderr=full, text=True)
    readable = run(args, tmp_path)
    assert readable.returncode == proc.returncode == code
    assert proc.stdout == readable.stdout


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 through sh")
def test_a_closed_stdout_descriptor_is_not_an_error():
    # with fd 1 closed Python sets sys.stdout to None and print writes nothing
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "gridfree",
                           "construct", "base", "--p", "7"],
                          env=child_env(), stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    assert TIMING.match(proc.stderr.strip()), proc.stderr


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("case,code", [
    ("ok", 0), ("violation", 1), ("parse-error", 2), ("usage", 2), ("internal", None),
])
def test_main_restores_the_collector_state(tmp_path, monkeypatch, capsys, collector, case, code):
    from gridfree import cli

    (tmp_path / "pair.hg3").write_text("4 2\n0 1 2\n0 1 3\n")
    (tmp_path / "short.hg3").write_text("3 1\n0 1\n")
    argv = {
        "ok": ["construct", "base", "--p", "5", "--out", str(tmp_path / "base5.hg3")],
        "violation": ["verify", "--in", str(tmp_path / "pair.hg3"), "--checks", "linear"],
        "parse-error": ["verify", "--in", str(tmp_path / "short.hg3")],
        "usage": ["construct", "base", "--p", "4"],
        "internal": ["construct", "base", "--p", "5"],
    }[case]
    during = []

    def watched(build):
        # construct streams the edges of construction, with or without --out
        def call(*args):
            during.append(gc.isenabled())
            if case == "internal":
                raise ValueError("internal fault")
            return build(*args)
        return call

    monkeypatch.setattr(cli, "construction", watched(cli.construction))
    if case == "internal":
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(argv)
    elif case == "usage":
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
    else:
        assert cli.main(argv) == code
    assert gc.isenabled() is collector
    assert during == ([False] if argv[0] == "construct" and case != "usage" else [])
    if case == "ok":
        assert (tmp_path / "base5.hg3").read_text().startswith("# modulus 5\n")
    capsys.readouterr()


def test_census_skips_non_primes_in_range(tmp_path):
    proc = run(("census", "--p", "8..12"), tmp_path)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    head = json.loads(lines[0])
    assert head["manifest"]["skipped"] == [8, 9, 10, 12]
    assert json.loads(lines[1])["p"] == 11
    assert len(lines) == 2


def test_stdout_is_json_only(tmp_path):
    proc = run(("construct", "base", "--p", "11"), tmp_path)
    payload = json.loads(proc.stdout)
    assert payload["report"]["m"] == 33
    assert_clean_stderr(proc)


def _loaded_modules(code, cwd):
    """Names in sys.modules after running `code` in a CLI-like child."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sorted(sys.modules)))"],
        cwd=cwd, env=child_env(), capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


# fractions brings decimal, its shared library and numbers into a child; the
# functions that build a Fraction import it themselves
RATIONALS = {"fractions", "decimal", "numbers"}


def test_cli_import_loads_no_dataclasses_or_inspect(tmp_path):
    bare = _loaded_modules("pass", tmp_path)
    cli = _loaded_modules("import gridfree.cli", tmp_path)
    assert "gridfree.cli" in cli and "gridfree.geometry" in cli
    assert {"dataclasses", "inspect"} & (cli - bare) == set()
    assert RATIONALS & (cli - bare) == set()
    assert RATIONALS & (_loaded_modules("import gridfree", tmp_path) - bare) == set()


@pytest.mark.parametrize("argv,rational", [
    (["verify", "--in", "base23.hg3"], False),
    (["detect", "--in", "base23.hg3", "--find", "core"], False),
    (["construct", "base", "--p", "23"], False),
    (["construct", "qr", "--p", "23"], False),
    (["census", "--p", "5..13"], False),
    (["pascal", "--p", "7", "--samples", "3"], False),
    (["lemma", "--N", "2..4"], False),
    (["construct", "random", "--p", "23", "--rho", "1/2", "--seed", "1"], True),
    (["lemma", "--N", "2..16"], False),  # N <= 12 runs the exhaustive average
])
def test_only_commands_that_build_a_rational_import_fractions(argv, rational, tmp_path):
    from gridfree import cli

    assert cli.main(["construct", "base", "--p", "23", "--out", str(tmp_path / "base23.hg3")]) == 0
    bare = _loaded_modules("pass", tmp_path)
    loaded = _loaded_modules("import io, sys\nfrom gridfree import cli\n"
                             "out, sys.stdout = sys.stdout, io.StringIO()\n"
                             f"assert cli.main({argv!r}) in (0, 1)\nsys.stdout = out", tmp_path)
    assert "gridfree.cli" in loaded
    assert RATIONALS & (loaded - bare) == (RATIONALS if rational else set())


RHO_ACCEPTED = [("1/2", "1/2"), ("2/4", "1/2"), ("0.5", "1/2"), ("0", "0"), ("1", "1")]
RHO_REFUSED = [
    (["--rho", "3/2"], "rho must lie in [0, 1], got 3/2"),
    (["--rho", "1/0"], "'1/0' is not a rational (use num/den)"),
    (["--rho", "x"], "'x' is not a rational (use num/den)"),
    (["--rho=-1/2"], "rho must lie in [0, 1], got -1/2"),
    (["--rho", "-1/2"], "expected one argument"),
]


@pytest.mark.parametrize("text,shown", RHO_ACCEPTED)
def test_rho_is_an_exact_rational(text, shown, capsys):
    from fractions import Fraction

    from gridfree import cli

    argv = ["construct", "random", "--p", "7", "--rho", text, "--seed", "1"]
    rho = cli.build_parser().parse_args(argv).rho
    assert type(rho) is Fraction and rho == Fraction(shown)
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["parameters"]["rho"] == shown


@pytest.mark.parametrize("flag,why", RHO_REFUSED)
def test_bad_rho_is_a_usage_error(flag, why, capsys):
    from gridfree import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "random", "--p", "7", *flag, "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"gridfree construct: error: argument --rho: {why}"


def test_package_exports_each_module_name_once():
    # gridfree/__init__.py joins the modules' __all__ lists; a name listed by
    # two modules would bind only the later module's object.
    import gridfree

    assert len(gridfree.__all__) == len(set(gridfree.__all__))
    listed = {"__version__"}
    for mod_name in ("ffield", "geometry", "hypergraph", "construct", "detect", "lemma",
                     "charsum"):
        module = sys.modules[f"gridfree.{mod_name}"]
        for name in module.__all__:
            assert getattr(gridfree, name) is getattr(module, name), f"{mod_name}.{name}"
        listed.update(module.__all__)
    assert listed == set(gridfree.__all__)


def test_benchmark_traced_names_resolve():
    # bench/tracing.py looks up each TRACED name after `import gridfree.cli`;
    # a removed or renamed one would otherwise surface only in its --trace runs.
    # The file is read and executed here, never imported, so nothing is
    # written beside it.
    import gridfree.cli as cli

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tracing = {"__name__": "tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    for mod_name, fns in tracing["TRACED"].items():
        home = sys.modules[f"gridfree.{mod_name}"]
        for fn_name in fns:
            owner = home.Hypergraph3 if fn_name == "from_edges" else home
            assert callable(getattr(owner, fn_name, None)), f"{mod_name}.{fn_name}"
    # cmd_pascal's own binding is patched, so its calls are counted
    original = cli.pascal_collinear
    with tracing["Tracer"]().installed() as tracer:
        assert cli.pascal_collinear is not original
        assert cli.main(["pascal", "--p", "7", "--samples", "3"]) == 0
    assert cli.pascal_collinear is original
    assert tracer.metrics()["geometry.pascal_collinear.calls"] == 3


PSEUDOPRIMES = ("318665857834031151167461", "3317044064679887385961981")
_SEEDS = st.sampled_from([None, "0", "1", "3", str(2**64 - 1), str(2**64), "-1", "x",
                          *PSEUDOPRIMES])


def _range(lo: int, hi: int):
    """LO..HI strings over [lo, hi], empty and reversed ranges included."""
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(lambda t: f"{t[0]}..{t[1]}")


def _with_flags(command: str, **flags):
    """argv for command, each flag either left out or given a drawn value,
    and --pretty either way."""
    def build(drawn):
        values, pretty = drawn
        argv = [command]
        for flag, value in zip(flags, values):
            if value is not None:
                argv += [f"--{flag}", value]
        return argv + ["--pretty"] * pretty

    return st.tuples(st.tuples(*flags.values()), st.booleans()).map(build)


AUDIT_ARGV = st.one_of(
    _with_flags("census", p=st.one_of(
        _range(3, 40),
        st.sampled_from([None, "5", "7", "3..4", "2000..2000", "2000..2001", "5..2001", "1..4",
                         "x", "", "5..", "..7", "-3..5", "3.5", *PSEUDOPRIMES]))),
    _with_flags("lemma", N=st.one_of(
        _range(1, 18),
        st.sampled_from([None, "2", "16..17", "500", "501", "0", "x", "2..99999999999999999999",
                         *PSEUDOPRIMES])), seed=_SEEDS),
    _with_flags("pascal", p=st.sampled_from(
        [None, "5", "7", "11", "13", "1009", "4", "9", "-7", "x", "1000000000000000000000000000057",
         *PSEUDOPRIMES]),
        samples=st.sampled_from([None, "1", "2", "3", "0", "-5", "1000001", "x"]), seed=_SEEDS),
)


def _json_documents(text: str) -> list:
    """The JSON values of text, one after another with whitespace between."""
    decoder, docs, pos = json.JSONDecoder(), [], 0
    while text[pos:].strip():
        pos += len(text[pos:]) - len(text[pos:].lstrip())
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    return docs


def _assert_exit_code_contract(argv):
    """Run argv in-process: the exit is 0, 1 or 2, no other exception
    escapes main, and stdout is JSON on 0 and 1 and empty on 2.  Returns
    the exit code."""
    import contextlib
    import io

    from gridfree import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
    else:
        docs = _json_documents(out.getvalue())
        assert docs and docs[0]["manifest"]["command"] == argv[0], argv
    return code


@settings(max_examples=150, deadline=None)
@given(AUDIT_ARGV)
def test_audit_commands_keep_the_exit_code_contract(argv):
    """census, lemma and pascal on valid, boundary and invalid values."""
    _assert_exit_code_contract(argv)


@pytest.mark.parametrize("command", [["verify"], ["verify", "--checks", "linear"],
                                     ["detect", "--find", "core"]])
@pytest.mark.parametrize("path", ["missing.hg3", "adir", "empty.hg3", ".", "latin1.hg3",
                                  "truncated.hg3", "golden"])
def test_file_commands_keep_the_exit_code_contract(tmp_path, monkeypatch, command, path):
    """verify and detect on paths that are missing, a directory, empty, not
    UTF-8, cut mid-line and a golden."""
    golden = (GOLDEN / "base7.hg3").read_text()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "empty.hg3").write_text("")
    (tmp_path / "latin1.hg3").write_bytes("# café\n".encode("latin-1") + golden.encode())
    (tmp_path / "truncated.hg3").write_text(golden[:len(golden) // 2])
    if path == "golden":
        path = str(GOLDEN / "base7.hg3")
    _assert_exit_code_contract([*command, "--in", path])


# every path case of a file argument: two goldens, missing, a directory,
# empty, the cwd, not UTF-8, cut mid-line, and inside a missing directory
PATHS = ["base5.hg3", "base7.hg3", "missing.hg3", "adir", "empty.hg3", ".", "latin1.hg3",
         "truncated.hg3", "nodir/x.hg3"]
# the longest --out whose report sibling fits the file system's NAME_MAX,
# the shortest and the longest whose report sibling does not, and an --out
# whose report name is held by a directory
NAME_MAX = os.pathconf(tempfile.gettempdir(), "PC_NAME_MAX")
LONG_OUT = "x" * (NAME_MAX - len(".report.json")) + ".hg3"
TOO_LONG_OUTS = ["y" * (NAME_MAX - len(".report.json") + 1) + ".hg3",
                 "z" * (NAME_MAX - len(".hg3")) + ".hg3"]
FILE_ARGV = {
    # the drawn kind goes in after the command name
    "construct": st.tuples(st.sampled_from(["base", "qr", "random"]), _with_flags(
        "construct",
        # a composite, and the least prime past MAX_CONSTRUCT_P
        p=st.sampled_from([None, "5", "7", "9", "20011"]),
        rho=st.sampled_from([None, *(text for text, _ in RHO_ACCEPTED), "3/2", "1/0", "x",
                             "-1/2"]),
        seed=st.sampled_from([None, "0", "1", "-1", "x"]),
        out=st.sampled_from([None, *PATHS, "out.hg3", "adir/out.hg3", "out.report.json",
                             LONG_OUT, *TOO_LONG_OUTS, "held.hg3"]),
    )).map(lambda t: [t[1][0], t[0], *t[1][1:]]),
    "verify": _with_flags("verify", **{
        "in": st.sampled_from([None, *PATHS]),
        "checks": st.sampled_from([None, "", ",", "linear", "bogus", "linear,linear",
                                   "gridfree,linear,gridfree", "prismfree,corefree9", "linear,"]),
    }),
    "detect": _with_flags("detect", **{
        "in": st.sampled_from([None, *PATHS]),
        "find": st.sampled_from([None, "grid", "prism", "core", "x"]),
        "max-vertices": st.sampled_from([None, "4", "9", "10", "3", "x"]),
    }),
}


def _tree(root: Path) -> dict:
    """Each file under root, by relative path, with its bytes."""
    return {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}


def _assert_contract_in_a_fresh_tree(argv) -> int:
    """Run argv in a fresh directory holding every path case: the exit code
    contract holds, and the directory ends up holding only what it held
    plus, after a construct --out that exits 0, the instance and its report.
    Returns the exit code."""
    from gridfree import decode

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "adir").mkdir()
        for name in ("base5.hg3", "base7.hg3"):
            (root / name).write_bytes((GOLDEN / name).read_bytes())
        golden = (GOLDEN / "base7.hg3").read_text()
        (root / "empty.hg3").write_text("")
        (root / "latin1.hg3").write_bytes("# café\n".encode("latin-1") + golden.encode())
        (root / "truncated.hg3").write_text(golden[:len(golden) // 2])
        (root / "held.hg3").write_bytes((GOLDEN / "qr5.hg3").read_bytes())
        (root / "held.report.json").mkdir()
        (root / "held.report.json" / "kept").write_text("")
        before = _tree(root)
        os.chdir(root)
        try:
            code = _assert_exit_code_contract(argv)
        finally:
            os.chdir(cwd)
        after = _tree(root)
    written = set()
    if code == 0 and argv[0] == "construct" and "--out" in argv:
        out = argv[argv.index("--out") + 1]
        report = str(Path(out).with_suffix(".report.json"))
        written = {out, report}
        decode(after[out].decode())
        assert json.loads(after[report])["manifest"]["outputs"] == [out, report]
    assert set(after) == set(before) | written, argv
    assert all(after[name] == body for name, body in before.items() if name not in written), argv
    return code


@pytest.mark.parametrize("command", FILE_ARGV)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_file_commands_keep_the_exit_code_contract_on_any_flags(command, data):
    """construct, verify and detect on valid, boundary and invalid flag
    values and every path case (see _assert_contract_in_a_fresh_tree)."""
    _assert_contract_in_a_fresh_tree(data.draw(FILE_ARGV[command]))


@pytest.mark.parametrize("out", ["adir", ".", "nodir/x.hg3", "out.report.json",
                                 *TOO_LONG_OUTS, "held.hg3"],
                         ids=lambda out: out if len(out) < 20 else f"{len(out)}-chars")
def test_refused_out_targets_keep_the_tree(out):
    """Each --out candidate that cannot become a file, with construct flags
    that are otherwise valid, so the run gets as far as it can: exit 2 and
    the directory as it was."""
    assert _assert_contract_in_a_fresh_tree(["construct", "base", "--p", "7", "--out", out]) == 2

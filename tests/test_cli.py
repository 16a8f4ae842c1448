"""End-to-end command tests: golden bytes, exit codes, determinism."""

import gc
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    from gridfree import encode, grid_fixture

    (tmp_path / "grid.hg3").write_text(encode(grid_fixture()))
    proc = run(("verify", "--in", "grid.hg3", "--checks", "gridfree"), tmp_path)
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["failed"] == "gridfree"
    assert data["witness"] == {"rows": [0, 4, 5], "cols": [1, 2, 3],
                               "vertices": list(range(9))}


def test_verify_linear_witness(tmp_path):
    (tmp_path / "bad.hg3").write_text("4 2\n0 1 2\n0 1 3\n")
    proc = run(("verify", "--in", "bad.hg3", "--checks", "linear"), tmp_path)
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["failed"] == "linear"
    assert data["witness"] == {"pair": [0, 1], "edges": [0, 1]}


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
]


@pytest.mark.parametrize("args", USAGE_ERRORS)
def test_usage_errors_exit_two(args, tmp_path):
    proc = run(args, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""


def test_unknown_check_and_bad_max_vertices(tmp_path):
    prepare_instances(tmp_path)
    proc = run(("verify", "--in", "base7.hg3", "--checks", "linear,nope"), tmp_path)
    assert proc.returncode == 2
    assert "unknown check" in proc.stderr
    proc = run(("detect", "--in", "base7.hg3", "--find", "core",
                "--max-vertices", "3"), tmp_path)
    assert proc.returncode == 2


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
    # an old file at the .hg3 name is replaced whole; a report name held by a
    # directory fails the second write, which leaves no temporary file behind
    (tmp_path / "base5.hg3").write_text("junk\n" * 1000)
    (tmp_path / "base5.report.json").mkdir()
    proc = run(("construct", "base", "--p", "5", "--out", "base5.hg3"), tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot write base5.report.json"), proc.stderr
    assert_clean_stderr(proc)
    assert (tmp_path / "base5.hg3").read_text() == (GOLDEN / "base5.hg3").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base5.hg3", "base5.report.json"]
    (tmp_path / "base5.report.json").rmdir()
    (tmp_path / "base5.hg3").unlink()
    (tmp_path / "base5.hg3").mkdir()
    proc = run(("construct", "base", "--p", "5", "--out", "base5.hg3"), tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("cannot write base5.hg3"), proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["base5.hg3"]
    assert list((tmp_path / "base5.hg3").iterdir()) == []


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
    # more digits than int() accepts by default: the line loop must name it
    (tmp_path / "long.hg3").write_text("3 1\n0 1 " + "9" * 5000 + "\n")
    proc = run(("verify", "--in", "long.hg3"), tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("parse error: line 2:"), proc.stderr[:200]
    assert_clean_stderr(proc)


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    from gridfree import cli

    def broken(p):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "build_base", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["construct", "base", "--p", "5"])


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
    real_build_base = cli.build_base

    def build_base(p):
        during.append(gc.isenabled())
        if case == "internal":
            raise ValueError("internal fault")
        return real_build_base(p)

    monkeypatch.setattr(cli, "build_base", build_base)
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


def test_cli_import_loads_no_dataclasses_or_inspect(tmp_path):
    bare = _loaded_modules("pass", tmp_path)
    cli = _loaded_modules("import gridfree.cli", tmp_path)
    assert "gridfree.cli" in cli and "gridfree.geometry" in cli
    assert {"dataclasses", "inspect"} & (cli - bare) == set()

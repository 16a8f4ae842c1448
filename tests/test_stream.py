"""The streaming CLI routes against their references.

`construct` streams the sweep's rows: through the line formatter into
its file with `--out`, and only counted without it.  `verify --checks
linear` reads every file with the codec's one reader, a chunk of whole
lines at a time, with a line checker for the chunks outside encode's
form.  Each must give exactly the bytes, exit codes and messages of its
reference: `encode(build_*(...))` for construct, and for verify
`oracles.decode_by_lines` on the file's text, read as UTF-8 with
universal newlines, then the first-repeated-pair loop.  The detectors'
hypergraph comes from `file_instance`, through the same reader, in one
pass with the provenance comments: it must read as `decode` and
`decode_with_provenance` read the same text, and `main` counts its calls,
so a route that must not build a hypergraph is held to none.
"""

import functools
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import traced_peak
from gridfree import (
    FormatError,
    Hypergraph3,
    __version__,
    build_base,
    build_qr,
    build_random,
    cli,
    decode,
    decode_with_provenance,
    encode,
    hypergraph,
)
from gridfree.construct import construction
from test_hypergraph import (BODY_ALPHABET, CROSS_ROLE_REPEATS, ENCODE_PRIMES, WIDTH_HOSTS,
                             _mutate)

TIMING = re.compile(r"^gridfree: \d+\.\d{3}s elapsed$")
RHOS = ((0, 1), (1, 3), (1, 2), (1, 1))


def main(argv):
    """(exit code, stdout, first stderr line, calls of cli.file_instance,
    the only read that builds a hypergraph) of in-process `gridfree argv`."""
    reads = []

    def counted(path):
        reads.append(path)
        return real(path)

    real = cli.file_instance
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setattr(cli, "file_instance", counted)
        code = cli.main(argv)
    first = err.getvalue().splitlines()[0]
    return code, out.getvalue(), "<timing>" if TIMING.match(first) else first, len(reads)


def construct_argv(kind, p, rho=None, seed=None):
    argv = ["construct", kind, "--p", str(p)]
    if rho is not None:
        argv += ["--rho", f"{rho[0]}/{rho[1]}", "--seed", str(seed)]
    return argv


@pytest.mark.parametrize("p", ENCODE_PRIMES)
def test_construct_out_matches_encode_of_builders(p, tmp_path):
    cases = [("base", None, None, build_base(p)), ("qr", None, None, build_qr(p))]
    cases += [("random", rho, seed, build_random(p, *rho, seed))
              for rho in RHOS for seed in (p, 2 * p + 1)]
    for kind, rho, seed, (h, vmap, report) in cases:
        out = tmp_path / f"{kind}.hg3"
        code, stdout, err, _ = main(construct_argv(kind, p, rho, seed) + ["--out", str(out)])
        assert (code, err) == (0, "<timing>")
        assert out.read_text() == encode(h, vmap), (kind, rho, seed)
        payload = json.loads(stdout)
        assert payload["report"] == report.to_json_dict()
        assert stdout == json.dumps(payload, separators=(",", ":")) + "\n"
        assert (tmp_path / f"{kind}.report.json").read_text() == stdout
        # without --out, construct counts the same stream: the same report
        code, plain, _, _ = main(construct_argv(kind, p, rho, seed))
        assert json.loads(plain)["report"] == payload["report"]
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "base.hg3", "base.report.json", "qr.hg3", "qr.report.json",
        "random.hg3", "random.report.json"]


def test_write_edges_names_the_first_edge_out_of_form():
    for chunks, n, fragment in (
        ([([0], [1], [2]), ([0], [1], [2])], 3, "not sorted or has duplicates at (0, 1, 2)"),
        ([([0, 0], [2, 1], [3, 3])], 4, "not sorted or has duplicates at (0, 1, 3)"),
        ([([0], [2], [1])], 3, "(0, 2, 1) is not strictly ascending"),
        ([([0, 1], [1, 2], [2, 3])], 3, "(1, 2, 3) out of range for n=3"),
        ([([-1], [1], [2])], 3, "(-1, 1, 2) out of range"),
    ):
        f = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(fragment)):
            hypergraph.write_edges(f, n, iter(chunks))
        with pytest.raises(ValueError, match=re.escape(fragment)):
            hypergraph.count_edges(n, iter(chunks))
    chunks = [([0, 0], [1, 3], [2, 4]), ([], [], []), ([1], [2], [3])]
    f = io.StringIO()
    assert hypergraph.write_edges(f, 5, iter(chunks)) == 3
    assert f.getvalue() == "0 1 2\n0 3 4\n1 2 3\n"
    assert hypergraph.count_edges(5, iter(chunks)) == 3


def test_construction_validates_like_the_builders():
    with pytest.raises(ValueError, match="unknown kind"):
        construction("half", 7)
    with pytest.raises(ValueError):
        construction("random", 7, 3, 2, 1)  # rho above 1
    vmap, chunks, report = construction("base", 7)
    assert len(vmap) == 14
    with pytest.raises(ArithmeticError):
        report(13)  # the closed form needs 14 edges
    assert report(sum(len(firsts) for firsts, _, _ in chunks)).m == 14


def test_failed_report_check_leaves_no_file(tmp_path, monkeypatch):
    from gridfree import construct

    real = construct.construction

    def short(kind, p, *args):
        vmap, chunks, report = real(kind, p, *args)
        return vmap, (c for i, c in enumerate(chunks) if i), report  # drops a sweep row

    monkeypatch.setattr(cli, "construction", short)
    code, stdout, err, _ = main(["construct", "base", "--p", "7", "--out", str(tmp_path / "b.hg3")])
    assert (code, stdout) == (1, "")
    assert err.startswith("internal invariant violated: enumerated m=")
    assert list(tmp_path.iterdir()) == []


def verify_by_lines(path):
    """(exit code, stdout, first stderr line) of `verify --checks linear`
    on path, from the file's bytes decoded as UTF-8 with universal newlines,
    oracles.decode_by_lines and the first-repeated-pair loop."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return 2, "", f"cannot read {path}: {exc.strerror}"
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return 2, "", f"cannot read {path}: not UTF-8 text"
    try:
        h = oracles.decode_by_lines(text.replace("\r\n", "\n").replace("\r", "\n"))
    except FormatError as exc:
        return 2, "", f"parse error: {exc}"
    manifest = {"command": "verify", "parameters": {"checks": ["linear"]}, "seed": None,
                "version": __version__, "inputs": [str(path)], "outputs": []}
    witness = oracles.linear_witness_by_loop(h)
    if witness is None:
        payload = {"manifest": manifest, "ok": True, "checks": ["linear"]}
    else:
        payload = {"manifest": manifest, "ok": False, "failed": "linear", "witness": witness}
    return int(witness is not None), json.dumps(payload, separators=(",", ":")) + "\n", "<timing>"


def verify_streamed(path):
    """verify --checks linear on path: the exit code, stdout and first
    stderr line of the reference, with the file streamed and never read
    into a hypergraph."""
    code, out, err, instances = main(["verify", "--checks", "linear", "--in", str(path)])
    assert (code, out, err) == verify_by_lines(path)
    assert instances == 0
    return code, out, err


def builder_files():
    yield "base211", encode(*build_base(211)[:2])
    yield "qr211", encode(*build_qr(211)[:2])
    yield "random211", encode(build_random(211, 1, 2, 5)[0])
    for p in (5, 7, 13):
        for h, vmap, _ in (build_base(p), build_qr(p), build_random(p, 1, 3, p)):
            yield f"{p}", encode(h, vmap)
    yield "empty", "4 0\n"
    yield "no edges, comments", "# a comment\n# another\n7 0\n"


def test_verify_linear_streams_builder_files(tmp_path):
    for name, text in builder_files():
        path = tmp_path / "h.hg3"
        path.write_text(text)
        code, out, err = verify_streamed(path)
        assert (code, err) == (0, "<timing>"), name
        assert json.loads(out)["ok"] is True


@pytest.fixture(scope="module")
def base211():
    h, _, _ = build_base(211)
    assert len(encode(h)) > hypergraph._CHUNK_CHARS
    return h


def test_verify_linear_witnesses_past_the_first_chunk(tmp_path, base211):
    h = base211
    plants = [tuple(tuple(h.n + v for v in e) for e in case) for case in CROSS_ROLE_REPEATS]
    # an edge early in the body whose pair repeats in a later chunk
    for k in (5, h.m // 3, h.m - 1):
        a, b, c = h.edges[k]
        plants.append(((b, c, h.n),))
        plants.append(((a, c, h.n), (b, c, h.n + 1)))
    for plant in plants:
        bad = Hypergraph3.from_edges(h.n + 6, h.edges + plant)
        path = tmp_path / "bad.hg3"
        path.write_text(encode(bad))
        code, out, _ = verify_streamed(path)
        assert code == 1, plant
        assert json.loads(out)["witness"] == oracles.linear_witness_by_loop(bad), plant
    # ids at each bound of the packed partner lists, linear and with a repeat
    for host in WIDTH_HOSTS:
        path.write_text(encode(host))
        code, out, _ = verify_streamed(path)
        assert code == (host.m == 13), host.n
        assert json.loads(out).get("witness") == oracles.linear_witness_by_loop(host), host.n


def _body_line(text, k):
    """The offset of edge line k of a text with a one-line header."""
    pos = text.index("\n") + 1
    for _ in range(k):
        pos = text.index("\n", pos) + 1
    return pos


def test_verify_linear_streams_irregular_files(tmp_path, base211):
    h = base211
    text = encode(h)
    k = 3 * h.m // 4
    at = _body_line(text, k)
    assert at > hypergraph._CHUNK_CHARS
    line_end = text.index("\n", at) + 1
    a, b, c = h.edges[k]
    nxt = h.edges[k + 1]
    cases = {
        "out of order": text[:at] + "{} {} {}\n".format(*nxt) + f"{a} {b} {c}\n"
        + text[text.index("\n", line_end) + 1:],
        "id >= n": text[:at] + f"{a} {b} {h.n}\n" + text[line_end:],
        "truncated": text[:at],
        "cut mid-line": text[:at + 3],
        "extra line": text + f"{h.n - 3} {h.n - 2} {h.n - 1}\n",
        "header overcounts": f"{h.n} {h.m + 1}\n" + text[text.index("\n") + 1:],
        "tab": text[:at] + f"{a}\t{b} {c}\n" + text[line_end:],
        "late comment": text[:at] + "# note\n" + text[at:],
        "no header": "# only a comment\n",
    }
    for name, bad in cases.items():
        path = tmp_path / "bad.hg3"
        path.write_text(bad)
        code, out, err = verify_streamed(path)
        if name == "tab":  # lenient: the line checker reads its chunk
            assert (code, err) == (0, "<timing>")
        else:
            assert code == 2 and out == "" and err.startswith("parse error: line "), name
    # CRLF line ends read as LF, as Path.read_text reads them
    path = tmp_path / "crlf.hg3"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert verify_streamed(path)[0] == 0
    # bytes that are not UTF-8, past the first chunk
    path.write_bytes(text[:at].encode() + b"\xff\xfe\n" + text[at:].encode())
    code, out, err = verify_streamed(path)
    assert (code, out, err) == (2, "", f"cannot read {path}: not UTF-8 text")


def test_verify_linear_on_unreadable_paths(tmp_path):
    (tmp_path / "adir").mkdir()
    for name in ("adir", "missing.hg3"):
        code, out, err = verify_streamed(tmp_path / name)
        assert (code, out) == (2, "") and err.startswith(f"cannot read {tmp_path / name}: ")


# What a mutation anywhere in a text may insert or substitute: the body's
# characters, a comment mark, a minus sign and an underscore.
TEXT_ALPHABET = BODY_ALPHABET + "#-_"
COMMENTS = ["# a note", "# modulus 7", "# vertex 0 V1 1_0 0", "#"]


def _outcome(parse, text):
    """The hypergraph parse reads from text, or the line and message of its
    FormatError."""
    try:
        return parse(text)
    except FormatError as exc:
        return exc.line, str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(0, 9),
    st.integers(0, 16),
    st.lists(st.sampled_from(COMMENTS), max_size=2),
    st.lists(st.tuples(st.sampled_from(["insert", "delete", "substitute"]),
                       st.integers(0, 10**4), st.sampled_from(TEXT_ALPHABET)),
             max_size=3),
    st.booleans(),
    st.lists(st.integers(0, 10**4), max_size=2),
    st.sampled_from([1, 7, 64]),
    st.sampled_from([None, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
    st.booleans(),
)
def test_verify_linear_stream_matches_decode(tmp_path_factory, seed, n_extra, m, comments,
                                             edits, drop_newline, bad_bytes, chunk, top, wider):
    # mutations of the comments, the header and the body, a dropped final
    # newline, planted bytes that are not UTF-8 and lone CRs, at chunk sizes
    # that cut the text into one or a few lines per chunk; with a top, the
    # three largest ids move up to end at it, and the header n is top + 1
    # or top + 2, across each bound of the walk's packed partner lists
    rng = random.Random(seed)
    n = 3 + n_extra
    m = min(m, n * (n - 1) * (n - 2) // 6)
    h = oracles.random_hypergraph(rng, n, m) if m else Hypergraph3(n, ())
    if top is not None:
        shift = top + 1 - n
        h = Hypergraph3(top + 1 + wider, tuple(tuple(v + shift * (v >= n - 3) for v in e)
                                               for e in h.edges))
    text = _mutate("".join(f"{c}\n" for c in comments) + encode(h), edits)
    if drop_newline:
        text = text[:-1]
    raw = text.encode()
    for at in bad_bytes:
        at %= len(raw) + 1
        raw = raw[:at] + b"\xff" + raw[at:]
    path = tmp_path_factory.mktemp("prop") / "h.hg3"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraph, "_CHUNK_CHARS", chunk)
        code, _, _ = verify_streamed(path)
        if not (edits or drop_newline or bad_bytes):
            assert code == (0 if oracles.is_linear_by_pairs(h.edges) else 1)
        if not bad_bytes:
            # decode reads the text as given and as the file stream reads it
            for text in (text, text.replace("\r\n", "\n").replace("\r", "\n")):
                assert _outcome(decode, text) == _outcome(oracles.decode_by_lines, text)


@functools.cache
def builder_text(kind, p):
    """encode of the builder of kind at p with its vertex map (random at
    rho = 1/2, seeded with p)."""
    if kind == "random":
        h, vmap, _ = build_random(p, 1, 2, p)
    else:
        h, vmap, _ = (build_base if kind == "base" else build_qr)(p)
    return encode(h, vmap)


def instance_outcome(text):
    """What file_instance must give for a file holding text: decode's
    FormatError as (line, message), or (decode(text), vmap), where vmap is
    decode_with_provenance's map or None when that raised a provenance
    fault.  Asserts the contract between decode and
    decode_with_provenance on the way: the same error, or the same
    hypergraph, or a fault on a comment line before the header."""
    try:
        h = decode(text)
    except FormatError as exc:
        fault = exc.line, str(exc)
        assert _outcome(decode_with_provenance, text) == fault
        return fault
    try:
        h_too, vmap = decode_with_provenance(text)
    except FormatError as exc:
        header = next(i for i, line in enumerate(text.split("\n"), 1) if line[:1] != "#")
        assert exc.line < header, str(exc)
        return h, None
    assert h_too == h
    return h, vmap


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([5, 7, 13]),
    st.sampled_from(["base", "qr", "random"]),
    st.lists(st.sampled_from(COMMENTS), max_size=2),
    st.integers(0, 10**4),
    st.lists(st.tuples(st.sampled_from(["insert", "delete", "substitute"]),
                       st.integers(0, 10**4), st.sampled_from(TEXT_ALPHABET)),
             max_size=3),
    st.sampled_from([1, 64, 1 << 15]),
)
def test_provenance_is_read_after_the_body(tmp_path_factory, p, kind, comments, at, edits,
                                           chunk):
    # extra comments among the builder's, then mutations anywhere: wherever
    # decode fails, decode_with_provenance and file_instance fail alike,
    # and otherwise all three read the same hypergraph
    lines = builder_text(kind, p).splitlines(keepends=True)
    at %= next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    text = _mutate("".join(lines[:at] + [f"{c}\n" for c in comments] + lines[at:]), edits)
    path = tmp_path_factory.mktemp("prov") / "h.hg3"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraph, "_CHUNK_CHARS", chunk)
        expected = instance_outcome(text)
        universal = text.replace("\r\n", "\n").replace("\r", "\n")
        if universal != text:  # the file is read with universal newlines
            expected = instance_outcome(universal)
        assert _outcome(hypergraph.file_instance, path) == expected


def test_provenance_faults_come_after_body_faults(tmp_path):
    h, vmap, _ = build_base(7)
    lines = encode(h, vmap).splitlines(keepends=True)
    assert lines[4].startswith("# vertex 3 ") and len(lines) == 30
    malformed = lines[:4] + [lines[4].rsplit(" ", 1)[0] + "\n"] + lines[5:]
    duplicate = lines[:4] + [lines[4].replace("3", "2", 1)] + lines[5:]
    path = tmp_path / "h.hg3"
    for edited, fault in ((malformed, "line 5: malformed vertex comment"),
                          (duplicate, "line 5: duplicate vertex comment for id 2")):
        text = "".join(edited)
        with pytest.raises(FormatError, match=f"^{fault}$"):
            decode_with_provenance(text)
        path.write_text(text)
        assert hypergraph.file_instance(path) == (h, None)
        # a trailing line the body refuses: its fault comes first
        text += "0 1\n"
        for parse in decode, decode_with_provenance:
            with pytest.raises(FormatError,
                               match="^line 31: unexpected content after the edge list$"):
                parse(text)
        path.write_text(text)
        with pytest.raises(FormatError, match="^line 31: unexpected content after the edge list$"):
            hypergraph.file_instance(path)


def test_refused_provenance_is_read_once(tmp_path, monkeypatch):
    # a repeated vertex id is refused only after the body is read; the
    # hypergraph read then is searched without a map, not read again
    h, vmap, _ = build_base(7)
    text = encode(h, vmap).replace("# vertex 3 ", "# vertex 2 ", 1)
    with pytest.raises(FormatError, match="duplicate vertex comment for id 2"):
        decode_with_provenance(text)
    path = tmp_path / "h.hg3"
    path.write_text(text)
    real, calls = hypergraph._read, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hypergraph, "_read", counted)
    for argv in (["verify", "--checks", "gridfree"], ["detect", "--find", "grid"]):
        calls.clear()
        code, out, err, instances = main([*argv, "--in", str(path)])
        assert (code, err, instances) == (0, "<timing>", 1)
        payload = json.loads(out)
        assert payload.get("ok") is True or payload.get("found") is False, argv
        assert len(calls) == 1, argv


def test_repeated_checks_read_the_file_once_each(tmp_path, monkeypatch):
    # verify runs each distinct check once, in the order first asked, and
    # still lists the checks as they were asked
    h, vmap, _ = build_base(7)
    path = tmp_path / "base7.hg3"
    path.write_text(encode(h, vmap))
    real, calls = hypergraph._read, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hypergraph, "_read", counted)
    checks = ["linear", "gridfree", "linear", "gridfree"]
    code, out, err, instances = main(["verify", "--checks", ",".join(checks), "--in", str(path)])
    assert (code, err, instances, len(calls)) == (0, "<timing>", 1, 2)
    manifest = {"command": "verify", "parameters": {"checks": checks}, "seed": None,
                "version": __version__, "inputs": [str(path)], "outputs": []}
    assert out == json.dumps({"manifest": manifest, "ok": True, "checks": checks},
                             separators=(",", ":")) + "\n"


@pytest.mark.parametrize("find,check", [("grid", "gridfree"), ("prism", "prismfree"),
                                        ("core", "corefree9")])
def test_detect_and_verify_report_one_search(find, check, tmp_path):
    # detect --find and verify's check of the same search give one witness
    rng = random.Random(26)
    hosts = [encode(h, vmap) for p in (7, 13, 23)
             for h, vmap, _ in (build_base(p), build_qr(p), build_random(p, 1, 2, p))]
    hosts += [encode(oracles.plant_grid(rng)), encode(oracles.plant_prism(rng))]
    found = 0
    for i, text in enumerate(hosts):
        path = tmp_path / f"h{i}.hg3"
        path.write_text(text)
        detected = main(["detect", "--find", find, "--max-vertices", "9", "--in", str(path)])
        verified = main(["verify", "--checks", check, "--in", str(path)])
        witness = json.loads(detected[1])["witness"]
        assert detected[0] == 0 and verified[0] == (0 if witness is None else 1)
        assert json.loads(verified[1]).get("witness") == witness
        found += witness is not None
    assert 0 < found < len(hosts)


# Traced peaks at p = 1009 (base m = 254,268), measured with Python 3.11:
# streamed with --out, then as the whole-hypergraph route took them.
# Counting the stream without --out peaks at 0.6, 0.5 and 0.5 MiB.  qr
# peaked at 3.7 MiB with --out and 3.6 MiB without while it regrouped a
# second table's rows in per-S buckets, before it read its rows off V1's.
CONSTRUCT_BUDGETS = [
    ("base", None, 4),      # 1.1 MiB; 32.1 MiB building and encoding
    ("qr", None, 2),        # 0.7 MiB; 35.6 MiB
    ("random", (1, 2), 4),  # 0.7 MiB; 24.1 MiB
]


@pytest.mark.parametrize("kind,rho,mib", CONSTRUCT_BUDGETS)
def test_construct_out_memory_at_p_1009(tmp_path, kind, rho, mib):
    argv = construct_argv(kind, 1009, rho, 3) + ["--out", str(tmp_path / "h.hg3")]
    (code, _, _, _), peak = traced_peak(main, argv)
    assert code == 0
    assert peak <= mib << 20, peak


@pytest.mark.parametrize("kind,rho,mib", CONSTRUCT_BUDGETS)
def test_construct_without_out_memory_at_p_1009(kind, rho, mib):
    # the report needs only the edge count: the stream is counted, not kept
    (code, out, _, _), peak = traced_peak(main, construct_argv(kind, 1009, rho, 3))
    assert code == 0 and json.loads(out)["report"]["m"] > 0
    assert peak <= mib << 20, peak


# Traced peaks of the file stream with packed waiting partners, then with a
# list slot per waiting partner: base 1.50 and 2.23 MiB, qr 1.41 and 2.52 MiB,
# random 1.20 and 1.77 MiB (Python 3.11).  Reading the file whole took
# 26.9 MiB for base.
def test_verify_linear_memory_at_p_1009(tmp_path, base1009):
    for kind, mib in ("base", 2), ("qr", 2), ("random", 1.5):
        path = tmp_path / f"{kind}1009.hg3"
        if kind == "base":
            path.write_text(encode(*base1009[:2]))
        elif kind == "qr":
            path.write_text(encode(*build_qr(1009)[:2]))
        else:
            path.write_text(encode(*build_random(1009, 1, 2, 3)[:2]))
        argv = ["verify", "--checks", "linear", "--in", str(path)]
        (code, _, _, instances), peak = traced_peak(main, argv)
        assert (code, instances) == (0, 0), kind
        assert peak <= mib * 2**20, (kind, peak)


def test_verify_linear_lenient_line_memory_at_p_1009(tmp_path, base1009):
    # one tab-separated line past the first chunk: the line checker reads
    # that chunk alone, and the file still streams
    h, vmap, _ = base1009
    text = encode(h, vmap)
    a, b, c = h.edges[3 * h.m // 4]
    at = text.index(f"\n{a} {b} {c}\n") + 1
    assert at > hypergraph._CHUNK_CHARS
    path = tmp_path / "tab1009.hg3"
    path.write_text(text[:at] + f"{a}\t{b} {c}" + text[text.index("\n", at):])
    argv = ["verify", "--checks", "linear", "--in", str(path)]
    (code, _, _, instances), peak = traced_peak(main, argv)
    assert (code, instances) == (0, 0)
    assert peak <= 8 << 20, peak  # 3.0 MiB; 39.9 MiB reading the file whole


def test_verify_linear_witness_memory_at_p_1009(tmp_path, base1009):
    # a pair repeated past the first chunk: two streamed passes, no edge
    # list, and the default checks stop at linear before any instance read
    h = base1009[0]
    a, b, c = h.edges[3 * h.m // 4]
    bad = Hypergraph3.from_edges(h.n + 1, h.edges + ((b, c, h.n),))
    path = tmp_path / "bad1009.hg3"
    path.write_text(encode(bad))
    for argv in (["verify", "--checks", "linear", "--in", str(path)],
                 ["verify", "--in", str(path)]):
        (code, out, _, instances), peak = traced_peak(main, argv)
        assert (code, instances) == (1, 0)
        assert json.loads(out)["witness"] == oracles.linear_witness_by_loop(bad)
        # 1.5 MiB with --checks linear, 1.3 MiB by default; 2.2 and 2.1 MiB
        # with a list slot per waiting partner, 7.8 and 22.7 MiB with edge
        # codes in every owner list and a decode ahead of the default checks,
        # 73.2 MiB reading the file whole for linear
        assert peak <= 2 << 20, peak


# Traced peaks on base p = 1009 (Python 3.11): verify --checks gridfree and
# detect --find grid read the file once, a piece at a time, at 19.2 and
# 18.7 MiB; holding its whole text for decode_with_provenance took 22.1 and
# 21.7 MiB.
def test_certificate_read_memory_at_p_1009(tmp_path, base1009):
    path = tmp_path / "base1009.hg3"
    path.write_text(encode(*base1009[:2]))
    for argv in (["verify", "--checks", "gridfree"], ["detect", "--find", "grid"]):
        (code, out, _, instances), peak = traced_peak(main, [*argv, "--in", str(path)])
        assert (code, instances) == (0, 1), argv
        assert peak <= 20.5 * 2**20, (argv, peak)

import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import oracles
from gridfree import hypergraph
from gridfree import (
    FormatError,
    Hypergraph3,
    VertexInfo,
    VertexMap,
    build_base,
    build_qr,
    build_random,
    decode,
    decode_with_provenance,
    degrees,
    density,
    encode,
    is_linear,
    linear_witness,
    min_degree,
)
from fractions import Fraction


@pytest.fixture(scope="module")
def base1009():
    """build_base(1009): m = 254,268 edges, about 3.6 MB of edge body."""
    return build_base(1009)


def test_constructor_validates_edges(base1009):
    with pytest.raises(ValueError):
        Hypergraph3(3, ((0, 2, 1),))  # not ascending within the edge
    with pytest.raises(ValueError):
        Hypergraph3(3, ((0, 1, 3),))  # vertex out of range
    with pytest.raises(ValueError):
        Hypergraph3(3, ((0, 0, 1),))  # repeated vertex
    with pytest.raises(ValueError):
        Hypergraph3(5, ((0, 3, 4), (0, 1, 2)))  # edge list out of order
    for n in (-1, True, 4.0):
        with pytest.raises(ValueError):
            Hypergraph3(n, ())
    for edge in ((0, 0.5, 1), (0, 1, 2.0), (True, 2, 3)):  # ids must be ints
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} ")):
            Hypergraph3(4, (edge,))
    assert Hypergraph3(0, ()).m == 0
    # mutations past the first 4,096 edges of base p = 1009
    h, _, _ = base1009
    edges, i = list(h.edges), 5000
    assert h.n == 2018 and edges[i:i + 2] == [(10, 15, 1347), (10, 16, 1153)]
    for bad, message in (
        (edges[:i] + edges[i + 1:i + 2] + edges[i:i + 1] + edges[i + 2:],
         "edge list not sorted or has duplicates at (10, 15, 1347)"),
        (edges[:i + 1] + edges[i:],
         "edge list not sorted or has duplicates at (10, 15, 1347)"),
        (edges[:i] + [(10, 15.0, 1347)] + edges[i + 1:],
         "edge (10, 15.0, 1347) has a vertex id that is not an int"),
        (edges[:i] + [(10, 15, 2018)] + edges[i + 1:],
         "edge (10, 15, 2018) out of range for n=2018"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Hypergraph3(h.n, bad)


def test_from_edges_canonicalizes_but_rejects_duplicates():
    h = Hypergraph3.from_edges(5, [(4, 3, 0), [2, 1, 0]])
    assert h.edges == ((0, 1, 2), (0, 3, 4))
    with pytest.raises(ValueError):
        Hypergraph3.from_edges(5, [(2, 1, 0), (0, 1, 2)])


def test_is_linear_matches_pair_oracle():
    for i in range(80):
        rng = random.Random(i)
        h = oracles.random_hypergraph(rng, rng.randint(5, 12), rng.randint(1, 14))
        assert is_linear(h) == oracles.is_linear_by_pairs(h.edges), i
        assert is_linear(h) == oracles.is_linear_by_pair_codes(h), i
    assert is_linear(Hypergraph3(0, ()))
    assert not is_linear(Hypergraph3.from_edges(4, [(0, 1, 2), (0, 1, 3)]))


# Two edges sharing a pair in every pair of roles it can take in them: as
# (first, second), (first, third) or (second, third) of each edge.
CROSS_ROLE_REPEATS = [
    ((0, 1, 2), (0, 1, 3)),
    ((0, 1, 5), (0, 3, 5)),
    ((0, 1, 3), (0, 3, 4)),
    ((0, 1, 5), (1, 2, 5)),
    ((0, 1, 2), (1, 2, 3)),
    ((0, 1, 4), (1, 4, 5)),
    ((0, 1, 3), (1, 2, 3)),
    ((0, 2, 3), (1, 2, 3)),
    ((0, 2, 5), (1, 2, 5)),
]
# Two edges meeting in one vertex, in each pair of roles.
ONE_VERTEX_MEETS = [
    ((0, 1, 2), (0, 3, 4)),
    ((0, 1, 2), (1, 3, 4)),
    ((0, 1, 5), (1, 2, 4)),
    ((0, 1, 3), (2, 3, 4)),
    ((0, 3, 4), (1, 2, 3)),
    ((0, 1, 4), (2, 3, 4)),
]


@pytest.mark.parametrize("pair_of_edges", CROSS_ROLE_REPEATS + ONE_VERTEX_MEETS)
def test_is_linear_across_roles(pair_of_edges):
    linear = pair_of_edges in ONE_VERTEX_MEETS
    # alone, after other edges on the same owners, and among unrelated edges
    for extra in ((), ((0, 6, 7), (1, 6, 8)), ((6, 7, 8), (6, 9, 10))):
        h = Hypergraph3.from_edges(11, pair_of_edges + extra)
        assert oracles.is_linear_by_pairs(h.edges) == linear
        assert oracles.is_linear_by_pair_codes(h) == linear
        assert is_linear(h) == linear
        assert (linear_witness(h) is None) == linear


def test_linear_witness_names_the_first_repeat():
    h = Hypergraph3.from_edges(9, [(0, 1, 5), (1, 2, 5), (2, 3, 4), (2, 3, 8)])
    # {1, 5} repeats at edge 1, before {2, 3} repeats at edge 3
    assert linear_witness(h) == ((1, 5), 0, 1)
    h = Hypergraph3.from_edges(9, [(0, 1, 2), (0, 3, 4), (0, 4, 8), (3, 4, 5)])
    # edge 2 repeats {0, 4} of edge 1; edge 3 repeats {3, 4} of edge 1
    assert linear_witness(h) == ((0, 4), 1, 2)
    assert linear_witness(Hypergraph3(3, ((0, 1, 2),))) is None


def _witness_json(h):
    found = linear_witness(h)
    return None if found is None else {"pair": list(found[0]), "edges": list(found[1:])}


@pytest.mark.parametrize("edges_per_chunk", [1, 2, 3, 7, 4096])
def test_linearity_checks_do_not_depend_on_chunk_sizes(monkeypatch, edges_per_chunk):
    # owners' runs and their waiting partner lists cross chunk boundaries
    monkeypatch.setattr(hypergraph, "_CHUNK_EDGES", edges_per_chunk)
    violations = 0
    for i in range(120):
        rng = random.Random(1000 + i)
        n = rng.randint(5, 14)
        h = oracles.random_hypergraph(rng, n, rng.randint(1, 3 * n))
        expected = oracles.linear_witness_by_loop(h)
        violations += expected is not None
        assert is_linear(h) == (expected is None), i
        assert _witness_json(h) == expected, i
    assert 40 <= violations <= 110
    for case in CROSS_ROLE_REPEATS:
        h = Hypergraph3.from_edges(11, case + ((6, 7, 8), (6, 9, 10)))
        assert _witness_json(h) == oracles.linear_witness_by_loop(h)


def _planted_repeats(h, owners):
    """h with one edge (x, y, v) added for each owner x, v a new vertex and
    {x, y} the pair x owns last in h, so that each owner repeats a pair."""
    partner = {}
    for a, b, c in h.edges:
        partner[a], partner[b] = b, c
    added = [(x, partner[x], h.n + k) for k, x in enumerate(owners)]
    return Hypergraph3.from_edges(h.n + len(added), h.edges + tuple(added))


def test_linear_witness_memory_with_a_repeat_past_the_first_chunk(base1009):
    h, _, _ = base1009
    a, b, c = h.edges[3 * h.m // 4]
    one = Hypergraph3.from_edges(h.n + 1, h.edges + ((a, c, h.n),))
    for bad in one, _planted_repeats(h, range(505, 1009)):
        found, peak = _traced_peak(linear_witness, bad)
        assert {"pair": list(found[0]), "edges": list(found[1:])} == \
            oracles.linear_witness_by_loop(bad)
        assert found[1] > hypergraph._CHUNK_EDGES
        # 1.4 MiB traced with the partner sets of the repeating owners; 6.4 MiB
        # on both hosts with edge codes in every owner list, 55.6 MiB with a
        # dict of pair tuples
        assert peak <= 4 << 20, peak


def test_density_and_degrees():
    h = Hypergraph3.from_edges(5, [(0, 1, 2), (0, 3, 4)])
    assert density(h) == Fraction(2, 25)
    assert degrees(h) == [2, 1, 1, 1, 1]
    assert min_degree(h) == 1
    lonely = Hypergraph3.from_edges(4, [(0, 1, 2)])
    assert degrees(lonely) == [1, 1, 1, 0]
    assert min_degree(lonely) == 0
    with pytest.raises(ValueError):
        density(Hypergraph3(0, ()))
    with pytest.raises(ValueError):
        min_degree(Hypergraph3(0, ()))


def test_plain_encode_decode():
    h = Hypergraph3.from_edges(5, [(0, 1, 2), (0, 3, 4)])
    text = encode(h)
    assert text == "5 2\n0 1 2\n0 3 4\n"
    assert decode(text) == h
    assert decode_with_provenance(text) == (h, None)


def test_encode_with_provenance_round_trips():
    for p in (5, 7, 11):
        for h, vmap, _ in (build_base(p), build_qr(p), build_random(p, 1, 2, 9)):
            text = encode(h, vmap)
            assert text.startswith(f"# modulus {p}\n")
            assert text.endswith("\n")
            h2, vmap2 = decode_with_provenance(text)
            assert h2 == h and vmap2 == vmap
            assert decode(text) == h
            assert encode(h2, vmap2) == text


ENCODE_PRIMES = [p for p in range(5, 212, 2) if all(p % q for q in range(3, p, 2))]


def test_p_1009_round_trip_crosses_chunks(base1009):
    h, vmap, _ = base1009
    assert h.m == 254_268
    text = encode(h)
    assert len(text) > 40 * hypergraph._CHUNK_CHARS
    assert h.m > 40 * hypergraph._CHUNK_EDGES
    assert text == oracles.encode_by_lines(h)
    assert decode(text) == h
    text = encode(h, vmap)
    assert text == oracles.encode_by_lines(h, vmap)
    assert decode_with_provenance(text) == (h, vmap)


@pytest.mark.parametrize("chars,edges", [(1, 1), (5, 2), (16, 3), (40, 7)])
def test_round_trips_do_not_depend_on_chunk_sizes(monkeypatch, chars, edges):
    monkeypatch.setattr(hypergraph, "_CHUNK_CHARS", chars)
    monkeypatch.setattr(hypergraph, "_CHUNK_EDGES", edges)
    cases = [build_base(7), build_qr(11), build_random(13, 1, 2, 5)]
    cases.append((Hypergraph3(4, ((0, 1, 2),)), None, None))
    cases.append((Hypergraph3(4, ()), None, None))
    for h, vmap, _ in cases:
        text = encode(h, vmap)
        assert text == oracles.encode_by_lines(h, vmap)
        assert decode_with_provenance(text) == (h, vmap)
    with pytest.raises(FormatError) as exc:
        decode("6 3\n0 1 2\n0 3 4\n0 1 5\n")
    assert exc.value.line == 4 and "out of lexicographic order" in str(exc.value)


def _plant(text: str, k: int, line: str) -> str:
    """text with its edge line k (0-based, after a one-line header) replaced."""
    lines = text.split("\n")
    lines[k + 1] = line
    return "\n".join(lines)


def test_planted_lines_past_the_first_chunk():
    h, _, _ = build_base(211)
    text = encode(h)
    k = 3 * h.m // 4
    a, b, c = h.edges[k]
    assert text.index(f"\n{a} {b} {c}\n") > hypergraph._CHUNK_CHARS
    # lenient lines, read by the line checker (leading zeros by the chunk parser)
    for line in (f"{a}\t{b} {c}", f"+{a} {b} {c}", f"{a}  {b} {c}", f"{a} {b} {c} ",
                 f"{a} {b} {c}\r", f"0{a} {b} 00{c}"):
        assert decode(_plant(text, k, line)) == h, repr(line)
    # lines the line checker rejects, in encode's form or not; line k + 2 of the
    # file is edge k
    nxt = " ".join(map(str, h.edges[k + 1]))
    for planted, line, fragment in (
        (_plant(text, k, f"{a} {b} {h.n}"), k + 2, "vertex id out of range"),
        (_plant(text, k, f"{a}\t{b} {h.n}"), k + 2, "vertex id out of range"),
        (_plant(text, k, f"+{a} {b} {h.n}"), k + 2, "vertex id out of range"),
        (_plant(text, k, f"{a} {b} {c}x"), k + 2, "is not an integer"),
        (_plant(text, k, f"{a} {b}"), k + 2, "three vertex ids, got 2"),
        (_plant(text, k, nxt), k + 3, "duplicate edge"),
        (_plant(_plant(text, k, nxt), k + 1, f"{a} {b} {c}"), k + 3,
         "out of lexicographic order"),
    ):
        with pytest.raises(FormatError) as exc:
            decode(planted)
        assert exc.value.line == line and fragment in str(exc.value)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of tracemalloc's traced memory during it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_codec_and_linearity_memory_at_p_1009(base1009):
    h, vmap, _ = base1009
    text, peak = _traced_peak(encode, h, vmap)
    assert peak <= 12 << 20, peak
    decoded, peak = _traced_peak(decode, text)  # the result counts too
    assert decoded == h
    assert peak <= 32 << 20, peak
    del decoded
    linear, peak = _traced_peak(is_linear, h)
    assert linear
    assert peak <= 16 << 20, peak


def test_line_loop_memory_at_p_1009(base1009):
    # CRLF line ends are outside encode's form, so the line checker reads
    # them, one chunk of lines at a time, without splitting the whole text
    h, _, _ = base1009
    text = encode(h).replace("\n", "\r\n")
    decoded, peak = _traced_peak(decode, text)  # the result counts too
    assert decoded == h
    assert peak <= 44 << 20, peak  # 36.5 MiB; 53.3 MiB splitting the text


@pytest.mark.parametrize("p", ENCODE_PRIMES)
def test_encode_matches_line_oracle(p):
    builds = [build_base(p), build_qr(p)]
    builds += [build_random(p, num, den, p) for num, den in ((0, 1), (2, 7), (1, 2), (1, 1))]
    for h, vmap, _ in builds:
        assert encode(h, vmap) == oracles.encode_by_lines(h, vmap)
        assert encode(h) == oracles.encode_by_lines(h)


def test_encode_edge_cases_match_line_oracle():
    h5, vmap5, _ = build_base(5)
    # the two top ids lie on no edge
    top_isolated = Hypergraph3(h5.n, [e for e in h5.edges if e[2] < h5.n - 2])
    assert top_isolated.m > 0
    cases = [
        (Hypergraph3(0, ()), None),
        (Hypergraph3(7, ()), None),
        (Hypergraph3(h5.n, ()), vmap5),
        (top_isolated, None),
        (top_isolated, vmap5),
        (Hypergraph3(12, ((0, 1, 11),)), None),
    ]
    for h, vmap in cases:
        assert encode(h, vmap) == oracles.encode_by_lines(h, vmap)
        assert decode_with_provenance(encode(h, vmap)) == (h, vmap)


def test_encode_memory_ignores_vertices_above_the_edges():
    h = Hypergraph3(10**7, ((0, 1, 2),))
    tracemalloc.start()
    try:
        text = encode(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "10000000 1\n0 1 2\n"
    assert peak < 1 << 20, peak


def test_encode_memory_follows_the_covered_ids():
    h = Hypergraph3(10**6, ((0, 1, 10**6 - 1),))
    tracemalloc.start()
    try:
        text = encode(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "1000000 1\n0 1 999999\n"
    assert peak < 1 << 20, peak


def test_encode_sparse_ids_match_line_oracle():
    rng = random.Random(8)
    sparse = 0
    for n in (9, 40, 1000, 10**5):
        for m in (1, 2, 5):
            ids = rng.sample(range(n), 9)
            edges = {tuple(sorted(rng.sample(ids, 3))) for _ in range(m)}
            h = Hypergraph3.from_edges(n, edges)
            sparse += max(e[2] for e in h.edges) >= 3 * h.m
            assert encode(h) == oracles.encode_by_lines(h, None)
            assert decode(encode(h)) == h
    assert 0 < sparse < 12


@given(st.data())
def test_random_graph_round_trips(data):
    n = data.draw(st.integers(0, 12))
    max_m = min(20, n * (n - 1) * (n - 2) // 6) if n >= 3 else 0
    m = data.draw(st.integers(0, max_m))
    h = oracles.random_hypergraph(random.Random(data.draw(st.integers(0, 10**6))), n, m) \
        if m else Hypergraph3(n, ())
    assert decode(encode(h)) == h


# What a body mutation may insert or substitute: the characters of
# encode's form, other whitespace, a sign, a letter and a non-ASCII digit.
BODY_ALPHABET = "0123456789 \n\t\r+x\u0663"


def _mutate(body: str, edits) -> str:
    for kind, at, ch in edits:
        if kind == "insert":
            at %= len(body) + 1
            body = body[:at] + ch + body[at:]
        elif body:
            at %= len(body)
            body = body[:at] + (ch if kind == "substitute" else "") + body[at + 1:]
    return body


@given(
    # mostly one-digit ids, so one deletion can empty a run
    st.lists(st.tuples(*[st.integers(0, 12)] * 3), max_size=4),
    st.lists(st.tuples(st.sampled_from(["insert", "delete", "substitute"]),
                       st.integers(0, 10**4), st.sampled_from(BODY_ALPHABET)),
             max_size=4),
)
def test_digit_deletion_accepts_exactly_the_regex_bodies(triples, edits):
    body = _mutate("".join(f"{a} {b} {c}\n" for a, b, c in triples), edits)
    if body and not body.endswith("\n"):
        return  # decode's trailing-newline check refuses such texts first
    by_regex = oracles.canonical_body_by_regex(body)
    assert hypergraph._encode_form(body, body.count("\n")) == by_regex
    m = len(triples)
    assert hypergraph._encode_form(body, m) == (by_regex and body.count("\n") == m)


@pytest.mark.parametrize("body,accepted", [
    ("", True),
    ("0 1 2\n", True),
    ("00 01 2\n10 11 12\n", True),
    # an empty first, second or third run, on the first line or a later one
    (" 1 2\n", False),
    ("0  2\n", False),
    ("0 1 \n", False),
    ("0 1 2\n 4 5\n", False),
    ("0 1 2\n3  5\n", False),
    ("0 1 2\n3 4 \n", False),
    # extra spaces
    (" 0 1 2\n", False),
    ("0 1 2 \n", False),
    ("0  1 2\n", False),
    ("0 1 2\n 3 4\n", False),
    ("0 1 2\n3 4 5 6\n", False),
    ("0 1 2\n\n", False),
    ("\n", False),
    ("0 1 2\r\n", False),
    ("0\t1 2\n", False),
    ("+0 1 2\n", False),
    ("0 1 2x\n", False),
    ("0 1 \u0663\n", False),
])
def test_digit_deletion_edge_cases(body, accepted):
    assert oracles.canonical_body_by_regex(body) == accepted
    assert hypergraph._encode_form(body, body.count("\n")) == accepted


PARSE_ERRORS = [
    ("3 1\n0 1 2", 2, "missing trailing newline"),
    ("3\n", 1, "malformed header"),
    ("-1 0\n", 1, "header counts must be non-negative"),
    ("3 x\n", 1, "edge count 'x' is not an integer"),
    ("3 1\n0 0 2\n", 2, "repeated vertex"),
    ("3 1\n2 1 0\n", 2, "not in ascending order"),
    ("3 1\n0 1 3\n", 2, "vertex id out of range"),
    ("4 2\n0 1 2\n0 1 2\n", 3, "duplicate edge"),
    ("5 2\n0 3 4\n0 1 2\n", 3, "out of lexicographic order"),
    ("3 1\n0 1 2 9\n", 2, "three vertex ids"),
    ("3 2\n0 1 2\n", 3, "expected 2 edges"),
    ("3 1\n0 1 2\n# late\n", 3, "unexpected content"),
    ("3 1\n0 1 2\n0 1 2\n", 3, "unexpected content"),
    ("", 1, "missing trailing newline"),
    # tokens that would line up as triples only across line breaks
    ("6 2\n0 1\n2 3 4 5\n", 2, "three vertex ids, got 2"),
    ("6 2\n0 1 2 3\n4 5\n", 2, "three vertex ids, got 4"),
    # bodies in encode's form with the wrong edge count or a bad edge
    ("6 3\n0 1 2\n3 4 5\n", 4, "expected 3 edges, found 2"),
    ("6 1\n0 1 2\n3 4 5\n", 3, "unexpected content"),
    ("6 2\n0 1 2\n3 4 6\n", 3, "vertex id out of range"),
    ("6 3\n0 1 2\n0 3 4\n0 1 5\n", 4, "out of lexicographic order"),
    ("6 2\n0 1 2\n3 3 5\n", 3, "repeated vertex"),
    # the same faults outside encode's form
    ("6 2\r\n0 1 2\r\n0 1 2\r\n", 3, "duplicate edge"),
    ("6 2\n0\t1\n2 3 4 5\n", 2, "three vertex ids, got 2"),
    ("6 2\n0 1 2\n3 4 +6\n", 3, "vertex id out of range"),
    ("6 2\n0 1 2\n3 4 5x\n", 3, "vertex id '5x' is not an integer"),
    # integers are an optional sign and ASCII digits only, not what int() reads
    ("11 1\n0 1 1_0\n", 2, "vertex id '1_0' is not an integer"),
    ("11 1\n0 1 \u0661\u0660\n", 2, "vertex id '\u0661\u0660' is not an integer"),
    ("1_1 1\n0 1 2\n", 1, "vertex count '1_1' is not an integer"),
    ("11 \u0661\n0 1 2\n", 1, "edge count '\u0661' is not an integer"),
    ("11 1\n0 1 \u00b2\n", 2, "vertex id '\u00b2' is not an integer"),
    # a provenance comment, which only decode_with_provenance reads
    ("# modulus 11\n# vertex 1_0 V1 0 0\n11 1\n0 1 2\n", 2,
     "vertex id '1_0' is not an integer"),
]


@pytest.mark.parametrize("text,line,fragment", PARSE_ERRORS)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    parsers = [decode_with_provenance]
    if text.startswith("#"):
        assert decode(text) == oracles.decode_by_lines(text)  # comments are skipped
    else:
        parsers += [decode, oracles.decode_by_lines]
    for parse in parsers:
        with pytest.raises(FormatError) as exc:
            parse(text)
        assert exc.value.line == line
        assert fragment in str(exc.value)


CANONICAL_TEXT = "5 2\n0 1 2\n0 3 4\n"
LENIENT_TEXTS = [
    "5 2\n0\t1\t2\n0 3\t4\n",  # tab separators
    "5 2\r\n0 1 2\r\n0 3 4\r\n",  # CRLF line ends
    "5 2\n+0 1 2\n0 +3 4\n",  # explicit signs
    "5 2\n000 1 002\n0 003 4\n",  # leading zeros
    "5 2\n0  1  2\n 0 3 4 \n",  # doubled, leading and trailing spaces
]


@pytest.mark.parametrize("text", LENIENT_TEXTS)
def test_lenient_edge_lines_decode_like_canonical_text(text):
    h = decode(text)
    assert h == decode(CANONICAL_TEXT)
    assert encode(h) == CANONICAL_TEXT
    assert oracles.decode_by_lines(text) == h


def test_comments_allowed_only_before_header():
    assert decode("# free comment\n3 1\n0 1 2\n").m == 1
    with pytest.raises(FormatError):
        decode("3 1\n# too late\n0 1 2\n")


def test_provenance_reconstruction_errors():
    with pytest.raises(FormatError) as exc:
        decode_with_provenance("# vertex 0 V1 0 0\n3 1\n0 1 2\n")
    assert "without a modulus" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        decode_with_provenance("# modulus 7\n# vertex 0 V1 0 0\n3 1\n0 1 2\n")
    assert "cover 1 of 3" in str(exc.value)
    # plain decode ignores the same comments
    assert decode("# modulus 7\n# vertex 0 V1 0 0\n3 1\n0 1 2\n").m == 1
    head = "# modulus 7\n# vertex 0 V1 0 0\n"
    tail = "# vertex 2 V2 3 3\n3 1\n0 1 2\n"
    # coordinates must already be reduced: 9 -3 is not read as 2 4
    with pytest.raises(FormatError) as exc:
        decode_with_provenance(head + "# vertex 1 V1 9 -3\n" + tail)
    assert exc.value.line == 3 and "not reduced mod 7" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        decode_with_provenance(head + "# vertex 1 V2 0 0\n" + tail)
    assert exc.value.line == 3 and "already belongs to another vertex" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        decode_with_provenance("# built by hand\n# modulus 9\n# vertex 0 V1 0 0\n1 0\n")
    assert exc.value.line == 2 and "not an odd prime" in str(exc.value)


def test_vertex_info_validation():
    info = VertexInfo("V1", 2, 4)
    with pytest.raises(ValueError):
        VertexInfo("V9", 2, 4)
    with pytest.raises(ValueError):
        VertexMap(7, (info, info))
    with pytest.raises(ValueError):
        VertexMap(7, (VertexInfo("V1", 9, 4),))
    with pytest.raises(ValueError):
        VertexMap(7, (VertexInfo("V1", 2, -3),))
    vm = VertexMap(7, (info, VertexInfo("V2", 2, 5)))
    assert len(vm) == 2
    assert vm[0] is info
    assert vm.modulus == 7

import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import oracles
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
    min_degree,
)
from fractions import Fraction


def test_constructor_validates_edges():
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
    assert is_linear(Hypergraph3(0, ()))
    assert not is_linear(Hypergraph3.from_edges(4, [(0, 1, 2), (0, 1, 3)]))


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
]


@pytest.mark.parametrize("text,line,fragment", PARSE_ERRORS)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(FormatError) as exc:
        decode(text)
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

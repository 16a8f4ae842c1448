import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import traced_peak
from gridfree import (
    CoreWitness,
    GridWitness,
    Hypergraph3,
    VertexInfo,
    VertexMap,
    build_base,
    build_qr,
    build_random,
    decode_with_provenance,
    degrees,
    encode,
    find_grid,
    find_prism,
    find_small_two_core,
    is_linear,
    two_core,
)
from gridfree._certificate import certified
from gridfree.detect import GRID_EDGES, PRISM_EDGES

GRID = Hypergraph3.from_edges(9, GRID_EDGES)
PRISM = Hypergraph3.from_edges(9, PRISM_EDGES)
PASCH = Hypergraph3.from_edges(6, oracles.PASCH_EDGES)

BASE7_PRISM = (0, 1, 6, 8, 11, 13)

BASE7_CORE12 = (
    (0, 1, 10), (0, 2, 8), (0, 6, 9), (1, 2, 11), (1, 3, 9), (1, 6, 7),
    (2, 3, 7), (2, 4, 10), (3, 4, 8), (3, 5, 11), (4, 5, 7), (5, 6, 8),
)


def test_grid_fixture_witness():
    g = GRID
    w = find_grid(g)
    assert w is not None
    assert (w.rows, w.cols) == ((0, 4, 5), (1, 2, 3))
    assert w.vertices == tuple(range(9))
    w.validate(g)
    assert sorted(g.edges[i] for i in w.rows) == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    assert sorted(g.edges[i] for i in w.cols) == [(0, 3, 6), (1, 4, 7), (2, 5, 8)]


def test_prism_fixture_witness():
    pr = PRISM
    w = find_prism(pr)
    assert w is not None
    assert w.edges == (0, 1, 2, 3, 4, 5)
    assert w.degrees == (2,) * 9
    w.validate(pr, 9)


def test_fixtures_do_not_cross_match():
    assert find_prism(GRID) is None
    assert find_grid(PRISM) is None
    assert find_grid(PASCH) is None
    empty = Hypergraph3(0, ())
    assert find_grid(empty) is None
    assert find_prism(empty) is None
    assert find_small_two_core(empty, 9) is None


def test_pasch_is_the_smallest_linear_core():
    pa = PASCH
    w = find_small_two_core(pa, 6)
    assert w is not None
    assert w.edges == (0, 1, 2, 3)
    assert w.vertices == tuple(range(6))
    assert w.degrees == (2,) * 6
    w.validate(pa, 6)


def _differential_instances():
    for i in range(40):
        rng = random.Random(7000 + i)
        yield oracles.random_linear_hypergraph(rng, rng.randint(9, 24), rng.randint(6, 40))
        yield oracles.random_hypergraph(rng, rng.randint(9, 14), rng.randint(6, 28))
        yield oracles.plant_grid(rng, n_extra=rng.randint(0, 12), m_extra=rng.randint(0, 20))
        yield oracles.plant_prism(rng, n_extra=rng.randint(0, 12), m_extra=rng.randint(0, 20))
    for build in (build_base, build_qr):
        yield build(17)[0]


def test_grid_and_prism_agree_with_slow_oracles():
    kinds = {"grid": 0, "prism": 0}
    for i, h in enumerate(_differential_instances()):
        got = find_grid(h)
        assert (None if got is None else (got.rows, got.cols)) == \
            oracles.grid_row_triple_scan(h), i
        if got is not None:
            got.validate(h)
            kinds["grid"] += 1
        pr = find_prism(h)
        assert (None if pr is None else pr.edges) == oracles.prism_by_embedding(h), i
        if pr is not None:
            pr.validate(h, 9)
            kinds["prism"] += 1
    assert min(kinds.values()) >= 40, kinds


def test_constructions_are_grid_free_at_p_29_and_31():
    for p in (29, 31):
        for build in (build_base, build_qr):
            assert find_grid(build(p)[0]) is None, (build.__name__, p)


def test_planted_grids_are_found():
    for i in range(50):
        rng = random.Random(3000 + i)
        h = oracles.plant_grid(rng, n_extra=rng.randint(3, 12), m_extra=rng.randint(0, 12))
        w = find_grid(h)
        assert w is not None, i
        w.validate(h)


def test_planted_prisms_are_found():
    for i in range(50):
        rng = random.Random(2000 + i)
        h = oracles.plant_prism(rng, n_extra=rng.randint(3, 12), m_extra=rng.randint(0, 10))
        w = find_prism(h)
        assert w is not None, i
        w.validate(h, 9)


# Labels for the six vertices off the least edge of PRISM_EDGES and
# GRID_EDGES: in order, reversed, and with two swapped, so that each
# crossing closes through either matching.  Vertex 3 is left for a stray.
OUTER_LABELS = [(4, 5, 6, 7, 8, 9), (9, 8, 7, 6, 5, 4), (7, 5, 6, 4, 8, 9)]


def _with_strays(planted):
    """The host of the planted edges, then, for each vertex pair of each
    planted edge, the non-linear host with one stray edge through that pair
    and vertex 3; each with the planted edges' indices."""
    for stray in [()] + [((u, v, 3),) for e in planted for u, v in combinations(e, 2)]:
        h = Hypergraph3.from_edges(10, [*planted, *stray])
        assert is_linear(h) == (not stray)
        yield h, [h.edges.index(e) for e in planted]


@pytest.mark.parametrize("outer", OUTER_LABELS)
@pytest.mark.parametrize("rung", range(3))
def test_prism_closes_on_each_triangle_pair_of_the_least_edge(rung, outer):
    # PRISM_EDGES' least edge (0, 1, 2) meets the other triangle at vertex 0,
    # and its triangle pair is {1, 2}; the labels put that vertex at
    # position rung of the least edge, and the triangle on the other two
    labels = [rung, *(v for v in range(3) if v != rung), *outer]
    planted = [tuple(sorted(labels[v] for v in e)) for e in PRISM_EDGES]
    assert planted[0] == (0, 1, 2) and rung in planted[1]
    for h, idx in _with_strays(planted):
        assert find_prism(h).edges == tuple(sorted(idx)), h.edges
        assert find_grid(h) is None, h.edges


@pytest.mark.parametrize("outer", OUTER_LABELS)
@pytest.mark.parametrize("anchored", ["row", "col"])
def test_grid_closes_with_either_side_as_rows(anchored, outer):
    # the labels make GRID_EDGES' row (0, 1, 2), or its col (0, 3, 6), the
    # least edge (0, 1, 2)
    o = outer
    labels = {"row": (0, 1, 2, *o), "col": (0, o[0], o[1], 1, o[2], o[3], 2, o[4], o[5])}
    rows, cols = [[tuple(sorted(labels[anchored][v] for v in GRID_EDGES[i])) for i in side]
                  for side in ((0, 4, 5), (1, 2, 3))]
    assert (0, 1, 2) in {"row": rows, "col": cols}[anchored]
    for h, idx in _with_strays(rows + cols):
        sides = tuple(sorted(idx[:3])), tuple(sorted(idx[3:]))
        w = find_grid(h)
        assert (w.rows, w.cols) == (sides if anchored == "row" else sides[::-1]), h.edges
        w.validate(h)
        assert find_prism(h) is None, h.edges


def test_two_core_examples():
    g = GRID
    assert two_core(g) == g
    single = Hypergraph3.from_edges(3, [(0, 1, 2)])
    assert two_core(single).m == 0
    pendant = Hypergraph3.from_edges(11, list(g.edges) + [(0, 9, 10)])
    assert two_core(pendant) == g


def test_two_core_of_full_base7():
    h7, _, _ = build_base(7)
    core = two_core(h7)
    assert (core.n, core.m) == (12, 12)
    assert core.edges == BASE7_CORE12
    assert min(degrees(core)) >= 2
    assert two_core(core) == core


def test_two_core_matches_random_order_peeling():
    for i in range(30):
        rng = random.Random(4000 + i)
        h = oracles.random_hypergraph(rng, 14, rng.randint(4, 22))
        core = two_core(h)
        assert two_core(core) == core
        for s in range(3):
            assert oracles.peel_random_order(h, random.Random(s)) == core, (i, s)


def test_base7_contains_a_prism_shaped_core():
    # the two-parabola instance at p=7 is grid-free but not prism-free:
    # six of its edges form a min-degree-2 configuration on nine vertices
    h7, _, _ = build_base(7)
    assert find_grid(h7) is None
    w = find_prism(h7)
    assert w is not None
    assert w.edges == BASE7_PRISM
    w.validate(h7, 9)
    ws = find_small_two_core(h7, 9)
    assert ws is not None
    assert ws.edges == BASE7_PRISM
    ws.validate(h7, 9)


def test_small_builds_have_no_small_core():
    for build in (build_base, build_qr):
        h, _, _ = build(5)
        assert find_small_two_core(h, 9) is None
    h, _, _ = build_random(7, 1, 2, 1)
    assert find_small_two_core(h, 9) is None


def test_small_core_needs_at_least_four_edges_when_linear():
    for i in range(40):
        rng = random.Random(5000 + i)
        h = oracles.random_linear_hypergraph(rng, rng.randint(6, 12), 3)
        assert h.m <= 3
        assert find_small_two_core(h, 10) is None


def test_nine_vertex_witnesses_have_six_or_more_edges():
    seen_nine = 0
    for i in range(40):
        rng = random.Random(6000 + i)
        h = oracles.plant_prism(rng, n_extra=rng.randint(0, 8), m_extra=rng.randint(0, 8))
        w = find_small_two_core(h, 9)
        assert w is not None
        if len(w.vertices) == 9:
            seen_nine += 1
            assert len(w.edges) >= 6
    assert seen_nine > 0


def test_max_vertices_validation():
    h = PASCH
    for bad in (3, 11, 0):
        with pytest.raises(ValueError):
            find_small_two_core(h, bad)


def test_witness_validate_rejects_tampering():
    g = GRID
    w = find_grid(g)
    bad = GridWitness(rows=w.rows, cols=(1, 2, 4), vertices=w.vertices)
    with pytest.raises(ValueError):
        bad.validate(g)
    # six pairwise disjoint edges: rows and cols that never meet
    apart = Hypergraph3(18, tuple((i, i + 1, i + 2) for i in range(0, 18, 3)))
    for host, tampered, message in (
        (g, GridWitness(rows=(0, 1, 2), cols=(3, 4, 5), vertices=w.vertices),
         "rows and cols must each be pairwise disjoint"),
        (apart, GridWitness(rows=(0, 1, 2), cols=(3, 4, 5), vertices=tuple(range(9))),
         "every row must meet every col exactly once"),
        (g, GridWitness(rows=w.rows, cols=w.cols, vertices=tuple(range(1, 10))),
         "vertex list does not match the covered set"),
    ):
        with pytest.raises(ValueError, match=message):
            tampered.validate(host)
    pr = PRISM
    c = find_prism(pr)
    with pytest.raises(ValueError):
        CoreWitness(edges=c.edges[:-1] + (0,), vertices=c.vertices,
                    degrees=c.degrees).validate(pr, 9)
    with pytest.raises(ValueError):
        c.validate(pr, max_vertices=8)
    for tampered, message in (
        (CoreWitness(edges=c.edges, vertices=c.vertices[1:], degrees=c.degrees[1:]),
         "vertex list does not match the covered set"),
        (CoreWitness(edges=c.edges, vertices=c.vertices, degrees=(3,) + c.degrees[1:]),
         "recorded degrees are wrong"),
        (CoreWitness(edges=(0,), vertices=(0, 1, 2), degrees=(1, 1, 1)),
         "a covered vertex has degree < 2"),
    ):
        with pytest.raises(ValueError, match=message):
            tampered.validate(pr, 9)


def test_witness_json_shapes():
    g = GRID
    w = find_grid(g)
    assert w.to_json_dict() == {
        "rows": [0, 4, 5],
        "cols": [1, 2, 3],
        "vertices": list(range(9)),
    }
    c = find_prism(PRISM)
    assert c.to_json_dict() == {
        "edges": [0, 1, 2, 3, 4, 5],
        "vertices": list(range(9)),
        "degrees": [2] * 9,
    }


def _padded(h: Hypergraph3, rng: random.Random) -> tuple[Hypergraph3, list[int]]:
    """h with isolated vertices inserted below, between and above its own,
    and the increasing map from h's ids to the padded ones."""
    ids, v = [], rng.randint(0, 5)
    for _ in range(h.n):
        ids.append(v)
        v += 1 + rng.choice((0, 0, 1, 7, 1000))
    n = v + rng.choice((0, 3, 10**5))
    return Hypergraph3(n, [tuple(ids[u] for u in e) for e in h.edges]), ids


def test_padding_with_isolated_vertices_keeps_every_witness():
    h7, _, _ = build_base(7)
    q7, _, _ = build_qr(7)
    hosts = [GRID, PRISM, PASCH, h7, q7, Hypergraph3(4, ())]
    for i in range(12):
        rng = random.Random(9000 + i)
        plant = oracles.plant_grid if i % 2 else oracles.plant_prism
        hosts.append(plant(rng, n_extra=rng.randint(0, 8), m_extra=rng.randint(0, 8)))
        hosts.append(oracles.random_hypergraph(rng, 11, rng.randint(3, 12)))
    for i, h in enumerate(hosts):
        padded, ids = _padded(h, random.Random(i))
        grid = find_grid(h)
        found = find_grid(padded)
        if grid is None:
            assert found is None, i
        else:
            assert (found.rows, found.cols) == (grid.rows, grid.cols), i
            assert found.vertices == tuple(ids[v] for v in grid.vertices), i
        for find in (find_prism, lambda g: find_small_two_core(g, 9)):
            core = find(h)
            found = find(padded)
            if core is None:
                assert found is None, i
            else:
                assert (found.edges, found.degrees) == (core.edges, core.degrees), i
                assert found.vertices == tuple(ids[v] for v in core.vertices), i
        assert two_core(padded) == two_core(h), i


def test_small_two_core_agrees_with_subset_oracle():
    found = missed = 0
    for i in range(36):
        rng = random.Random(11000 + i)
        if i % 3 == 0:
            h = oracles.random_hypergraph(rng, rng.randint(6, 10), rng.randint(3, 12))
        elif i % 3 == 1:
            h = oracles.random_linear_hypergraph(rng, rng.randint(7, 12), rng.randint(3, 12))
        else:
            h = oracles.plant_prism(rng, n_extra=rng.randint(0, 4), m_extra=rng.randint(0, 6))
        assert h.m <= 12, i
        padded, _ = _padded(h, rng)
        for budget in range(4, 11):
            got = find_small_two_core(padded, budget)
            assert (None if got is None else got.edges) == \
                oracles.small_two_core_by_subsets(h, budget), (i, budget)
            if got is None:
                missed += 1
            else:
                got.validate(padded, budget)
                found += 1
    assert min(found, missed) >= 50, (found, missed)


@pytest.mark.parametrize("text", ["1000000 1\n0 1 999999\n", "300000 0\n"])
def test_default_verify_memory_ignores_the_header_vertex_count(tmp_path, capsys, text):
    from gridfree import cli

    path = tmp_path / "sparse.hg3"
    path.write_text(text)
    code, peak = traced_peak(cli.main, ["verify", "--in", str(path)])
    assert code == 0
    assert '"ok":true' in capsys.readouterr().out
    assert peak < 4 << 20, peak


def _same_grid(h, vmap):
    """find_grid of h with vmap, checked equal to the search without it."""
    got = find_grid(h, vmap)
    assert got == find_grid(h)
    return got


def test_certificate_agrees_with_the_search_on_builders():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        builds = [build_base(p), build_qr(p)] + [build_random(p, 1, 2, s) for s in (1, 2, 3)]
        for h, vmap, _ in builds:
            assert certified(h, vmap) == (h.m > 0), p
            assert _same_grid(h, vmap) is None, p


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_certificate_agrees_with_the_search_on_full_hosts(p):
    prisms = 0
    for k in range(1, p):
        h, vmap = oracles.ck_host(p, k)
        assert certified(h, vmap) and not is_linear(h), k
        assert _same_grid(h, vmap) is None, k
        prisms += find_prism(h) is not None
    # the search has (9,6) configurations to find: half the hosts at p = 7
    # and 11 hold a prism, and all of them at p = 13 and 17
    assert 2 * prisms >= p - 1, prisms


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certificate_agrees_with_the_search_on_sub_hosts(data):
    p = data.draw(st.sampled_from((5, 7, 11, 13)), "p")
    host, vmap = oracles.ck_host(p, data.draw(st.integers(1, p - 1), "k"))
    kept = data.draw(st.lists(st.booleans(), min_size=host.m, max_size=host.m), "kept")
    extra = data.draw(st.lists(st.lists(st.integers(0, 2 * p - 1), min_size=3, max_size=3,
                                        unique=True), max_size=3), "extra")
    edges = {e for e, keep in zip(host.edges, kept) if keep}
    off = {tuple(sorted(e)) for e in extra}.difference(host.edges)
    h = Hypergraph3.from_edges(2 * p, edges | off)
    if not off:
        assert certified(h, vmap) == (h.m > 0)
    _same_grid(h, vmap)


def _labelled(labels, p=13):
    """The vertex map over F_p giving vertex v the (origin, x) labels[v]
    and the y coordinate v."""
    return VertexMap(p, [VertexInfo(origin, x, v) for v, (origin, x) in enumerate(labels)])


# A grid whose w-vertices 0, 1, 2 have x = 0, 1, 3, and whose other six
# vertices close the walk of C_1's involutions over F_13: its rows are
# {0, 3, 4}, {1, 5, 6}, {2, 7, 8} and its columns {2, 4, 5}, {0, 6, 7},
# {1, 3, 8}, and every edge satisfies (w - a)(w - b) = 1.  By the trace
# identity the six x values cannot be distinct: they are 5, 8 and 11, each
# twice.  Each edge lists its w-vertex first, so only the labels and the
# origins tell this grid from a certified host.
WALK_EDGES = ((0, 3, 4), (0, 6, 7), (1, 3, 8), (1, 5, 6), (2, 4, 5), (2, 7, 8))
WALK_X = (0, 1, 3, 5, 8, 11, 5, 8, 11)


def test_grids_on_the_host_identity_are_refused():
    walk = Hypergraph3(9, WALK_EDGES)
    for w, a, b in walk.edges:
        assert (WALK_X[w] - WALK_X[a]) * (WALK_X[w] - WALK_X[b]) % 13 == 1
    repeated = [("V2" if v < 3 else "V1", x) for v, x in enumerate(WALK_X)]
    # the repeats moved to a second origin, so the labels are injective
    split = [("S-of-V1", x) if v > 5 else (origin, x) for v, (origin, x) in enumerate(repeated)]
    two_w = split[:3] + [("V2", 12)] + split[4:]
    for labels in (repeated, split, two_w):
        vmap = _labelled(labels)
        assert not certified(walk, vmap), labels
        found = _same_grid(walk, vmap)
        assert found is not None, labels
        found.validate(walk)


def test_mutations_force_the_search():
    p = 13
    h, vmap, _ = build_base(p)
    x = [info.x for info in vmap.entries]
    (a, b, w), rest = h.edges[0], h.edges[1:]
    w2 = next(v for v in range(p, 2 * p)
              if (x[v] - x[a]) * (x[v] - x[b]) % p != p - 1 and (a, b, v) not in h.edges)
    entries = list(vmap.entries)
    first = entries[0]
    split = entries.copy()
    split[a] = VertexInfo("S-of-V1", first.x, first.y)
    mutants = {
        "off the identity": (Hypergraph3.from_edges(h.n, rest + ((a, b, w2),)), vmap),
        "repeated label": (Hypergraph3(h.n + 1, h.edges), VertexMap(
            p, entries + [VertexInfo(first.origin, first.x, (first.y + 2) % p)])),
        "two w-vertices": (Hypergraph3.from_edges(h.n, rest + ((a, w2, w),)), vmap),
        "split origins": (h, VertexMap(p, split)),
        # every edge {a, a + 1, w} with w's x equal to a's: the product is 0
        "k = 0": (Hypergraph3(h.n, [(v, v + 1, p + v) for v in range(p - 1)]), vmap),
        # the identity over Z/15, which is not a field, holds a grid
        "composite modulus": oracles.ck_host(15, 2),
        "no map": (h, None),
    }
    grids = set()
    for name, (g, gmap) in mutants.items():
        assert not certified(g, gmap), name
        if _same_grid(g, gmap) is not None:
            grids.add(name)
    # the moved edge closes a grid, which only the search can report
    assert grids == {"off the identity", "composite modulus"}
    assert certified(h, vmap)


def test_planted_grids_with_provenance_get_the_search_witness():
    # Off the identity: a grid planted in C_1 over F_13 on w's 0, 1, 3 and
    # six other vertices with distinct x, whose edges all have the host's
    # shape; and a grid planted beside base p = 13 on nine new vertices.
    host, host_map = oracles.ck_host(13, 1)
    cells = (13, 1, 2, 3, 14, 4, 5, 6, 16)  # GRID's cell v is host vertex cells[v]
    planted = {tuple(sorted(cells[v] for v in e)) for e in GRID_EDGES}
    assert planted.difference(host.edges)
    h, vmap, _ = build_base(13)
    beside = [VertexInfo("S-of-V1", x, (x * x + 2) % 13) for x in range(9)]
    cases = [
        (Hypergraph3.from_edges(host.n, planted.union(host.edges)), host_map),
        (Hypergraph3(h.n + 9, h.edges + tuple(tuple(h.n + v for v in e) for e in GRID_EDGES)),
         VertexMap(13, vmap.entries + tuple(beside))),
    ]
    for g, gmap in cases:
        assert not certified(g, gmap)
        assert decode_with_provenance(encode(g, gmap)) == (g, gmap)
        found = _same_grid(g, gmap)
        assert found is not None
        found.validate(g)

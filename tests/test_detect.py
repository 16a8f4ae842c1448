import random
import tracemalloc

import pytest

import oracles
from gridfree import (
    CoreWitness,
    GridWitness,
    Hypergraph3,
    build_base,
    build_qr,
    build_random,
    find_grid,
    find_prism,
    find_small_two_core,
    min_degree,
    two_core,
)
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


def test_grid_agrees_with_subset_oracle():
    for i in range(30):
        rng = random.Random(1000 + i)
        if i % 2 == 0:
            h = oracles.random_hypergraph(rng, rng.randint(9, 16), rng.randint(6, 25))
        else:
            h = oracles.plant_grid(rng, n_extra=rng.randint(3, 10), m_extra=rng.randint(0, 13))
        got = find_grid(h)
        want = oracles.grid_all_six_subsets(h)
        assert (None if got is None else (got.rows, got.cols)) == want, i
        if got is not None:
            got.validate(h)


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
    assert min_degree(core) >= 2
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
    pr = PRISM
    c = find_prism(pr)
    with pytest.raises(ValueError):
        CoreWitness(edges=c.edges[:-1] + (0,), vertices=c.vertices,
                    degrees=c.degrees).validate(pr, 9)
    with pytest.raises(ValueError):
        c.validate(pr, max_vertices=8)


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
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--in", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert '"ok":true' in capsys.readouterr().out
    assert peak < 4 << 20, peak

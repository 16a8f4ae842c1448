from fractions import Fraction

import pytest

import oracles

from gridfree import (
    ConstructionReport,
    InvalidPrimeError,
    Prime,
    VertexInfo,
    build_base,
    build_qr,
    build_random,
    count_two_point_secants,
    density,
    density_ratio,
    is_linear,
    legendre,
)
from gridfree.construct import GENERATOR, SELECTION_RULE, select_subset

BASE5_EDGES = ((0, 2, 6), (0, 3, 9), (1, 3, 7), (1, 4, 5), (2, 4, 8))
BASE7_EDGES = (
    (0, 1, 10), (0, 2, 8), (0, 5, 13), (0, 6, 9), (1, 2, 11), (1, 3, 9),
    (1, 6, 7), (2, 3, 7), (2, 4, 10), (3, 4, 8), (3, 5, 11), (4, 5, 7),
    (4, 6, 12), (5, 6, 8),
)


def predicted_edges(p: int) -> int:
    chi = legendre(Prime(p)(-1))
    return p * (p - chi) // 4


def test_base_small_instances_exactly():
    h5, _, r5 = build_base(5)
    assert (h5.n, h5.m) == (10, 5)
    assert h5.edges == BASE5_EDGES
    assert (r5.chi_minus_1, r5.predicted_m, r5.two_point_secants) == (1, 5, 0)
    assert r5.density == Fraction(1, 20)

    h7, _, r7 = build_base(7)
    assert (h7.n, h7.m) == (14, 14)
    assert h7.edges == BASE7_EDGES
    assert (r7.chi_minus_1, r7.predicted_m, r7.two_point_secants) == (-1, 14, 7)
    assert r7.density == Fraction(1, 14)


def test_base_edge_count_and_linearity_sweep():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        h, _, rep = build_base(p)
        assert h.n == 2 * p
        assert h.m == predicted_edges(p) == rep.predicted_m
        assert is_linear(h)
        assert density(h) == rep.density == Fraction(h.m, h.n * h.n)


def test_base_vertex_map_layout():
    p = 11
    _, vmap, _ = build_base(p)
    assert len(vmap) == 2 * p
    for i in range(p):
        assert vmap[i] == VertexInfo("V1", i, i * i % p)
        assert vmap[p + i] == VertexInfo("V2", i, (i * i + 1) % p)
    assert vmap.modulus == p


def test_two_point_secant_counts():
    assert count_two_point_secants(5) == 0
    assert count_two_point_secants(7) == 7
    assert count_two_point_secants(13) == 26
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        chi = legendre(Prime(p)(-1))
        want = p * (p - chi - 4) // 4
        got = count_two_point_secants(p)
        assert got == want
        assert build_base(p)[2].two_point_secants == got


ORACLE_PRIMES = [p for p in range(5, 212, 2) if all(p % q for q in range(3, p, 2))]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_builders_match_pair_by_pair_oracles(p):
    edges, two_point = oracles.base_edges_by_pairs(p)
    h, _, rep = build_base(p)
    assert (h.n, list(h.edges), rep.two_point_secants) == (2 * p, edges, two_point)
    assert count_two_point_secants(p) == two_point

    edges, two_point = oracles.qr_edges_by_pairs(p)
    h, _, rep = build_qr(p)
    assert (h.n, list(h.edges), rep.two_point_secants) == ((p + 1) // 2 + p, edges, two_point)

    for num, den in ((0, 1), (2, 7), (1, 2), (1, 1)):
        for seed in (1, 2, 3):
            pool = select_subset(p, num, den, seed)
            edges, two_point = oracles.random_edges_by_pairs(p, pool)
            h, _, rep = build_random(p, num, den, seed)
            assert (h.n, list(h.edges), rep.two_point_secants) == \
                (p + len(pool), edges, two_point), (num, den, seed)


def test_each_base_edge_is_a_secant_incidence():
    # edge (a, b, w): the secant of V1 through a, b meets V2 at the point
    # with the smaller x among its hits, recorded as vertex p + x
    p = 13
    P = Prime(p)
    h, vmap, _ = build_base(p)
    from gridfree import ParabolaSpec, line_parabola_intersections, secant_line

    v1 = ParabolaSpec(P(0))
    v2 = ParabolaSpec(P(1))
    for a, b, w in h.edges:
        hits = line_parabola_intersections(secant_line(P(a), P(b), v1), v2)
        assert hits, (a, b)
        assert w == p + min(q.x.residue for q in hits)


def test_random_rho_one_reproduces_base():
    for p in (7, 11):
        hb, _, _ = build_base(p)
        hr, _, rep = build_random(p, 1, 1, 42)
        assert hr == hb
        assert rep.selection_size == p
        assert rep.kind == "random"


def test_random_rho_zero_is_empty():
    h, vmap, rep = build_random(7, 0, 1, 42)
    assert (h.n, h.m) == (7, 0)
    assert rep.selection_size == 0
    assert len(vmap) == 7


def test_random_is_deterministic_and_seed_sensitive():
    a1 = build_random(11, 1, 2, 1)
    a2 = build_random(11, 1, 2, 1)
    b = build_random(11, 1, 2, 2)
    assert a1[0] == a2[0] and a1[2] == a2[2]
    assert a1[0] != b[0]


def test_random_edges_match_geometric_recount():
    # rebuild the whole edge set from the published pool with geometry
    # objects: an edge exists iff the secant has a kept V2 hit, and the
    # edge's third vertex is the kept hit with the smallest x
    from gridfree import ParabolaSpec, line_parabola_intersections, secant_line

    for p, seed in ((11, 1), (13, 3)):
        P = Prime(p)
        v1 = ParabolaSpec(P(0))
        v2 = ParabolaSpec(P(1))
        hr, vmap, rep = build_random(p, 1, 2, seed)
        assert is_linear(hr)
        pool = select_subset(p, 1, 2, seed)
        assert rep.selection_size == len(pool)
        assert [vmap[p + i].x for i in range(len(pool))] == pool
        assert all(vmap[p + i].origin == "S-of-V2" for i in range(len(pool)))
        pool_rank = {x: p + i for i, x in enumerate(pool)}
        want = []
        for a in range(p):
            for b in range(a + 1, p):
                hits = line_parabola_intersections(secant_line(P(a), P(b), v1), v2)
                kept = sorted(q.x.residue for q in hits if q.x.residue in pool_rank)
                if kept:
                    want.append((a, b, pool_rank[kept[0]]))
        assert sorted(want) == list(hr.edges)


def test_select_subset_threshold_semantics():
    assert select_subset(7, 1, 2, 1) == [3, 4]
    assert select_subset(7, 1, 1, 9) == list(range(7))
    assert select_subset(7, 0, 1, 9) == []
    # same seed, growing rho: kept sets are nested
    for seed in (0, 5, 77):
        prev: set[int] = set()
        for num in range(0, 11):
            cur = set(select_subset(11, num, 10, seed))
            assert prev <= cur
            prev = cur


def test_seed_and_rho_validation():
    for bad_seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            build_random(7, 1, 2, bad_seed)
    with pytest.raises(ValueError):
        build_random(7, 3, 2, 1)
    with pytest.raises(ValueError):
        build_random(7, -1, 2, 1)
    with pytest.raises(ValueError):
        build_random(7, 1, 0, 1)


def test_builders_reject_bad_primes():
    for fn in (build_base, build_qr):
        with pytest.raises(InvalidPrimeError):
            fn(9)
        with pytest.raises(InvalidPrimeError):
            fn(3)
    with pytest.raises(InvalidPrimeError):
        build_random(15, 1, 2, 0)


def test_qr_small_instance_exactly():
    h, vmap, rep = build_qr(5)
    assert (h.n, h.m) == (8, 3)
    assert h.edges == ((0, 5, 6), (1, 6, 7), (2, 4, 5))
    assert [vmap[i].origin for i in range(3)] == ["S-of-V1"] * 3
    assert [vmap[i].x for i in range(3)] == [0, 1, 4]
    assert [vmap[i].origin for i in range(3, 8)] == ["V2"] * 5
    assert rep.kind == "qr"
    assert rep.selection_size == 3


def test_qr_linearity_and_density_trend():
    third = Fraction(1, 12)
    for p in (13, 17, 29, 53, 101):
        h, _, rep = build_qr(p)
        assert is_linear(h)
        assert abs(rep.density - third) <= Fraction(3, p)


def test_qr_two_point_count_is_independently_recountable():
    from gridfree import sqrt_mod

    for p in (7, 11, 13):
        P = Prime(p)
        h, vmap, rep = build_qr(p)
        squares = {x * x % p for x in range(p)}
        both = 0
        seen = set()
        for a in range(p):
            for b in range(a + 1, p):
                m = (a + b) % p
                c = (1 - a * b) % p
                if (m, c) in seen:
                    continue
                seen.add((m, c))
                disc = ((a - b) ** 2 + 4) % p
                if legendre(P(disc)) != 1:
                    continue
                r = min(e.residue for e in sqrt_mod(P(disc)))
                inv2 = pow(2, -1, p)
                x1 = (m - r) * inv2 % p
                x2 = (m + r) * inv2 % p
                if x1 in squares and x2 in squares:
                    both += 1
        assert rep.two_point_secants == both


def test_density_ratio_exact_values():
    assert density_ratio(Fraction(1, 2)) == Fraction(1, 12)
    assert density_ratio(1) == Fraction(1, 16)
    assert density_ratio(0) == 0
    assert density_ratio(Fraction(1, 3)) == Fraction(5, 64)
    with pytest.raises(ValueError):
        density_ratio(Fraction(3, 2))
    with pytest.raises(ValueError):
        density_ratio(-1)


def test_density_ratio_peaks_at_one_half():
    # density_ratio(rho) - 1/12 = -(2 rho - 1)^2 / (12 (1 + rho)^2) <= 0
    for k in range(1001):
        rho = Fraction(k, 1000)
        gap = -(2 * rho - 1) ** 2 / (12 * (1 + rho) ** 2)
        assert density_ratio(rho) - Fraction(1, 12) == gap


def test_report_invariants():
    _, _, rep = build_base(5)
    d = rep.to_json_dict()
    assert list(d.keys()) == [
        "p", "kind", "n", "m", "density_num", "density_den", "chi_minus_1",
        "predicted_m", "two_point_secants", "selection_size", "seed",
    ]
    assert (d["density_num"], d["density_den"]) == (1, 20)
    qr = build_qr(7)[2]
    assert (qr.density, qr.chi_minus_1, qr.predicted_m) == (Fraction(6, 121), -1, None)

    with pytest.raises(ValueError):
        ConstructionReport(p=5, kind="nope", n=1, m=0, two_point_secants=0,
                           selection_size=None, seed=None)
    with pytest.raises(ArithmeticError):
        ConstructionReport(p=5, kind="base", n=10, m=6, two_point_secants=0,
                           selection_size=None, seed=None)


def test_generator_constants_documented():
    assert GENERATOR == "splitmix64"
    assert SELECTION_RULE == "smaller-x"

"""Acceptance gate: one test per contracted property, run with pytest -v.

Each test is exact unless a tolerance is stated in its docstring.  Seeds are
fixed so every run checks the same instances.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import oracles
from gridfree import (
    Hypergraph3,
    build_base,
    build_qr,
    build_random,
    closed_form_N,
    count_two_point_secants,
    decode,
    decode_with_provenance,
    delta_check,
    delta_sum_check,
    density,
    density_ratio,
    encode,
    expected_coverage,
    find_grid,
    find_small_two_core,
    gauss_sum_check,
    is_linear,
    legendre,
    lemma_bound,
    best_subset,
    pascal_collinear,
    reciprocity_check,
    secant_census,
    two_core,
)
from gridfree.detect import GRID_EDGES
from gridfree.ffield import is_prime
from gridfree.rng import sample_distinct, splitmix64_stream


def primes(lo: int, hi: int):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def chi_minus_one(p: int) -> int:
    return legendre(-1, p)


def test_c01_base_edge_count_identity():
    """|E| = p(p - chi(-1))/4 exactly and linear, for every prime in [5, 101]."""
    for p in primes(5, 101):
        h, _, rep = build_base(p)
        want = p * (p - chi_minus_one(p)) // 4
        assert h.m == want == rep.predicted_m, p
        assert is_linear(h), p


def test_c02_two_point_secant_identity():
    """Enumerated two-point secants = p(p - chi(-1) - 4)/4, zero at p=5."""
    assert count_two_point_secants(5) == 0
    for p in primes(5, 101):
        want = p * (p - chi_minus_one(p) - 4) // 4
        assert count_two_point_secants(p) == want, p


def test_c03_grid_freeness():
    """No grid in any construction at p in {5,7,11,13}; planted grids found."""
    for p in (5, 7, 11, 13):
        assert find_grid(build_base(p)[0]) is None, ("base", p)
        for seed in (1, 2, 3):
            assert find_grid(build_random(p, 1, 2, seed)[0]) is None, ("random", p, seed)
        assert find_grid(build_qr(p)[0]) is None, ("qr", p)
    grid = Hypergraph3.from_edges(9, GRID_EDGES)
    w = find_grid(grid)
    assert w is not None
    w.validate(grid)
    for i in range(50):
        rng = random.Random(3000 + i)
        h = oracles.plant_grid(rng, n_extra=rng.randint(3, 12), m_extra=rng.randint(0, 12))
        found = find_grid(h)
        assert found is not None, i
        found.validate(h)


def test_c04_pascal_property():
    """1000 seeded hexagons per p in {13,17,19,23} are all collinear."""
    for p in (13, 17, 19, 23):
        stream = splitmix64_stream(7)
        for _ in range(1000):
            xs = sample_distinct(p, 6, next(stream))
            assert pascal_collinear(xs, p), (p, xs)


def test_c05_lemma_expectation_and_bound():
    """Exhaustive average equals the closed expectation for N in [2,12],
    20 seeded families each; exact-half instances attain the ceiling."""
    for n in range(2, 13):
        k = n // 2
        for j in range(20):
            fam = oracles.random_pair_family(random.Random(900 + 31 * n + j), n)
            formula = len(fam) * (1 - Fraction(comb(n - 2, k), comb(n, k)))
            assert expected_coverage(n, k, fam) == formula
            assert oracles.average_coverage_direct(n, k, fam) == formula, (n, j)
    for n in (4, 5, 8, 9, 12):
        pool = list(combinations(range(n), 2))
        for j in range(5):
            rng = random.Random(700 + 13 * n + j)
            fam = tuple(sorted(rng.sample(pool, len(pool) // 2)))
            _, best = best_subset(n, n // 2, fam)
            assert best >= lemma_bound(n), (n, j)


def test_c06_delta_bound():
    """delta_N <= 4/(9 N^2) for every N in [2, 1000], exact rationals."""
    for n in range(2, 1001):
        delta, ok = delta_check(n)
        assert ok and delta <= Fraction(4, 9 * n * n), n


def test_c07_density_constants():
    """Base density (p-chi(-1))/(16p) exactly; ratio peak 1/12 at rho=1/2,
    1/16 at rho=1; qr density within 3/p of 1/12 for primes in [53, 499]
    (offline sweep maximum of p * |density - 1/12| was 21299/95052 ~= 0.224
    at p = 59, so the frozen constant 3 has wide margin)."""
    for p in primes(5, 101):
        h, _, _ = build_base(p)
        assert density(h) == Fraction(p - chi_minus_one(p), 16 * p), p
    assert density_ratio(Fraction(1, 2)) == Fraction(1, 12)
    assert density_ratio(1) == Fraction(1, 16)
    third = Fraction(1, 12)
    for p in primes(53, 499):
        h, _, rep = build_qr(p)
        assert abs(rep.density - third) <= Fraction(3, p), p


def test_c08_monte_carlo_expectation():
    """Mean edge count at p=101, rho=1/2 over 200 seeds within 5% of 3p^2/16."""
    p = 101
    total = 0
    for seed in range(200):
        total += build_random(p, 1, 2, seed)[0].m
    mean = Fraction(total, 200)
    target = Fraction(3 * p * p, 16)
    assert abs(mean - target) <= target * Fraction(5, 100), float(mean)


def test_c09_appendix_identities():
    """Gauss sum -1 (p <= 499), delta sum -(p-1) (p <= 199), reciprocity
    consistent (p <= 499), all by direct enumeration."""
    for p in primes(3, 499):
        assert gauss_sum_check(p) == -1, p
        assert reciprocity_check(p).consistent, p
    for p in primes(3, 199):
        assert delta_sum_check(p) == -(p - 1), p


def test_c10_census_audit():
    """Census equals the closed form at p in {7, 11}; internal consistency
    up to 101; the p=5 disagreement (1 enumerated vs 3 predicted) is pinned."""
    assert secant_census(7).n_total == closed_form_N(7) == 4
    assert secant_census(11).n_total == closed_form_N(11) == 9
    for p in primes(5, 101):
        c = secant_census(p)  # raises if the character classification slips
        assert c.n_total == c.n_two + c.n_tangent, p
        assert c.matches == (c.n_total == c.closed_form), p
    pinned = secant_census(5)
    assert (pinned.n_total, pinned.closed_form, pinned.matches) == (1, 3, False)


def test_c11_detector_soundness_and_completeness():
    """find_grid agrees with the all-6-subsets oracle on 100 seeded
    hypergraphs (m <= 25) and each grid it finds validates; peeling is
    order-independent and idempotent on 100 seeded instances; Pasch found
    at max_vertices=6; every 9-vertex core witness has at least 6 edges."""
    for i in range(100):
        rng = random.Random(1000 + i)
        if i % 2 == 0:
            h = oracles.random_hypergraph(rng, rng.randint(9, 16), rng.randint(6, 25))
        else:
            h = oracles.plant_grid(rng, n_extra=rng.randint(3, 10), m_extra=rng.randint(0, 13))
        assert h.m <= 25
        got = find_grid(h)
        want = oracles.grid_all_six_subsets(h)
        assert (None if got is None else (got.rows, got.cols)) == want, i
        if got is not None:
            got.validate(h)

    for i in range(100):
        rng = random.Random(4000 + i)
        h = oracles.random_hypergraph(rng, 14, rng.randint(4, 22))
        core = two_core(h)
        assert two_core(core) == core, i
        for s in range(2):
            assert oracles.peel_random_order(h, random.Random(s)) == core, (i, s)

    w = find_small_two_core(Hypergraph3.from_edges(6, oracles.PASCH_EDGES), 6)
    assert w is not None and w.degrees == (2,) * 6

    nine = 0
    for i in range(40):
        rng = random.Random(6000 + i)
        h = oracles.plant_prism(rng, n_extra=rng.randint(0, 8), m_extra=rng.randint(0, 8))
        w = find_small_two_core(h, 9)
        assert w is not None, i
        if len(w.vertices) == 9:
            nine += 1
            assert len(w.edges) >= 6, i
    assert nine > 0


def test_c12_determinism_and_format():
    """Identical invocations give byte-identical output; every constructed
    instance survives an encode/decode round trip unchanged."""
    import subprocess
    import sys

    from childenv import child_env

    for args in (("construct", "base", "--p", "13"),
                 ("construct", "random", "--p", "11", "--rho", "1/2", "--seed", "3"),
                 ("census", "--p", "5..13")):
        runs = [
            subprocess.run([sys.executable, "-m", "gridfree", *args],
                           env=child_env(), capture_output=True, text=True)
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    for p in (5, 7, 11, 13):
        instances = [build_base(p), build_qr(p)]
        instances += [build_random(p, 1, 2, seed) for seed in (1, 2, 3)]
        for h, vmap, _ in instances:
            text = encode(h, vmap)
            h2, vmap2 = decode_with_provenance(text)
            assert (h2, vmap2) == (h, vmap)
            assert encode(h2, vmap2) == text
            assert decode(encode(h)) == h

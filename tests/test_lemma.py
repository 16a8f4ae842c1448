import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import oracles
from gridfree import (
    LemmaInstance,
    analyze,
    best_subset,
    coverage,
    delta_check,
    expected_coverage,
    half_family_expectation,
    lemma_bound,
)
from gridfree import cli
from gridfree.lemma import EXHAUSTIVE_LIMIT


def exact_half_family(rng: random.Random, n: int):
    pool = list(combinations(range(n), 2))
    assert len(pool) % 2 == 0
    return tuple(sorted(rng.sample(pool, len(pool) // 2)))


def test_expectation_matches_direct_average():
    for n in range(2, 10):
        for k in (0, 1, n // 2, n):
            rng = random.Random(100 * n + k)
            for _ in range(5):
                fam = oracles.random_pair_family(rng, n)
                assert expected_coverage(n, k, fam) == \
                    oracles.average_coverage_direct(n, k, fam)


def test_expectation_known_value():
    fam = ((0, 1), (2, 3), (0, 2))
    assert expected_coverage(4, 2, fam) == Fraction(5, 2)
    assert expected_coverage(4, 0, fam) == 0
    assert expected_coverage(4, 4, fam) == 3


def test_lemma_bound_values():
    # ceil((2kN - k^2 - k)/4), k = floor(N/2), recomputed with Fractions
    want = {2: 1, 3: 1, 4: 3, 5: 4, 6: 6, 7: 8, 8: 11, 9: 13, 10: 18, 11: 20, 12: 26, 13: 29}
    for n, w in want.items():
        assert lemma_bound(n) == w
        k = n // 2
        v = Fraction(2 * k * n - k * k - k, 4)
        assert half_family_expectation(n) == v
        assert lemma_bound(n) == -(-v.numerator // v.denominator)
    with pytest.raises(ValueError):
        lemma_bound(1)


def test_delta_values_and_bound():
    assert delta_check(4) == (Fraction(1, 72), True)
    assert delta_check(7) == (Fraction(1, 200), True)
    assert delta_check(3)[0] == 0
    for n in range(2, 300):
        delta, ok = delta_check(n)
        assert ok
        assert 0 <= delta <= Fraction(4, 9 * n * n)


def test_exact_half_instances_attain_the_bound():
    for n in (4, 5, 8, 9, 12, 13):
        for seed in range(5):
            fam = exact_half_family(random.Random(10 * n + seed), n)
            assert 2 * len(fam) == comb(n, 2)
            assert expected_coverage(n, n // 2, fam) == half_family_expectation(n)
            subset, cov = best_subset(n, n // 2, fam)
            assert cov >= lemma_bound(n)
            assert coverage(subset, fam) == cov


def test_best_subset_is_exhaustive_and_lex_least():
    fam = ((0, 1), (2, 3))
    subset, cov = best_subset(4, 1, fam)
    assert (subset, cov) == ((0,), 1)
    assert best_subset(4, 2, ()) == ((0, 1), 0)
    subset, cov = best_subset(4, 2, ((0, 1), (2, 3), (0, 2)))
    assert (subset, cov) == ((0, 2), 3)
    # every n <= 12 and every k, on families from empty to complete
    for n in range(2, 13):
        pool = list(combinations(range(n), 2))
        rng = random.Random(n)
        sizes = sorted({0, 1, len(pool) // 2, len(pool) - 1, len(pool),
                        rng.randint(0, len(pool))})
        fams = [tuple(sorted(rng.sample(pool, size))) for size in sizes]
        for k in range(n + 1):
            for fam in fams:
                assert best_subset(n, k, fam) == oracles.best_subset_by_coverage(n, k, fam)


def test_best_subset_matches_oracle_on_cli_families():
    checked = 0
    for n in range(2, EXHAUSTIVE_LIMIT + 1):
        for seed in range(5):
            fam = cli._lemma_family(n, seed)
            if fam is None:
                continue
            subset, cov = best_subset(n, n // 2, fam)
            assert (subset, cov) == oracles.best_subset_by_coverage(n, n // 2, fam)
            assert coverage(subset, fam) == cov >= lemma_bound(n)
            checked += 1
    assert checked == 35  # n = 4, 5, 8, 9, 12, 13, 16 at five seeds


def test_best_subset_refuses_large_n():
    with pytest.raises(ValueError, match="too large for exhaustive search"):
        best_subset(EXHAUSTIVE_LIMIT + 1, 8, ())


def test_instance_validation():
    with pytest.raises(ValueError):
        LemmaInstance(1, 0, ())
    with pytest.raises(ValueError):
        LemmaInstance(4, 5, ())
    with pytest.raises(ValueError):
        LemmaInstance(4, 2, ((0, 4),))
    with pytest.raises(ValueError):
        LemmaInstance(4, 2, ((1, 1),))
    with pytest.raises(ValueError):
        LemmaInstance(4, 2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        LemmaInstance(4, 2, ((0, 1, 2),))
    inst = LemmaInstance(4, 2, ((3, 1), (0, 2)))
    assert inst.H == ((0, 2), (1, 3))


def test_coverage_counts_hits():
    fam = ((0, 1), (2, 3), (1, 2))
    assert coverage((), fam) == 0
    assert coverage((0,), fam) == 1
    assert coverage((1, 3), fam) == 3
    assert coverage(range(4), fam) == 3


def test_analyze_bundles_the_pieces():
    fam = ((0, 1), (2, 3), (0, 2))
    res = analyze(4, H=fam)
    assert res.expectation == expected_coverage(4, 2, fam)
    assert res.bound == lemma_bound(4)
    assert res.best == best_subset(4, 2, fam)
    assert res.delta == delta_check(4)[0]
    assert analyze(4, H=fam, find_best=False).best is None
    assert analyze(20, H=fam).best is None

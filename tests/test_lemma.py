import random
from fractions import Fraction
from itertools import combinations
from math import ceil, comb

import pytest

import oracles
from gridfree import (
    LemmaInstance,
    best_subset,
    delta_check,
    exhaustive_average,
    expected_coverage,
    half_family_expectation,
    lemma_bound,
)
from gridfree import lemma
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


def test_lemma_results_are_fractions():
    fam = ((0, 1), (2, 3), (0, 2))
    for value in (expected_coverage(4, 2, fam), expected_coverage(4, 0, fam),
                  exhaustive_average(4, 2, fam), half_family_expectation(4), delta_check(3)[0]):
        assert type(value) is Fraction


def test_exact_half_instances_attain_the_bound():
    for n in (4, 5, 8, 9, 12, 13):
        for seed in range(5):
            fam = exact_half_family(random.Random(10 * n + seed), n)
            assert 2 * len(fam) == comb(n, 2)
            assert expected_coverage(n, n // 2, fam) == half_family_expectation(n)
            subset, cov = best_subset(n, n // 2, fam)
            assert cov >= lemma_bound(n)
            assert oracles.coverage(subset, fam) == cov


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
            fam = lemma._lemma_family(n, seed)
            if fam is None:
                continue
            subset, cov = best_subset(n, n // 2, fam)
            assert (subset, cov) == oracles.best_subset_by_coverage(n, n // 2, fam)
            assert oracles.coverage(subset, fam) == cov >= lemma_bound(n)
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
    assert oracles.coverage((), fam) == 0
    assert oracles.coverage((0,), fam) == 1
    assert oracles.coverage((1, 3), fam) == 3
    assert oracles.coverage(range(4), fam) == 3


def _tie_heavy_families(n: int):
    """Families whose k-subsets tie in bulk: empty, complete, a star, and two
    disjoint cliques."""
    half = n // 2
    return {
        "empty": (),
        "complete": tuple(combinations(range(n), 2)),
        "star": tuple((0, v) for v in range(1, n)),
        "two cliques": tuple(combinations(range(half), 2))
        + tuple(combinations(range(half, n), 2)),
    }


def test_best_subset_matches_oracle_on_tie_heavy_families():
    for n in range(2, 11):
        for name, fam in _tie_heavy_families(n).items():
            for k in range(n + 1):
                assert best_subset(n, k, fam) == oracles.best_subset_by_coverage(n, k, fam), \
                    (n, k, name)


def _leaves_reached(n: int, k: int, fam) -> int:
    """How many complete k-subsets best_subset's walk reaches, counted
    from the calls of its inner search function whose mask has k bits."""
    import sys

    leaves = 0

    def profile(frame, event, arg):
        nonlocal leaves
        if event == "call" and frame.f_code.co_name == "extend":
            leaves += frame.f_locals["mask"].bit_count() == k
    sys.setprofile(profile)
    try:
        best_subset(n, k, fam)
    finally:
        sys.setprofile(None)
    return leaves


def test_best_subset_prunes_every_subtree_that_cannot_win():
    # When every k-subset covers the same number of pairs, the first leaf
    # is a maximizer, and each later subtree's bound meets it at the latest
    # one step above its leaves, so only the first leaf's n - k + 1
    # siblings (itself included), listed before it was found, are reached.
    # A prune that keeps ties, or on the complete family a bound blind to
    # the mask, walks to the other leaves.
    for n in (6, 9, 10):
        k = n // 2
        for fam in ((), tuple(combinations(range(n), 2))):
            assert _leaves_reached(n, k, fam) == n - k + 1, (n, len(fam))
    # on a random family the walk still reaches far fewer than C(n, k) leaves
    fam = oracles.random_pair_family(random.Random(12), 12)
    assert _leaves_reached(12, 6, fam) < comb(12, 6) // 4


def test_exhaustive_average_matches_direct_average():
    for n in range(2, 11):
        rng = random.Random(7 * n)
        fams = [oracles.random_pair_family(rng, n) for _ in range(3)]
        fams += _tie_heavy_families(n).values()
        for fam in fams:
            for k in range(n + 1):
                assert exhaustive_average(n, k, fam) == \
                    oracles.average_coverage_direct(n, k, fam), (n, k, fam)
    for n in (4, 5, 8, 9, 12):
        fam = lemma._lemma_family(n, 3)
        assert exhaustive_average(n, n // 2, fam) == half_family_expectation(n)


RECORD_SEEDS = (0, 5, 2**64 - 1)


def test_records_agree_with_the_fraction_api():
    # lemma_record prints its integer cores' ratios; the Fraction API wraps
    # the same cores, and the Fractions here are recomputed from the formulas
    for seed in RECORD_SEEDS:
        for n in range(2, 65):
            record, k = lemma.lemma_record(n, seed), n // 2
            e = Fraction(2 * k * n - k * k - k, 4)
            delta = (-(-e.numerator // e.denominator) - e) / (n + k) ** 2
            assert half_family_expectation(n) == e and delta_check(n) == \
                (delta, delta <= Fraction(4, 9 * n * n))
            assert record["expectation"] == str(half_family_expectation(n))
            assert record["delta"] == str(delta_check(n)[0])
            assert record["bound"] == ceil(half_family_expectation(n)) == lemma_bound(n)
            assert record["delta_ok"] is delta_check(n)[1] is True
            fam = lemma._lemma_family(n, seed)
            assert record["h_size"] == (None if fam is None else len(fam))
            if fam is not None:
                assert expected_coverage(n, k, fam) == e
                if n <= 12:
                    assert exhaustive_average(n, k, fam) == e
            if fam is not None and n <= EXHAUSTIVE_LIMIT:
                subset, cov = best_subset(n, k, fam)
                assert (record["best_subset"], record["best_coverage"]) == (list(subset), cov)
            else:
                assert record["best_subset"] is record["best_coverage"] is None


def test_ratio_prints_as_a_fraction():
    for a in range(-60, 61):
        for b in range(1, 61):
            assert lemma._ratio(a, b) == str(Fraction(a, b)), (a, b)


# Each integer core broken as in test_cli's IDENTITY_BREAKS, at every N:
# (its name, its broken stand-in, the identity's message and whether N
# checks that identity for a family of the given size)
CORE_BREAKS = [
    ("_delta", lambda real: lambda n: (*real(n)[:2], False),
     "ceiling gap bound failed", lambda n, fam: True),
    ("_hits", lambda real: lambda n, k, size: real(n, k, size) + 1,
     "expectation formula failed", lambda n, fam: fam),
    ("_exhaustive_hits", lambda real: lambda n, k, fam: real(n, k, fam) - 1,
     "exhaustive average disagrees", lambda n, fam: fam and n <= 12),
    ("best_subset", lambda real: lambda n, k, fam: (real(n, k, fam)[0], -1),
     "attained coverage below bound", lambda n, fam: fam and n <= EXHAUSTIVE_LIMIT),
]


@pytest.mark.parametrize("name,broken,message,checked", CORE_BREAKS,
                         ids=[case[0] for case in CORE_BREAKS])
def test_each_broken_core_fails_exactly_its_own_identity(name, broken, message, checked,
                                                         monkeypatch):
    monkeypatch.setattr(lemma, name, broken(getattr(lemma, name)))
    failed = []
    for n in range(2, 41):
        try:
            lemma.lemma_record(n, 5)
        except ArithmeticError as exc:
            assert str(exc) == f"{message} at N={n}"
            failed.append(n)
    assert failed == [n for n in range(2, 41) if checked(n, n % 4 in (0, 1))]

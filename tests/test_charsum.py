import itertools

import pytest

import oracles
from gridfree import (
    InvalidPrimeError,
    Prime,
    build_qr,
    charsum,
    closed_form_N,
    delta_sum_check,
    gauss_sum_check,
    reciprocity_check,
    secant_census,
)
from gridfree.charsum import SecantCensus
from gridfree.ffield import is_prime

ODD_PRIMES_97 = [p for p in range(3, 98) if is_prime(p)]

# enumerated-vs-closed-form disagreements for p <= 101, pinned from the
# exhaustive census (every one of them is 1 mod 4)
CENSUS_MISMATCHES = {5, 37, 41, 53, 61, 73, 89, 97, 101}


def gauss_sum_direct(p: int) -> int:
    return sum(oracles.legendre_scan(p, x * x - 4) for x in range(p))


def delta_sum_direct(p: int) -> int:
    total = 0
    for a in range(p):
        for b in range(p):
            if a != b:
                total += oracles.legendre_scan(p, (a * a - b * b) ** 2 - 4)
    return total


def test_gauss_sum_is_minus_one():
    for p in ODD_PRIMES_97:
        assert gauss_sum_check(p) == -1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert gauss_sum_check(p) == gauss_sum_direct(p)


def test_delta_sum_identity():
    for p in ODD_PRIMES_97[:12]:
        assert delta_sum_check(p) == -(p - 1)
    for p in (3, 5, 7, 11, 13, 17, 19):
        assert delta_sum_check(p) == delta_sum_direct(p)


def test_delta_sum_matches_row_oracle():
    for p in (p for p in range(3, 500) if is_prime(p)):
        assert delta_sum_check(p) == oracles.delta_sum_by_rows(p) == -(p - 1)


def test_reciprocity_spot_values():
    for p in ODD_PRIMES_97:
        r = reciprocity_check(p)
        assert r.consistent
        assert r.chi2 == (1 if p % 8 in (1, 7) else -1)
        assert r.chi_minus2 == (1 if p % 8 in (1, 3) else -1)
    assert reciprocity_check(7).chi2 == 1
    assert reciprocity_check(5).chi2 == -1
    assert reciprocity_check(3).chi_minus2 == 1


def test_census_pinned_small_values():
    rows = {
        5: (3, 3, 0, 1, 1, 3, False),
        7: (4, 6, 2, 2, 4, 4, True),
        11: (6, 15, 6, 3, 9, 9, True),
        13: (7, 21, 8, 3, 11, 11, True),
    }
    for p, (s, pairs, two, tan, tot, cf, ok) in rows.items():
        c = secant_census(p)
        assert (c.s_size, c.pair_count, c.n_two, c.n_tangent) == (s, pairs, two, tan)
        assert (c.n_total, c.closed_form, c.matches) == (tot, cf, ok)


def test_census_closed_form_agreement_pattern():
    for p in range(5, 102):
        if not is_prime(p):
            continue
        c = secant_census(p)
        assert c.n_total == c.n_two + c.n_tangent
        assert c.matches == (p not in CENSUS_MISMATCHES), p
        if p % 4 == 3:
            assert c.matches, p


def test_census_matches_object_oracle():
    for p in range(5, 200):
        if is_prime(p):
            assert secant_census(p) == oracles.secant_census_by_objects(p), p


def test_census_cross_check_catches_any_misclassified_difference(monkeypatch):
    # Misclassify one difference d = t - s at a time in the sweep table the
    # census reads its pair classes from; the first pair of squares with
    # that difference must be named.
    real = charsum._secant_offsets
    for p in (7, 13, 29):
        pairs = list(itertools.combinations(sorted({x * x % p for x in range(p)}), 2))
        for d in sorted({t - s for s, t in pairs}):
            def flipped(pv, shift, d=d):
                rows = real(pv, shift)
                kept = [row for row in rows if row[0] != d]
                # a disjoint d becomes tangent; any other becomes disjoint
                return kept + [(d, 0, 0)] if len(kept) == len(rows) else kept

            monkeypatch.setattr(charsum, "_secant_offsets", flipped)
            s, t = next((s, t) for s, t in pairs if t - s == d)
            with pytest.raises(ArithmeticError, match=rf"pair \({s}, {t}\) mod {p}$"):
                secant_census(p)
    monkeypatch.undo()
    assert secant_census(29) == oracles.secant_census_by_objects(29)


def test_census_json_key_order():
    d = secant_census(7).to_json_dict()
    assert list(d.keys()) == [
        "p", "s_size", "pair_count", "n_two", "n_tangent", "n_total",
        "closed_form", "matches",
    ]


def test_census_constructor_rejects_inconsistency():
    good = secant_census(7)
    with pytest.raises(ValueError):
        SecantCensus(p=7, s_size=good.s_size, pair_count=good.pair_count,
                     n_two=good.n_two, n_tangent=good.n_tangent,
                     n_total=good.n_total + 1, closed_form=good.closed_form,
                     matches=good.matches)
    with pytest.raises(ValueError):
        SecantCensus(p=7, s_size=good.s_size, pair_count=good.pair_count,
                     n_two=good.n_two, n_tangent=good.n_tangent,
                     n_total=good.n_total, closed_form=good.closed_form,
                     matches=not good.matches)


def test_census_rejects_tiny_or_composite_p():
    with pytest.raises(InvalidPrimeError):
        secant_census(3)
    with pytest.raises(InvalidPrimeError):
        secant_census(9)


def test_closed_form_piecewise():
    assert closed_form_N(7) == 4
    assert closed_form_N(11) == 9
    assert closed_form_N(5) == 3
    assert closed_form_N(13) == 11
    assert closed_form_N(17) == 18
    assert closed_form_N(19) == 25
    for p in ODD_PRIMES_97:
        if p < 5:
            continue
        if p % 4 == 3:
            assert closed_form_N(p) == (p + 1) ** 2 // 16
        else:
            assert closed_form_N(p) == (p - 1) ** 2 // 16 + 2


def test_census_two_count_relates_to_qr_selection():
    # the census counts secants through two chosen V1 points that meet V2;
    # it shares the character classification with the qr build, so both
    # enumerations must agree on the tangent/two-point split they audit
    for p in (7, 11, 13, 17):
        c = secant_census(p)
        assert c.pair_count == c.s_size * (c.s_size - 1) // 2
        h, _, rep = build_qr(p)
        assert rep.selection_size == c.s_size

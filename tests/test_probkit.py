import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from election_forensics.errors import BadCounts, NonPositiveInput
from election_forensics.probkit import (
    EXACT_POWER_BITS,
    posterior_odds,
    proportion_sigma,
    run_probability,
    subset_coincidence,
)


def test_posterior_odds_rare_disease_example():
    res = posterior_odds(0.9, 1e-6, 0.1, 1e-3)
    assert res.odds == Fraction(1000, 9)
    assert res.favored == "B"
    assert abs(res.decimal - 111.11111111111111) < 1e-12


def test_posterior_odds_symmetric_inputs_give_even():
    res = posterior_odds(0.5, 0.5, 0.5, 0.5)
    assert res.odds == 1
    assert res.favored == "even"


def test_posterior_odds_matches_integer_enumeration_oracle():
    # population of 10^6 outcomes split by exact counts, odds read off counts
    total = 1_000_000
    lik_a, prior_a, lik_b, prior_b = (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    )
    with_a = int(total * prior_a)
    with_b = total - with_a
    sympt_a = int(with_a * lik_a)
    sympt_b = int(with_b * lik_b)
    oracle = sympt_b / sympt_a
    res = posterior_odds(lik_a, prior_a, lik_b, prior_b)
    assert abs(res.decimal - oracle) < 1e-12


def test_posterior_odds_rejects_out_of_range():
    with pytest.raises(NonPositiveInput):
        posterior_odds(0.0, 0.5, 0.5, 0.5)
    with pytest.raises(NonPositiveInput):
        posterior_odds(0.5, 0.5, 1.5, 0.5)


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1),
    st.fractions(min_value=Fraction(1, 1000), max_value=1),
    st.fractions(min_value=Fraction(1, 1000), max_value=1),
    st.fractions(min_value=Fraction(1, 1000), max_value=1),
)
@settings(max_examples=80, deadline=None)
def test_posterior_odds_reciprocal_identity(la, pa, lb, pb):
    forward = posterior_odds(la, pa, lb, pb).odds
    backward = posterior_odds(lb, pb, la, pa).odds
    assert forward * backward == 1


def test_run_probability_twenty_losses():
    assert float(run_probability(0.5, 20)) == 9.5367431640625e-07
    assert float(run_probability(0.5, 20)) < 1e-6


def test_run_probability_zero_run_is_certain():
    assert run_probability(0.37, 0) == 1


def test_run_probability_simulation_oracle():
    # 10^8 gamblers; one loses 20 straight iff their 20 outcome bits are all zero
    rng = np.random.default_rng(4242)
    hits = 0
    n = 10**8
    chunk = 10**7
    for _ in range(n // chunk):
        draws = rng.integers(0, 2**20, size=chunk)
        hits += int(np.count_nonzero(draws == 0))
    p = float(run_probability(0.5, 20))
    expected = n * p
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - expected) <= 3 * sigma


def test_run_probability_is_exact_up_to_the_bit_cap_then_decimal():
    # 1/2 needs 2 bits, so (1/2)**n is exact while 2n <= EXACT_POWER_BITS
    n = EXACT_POWER_BITS // 2
    assert run_probability(0.5, n) == Fraction(1, 2**n)
    above = run_probability(0.5, n + 1)
    assert isinstance(above, float) and above == 0.0
    assert run_probability(Fraction(999_999, 1_000_000), 10**30) == 0.0
    assert run_probability(1, 10**30) == 1.0
    assert run_probability(0, 10**30) == 0.0
    assert run_probability("0.99999", 10**6) == pytest.approx(math.exp(10**6 * math.log(0.99999)), rel=1e-12)


def test_subset_coincidence_exact_value():
    res = subset_coincidence(42, 6, 6)
    assert res.probability == Fraction(1, 5_245_786)
    assert abs(res.decimal - 2e-7) / 2e-7 < 0.05


def test_subset_coincidence_full_set_is_certain():
    assert subset_coincidence(9, 9, 9).probability == 1


def test_subset_coincidence_monte_carlo_oracle():
    # drawing 6 of 42 uniformly equals the fixed subset iff all six come from it;
    # the count of good items in the sample is hypergeometric
    rng = np.random.default_rng(99)
    n = 10**8
    chunk = 10**7
    hits = 0
    for _ in range(n // chunk):
        good = rng.hypergeometric(6, 36, 6, size=chunk)
        hits += int(np.count_nonzero(good == 6))
    p = float(subset_coincidence(42, 6, 6).decimal)
    expected = n * p
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - expected) <= 3 * sigma


def test_subset_coincidence_decreases_in_total():
    values = [subset_coincidence(t, 3, 3).probability for t in range(3, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_subset_coincidence_rejects_bad_counts():
    with pytest.raises(BadCounts):
        subset_coincidence(10, 11, 11)
    with pytest.raises(BadCounts):
        subset_coincidence(10, 4, 5)


def test_subset_coincidence_large_total_uses_log_space():
    res = subset_coincidence(20_000, 2, 2)
    assert res.probability is None
    exact = 1 / math.comb(20_000, 2)
    assert abs(res.decimal - exact) / exact < 1e-9


def test_subset_coincidence_log_space_keeps_precision_for_huge_totals():
    assert subset_coincidence(10**30, 6, 6).decimal == pytest.approx(720 / 1e180, rel=1e-12)
    exact = float(Fraction(1, math.comb(30_000, 29_990)))
    assert subset_coincidence(30_000, 29_990, 29_990).decimal == pytest.approx(exact, rel=1e-12)
    assert subset_coincidence(50_000, 25_000, 25_000).decimal == 0.0


def test_proportion_sigma_closed_form():
    assert abs(proportion_sigma(0.5, 1000) - 0.015811388300841896) < 1e-15
    assert proportion_sigma(0.0, 50) == 0.0


def test_proportion_sigma_simulation_oracle():
    rng = np.random.default_rng(7)
    draws = rng.binomial(1000, 0.5, size=10**6) / 1000
    assert abs(draws.std() - proportion_sigma(0.5, 1000)) / proportion_sigma(0.5, 1000) < 0.01


def test_proportion_sigma_rejects_bad_inputs():
    with pytest.raises(BadCounts):
        proportion_sigma(0.5, 0)

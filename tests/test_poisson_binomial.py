import numpy as np
import pytest

from election_forensics import poisson_binomial
from election_forensics.poisson_binomial import pmf


def _direct(q):
    """The pmf of a sum of Bernoulli(q[i]) by the O(m^2) recurrence, one factor at a time."""
    law = np.zeros(len(q) + 1)
    law[0] = 1.0
    for i, qi in enumerate(q):
        law[1 : i + 2] = law[1 : i + 2] * (1 - qi) + law[: i + 1] * qi
        law[0] *= 1 - qi
    return law


def _random_q(m, seed):
    """m Bernoulli probabilities, skewed small at random, with 0, 1e-16 and 1 among them."""
    rng = np.random.default_rng(seed)
    q = rng.random(m) ** rng.integers(1, 6)
    q[: min(m, 3)] = [0.0, 1e-16, 1.0][: min(m, 3)]
    rng.shuffle(q)
    return q


@pytest.mark.parametrize("m", [1, 2, 3, 17, 1000])
@pytest.mark.parametrize("seed", range(4))
def test_pmf_matches_the_direct_recurrence(m, seed):
    q = _random_q(m, seed)
    lo, law = pmf(q)
    full = np.zeros(m + 1)
    full[lo : lo + law.size] = law
    assert np.abs(full - _direct(q)).max() <= 1e-12
    assert abs(law.sum() - 1) <= 1e-12


def test_pmf_of_no_factors_is_a_point_mass_at_zero():
    for q in ([], [0.0, 0.0]):
        lo, law = pmf(np.array(q))
        assert lo == 0 and list(law) == [1.0]


def test_columns_multiplied_out_together_and_in_parts_match_each_alone():
    # three columns of different lengths' worth of factors, split into two row ranges multiplied out apart
    q = np.zeros((1000, 3))
    for column, m in enumerate((1000, 17, 300)):
        q[:m, column] = _random_q(m, column)
    parts = [poisson_binomial.multiply_out(poisson_binomial.leaves(q[rows])) for rows in (slice(0, 333), slice(333, None))]
    together = poisson_binomial.multiply_out(poisson_binomial.concatenate(parts))
    assert together.label.tolist() == [0, 1, 2]
    for column in range(3):
        lo, law = pmf(q[:, column])
        got = together.coef[column, : together.length[column]]
        assert together.lo[column] == lo
        assert np.abs(got / got.sum() - law).max() <= 1e-12


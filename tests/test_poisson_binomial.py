import numpy as np
import pytest

from election_forensics.poisson_binomial import pmf
from reference_loops import poisson_binomial_by_factor


def _random_q(m, seed):
    """m Bernoulli probabilities, skewed small at random, with 0, 1e-16 and 1 among them."""
    rng = np.random.default_rng(seed)
    q = rng.random(m) ** rng.integers(1, 6)
    q[: min(m, 3)] = [0.0, 1e-16, 1.0][: min(m, 3)]
    rng.shuffle(q)
    return q


@pytest.mark.parametrize(
    "q",
    [
        *(pytest.param(_random_q(m, seed), id=f"{seed}-{m}") for m in (1, 2, 3, 17, 1000, 5000) for seed in range(4)),
        pytest.param(np.full(2000, 0.5), id="halves-2000"),  # the widest window for its count of factors
        pytest.param(np.ones(50), id="ones-50"),
        pytest.param(np.full(400, 1 - 1e-12), id="near-ones-400"),
        pytest.param(np.full(3, 1e-9), id="tiny-3"),
    ],
)
def test_pmf_matches_the_direct_recurrence(q):
    lo, law = pmf(q)
    full = np.zeros(q.size + 1)
    full[lo : lo + law.size] = law
    assert np.abs(full - poisson_binomial_by_factor(q)).max() <= 1e-12
    assert abs(law.sum() - 1) <= 1e-12


def test_pmf_of_no_factors_is_a_point_mass_at_zero():
    for q in ([], [0.0, 0.0]):
        lo, law = pmf(np.array(q))
        assert lo == 0 and list(law) == [1.0]

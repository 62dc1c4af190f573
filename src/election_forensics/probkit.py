"""Small exact-probability utilities used when arguing about coincidences.

All operations work in exact rational arithmetic whenever the inputs are
rationals (ints, Fractions, decimal strings, or floats interpreted through
their shortest decimal representation).  Binomial coefficients are computed
exactly up to ``total <= 10_000``, and powers while their numerator and
denominator need at most 10_000 bits; above that the result falls back to a
log-space float with ~1e-12 relative accuracy.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import BadCounts, NonPositiveInput

Rational = Union[int, float, str, Fraction]

EXACT_COMB_LIMIT = 10_000
EXACT_POWER_BITS = 10_000


def to_fraction(x: Rational) -> Fraction:
    """Convert a numeric input to an exact Fraction.

    Floats are read through ``str(x)`` so that 0.9 means 9/10, not the
    nearest binary double.  An infinity or NaN is a NonPositiveInput.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    value = Decimal(str(x).strip())
    if not value.is_finite():
        raise NonPositiveInput(f"{x!r} is not a finite number")
    return Fraction(value)


class OddsResult(NamedTuple):
    """Posterior odds of hypothesis B against hypothesis A."""

    odds: Fraction
    favored: str  # "A", "B", or "even"

    @property
    def decimal(self) -> float:
        return float(self.odds)


def posterior_odds(
    likelihood_a: Rational,
    prior_a: Rational,
    likelihood_b: Rational,
    prior_b: Rational,
) -> OddsResult:
    """Bayes posterior odds of B over A: (P(x|B)·P(B)) / (P(x|A)·P(A)).

    Inputs must lie in (0, 1]; arithmetic is exact.
    """
    la, pa, lb, pb = (to_fraction(v) for v in (likelihood_a, prior_a, likelihood_b, prior_b))
    for name, v in (("likelihood_a", la), ("prior_a", pa), ("likelihood_b", lb), ("prior_b", pb)):
        if not 0 < v <= 1:
            raise NonPositiveInput(f"{name} must be in (0, 1], got {v}")
    odds = (lb * pb) / (la * pa)
    favored = "even" if odds == 1 else ("B" if odds > 1 else "A")
    return OddsResult(odds, favored)


def run_probability(p: Rational, n: int) -> Fraction | float:
    """Probability of n independent events of probability p in a row: p**n.

    Exact while p**n needs at most ``EXACT_POWER_BITS`` bits in its
    numerator and denominator; above that a log-space float, so a huge n
    costs no more than a small one.
    """
    pf = to_fraction(p)
    if not 0 <= pf <= 1:
        raise NonPositiveInput(f"p must be in [0, 1], got {pf}")
    if n < 0:
        raise BadCounts(f"n must be >= 0, got {n}")
    if n * max(pf.numerator.bit_length(), pf.denominator.bit_length()) <= EXACT_POWER_BITS:
        return pf**n
    return math.exp(n * math.log(pf)) if pf else 0.0


class CoincidenceResult(NamedTuple):
    probability: Fraction | None  # exact value when total <= EXACT_COMB_LIMIT
    decimal: float
    total: int
    marked: int


def subset_coincidence(total: int, marked: int, observed_set_size: int) -> CoincidenceResult:
    """Probability that a uniformly random marked subset equals a fixed observed one.

    With ``marked == observed_set_size == k`` out of ``total`` items, this is
    exactly 1 / C(total, k).
    """
    if not (0 <= marked <= total):
        raise BadCounts(f"need 0 <= marked <= total, got marked={marked}, total={total}")
    if marked != observed_set_size:
        raise BadCounts(
            f"observed set size {observed_set_size} must equal marked count {marked}"
        )
    if total <= EXACT_COMB_LIMIT:
        prob = Fraction(1, math.comb(total, marked))
        return CoincidenceResult(prob, float(prob), total, marked)
    # log C(total, k) as a sum of k small terms: lgamma differences cancel
    # catastrophically for a large total.  Past EXACT_COMB_LIMIT terms the
    # partial sum already exceeds log C(20000, 10000), so 1/C underflows to 0.
    k = min(marked, total - marked, EXACT_COMB_LIMIT)
    log_c = math.fsum(math.log(total - i) - math.log(i + 1) for i in range(k))
    return CoincidenceResult(None, math.exp(-log_c), total, marked)


def proportion_sigma(p: float, n: int) -> float:
    """Standard deviation of an observed proportion: sqrt(p(1-p)/n).

    For precincts of thousands of voters this is on the order of a percent
    or two, which is why purely individual randomness cannot produce tens
    of points of turnout spread.
    """
    if n < 1:
        raise BadCounts(f"n must be >= 1, got {n}")
    if not 0 <= p <= 1:
        raise NonPositiveInput(f"p must be in [0, 1], got {p}")
    return math.sqrt(p * (1.0 - p) / n)

"""Exact laws of sums of independent Bernoulli variables (Poisson-binomial), from the characteristic function.

The sum S of independent Bernoulli(q_i) has the characteristic function
phi(w) = E[exp(-i w S)] = prod_i (1 - q_i + q_i exp(-i w)).  The pmf is
kept on its Bernstein window lo .. lo + N - 1, mean -/+ t with
2 exp(-t^2 / (2 (var + t/3))) = TAIL_MASS, so that it leaves out less
than TAIL_MASS of the law.  phi at the N frequencies 2 pi j / N gives the
law of S modulo N exactly (Hong 2013, CSDA 59, the DFT-CF method): count
c gets (1/N) sum_j phi(2 pi j / N) exp(2 pi i j c / N), to which only the
counts outside the window, congruent to c, add anything.  phi(-w) is the
conjugate of phi(w), so j runs over 0 .. N/2 and the sum is real.
"""

from __future__ import annotations

import math

import numpy as np

TAIL_MASS = 1e-18  # most probability a window leaves out; peaks' count windows use it too
_TAIL_LOG = math.log(2 / TAIL_MASS)
# Complex factors multiplied into phi per step, and terms of the inverse
# transform summed per step.  They keep each step's arrays near 0.1 MB, so
# the round-peak null's peak memory stays small; wider steps are no faster.
_PHI_ELEMENTS = 2**13
_INVERSE_ELEMENTS = 2**12


def pmf(q: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, pmf): the law of a sum of independent Bernoulli(q[i]), pmf[k] = P(sum = lo + k).

    The pmf is kept on its Bernstein window, its rounding's negatives are
    set to zero, and it is normalised over the window.
    """
    q = np.asarray(q, dtype=float).ravel()
    mean, var = float(q.sum()), float((q * (1 - q)).sum())
    half = _TAIL_LOG / 3 + math.sqrt(_TAIL_LOG**2 / 9 + 2 * _TAIL_LOG * var)
    lo = max(math.floor(mean - half), 0)
    size = min(math.ceil(mean + half), np.count_nonzero(q)) - lo + 1

    # turn[r] = exp(-2 pi i r / size): phi's frequencies, and each angle of the inverse transform.
    turn = np.exp(np.arange(size) * (-2j * math.pi / size))
    j = np.arange(size // 2 + 1)
    phi = np.ones(j.size, dtype=complex)
    rows = max(1, _PHI_ELEMENTS // j.size)
    for first in range(0, q.size, rows):
        chunk = q[first : first + rows, None]
        factors = chunk * turn[: j.size]
        factors += 1 - chunk
        phi *= factors.prod(axis=0)

    # Count c sums phi_j exp(2 pi i j c / size) over j and its conjugate -j: twice the real part,
    # once for j = 0 and, where size is even, j = size / 2.
    phi *= np.where((j == 0) | (2 * j == size), 1.0, 2.0) / size
    counts = np.arange(lo, lo + size)
    law = np.empty(size)
    per_step = max(1, _INVERSE_ELEMENTS // j.size)
    for first in range(0, size, per_step):
        angle = counts[first : first + per_step, None] * j
        angle %= size
        wave = turn[angle]
        law[first : first + per_step] = wave.real @ phi.real + wave.imag @ phi.imag
    np.maximum(law, 0.0, out=law)
    return lo, law / law.sum()

"""Exact laws of sums of independent Bernoulli variables (Poisson-binomial), by a product tree.

The law of a sum of independent Bernoulli(q_i) is the product of the
polynomials (1 - q_i) + q_i z.  The product is multiplied out pairwise, a
tree of direct convolutions (Biscarri, Zhao & Brunner 2018, CSDA 122),
and each product is kept only on its Bernstein window: mean -/+ t with
2 exp(-t^2 / (2 (var + t/3))) = TAIL_MASS, so that it leaves out less
than TAIL_MASS of its law.  Many laws are multiplied out at once: every
node carries a label, and the nodes of one label multiply into one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TAIL_MASS = 1e-18  # most probability a window leaves out; peaks' count windows use it too
LEAF = 16  # Bernoulli factors per leaf of a product tree
_TAIL_LOG = math.log(2 / TAIL_MASS)


class Nodes(NamedTuple):
    """Pmfs of sums of independent counts, one per row: row i is coef[i, :length[i]] over lo[i] ...

    Each row also carries its sum's mean and variance and a label; the rows
    of one label are neighbours.
    """

    coef: np.ndarray
    lo: np.ndarray
    length: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    label: np.ndarray


def leaves(q: np.ndarray) -> Nodes:
    """The product tree's leaves: column b's Bernoulli(q[:, b]) factors, LEAF rows at a time, labelled b.

    A zero factor (1, 0) changes nothing, and a leaf of zero factors is
    left out.  Each leaf multiplies its factors in one after another, so it
    is exact over all of its counts.
    """
    factors = np.zeros((q.shape[1], -(-q.shape[0] // LEAF) * LEAF))
    factors[:, : q.shape[0]] = q.T
    label = np.repeat(np.arange(q.shape[1]), factors.shape[1] // LEAF)
    factors = factors.reshape(-1, LEAF)
    size = np.count_nonzero(factors, axis=1)
    kept = size > 0
    factors, label, size = factors[kept], label[kept], size[kept]
    pmf = np.zeros((size.size, LEAF + 1))
    pmf[:, 0] = 1.0
    for k in range(LEAF):
        step = factors[:, k, None]
        head = pmf[:, : k + 1] * step
        pmf[:, : k + 1] *= 1 - step
        pmf[:, 1 : k + 2] += head
    zero = np.zeros(size.size, dtype=np.int64)
    return Nodes(pmf, zero, size + 1, factors.sum(axis=1), (factors * (1 - factors)).sum(axis=1), label)


def concatenate(parts: list[Nodes]) -> Nodes:
    """The nodes of every part, padded to the widest and ordered by label."""
    width = max(part.coef.shape[1] for part in parts)
    coef = np.zeros((sum(part.coef.shape[0] for part in parts), width))
    row = 0
    for part in parts:
        coef[row : row + part.coef.shape[0], : part.coef.shape[1]] = part.coef
        row += part.coef.shape[0]
    label = np.concatenate([part.label for part in parts])
    order = np.argsort(label, kind="stable")
    return Nodes(coef[order], *(np.concatenate(field)[order] for field in zip(*(part[1:-1] for part in parts))),
                 label[order])


def _convolve(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Row-wise full direct convolution of two (rows, width) arrays.

    product[:, k] = sum_j first[:, j] second[:, k - j], as one einsum over
    the sliding windows of second, reversed and padded with zeros.
    """
    rows, width = first.shape
    padded = np.zeros((rows, 3 * width - 2))
    padded[:, width - 1 : 2 * width - 1] = second[:, ::-1]
    # windows[r, k] = padded[r, k : k + width]; sliding_window_view's views form reference cycles
    step = padded.strides[1]
    windows = np.ndarray((rows, 2 * width - 1, width), buffer=padded, strides=(padded.strides[0], step, step))
    return np.einsum("rkj,rj->rk", windows, first)[:, ::-1]


def multiply_out(nodes: Nodes) -> Nodes:
    """Multiplies the nodes of each label into one node, level by level.

    Each level multiplies a label's nodes in pairs, first with second,
    third with fourth and so on, an odd last node waiting for the next
    level.  A level's products are batched direct convolutions, one per
    class of pairs whose longer node has 2**(c - 1) + 1 .. 2**c entries,
    so that a few long nodes do not pad every short one.  Each product is
    cut to its Bernstein window.
    """
    coef, lo, length, mean, var, label = nodes
    while True:
        starts = np.flatnonzero(label[1:] != label[:-1]) + 1
        if starts.size + 1 >= label.size:
            return Nodes(coef, lo, length, mean, var, label)
        starts = np.append(0, starts)
        runs = np.diff(np.append(starts, label.size))
        left = np.flatnonzero((np.arange(label.size) - np.repeat(starts, runs)) % 2 == 0)
        # A node at an even place in its label's run pairs with the next, if that has its label.
        paired = np.append(label[left[:-1] + 1] == label[left[:-1]], False)
        paired[-1] = left[-1] + 1 < label.size and label[left[-1] + 1] == label[left[-1]]
        a = left[paired]
        b = a + 1
        base = lo[a] + lo[b]
        top = base + length[a] + length[b] - 2
        need = np.maximum(length[a], length[b])
        pair_mean, pair_var = mean[a] + mean[b], var[a] + var[b]
        half = _TAIL_LOG / 3 + np.sqrt(_TAIL_LOG**2 / 9 + 2 * _TAIL_LOG * pair_var)
        pair_lo = np.clip(np.floor(pair_mean - half).astype(np.int64), base, top)
        pair_length = np.clip(np.ceil(pair_mean + half).astype(np.int64), pair_lo, top) - pair_lo + 1

        slot = np.flatnonzero(paired)
        lo, length, mean, var, label = lo[left], length[left], mean[left], var[left], label[left]
        lo[slot], length[slot], mean[slot], var[slot] = pair_lo, pair_length, pair_mean, pair_var
        new = np.zeros((left.size, int(length.max())))
        keep = min(coef.shape[1], new.shape[1])
        new[~paired, :keep] = coef[left[~paired], :keep]
        klass = np.ceil(np.log2(need)).astype(np.int64)
        for c in np.flatnonzero(np.bincount(klass)):
            pick = np.flatnonzero(klass == c)
            width = int(need[pick].max())
            product = _convolve(coef[a[pick], :width], coef[b[pick], :width])
            step = np.arange(int(pair_length[pick].max()))
            at = np.minimum((pair_lo - base)[pick, None] + step, 2 * width - 2)
            new[slot[pick], : step.size] = np.where(
                step < pair_length[pick, None], np.take_along_axis(product, at, axis=1), 0.0
            )
        coef = new


def pmf(q: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, pmf): the law of a sum of independent Bernoulli(q[i]), pmf[k] = P(sum = lo + k).

    The pmf is kept on its Bernstein window and normalised over it.
    """
    node = multiply_out(leaves(np.asarray(q, dtype=float).reshape(-1, 1)))
    if not node.label.size:
        return 0, np.ones(1)
    law = node.coef[0, : node.length[0]]
    return int(node.lo[0]), law / law.sum()

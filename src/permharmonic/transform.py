"""Linear-time orthogonal spectral transform on n-dimensional vectors.

The transform matrix factors as row scaling after an integer contrast matrix:
row 1 sums all entries, row m (m >= 2) compares entry n-m+2 against the sum
of the first n-m+1 entries.  Scaling each row to unit length makes the whole
matrix orthogonal, so the inverse is the transpose, and both directions run
in O(n) with exactly 2n-2 multiplications and 2n-2 additions forward.

Spectral index 0 carries the mean component; indices 1..n-1 carry the
(n-1)-dimensional standard block, which reacts to permutations of the input
through the orthogonal matrices D(sigma) of yor.py, the shift rule's
reference; spectral_shift applies them in O(n) as inverse, gather, forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counting import CountedScalar, OpCounter
from .permutations import Permutation


@dataclass(frozen=True, eq=False)
class TransformPlan:
    """Precomputed row scalings and contrast coefficients for one vector length.

    alpha[0] = 1/sqrt(n); alpha[k-1] = 1/sqrt((n-k+1)(n-k+2)) for k >= 2.
    coef holds the integer contrast coefficients 1, ..., n-1 as floats.
    Both arrays are read-only; plans are cheap and reusable across calls.
    """

    n: int
    alpha: np.ndarray
    coef: np.ndarray

    @cached_property
    def identity_images(self) -> tuple[int, ...]:
        """The identity's one-line images, built on first use by spectral_shift."""
        return tuple(range(1, self.n + 1))


def build_plan(n: int) -> TransformPlan:
    if n < 2:
        raise ValueError(f"transform needs n >= 2, got {n}")
    k = np.arange(1, n + 1)
    alpha = 1.0 / np.sqrt((n - k + 1.0) * (n - k + 2.0))
    alpha[0] = 1.0 / np.sqrt(n)
    coef = np.arange(1.0, n)
    alpha.setflags(write=False)
    coef.setflags(write=False)
    return TransformPlan(n=n, alpha=alpha, coef=coef)


def contrast_matrix(n: int) -> np.ndarray:
    """Integer contrast rows before scaling: all ones, then one comparison per row.

    Row m (1-based, m >= 2) holds -1 in columns 1..n-m+1 and n-m+1 in column
    n-m+2.  Rows are mutually orthogonal with squared norms n and
    (n-m+1)(n-m+2).
    """
    if n < 2:
        raise ValueError(f"contrast matrix needs n >= 2, got {n}")
    mat = np.zeros((n, n))
    mat[0] = 1.0
    for m in range(2, n + 1):
        mat[m - 1, : n - m + 1] = -1.0
        mat[m - 1, n - m + 1] = n - m + 1
    return mat


def dense_transform(plan: TransformPlan) -> np.ndarray:
    """The full n x n orthogonal matrix, for cross-checks against the O(n) path."""
    return plan.alpha[:, None] * contrast_matrix(plan.n)


def _as_vector(x: np.ndarray, plan: TransformPlan | None) -> tuple[np.ndarray, TransformPlan]:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if plan is None:
        plan = build_plan(arr.shape[0])
    elif plan.n != arr.shape[0]:
        raise ValueError(f"plan is for n={plan.n}, vector has length {arr.shape[0]}")
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    return arr.astype(dtype, copy=False), plan


def transform(x: np.ndarray, plan: TransformPlan | None = None) -> np.ndarray:
    """Forward transform in O(n): one cumulative sum, one comparison per row, scale.

    Before scaling, index n-i (i = 1..n-1) is i * x[i] - (x[0] + ... + x[i-1]).
    Matches dense_transform(plan) @ x to rounding.  Real input gives real
    output; complex input is transformed componentwise.
    """
    arr, plan = _as_vector(x, plan)
    s = np.cumsum(arr)
    out = np.empty_like(arr)
    out[0] = s[-1]
    rows = out[:0:-1]
    np.multiply(plan.coef, arr[1:], out=rows)
    rows -= s[:-1]
    out *= plan.alpha
    return out


def inverse_transform(X: np.ndarray, plan: TransformPlan | None = None) -> np.ndarray:
    """Inverse in O(n) via the transpose: scale, one cumulative sum, reassemble.

    With b = alpha * X and c = cumsum(b): out[i] = 2 b[0] - c[n-1-i] + i b[n-i],
    the last term absent at i = 0.
    """
    spectrum, plan = _as_vector(X, plan)
    b = plan.alpha * spectrum
    out = 2.0 * b[0] - np.cumsum(b)[::-1]
    out[1:] += plan.coef * b[:0:-1]
    return out


def spectral_shift(sigma: Permutation, X: np.ndarray, plan: TransformPlan | None = None) -> np.ndarray:
    """Spectrum of the permuted vector: transform(sigma.apply_to_vector(inverse_transform(X))).

    The transform is orthogonal, so this is the shift rule 1 (+) D(sigma)^t in
    O(n); yor.standard_irrep_transpose_apply is its reference.  Index 0 is
    copied from X, and the identity returns an exact copy.
    """
    spectrum, plan = _as_vector(X, plan)
    if sigma.n != plan.n:
        raise ValueError(f"permutation lives in S_{sigma.n}, vector has length {plan.n}")
    if sigma.images == plan.identity_images:
        return spectrum.copy()
    out = transform(sigma.apply_to_vector(inverse_transform(spectrum, plan)), plan)
    out[0] = spectrum[0]
    return out


def transform_counted(
    x: np.ndarray, plan: TransformPlan | None = None, counter: OpCounter | None = None
) -> tuple[np.ndarray, int, int]:
    """Forward transform plus its exact arithmetic tally: (X, mult, add).

    The tally bills the scalar operation count of the O(n) schedule: n-1
    additions for the cumulative sum, one multiply and one subtract per row
    2..n-1, one subtract for row n (its integer coefficient is 1, so no
    multiply), and n scaling multiplies.  Totals 2n-2 and 2n-2.  The values
    come from transform(), whose vector kernel also multiplies row n by the
    exact 1.0; transform_counted_scalarwise executes the schedule one scalar
    at a time and must agree op for op.

    The returned counts cover this call only; a shared counter keeps its
    running totals on top.
    """
    if np.iscomplexobj(x):
        raise TypeError("counted transform is defined for real input only")
    X = transform(x, plan)
    ops = 2 * X.shape[0] - 2
    if counter is not None:
        counter.mult += ops
        counter.add += ops
    return X, ops, ops


def transform_counted_scalarwise(
    x: np.ndarray, plan: TransformPlan | None = None, counter: OpCounter | None = None
) -> tuple[np.ndarray, int, int]:
    """Same schedule as transform_counted, executed over CountedScalar objects.

    Every multiply and add passes through the counter's billing, so the tally
    is observed rather than declared.  Slow; used to certify the declared
    counts and on small sizes.
    """
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise TypeError("counted transform is defined for real input only")
    arr, plan = _as_vector(arr, plan)
    counter = counter if counter is not None else OpCounter()
    mult0, add0 = counter.mult, counter.add
    n = plan.n

    xs = [counter.wrap(v) for v in arr]
    alphas = [counter.wrap(a) for a in plan.alpha]

    s: list[CountedScalar] = [xs[0]]
    for i in range(1, n):
        s.append(s[i - 1] + xs[i])

    xhat: list[CountedScalar] = [s[n - 1]]
    for m in range(2, n):
        coeff = counter.wrap(n - m + 1)
        xhat.append(coeff * xs[n - m + 1] - s[n - m])
    xhat.append(xs[1] - s[0])

    X = np.array([float(a * h) for a, h in zip(alphas, xhat)])
    return X, counter.mult - mult0, counter.add - add0

"""Independent references for the benchmark's correctness checks.

Everything here is rebuilt from the written definition of the transform (the
module docstring of ``permharmonic.transform`` and the README), never from the
package's own code:

* row 0 of the spectrum is ``sum(x) / sqrt(n)``;
* row r >= 1, with ``k = n - r``, is ``(k * x[k] - sum(x[:k])) / sqrt(k (k+1))``
  (0-based indices);
* the inverse is the transpose.

Error bounds are first-order float64 bounds for the cumulative-sum schedule
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4): a prefix sum
of k terms is off by at most about ``k * u * sum(|x_i|)``.
"""

from __future__ import annotations

import math

import numpy as np

U = np.finfo(np.float64).eps / 2


def row_scales(n: int) -> np.ndarray:
    k = np.arange(n, 0, -1, dtype=np.float64)  # k = n - r for r = 0..n-1
    scales = 1.0 / np.sqrt(k * (k + 1.0))
    scales[0] = 1.0 / math.sqrt(n)
    return scales


def dense_matrix(n: int) -> np.ndarray:
    """The orthogonal n x n matrix, row by row from its definition (n <= 1024)."""
    if n > 1024:
        raise ValueError(f"dense reference is for n <= 1024, got {n}")
    mat = np.zeros((n, n))
    mat[0] = 1.0
    for r in range(1, n):
        k = n - r
        mat[r, :k] = -1.0
        mat[r, k] = k
    return row_scales(n)[:, None] * mat


def forward(x: np.ndarray) -> np.ndarray:
    """Spectrum of x from extended-precision prefix sums, rounded to float64."""
    n = x.shape[0]
    xl = x.astype(np.longdouble)
    prefix = np.cumsum(xl)
    k = np.arange(n - 1, 0, -1)
    out = np.empty(n, dtype=np.longdouble)
    out[0] = prefix[-1]
    out[1:] = k * xl[k] - prefix[k - 1]
    return (out * row_scales(n).astype(np.longdouble)).astype(np.float64)


def forward_bound(x: np.ndarray) -> np.ndarray:
    """Per-entry first-order bound on the error of a float64 forward transform."""
    n = x.shape[0]
    abs_prefix = np.cumsum(np.abs(x))
    k = np.arange(n - 1, 0, -1)
    size = np.empty(n)
    size[0] = abs_prefix[-1]
    size[1:] = abs_prefix[k - 1] + k * np.abs(x[k])
    reach = np.concatenate(([n], k)).astype(np.float64)
    return (reach + 3.0) * U * row_scales(n) * size


def forward_row_fsum(x_list: list[float], r: int) -> float:
    """One spectral row by math.fsum over its definition (correctly rounded sum)."""
    n = len(x_list)
    if r == 0:
        return math.fsum(x_list) / math.sqrt(n)
    k = n - r
    total = math.fsum([k * x_list[k]] + [-v for v in x_list[:k]])
    return total / math.sqrt(k * (k + 1.0))


def inverse(X: np.ndarray) -> np.ndarray:
    """x = T^t X from extended-precision suffix sums, rounded to float64."""
    n = X.shape[0]
    b = X.astype(np.longdouble) * row_scales(n).astype(np.longdouble)
    # x[j] = b[0] + j * b[n-j] - sum_{r=1}^{n-j-1} b[r]   (0-based, b[n] := 0)
    tail = np.concatenate(([np.longdouble(0)], np.cumsum(b[1:])))
    j = np.arange(n)
    contrast = np.zeros(n, dtype=np.longdouble)
    contrast[1:] = j[1:] * b[n - j[1:]]
    out = b[0] + contrast - tail[n - j - 1]
    return out.astype(np.float64)


def inverse_bound(X: np.ndarray) -> float:
    """Uniform first-order bound on each entry of a float64 inverse transform."""
    n = X.shape[0]
    b = np.abs(X * row_scales(n))
    j = np.arange(1, n)
    largest_contrast = float(np.max(j * b[n - j])) if n > 1 else 0.0
    return 2.0 * (n + 3.0) * U * (float(np.sum(b)) + largest_contrast + 2.0 * b[0])


def worst_ratio(error: np.ndarray, bound: np.ndarray | float) -> float:
    """Largest error / bound; a zero bound only tolerates a zero error."""
    bound = np.broadcast_to(np.asarray(bound, dtype=np.float64), np.shape(error))
    err = np.abs(error)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0, err / np.where(bound > 0, bound, 1.0), np.where(err > 0, np.inf, 0.0))
    return float(np.max(ratio)) if ratio.size else 0.0


def shift_tolerance(X: np.ndarray) -> float:
    """Tolerance for a spectral shift against T @ x[sigma - 1] (as in the CLI check)."""
    return 1e-10 * max(1.0, float(np.linalg.norm(X)))


def partition_count(n: int) -> int:
    """Number of integer partitions of n (Euler's recurrence by dynamic programming)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]

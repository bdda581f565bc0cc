"""Young orthogonal matrices for the standard (n-1)-dimensional irreducible.

Generators are nearly-identity: the first adjacent transposition acts as
diag(1, ..., 1, -1), and each later one mixes just two coordinates through a
symmetric 2x2 block.  Arbitrary group elements are evaluated as generator
products along an adjacent-transposition word, in the homomorphism order
D(a * b) = D(a) D(b).  Words have up to n(n-1)/2 letters, so this module is
the shift rule's reference: transform.spectral_shift applies 1 (+) D(sigma)^t
in O(n) through the orthogonal transform and is tested against it.
"""

from __future__ import annotations

import math

import numpy as np

from .permutations import Permutation, _degree_error
from .transform import _coerced

# verify_coxeter's range of n: it multiplies every pair of dense (n-1) x (n-1) generators.
COXETER_N = range(2, 65)


def transposition_block(k: int) -> np.ndarray:
    """2x2 symmetric orthogonal block [[-1/k, s], [s, 1/k]], s = sqrt(1 - 1/k^2).

    Determinant -1; its own inverse.  k is the axial distance between the two
    swapped symbols, so k >= 2.
    """
    if k < 2:
        raise ValueError(f"transposition block needs k >= 2, got {k}")
    c = 1.0 / k
    s = math.sqrt(1.0 - c * c)
    return np.array([[-c, s], [s, c]])


def standard_irrep_generator(n: int, k: int) -> np.ndarray:
    """Matrix of tau_k in the standard irreducible, dimension (n-1) x (n-1).

    k = 1 gives diag(1, ..., 1, -1).  For k >= 2 the matrix is an identity
    frame carrying transposition_block(k) at rows/columns n-k, n-k+1 (1-based).
    Always symmetric and orthogonal.
    """
    if n < 2:
        raise ValueError(f"standard irreducible needs n >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    mat = np.eye(n - 1)
    _left_apply_generator(n, k, mat)
    return mat


def _left_apply_generator(n: int, k: int, target: np.ndarray | list) -> None:
    """target <- G_k @ target in place; target has n-1 rows (matrix, vector or list)."""
    if k == 1:
        target[n - 2] = -target[n - 2]
        return
    r = n - k - 1
    c = 1.0 / k
    s = math.sqrt(1.0 - c * c)
    top = -c * target[r] + s * target[r + 1]
    bottom = s * target[r] + c * target[r + 1]
    target[r] = top
    target[r + 1] = bottom


def standard_irrep(n: int, sigma: Permutation) -> np.ndarray:
    """D(sigma): the orthogonal (n-1) x (n-1) matrix of sigma.

    Generator product along sigma.decompose_adjacent(); well defined (any valid
    word gives the same matrix) and orthogonal.
    """
    if sigma.n != n:
        raise _degree_error(sigma, n)
    if n < 2:
        raise ValueError(f"standard irreducible needs n >= 2, got {n}")
    mat = np.eye(n - 1)
    for k in reversed(sigma.decompose_adjacent()):
        _left_apply_generator(n, k, mat)
    return mat


def standard_irrep_transpose_apply(n: int, sigma: Permutation, v: np.ndarray) -> np.ndarray:
    """D(sigma)^t v without forming the matrix, one 2x2 block per letter.

    Generators are symmetric, so the transpose is the reversed generator
    product applied left to right along the word.  Building the word costs
    Theta(n^2); this is the reference that transform.spectral_shift is
    checked against, in the tests, the theorem suite and `shift --check`.
    v is read by the transform's dtype rule.  The letters update a list of
    Python numbers, which rounds as float64 (complex128) arithmetic does,
    without numpy's per-scalar overhead.
    """
    if sigma.n != n:
        raise _degree_error(sigma, n)
    out = _coerced(v)
    if out.ndim != 1 or out.shape[0] != n - 1:
        raise ValueError(f"expected a vector of length {n - 1}, got shape {out.shape}")
    values = out.tolist()
    for k in sigma.decompose_adjacent():
        _left_apply_generator(n, k, values)
    return np.array(values, out.dtype)


def verify_coxeter(n: int) -> float:
    """Largest absolute deviation from the Coxeter relations among the generators.

    Checks G_k^2 = I, the braid relation G_k G_{k+1} G_k = G_{k+1} G_k G_{k+1},
    and commutation G_k G_j = G_j G_k for |k - j| >= 2.
    """
    if n not in COXETER_N:
        raise ValueError(f"verify_coxeter supports {COXETER_N[0]} <= n <= {COXETER_N[-1]}, got {n}")
    gens = [standard_irrep_generator(n, k) for k in range(1, n)]
    eye = np.eye(n - 1)
    dev = 0.0
    for g in gens:
        dev = max(dev, float(np.max(np.abs(g @ g - eye))))
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        dev = max(dev, float(np.max(np.abs(a @ b @ a - b @ a @ b))))
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            dev = max(dev, float(np.max(np.abs(gens[i] @ gens[j] - gens[j] @ gens[i]))))
    return dev

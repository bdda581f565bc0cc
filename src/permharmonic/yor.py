"""Young orthogonal matrices for the standard (n-1)-dimensional irreducible.

Generators are nearly-identity: the first adjacent transposition acts as
diag(1, ..., 1, -1), and each later one mixes just two coordinates through a
symmetric 2x2 block.  Arbitrary group elements are evaluated as generator
products along a reduced adjacent-transposition word, in the homomorphism
order D(a * b) = D(a) D(b), by one kernel that applies a sort round's
disjoint blocks per numpy step; D(sigma) is that kernel applied to the
identity.  A word has one letter per inversion, up to n(n-1)/2, so this
module is the shift rule's reference: spectral_shift applies 1 (+) D(sigma)^t
in O(n) through the transform and is tested against it.
"""

from __future__ import annotations

import numpy as np

from .permutations import Permutation, _image_index, _sort_rounds, adjacent_transposition
from .transform import _coerced

# verify_coxeter's range of n: it multiplies every pair of dense (n-1) x (n-1) generators.
COXETER_N = range(2, 65)


def standard_irrep_generator(n: int, k: int) -> np.ndarray:
    """Matrix of tau_k in the standard irreducible, dimension (n-1) x (n-1).

    k = 1 gives diag(1, ..., 1, -1).  For k >= 2 the matrix is an identity frame
    carrying the block of _block_entries(k) at rows/columns n-k, n-k+1 (1-based).
    Always symmetric and orthogonal, with determinant -1.
    """
    return standard_irrep(n, adjacent_transposition(n, k))


def _block_entries(k: int | np.ndarray) -> tuple:
    """(c, s) of tau_k's block [[-c, s], [s, c]]; k >= 2, an int or an array, is the axial distance."""
    c = 1.0 / k
    return c, np.sqrt(1.0 - c * c)


def standard_irrep(n: int, sigma: Permutation) -> np.ndarray:
    """D(sigma): the orthogonal (n-1) x (n-1) matrix of sigma.

    Row i is D(sigma)^t e_i, so the matrix is standard_irrep_transpose_apply
    on the identity's rows.  Well defined (any valid word gives the same
    matrix) and orthogonal.  Only a Permutation is read: an array of image rows
    would pair each identity row with its own permutation.
    """
    if not isinstance(sigma, Permutation):
        raise TypeError(f"expected a Permutation, got {type(sigma).__name__}")
    if n < 2:
        raise ValueError(f"standard irreducible needs n >= 2, got {n}")
    return standard_irrep_transpose_apply(n, sigma, np.eye(n - 1))


def standard_irrep_transpose_apply(n: int, sigma: Permutation | np.ndarray, v: np.ndarray) -> np.ndarray:
    """D(sigma)^t v without forming the matrix, one numpy step per sort round.

    Generators are symmetric, so the transpose is the reversed generator
    product applied left to right along the word.  sigma is read as in
    spectral_shift, v as (..., n-1) vectors by the transform's dtype rule.
    A round's letters are disjoint: its 2x2 blocks update strided pairs at
    once, with the entries of _block_entries.  The package's one Young product:
    standard_irrep reads it, and this Theta(n^2) product is spectral_shift's
    reference in the tests, the theorem suite and `shift --check`.
    """
    index = _image_index(sigma, n)
    v = _coerced(v)
    if v.ndim == 0 or v.shape[-1] != n - 1:
        raise ValueError(f"expected vectors of length {n - 1}, got shape {v.shape}")
    out = np.array(np.broadcast_to(v, np.broadcast_shapes(index.shape[:-1] + v.shape[-1:], v.shape)))
    # Pair r, r + 1 is letter n - 1 - r >= 2, at mask index n - 2 - r; tau_1 owns the last one.
    c, s = _block_entries(np.arange(n - 1.0, 1.0, -1.0))
    with np.errstate(invalid="ignore", over="ignore"):  # IEEE results, as Python floats give
        for step, mask in enumerate(_sort_rounds(index)):
            q = (n - step) % 2  # the round's pairs are r = q, q + 2, ...
            top, bottom = out[..., q : n - 2 : 2], out[..., q + 1 :: 2]
            swap = mask[..., n - 2 - q : 0 : -2]
            new_top = -c[q::2] * top + s[q::2] * bottom
            np.copyto(bottom, s[q::2] * top + c[q::2] * bottom, where=swap)
            np.copyto(top, new_top, where=swap)
            np.copyto(out[..., n - 2 :], -out[..., n - 2 :], where=mask[..., :1])
    return out


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

"""Linear-time orthogonal spectral transform on n-dimensional vectors.

The transform matrix factors as row scaling after an integer contrast matrix:
row 1 sums all entries, row m (m >= 2) compares entry n-m+2 against the sum
of the first n-m+1 entries.  Scaling each row to unit length makes the whole
matrix orthogonal, so the inverse is the transpose, and both directions run
in O(n) with exactly 2n-2 multiplications and 2n-2 additions each: the
inverse is the forward's arithmetic transposed and read backwards.

Spectral index 0 carries the mean component; indices 1..n-1 carry the
(n-1)-dimensional standard block, which reacts to permutations of the input
through the orthogonal matrices D(sigma) of yor.py, the shift rule's
reference; spectral_shift applies them in O(n) as inverse, gather, forward.
A Permutation adds one conversion of its images to a gather index and
nothing else n-sized; image rows add one broadcast gather and a per-row
identity mask.  The kernels take a plan's alpha and coef, never the plan.

Every public call works along the last axis: a 1-D vector is the batch of
shape (), and a (..., n) array is transformed row by row, each row bitwise
as its own 1-D call, through the same one forward and one inverse kernel.
bool, integer and float input is read as float64 and complex input as
complex128; other dtypes (strings, bytes, objects, records) raise TypeError.
That rule, _coerced, is the package's one vector coercion.  The counted
transforms run the same forward kernel over counting.CountedArray operands,
which observe its bill for one 1-D real vector; the private runner behind
them, _counted, takes either kernel, so the tests bill the inverse too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .counting import CountedArray
from .permutations import Permutation, _degree_error, _image_index


@dataclass(frozen=True, eq=False)
class TransformPlan:
    """Row scalings and contrast coefficients for one vector length, derived from n alone.

    alpha[0] = 1/sqrt(n); alpha[k-1] = 1/sqrt((n-k+1)(n-k+2)) for k >= 2.
    coef holds the integer contrast coefficients 1, ..., n-1 as floats.
    TransformPlan(n) builds both, read-only, so a plan always agrees with n.
    """

    n: int
    alpha: np.ndarray = field(init=False)
    coef: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = operator.index(self.n)
        if n < 2:
            raise ValueError(f"need a vector of length >= 2, got {n}")
        k = np.arange(1, n + 1)
        alpha = 1.0 / np.sqrt((n - k + 1.0) * (n - k + 2.0))
        alpha[0] = 1.0 / np.sqrt(n)
        coef = np.arange(1.0, n)
        alpha.setflags(write=False)
        coef.setflags(write=False)
        for name, value in (("n", n), ("alpha", alpha), ("coef", coef)):
            object.__setattr__(self, name, value)


def build_plan(n: int) -> TransformPlan:
    return TransformPlan(n)


DENSE_MAX_N = 4096  # largest n of the dense references: 128 MiB of float64


def check_dense_n(n: int) -> None:
    """Refuse an n outside 2..DENSE_MAX_N, where the n x n dense references grow too large."""
    if not 2 <= n <= DENSE_MAX_N:
        raise ValueError(f"contrast matrix needs 2 <= n <= {DENSE_MAX_N}, got {n}")


def contrast_matrix(n: int) -> np.ndarray:
    """Integer contrast rows before scaling: all ones, then one comparison per row.

    Row m (1-based, m >= 2) holds -1 in columns 1..n-m+1 and n-m+1 in column
    n-m+2.  Rows are mutually orthogonal with squared norms n and
    (n-m+1)(n-m+2).  check_dense_n refuses n before any allocation.
    """
    check_dense_n(n)
    mat = np.zeros((n, n))
    mat[0] = 1.0
    for m in range(2, n + 1):
        mat[m - 1, : n - m + 1] = -1.0
        mat[m - 1, n - m + 1] = n - m + 1
    return mat


def dense_transform(plan: TransformPlan) -> np.ndarray:
    """The full n x n orthogonal matrix, for cross-checks against the O(n) path."""
    mat = contrast_matrix(plan.n)
    mat *= plan.alpha[:, None]
    return mat


_COERCED = {"b": np.float64, "i": np.float64, "u": np.float64, "f": np.float64, "c": np.complex128}


def _coerced(x: np.ndarray, real: bool = False) -> np.ndarray:
    """x as float64 (bool, integer, float input) or complex128 (complex input).

    Strings, bytes, objects and records raise TypeError, and so does complex
    input for the real-only callers: the counted transforms and lifted vectors.
    """
    arr = np.asarray(x)
    dtype = _COERCED.get(arr.dtype.kind)
    if dtype is None or (real and dtype is np.complex128):
        kinds = "bool, integer or float" if real else "bool, integer, float or complex"
        raise TypeError(f"expected {kinds} input, got dtype {arr.dtype}")
    return arr.astype(dtype, copy=False)


def _as_vector(x: np.ndarray, plan: TransformPlan | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_coerced(x) as vectors along its last axis, shape (..., n), with alpha and coef for n."""
    arr = _coerced(x)
    if arr.ndim == 0:
        raise ValueError("expected vectors along a last axis, got a 0-d input")
    if plan is None:
        plan = build_plan(arr.shape[-1])
    elif plan.n != arr.shape[-1]:
        raise ValueError(f"plan is for n={plan.n}, vector has length {arr.shape[-1]}")
    return arr, plan.alpha, plan.coef


def _forward(arr: np.ndarray, alpha: np.ndarray, coef: np.ndarray) -> np.ndarray:
    s = np.add.accumulate(arr, axis=-1)
    out = np.empty_like(arr)
    out[..., 0] = s[..., -1]
    rows = out[..., :0:-1]
    rows[..., 0] = arr[..., 1]  # row n: coefficient 1, so no multiply
    np.multiply(coef[1:], arr[..., 2:], out=rows[..., 1:])
    rows -= s[..., :-1]
    out *= alpha
    return out


def _inverse(spectrum: np.ndarray, alpha: np.ndarray, coef: np.ndarray) -> np.ndarray:
    b = alpha * spectrum
    out = np.empty_like(b)
    np.subtract.accumulate(b, axis=-1, out=out[..., ::-1])
    tail = b[..., :0:-1]  # b[n-j] at j - 1; b is this call's own, so scaled in place
    np.multiply(coef[1:], tail[..., 1:], out=tail[..., 1:])  # j = 1: coefficient 1, so no multiply
    out[..., 1:] += tail
    return out


def transform(x: np.ndarray, plan: TransformPlan | None = None) -> np.ndarray:
    """Forward transform in O(n): one cumulative sum, one comparison per row, scale.

    Before scaling, index n-i (i = 1..n-1) is i * x[i] - (x[0] + ... + x[i-1]).
    Matches dense_transform(plan) @ x to rounding.  Real input gives real
    output; complex input is transformed componentwise.  x may hold a batch
    of vectors along its last axis; each comes out bitwise as a 1-D call.
    """
    return _forward(*_as_vector(x, plan))


def inverse_transform(X: np.ndarray, plan: TransformPlan | None = None) -> np.ndarray:
    """Inverse in O(n) via the transpose: scale, one running difference, reassemble.

    With b = alpha * X and t[k] = b[0] - b[1] - ... - b[k]:
    out[i] = t[n-1-i] + i b[n-i], the last term absent at i = 0, which is
    2n-2 multiplications and 2n-2 additions.  Batched along the last axis as
    transform; X itself is never written.
    """
    return _inverse(*_as_vector(X, plan))


def spectral_shift(
    sigma: Permutation | np.ndarray, X: np.ndarray, plan: TransformPlan | None = None
) -> np.ndarray:
    """Spectrum of the permuted vector: transform(sigma.apply_to_vector(inverse_transform(X))).

    The transform is orthogonal, so this is the shift rule 1 (+) D(sigma)^t in
    O(n); yor.standard_irrep_transpose_apply is its reference.  Index 0 is
    copied from X, and the identity returns an exact copy.  sigma is a
    Permutation or a (..., n) integer array of 1-based image rows, gathered
    row by row; its leading axes broadcast against those of X.

    A Permutation costs those three O(n) steps and one conversion of its
    images to an index; its identity test, made after the degree check, is
    a bool stored on sigma.  Image rows add an identity mask per row, those
    rows copied from X; X is inverted before the broadcast, once per row of X.
    """
    spectrum, alpha, coef = _as_vector(X, plan)
    n = spectrum.shape[-1]
    if isinstance(sigma, Permutation):
        if sigma.n != n:
            raise _degree_error(sigma, n)
        if sigma._is_identity:
            return spectrum.copy()
        out = _forward(_inverse(spectrum, alpha, coef).take(_image_index(sigma, n), axis=-1), alpha, coef)
        out[..., 0] = spectrum[..., 0]
        return out
    index = _image_index(sigma, n)
    shape = np.broadcast_shapes(index.shape, spectrum.shape)
    x = np.broadcast_to(_inverse(spectrum, alpha, coef), shape)  # inverted before the broadcast: once per row of X
    out = _forward(np.take_along_axis(x, np.broadcast_to(index, shape), axis=-1), alpha, coef)
    out[..., 0] = spectrum[..., 0]
    np.copyto(out, spectrum, where=(index == np.arange(n)).all(-1, keepdims=True))
    return out


def _counted(kernel, x: np.ndarray, plan: TransformPlan | None, wrap) -> tuple[np.ndarray, int, int]:
    """kernel (_forward or _inverse) over wrap(values, tally) of x, alpha and coef, with the tally it billed."""
    arr, alpha, coef = _as_vector(_coerced(x, real=True), plan)
    if arr.ndim != 1:
        raise ValueError(f"counted transform takes one 1-D vector, got shape {arr.shape}")
    tally = [0, 0]
    X = kernel(wrap(arr, tally), wrap(alpha, tally), wrap(coef, tally))
    return np.asarray(X, dtype=np.float64), tally[0], tally[1]


def _scalars(values: np.ndarray, tally: list[int]) -> np.ndarray:
    """values as an object array of 0-d CountedArrays, which bill scalar by scalar."""
    return np.frompyfunc(lambda value: CountedArray(value, tally), 1, 1)(values)


def transform_counted(
    x: np.ndarray, plan: TransformPlan | None = None
) -> tuple[np.ndarray, int, int]:
    """Forward transform plus its observed arithmetic tally: (X, mult, add).

    transform()'s kernel runs over CountedArray views of x, alpha and coef,
    which bill every multiply and add it makes: 2n-2 of each.  The bill is for
    one vector, so x must be 1-D and real: a batch raises ValueError, complex
    input TypeError.
    """
    return _counted(_forward, x, plan, CountedArray)


def transform_counted_scalarwise(
    x: np.ndarray, plan: TransformPlan | None = None
) -> tuple[np.ndarray, int, int]:
    """transform_counted over object arrays of 0-d CountedArrays: (X, mult, add).

    numpy's object loops bill each scalar operation as it happens, apart from
    the element-count rule that transform_counted relies on.

    >>> transform_counted_scalarwise([1.0, 2.0, 4.0])[1:]
    (4, 4)
    """
    return _counted(_forward, x, plan, _scalars)

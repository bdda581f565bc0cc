"""Brute-force full-group spectral analysis for small n.

Everything here sums over all n! group elements on purpose: this module is
the ground truth the fast transform is checked against, not a fast algorithm.
It builds the orthogonal irreducible matrices for every partition from
standard tableaux and axial distances, computes full Fourier coefficient
blocks, the stabilizer-average projection, and the scalar constants tying the
full-group coefficients to the O(n) transform.

Every group sum splits S_m into the cosets c_j S_{m-1}, where c_j sends m
to j, and multiplies each coset's partial sum over S_{m-1} by D(c_j) with
sparse generator updates.  The tableau basis is adapted to S_{m-1} < S_m:
restricted to S_{m-1}, D(shape) is block diagonal over the shapes left by
removing one corner, so each coset's partial sum is the block diagonal of
group sums one level down, and every sum recurses down the shape's
down-set.  fourier_full recurses on the values of its function; lifted
vectors (constant on each coset) need only the sum of D over S_{m-1}, which
depends on the shape alone and is cached.  Each element is counted exactly
once, and nothing of size n! outlives a call.

Work and cap both scale factorially; the cap from permutations.oracle_cap
applies to every operation that touches the whole group.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .permutations import OracleCapExceeded, Permutation, compose, oracle_cap
from .transform import build_plan, dense_transform

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
Action = tuple[np.ndarray, np.ndarray, np.ndarray]


def _check_cap(n: int) -> None:
    if n < 1:
        raise ValueError(f"group degree must be positive, got {n}")
    cap = oracle_cap()
    if n > cap:
        raise OracleCapExceeded(f"n={n} exceeds the oracle cap {cap}")


def validate_partition(shape: Partition) -> int:
    """Check weakly decreasing positive parts; return their sum."""
    if not shape:
        raise ValueError("partition must have at least one part")
    for a, b in zip(shape, shape[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing: {shape}")
    if shape[-1] < 1:
        raise ValueError(f"partition parts must be positive: {shape}")
    return int(sum(shape))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order: (n) first, (1,...,1) last."""
    _check_cap(n)
    out: list[Partition] = []

    def descend(remaining: int, largest: int, prefix: Partition) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(n, n, ())
    return out


def _removals(shape: Partition) -> list[tuple[int, Partition]]:
    """(row, shape less that row's last box) per removable corner, lowest row first."""
    out = []
    for r in range(len(shape) - 1, -1, -1):
        if r + 1 < len(shape) and shape[r] == shape[r + 1]:
            continue
        reduced = shape[:r] + (shape[r] - 1,) + shape[r + 1 :]
        out.append((r, reduced if reduced[r] else reduced[:r]))
    return out


@lru_cache(maxsize=None)
def _tableaux(shape: Partition) -> tuple[Tableau, ...]:
    if not shape:
        return ((),)
    n = sum(shape)
    out: list[Tableau] = []
    # The largest value must sit in a removable corner.  Taking the corners
    # in _removals order (lowest row first) makes the tableaux of each reduced
    # shape one contiguous block, so the generators of S_{n-1} are block
    # diagonal over the reduced shapes in that order: the group-sum recursion
    # relies on it.  For shape (n-1,1) this lists the tableau with n in the
    # second row first, which is exactly the basis order the explicit
    # generators in yor.py assume.
    for r, reduced in _removals(shape):
        for t in _tableaux(reduced):
            if len(t) > r:
                out.append(t[:r] + (t[r] + (n,),) + t[r + 1 :])
            else:
                out.append(t + ((n,),))
    return tuple(out)


def standard_tableaux(shape: Partition) -> tuple[Tableau, ...]:
    """All standard fillings of shape: rows and columns strictly increasing.

    Deterministic order, defined recursively: among tableaux of the same
    shape, the one whose largest value sits in a lower row comes first, and
    ties recurse on the filling of 1..n-1.
    """
    validate_partition(shape)
    return _tableaux(shape)


def tableau_count(shape: Partition) -> int:
    """Number of standard tableaux by the hook length formula."""
    n = validate_partition(shape)
    heights = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    denom = 1
    for r, part in enumerate(shape):
        for c in range(part):
            denom *= (part - c) + (heights[c] - r) - 1
    return math.factorial(n) // denom


def _positions(t: Tableau) -> dict[int, tuple[int, int]]:
    return {v: (r, c) for r, row in enumerate(t) for c, v in enumerate(row)}


@lru_cache(maxsize=None)
def yor_generator(shape: Partition, k: int) -> np.ndarray:
    """Orthogonal matrix of the adjacent transposition tau_k on shape's tableaux.

    Rows/columns follow standard_tableaux(shape).  For tableau t with axial
    distance r between k and k+1 (column difference minus row difference),
    the diagonal entry is 1/r; if exchanging k and k+1 keeps t standard, the
    entry pairing the two tableaux is sqrt(1 - 1/r^2).
    """
    n = validate_partition(shape)
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    ts = standard_tableaux(shape)
    index = {t: i for i, t in enumerate(ts)}
    d = len(ts)
    mat = np.zeros((d, d))
    for i, t in enumerate(ts):
        pos = _positions(t)
        r1, c1 = pos[k]
        r2, c2 = pos[k + 1]
        axial = (c2 - c1) - (r2 - r1)
        mat[i, i] = 1.0 / axial
        if r1 != r2 and c1 != c2:
            swapped = tuple(
                tuple(k + 1 if v == k else k if v == k + 1 else v for v in row) for row in t
            )
            j = index[swapped]
            if j > i:
                mat[i, j] = mat[j, i] = math.sqrt(1.0 - 1.0 / (axial * axial))
    mat.setflags(write=False)
    return mat


def yor_matrix(shape: Partition, sigma: Permutation) -> np.ndarray:
    """Orthogonal matrix of sigma on shape's tableaux, by generator products."""
    n = validate_partition(shape)
    if sigma.n != n:
        raise ValueError(f"permutation lives in S_{sigma.n}, partition sums to {n}")
    mat = np.eye(len(standard_tableaux(shape)))
    for k in sigma.decompose_adjacent():
        mat = mat @ yor_generator(shape, k)
    return mat


def _row_action(gen: np.ndarray) -> Action:
    """Sparse form of left-multiplication by a generator matrix.

    Every generator row holds its diagonal entry plus at most one
    off-diagonal partner, so G @ M is diag*M plus off*M at paired rows;
    generators are symmetric, so the partners are read off the columns.
    """
    diag = np.diag(gen).copy()
    offdiag = gen - np.diag(diag)
    pair = np.argmax(offdiag != 0, axis=0)  # row 0, with weight 0, where unpaired
    return diag, pair, offdiag[pair, np.arange(len(diag))]


@lru_cache(maxsize=None)
def _general_actions(shape: Partition) -> tuple[Action, ...]:
    n = validate_partition(shape)
    return tuple(_row_action(yor_generator(shape, k)) for k in range(1, n))


def _fold(inner: np.ndarray, actions: tuple[Action, ...]) -> np.ndarray:
    """D(c_j) @ inner[..., j-1, :, :] for j = 1..m; c_j = tau_j ... tau_{m-1} sends m to j.

    S_m is the disjoint union of the cosets c_j S_{m-1}, so when
    inner[..., j-1, :, :] is the sum of f(c_j delta) D(delta) over delta in
    S_{m-1}, the result holds the sum of f(sigma) D(sigma) over each coset.
    D(c_j) is applied as m - j generator row actions, innermost (tau_{m-1})
    first.  Axes before the coset axis are batch axes.
    """
    out = np.array(inner, dtype=float)
    for k in range(out.shape[-3] - 1, 0, -1):
        diag, pair, off = actions[k - 1]
        head = out[..., :k, :, :]
        head[...] = diag[:, None] * head + off[:, None] * head[..., pair, :]
    return out


def _coset_stack(shape: Partition, sums: list[np.ndarray]) -> np.ndarray:
    """Per-coset sums over S_m, from one group sum over S_{m-1} per corner removal.

    sums[i] belongs to the i-th shape of _removals(shape) and carries the
    coset axis j last among its leading axes, or is broadcast along it.
    Their block diagonal is D(shape) summed over S_{m-1}, which _fold
    carries to each coset c_j S_{m-1}.
    """
    m = sum(shape)
    d = len(_tableaux(shape))
    out = np.zeros(np.broadcast_shapes((m,), *(s.shape[:-2] for s in sums)) + (d, d))
    start = 0
    for s in sums:
        stop = start + s.shape[-1]
        out[..., start:stop, start:stop] = s
        start = stop
    return _fold(out, _general_actions(shape))


@lru_cache(maxsize=None)
def _group_sum(shape: Partition) -> np.ndarray:
    """Sum of D(shape, sigma) over all of S_m, read-only; [[1]] for the empty shape."""
    total = _coset_sums(shape).sum(axis=0) if shape else np.ones((1, 1))
    total.setflags(write=False)
    return total


def _coset_sums(shape: Partition) -> np.ndarray:
    """Sum of D(shape, sigma) over {sigma : sigma(m) = j}, stacked for j = 1..m."""
    return _coset_stack(shape, [_group_sum(mu) for _, mu in _removals(shape)])


def lift(f: np.ndarray) -> Callable[[Permutation], float]:
    """Turn a length-n vector into the group function sigma -> f(sigma(n)).

    The result is constant on left cosets of the subgroup fixing n, which is
    what makes its Fourier coefficients vanish outside the top two partitions.
    """
    arr = np.array(f, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    n = arr.shape[0]

    def lifted(sigma: Permutation) -> float:
        if sigma.n != n:
            raise ValueError(f"permutation lives in S_{sigma.n}, vector has length {n}")
        return float(arr[sigma.images[-1] - 1])

    return lifted


def fourier_full(func: Callable[[Permutation], float], n: int) -> dict[Partition, np.ndarray]:
    """Fourier coefficients sum_sigma func(sigma) * D(shape, sigma), every shape.

    All n! terms, each read once.  sigma = c_{j_n} ... c_{j_2}, with c_{j_m}
    in S_m sending m to j_m, is read in lexicographic order of (j_n, ...,
    j_2), which is that of sigma's images read from n down to 1.  For
    m = 1..n, the sums over S_m at every shape of m are formed for each
    choice of the outer cosets j_n..j_{m+1}, from those at the shape's
    corner removals one level down.  Cost O(n! * n^3).
    """
    _check_cap(n)
    values = [func(Permutation(w[::-1])) for w in itertools.permutations(range(1, n + 1))]
    sums = {(): np.array(values, dtype=float).reshape(tuple(range(n, 0, -1)) + (1, 1))}
    for m in range(1, n + 1):
        sums = {
            shape: _coset_stack(shape, [sums[mu] for _, mu in _removals(shape)]).sum(axis=-3)
            for shape in enumerate_partitions(m)
        }
    return sums


def _lifted_input(f: np.ndarray) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ValueError(f"expected a 1-D vector of length >= 2, got shape {arr.shape}")
    _check_cap(arr.shape[0])
    return arr


def fourier_standard_block(f: np.ndarray) -> np.ndarray:
    """Coefficient block of the lifted f at shape (n-1,1), in the explicit basis.

    lift(f) is f[j-1] on the whole coset {sigma : sigma(n) = j}, so the block
    is sum_j f[j-1] times that coset's sum of D.  Column structure (unlike
    vanishing) depends on the basis; the tableau generators at (n-1,1) are
    bitwise those of yor.py, so this is the explicit basis.
    """
    arr = _lifted_input(f)
    return np.tensordot(arr, _coset_sums((arr.shape[0] - 1, 1)), axes=1)


def stabilizer_projection(shape: Partition) -> np.ndarray:
    """Average of D(shape, delta)^t over the subgroup fixing n.

    Idempotent.  For shape (n-1,1), in the explicit basis of yor.py, it has a
    single unit entry at (1,1); for shapes other than (n) and (n-1,1) it
    vanishes outright, in any basis.
    """
    n = validate_partition(shape)
    _check_cap(n)
    # c_n is the identity, so the last coset sum is the sum over S_{n-1}.
    return _coset_sums(shape)[-1].T / math.factorial(n - 1)


@dataclass(frozen=True)
class BandlimitReport:
    """Vanishing pattern of a lifted vector's Fourier coefficients.

    bound is the acceptance threshold 1e-9 * n! * max|f|.  off_band_max is
    the largest coefficient magnitude over partitions other than (n) and
    (n-1,1); tail_max is the largest magnitude outside the leftmost column of
    the (n-1,1) block in the explicit basis.  Both must fall under bound.
    """

    n: int
    bound: float
    block_norms: dict[Partition, float]
    off_band_max: float
    tail_max: float
    passed: bool


def verify_bandlimit(f: np.ndarray) -> BandlimitReport:
    """Check that lift(f)'s spectrum lives entirely in (n) and (n-1,1)."""
    arr = _lifted_input(f)
    n = arr.shape[0]
    coeffs = {
        shape: np.tensordot(arr, _coset_sums(shape), axes=1) for shape in enumerate_partitions(n)
    }
    bound = 1e-9 * math.factorial(n) * float(np.max(np.abs(arr)))
    block_norms = {shape: float(np.max(np.abs(block))) for shape, block in coeffs.items()}
    kept = {(n,), (n - 1, 1)}
    off_band = [norm for shape, norm in block_norms.items() if shape not in kept]
    off_band_max = max(off_band, default=0.0)
    tail_max = float(np.max(np.abs(coeffs[(n - 1, 1)][:, 1:]))) if n > 2 else 0.0
    passed = off_band_max <= bound and tail_max <= bound
    return BandlimitReport(
        n=n,
        bound=bound,
        block_norms=block_norms,
        off_band_max=off_band_max,
        tail_max=tail_max,
        passed=passed,
    )


@dataclass(frozen=True)
class TranslationReport:
    """Per-partition deviation of G(shape) from D(shape, delta)^t F(shape)."""

    n: int
    deviations: dict[Partition, float]
    max_deviation: float
    passed: bool


def verify_translation(
    func: Callable[[Permutation], float], delta: Permutation, n: int, tol: float = 1e-9
) -> TranslationReport:
    """Check the shift rule: g = func(delta . sigma) has G = D(delta)^t F blockwise."""
    if delta.n != n:
        raise ValueError(f"shift permutation lives in S_{delta.n}, expected S_{n}")
    coeffs = fourier_full(func, n)
    shifted = fourier_full(lambda sigma: func(compose(delta, sigma)), n)
    deviations: dict[Partition, float] = {}
    for shape, block in coeffs.items():
        predicted = yor_matrix(shape, delta).T @ block
        deviations[shape] = float(np.max(np.abs(shifted[shape] - predicted)))
    max_deviation = max(deviations.values())
    return TranslationReport(
        n=n, deviations=deviations, max_deviation=max_deviation, passed=max_deviation <= tol
    )


@dataclass(frozen=True)
class SchurReport:
    """Scalars linking full-group coefficients of lifted vectors to the fast transform.

    The map x -> (coefficient at (n), leftmost column of the (n-1,1) block)
    is linear R^n -> R^n; against the transform's transpose it becomes
    diagonal with two scalar blocks whose sizes are detected, not assumed.
    lambda1 scales the mean direction and equals (n-1)! * sqrt(n); lambda2
    scales the standard block and has no closed form in advance, so it is
    reported for regression pinning.
    """

    n: int
    lambda1: float
    lambda2: float
    off_structure_max: float
    block_split: tuple[int, ...]


def derive_schur_constants(n: int) -> SchurReport:
    """Measure the diagonal linking matrix and its two scalar blocks."""
    _check_cap(n)
    if n < 3:
        raise ValueError(f"scalar-block measurement needs n >= 3, got {n}")
    # Column i: leftmost columns of the kept coefficients of the indicator of i+1.
    fmat = np.empty((n, n))
    fmat[0] = _coset_sums((n,))[:, 0, 0]
    fmat[1:] = _coset_sums((n - 1, 1))[:, :, 0].T
    linking = fmat @ dense_transform(build_plan(n)).T
    diag = np.diag(linking)
    lambda1 = float(diag[0])
    lambda2 = float(diag[1:].mean())
    structured = np.diag(np.concatenate(([lambda1], np.full(n - 1, lambda2))))
    off_structure_max = float(np.max(np.abs(linking - structured)))
    split = [1]
    for prev, cur in zip(diag, diag[1:]):
        if math.isclose(prev, cur, rel_tol=1e-6, abs_tol=1e-9):
            split[-1] += 1
        else:
            split.append(1)
    return SchurReport(
        n=n,
        lambda1=lambda1,
        lambda2=lambda2,
        off_structure_max=off_structure_max,
        block_split=tuple(split),
    )

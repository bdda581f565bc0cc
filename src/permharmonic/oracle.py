"""Brute-force full-group spectral analysis for small n.

Everything here sums over all n! group elements on purpose: this module is
the ground truth the fast transform is checked against, not a fast algorithm.
It builds the orthogonal irreducible matrices for every partition from
standard tableaux and axial distances, computes full Fourier coefficient
blocks, the stabilizer-average projection, and the scalar constants tying the
full-group coefficients to the O(n) transform.

Every group sum splits S_m into the cosets c_j S_{m-1}, where c_j sends m
to j, and multiplies each coset's partial sum over S_{m-1} by D(c_j).  The
generators are kept only as sparse row updates (yor_generator densifies one
on request); they build each shape's D(c_j) once, stored side by side as
one d x m*d matrix, and every group sum then takes one matmul per shape.
The tableau basis is adapted to S_{m-1} < S_m: restricted to S_{m-1},
D(shape) is block diagonal over the shapes left by removing one corner, so
each coset's partial sum is the block diagonal of group sums one level
down, and every sum recurses down the shape's down-set.  fourier_full
recurses on the values of its function: at each level the m block
diagonals, stacked as one m*d x d column, meet the side-by-side D(c_j), so
the sum over the cosets is the matmul's own inner sum.  Lifted vectors
(constant on each coset) need only each shape's per-coset sums, which
depend on the shape alone, so there the matmul keeps the coset axis.  Both
per-shape arrays, the D(c_j) and the per-coset sums, are cached read-only
and outlive a call; over every shape up to the largest n used, each holds
(n+1)! - 1 floats (the sums one more, for the empty shape).  Each element
is counted exactly once.  The function is read once per element, at
permutations that itertools.permutations makes valid, so they skip
validation.  Group sums take a leading batch axis: verify_translation
gathers the translated function's values from the function's own and sends
both through one recursion.  The gather index is a rank: delta is applied
to every row of the cached int8 table of S_n in lexicographic order (n!*n
bytes), each row is read as a base-n number, and searchsorted finds it
among the table's own, which ascend.  It then stacks every shape's blocks
on one row axis, as _stacked_actions does the generators, and applies
delta's word once.

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

from .permutations import Permutation, _degree_error, adjacent_transposition, check_cap
from .transform import _coerced, build_plan, dense_transform

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
Action = tuple[np.ndarray, np.ndarray, np.ndarray]

# Least n of derive_schur_constants: at n = 2 its two scalars coincide.
SCHUR_MIN_N = 3
_TRANSLATION_TOL = 1e-9  # verify_translation's bound on each block's deviation


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


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    out: list[Partition] = []

    def descend(remaining: int, largest: int, prefix: Partition) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(n, n, ())
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order: (n) first, (1,...,1) last."""
    check_cap(n)
    return list(_partitions(n))


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
    """All standard fillings of shape: rows and columns strictly increasing.

    The basis order of every matrix here.  Among tableaux of the same shape,
    the one whose largest value sits in a lower row comes first, and ties
    recurse on the filling of 1..n-1.  shape must already be valid.
    """
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


@lru_cache(maxsize=None)
def _actions(shape: Partition) -> tuple[Action, ...]:
    """Sparse rows of yor_generator(shape, k), k = 1..n-1, as read-only (diag, pair, off).

    Row i holds diag[i] on the diagonal and off[i] in column pair[i], read
    straight from the tableaux; rows with no partner read partner 0 with
    weight 0.
    """
    ts = _tableaux(shape)
    index = {t: i for i, t in enumerate(ts)}
    positions = [{v: (r, c) for r, row in enumerate(t) for c, v in enumerate(row)} for t in ts]
    actions = []
    for k in range(1, sum(shape)):
        diag, pair, off = np.empty(len(ts)), np.zeros(len(ts), dtype=np.intp), np.zeros(len(ts))
        swap = {k: k + 1, k + 1: k}
        for i, (t, pos) in enumerate(zip(ts, positions)):
            (r1, c1), (r2, c2) = pos[k], pos[k + 1]
            axial = (c2 - c1) - (r2 - r1)
            diag[i] = 1.0 / axial
            if r1 != r2 and c1 != c2:
                pair[i] = index[tuple(tuple(swap.get(v, v) for v in row) for row in t)]
                off[i] = math.sqrt(1.0 - 1.0 / (axial * axial))
        for arr in (diag, pair, off):
            arr.setflags(write=False)
        actions.append((diag, pair, off))
    return tuple(actions)


@lru_cache(maxsize=None)
def _stacked_actions(n: int) -> tuple[tuple[Action, ...], np.ndarray]:
    """_actions of n's shapes on one row axis, partners offset by their shape's first row (starts); read-only."""
    shapes = _partitions(n)
    starts = np.cumsum([0] + [len(_tableaux(shape)) for shape in shapes[:-1]])
    stacked = []
    for generator in zip(*(_actions(shape) for shape in shapes)):
        rows = [(diag, pair + start, off) for (diag, pair, off), start in zip(generator, starts)]
        stacked.append(tuple(np.concatenate(column) for column in zip(*rows)))
    for arr in (starts, *itertools.chain.from_iterable(stacked)):
        arr.setflags(write=False)
    return tuple(stacked), starts


def _act(action: Action, rows: np.ndarray) -> None:
    """rows <- G @ rows in place along axis -2, for G a generator in _actions form."""
    diag, pair, off = action
    partner = rows.take(pair, axis=-2)
    partner *= off[:, None]
    rows *= diag[:, None]
    rows += partner


def yor_generator(shape: Partition, k: int) -> np.ndarray:
    """Orthogonal matrix of the adjacent transposition tau_k on shape's tableaux.

    Rows/columns follow _tableaux(shape).  For tableau t with axial
    distance r between k and k+1 (column difference minus row difference),
    the diagonal entry is 1/r; if exchanging k and k+1 keeps t standard, the
    entry pairing the two tableaux is sqrt(1 - 1/r^2).  Every other entry is
    zero.  A fresh dense array on each call, kept as a reference.
    """
    return yor_matrix(shape, adjacent_transposition(validate_partition(shape), k))


def yor_matrix(shape: Partition, sigma: Permutation) -> np.ndarray:
    """Orthogonal matrix of sigma on shape's tableaux: its word's generators applied to I."""
    n = validate_partition(shape)
    if sigma.n != n:
        raise _degree_error(sigma, n)
    mat = np.eye(len(_tableaux(shape)))
    actions = _actions(shape)
    for k in reversed(sigma.decompose_adjacent()):
        _act(actions[k - 1], mat)
    return mat


@lru_cache(maxsize=None)
def _coset_matrices(shape: Partition) -> np.ndarray:
    """D(shape, c_j) stacked for j = 1..m, read-only, with c_j = tau_j ... tau_{m-1}.

    Built by the chain D(c_m) = I, D(c_j) = G_j D(c_{j+1}): one generator
    row action per coset.  Stored side by side, as the (d, m*d) matrix
    [D(c_1) ... D(c_m)] that _coset_total reads; the stack is a view of it.
    """
    m, d = sum(shape), len(_tableaux(shape))
    out = np.empty((d, m, d)).transpose(1, 0, 2)
    out[-1] = np.eye(d)
    actions = _actions(shape)
    for j in range(m - 1, 0, -1):
        out[j - 1] = out[j]
        _act(actions[j - 1], out[j - 1])
    out.setflags(write=False)
    return out


def _block_diagonal(shape: Partition, sums: list[np.ndarray], lead: tuple[int, ...]) -> np.ndarray:
    """sums[i], one group sum over S_{m-1} per corner removal of shape, on the diagonal of (*lead, d, d) zeros."""
    d = len(_tableaux(shape))
    blocks = np.zeros(lead + (d, d))
    start = 0
    for s in sums:
        stop = start + s.shape[-1]
        blocks[..., start:stop, start:stop] = s
        start = stop
    return blocks


def _coset_stack(shape: Partition, sums: list[np.ndarray]) -> np.ndarray:
    """Per-coset sums over S_m, from one group sum over S_{m-1} per corner removal.

    sums[i] belongs to the i-th shape of _removals(shape) and carries the
    coset axis j last among its leading axes, or is broadcast along it;
    axes before it are batch axes.  Their block diagonal is D(shape) summed
    over S_{m-1}.  S_m is the disjoint union of the cosets c_j S_{m-1}, with
    c_j sending m to j, so D(c_j) times the j-th block diagonal is the sum
    over c_j S_{m-1}: one matmul by the cached _coset_matrices stack.
    """
    lead = np.broadcast_shapes(*(s.shape[:-2] for s in sums))
    return np.matmul(_coset_matrices(shape), _block_diagonal(shape, sums, lead))


def _coset_total(shape: Partition, sums: list[np.ndarray]) -> np.ndarray:
    """_coset_stack(shape, sums) summed over the coset axis j, by one matmul.

    Every sums[i] carries the coset axis, all with the same leading axes.
    The m block diagonals, stacked as one (m*d, d) column, meet the D(c_j)
    side by side, so the matmul's inner sum runs over j too.
    """
    blocks = _block_diagonal(shape, sums, sums[0].shape[:-2])
    *lead, m, d, _ = blocks.shape
    row = _coset_matrices(shape).transpose(1, 0, 2).reshape(d, m * d)  # a view, no copy
    return np.matmul(row, blocks.reshape(*lead, m * d, d))


@lru_cache(maxsize=None)
def _coset_sums(shape: Partition) -> np.ndarray:
    """Sum of D(shape, sigma) over {sigma : sigma(m) = j}, stacked for j = 1..m, read-only.

    ones((1, 1, 1)) for the empty shape; summed over j, the total over S_m.
    """
    sums = [_coset_sums(mu).sum(axis=0) for _, mu in _removals(shape)]
    stack = _coset_stack(shape, sums) if shape else np.ones((1, 1, 1))
    stack.setflags(write=False)
    return stack


def lift(f: np.ndarray) -> Callable[[Permutation], float]:
    """Turn a length-n vector into the group function sigma -> f(sigma(n)).

    The result is constant on left cosets of the subgroup fixing n, which is
    what makes its Fourier coefficients vanish outside the top two partitions.
    f is read by the transform's dtype rule, real input only, and copied.
    """
    arr = _coerced(f, real=True)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    n, values = arr.shape[0], arr.tolist()

    def lifted(sigma: Permutation) -> float:
        if len(sigma.images) != n:
            raise _degree_error(sigma, n)
        return values[sigma.images[-1] - 1]

    return lifted


def _values(func: Callable[[Permutation], float], n: int) -> list[float]:
    """func at every sigma in S_n, in coset order.

    That is the lexicographic order of sigma's images read from n down to 1,
    as itertools.permutations yields them.
    """
    trusted = Permutation._trusted
    return [func(trusted(w[::-1])) for w in itertools.permutations(range(1, n + 1))]


@lru_cache(maxsize=None)
def _lex_table(n: int) -> np.ndarray:
    """Every permutation of 0..n-1 in lexicographic order, one per row: (n!, n) int8, read-only.

    Row p is the p-th tuple of itertools.permutations(range(n)).  Built a
    value at a time: the rows for 0..m-1 are, for each head a in turn, a
    followed by the rows for 0..m-2 with every entry >= a raised by one.
    """
    table = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):
        heads = np.arange(m, dtype=np.int8)[:, None, None]
        tails = table + (table >= heads)
        table = np.concatenate((np.broadcast_to(heads, (m, len(table), 1)), tails), axis=-1).reshape(-1, m)
    table.setflags(write=False)
    return table


def _translate(values: np.ndarray, delta: Permutation) -> np.ndarray:
    """Values of sigma -> func(delta sigma) in coset order, gathered from func's values.

    Row p of _lex_table(n) holds the images of the p-th sigma in coset
    order, read from n down to 1 and less one; delta applied to that row
    holds delta sigma's, read the same way, and its lexicographic rank is
    where func's values hold func(delta sigma).  The rank is found by
    reading each row as a base-n number: lexicographic order is the order of
    those numbers, so the table's own are ascending and searchsorted ranks
    the moved rows among them.  n**n fits int64 for every n whose table
    fits in memory.
    """
    n = delta.n
    table = _lex_table(n)
    place = n ** np.arange(n - 1, -1, -1)
    moved = np.take(np.array(delta.images, dtype=np.int8) - 1, table)
    return values[np.searchsorted(table @ place, moved @ place)]


def _group_sums(values: np.ndarray, n: int) -> dict[Partition, np.ndarray]:
    """sum_sigma values[..., sigma] * D(shape, sigma) over S_n, every shape.

    values holds n! entries in _values' coset order along its last axis;
    axes before it are batch axes, kept in every sum.  sigma = c_{j_n} ...
    c_{j_2}, with c_{j_m} in S_m sending m to j_m, sits at the position of
    (j_n, ..., j_2) in lexicographic order.  For m = 1..n, the sums over S_m
    at every shape of m are formed for each choice of the outer cosets
    j_n..j_{m+1}, from those at the shape's corner removals one level down.
    Cost O(n! * n^3) per batch entry.
    """
    sums = {(): values.reshape(values.shape[:-1] + tuple(range(n, 0, -1)) + (1, 1))}
    for m in range(1, n + 1):
        sums = {shape: _coset_total(shape, [sums[mu] for _, mu in _removals(shape)]) for shape in _partitions(m)}
    return sums


def fourier_full(func: Callable[[Permutation], float], n: int) -> dict[Partition, np.ndarray]:
    """Fourier coefficients sum_sigma func(sigma) * D(shape, sigma), every shape."""
    check_cap(n)
    return _group_sums(np.array(_values(func, n), dtype=float), n)


def _lifted_block(arr: np.ndarray, shape: Partition) -> np.ndarray:
    """lift(arr)'s coefficient block at shape: sum_j arr[j-1] times shape's j-th coset sum."""
    sums = _coset_sums(shape)
    return (arr @ sums.reshape(len(arr), -1)).reshape(sums.shape[1:])


def _lifted_input(f: np.ndarray) -> np.ndarray:
    arr = _coerced(f, real=True)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ValueError(f"expected a 1-D vector of length >= 2, got shape {arr.shape}")
    check_cap(arr.shape[0])
    return arr


def fourier_standard_block(f: np.ndarray) -> np.ndarray:
    """Coefficient block of the lifted f at shape (n-1,1), in the explicit basis.

    lift(f) is f[j-1] on the whole coset {sigma : sigma(n) = j}, so the block
    is sum_j f[j-1] times that coset's sum of D.  Column structure (unlike
    vanishing) depends on the basis; the tableau generators at (n-1,1) are
    bitwise those of yor.py, so this is the explicit basis.
    """
    arr = _lifted_input(f)
    return _lifted_block(arr, (arr.shape[0] - 1, 1))


def stabilizer_projection(shape: Partition) -> np.ndarray:
    """Average of D(shape, delta)^t over the subgroup fixing n.

    Idempotent.  For shape (n-1,1), in the explicit basis of yor.py, it has a
    single unit entry at (1,1); for shapes other than (n) and (n-1,1) it
    vanishes outright, in any basis.
    """
    n = validate_partition(shape)
    check_cap(n)
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
    coeffs = {shape: _lifted_block(arr, shape) for shape in _partitions(n)}
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


def _translation_sums(
    func: Callable[[Permutation], float], delta: Permutation
) -> dict[Partition, np.ndarray]:
    """(F, G) stacked per shape: the group sums of func and of g = func(delta . sigma).

    func is read once per element; g's values are gathered from those, and
    both run through one recursion with a leading batch axis of 2.
    """
    values = np.array(_values(func, delta.n), dtype=float)
    return _group_sums(np.stack((values, _translate(values, delta))), delta.n)


def verify_translation(
    func: Callable[[Permutation], float], delta: Permutation, n: int
) -> TranslationReport:
    """Check the shift rule: g = func(delta . sigma) has G = D(delta)^t F blockwise."""
    if delta.n != n:
        raise _degree_error(delta, n)
    check_cap(n)  # before delta's Theta(n^2) word
    word = delta.decompose_adjacent()
    sums = _translation_sums(func, delta)
    actions, starts = _stacked_actions(n)
    dims = [block.shape[-1] for block in sums.values()]
    # Every shape's F and G on one row axis, zero-padded to the widest shape: the padding stays 0.
    predicted, shifted = stack = np.zeros((2, sum(dims), max(dims)))
    for start, d, block in zip(starts, dims, sums.values()):
        stack[:, start : start + d, :d] = block
    for k in word:  # D(delta)^t: the word's symmetric generators, first letter first
        _act(actions[k - 1], predicted)
    worst = np.maximum.reduceat(np.abs(shifted - predicted).max(axis=-1), starts)
    deviations = dict(zip(sums, worst.tolist()))
    max_deviation = max(deviations.values())
    passed = max_deviation <= _TRANSLATION_TOL
    return TranslationReport(n=n, deviations=deviations, max_deviation=max_deviation, passed=passed)


@dataclass(frozen=True)
class SchurReport:
    """Scalars linking full-group coefficients of lifted vectors to the fast transform.

    The map x -> (coefficient at (n), leftmost column of the (n-1,1) block)
    is linear R^n -> R^n; against the transform's transpose it becomes
    diagonal with two scalar blocks whose sizes are detected, not assumed.
    lambda1 scales the mean direction and equals (n-1)! * sqrt(n); lambda2
    scales the standard block and equals (n-1)! * sqrt(n/(n-1)); both are
    measured, and verify.schur_checks compares them with these forms.
    """

    n: int
    lambda1: float
    lambda2: float
    off_structure_max: float
    block_split: tuple[int, ...]


def derive_schur_constants(n: int) -> SchurReport:
    """Measure the diagonal linking matrix and its two scalar blocks."""
    check_cap(n)
    if n < SCHUR_MIN_N:
        raise ValueError(f"scalar-block measurement needs n >= {SCHUR_MIN_N}, got {n}")
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

"""Permutations of {1, ..., n} in one-line notation.

Conventions, used uniformly across the package:

* Images are 1-based: ``Permutation((2, 3, 1))`` maps 1 -> 2, 2 -> 3, 3 -> 1.
  Storage is a plain tuple indexed 0-based, so ``images[i - 1] == sigma(i)``.
* Composition is function composition: ``compose(a, b)(i) == a(b(i))``.
* The vector action ``y = sigma.apply_to_vector(x)`` sets ``y(i) = x(sigma(i))``,
  i.e. ``y = P(sigma) x`` for the permutation matrix ``P(sigma)_{ij} = [sigma(i) == j]``.
  Chaining therefore reverses order (``sigma -> P(sigma)`` is an antihomomorphism):
  ``compose(a, b).apply_to_vector(x) == b.apply_to_vector(a.apply_to_vector(x))``.

Text format: space-separated 1-based images, e.g. ``"2 3 1"``.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations as _lex_permutations
from typing import Iterator, Sequence

import numpy as np

ORACLE_CAP_ENV = "PERMHARMONIC_ORACLE_CAP"
DEFAULT_ORACLE_CAP = 8


class OracleCapExceeded(ValueError):
    """Exhaustive enumeration was requested for an n above the configured cap."""


def oracle_cap() -> int:
    """Cap for exhaustive group enumeration; env PERMHARMONIC_ORACLE_CAP, default 8."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{ORACLE_CAP_ENV} must be >= 1, got {cap}")
    return cap


def check_cap(n: int) -> None:
    """Refuse a whole-group operation on S_n unless 1 <= n <= oracle_cap()."""
    if n < 1:
        raise ValueError(f"group degree must be positive, got {n}")
    cap = oracle_cap()
    if n > cap:
        raise OracleCapExceeded(f"n={n} exceeds the oracle cap {cap}; set {ORACLE_CAP_ENV}")


@dataclass(frozen=True)
class Permutation:
    """A permutation sigma of {1, ..., n}, stored as its image tuple sigma(1..n)."""

    images: tuple[int, ...]

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Skip validation: images must already be a tuple of ints forming a bijection of 1..n."""
        sigma = object.__new__(cls)
        object.__setattr__(sigma, "images", images)
        return sigma

    def __post_init__(self) -> None:
        images = tuple(map(operator.index, self.images))
        object.__setattr__(self, "images", images)
        n = len(images)
        if n < 1:
            raise ValueError("a permutation needs n >= 1")
        # n distinct integers from 1 to n: O(n), with no sort
        if min(images) != 1 or max(images) != n or len(set(images)) != n:
            raise ValueError(f"images {images} are not a bijection on 1..{n}")

    @property
    def n(self) -> int:
        return len(self.images)

    @cached_property
    def _is_identity(self) -> bool:
        """Whether sigma fixes every point: one pass on first use, then a stored bool, never an array."""
        return all(map(operator.eq, self.images, range(1, self.n + 1)))

    def apply_to_vector(self, x: Sequence | np.ndarray) -> np.ndarray:
        """Permute coordinates: returns y with y(i) = x(sigma(i)).

        Pure reindexing, exact for any dtype.
        """
        arr = np.asarray(x)
        if arr.ndim != 1 or arr.shape[0] != self.n:
            raise ValueError(f"expected a vector of length {self.n}, got shape {arr.shape}")
        return arr[_image_index(self, self.n)]

    def decompose_adjacent(self) -> tuple[int, ...]:
        """An adjacent-transposition word (k_1, ..., k_m) whose product is sigma.

        Folding tau_{k_1}, ..., tau_{k_m} with compose, left to right, gives
        sigma.  The letters are _sort_rounds' swaps in order: a reduced word,
        as long as the inversion count, at most n(n-1)/2.

        >>> Permutation((3, 2, 1)).decompose_adjacent()
        (1, 2, 1)
        """
        _, j = np.nonzero([*_sort_rounds(_image_index(self, self.n))])
        return tuple((j + 1).tolist())

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def _sort_rounds(index: np.ndarray) -> Iterator[np.ndarray]:
    """Odd-even transposition sort of the inverses of 0-based image rows (..., n).

    Yields a (..., n-1) swap mask per round until every row is sorted, at most
    n rounds: round r swaps each pair (j, j+1), j = r mod 2, set in its mask.
    Each swap removes one inversion, so the letters j + 1, round by round, are
    a reduced word of sigma (Knuth, TAOCP vol. 3, 5.3.4).
    """
    n = index.shape[-1]
    rows = np.argsort(index, axis=-1)
    for r in range(n):
        left, right = rows[..., r % 2 : n - 1 : 2], rows[..., r % 2 + 1 :: 2]
        mask = np.zeros_like(rows[..., 1:], dtype=bool)
        mask[..., r % 2 :: 2] = left > right
        left[...], right[...] = np.minimum(left, right), np.maximum(left, right)
        yield mask
        if not np.count_nonzero(rows[..., 1:] < rows[..., :-1]):
            return


def _degree_error(sigma: Permutation, n: int) -> ValueError:
    """The package's one refusal of a permutation that does not live in S_n."""
    return ValueError(f"permutation has degree {sigma.n}, expected {n}")


def _image_index(sigma: Permutation | np.ndarray, n: int) -> np.ndarray:
    """The one gather index: sigma's images as 0-based intp, (n,) or validated rows (..., n)."""
    if isinstance(sigma, Permutation):
        if sigma.n != n:
            raise _degree_error(sigma, n)
        index = np.fromiter(sigma.images, np.intp, n)
        index -= 1
        return index
    images = np.asarray(sigma)
    if images.dtype.kind not in "iu":
        raise TypeError(f"permutation images must be integers, got dtype {images.dtype}")
    if images.ndim == 0 or images.shape[-1] != n:
        raise ValueError(f"expected image rows of length {n}, got shape {images.shape}")
    index = images.astype(np.intp) - 1
    if not np.array_equal(np.sort(index, axis=-1), np.broadcast_to(np.arange(n), index.shape)):
        raise ValueError(f"image rows must each be a bijection on 1..{n}")
    return index


def adjacent_transposition(n: int, k: int) -> Permutation:
    """tau_k in S_n: swaps k and k+1, fixes everything else."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"adjacent transposition needs 1 <= k <= n-1, got k={k}, n={n}")
    images = list(range(1, n + 1))
    images[k - 1], images[k] = images[k], images[k - 1]
    return Permutation(tuple(images))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """compose(a, b)(i) = a(b(i)).  Both factors must live in the same S_n.

    >>> compose(Permutation((2, 1, 3)), Permutation((1, 3, 2))).images
    (2, 3, 1)
    """
    if a.n != b.n:
        raise ValueError(f"cannot compose permutations of different sizes ({a.n} vs {b.n})")
    return Permutation(tuple(a.images[v - 1] for v in b.images))


def from_one_line(text: str) -> Permutation:
    """Parse one-line notation: whitespace- or comma-separated 1-based images."""
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty permutation string")
    try:
        images = tuple(map(int, parts))
    except ValueError as exc:
        raise ValueError(f"cannot parse permutation from {text!r}") from exc
    return Permutation(images)


def enumerate_group(n: int) -> Iterator[Permutation]:
    """All n! permutations, in lexicographic order of their image tuples.

    Guarded by oracle_cap() since the output size is n!.
    """
    check_cap(n)
    return map(Permutation._trusted, _lex_permutations(range(1, n + 1)))  # bijections already: no second check


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    if n < 1:
        raise ValueError("a permutation needs n >= 1")
    # numpy's permutation of 0..n-1 is a bijection already: no second check
    return Permutation._trusted(tuple((rng.permutation(n) + 1).tolist()))

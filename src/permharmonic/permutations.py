"""Permutations of {1, ..., n} in one-line notation.

Conventions, used uniformly across the package:

* Images are 1-based: ``Permutation((2, 3, 1))`` maps 1 -> 2, 2 -> 3, 3 -> 1.
  Storage is a plain tuple indexed 0-based, so ``images[i - 1] == sigma(i)``.
* Composition is function composition: ``(a * b)(i) == a(b(i))``.
* The vector action ``y = sigma.apply_to_vector(x)`` sets ``y(i) = x(sigma(i))``,
  i.e. ``y = P(sigma) x`` for the permutation matrix ``P(sigma)_{ij} = [sigma(i) == j]``.
  Chaining therefore reverses order (``sigma -> P(sigma)`` is an antihomomorphism):
  ``(a * b).apply_to_vector(x) == b.apply_to_vector(a.apply_to_vector(x))``.

Text format: space-separated 1-based images, e.g. ``"2 3 1"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from itertools import permutations as _lex_permutations
from typing import Iterable, Iterator, Sequence

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


@dataclass(frozen=True)
class Permutation:
    """A permutation sigma of {1, ..., n}, stored as its image tuple sigma(1..n)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(v) for v in self.images)
        object.__setattr__(self, "images", images)
        if len(images) < 1:
            raise ValueError("a permutation needs n >= 1")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"images {images} are not a bijection on 1..{len(images)}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """sigma(i), 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"argument {i} outside 1..{self.n}")
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd: the parity of n minus the cycle count, O(n)."""
        seen = [False] * self.n
        cycles = 0
        for start in range(self.n):
            if not seen[start]:
                cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.images[i] - 1
        return -1 if (self.n - cycles) % 2 else 1

    def apply_to_vector(self, x: Sequence | np.ndarray) -> np.ndarray:
        """Permute coordinates: returns y with y(i) = x(sigma(i)).

        Pure reindexing, exact for any dtype.
        """
        arr = np.asarray(x)
        if arr.ndim != 1 or arr.shape[0] != self.n:
            raise ValueError(f"expected a vector of length {self.n}, got shape {arr.shape}")
        idx = np.array(self.images, dtype=np.intp) - 1
        return arr[idx]

    def decompose_adjacent(self) -> tuple[int, ...]:
        """An adjacent-transposition word (k_1, ..., k_m) whose product is sigma.

        Evaluating tau_{k_1} * tau_{k_2} * ... * tau_{k_m} under the composition
        convention reproduces sigma.  Deterministic bubble-sort construction;
        the word length equals the inversion count, so it never exceeds n(n-1)/2.

        >>> Permutation((3, 2, 1)).decompose_adjacent()
        (1, 2, 1)
        """
        w = list(self.images)
        swaps: list[int] = []
        changed = True
        while changed:
            changed = False
            for j in range(len(w) - 1):
                if w[j] > w[j + 1]:
                    w[j], w[j + 1] = w[j + 1], w[j]
                    swaps.append(j + 1)
                    changed = True
        return tuple(reversed(swaps))

    def one_line(self) -> str:
        """One-line text form, e.g. '2 3 1'."""
        return " ".join(str(v) for v in self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def adjacent_transposition(n: int, k: int) -> Permutation:
    """tau_k in S_n: swaps k and k+1, fixes everything else."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"adjacent transposition needs 1 <= k <= n-1, got k={k}, n={n}")
    images = list(range(1, n + 1))
    images[k - 1], images[k] = images[k], images[k - 1]
    return Permutation(tuple(images))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a * b)(i) = a(b(i)).  Both factors must live in the same S_n.

    >>> compose(Permutation((2, 1, 3)), Permutation((1, 3, 2))).images
    (2, 3, 1)
    """
    if a.n != b.n:
        raise ValueError(f"cannot compose permutations of different sizes ({a.n} vs {b.n})")
    return Permutation(tuple(a.images[v - 1] for v in b.images))


def evaluate_word(n: int, word: Iterable[int]) -> Permutation:
    """Product tau_{k_1} * ... * tau_{k_m} of adjacent transpositions in S_n."""
    return reduce(compose, (adjacent_transposition(n, k) for k in word), identity(n))


def from_one_line(text: str) -> Permutation:
    """Parse one-line notation: whitespace- or comma-separated 1-based images."""
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty permutation string")
    try:
        images = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse permutation from {text!r}") from exc
    return Permutation(images)


def enumerate_group(n: int) -> Iterator[Permutation]:
    """All n! permutations, in lexicographic order of their image tuples.

    Guarded by oracle_cap() since the output size is n!.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = oracle_cap()
    if n > cap:
        raise OracleCapExceeded(
            f"enumerate_group(n={n}) exceeds the oracle cap {cap}; "
            f"override with {ORACLE_CAP_ENV} if you really want n! = huge"
        )

    def gen() -> Iterator[Permutation]:
        for images in _lex_permutations(range(1, n + 1)):
            yield Permutation(images)

    return gen()


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))

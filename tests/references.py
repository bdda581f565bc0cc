"""The tests' own permutation algebra: references the library does not export.

Each is written from its definition and reads no permharmonic arithmetic
beyond Permutation's validation, adjacent_transposition and compose, which
the word product folds over.
"""

from functools import reduce

from permharmonic.permutations import Permutation, adjacent_transposition, compose


def identity(n):
    return Permutation(tuple(range(1, n + 1)))


def inverse(sigma):
    """sigma^-1: position i goes to the slot sigma(i)."""
    images = [0] * sigma.n
    for i, v in enumerate(sigma.images, start=1):
        images[v - 1] = i
    return Permutation(tuple(images))


def sign(sigma):
    """+1 or -1 by the parity of the inversion count, O(n^2)."""
    images = sigma.images
    inversions = sum(a > b for i, a in enumerate(images) for b in images[i + 1 :])
    return -1 if inversions % 2 else 1


def word_product(n, word):
    """tau_{k_1} tau_{k_2} ... tau_{k_m} in S_n, folded with compose from the identity."""
    return reduce(compose, (adjacent_transposition(n, k) for k in word), identity(n))

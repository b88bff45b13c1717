"""Group operations on `Permutation`s that only the tests use.

The library acts with a permutation on cells and never composes or
inverts one; the tests check its action against these.
"""

from partition_ot import Permutation


def compose(s, t):
    """s after t: k goes to s.images[t.images[k - 1] - 1]."""
    return Permutation(tuple(s.images[k - 1] for k in t.images))


def inverse(s):
    inv = [0] * s.size
    for k, img in enumerate(s.images, start=1):
        inv[img - 1] = k
    return Permutation(inv)


def is_identity(s):
    return s == Permutation.identity(s.size)

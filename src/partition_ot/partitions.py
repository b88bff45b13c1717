"""m-dimensional integer partitions and their unit-cell diagrams.

A partition is a ragged nested array of positive parts, weakly decreasing
along every index axis (`MultiPartition`), checked when it is built.  Its
stacked-cube diagram is a set of lattice cells, (m+1)-tuples of
non-negative integers: coordinate 0 counts the stacked units above an index
position and coordinates 1..m are the 0-based array indices.  A set of
cells is a diagram exactly when it is a down-set: closed under decreasing
any coordinate.  The one cell form is the sorted cell tuple a partition
carries as `cells`, built once with the partition; `measures.measure_of`
returns it and `from_cells` turns cells back into a partition.

Coordinate permutations act on cells through `apply_permutation` and on
partitions through `symmetrize`; a partition fixed by a permutation is
detected by `is_self_symmetric`.  `MultiPartition`, `Permutation` and
`transport.CostMatrix` are immutable values on one plain base, `_Frozen`;
the package's records are named tuples.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .errors import (
    EnumerationTooLargeError,
    InstanceTooLargeError,
    NonPositiveEntryError,
    NotDownSetError,
    NotMonotoneError,
    SizeMismatchError,
)

# Enumeration refuses n above these cell counts unless overridden.
DEFAULT_MAX_CELLS = {1: 12, 2: 12}
FALLBACK_MAX_CELLS = 8  # m >= 3
# Large m lowers the default: it admits n while comb(m + n - 1, n - 1)
# partitions of m * n build steps each stay within this estimate.  m = 400,
# n = 2 (320,800) took 0.59 s, m = 30, n = 5 (6,956,400) 8 s and m = 400,
# n = 3 172 s, with Python 3.11 on a shared 2-CPU VM.
MAX_ENUMERATION_WORK = 400_000
# Enumeration refuses larger m: building and printing a partition
# recurse once per dimension, and m = 500 already exceeded Python's default
# recursion limit of 1000 frames.
MAX_DIMENSION = 400


def default_max_cells(m):
    """The largest n that enumeration admits at dimension m by default."""
    n = DEFAULT_MAX_CELLS.get(m, FALLBACK_MAX_CELLS)
    while n > 1 and math.comb(m + n - 1, n - 1) * m * n > MAX_ENUMERATION_WORK:
        n -= 1
    return n


class _Frozen:
    """Immutable value whose ==, hash and repr read the fields in `_fields`.

    As a frozen dataclass's would, without importing `dataclasses`.  Other
    attributes, such as `MultiPartition.cells`, stay out of all three.
    """

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MultiPartition(_Frozen):
    """Ragged array of positive integer parts summing to n.

    `entries` is a nested tuple of depth `m` with the parts at the leaves.
    Index tuples are 1-based; the index support is a down-set and the parts
    weakly decrease along every axis.  The constructor checks all of this,
    and that n is the sum of the parts, to which n defaults.  It raises
    ValueError for a bad m or n, and NonPositiveEntryError, NotDownSetError
    or NotMonotoneError for bad entries.  `cells` is the diagram as a sorted
    tuple of cells, set once the entries pass; repr, == and hash ignore it.
    """

    _fields = ("m", "entries", "n")

    def __init__(self, m, entries, n=None):
        parts = dict(_checked_leaves(m, entries))
        for idx, part in parts.items():
            for j in range(m):
                if idx[j] > 1:
                    below = idx[:j] + (idx[j] - 1,) + idx[j + 1 :]
                    if below not in parts:
                        raise NotDownSetError(
                            f"index {idx} present but {below} missing"
                        )
                    if part > parts[below]:
                        raise NotMonotoneError(
                            f"part {part} at {idx} exceeds part {parts[below]} at {below}"
                        )
        total = sum(parts.values())
        if n is None:
            n = total
        elif not _is_int(n) or n != total:
            raise ValueError(f"n={n!r} is not the sum {total} of the parts")
        cells = _sorted_cells(m, entries)
        self.__dict__.update(m=m, entries=entries, n=n, cells=cells)

    @classmethod
    def _unchecked(cls, m, entries, n, cells):
        """A partition the library built valid, made without the check."""
        p = object.__new__(cls)
        p.__dict__.update(m=m, entries=entries, n=n, cells=cells)
        return p

    def items(self):
        """Yield ((i_1, ..., i_m), part) pairs in index order, 1-based."""
        yield from _leaves(self.entries, self.m, 1)

    def __str__(self):
        return str(_listify(self.entries))


class Permutation(_Frozen):
    """Element of the symmetric group on {1, ..., size}, one-line notation.

    `images[k]` is the image of k + 1.  `apply_to_cell(cell)` permutes the
    coordinates of a cell tuple: the value at coordinate k - 1 (axis k)
    moves to coordinate images[k - 1] - 1.
    """

    _fields = ("images",)

    def __init__(self, images):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        self.__dict__.update(images=images, apply_to_cell=_cell_action(images))

    @property
    def size(self):
        return len(self.images)

    @classmethod
    def identity(cls, size):
        return cls(tuple(range(1, size + 1)))

    @classmethod
    def from_one_line(cls, text):
        """Parse one-line notation: "2 1" sends 1 to 2 and 2 to 1."""
        try:
            images = tuple(int(tok) for tok in text.replace(",", " ").split())
        except ValueError:
            raise ValueError(f"cannot parse permutation {text!r}") from None
        if not images:
            raise ValueError("empty permutation string")
        return cls(images)

    def one_line(self):
        return " ".join(str(i) for i in self.images)

    def __call__(self, k):
        return self.images[k - 1]

    def compose(self, other):
        """self after other: self.compose(other)(k) = self(other(k))."""
        return Permutation(
            tuple(self.images[other.images[k] - 1] for k in range(self.size))
        )

    def inverse(self):
        inv = [0] * self.size
        for k, img in enumerate(self.images, start=1):
            inv[img - 1] = k
        return Permutation(tuple(inv))

    def is_identity(self):
        return all(img == k for k, img in enumerate(self.images, start=1))

    def is_involution(self):
        return all(self.images[img - 1] == k for k, img in enumerate(self.images, 1))


def _cell_action(images):
    """The cell map of the permutation with one-line `images`.

    An itemgetter that reads coordinate j of the image from the coordinate
    sent to j.  `itemgetter(0)` returns a scalar, so size 1, the identity,
    maps a cell to itself.
    """
    sources = sorted(range(len(images)), key=images.__getitem__)
    return operator.itemgetter(*sources) if len(sources) > 1 else tuple


def all_permutations(size):
    """Every element of the symmetric group, sorted by one-line images."""
    return [Permutation(p) for p in itertools.permutations(range(1, size + 1))]


def involutions(size):
    """Permutations equal to their own inverse, identity included."""
    return [s for s in all_permutations(size) if s.is_involution()]


# ---------------------------------------------------------------------------
# array form


def validate_array(raw, m):
    """Wrap a ragged nested sequence of depth m as a partition.

    The sequences become tuples and `MultiPartition` checks the result: it
    raises NonPositiveEntryError, NotDownSetError, or NotMonotoneError when
    the array is not a valid m-dimensional partition.
    """
    return MultiPartition(m, _freeze(raw, m))


def to_json(p):
    """JSON document form: {"m": ..., "entries": ...} with plain lists."""
    return {"m": p.m, "entries": _listify(p.entries)}


def from_json(doc):
    """Inverse of `to_json`; m must be a JSON integer."""
    if not isinstance(doc, dict):
        raise ValueError(f"partition JSON must be an object, got {type(doc).__name__}")
    for key in ("m", "entries"):
        if key not in doc:
            raise ValueError(f"partition JSON has no {key!r} key")
    return validate_array(doc["entries"], doc["m"])


def _has_length(obj):
    return hasattr(obj, "__len__") and not isinstance(obj, (str, bytes))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _freeze(node, depth):
    """`node` with its sequences down to `depth` levels turned into tuples.

    A depth that is no integer freezes nothing: the constructor rejects it.
    """
    if not _is_int(depth) or depth < 1 or not _has_length(node):
        return node
    return tuple(_freeze(child, depth - 1) for child in node)


def _checked_leaves(m, entries):
    """`_leaves(entries, m, 1)`, raising where the shape or a part is bad.

    m must be an integer >= 1, every node above the parts a non-empty
    tuple, and every part an integer >= 1.
    """
    if not _is_int(m):
        raise ValueError(f"dimension m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    if not isinstance(entries, tuple) or not entries:
        raise NonPositiveEntryError("a partition needs at least one positive part")
    level = [((), entries)]
    for _ in range(m):
        below = []
        for where, node in level:
            if not isinstance(node, tuple):
                raise NonPositiveEntryError(
                    f"expected a sequence at {where}, got {node!r}"
                )
            if not node:
                raise NotDownSetError(f"empty sub-array at index {where}")
            below.extend((where + (i,), child) for i, child in enumerate(node, 1))
        level = below
    for where, part in level:
        if not _is_int(part):
            raise NonPositiveEntryError(f"part at {where} is not an integer: {part!r}")
        if part < 1:
            raise NonPositiveEntryError(f"part at {where} must be >= 1, got {part}")
    return level


def _leaves(entries, depth, start):
    """(index tuple, part) pairs of a depth-`depth` nested tuple, in index order.

    Indices count from `start`.  One level at a time, each node's children
    in order, so the last level lists the leaves in lexicographic index
    order, with no recursion.
    """
    level = [((), entries)]
    for _ in range(depth):
        level = [
            (prefix + (i,), child)
            for prefix, node in level
            for i, child in enumerate(node, start)
        ]
    return level


def _listify(node):
    if isinstance(node, tuple):
        return [_listify(child) for child in node]
    return node


# ---------------------------------------------------------------------------
# cell form


def _sorted_cells(m, entries):
    """The diagram cells of `entries`, sorted: by height, then index order."""
    cells = []
    level = _leaves(entries, m, 0)
    height = 0
    while level:
        cells.extend((height,) + base for base, _ in level)
        height += 1
        level = [(base, part) for base, part in level if part > height]
    return tuple(cells)


def from_cells(cells):
    """The partition whose diagram is `cells`, an iterable of cell tuples.

    m is one less than the length of a cell.  The cells are checked to form
    a down-set: this is where cells from outside enter.  Inverse of
    `measures.measure_of`: both round trips are identities.
    """
    cells = frozenset(cells)
    _check_cells(cells)
    return _from_diagram(tuple(sorted(cells)))


def _check_cells(cells):
    if not cells:
        raise NotDownSetError("a diagram needs at least one cell")
    dim = len(next(iter(cells)))
    if dim < 2:
        raise NotDownSetError(f"cells need at least 2 coordinates, got {dim}")
    for cell in cells:
        if len(cell) != dim or any(not isinstance(x, int) or x < 0 for x in cell):
            raise NotDownSetError(
                f"cell {cell!r} is not a {dim}-tuple of non-negative integers"
            )
        for k in range(dim):
            if cell[k] > 0:
                below = cell[:k] + (cell[k] - 1,) + cell[k + 1 :]
                if below not in cells:
                    raise NotDownSetError(f"cell {cell} present but {below} missing")


def _from_diagram(cells):
    """The partition whose diagram is `cells`, a sorted down-set, unchecked."""
    heights = {}  # the height-0 cells come first: bases in index order
    for cell in cells:
        base = cell[1:]
        heights[base] = heights.get(base, 0) + 1
    m = len(cells[0]) - 1
    entries = _nest(list(heights.items()), m)
    return MultiPartition._unchecked(m, entries, len(cells), cells)


def _nest(leaves, depth):
    """The nested parts of (base, part) pairs listed in index order."""
    if depth == 1:
        return tuple(part for _, part in leaves)
    return tuple(
        _nest([(base[1:], part) for base, part in group], depth - 1)
        for _, group in itertools.groupby(leaves, lambda leaf: leaf[0][0])
    )


# ---------------------------------------------------------------------------
# symmetrization


def apply_permutation(cells, sigma):
    """The sorted image of a diagram's cells under a coordinate permutation.

    `cells` is a non-empty sequence of the cells, such as `p.cells`.
    Permuting coordinates maps a down-set to a down-set, so the image is
    not checked.
    """
    dim = len(cells[0])
    if sigma.size != dim:
        raise SizeMismatchError(
            f"permutation of size {sigma.size} cannot act on {dim} coordinates"
        )
    return tuple(sorted(map(sigma.apply_to_cell, cells)))


def symmetrize(p, sigma):
    """Partition whose diagram is the coordinate-permuted diagram of p.

    Coordinate permutations preserve down-sets, so the result is a valid
    partition of the same n.
    """
    return _from_diagram(apply_permutation(p.cells, sigma))


def is_self_symmetric(p, sigma):
    """True when the diagram of p is setwise fixed by the permutation."""
    return apply_permutation(p.cells, sigma) == p.cells


# ---------------------------------------------------------------------------
# enumeration


def enumerate_partitions(m, n, max_cells=None):
    """All m-dimensional partitions of n, each exactly once.

    Output order is canonical: lexicographic on the sorted cells of the
    diagram.  Refuses n above `default_max_cells(m)` unless `max_cells`
    raises it: the cost grows exponentially with n, and like m^(n - 1).
    """
    _check_guard(m, n, max_cells)
    parts = [
        MultiPartition._unchecked(m, e, n, _sorted_cells(m, e))
        for e in _entry_trees(m, n)
    ]
    parts.sort(key=operator.attrgetter("cells"))
    return parts


def count_partitions(m, n, max_cells=None):
    """Number of m-dimensional partitions of n."""
    return len(enumerate_partitions(m, n, max_cells=max_cells))


def _check_guard(m, n, max_cells):
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"total n must be >= 1, got {n}")
    if m > MAX_DIMENSION:
        raise InstanceTooLargeError(
            f"m={m} exceeds the dimension guard {MAX_DIMENSION}"
        )
    limit = default_max_cells(m) if max_cells is None else max_cells
    if n > limit:
        raise EnumerationTooLargeError(
            f"n={n} exceeds the enumeration guard {limit} for m={m}; "
            f"raise the max-cells limit to override"
        )


@lru_cache(maxsize=None)
def _entry_trees(m, n):
    """Entry tuples of every m-dimensional partition of n.

    Dimension m partitions are built as stacks of dimension m-1 layers,
    each layer dominated entrywise by the one before it.
    """
    if m == 1:
        return tuple(_decreasing_rows(n, n))
    out = []
    for first_size in range(n, 0, -1):
        for first in _entry_trees(m - 1, first_size):
            out.extend(_extended(m - 1, first, first_size, n - first_size, (first,)))
    return tuple(out)


def _decreasing_rows(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _decreasing_rows(n - first, first):
            yield (first,) + rest


def _extended(sub_m, prev, prev_size, remaining, acc):
    if remaining == 0:
        yield acc
        return
    for size in range(min(remaining, prev_size), 0, -1):
        for layer in _entry_trees(sub_m, size):
            if _dominated(layer, prev):
                yield from _extended(
                    sub_m, layer, size, remaining - size, acc + (layer,)
                )


def _dominated(q, p):
    """True when layer q lies under layer p: inside its support, entrywise <=.

    Iterative, so its depth does not grow with the dimension.
    """
    pairs = [(q, p)]
    for a, b in pairs:
        if isinstance(a, int):
            if a > b:
                return False
        elif len(a) > len(b):
            return False
        else:
            pairs.extend(zip(a, b))
    return True

"""m-dimensional integer partitions and their unit-cell diagrams.

A partition lives in two interchangeable forms: a ragged nested array of
positive parts, weakly decreasing along every index axis (`MultiPartition`),
and the canonical set of lattice cells of its stacked-cube diagram
(`CellSet`).  Cells are (m+1)-tuples of non-negative integers; coordinate 0
counts the stacked units above an index position and coordinates 1..m are
the 0-based array indices.  A set of cells is a diagram exactly when it is
a down-set: closed under decreasing any coordinate.

Coordinate permutations of the cells act on partitions through
`symmetrize`; a partition fixed by a permutation is detected by
`is_self_symmetric`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InstanceTooLargeError,
    NonPositiveEntryError,
    NotDownSetError,
    NotMonotoneError,
    SizeMismatchError,
)

# Enumeration refuses n above these cell counts unless overridden.
DEFAULT_MAX_CELLS = {1: 12, 2: 12}
FALLBACK_MAX_CELLS = 8  # m >= 3


def default_max_cells(m):
    return DEFAULT_MAX_CELLS.get(m, FALLBACK_MAX_CELLS)


@dataclass(frozen=True)
class MultiPartition:
    """Ragged array of positive integer parts summing to n.

    `entries` is a nested tuple of depth `m` with the parts at the leaves.
    Index tuples are 1-based; the index support is a down-set and the parts
    weakly decrease along every axis.
    """

    m: int
    entries: tuple
    n: int

    def items(self):
        """Yield ((i_1, ..., i_m), part) pairs in index order, 1-based."""
        yield from _walk(self.entries, (), self.m)

    def __str__(self):
        return str(_listify(self.entries))


@dataclass(frozen=True)
class CellSet:
    """Finite down-set of lattice cells in dimension m + 1."""

    m: int
    cells: frozenset

    def __post_init__(self):
        _check_cells(self.m, self.cells)

    @property
    def n(self):
        return len(self.cells)

    def sorted_cells(self):
        return tuple(sorted(self.cells))


@dataclass(frozen=True)
class Permutation:
    """Element of the symmetric group on {1, ..., size}, one-line notation.

    `images[k]` is the image of k + 1.  Acting on a cell moves the value at
    coordinate k - 1 (axis k) to coordinate images[k - 1] - 1.
    """

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(
                f"not a permutation of 1..{len(self.images)}: {self.images!r}"
            )

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

    def apply_to_cell(self, cell):
        """Permute the coordinates of a cell tuple."""
        out = [0] * self.size
        for k0, value in enumerate(cell):
            out[self.images[k0] - 1] = value
        return tuple(out)

    def is_identity(self):
        return all(img == k for k, img in enumerate(self.images, start=1))

    def is_involution(self):
        return self.compose(self).is_identity()


def all_permutations(size):
    """Every element of the symmetric group, sorted by one-line images."""
    return [Permutation(p) for p in itertools.permutations(range(1, size + 1))]


def involutions(size):
    """Permutations equal to their own inverse, identity included."""
    return [s for s in all_permutations(size) if s.is_involution()]


# ---------------------------------------------------------------------------
# array form


def validate_array(raw, m):
    """Check a ragged nested sequence of depth m and wrap it as a partition.

    Raises NonPositiveEntryError, NotDownSetError, or NotMonotoneError when
    the array is not a valid m-dimensional partition.
    """
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    if not _has_length(raw) or len(raw) == 0:
        raise NonPositiveEntryError("a partition needs at least one positive part")
    entries = _freeze(raw, m, ())
    parts = dict(_walk(entries, (), m))
    support = set(parts)
    for idx in support:
        for j in range(m):
            if idx[j] > 1:
                below = idx[:j] + (idx[j] - 1,) + idx[j + 1 :]
                if below not in support:
                    raise NotDownSetError(
                        f"index {idx} present but {below} missing"
                    )
    for idx, part in parts.items():
        for j in range(m):
            if idx[j] > 1:
                below = idx[:j] + (idx[j] - 1,) + idx[j + 1 :]
                if part > parts[below]:
                    raise NotMonotoneError(
                        f"part {part} at {idx} exceeds part {parts[below]} at {below}"
                    )
    return MultiPartition(m=m, entries=entries, n=sum(parts.values()))


def to_json(p):
    """JSON document form: {"m": ..., "entries": ...} with plain lists."""
    return {"m": p.m, "entries": _listify(p.entries)}


def from_json(doc):
    """Inverse of `to_json`; m must be a JSON integer."""
    if not isinstance(doc, dict):
        raise ValueError(f"partition JSON must be an object, got {type(doc).__name__}")
    m = doc["m"]
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f"dimension m must be an integer, got {m!r}")
    return validate_array(doc["entries"], m)


def _has_length(obj):
    return hasattr(obj, "__len__") and not isinstance(obj, (str, bytes))


def _freeze(node, depth, where):
    if depth == 0:
        if isinstance(node, bool) or not isinstance(node, int):
            raise NonPositiveEntryError(f"part at {where} is not an integer: {node!r}")
        if node < 1:
            raise NonPositiveEntryError(f"part at {where} must be >= 1, got {node}")
        return node
    if not _has_length(node):
        raise NonPositiveEntryError(f"expected a sequence at {where}, got {node!r}")
    if len(node) == 0:
        raise NotDownSetError(f"empty sub-array at index {where}")
    return tuple(
        _freeze(child, depth - 1, where + (i,)) for i, child in enumerate(node, 1)
    )


def _walk(node, prefix, depth):
    if depth == 0:
        yield prefix, node
        return
    for i, child in enumerate(node, start=1):
        yield from _walk(child, prefix + (i,), depth - 1)


def _listify(node):
    if isinstance(node, tuple):
        return [_listify(child) for child in node]
    return node


# ---------------------------------------------------------------------------
# cell form


def to_cells(p):
    """Diagram cells of a partition: one (m+1)-tuple per stacked unit."""
    cells = set()
    for idx, part in p.items():
        base = tuple(i - 1 for i in idx)
        for a in range(part):
            cells.add((a,) + base)
    return CellSet(m=p.m, cells=frozenset(cells))


def from_cells(c):
    """Rebuild the ragged array view of a cell set.

    Inverse of `to_cells`: both round trips are identities.
    """
    heights = {}
    for cell in c.cells:
        base = cell[1:]
        heights[base] = heights.get(base, 0) + 1
    entries = _nest(heights, (), c.m)
    return MultiPartition(m=c.m, entries=entries, n=c.n)


def _check_cells(m, cells):
    if not cells:
        raise NotDownSetError("a diagram needs at least one cell")
    dim = m + 1
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


def _nest(heights, prefix, remaining):
    if remaining == 1:
        row = []
        i = 0
        while prefix + (i,) in heights:
            row.append(heights[prefix + (i,)])
            i += 1
        return tuple(row)
    out = []
    i = 0
    while True:
        sub = _nest(heights, prefix + (i,), remaining - 1)
        if not sub:
            return tuple(out)
        out.append(sub)
        i += 1


# ---------------------------------------------------------------------------
# symmetrization


def apply_permutation(c, sigma):
    """Image of a cell set under a coordinate permutation."""
    if sigma.size != c.m + 1:
        raise SizeMismatchError(
            f"permutation of size {sigma.size} cannot act on {c.m + 1} coordinates"
        )
    return CellSet(m=c.m, cells=frozenset(sigma.apply_to_cell(x) for x in c.cells))


def symmetrize(p, sigma):
    """Partition whose diagram is the coordinate-permuted diagram of p.

    Coordinate permutations preserve down-sets, so the result is a valid
    partition of the same n.
    """
    return from_cells(apply_permutation(to_cells(p), sigma))


def is_self_symmetric(p, sigma):
    """True when the diagram of p is setwise fixed by the permutation."""
    cells = to_cells(p)
    return apply_permutation(cells, sigma).cells == cells.cells


# ---------------------------------------------------------------------------
# enumeration


def enumerate_partitions(m, n, max_cells=None):
    """All m-dimensional partitions of n, each exactly once.

    Output order is canonical: lexicographic on the sorted cell list of the
    diagram.  Refuses n above the per-dimension guard unless `max_cells`
    raises it; enumeration cost grows exponentially with n.
    """
    _check_guard(m, n, max_cells)
    parts = [MultiPartition(m=m, entries=e, n=n) for e in _entry_trees(m, n)]
    parts.sort(key=lambda p: to_cells(p).sorted_cells())
    return parts


def count_partitions(m, n, max_cells=None):
    """Number of m-dimensional partitions of n."""
    return len(enumerate_partitions(m, n, max_cells=max_cells))


def _check_guard(m, n, max_cells):
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"total n must be >= 1, got {n}")
    limit = default_max_cells(m) if max_cells is None else max_cells
    if n > limit:
        raise InstanceTooLargeError(
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
            out.extend(_extended(m - 1, first, n - first_size, (first,)))
    return tuple(out)


def _decreasing_rows(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _decreasing_rows(n - first, first):
            yield (first,) + rest


def _extended(sub_m, prev, remaining, acc):
    if remaining == 0:
        yield acc
        return
    cap = min(remaining, _tree_sum(prev))
    for size in range(cap, 0, -1):
        for layer in _entry_trees(sub_m, size):
            if _dominated(layer, prev):
                yield from _extended(sub_m, layer, remaining - size, acc + (layer,))


def _dominated(q, p):
    if isinstance(q, int):
        return q <= p
    return len(q) <= len(p) and all(_dominated(a, b) for a, b in zip(q, p))


def _tree_sum(node):
    if isinstance(node, int):
        return node
    return sum(_tree_sum(child) for child in node)

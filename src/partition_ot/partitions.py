"""m-dimensional integer partitions and their unit-cell diagrams.

A partition is a ragged nested array of positive parts, weakly decreasing
along every index axis (`MultiPartition`), checked when it is built.  Its
stacked-cube diagram is a set of lattice cells, (m+1)-tuples of
non-negative integers: coordinate 0 counts the stacked units above an index
position and coordinates 1..m are the 0-based array indices.  A set of
cells is a diagram exactly when it is a down-set: closed under decreasing
any coordinate.  The one cell form is the sorted cell tuple a partition
carries as `cells`, built once, on first read or by the builder that made
the partition; `measures.measure_of` returns it and `from_cells` turns
cells back into a partition.

Coordinate permutations act on cells through `apply_permutation` and on
partitions through `symmetrize`; a partition fixed by a permutation is
detected by `is_self_symmetric`.  Enumeration builds an m-dimensional
partition as a stack of (m-1)-dimensional layers, down to a part, the
0-dimensional partition.  `MultiPartition`, `Permutation` and
`transport.CostMatrix` are immutable values on one plain base, `_Frozen`;
the package's records are named tuples.  Every refusal in the package
names the values it shows through `_entry_name`, so it is one short line
however large the value.
"""

import itertools
import math
import operator
from functools import cached_property, lru_cache

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
# Every function that takes an m from outside refuses a larger one
# (`_check_dimension`): freezing, printing and nesting a partition
# (`_freeze`, `_listify`, `_nest`) recurse once per dimension, and m = 500
# already exceeded Python's default recursion limit of 1000 frames.
MAX_DIMENSION = 400
# A partition refuses a larger n (`_check_cell_cap`), before any of its
# cells is built.  At this n, symmetrizing took 5.6 s and 562 MiB and
# rendering with a permutation 37 s, with Python 3.11 on a shared 2-CPU VM.
_CELL_CAP = 1_600_000


def default_max_cells(m):
    """The largest n that enumeration admits at dimension m by default."""
    _check_dimension(m)
    n = DEFAULT_MAX_CELLS.get(m, FALLBACK_MAX_CELLS)
    while n > 1 and math.comb(m + n - 1, n - 1) * m * n > MAX_ENUMERATION_WORK:
        n -= 1
    return n


class _Frozen:
    """Immutable value whose ==, hash and repr read the fields in `_fields`.

    As a frozen dataclass's would, without importing `dataclasses`.  Other
    attributes, such as `MultiPartition.cells`, stay out of all three.  A
    value comes from its checking constructor or, built valid, `_unchecked`.
    """

    @classmethod
    def _unchecked(cls, **fields):
        """A value the library built valid, made without its check."""
        v = object.__new__(cls)
        v.__dict__.update(fields)
        return v

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
    or NotMonotoneError for bad entries, and InstanceTooLargeError for m
    above `MAX_DIMENSION` or parts summing past `_CELL_CAP`, before n is
    compared with their sum.  `cells` is the diagram
    as a sorted tuple of cells, built on first read or handed over by the
    library's builders; repr, == and hash ignore it.
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
                            f"index {_entry_name(idx)} present but {_entry_name(below)} missing"
                        )
                    if part > parts[below]:
                        raise NotMonotoneError(
                            f"part {_entry_name(part)} at {_entry_name(idx)} exceeds "
                            f"part {_entry_name(parts[below])} at {_entry_name(below)}"
                        )
        total = sum(parts.values())
        _check_cell_cap(total)
        if n is not None and (not _is_int(n) or n != total):
            raise ValueError(f"n={_entry_name(n)} is not the sum {total} of the parts")
        self.__dict__.update(m=m, entries=entries, n=total)

    @cached_property
    def cells(self):
        return _sorted_cells(self.m, self.entries)

    def __str__(self):
        return str(_listify(self.entries))


class Permutation(_Frozen):
    """Element of the symmetric group on {1, ..., size}, one-line notation.

    size is at least 1.  `images[k]` is the image of k + 1.
    `apply_to_cell(cell)` permutes the coordinates of a cell tuple: the
    value at coordinate k - 1 (axis k) moves to coordinate images[k - 1] - 1.
    """

    _fields = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if not n:
            raise ValueError("a permutation needs at least one image")
        if not all(map(_is_int, images)) or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {_entry_name(images)}")
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
            raise ValueError(f"cannot parse permutation {_entry_name(text)}") from None
        return cls(images)

    def one_line(self):
        return " ".join(str(i) for i in self.images)

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
    the array is not a valid m-dimensional partition.  m is checked first,
    as freezing recurses once per dimension.
    """
    _check_dimension(m)
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


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(name, value, least=None):
    """Refuse a `value` that is no int, is a bool or is below `least`."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {_entry_name(value)}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {_entry_name(value)}")


def _entry_name(v, room=40):
    """A value from outside as a refusal names it: one short line.

    Every message that shows such a value names it here: by its repr when
    that is one printable line of at most 40 characters, else by its type
    and size.  A long int's repr is never built: it takes quadratic time,
    and past 4300 digits the interpreter refuses to build it.  A tuple or
    list is written with its items' names, each in the `room` that the
    items before it leave, and named by its type and length where that
    room runs out; so no item's repr is built whole, however deep.
    """
    if isinstance(v, int) and not -10**39 < v < 10**40:
        return f"<{type(v).__name__} of {v.bit_length()} bits>"
    if type(v) in (tuple, list):
        comma = len(v) == 1 and type(v) is tuple  # written (x,)
        left, names = room - 2 * len(v) - comma, []  # past brackets and separators
        while left > 0 and len(names) < len(v):
            names.append(_entry_name(v[len(names)], left))
            left -= len(names[-1])
        if left >= 0 and len(names) == len(v):
            text = ", ".join(names) + "," * comma
            return f"[{text}]" if type(v) is list else f"({text})"
        return f"<{type(v).__name__} of length {len(v)}>"
    text = repr(v)
    if len(text) <= 40 and text.isprintable():
        return text
    return f"<{type(v).__name__} with a repr of {len(text)} characters>"


def _check_dimension(m):
    """Refuse an m that is no int, is a bool, or lies outside 1..MAX_DIMENSION."""
    _check_int("dimension m", m, 1)
    if m > MAX_DIMENSION:
        raise InstanceTooLargeError(_exceeds("m", m, "dimension", MAX_DIMENSION))


def _check_cell_cap(n):
    """Refuse a partition of more than `_CELL_CAP` cells."""
    if n > _CELL_CAP:
        raise InstanceTooLargeError(_exceeds("n", n, "cell", _CELL_CAP))


def _exceeds(name, value, guard, limit):
    """A size guard's refusal: "name=value exceeds the <guard> guard <limit>"."""
    return f"{name}={_entry_name(value)} exceeds the {guard} guard {_entry_name(limit)}"


def _freeze(node, depth):
    """`node` with its sequences down to `depth` levels turned into tuples."""
    if depth < 1 or not hasattr(node, "__len__") or isinstance(node, (str, bytes)):
        return node
    return tuple(_freeze(child, depth - 1) for child in node)


def _checked_leaves(m, entries):
    """(index tuple, part) pairs of `entries`, 1-based, in index order.

    Raises where the shape or a part is bad: m must pass
    `_check_dimension`, every node above the parts be a non-empty tuple,
    and every part an integer >= 1.
    """
    _check_dimension(m)
    if not isinstance(entries, tuple):
        raise NonPositiveEntryError(
            f"partition entries must be a nested tuple, got {type(entries).__name__}"
        )
    if not entries:
        raise NonPositiveEntryError("a partition needs at least one positive part")
    level = [((), entries)]
    for _ in range(m):
        below = []
        for where, node in level:
            if not isinstance(node, tuple):
                raise NonPositiveEntryError(
                    f"expected a sequence at {_entry_name(where)}, got {_entry_name(node)}"
                )
            if not node:
                raise NotDownSetError(f"empty sub-array at index {_entry_name(where)}")
            below.extend((where + (i,), child) for i, child in enumerate(node, 1))
        level = below
    for where, part in level:
        if not _is_int(part) or part < 1:
            rule = "must be >= 1, got" if _is_int(part) else "is not an integer:"
            raise NonPositiveEntryError(
                f"part at {_entry_name(where)} {rule} {_entry_name(part)}"
            )
    return level


def _leaves(entries, depth):
    """(index tuple, part) pairs of a depth-`depth` nested tuple, in index order.

    Indices count from 0.  One level at a time, each node's children in
    order, so the last level lists the leaves in lexicographic index order,
    with no recursion.
    """
    level = [((), entries)]
    for _ in range(depth):
        level = [
            (prefix + (i,), child)
            for prefix, node in level
            for i, child in enumerate(node)
        ]
    return level


def _listify(node):
    if isinstance(node, tuple):
        return [_listify(child) for child in node]
    return node


# ---------------------------------------------------------------------------
# cell form


def _sorted_cells(m, entries):
    """The diagram cells of `entries`, sorted: by height, then index order.

    Uncached, so a partition read from input leaves nothing behind;
    enumeration stacks its cells from cached layers (`_stacked_cells`).
    """
    levels = enumerate(_levels(m, entries))
    return tuple([(h,) + base for h, level in levels for base in level])


def _levels(m, entries):
    """The index tuples of `entries`' cells at each height, lowest first.

    The leaves at a height are those whose part is above it, in index
    order.  Each height's are filtered from the height below, so the walk
    costs one step per cell, also on a hook such as (k, 1, ..., 1).
    """
    levels = []
    level = _leaves(entries, m)
    while level:
        levels.append(tuple([base for base, _ in level]))
        level = [leaf for leaf in level if leaf[1] > len(levels)]
    return tuple(levels)


def from_cells(cells):
    """The partition whose diagram is `cells`, an iterable of cell tuples.

    m is one less than the length of a cell.  m and the number of cells
    pass the partition's guards, and then the cells are checked to form a
    down-set: this is where cells from outside enter.  Inverse of
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
    _check_dimension(dim - 1)
    _check_cell_cap(len(cells))
    for cell in cells:
        if len(cell) != dim or any(not _is_int(x) or x < 0 for x in cell):
            raise NotDownSetError(
                f"cell {_entry_name(cell)} is not a {dim}-tuple of non-negative integers"
            )
        for k in range(dim):
            if cell[k] > 0:
                below = cell[:k] + (cell[k] - 1,) + cell[k + 1 :]
                if below not in cells:
                    raise NotDownSetError(
                        f"cell {_entry_name(cell)} present but {_entry_name(below)} missing"
                    )


def _from_diagram(cells):
    """The partition whose diagram is `cells`, a sorted down-set, unchecked."""
    heights = {}  # the height-0 cells come first: bases in index order
    for cell in cells:
        base = cell[1:]
        heights[base] = heights.get(base, 0) + 1
    m = len(cells[0]) - 1
    entries = _nest(list(heights.items()), m)
    return MultiPartition._unchecked(m=m, entries=entries, n=len(cells), cells=cells)


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

    `cells` is a non-empty sequence of the cells, such as `p.cells`; no
    cells raise NotDownSetError, as `from_cells` does.  Permuting
    coordinates maps a down-set to a down-set, so the image is not checked.
    """
    if not cells:
        raise NotDownSetError("a diagram needs at least one cell")
    _check_acts_on(sigma, len(cells[0]))
    return tuple(sorted(map(sigma.apply_to_cell, cells)))


def _check_acts_on(sigma, dim):
    """Refuse a permutation whose size is not the cells' dimension `dim`."""
    if sigma.size != dim:
        raise SizeMismatchError(
            f"permutation of size {sigma.size} cannot act on {dim} coordinates"
        )


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
        MultiPartition._unchecked(m=m, entries=e, n=n, cells=_stacked_cells(m, e))
        for e in _entry_trees(m, n)
    ]
    parts.sort(key=operator.attrgetter("cells"))
    return parts


def count_partitions(m, n, max_cells=None):
    """Number of m-dimensional partitions of n, with no partition built."""
    _check_guard(m, n, max_cells)
    return len(_entry_trees(m, n))


def _check_guard(m, n, max_cells):
    _check_dimension(m)
    _check_int("total n", n, 1)
    limit = default_max_cells(m) if max_cells is None else max_cells
    _check_int("max_cells", limit)
    if n > limit:
        raise EnumerationTooLargeError(
            _exceeds("n", n, "enumeration", limit)
            + f" for m={m}; raise the max-cells limit to override"
        )


@lru_cache(maxsize=None)
def _entry_trees(m, n):
    """Entry tuples of every m-dimensional partition of n.

    Dimension m partitions are built as stacks of dimension m-1 layers,
    each layer dominated entrywise by the one before it, down to m = 0,
    where the one partition of n is the part n itself.  So one recursion
    builds every m, and m = 1 stacks parts.  The first layer is chosen
    here, not by `_extended`, which keeps one frame fewer per dimension:
    `enumerate --m 400 --n 1` stays within the default recursion limit.
    """
    if m == 0:
        return (n,)
    out = []
    for first_size in range(n, 0, -1):
        for first in _entry_trees(m - 1, first_size):
            out.extend(_extended(m - 1, first, first_size, n - first_size, (first,)))
    return tuple(out)


def _extended(sub_m, prev, prev_size, remaining, acc):
    if remaining == 0:
        yield acc
        return
    for size in range(min(remaining, prev_size), 0, -1):
        for layer in _layers_under(sub_m, prev, size):
            yield from _extended(sub_m, layer, size, remaining - size, acc + (layer,))


def _stacked_cells(m, layers):
    """The sorted cells of the partition stacked from `layers`, as `_sorted_cells`.

    Enumeration's cell builder.  Each layer's `_levels` come from a cache,
    so no partition walks its layers again: the rows still standing at
    each height are filtered from those at the height below, one step per
    (height, layer) pair, and each cell is one tuple.
    """
    heights = []
    rows = [(i, _layer_levels(m - 1, layer)) for i, layer in enumerate(layers)]
    while rows:
        heights.append(rows)
        height = len(heights)
        rows = [row for row in rows if len(row[1]) > height]
    return tuple([
        (h, i) + base
        for h, rows in enumerate(heights)
        for i, levels in rows
        for base in levels[h]
    ])


# each layer's `_levels`: a layer is an entry tree of depth m - 1 (a part
# when m is 1), and every stack that holds it shares the one tuple
_layer_levels = lru_cache(maxsize=None)(_levels)


@lru_cache(maxsize=None)
def _layers_under(sub_m, prev, size):
    """The layers of `size` cells under layer `prev`, in `_entry_trees` order.

    Every prefix of a stack that ends in `prev` asks for the same layers,
    so each (prev, size) is filtered through `_dominated` once.
    """
    return tuple(q for q in _entry_trees(sub_m, size) if _dominated(q, prev))


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

import functools
import hashlib
import itertools
import json
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_ot import (
    MAX_DIMENSION,
    CostMatrix,
    EnumerationTooLargeError,
    InstanceTooLargeError,
    MultiPartition,
    NonPositiveEntryError,
    NotDownSetError,
    NotMonotoneError,
    Permutation,
    SizeMismatchError,
    UnsupportedRenderError,
    all_permutations,
    apply_permutation,
    count_partitions,
    default_max_cells,
    enumerate_partitions,
    from_cells,
    from_json,
    involutions,
    is_self_symmetric,
    measure_of,
    optimal_total,
    plan_to_json,
    render,
    symmetrize,
    to_json,
    validate_array,
    verify_theorem_cor,
)

from partition_ot import partitions

import walk_reference
from downset_oracle import oracle_cell_sets, oracle_count
from group_reference import compose, inverse, is_identity

# frozen from the independent down-set oracle (re-checked below)
PARTITION_COUNTS_1D = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
PARTITION_COUNTS_2D = [1, 3, 6, 13, 24, 48]

SWAP = Permutation.from_one_line("2 1")


def sample_partitions(m, n_max):
    for n in range(1, n_max + 1):
        yield from enumerate_partitions(m, n)


# ---------------------------------------------------------------------------
# validation


def test_validate_flat():
    p = validate_array([4, 2], 1)
    assert (p.m, p.entries, p.n) == (1, (4, 2), 6)


def test_validate_nested():
    p = validate_array([[2, 1], [1]], 2)
    assert (p.m, p.entries, p.n) == (2, ((2, 1), (1,)), 4)


def test_validate_rejects_increase():
    with pytest.raises(NotMonotoneError):
        validate_array([2, 3], 1)
    with pytest.raises(NotMonotoneError):
        validate_array([[1], [2]], 2)
    with pytest.raises(NotMonotoneError):
        validate_array([[1, 2]], 2)


def test_validate_rejects_support_holes():
    # second row longer than the first: cell (2,3) has no cell (1,3) below it
    with pytest.raises(NotDownSetError):
        validate_array([[1, 1], [1, 1, 1]], 2)
    with pytest.raises(NotDownSetError):
        validate_array([[2, 1], [], [1]], 2)


def test_validate_rejects_bad_parts():
    with pytest.raises(NonPositiveEntryError):
        validate_array([3, 0], 1)
    with pytest.raises(NonPositiveEntryError):
        validate_array([-1], 1)
    with pytest.raises(NonPositiveEntryError):
        validate_array([], 1)


# ---------------------------------------------------------------------------
# cell form


def test_from_cells():
    cells = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]
    assert from_cells(cells).entries == (4, 2)
    assert from_cells(reversed(cells)) == validate_array([4, 2], 1)
    assert from_cells({(0, 0)}).entries == (1,)
    assert from_cells(measure_of(validate_array([[2, 1], [1]], 2))).m == 2


def test_from_cells_refuses_bool_coordinates():
    # (True, 0) == (1, 0), but a bool is no integer here, as at every boundary
    with pytest.raises(NotDownSetError, match=r"cell \(True, 0\) is not"):
        from_cells([(0, 0), (True, 0)])


def test_from_cells_input_is_checked():
    with pytest.raises(NotDownSetError, match=r"cell \(0, 1, 1\) present"):
        from_cells([(0, 0, 0), (0, 1, 1)])
    with pytest.raises(NotDownSetError):
        from_cells([(0, 0), (2, 0)])
    with pytest.raises(NotDownSetError):
        from_cells([(1, 1)])
    with pytest.raises(NotDownSetError, match="-tuple of non-negative integers"):
        from_cells([(0, 0), (0, 0, 0)])
    with pytest.raises(NotDownSetError, match="at least 2 coordinates"):
        from_cells([(0,)])
    with pytest.raises(NotDownSetError, match="at least one cell"):
        from_cells([])


def test_entries_of_the_wrong_type_are_named():
    with pytest.raises(NonPositiveEntryError, match="must be a nested tuple, got list"):
        MultiPartition(1, [4, 2])
    with pytest.raises(NonPositiveEntryError, match="must be a nested tuple, got int"):
        from_json({"m": 1, "entries": 5})
    with pytest.raises(NonPositiveEntryError, match="at least one positive part"):
        validate_array([], 1)


def test_cells_are_built_on_first_read_and_capped(monkeypatch):
    cap = partitions._CELL_CAP

    def no_cells(*args):
        raise AssertionError("built the cells")

    monkeypatch.setattr(partitions, "_sorted_cells", no_cells)
    assert MultiPartition(1, (cap,)).n == cap  # no cell built yet
    for entries in ((cap + 1,), (cap, 1), (10**12,)):
        with pytest.raises(InstanceTooLargeError, match=f"exceeds the cell guard {cap}"):
            MultiPartition(1, entries)
    monkeypatch.undo()
    p = validate_array([[2, 1], [1]], 2)
    assert "cells" not in vars(p)
    assert p.cells is measure_of(p) and vars(p)["cells"] is p.cells


def test_cells_are_checked_only_where_they_enter(monkeypatch):
    """Construction and `from_cells` check; the library's own builders and
    the cell maps run no validator."""
    from partition_ot import measures

    calls = []
    real_leaves, real_cells = partitions._checked_leaves, partitions._check_cells

    def leaves(*args):
        calls.append("entries")
        return real_leaves(*args)

    def cells(*args):
        calls.append("cells")
        return real_cells(*args)

    monkeypatch.setattr(partitions, "_checked_leaves", leaves)
    monkeypatch.setattr(partitions, "_check_cells", cells)
    p = validate_array([[2, 1], [1]], 2)
    assert calls == ["entries"]
    assert MultiPartition(2, p.entries, 4) == p
    assert calls == ["entries"] * 2
    assert from_cells(measure_of(p)) == p
    assert calls == ["entries"] * 2 + ["cells"]
    calls.clear()
    parts = enumerate_partitions(2, 5)
    for q in parts:
        src = measures.measure_of(q)
        for sigma in all_permutations(3):
            image = apply_permutation(src, sigma)
            assert image == tuple(sorted(map(sigma.apply_to_cell, src)))
            assert symmetrize(q, sigma).n == q.n
            is_self_symmetric(q, sigma)
    assert calls == []


def test_partitions_carry_their_sorted_cells():
    p = validate_array([[2, 1], [1]], 2)
    assert measure_of(p) is p.cells
    assert p.cells == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    for q in (symmetrize(p, Permutation.from_one_line("3 2 1")), from_cells(p.cells)):
        assert q.cells == tuple(sorted(q.cells))
        assert MultiPartition(q.m, q.entries).cells == q.cells
    for q in enumerate_partitions(2, 5):
        assert q.cells == MultiPartition(2, q.entries).cells


def _counted(op):
    def compare(self, other):
        _CountedPart.compared += 1
        return op(int(self), other)

    return compare


class _CountedPart(int):
    """A part that counts how often it is compared."""

    compared = 0
    __lt__, __le__ = _counted(operator.lt), _counted(operator.le)
    __gt__, __ge__ = _counted(operator.gt), _counted(operator.ge)


@pytest.mark.parametrize(
    "m, entries",
    [
        (1, (200,) + (1,) * 200),  # a hook: one tall part, many short ones
        (2, ((100,) + (1,) * 99, (1,) * 100)),
        (3, (((50,) + (1,) * 49,),) + (((1,),),) * 50),
    ],
)
def test_cells_cost_steps_linear_in_n(monkeypatch, m, entries):
    """The cell builder compares parts at most twice per cell,
    so a hook of n cells costs O(n) steps, not (tallest part) x (leaves)."""

    def parts(node):
        if isinstance(node, tuple):
            return tuple(map(parts, node))
        return _CountedPart(node)

    monkeypatch.setattr(_CountedPart, "compared", 0)
    cells = partitions._sorted_cells(m, parts(entries))
    n = len(cells)
    assert cells == MultiPartition(m, entries).cells
    assert _CountedPart.compared <= 2 * n


class _CountedLevels(tuple):
    """A layer's levels, counting how often their height is read."""

    read = 0

    def __len__(self):
        _CountedLevels.read += 1
        return tuple.__len__(self)


@pytest.mark.parametrize(
    "m, entries",
    [
        (1, (200,) + (1,) * 200),
        (2, ((100,) + (1,) * 99,) + ((1,),) * 100),
        (3, (((50,) + (1,) * 49,),) + (((1,),),) * 50),
    ],
)
def test_stacked_cells_cost_steps_linear_in_n(monkeypatch, m, entries):
    """Enumeration's cell builder reads a layer's height at most twice per
    cell, so a stack of one tall layer and many short ones costs O(n)."""
    real = partitions._layer_levels
    monkeypatch.setattr(
        partitions, "_layer_levels", lambda sub_m, layer: _CountedLevels(real(sub_m, layer))
    )
    monkeypatch.setattr(_CountedLevels, "read", 0)
    cells = partitions._stacked_cells(m, entries)
    assert cells == MultiPartition(m, entries).cells
    assert _CountedLevels.read <= 2 * len(cells)


@pytest.mark.parametrize("m, n_max", [(1, 12), (2, 8), (3, 6), (4, 5)])
def test_enumeration_builds_the_cells_of_its_entries(m, n_max):
    for n in range(1, n_max + 1):
        for p in enumerate_partitions(m, n):
            assert p.cells == partitions._sorted_cells(m, p.entries)


def test_a_large_hook_symmetrizes():
    hook = MultiPartition(1, (20_000,) + (1,) * 20_000)
    image = symmetrize(hook, Permutation.from_one_line("2 1"))
    assert image.entries == (20_001,) + (1,) * 19_999
    assert len(image.cells) == len(hook.cells) == 40_000


def test_repr_eq_and_hash_ignore_the_cells():
    p = validate_array([4, 2], 1)
    assert repr(p) == "MultiPartition(m=1, entries=(4, 2), n=6)"
    assert from_cells(measure_of(p)) == p
    assert hash(from_cells(measure_of(p))) == hash(p)
    stale = MultiPartition._unchecked(m=1, entries=(4, 2), n=6, cells=())
    assert stale == p and hash(stale) == hash(p) and repr(stale) == repr(p)


def test_round_trips():
    for m, n_max in ((1, 7), (2, 5), (3, 4)):
        for p in sample_partitions(m, n_max):
            assert from_cells(measure_of(p)) == p
    for cells in oracle_cell_sets(2, 5):
        assert measure_of(from_cells(cells)) == tuple(sorted(cells))


def test_directly_built_partitions_are_checked_at_construction():
    with pytest.raises(ValueError, match="n=5 is not the sum 6"):
        MultiPartition(1, (4, 2), 5)
    with pytest.raises(NonPositiveEntryError, match="expected a sequence at \\(1,\\)"):
        MultiPartition(2, (4, 2), 6)
    with pytest.raises(NonPositiveEntryError, match="not an integer: 2.0"):
        MultiPartition(1, (2.0, 1), 3)
    with pytest.raises(NotMonotoneError):  # (1, 2): cell (1, 1) lies above a hole
        MultiPartition(1, (1, 2), 3)
    with pytest.raises(ValueError, match="must be an integer"):
        MultiPartition(True, (1,), 1)
    with pytest.raises(ValueError, match="is not the sum"):
        MultiPartition(1, (1,), True)


def test_n_defaults_to_the_sum_of_the_parts():
    p = MultiPartition(2, ((2, 1), (1,)))
    assert p.n == 4 and p == MultiPartition(2, ((2, 1), (1,)), 4)
    assert p == validate_array([[2, 1], [1]], 2)


# ---------------------------------------------------------------------------
# enumeration against the independent oracle


def test_enumerate_known_list():
    got = [p.entries for p in enumerate_partitions(1, 4)]
    assert got == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert [p.entries for p in enumerate_partitions(1, 1)] == [(1,)]


def test_counts_match_oracle_1d():
    for n, expected in enumerate(PARTITION_COUNTS_1D, start=1):
        assert count_partitions(1, n) == expected == oracle_count(1, n)


def test_counts_match_oracle_2d():
    for n, expected in enumerate(PARTITION_COUNTS_2D, start=1):
        assert count_partitions(2, n) == expected == oracle_count(2, n)


def test_counts_match_oracle_3d():
    for n in range(1, 5):
        assert count_partitions(3, n) == oracle_count(3, n)


def test_single_cell_for_any_dimension():
    for m in range(1, 5):
        assert count_partitions(m, 1) == 1


def test_enumerate_cell_sets_match_oracle():
    for m, n in ((1, 6), (2, 5)):
        ours = [measure_of(p) for p in enumerate_partitions(m, n)]
        assert ours == oracle_cell_sets(m, n)


def test_enumerate_no_duplicates_and_all_valid():
    for m, n_max in ((1, 8), (2, 6)):
        for n in range(1, n_max + 1):
            parts = enumerate_partitions(m, n)
            assert len({p.entries for p in parts}) == len(parts)
            for p in parts:
                revalidated = validate_array(to_json(p)["entries"], m)
                assert revalidated == p and p.n == n


@pytest.mark.parametrize("sub_m, top", [(1, 8), (2, 5)])
def test_layers_under_are_the_layers_inside_the_diagram_in_order(sub_m, top):
    # q lies under p exactly when q's diagram is inside p's
    for prev_size in range(1, top + 1):
        for prev in partitions._entry_trees(sub_m, prev_size):
            inside = set(partitions._sorted_cells(sub_m, prev))
            for size in range(1, prev_size + 1):
                want = [
                    q for q in partitions._entry_trees(sub_m, size)
                    if inside.issuperset(partitions._sorted_cells(sub_m, q))
                ]
                assert list(partitions._layers_under(sub_m, prev, size)) == want


def test_enumeration_checks_each_layer_pair_once(monkeypatch):
    # fresh caches, so that every pair is met in this test
    for cached in (partitions._entry_trees, partitions._layers_under):
        monkeypatch.setattr(partitions, cached.__name__, functools.cache(cached.__wrapped__))
    checked = []
    dominated = partitions._dominated

    def recording(q, p):
        checked.append((q, p))
        return dominated(q, p)

    monkeypatch.setattr(partitions, "_dominated", recording)
    assert count_partitions(2, 10) == 500
    assert count_partitions(3, 7) == 307
    assert len(set(checked)) == len(checked) > 0


def test_enumeration_guard():
    with pytest.raises(InstanceTooLargeError):
        enumerate_partitions(1, 13)
    with pytest.raises(InstanceTooLargeError):
        enumerate_partitions(3, 9)
    assert count_partitions(1, 13, max_cells=13) == 101


def test_default_guard_falls_with_m_and_admits_the_documented_sizes():
    assert [default_max_cells(m) for m in range(1, 8)] == [12, 12, 8, 8, 8, 8, 8]
    caps = [default_max_cells(m) for m in range(1, MAX_DIMENSION + 1)]
    assert caps == sorted(caps, reverse=True)
    assert (default_max_cells(30), default_max_cells(MAX_DIMENSION)) == (3, 2)
    # sizes the README, demos, bench and tests enumerate by default
    for m, n in ((3, 8), (4, 8), (5, 7), (7, 2), (MAX_DIMENSION, 2)):
        assert n <= default_max_cells(m)


def test_count_matches_the_enumeration_and_builds_no_partition(monkeypatch):
    sizes = [(m, n) for m in range(1, 5) for n in range(1, 8)]
    expected = [len(enumerate_partitions(m, n)) for m, n in sizes]

    def no_cells(*args):
        raise AssertionError("count_partitions built a partition's cells")

    monkeypatch.setattr(partitions, "_sorted_cells", no_cells)
    assert [count_partitions(m, n) for m, n in sizes] == expected
    with pytest.raises(InstanceTooLargeError, match="enumeration guard"):
        count_partitions(1, 13)


# Count oracles that share no code with enumeration: the coefficients of
# q^1..q^12 in products of factors (1 - q^e)^(-p).
SERIES_N = 12


def _series(factors):
    coeffs = [1] + [0] * SERIES_N
    for e, p in factors:
        for _ in range(abs(p)):
            if p > 0:  # divide by (1 - q^e)
                for n in range(e, SERIES_N + 1):
                    coeffs[n] += coeffs[n - e]
            else:  # multiply by (1 - q^e)
                for n in range(SERIES_N, e - 1, -1):
                    coeffs[n] -= coeffs[n - e]
    return coeffs[1:]


K = range(1, SERIES_N + 1)
# MacMahon: plane partitions, prod (1 - q^k)^(-k)
PLANE = _series((k, k) for k in K)
# self-conjugate partitions, prod (1 + q^(2k - 1)), each factor
# (1 - q^(4k - 2)) / (1 - q^(2k - 1))
SELF_CONJUGATE = _series([(2 * k - 1, 1) for k in K] + [(4 * k - 2, -1) for k in K])
# symmetric plane partitions, prod (1 - q^(2k - 1))^(-1) (1 - q^(2k))^(-floor(k/2))
SYMMETRIC_PLANE = _series([(2 * k - 1, 1) for k in K] + [(2 * k, k // 2) for k in K])


def _fixed_counts(m, sigma):
    return [sum(is_self_symmetric(p, sigma) for p in enumerate_partitions(m, n)) for n in K]


def test_plane_partition_counts_match_macmahon():
    assert PLANE[:6] == PARTITION_COUNTS_2D
    assert [count_partitions(2, n) for n in K] == PLANE


def test_fixed_partition_counts_match_their_products():
    assert _fixed_counts(1, SWAP) == SELF_CONJUGATE
    for sigma in ("2 1 3", "1 3 2"):
        assert _fixed_counts(2, Permutation.from_one_line(sigma)) == SYMMETRIC_PLANE


def test_the_cor_sweep_counts_the_self_conjugate_partitions():
    report = verify_theorem_cor(1, SERIES_N, [SWAP], "l1")
    assert report.summary["self_symmetric_count"] == sum(SELF_CONJUGATE) == 17


@pytest.mark.parametrize(
    "build, args, message",
    [
        (enumerate_partitions, (True, 3), "dimension m must be an integer, got True"),
        (enumerate_partitions, (1, True), "total n must be an integer, got True"),
        (enumerate_partitions, (1, 2.0), "total n must be an integer, got 2.0"),
        (count_partitions, (2.0, 2), "dimension m must be an integer, got 2.0"),
        (default_max_cells, (2.5,), "dimension m must be an integer, got 2.5"),
        (default_max_cells, (True,), "dimension m must be an integer, got True"),
        (default_max_cells, (0,), "dimension m must be >= 1, got 0"),
        (default_max_cells, (-5,), "dimension m must be >= 1, got -5"),
        (enumerate_partitions, (1, 2, True), "max_cells must be an integer, got True"),
        (enumerate_partitions, (1, 2, 2.5), "max_cells must be an integer, got 2.5"),
        (count_partitions, (1, 2, "3"), "max_cells must be an integer, got '3'"),
    ],
    ids=["enumerate-bool-m", "enumerate-bool-n", "enumerate-float-n", "count-float-m",
         "default-float-m", "default-bool-m", "default-zero-m", "default-negative-m",
         "enumerate-bool-max-cells", "enumerate-float-max-cells", "count-str-max-cells"],
)
def test_enumeration_refuses_a_size_that_is_no_int(build, args, message):
    # as the MultiPartition constructor refuses a bool or float m or n; a
    # max_cells of True once stood as a guard of 1, 2.5 as a bound, and "3"
    # raised a raw TypeError
    with pytest.raises(ValueError) as refused:
        build(*args)
    assert str(refused.value) == message


HUGE = 10**5000  # past 4300 digits the interpreter refuses to build its repr
LONG = "x" * 10**5


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: validate_array([HUGE], 1), InstanceTooLargeError,
         "n=<int of 16610 bits> exceeds the cell guard 1600000"),
        (lambda: validate_array([1], HUGE), InstanceTooLargeError,
         "m=<int of 16610 bits> exceeds the dimension guard 400"),
        (lambda: validate_array([1, HUGE], 1), NotMonotoneError,
         "part <int of 16610 bits> at (2,) exceeds part 1 at (1,)"),
        (lambda: validate_array([[1], HUGE], 2), NonPositiveEntryError,
         "expected a sequence at (2,), got <int of 16610 bits>"),
        (lambda: from_json({"m": 1, "entries": [-HUGE]}), NonPositiveEntryError,
         "part at (1,) must be >= 1, got <int of 16610 bits>"),
        (lambda: from_cells([(0, HUGE)]), NotDownSetError,
         "cell (0, <int of 16610 bits>) present but (0, <int of 16610 bits>) missing"),
        (lambda: enumerate_partitions(1, HUGE), EnumerationTooLargeError,
         "n=<int of 16610 bits> exceeds the enumeration guard 12 for m=1; "
         "raise the max-cells limit to override"),
        (lambda: enumerate_partitions(1, -HUGE), ValueError,
         "total n must be >= 1, got <int of 16610 bits>"),
        (lambda: MultiPartition(1, (4, 2), HUGE), ValueError,
         "n=<int of 16610 bits> is not the sum 6 of the parts"),
        (lambda: Permutation((HUGE,)), ValueError,
         "not a permutation of 1..1: (<int of 16610 bits>,)"),
        (lambda: CostMatrix("euclid", [[(HUGE,)]]), ValueError,
         "cost entry (<int of 16610 bits>,) is not an int or a float "
         "with a finite 2^40-grid value"),
        (lambda: verify_theorem_cor(HUGE, 1, []), InstanceTooLargeError,
         "m=<int of 16610 bits> exceeds the sweep guard 7: "
         "orbits need all (m + 1)! axis relabellings"),
        (lambda: verify_theorem_cor(1, HUGE, [], max_cells=HUGE), InstanceTooLargeError,
         "n=<int of 16610 bits> exceeds the assignment guard 2000"),
        (lambda: Permutation([0] * 10**5), ValueError,
         "not a permutation of 1..100000: <tuple of length 100000>"),
        (lambda: Permutation.from_one_line(LONG), ValueError,
         "cannot parse permutation <str with a repr of 100002 characters>"),
        (lambda: validate_array([LONG], 1), NonPositiveEntryError,
         "part at (1,) is not an integer: <str with a repr of 100002 characters>"),
        (lambda: MultiPartition(1, (4, 2), LONG), ValueError,
         "n=<str with a repr of 100002 characters> is not the sum 6 of the parts"),
        (lambda: from_cells([(0, "a" * 10**5)]), NotDownSetError,
         "cell <tuple of length 2> is not a 2-tuple of non-negative integers"),
        (lambda: plan_to_json((0,) * 5000, Fraction(1)), ValueError,
         "not a matching of 5000 indices: <tuple of length 5000>"),
        (lambda: optimal_total(((0, 0),), ((0, 0),), LONG), ValueError,
         "unknown cost kind <str with a repr of 100002 characters>; "
         "expected one of ('sq', 'euclid', 'l1')"),
        (lambda: render(validate_array([1], 1), LONG), UnsupportedRenderError,
         "unknown format <str with a repr of 100002 characters>"),
    ],
    ids=["cell-guard", "dimension-guard", "monotone", "sequence", "negative-part",
         "down-set", "enumeration-guard", "negative-n", "n-not-the-sum",
         "permutation-int", "euclid-tuple-entry", "sweep-guard", "assignment-guard",
         "permutation-long", "one-line-long", "part-str", "n-str", "cell-str",
         "matching-long", "cost-kind-str", "render-format-str"],
)
def test_a_refusal_names_a_huge_or_long_value_in_one_short_line(call, error, message):
    # at the parent the first 13 raised the interpreter's digit-limit
    # ValueError from the message itself, the last 8 lines of 15-300 KB
    with pytest.raises(Exception) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message and len(message) <= 120


@pytest.mark.parametrize(
    "value, name",
    [
        (((0, 1), (1, 0)), "((0, 1), (1, 0))"),
        ([1, "a", None], "[1, 'a', None]"),
        ((), "()"),
        ([()], "[()]"),
        (("a" * 35,), repr(("a" * 35,))),  # a repr of 40 characters
        (("a" * 36,), "<tuple of length 1>"),  # 41
        ((0,) * 13, repr((0,) * 13)),
        ((0,) * 41, "<tuple of length 41>"),
        ((HUGE,), "(<int of 16610 bits>,)"),
        ([(HUGE,), 1], "[(<int of 16610 bits>,), 1]"),
        ([HUGE, HUGE], "<list of length 2>"),
        ((LONG,), "<tuple of length 1>"),
    ],
    ids=["nested", "list", "empty", "list-of-empty", "repr-40", "repr-41", "13-items",
         "41-items", "huge-item", "huge-in-nested", "two-huge", "long-str"],
)
def test_the_namer_writes_a_tuple_or_list_item_by_item(value, name):
    assert partitions._entry_name(value) == name


def test_the_namer_stops_at_its_room_however_deep_the_value():
    deep = 1
    for _ in range(10**5):  # repr would raise RecursionError
        deep = [deep]
    assert partitions._entry_name(deep) == "[" * 11 + "<list of length 1>" + "]" * 11
    shared = 1
    for _ in range(60):  # 2^60 paths through 60 lists
        shared = [shared, shared]
    assert partitions._entry_name(shared) == "[<list of length 2>, <list of length 2>]"


def test_dimension_guard():
    with pytest.raises(InstanceTooLargeError, match="m=401 exceeds the dimension guard"):
        enumerate_partitions(MAX_DIMENSION + 1, 1)
    # layers are compared without recursion, so n = 2 reaches the guard too
    assert count_partitions(MAX_DIMENSION, 1) == 1
    assert count_partitions(MAX_DIMENSION, 2) == MAX_DIMENSION + 1


def _nested(depth):
    entries = 1
    for _ in range(depth):
        entries = [entries]
    return entries


@pytest.mark.parametrize(
    "build",
    [
        default_max_cells,
        lambda m: validate_array(_nested(m), m),
        lambda m: MultiPartition(m, (1,)),
        lambda m: from_json({"m": m, "entries": _nested(m)}),
        lambda m: from_cells([(0,) * (m + 1)]),
        lambda m: enumerate_partitions(m, 1),
        lambda m: count_partitions(m, 1),
    ],
    ids=["default_max_cells", "validate_array", "MultiPartition", "from_json",
         "from_cells", "enumerate_partitions", "count_partitions"],
)
@pytest.mark.parametrize("m", [MAX_DIMENSION + 1, 500, 1100])
def test_every_input_runs_the_dimension_guard(build, m):
    # freezing, printing and nesting recurse once per dimension: from
    # m = 500 each of them once raised a raw RecursionError
    with pytest.raises(InstanceTooLargeError) as refused:
        build(m)
    assert str(refused.value) == f"m={m} exceeds the dimension guard {MAX_DIMENSION}"


def test_a_partition_at_the_dimension_guard_builds_prints_and_symmetrizes():
    m = MAX_DIMENSION
    p = from_cells([(0,) * (m + 1)])
    assert p == validate_array(_nested(m), m)
    assert str(p) == repr(_nested(m)) and to_json(p)["entries"] == _nested(m)
    assert symmetrize(p, Permutation.identity(m + 1)) == p


def test_from_cells_runs_the_cell_guard_before_the_down_set_check():
    cap = partitions._CELL_CAP
    cells = [(h, 0) for h in range(cap + 1)]
    with pytest.raises(InstanceTooLargeError) as refused:
        from_cells(cells)
    assert str(refused.value) == f"n={cap + 1} exceeds the cell guard {cap}"
    cells[-1] = (0, -1)  # no down-set, and still one cell over the guard
    with pytest.raises(InstanceTooLargeError, match="exceeds the cell guard"):
        from_cells(cells)


def test_str_prints_the_nested_parts():
    assert str(validate_array([[2, 1], [1]], 2)) == "[[2, 1], [1]]"


# ---------------------------------------------------------------------------
# permutations


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation.from_one_line("2 3")
    with pytest.raises(ValueError):
        Permutation.from_one_line("not a perm")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Permutation(()),
        lambda: Permutation([]),
        lambda: Permutation.identity(0),
        lambda: Permutation.identity(-1),
        lambda: all_permutations(0),
        lambda: involutions(0),
        lambda: Permutation.from_one_line(""),
        lambda: Permutation.from_one_line(" , "),
    ],
    ids=["empty-tuple", "empty-list", "identity-0", "identity-negative",
         "all-0", "involutions-0", "one-line-empty", "one-line-separators"],
)
def test_a_permutation_needs_at_least_one_image(build):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == "a permutation needs at least one image"


@pytest.mark.parametrize("images", [[2.0, 1], [True, 2], [1, False], [1.0]])
def test_permutation_images_are_ints(images):
    # equal to 1..n by ==, but no int: refused, not carried to a later TypeError
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation(images)


def test_permutation_freezes_its_images():
    sigma = Permutation([2, 1])
    assert sigma.images == (2, 1) and type(sigma.images) is tuple
    assert sigma == Permutation((2, 1)) and hash(sigma) == hash(Permutation((2, 1)))


def test_permutation_group_laws():
    perms = all_permutations(3)
    assert len(perms) == 6
    identity = Permutation.identity(3)
    for s in perms:
        assert compose(s, inverse(s)) == identity
        assert compose(inverse(s), s) == identity
        for t in perms:
            cell = (5, 7, 11)
            assert t.apply_to_cell(s.apply_to_cell(cell)) == compose(t, s).apply_to_cell(cell)


def test_cell_action_of_every_size():
    # itemgetter(0) returns a scalar, so size 1 needs its own cell map
    assert Permutation.identity(1).apply_to_cell((5,)) == (5,)
    assert SWAP.apply_to_cell((5, 7)) == (7, 5)
    sigma = Permutation.from_one_line("3 1 4 2")
    assert sigma.apply_to_cell((10, 20, 30, 40)) == (20, 40, 10, 30)
    assert inverse(sigma).apply_to_cell((20, 40, 10, 30)) == (10, 20, 30, 40)


def test_involutions_of_s3():
    assert [s.one_line() for s in involutions(3)] == ["1 2 3", "1 3 2", "2 1 3", "3 2 1"]


def test_is_involution_agrees_with_composing_twice():
    for size in range(1, 6):
        flags = [s.is_involution() for s in all_permutations(size)]
        assert flags == [is_identity(compose(s, s)) for s in all_permutations(size)]
        assert any(flags) and (size < 3 or not all(flags))


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_swap():
    assert symmetrize(validate_array([4, 2], 1), SWAP).entries == (2, 2, 1, 1)


def test_symmetrize_identity():
    for p in sample_partitions(2, 4):
        assert symmetrize(p, Permutation.identity(3)) == p


def test_symmetrize_plane_example():
    # one cell moves: (1,0,1) -> (1,1,0); all other cells are fixed
    p = validate_array([[3, 2], [1]], 2)
    sigma = Permutation.from_one_line("1 3 2")
    assert symmetrize(p, sigma).entries == ((3, 1), (2,))
    moved = set(measure_of(p)) - set(measure_of(symmetrize(p, sigma)))
    assert moved == {(1, 0, 1)}


def test_symmetrize_is_group_action():
    perms = all_permutations(3)
    for p in sample_partitions(2, 4):
        for s, t in itertools.product(perms, repeat=2):
            assert symmetrize(symmetrize(p, s), t) == symmetrize(p, compose(t, s))


def test_symmetrize_preserves_n():
    for p in sample_partitions(2, 5):
        for s in all_permutations(3):
            assert symmetrize(p, s).n == p.n


def test_symmetrize_size_mismatch():
    with pytest.raises(SizeMismatchError):
        symmetrize(validate_array([4, 2], 1), Permutation.identity(3))


def test_self_symmetric():
    assert is_self_symmetric(validate_array([2, 1], 1), SWAP)
    assert not is_self_symmetric(validate_array([4, 2], 1), SWAP)
    for p in sample_partitions(1, 6):
        assert is_self_symmetric(p, Permutation.identity(2))
        assert is_self_symmetric(p, SWAP) == (symmetrize(p, SWAP) == p)


def test_symmetrize_bytes_are_pinned():
    """The image entries and the fixed-point verdict of every partition with
    m <= 3, n <= 5 under every sigma hash to a fixed digest."""
    lines = []
    for m in (1, 2, 3):
        sigmas = all_permutations(m + 1)
        for n in range(1, 6):
            for p in enumerate_partitions(m, n):
                for sigma in sigmas:
                    image = to_json(symmetrize(p, sigma))["entries"]
                    pair = [image, is_self_symmetric(p, sigma)]
                    lines.append(json.dumps(pair, separators=(",", ":")))
    assert len(lines) == 2718
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "77c21a63c627ce8effa8824a1edacac80485cbb7e1a75daea24a3ce98dd53bb5"


def test_apply_permutation_rotates_cells():
    c = measure_of(validate_array([[2, 1]], 2))
    rot = Permutation.from_one_line("2 3 1")
    assert apply_permutation(c, rot) == ((0, 0, 0), (0, 1, 0), (1, 0, 0))
    assert apply_permutation(c, rot) == tuple(sorted(map(rot.apply_to_cell, c)))
    with pytest.raises(SizeMismatchError, match="size 2 cannot act on 3"):
        apply_permutation(c, SWAP)


@pytest.mark.parametrize("cells", [(), []], ids=["tuple", "list"])
def test_apply_permutation_refuses_no_cells_as_from_cells_does(cells):
    # it read cells[0] and raised a raw IndexError
    with pytest.raises(NotDownSetError) as refused:
        apply_permutation(cells, SWAP)
    with pytest.raises(NotDownSetError) as built:
        from_cells(cells)
    assert str(refused.value) == str(built.value) == "a diagram needs at least one cell"


# ---------------------------------------------------------------------------
# JSON document form


def test_json_round_trip():
    doc = {"m": 1, "entries": [4, 2]}
    assert to_json(from_json(doc)) == doc
    doc2 = {"m": 2, "entries": [[2, 1], [1]]}
    assert to_json(from_json(doc2)) == doc2


# ---------------------------------------------------------------------------
# walking the nested entries


def ragged_arrays(depth):
    if depth == 0:
        return st.integers(1, 4)
    return st.lists(ragged_arrays(depth - 1), min_size=1, max_size=3)


def frozen(node):
    return tuple(map(frozen, node)) if isinstance(node, list) else node


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(st.just(m), ragged_arrays(m))))
def test_walks_follow_the_recursive_reference(case):
    """validate_array's walk visits the same (index, part) pairs in the same
    order as a recursive walk, and the cell builder lists the walk's cells
    in sorted order, valid partition or not."""
    m, raw = case
    entries = frozen(raw)
    expected = list(walk_reference.walk(entries, (), m))
    # unchecked, so the walks also run on arrays that are no partition
    cells = partitions._sorted_cells(m, entries)
    assert cells == tuple(sorted(walk_reference.cells(entries, m)))
    p = MultiPartition._unchecked(m=m, entries=entries, n=len(cells), cells=cells)
    real, walks = partitions._checked_leaves, []

    def recording(*args):
        walks.append(real(*args))
        return walks[-1]

    with mock.patch.object(partitions, "_checked_leaves", recording):
        try:
            assert validate_array(raw, m).n == p.n
        except (NotDownSetError, NotMonotoneError):
            pass
    assert walks == [expected]

import hashlib
import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_ot import (
    MAX_DIMENSION,
    InstanceTooLargeError,
    MultiPartition,
    NonPositiveEntryError,
    NotDownSetError,
    NotMonotoneError,
    Permutation,
    SizeMismatchError,
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
    symmetrize,
    to_json,
    validate_array,
)

from partition_ot import partitions

import walk_reference
from downset_oracle import oracle_cell_sets, oracle_count

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


def test_items_are_one_based():
    p = validate_array([[2, 1], [1]], 2)
    assert dict(p.items()) == {(1, 1): 2, (1, 2): 1, (2, 1): 1}


# ---------------------------------------------------------------------------
# cell form


def test_from_cells():
    cells = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]
    assert from_cells(cells).entries == (4, 2)
    assert from_cells(reversed(cells)) == validate_array([4, 2], 1)
    assert from_cells({(0, 0)}).entries == (1,)
    assert from_cells(measure_of(validate_array([[2, 1], [1]], 2))).m == 2


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


def test_repr_eq_and_hash_ignore_the_cells():
    p = validate_array([4, 2], 1)
    assert repr(p) == "MultiPartition(m=1, entries=(4, 2), n=6)"
    assert from_cells(measure_of(p)) == p
    assert hash(from_cells(measure_of(p))) == hash(p)
    stale = MultiPartition._unchecked(1, (4, 2), 6, ())
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


def test_dimension_guard():
    with pytest.raises(InstanceTooLargeError, match="m=401 exceeds the dimension guard"):
        enumerate_partitions(MAX_DIMENSION + 1, 1)
    # layers are compared without recursion, so n = 2 reaches the guard too
    assert count_partitions(MAX_DIMENSION, 1) == 1
    assert count_partitions(MAX_DIMENSION, 2) == MAX_DIMENSION + 1


# ---------------------------------------------------------------------------
# permutations


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation.from_one_line("2 3")
    with pytest.raises(ValueError):
        Permutation.from_one_line("not a perm")


def test_permutation_group_laws():
    perms = all_permutations(3)
    assert len(perms) == 6
    identity = Permutation.identity(3)
    for s in perms:
        assert s.compose(s.inverse()) == identity
        assert s.inverse().compose(s) == identity
        for t in perms:
            cell = (5, 7, 11)
            assert t.apply_to_cell(s.apply_to_cell(cell)) == t.compose(s).apply_to_cell(cell)


def test_cell_action_of_every_size():
    # itemgetter(0) returns a scalar, so size 1 needs its own cell map
    assert Permutation.identity(1).apply_to_cell((5,)) == (5,)
    assert SWAP.apply_to_cell((5, 7)) == (7, 5)
    sigma = Permutation.from_one_line("3 1 4 2")
    assert sigma.apply_to_cell((10, 20, 30, 40)) == (20, 40, 10, 30)
    assert sigma.inverse().apply_to_cell((20, 40, 10, 30)) == (10, 20, 30, 40)


def test_involutions_of_s3():
    assert [s.one_line() for s in involutions(3)] == ["1 2 3", "1 3 2", "2 1 3", "3 2 1"]


def test_is_involution_agrees_with_composing_twice():
    for size in range(1, 6):
        flags = [s.is_involution() for s in all_permutations(size)]
        assert flags == [s.compose(s).is_identity() for s in all_permutations(size)]
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
            assert symmetrize(symmetrize(p, s), t) == symmetrize(p, t.compose(s))


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
    """items() and validate_array's walk visit the same (index, part) pairs
    in the same order as a recursive walk, and the cell builder lists the
    walk's cells in sorted order, valid partition or not."""
    m, raw = case
    entries = frozen(raw)
    expected = list(walk_reference.walk(entries, (), m))
    # unchecked, so the walks also run on arrays that are no partition
    cells = partitions._sorted_cells(m, entries)
    assert cells == tuple(sorted(walk_reference.cells(entries, m)))
    p = MultiPartition._unchecked(m, entries, len(cells), cells)
    assert list(p.items()) == expected
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

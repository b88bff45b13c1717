import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_ot import (
    MAX_DIMENSION,
    CellSet,
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
    enumerate_partitions,
    from_cells,
    from_json,
    involutions,
    is_self_symmetric,
    measure_of,
    symmetrize,
    to_cells,
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


def test_to_cells_flat():
    assert to_cells(validate_array([4, 2], 1)).cells == frozenset(
        {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)}
    )
    assert to_cells(validate_array([1], 1)).cells == frozenset({(0, 0)})


def test_to_cells_nested():
    cells = to_cells(validate_array([[2, 1], [1]], 2))
    assert cells.cells == frozenset({(0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0)})
    assert cells.n == 4


def test_from_cells():
    c = CellSet(
        m=1, cells=frozenset({(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)})
    )
    assert from_cells(c).entries == (4, 2)
    assert from_cells(CellSet(m=1, cells=frozenset({(0, 0)}))).entries == (1,)


def test_cellset_rejects_holes():
    with pytest.raises(NotDownSetError):
        CellSet(m=1, cells=frozenset({(0, 0), (2, 0)}))
    with pytest.raises(NotDownSetError):
        CellSet(m=1, cells=frozenset({(1, 1)}))


def test_from_cells_input_is_checked():
    with pytest.raises(NotDownSetError, match=r"cell \(0, 1, 1\) present"):
        from_cells(CellSet(m=2, cells=frozenset({(0, 0, 0), (0, 1, 1)})))


def test_cells_are_checked_only_where_they_enter(monkeypatch):
    from partition_ot import partitions

    checked = []
    monkeypatch.setattr(
        partitions, "_check_cells", lambda m, cells: checked.append(cells)
    )
    p = validate_array([[2, 1], [1]], 2)
    c = to_cells(p)
    assert checked == [c.cells]
    for sigma in all_permutations(3):
        image = apply_permutation(c, sigma)
        assert image.m == 2
        assert image.cells == {sigma.apply_to_cell(x) for x in c.cells}
    assert measure_of(p) == tuple(sorted(c.cells))
    assert checked == [c.cells]


def test_round_trips():
    for m, n_max in ((1, 7), (2, 5), (3, 4)):
        for p in sample_partitions(m, n_max):
            assert from_cells(to_cells(p)) == p
    for cells in oracle_cell_sets(2, 5):
        c = CellSet(m=2, cells=frozenset(cells))
        assert to_cells(from_cells(c)).cells == c.cells


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
        ours = [to_cells(p).sorted_cells() for p in enumerate_partitions(m, n)]
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


def test_involutions_of_s3():
    assert [s.one_line() for s in involutions(3)] == ["1 2 3", "1 3 2", "2 1 3", "3 2 1"]


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
    moved = to_cells(p).cells - to_cells(symmetrize(p, sigma)).cells
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


def test_apply_permutation_rotates_cells():
    c = to_cells(validate_array([[2, 1]], 2))
    rot = Permutation.from_one_line("2 3 1")
    assert apply_permutation(c, rot).cells == {
        rot.apply_to_cell(x) for x in c.cells
    }


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
    """items(), the cell list and validate_array's walk visit the same
    (index, part) pairs in the same order as a recursive walk, valid
    partition or not."""
    m, raw = case
    entries = frozen(raw)
    expected = list(walk_reference.walk(entries, (), m))
    p = MultiPartition(m=m, entries=entries, n=sum(part for _, part in expected))
    assert list(p.items()) == expected
    assert partitions._cells(p) == walk_reference.cells(entries, m)
    real, walks = partitions._leaves, []

    def recording(*args):
        walks.append(real(*args))
        return walks[-1]

    with mock.patch.object(partitions, "_leaves", recording):
        try:
            assert validate_array(raw, m).n == p.n
        except (NotDownSetError, NotMonotoneError):
            pass
    assert walks == [expected]

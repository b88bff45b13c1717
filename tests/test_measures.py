from hypothesis import given, settings
from hypothesis import strategies as st

from partition_ot import (
    Permutation,
    all_permutations,
    decompose,
    enumerate_partitions,
    measure_of,
    symmetrize,
    validate_array,
)

SWAP = Permutation.from_one_line("2 1")


def test_measure_of_flat():
    mu = measure_of(validate_array([4, 2], 1))
    assert mu == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0))


def test_measure_of_single_cell():
    assert measure_of(validate_array([1], 1)) == ((0, 0),)


def test_measure_of_plane_example():
    mu = measure_of(validate_array([[3, 2], [1]], 2))
    assert mu == (
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1), (2, 0, 0),
    )


def test_total_mass_is_exactly_one():
    # Mass 1/n on each of n distinct points: the points must be n distinct
    # (m+1)-tuples, listed in sorted order.
    for n in range(1, 7):
        for p in enumerate_partitions(2, n):
            mu = measure_of(p)
            assert len(mu) == len(set(mu)) == n
            assert all(len(pt) == 3 for pt in mu)
            assert list(mu) == sorted(mu)


def test_support_is_equivariant():
    for n in range(1, 6):
        for p in enumerate_partitions(2, n):
            for sigma in all_permutations(3):
                image = {sigma.apply_to_cell(pt) for pt in measure_of(p)}
                assert set(measure_of(symmetrize(p, sigma))) == image


def test_decompose_flat():
    dec = decompose(validate_array([4, 2], 1), SWAP)
    assert dec.common == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert dec.source_only == {(2, 0), (3, 0)}
    assert dec.target_only == {(0, 2), (0, 3)}


def test_decompose_self_symmetric():
    dec = decompose(validate_array([2, 1], 1), SWAP)
    assert dec.source_only == frozenset() and dec.target_only == frozenset()
    assert len(dec.common) == 3


def test_decompose_plane_example():
    p = validate_array([[3, 2], [1]], 2)
    dec = decompose(p, Permutation.from_one_line("1 3 2"))
    assert len(dec.common) == 5
    assert dec.source_only == {(1, 0, 1)}
    assert dec.target_only == {(1, 1, 0)}


def test_decompose_cardinalities():
    for n in range(1, 6):
        for p in enumerate_partitions(2, n):
            for sigma in all_permutations(3):
                dec = decompose(p, sigma)
                assert len(dec.common) + len(dec.source_only) == p.n
                assert len(dec.source_only) == len(dec.target_only)



@st.composite
def instances(draw, max_m=3, max_n=6):
    m = draw(st.integers(1, max_m))
    p = draw(st.sampled_from(enumerate_partitions(m, draw(st.integers(1, max_n)))))
    return p, draw(st.sampled_from(all_permutations(m + 1)))


@settings(max_examples=300, deadline=None)
@given(instances())
def test_decompose_splits_both_supports(instance):
    p, sigma = instance
    dec = decompose(p, sigma)
    assert not (dec.common & dec.source_only)
    assert not (dec.common & dec.target_only)
    assert len(dec.source_only) == len(dec.target_only)
    assert dec.common | dec.source_only == set(measure_of(p))
    assert dec.common | dec.target_only == set(measure_of(symmetrize(p, sigma)))

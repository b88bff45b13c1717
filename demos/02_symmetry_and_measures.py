"""Coordinate permutations, symmetric partitions, and diagram measures.

A permutation of the m+1 cell coordinates maps diagrams to diagrams and
so acts on partitions.  For the flat case with the axis swap this is the
classical reflection across the diagonal.  Each partition carries a
uniform point-mass measure on its cells, and the supports of a partition
and its permuted image split into shared and moved parts.
"""

from partition_ot import (
    Permutation,
    all_permutations,
    decompose,
    involutions,
    is_self_symmetric,
    measure_of,
    symmetrize,
    validate_array,
)

flat = validate_array([4, 2], 1)
swap = Permutation.from_one_line("2 1")
print("(4,2) reflected:", symmetrize(flat, swap))
print("is (4,2) fixed by the swap?", is_self_symmetric(flat, swap))
print("is (2,1) fixed by the swap?",
      is_self_symmetric(validate_array([2, 1], 1), swap))

# The support split drives everything downstream: shared cells can stay
# put, moved cells must travel.
dec = decompose(flat, swap)
print("shared cells:", sorted(dec.common))
print("moved cells:", sorted(dec.source_only), "->", sorted(dec.target_only))

# A plane partition of 6 where the permutation (axis 2 <-> axis 3) moves
# exactly one cell.
plane = validate_array([[3, 2], [1]], 2)
sigma = Permutation.from_one_line("1 3 2")
print("\nplane example:", plane, "->", symmetrize(plane, sigma))
dec = decompose(plane, sigma)
print("shared:", len(dec.common), "cells; moved:",
      sorted(dec.source_only), "->", sorted(dec.target_only))

# Measures: one atom of mass 1/n per cell, so the sorted cells say it all.
mu = measure_of(validate_array([2, 1], 1))
print("\nmeasure of (2,1): mass 1/3 on each of", mu)

# The symmetric group acts: composing permutations composes actions.
s3 = all_permutations(3)
print("\nS_3 one-line forms:", [s.one_line() for s in s3])
print("involutions:", [s.one_line() for s in involutions(3)])
p = validate_array([[2, 1], [1]], 2)
for s in s3:
    print(f"  sigma = {s.one_line()}:  {symmetrize(p, s)}"
          + ("   (fixed)" if is_self_symmetric(p, s) else ""))

"""Build, validate, and enumerate partitions of any dimension.

A 1-dimensional partition is a weakly decreasing tuple of positive parts;
an m-dimensional partition is a ragged array, weakly decreasing along
every index axis.  Each one is equivalent to a down-set of lattice cells
in dimension m+1 (its diagram), and the library moves freely between the
two forms.
"""

from partition_ot import (
    count_partitions,
    enumerate_partitions,
    from_cells,
    measure_of,
    validate_array,
)

# A flat partition of 6 and a plane partition of 4.
flat = validate_array([4, 2], 1)
plane = validate_array([[2, 1], [1]], 2)
print("flat:", flat, "n =", flat.n)
print("plane:", plane, "n =", plane.n)

# The diagram view: one cell per stacked unit, as a sorted tuple.
# Coordinate 0 is the stacking axis, the remaining coordinates are the
# array indices.  from_cells checks cells from anywhere and rebuilds the
# array.
cells = measure_of(flat)
print("cells of (4,2):", list(cells))
print("round trip:", from_cells(cells))

# Invalid arrays are rejected with a specific error.
for bad in ([2, 3], [[1, 1], [1, 1, 1]], [3, 0]):
    try:
        validate_array(bad, 2 if isinstance(bad[0], list) else 1)
    except Exception as exc:
        print(f"rejected {bad!r}: {type(exc).__name__}: {exc}")

# Enumeration is exhaustive, duplicate-free, and canonically ordered
# (lexicographic on the sorted cell list of the diagram).
print("\npartitions of 4:")
for p in enumerate_partitions(1, 4):
    print(" ", p)

print("\ncounts by dimension:")
for m in (1, 2, 3):
    counts = [count_partitions(m, n) for n in range(1, 7)]
    print(f"  m={m}: {counts}")

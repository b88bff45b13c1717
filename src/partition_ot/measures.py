"""Point-mass measures on diagram cells and support bookkeeping.

A partition of n turns into a probability measure with one atom of mass
1/n on each diagram cell, placed on the corner of the unit cell closest to
the origin (the cell tuple itself).  Every atom has the same mass, so the
measure is just the sorted tuple of its points.  `decompose` splits the
cells of a partition against those of its permuted image into shared and
moved parts.
"""

from __future__ import annotations

from collections import namedtuple

from .partitions import apply_permutation


SupportDecomposition = namedtuple(
    "SupportDecomposition", "common source_only target_only"
)
SupportDecomposition.__doc__ = (
    "Split of source and target cells into shared and exclusive parts."
)


def measure_of(p):
    """Uniform measure of p: its diagram cells as a sorted tuple.

    Every cell carries mass 1/n, so the points alone describe the measure.
    Their sorted order fixes the row and column indexing used by cost
    matrices and plans downstream.  This is the one cell form of a
    partition, the `cells` that p carries since it was built;
    `partitions.from_cells` inverts it.
    """
    return p.cells


def decompose(p, sigma):
    """Split cells of p against cells of its sigma-permuted image.

    `common` is the intersection, `source_only` the cells only p has,
    `target_only` the cells only the image has.  The two exclusive parts
    always have equal cardinality.
    """
    cells = measure_of(p)
    src = frozenset(cells)
    dst = frozenset(apply_permutation(cells, sigma))
    common = src & dst
    return SupportDecomposition(
        common=common, source_only=src - common, target_only=dst - common
    )


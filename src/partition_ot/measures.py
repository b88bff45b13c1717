"""Point-mass measures on diagram cells and support bookkeeping.

A partition of n turns into a probability measure with one atom of mass
1/n on each diagram cell, placed on the corner of the unit cell closest to
the origin (the cell tuple itself).  Every atom has the same mass, so the
measure is just the sorted tuple of its points.  `decompose` splits the
cells of a partition against those of its permuted image into shared and
moved parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import apply_permutation, to_cells


@dataclass(frozen=True)
class SupportDecomposition:
    """Split of source and target cells into shared and exclusive parts."""

    common: frozenset
    source_only: frozenset
    target_only: frozenset

    def __post_init__(self):
        assert not (self.common & self.source_only)
        assert not (self.common & self.target_only)
        assert len(self.source_only) == len(self.target_only)


def measure_of(p):
    """Uniform measure of p: its diagram cells as a sorted tuple.

    Every cell carries mass 1/n, so the points alone describe the measure.
    Their sorted order fixes the row and column indexing used by cost
    matrices and plans downstream.
    """
    return tuple(sorted(to_cells(p).cells))


def decompose(p, sigma):
    """Split cells of p against cells of its sigma-permuted image.

    `common` is the intersection, `source_only` the cells only p has,
    `target_only` the cells only the image has.  The two exclusive parts
    always have equal cardinality.
    """
    src = to_cells(p)
    dst = apply_permutation(src, sigma)
    common = src.cells & dst.cells
    return SupportDecomposition(
        common=frozenset(common),
        source_only=frozenset(src.cells - common),
        target_only=frozenset(dst.cells - common),
    )


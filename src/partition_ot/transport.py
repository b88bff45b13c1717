"""Exact discrete transport: costs, assignment, plans, distances.

Everything on the "sq" (squared Euclidean) and "l1" cost kinds runs in
exact integer and rational arithmetic end to end.  The "euclid" kind has
irrational costs; it is solved on a fixed-precision integer grid and its
results are flagged non-exact.

Uniform equal-size marginals make the transport problem an assignment
problem: the extreme points of the doubly stochastic polytope are the
permutation matrices, so the optimal plan value equals the minimum-cost
perfect matching value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    NonIntegerCostsError,
    NotSquareError,
    ShapeMismatchError,
)
from .measures import measure_of

SQUARED_EUCLIDEAN = "sq"
EUCLIDEAN = "euclid"
L1 = "l1"
COST_KINDS = (SQUARED_EUCLIDEAN, EUCLIDEAN, L1)

BRUTE_FORCE_MAX = 9
MONOTONE_MAX_PAIRS = 12
MONOTONE_MAX_CYCLE = 4

_EUCLID_SCALE = 1 << 40  # fixed-precision grid for the irrational kind
_EUCLID_EPS = 1e-9


def squared_distance(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def l1_distance(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise costs between a source and a target point list.

    `values` holds exact non-negative integers for the "sq" and "l1" kinds
    and floats for "euclid"; in the latter case `exact_squared` keeps the
    integer squared distances for exact zero tests.
    """

    kind: str
    values: tuple
    exact_squared: tuple = None

    @property
    def rows(self):
        return len(self.values)

    @property
    def cols(self):
        return len(self.values[0]) if self.values else 0

    @property
    def is_exact(self):
        return self.kind != EUCLIDEAN


def cost_matrix(src, dst, kind=SQUARED_EUCLIDEAN):
    """Costs between all pairs of two point tuples of equal dimension.

    Rows follow `src` and columns follow `dst`, as listed by `measure_of`.
    """
    if kind not in COST_KINDS:
        raise ValueError(f"unknown cost kind {kind!r}; expected one of {COST_KINDS}")
    if src and dst and len(src[0]) != len(dst[0]):
        raise DimensionMismatchError(
            f"source dimension {len(src[0])} != target dimension {len(dst[0])}"
        )
    if kind == L1:
        return CostMatrix(
            kind=kind,
            values=tuple(tuple(l1_distance(a, b) for b in dst) for a in src),
        )
    sq = tuple(tuple(squared_distance(a, b) for b in dst) for a in src)
    if kind == SQUARED_EUCLIDEAN:
        return CostMatrix(kind=kind, values=sq)
    floats = tuple(tuple(math.sqrt(v) for v in row) for row in sq)
    return CostMatrix(kind=kind, values=floats, exact_squared=sq)


def integer_cost_matrix(values, kind=SQUARED_EUCLIDEAN):
    """Wrap a plain integer matrix (generic problems and solver tests)."""
    vals = tuple(tuple(int(v) for v in row) for row in values)
    if not vals:
        raise ShapeMismatchError("empty cost matrix")
    widths = {len(row) for row in vals}
    if len(widths) > 1:
        raise ShapeMismatchError("ragged cost matrix")
    return CostMatrix(kind=kind, values=vals)


class AssignmentResult(NamedTuple):
    matching: tuple
    total: object  # int for exact kinds, float otherwise
    exact: bool


def solve_assignment(c):
    """Certified minimum-cost perfect matching on a square cost matrix.

    Among equal-cost optima the lexicographically smallest matching (by
    row, then column) is returned.  Integer kinds are solved exactly; the
    "euclid" kind goes through the fixed-precision grid and comes back
    flagged non-exact.
    """
    if c.rows != c.cols:
        raise NotSquareError(f"cost matrix is {c.rows}x{c.cols}")
    n = c.rows
    if c.is_exact:
        if any(not isinstance(v, int) for row in c.values for v in row):
            raise NonIntegerCostsError(f"kind {c.kind!r} requires integer costs")
        matching = _hungarian(_lex_perturbed(c.values))
        total = sum(c.values[i][matching[i]] for i in range(n))
        return AssignmentResult(matching, total, True)
    scaled = [[round(v * _EUCLID_SCALE) for v in row] for row in c.values]
    matching = _hungarian(_lex_perturbed(scaled))
    total = math.fsum(c.values[i][matching[i]] for i in range(n))
    return AssignmentResult(matching, total, False)


def solve_bruteforce(c):
    """Exhaustive minimum over all n! matchings; oracle for solve_assignment.

    Ties resolve to the lexicographically smallest matching because
    permutations are visited in lexicographic order.
    """
    if c.rows != c.cols:
        raise NotSquareError(f"cost matrix is {c.rows}x{c.cols}")
    n = c.rows
    if n > BRUTE_FORCE_MAX:
        raise InstanceTooLargeError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX}")
    best = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        tot = sum(c.values[i][perm[i]] for i in range(n))
        if best is None or tot < best:
            best, best_perm = tot, perm
    return AssignmentResult(tuple(best_perm), best, c.is_exact)


def _lex_perturbed(values):
    """Bias ties so the unique optimum is the lex-smallest optimal matching.

    Base costs are scaled by n^n, then column j of row i gains j * n^(n-1-i).
    The perturbation total stays below one base-cost unit, so optima of the
    perturbed problem are exactly the lex-smallest optima of the original.
    """
    n = len(values)
    unit = n**n
    return [
        [values[i][j] * unit + j * n ** (n - 1 - i) for j in range(n)]
        for i in range(n)
    ]


def _hungarian(costs):
    """Minimum-cost perfect matching on a square integer matrix.

    Potentials-based O(n^3) method, exact on Python integers.  Returns the
    column assigned to each row.
    """
    n = len(costs)
    big = 1 + (n + 1) * max(max(row) for row in costs)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match_row = [0] * (n + 1)  # column j -> assigned row, 1-based; 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match_row[0] = i
        j0 = 0
        minv = [big] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            delta = big
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = costs[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    out = [0] * n
    for j in range(1, n + 1):
        out[match_row[j] - 1] = j - 1
    return tuple(out)


# ---------------------------------------------------------------------------
# distances and plans
#
# Uniform 1/n marginals make every optimal plan a permutation matrix, so a
# plan is just the solver's matching: row i sends mass 1/n to column
# matching[i].


def solve_transport(a, b, kind=SQUARED_EUCLIDEAN):
    """Cost matrix and optimal assignment between the diagrams of a and b.

    This one solve fixes everything about a query: the distance, the plan
    and any check of the solver against the oracle.
    """
    if a.m != b.m or a.n != b.n:
        raise ShapeMismatchError(
            f"cannot transport between (m={a.m}, n={a.n}) and (m={b.m}, n={b.n})"
        )
    c = cost_matrix(measure_of(a), measure_of(b), kind)
    return c, solve_assignment(c)


def wasserstein(a, b, kind=SQUARED_EUCLIDEAN):
    """Minimum transport cost between the diagram measures of two partitions.

    Returns an exact Fraction for the integer cost kinds and a float for
    "euclid" (see `plan_cost`).
    """
    c, res = solve_transport(a, b, kind)
    return plan_cost(res.matching, c)


def wasserstein_is_zero(a, b):
    """Exact zero test for the distance, valid for every cost kind.

    All kinds vanish only on coinciding points, so the distance is zero
    under one kind exactly when it is zero under all; the test runs on the
    integer squared-Euclidean costs.
    """
    return wasserstein(a, b, SQUARED_EUCLIDEAN) == 0


def plan_cost(matching, c):
    """Transport cost of the plan that sends mass 1/n along each matched pair.

    The matching total divided by n: an exact Fraction for integer kinds, a
    float for "euclid".
    """
    n = len(matching)
    if n != c.rows or n != c.cols:
        raise ShapeMismatchError(f"plan is {n}x{n}, costs are {c.rows}x{c.cols}")
    if sorted(matching) != list(range(n)):
        raise ValueError(f"not a matching of {n} indices: {matching!r}")
    costs = [row[j] for row, j in zip(c.values, matching)]
    if c.is_exact:
        return Fraction(sum(costs), n)
    return math.fsum(costs) / n


def plan_to_json(matching, total):
    """Wire form: mass 1/n on each matched pair (i, j), and the exact cost."""
    if not isinstance(total, Fraction):
        raise NonIntegerCostsError("plan JSON carries an exact rational total")
    n = len(matching)
    return {
        "n": n,
        "entries": [
            {"i": i, "j": j, "num": 1, "den": n} for i, j in enumerate(matching)
        ],
        "total_num": total.numerator,
        "total_den": total.denominator,
    }


# ---------------------------------------------------------------------------
# cyclical monotonicity


def is_c_cyclically_monotone(pairs, kind=SQUARED_EUCLIDEAN, max_cycle=3):
    """Check that no small family of pairs can relabel its targets cheaper.

    For every subset of up to `max_cycle` distinct pairs and every
    permutation of its target points, the matched cost must not exceed the
    permuted cost.  Returns (True, None) or (False, witness) where the
    witness is the offending (family, permuted_targets).

    Integer kinds compare exactly; "euclid" compares floats with a small
    slack, which is ample for the tiny integer coordinates involved.
    """
    pair_list = sorted(set(pairs))
    if len(pair_list) > MONOTONE_MAX_PAIRS:
        raise InstanceTooLargeError(
            f"{len(pair_list)} pairs exceed the guard {MONOTONE_MAX_PAIRS}"
        )
    if max_cycle > MONOTONE_MAX_CYCLE:
        raise InstanceTooLargeError(
            f"max_cycle={max_cycle} exceeds the guard {MONOTONE_MAX_CYCLE}"
        )
    if kind == SQUARED_EUCLIDEAN:
        cost = squared_distance
    elif kind == L1:
        cost = l1_distance
    elif kind == EUCLIDEAN:
        cost = lambda a, b: math.sqrt(squared_distance(a, b))
    else:
        raise ValueError(f"unknown cost kind {kind!r}")
    slack = _EUCLID_EPS if kind == EUCLIDEAN else 0
    for k in range(2, max_cycle + 1):
        for family in itertools.combinations(pair_list, k):
            base = sum(cost(s, t) for s, t in family)
            targets = [t for _, t in family]
            for perm in itertools.permutations(range(k)):
                relabeled = sum(
                    cost(family[idx][0], targets[perm[idx]]) for idx in range(k)
                )
                if base > relabeled + slack:
                    witness = (
                        family,
                        tuple(targets[perm[idx]] for idx in range(k)),
                    )
                    return False, witness
    return True, None

"""Exact discrete transport: costs, assignment, plans, distances.

Everything on the "sq" (squared Euclidean) and "l1" cost kinds runs in
exact integer and rational arithmetic end to end.  The "euclid" kind has
irrational costs; it is solved on a fixed-precision integer grid, its
totals are floats, and its cost matrices report `is_exact` false.

Uniform equal-size marginals make the transport problem an assignment
problem: the extreme points of the doubly stochastic polytope are the
permutation matrices, so the optimal plan value equals the minimum-cost
perfect matching value.  The solver works on the raw integer costs and
returns the LP dual of that assignment problem with its matching; the
dual certifies optimality in O(n^2) and fixes the lex-smallest optimum.
Every solve checks that certificate; the "sq" and "l1" values (the sweeps,
`wasserstein`) then skip the lex step, as every optimum has their total.
Cost entries are type-checked once, when a `CostMatrix` is built, and no
solve scans them again.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce
from operator import add, getitem, sub

from .errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    NonIntegerCostsError,
    NotSquareError,
    ShapeMismatchError,
)
from .measures import measure_of
from .partitions import _Frozen

SQUARED_EUCLIDEAN = "sq"
EUCLIDEAN = "euclid"
L1 = "l1"
COST_KINDS = (SQUARED_EUCLIDEAN, EUCLIDEAN, L1)

BRUTE_FORCE_MAX = 9
# The O(n^3) solve refuses larger n.  A flat pair at n = 2000 under "sq"
# took 39 s to solve (3 s more for its cost matrix, 395 MiB peak) with
# Python 3.11 on a shared 2-CPU VM.
ASSIGNMENT_MAX_N = 2000
MONOTONE_MAX_PAIRS = 12
MONOTONE_MAX_CYCLE = 4

_EUCLID_SCALE = 1 << 40  # fixed-precision grid for the irrational kind
_EUCLID_EPS = 1e-9


def squared_distance(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def l1_distance(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


class CostMatrix(_Frozen):
    """Pairwise costs between a source and a target point list.

    `values` holds exact integers for the "sq" and "l1" kinds and floats
    for "euclid".  The constructor is the trust boundary: it freezes
    `values` to a tuple of row tuples and raises ValueError for an unknown
    kind or a non-int entry (bools included) under an exact kind, and
    ShapeMismatchError for ragged rows.  Nothing checks the entries again.
    """

    _fields = ("kind", "values")

    def __init__(self, kind, values):
        _check_kind(kind)
        values = tuple(map(tuple, values))
        if kind != EUCLIDEAN:
            for v in itertools.chain.from_iterable(values):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(f"cost entry {v!r} is not an integer")
        if len(set(map(len, values))) > 1:
            raise ShapeMismatchError("ragged cost matrix")
        self.__dict__.update(kind=kind, values=values)

    @classmethod
    def _unchecked(cls, kind, values):
        """A matrix the library built valid, made without the check."""
        c = object.__new__(cls)
        c.__dict__.update(kind=kind, values=values)
        return c

    @property
    def rows(self):
        return len(self.values)

    @property
    def cols(self):
        return len(self.values[0]) if self.values else 0

    @property
    def is_exact(self):
        return self.kind != EUCLIDEAN


_add_terms = partial(map, add)  # element-wise sum of two term lists


def cost_matrix(src, dst, kind=SQUARED_EUCLIDEAN):
    """Costs between all pairs of two point tuples of equal dimension.

    Rows follow `src` and columns follow `dst`, as listed by `measure_of`.
    The exact kinds need int coordinates, which give int costs.
    """
    _check_kind(kind)
    if kind != EUCLIDEAN:
        kinds = set(map(type, itertools.chain(*src, *dst)))
        if not all(issubclass(t, int) for t in kinds):
            raise NonIntegerCostsError(f"kind {kind!r} requires integer coordinates")
    dim = len(src[0]) if src else 0
    if src and dst and dim != len(dst[0]):
        raise DimensionMismatchError(
            f"source dimension {dim} != target dimension {len(dst[0])}"
        )
    if not dim:  # no rows, or zero-dimensional points, which all coincide
        zero = 0.0 if kind == EUCLIDEAN else 0
        return CostMatrix._unchecked(kind, ((zero,) * len(dst),) * len(src))
    # Each cost is a sum of one term per coordinate, so a row is the sum of
    # one term list per coordinate.  Cell coordinates take few values, and
    # each coordinate value's terms against `dst` are built once, on first use.
    cols = list(zip(*dst)) if dst else [()] * dim
    tables = [{} for _ in cols]
    l1 = kind == L1
    rows = []
    for a in src:
        terms = []
        for x, col, table in zip(a, cols, tables):
            t = table.get(x)
            if t is None:
                if l1:
                    t = table[x] = [abs(x - y) for y in col]
                else:
                    t = table[x] = [(x - y) * (x - y) for y in col]
            terms.append(t)
        rows.append(tuple(reduce(_add_terms, terms)))
    if kind == EUCLIDEAN:
        return CostMatrix._unchecked(
            kind, tuple(tuple(map(math.sqrt, row)) for row in rows)
        )
    return CostMatrix._unchecked(kind, tuple(rows))


def _check_kind(kind):
    if kind not in COST_KINDS:
        raise ValueError(f"unknown cost kind {kind!r}; expected one of {COST_KINDS}")


def integer_cost_matrix(values, kind=SQUARED_EUCLIDEAN):
    """Wrap a plain integer matrix (generic problems and solver tests).

    Every entry must be an int; floats, bools and anything else raise
    ValueError rather than being rounded into a different problem, as
    `CostMatrix` does.  Empty matrices and the "euclid" kind are refused.
    """
    if kind == EUCLIDEAN:
        raise NonIntegerCostsError("an integer cost matrix needs an exact kind")
    c = CostMatrix(kind, values)
    if not c.values:
        raise ShapeMismatchError("empty cost matrix")
    return c


AssignmentResult = namedtuple(
    "AssignmentResult", "matching total duals", defaults=(None,)
)
AssignmentResult.__doc__ = """A minimum-cost perfect matching and its LP dual.

`total` is an int for the exact kinds and a float otherwise.  `duals` is
(u, v), one potential per row and per column, in the units of the integer
matrix the solver ran on: the costs themselves for the exact kinds, the
2^40 grid for "euclid".  The dual proves the matching optimal; see
`check_certificate`.
"""


def solve_assignment(c):
    """Certified minimum-cost perfect matching on a square cost matrix.

    Among equal-cost optima the lexicographically smallest matching (by
    row, then column) is returned.  Integer kinds are solved exactly; the
    "euclid" kind goes through the fixed-precision grid and its total is a
    float (`c.is_exact` is false).

    The lex step runs on top of `_certified_solve` and its dual (u, v).  By
    complementary slackness every optimal matching uses only tight edges,
    where c_ij - u_i - v_j = 0, so the lex-smallest optimum is the
    lex-smallest perfect matching among them.
    """
    costs, res = _certified_solve(c)
    u, v = res.duals
    tight = []
    for row, ui in zip(costs, u):
        # c_ij - v_j is the reduced cost plus u_i: tight where it equals u_i
        shifted = list(map(sub, row, v))
        js, j = [], -1
        for _ in range(shifted.count(ui)):
            j = shifted.index(ui, j + 1)
            js.append(j)
        tight.append(js)
    matching = _lex_smallest_tight_matching(tight, res.matching)
    if sum(map(getitem, costs, matching)) != res.total:  # tight edges only
        raise RuntimeError("assignment dual does not certify the matching")
    total = res.total if c.is_exact else math.fsum(map(getitem, c.values, matching))
    return AssignmentResult(matching, total, res.duals)


def _certified_solve(c):
    """Some optimal matching of `c` with the dual that certifies it.

    Returns the integer matrix solved (`c.values`, or the 2^40 grid for
    "euclid") and an `AssignmentResult` in its units, which passes
    `check_certificate`.  Raises RuntimeError on a dual that does not.
    """
    if c.rows != c.cols:
        raise NotSquareError(f"cost matrix is {c.rows}x{c.cols}")
    _check_assignment_size(c.rows)
    if c.is_exact:  # int entries, checked when `c` was built
        costs = c.values
    else:
        costs = [[round(v * _EUCLID_SCALE) for v in row] for row in c.values]
    col_of, u, v = _shortest_augmenting_paths(costs)
    for i, (row, ui) in enumerate(zip(costs, u)):
        if min(map(sub, row, v)) < ui:  # a negative reduced cost in row i
            raise RuntimeError(f"assignment dual infeasible in row {i}")
    # with every reduced cost >= 0, equal sums force a zero on each matched pair
    total = sum(map(getitem, costs, col_of))
    if sum(u) + sum(v) != total:
        raise RuntimeError("assignment dual does not certify the matching")
    return costs, AssignmentResult(tuple(col_of), total, (tuple(u), tuple(v)))


def check_certificate(c, res):
    """True when the duals in `res` prove its matching optimal for `c`.

    This is the LP dual of the assignment problem, Kantorovich duality
    specialised to uniform marginals: u_i + v_j <= c_ij for every pair and
    sum(u) + sum(v) equal to the matching's total, which forces equality on
    every matched pair.  The check is O(n^2) and shares no code with the
    solver.  For "euclid" it runs on the same 2^40 grid the solver uses.
    """
    n = c.rows
    matching = res.matching
    if c.cols != n or res.duals is None or sorted(matching) != list(range(n)):
        return False
    u, v = res.duals
    if len(u) != n or len(v) != n:
        return False
    if c.is_exact:
        grid = c.values
    else:
        grid = [[round(x * _EUCLID_SCALE) for x in row] for row in c.values]
    for row, ui in zip(grid, u):
        if any(cij < ui + vj for cij, vj in zip(row, v)):
            return False
    total = sum(row[j] for row, j in zip(grid, matching))
    if c.is_exact and res.total != total:
        return False
    return sum(u) + sum(v) == total


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
    return AssignmentResult(tuple(best_perm), best)


def _check_assignment_size(n):
    if n > ASSIGNMENT_MAX_N:
        raise InstanceTooLargeError(
            f"n={n} exceeds the assignment guard {ASSIGNMENT_MAX_N}"
        )


def _shortest_augmenting_paths(costs):
    """Minimum-cost perfect matching with its LP dual, on a square int matrix.

    Column reduction starts the dual at v_j = min_i c_ij, which makes every
    reduced cost non-negative for any sign of the costs, and matches each
    column's first minimum row when that row is still free.  Each row left
    free takes u_i as its smallest reduced cost and a free column at that
    minimum, if there is one.  Every row still free then grows a Dijkstra
    tree over reduced costs to the nearest free column and augments along
    it (Kuhn 1955; Jonker & Volgenant 1987).  No cost bound or sentinel is
    needed.  Returns (col_of, u, v): the column of each row and potentials
    with u_i + v_j <= c_ij everywhere, with equality on matched pairs.
    """
    n = len(costs)
    inf = math.inf
    cols = range(n)
    by_col = list(zip(*costs))
    u = [0] * n
    v = list(map(min, by_col))
    col_of = [-1] * n
    row_of = [-1] * n
    for j in cols:
        i = by_col[j].index(v[j])
        if col_of[i] < 0:
            col_of[i] = j
            row_of[j] = i
    for i in range(n):
        if col_of[i] < 0:
            reduced = [cij - vj for cij, vj in zip(costs[i], v)]
            u[i] = low = min(reduced)
            for j, r in enumerate(reduced):
                if r == low and row_of[j] < 0:
                    col_of[i] = j
                    row_of[j] = i
                    break
    for start in range(n):
        if col_of[start] >= 0:
            continue
        dist = [inf] * n
        pred = [0] * n  # column -> row it was reached from
        remaining = list(cols)
        done = []  # finalized columns, in order
        scanned = [start]
        i, d = start, 0
        while True:
            row, base, d = costs[i], d - u[i], inf
            for j in remaining:
                r = base + row[j] - v[j]
                dj = dist[j]
                if r < dj:
                    dist[j] = dj = r
                    pred[j] = i
                if dj < d:
                    d, j1 = dj, j
            remaining.remove(j1)
            done.append(j1)
            i = row_of[j1]
            if i < 0:
                break
            scanned.append(i)
        u[start] += d
        for i in scanned[1:]:
            u[i] += d - dist[col_of[i]]
        for j in done:
            v[j] -= d - dist[j]
        while True:
            i = pred[j1]
            row_of[j1] = i
            col_of[i], j1 = j1, col_of[i]
            if i == start:
                break
    return col_of, u, v


def _lex_smallest_tight_matching(tight, col_of):
    """Lex-smallest perfect matching within the tight edges.

    `tight[i]` lists row i's tight columns in increasing order and `col_of`
    is a perfect matching inside them.  Row by row, a row with a tight
    column left of its own tries to free the smallest such column: rows
    after it may move along an alternating path of tight edges that ends in
    the row's current column.  Earlier rows are fixed by then.
    """
    n = len(col_of)
    col_of = list(col_of)
    row_of = [0] * n
    for i, j in enumerate(col_of):
        row_of[j] = i
    tight_rows = None
    for i in range(n):
        cur = col_of[i]
        if tight[i][0] == cur:
            continue
        wanted = [j for j in tight[i] if j < cur and row_of[j] > i]
        if not wanted:
            continue
        if tight_rows is None:
            tight_rows = [[] for _ in range(n)]
            for r, js in enumerate(tight):
                for j in js:
                    tight_rows[j].append(r)
        # columns row i could take if the rows after it shift: each maps to
        # the column its holder would move to, ending at `cur`
        freed = {cur: None}
        queue = [cur]
        target = wanted[0]
        for col in queue:
            for r in tight_rows[col]:
                if r > i and col_of[r] not in freed:
                    freed[col_of[r]] = col
                    queue.append(col_of[r])
            if target in freed:
                break
        best = next((j for j in wanted if j in freed), None)
        if best is None:
            continue
        col, mover = best, row_of[best]
        while col != cur:
            nxt = freed[col]
            holder = row_of[nxt]
            col_of[mover], row_of[nxt] = nxt, mover
            col, mover = nxt, holder
        col_of[i], row_of[best] = best, i
    return tuple(col_of)


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
    _check_transport_inputs(a, b)
    c = cost_matrix(measure_of(a), measure_of(b), kind)
    return c, solve_assignment(c)


def optimal_total(src, dst, kind=SQUARED_EUCLIDEAN):
    """Optimal assignment total between two equal-length point tuples.

    The value alone, with no matching, from the smallest solve that fixes
    it exactly:

    * `src == dst`: 0 with no solve, for every kind.  No cost is negative
      and the identity costs 0.
    * "l1": the solve on the moved points only.  For a metric cost the
      optimum depends only on mu - nu (Kantorovich-Rubinstein duality), and
      the shared points cancel there, counted with multiplicity.
    * otherwise the full solve.  "sq" is no metric: a moved point can relay
      through a shared one, so dropping shared points changes the optimum.
      "euclid" is a metric, but its float total over the moved points can
      differ from the full one in the last bit.

    Every solve checks its dual certificate.  "euclid" adds the lex step
    of `solve_assignment`, as its float total depends on the optimum summed.
    Returns an int for the exact kinds and a float for "euclid".
    """
    _check_kind(kind)
    _check_assignment_size(len(src))
    if src == dst:
        return 0.0 if kind == EUCLIDEAN else 0
    if kind == L1:
        dst, moved = list(dst), []
        for x in src:  # each shared copy cancels one copy on the other side
            if x in dst:
                dst.remove(x)
            else:
                moved.append(x)
        src = moved
    c = cost_matrix(src, dst, kind)
    if kind == EUCLIDEAN:
        return solve_assignment(c).total
    return _certified_solve(c)[1].total


def wasserstein(a, b, kind=SQUARED_EUCLIDEAN):
    """Minimum transport cost between the diagram measures of two partitions.

    Returns an exact Fraction for the integer cost kinds and a float for
    "euclid", as `plan_cost` does for an optimal plan.
    """
    _check_transport_inputs(a, b)
    total = optimal_total(measure_of(a), measure_of(b), kind)
    return total / a.n if kind == EUCLIDEAN else Fraction(total, a.n)


def _check_transport_inputs(a, b):
    if a.m != b.m or a.n != b.n:
        raise ShapeMismatchError(
            f"cannot transport between (m={a.m}, n={a.n}) and (m={b.m}, n={b.n})"
        )
    _check_assignment_size(a.n)


def wasserstein_is_zero(a, b):
    """Exact zero test for the distance, valid for every cost kind.

    Every kind costs 0 only on coinciding points, so a plan costs 0 exactly
    when it matches each cell to itself: the distance is zero under every
    kind exactly when the two diagrams are equal.  No solve is needed.
    """
    _check_transport_inputs(a, b)
    return measure_of(a) == measure_of(b)


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

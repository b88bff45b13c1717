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
A cost matrix is n x n: its shape and entry types are checked once, where
it is built, and no solve checks them again.  Each rule is written once:
the point rule (`_check_points`) that `cost_matrix` and `optimal_total`
run on every point, the certificate rule (`_certificate_fault`) that every
solve and `check_certificate` apply, and the int matrix they apply it to
(`_grid`, the 2^40 grid under "euclid").  A caller that solves many
small problems over one point set, such as a sweep layer, builds that
set's costs once (`_CostTable`) and solves through the table's `total`,
which applies `optimal_total`'s rule, looks each matrix up instead of
building it, and solves each distinct one once.
"""

import itertools
import math
import sys
from collections import namedtuple
from functools import partial, reduce
from operator import add, getitem, itemgetter, sub

from .errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    NonIntegerCostsError,
    NotSquareError,
    ShapeMismatchError,
)
from .measures import measure_of
from .partitions import _Frozen, _check_int, _entry_name, _exceeds, _is_int

SQUARED_EUCLIDEAN = "sq"
EUCLIDEAN = "euclid"
L1 = "l1"
COST_KINDS = (SQUARED_EUCLIDEAN, EUCLIDEAN, L1)

BRUTE_FORCE_MAX = 9
# The O(n^3) solve refuses larger n.  A flat pair at n = 2000 under "sq"
# took 39 s to solve (3 s more for its cost matrix, 395 MiB peak) with
# Python 3.11 on a shared 2-CPU VM.
ASSIGNMENT_MAX_N = 2000
# is_c_cyclically_monotone refuses more steps, (min(max_cycle, k) - 2) * k^3
# + k^2 for k pairs: an optimal flat plan of 320 pairs at max_cycle=4 took
# 4.7 s, at 300 pairs and max_cycle=2 0.02 s, on the same VM.  Its k x k
# tables are an assignment's size, so it refuses k > ASSIGNMENT_MAX_N too:
# 2,000 pairs at max_cycle=2 raised peak RSS by 333 MiB, a solve of 2,000
# flat "sq" cells by 302 MiB.
_MONOTONE_MAX_WORK = 10**8

_EUCLID_SCALE = 1 << 40  # fixed-precision grid for the irrational kind
# the largest cost whose grid value is a finite float: scaling by a power of
# two is exact, so a float v has a finite grid value exactly when |v| <= this
_EUCLID_MAX = sys.float_info.max / _EUCLID_SCALE
_EUCLID_EPS = 1e-9


def squared_distance(a, b):
    if len(a) != len(b):
        raise _dimension_mismatch({len(a), len(b)})
    return sum((x - y) ** 2 for x, y in zip(a, b))


def l1_distance(a, b):
    if len(a) != len(b):
        raise _dimension_mismatch({len(a), len(b)})
    return sum(abs(x - y) for x, y in zip(a, b))


def _dimension_mismatch(dims):
    return DimensionMismatchError(f"points of different dimensions {sorted(dims)}")


# the cost of moving one unit mass from point a to point b, per cost kind
POINT_COSTS = {
    SQUARED_EUCLIDEAN: squared_distance,
    EUCLIDEAN: lambda a, b: math.sqrt(squared_distance(a, b)),
    L1: l1_distance,
}


class CostMatrix(_Frozen):
    """Square pairwise costs between a source and a target point list.

    `values` holds exact integers for the "sq" and "l1" kinds and floats
    (or ints) for "euclid".  The constructor is the trust boundary: it
    freezes `values` to a tuple of row tuples and raises ValueError for an
    unknown kind, a non-int entry (bools included) under an exact kind, and
    under "euclid" a bool, an entry that is no int or float, or one whose
    2^40-grid value is no finite float (nan, inf, 1e300, 10**400).  It
    raises ShapeMismatchError for ragged rows and NotSquareError for
    unequal sides.  Nothing checks entries or shape again: `cols` is `rows`.
    """

    _fields = ("kind", "values")

    def __init__(self, kind, values):
        _check_kind(kind)
        values = tuple(map(tuple, values))
        entries = itertools.chain.from_iterable(values)
        if kind != EUCLIDEAN:
            for v in entries:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(f"cost entry {_entry_name(v)} is not an integer")
        else:
            for v in entries:  # a nan fails the range comparison too
                if (isinstance(v, bool) or not isinstance(v, (int, float))
                        or not -_EUCLID_MAX <= v <= _EUCLID_MAX):
                    raise ValueError(
                        f"cost entry {_entry_name(v)} is not an int or a float "
                        f"with a finite 2^40-grid value"
                    )
        if len(set(map(len, values))) > 1:
            raise ShapeMismatchError("ragged cost matrix")
        if values and len(values[0]) != len(values):
            raise NotSquareError(f"cost matrix is {len(values)}x{len(values[0])}")
        self.__dict__.update(kind=kind, values=values)

    @property
    def rows(self):
        return len(self.values)

    cols = rows

    @property
    def is_exact(self):
        return self.kind != EUCLIDEAN


_add_terms = partial(map, add)  # element-wise sum of two term lists


def cost_matrix(src, dst, kind=SQUARED_EUCLIDEAN):
    """Costs between all pairs of two equal-length point tuples of one dimension.

    Rows follow `src` and columns follow `dst`, as listed by `measure_of`.
    The exact kinds need int, non-bool coordinates, which give int costs;
    "euclid" needs real, non-bool ones, and its costs pass the checks of
    `CostMatrix` (ValueError).  Unequal lengths raise NotSquareError before
    any entry is built.  These checks are the point rule, `_check_points`,
    which `optimal_total` runs too.
    """
    dim = _check_points(src, dst, kind)
    if not dim:  # no points, or zero-dimensional ones, which all coincide
        zero = 0.0 if kind == EUCLIDEAN else 0
        return CostMatrix._unchecked(kind=kind, values=((zero,) * len(dst),) * len(src))
    # Each cost is a sum of one term per coordinate, so a row is the sum of
    # one term list per coordinate.  Cell coordinates take few values, and
    # each coordinate value's terms against `dst` are built once, on first use.
    cols = list(zip(*dst))
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
        # checked: a float coordinate can give an inf or a nan, and an int
        # one a squared distance that no float holds
        try:
            rows = [tuple(map(math.sqrt, row)) for row in rows]
        except OverflowError:
            raise ValueError("a squared distance is past float range") from None
        return CostMatrix(kind, rows)
    return CostMatrix._unchecked(kind=kind, values=tuple(rows))


def _check_points(src, dst, kind):
    """The point rule of `cost_matrix` and `optimal_total`; returns the dimension.

    In order: the cost kind (ValueError), the coordinate types
    (NonIntegerCostsError under the exact kinds, ValueError under
    "euclid"), one dimension for every point (DimensionMismatchError) and
    sides of one length (NotSquareError).
    """
    _check_kind(kind)
    kinds = set(map(type, itertools.chain(*src, *dst)))
    if kind != EUCLIDEAN:
        if bool in kinds or not all(issubclass(t, int) for t in kinds):
            raise NonIntegerCostsError(f"kind {kind!r} requires integer coordinates")
    else:
        from numbers import Real

        if bool in kinds or not all(issubclass(t, Real) for t in kinds):
            raise ValueError(f"kind {kind!r} requires real, non-bool coordinates")
    dims = set(map(len, itertools.chain(src, dst)))
    if len(dims) > 1:
        raise _dimension_mismatch(dims)
    if len(src) != len(dst):
        raise NotSquareError(f"cost matrix is {len(src)}x{len(dst)}")
    return dims.pop() if dims else 0


class _CostTable:
    """A sweep layer's costs and optimal totals over one point set.

    The costs between all of `points` are built once, by `cost_matrix`.
    `table(src, dst)` then returns `cost_matrix(src, dst, kind)` for any
    src and dst drawn from `points`, entry for entry: one looked-up row per
    source point, cut to the target columns.

    `total(src, dst)` is `optimal_total(src, dst, kind)` on such tuples, by
    its rule and without its checks, which the sweep gate makes once.  Only
    `total` reads and writes `totals`, which maps each matrix solved, by
    its values, to its certified total.  A sweep layer's matrices repeat,
    and equal matrices have equal totals under every kind, so each distinct
    one is solved once, and the memo goes with the table: at most a few
    thousand small matrices.
    """

    __slots__ = ("kind", "row_of", "col_of", "totals")

    def __init__(self, points, kind):
        rows = cost_matrix(points, points, kind).values
        self.kind = kind
        self.row_of = dict(zip(points, rows)).__getitem__
        self.col_of = {x: j for j, x in enumerate(points)}.__getitem__
        self.totals = {}

    def __call__(self, src, dst):
        cols = tuple(map(self.col_of, dst))
        # an itemgetter of one index returns that entry, not a 1-tuple
        cut = itemgetter(*cols) if len(cols) > 1 else lambda row: (row[cols[0]],)
        rows = map(cut, map(self.row_of, src))
        return CostMatrix._unchecked(kind=self.kind, values=tuple(rows))

    def total(self, src, dst):
        return _moved_total(src, dst, self.kind, self._memo_total)

    def _memo_total(self, src, dst):
        c = self(src, dst)
        total = self.totals.get(c.values)
        if total is None:
            total = self.totals[c.values] = _solved_total(c)
        return total


def _check_kind(kind):
    if kind not in COST_KINDS:
        raise ValueError(f"unknown cost kind {_entry_name(kind)}; expected one of {COST_KINDS}")


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

    Returns the integer matrix solved (`_grid(c)`) and an `AssignmentResult`
    in its units.  The dual passes `_certificate_fault`, the rule that
    `check_certificate` applies; RuntimeError names the part that fails.
    """
    _check_assignment_size(c.rows)
    costs = _grid(c)
    col_of, u, v = _shortest_augmenting_paths(costs)
    total = sum(map(getitem, costs, col_of))
    if fault := _certificate_fault(costs, u, v, total):
        raise RuntimeError(fault)
    return costs, AssignmentResult(tuple(col_of), total, (tuple(u), tuple(v)))


def _grid(c):
    """The int matrix that a solve of `c` and its certificate run on.

    That is `c.values` under the exact kinds, whose entries were checked as
    ints when `c` was built, and under "euclid" each cost rounded on the
    2^40 grid.
    """
    if c.is_exact:
        return c.values
    return [[round(x * _EUCLID_SCALE) for x in row] for row in c.values]


def _certificate_fault(costs, u, v, total):
    """Which part of the dual certificate fails on int `costs`, or None.

    The rule: every reduced cost c_ij - u_i - v_j is >= 0, and sum(u) +
    sum(v) equals `total`, the matched total, which then forces a zero
    reduced cost on every matched pair.
    """
    for i, (row, ui) in enumerate(zip(costs, u)):
        if min(map(sub, row, v)) < ui:  # a negative reduced cost in row i
            return f"assignment dual infeasible in row {i}"
    if sum(u) + sum(v) != total:
        return "assignment dual does not certify the matching"


def check_certificate(c, res):
    """True when the duals in `res` prove its matching optimal for `c`.

    This is the LP dual of the assignment problem, Kantorovich duality
    specialised to uniform marginals: u_i + v_j <= c_ij for every pair and
    sum(u) + sum(v) equal to the matching's total, which forces equality on
    every matched pair.  The check is O(n^2).  It shares its rule
    (`_certificate_fault`) and its grid (`_grid`, 2^40 for "euclid") with
    every solve, but no code with the solver, so a fault in the solver is
    not repeated in the check.  It first checks its input: duals present,
    a matching of n indices, n duals a side, and under the exact kinds
    `res.total` equal to the matched total.
    """
    n = c.rows
    if res.duals is None or not _is_matching(res.matching, n):
        return False
    u, v = res.duals
    grid = _grid(c)
    total = sum(map(getitem, grid, res.matching))
    if len(u) != n or len(v) != n or c.is_exact and res.total != total:
        return False
    return _certificate_fault(grid, u, v, total) is None


def _is_matching(matching, n):
    """True when `matching` lists ints, no bools, that permute range(n)."""
    return all(map(_is_int, matching)) and sorted(matching) == list(range(n))


def solve_bruteforce(c):
    """Exhaustive minimum over all n! matchings; oracle for solve_assignment.

    Ties resolve to the lexicographically smallest matching because
    permutations are visited in lexicographic order and `min` keeps the
    first.
    """
    n = c.rows
    if n > BRUTE_FORCE_MAX:
        raise InstanceTooLargeError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX}")
    costs = partial(map, getitem, c.values)  # a matching's costs, row by row
    best = min(itertools.permutations(range(n)), key=lambda perm: sum(costs(perm)))
    return AssignmentResult(best, sum(costs(best)))


def _check_assignment_size(n):
    if n > ASSIGNMENT_MAX_N:
        raise InstanceTooLargeError(_exceeds("n", n, "assignment", ASSIGNMENT_MAX_N))


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
    Returns an int for the exact kinds and a float for "euclid".  Every
    point of `src` and `dst` passes `cost_matrix`'s point rule first,
    before any shortcut or cancellation, so this raises what `cost_matrix`
    raises on the same points: tuples of unequal length raise
    NotSquareError before any matrix is built.
    """
    _check_points(src, dst, kind)
    _check_assignment_size(len(src))
    return _moved_total(
        src, dst, kind, lambda a, b: _solved_total(cost_matrix(a, b, kind))
    )


def _moved_total(src, dst, kind, solved):
    """`optimal_total`'s rule, with `solved(src, dst)` a certified total.

    `solved` gets the pair left to solve: none at all when src == dst, and
    under "l1" the moved points alone.
    """
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
    return solved(src, dst)


def _solved_total(c):
    # the exact kinds' total is every optimum's; "euclid" sums the floats
    # of the lex-smallest one
    return _certified_solve(c)[1].total if c.is_exact else solve_assignment(c).total


def wasserstein(a, b, kind=SQUARED_EUCLIDEAN):
    """Minimum transport cost between the diagram measures of two partitions.

    Returns an exact Fraction for the integer cost kinds and a float for
    "euclid", as `plan_cost` does for an optimal plan.
    """
    _check_transport_inputs(a, b)
    total = optimal_total(measure_of(a), measure_of(b), kind)
    return distance_of_total(total, a.n, kind)


def _check_transport_inputs(a, b):
    if a.m != b.m or a.n != b.n:
        raise ShapeMismatchError(
            f"cannot transport between (m={a.m}, n={a.n}) and (m={b.m}, n={b.n})"
        )
    _check_assignment_size(a.n)


def distance_of_total(total, n, kind):
    """The cost of a plan of n unit masses whose matched total is `total`.

    Each matched pair carries mass 1/n, so the cost is the total over n: an
    exact Fraction for the integer kinds and a float for "euclid".  Its
    first Fraction loads `fractions`, which no sweep needs: the sweeps keep
    the int total and write total/n in lowest terms with `math.gcd`.  n
    must be an int >= 1, no bool, and `kind` a cost kind.
    """
    _check_kind(kind)
    _check_int("n", n, 1)
    if kind == EUCLIDEAN:
        return total / n
    from fractions import Fraction

    return Fraction(total, n)


def plan_cost(matching, c):
    """Transport cost of the plan that sends mass 1/n along each matched pair.

    The matching total divided by n, as `distance_of_total` gives it.
    """
    n = len(matching)
    if n != c.rows:
        raise ShapeMismatchError(f"plan is {n}x{n}, costs are {c.rows}x{c.cols}")
    if not _is_matching(matching, n):
        raise ValueError(f"not a matching of {n} indices: {_entry_name(matching)}")
    costs = [row[j] for row, j in zip(c.values, matching)]
    total = sum(costs) if c.is_exact else math.fsum(costs)
    return distance_of_total(total, n, c.kind)


def plan_to_json(matching, total):
    """Wire form: mass 1/n on each matched pair (i, j), and the exact cost.

    `total` is a Fraction and `matching` permutes range(n), as in `plan_cost`.
    """
    from fractions import Fraction

    if not isinstance(total, Fraction):
        raise NonIntegerCostsError("plan JSON carries an exact rational total")
    n = len(matching)
    if not _is_matching(matching, n):
        raise ValueError(f"not a matching of {n} indices: {_entry_name(matching)}")
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
    """Check that no cycle of up to `max_cycle` pairs relabels its targets cheaper.

    Returns (True, None) or (False, (family, permuted_targets)) for a
    shortest improving cycle.  The cheapest walks over the exchange gains
    c(s_i, t_j) - c(s_i, t_i) of the k distinct pairs grow one k^3 step at
    a time until a closed one gains less than -slack (a small one for
    "euclid" floats): a simple cycle at that least length, as a shorter
    closed walk would have gained < 0 first.  At `max_cycle` steps only the
    k closed walks are taken, a k^2 step.  `max_cycle` must be an int.
    Each point is frozen to a tuple, and all pass the point rule
    (`_check_points`) before they are sorted or counted by the size
    guards, however short the cycles: list points work as in
    `cost_matrix`, and a str coordinate is refused as there.
    """
    _check_int("max_cycle", max_cycle)
    pairs = [(tuple(s), tuple(t)) for s, t in pairs]
    _check_points([s for s, _ in pairs], [t for _, t in pairs], kind)
    pair_list = sorted(set(pairs))
    k = len(pair_list)
    longest = min(max_cycle, k)
    # k^3 per walk table up to longest - 1 steps, then k^2 for the closed walks
    steps = (longest - 2) * k**3 + k * k
    if longest > 1 and (k > ASSIGNMENT_MAX_N or steps > _MONOTONE_MAX_WORK):
        raise InstanceTooLargeError(
            f"{k} pairs at max_cycle={max_cycle} exceed the guards of "
            f"{ASSIGNMENT_MAX_N} pairs and {_MONOTONE_MAX_WORK} steps"
        )
    if longest < 2:
        return True, None
    c = cost_matrix(*zip(*pair_list), kind).values  # sources x targets
    gain = [[cij - row[i] for cij in row] for i, row in enumerate(c)]
    into = list(zip(*gain))  # into[v][u]: the gain of the step u -> v
    slack = _EUCLID_EPS if kind == EUCLIDEAN else 0
    walks = [gain]  # walks[l - 1][s][v]: the least gain of l steps s -> v
    for length in range(2, longest + 1):
        # the least closed walks of `length` steps, s -> ... -> u -> s
        closed = [min(map(add, walks[-1][s], into[s])) for s in range(k)]
        for s in (i for i in range(k) if closed[i] < -slack):
            walk, v, least = [s], s, closed[s]  # followed back from s
            for prev in walks[::-1]:
                v = next(u for u, g in enumerate(into[v]) if prev[s][u] + g == least)
                walk.append(v)
                least = prev[s][v]
            if len(set(walk)) == length:  # else a "euclid" tie within the slack
                # walk[i + 1] steps to walk[i]: it takes that pair's target
                moves = zip(walk[1:] + walk[:1], walk)
                return False, tuple(zip(*sorted((pair_list[i], pair_list[j][1]) for i, j in moves)))
        if length < longest:
            walks.append([[min(map(add, row, col)) for col in into] for row in walks[-1]])
    return True, None

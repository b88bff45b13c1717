import contextlib
import itertools
import math
import random
import re
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_ot import (
    ASSIGNMENT_MAX_N,
    COST_KINDS,
    CostMatrix,
    DimensionMismatchError,
    InstanceTooLargeError,
    MultiPartition,
    NonIntegerCostsError,
    NotDownSetError,
    NotSquareError,
    POINT_COSTS,
    Permutation,
    ShapeMismatchError,
    all_permutations,
    check_certificate,
    cost_matrix,
    distance_of_total,
    enumerate_partitions,
    hybrid_plan,
    involutions,
    is_c_cyclically_monotone,
    measure_of,
    optimal_total,
    plan_cost,
    plan_to_json,
    solve_assignment,
    solve_bruteforce,
    solve_transport,
    symmetrize,
    validate_array,
    wasserstein,
)
from partition_ot import partitions, transport

from downset_oracle import bruteforce_matching_total
from lex_reference import lex_smallest_matching
from monotone_reference import brute_force_monotone, reference_cost

P42 = validate_array([4, 2], 1)
P2211 = validate_array([2, 2, 1, 1], 1)
PLANE = validate_array([[3, 2], [1]], 2)
PLANE_SYM = validate_array([[3, 1], [2]], 2)
SWAP = Permutation.from_one_line("2 1")


def pair_measures(a, b, kind="sq"):
    return cost_matrix(measure_of(a), measure_of(b), kind)


# ---------------------------------------------------------------------------
# cost matrices


def test_squared_cost_values():
    c = pair_measures(P42, P2211)
    src = measure_of(P42)
    dst = measure_of(P2211)
    i, j = src.index((2, 0)), dst.index((0, 2))
    assert c.values[i][j] == 8
    i, j = src.index((3, 0)), dst.index((0, 3))
    assert c.values[i][j] == 18


def test_zero_diagonal_on_identical_measures():
    c = pair_measures(P42, P42)
    assert all(c.values[i][i] == 0 for i in range(c.rows))
    assert all(
        (c.values[i][j] == 0) == (i == j) for i in range(c.rows) for j in range(c.cols)
    )


def test_plane_cell_pair_cost():
    c = pair_measures(PLANE, PLANE_SYM)
    i = measure_of(PLANE).index((1, 0, 1))
    j = measure_of(PLANE_SYM).index((1, 1, 0))
    assert c.values[i][j] == 2


def test_l1_and_euclid_kinds():
    c1 = pair_measures(P42, P2211, "l1")
    src = measure_of(P42)
    dst = measure_of(P2211)
    i, j = src.index((2, 0)), dst.index((0, 2))
    assert c1.values[i][j] == 4
    ce = pair_measures(P42, P2211, "euclid")
    assert ce.values[i][j] == pytest.approx(math.sqrt(8))
    assert not ce.is_exact


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cost_matrix(measure_of(P42), measure_of(PLANE))


@pytest.mark.parametrize(
    "src, dst",
    [
        ([(0, 0), (1,)], [(0, 0), (0, 1)]),  # a short source after the first
        ([(0, 0), (1, 1)], [(0, 0), (0, 1, 5)]),  # a long target after the first
        ([(0, 0)], [(0, 0, 0)]),
        ([], [(0, 0), (1,)]),
    ],
    ids=["short-source", "long-target", "first-points", "no-source"],
)
def test_cost_matrix_refuses_ragged_points(src, dst):
    for kind in COST_KINDS:
        with pytest.raises(DimensionMismatchError, match="different dimensions"):
            cost_matrix(src, dst, kind)


def test_monotone_refuses_ragged_pairs():
    pairs = {((0, 0), (0, 1)), ((1,), (0, 0))}
    with pytest.raises(DimensionMismatchError):
        is_c_cyclically_monotone(pairs, "sq", 2)


@st.composite
def point_lists(draw):
    """Source and target int points of one dimension and one count, some
    beyond 2^64."""
    coord = st.integers(-3, 3) | st.integers(-(2**70), 2**70)
    point = st.tuples(*[coord] * draw(st.integers(1, 4)))
    k = draw(st.integers(0, 5))
    side = st.lists(point, min_size=k, max_size=k)
    return draw(side), draw(side)


@st.composite
def repeated_point_lists(draw):
    """Up to 30 points a side with coordinates in 0..4, so that coordinate
    values recur and `cost_matrix` reuses their term lists."""
    point = st.tuples(*[st.integers(0, 4)] * draw(st.integers(1, 6)))
    k = draw(st.integers(0, 30))
    side = st.lists(point, min_size=k, max_size=k)
    return draw(side), draw(side)


@settings(max_examples=500, deadline=None)
@given(
    point_lists() | repeated_point_lists(), st.sampled_from(["sq", "l1", "euclid"])
)
def test_cost_matrix_matches_per_entry_distances(points, kind):
    src, dst = points
    distance = transport.l1_distance if kind == "l1" else transport.squared_distance
    reference = tuple(tuple(distance(a, b) for b in dst) for a in src)
    c = cost_matrix(src, dst, kind)
    if kind == "euclid":
        assert c.values == tuple(tuple(map(math.sqrt, row)) for row in reference)
    else:
        assert c.values == reference
        assert all(type(v) is int for row in c.values for v in row)
    assert CostMatrix(kind, c.values) == c  # built unchecked, yet it passes


@pytest.mark.parametrize("kind", COST_KINDS)
@pytest.mark.parametrize(
    "a, b", [((1, 2, 3), (0,)), ((0,), (1, 2, 3)), ((), (1,)), ((0, 0), (0, 0, 0))]
)
def test_point_costs_refuse_points_of_different_dimensions(kind, a, b):
    # zip once stopped at the shorter point: (1, 2, 3) against (0,) cost 1
    dims = sorted({len(a), len(b)})
    message = f"^points of different dimensions {re.escape(str(dims))}$"
    for distance in (POINT_COSTS[kind], transport.squared_distance,
                     transport.l1_distance):
        with pytest.raises(DimensionMismatchError, match=message):
            distance(a, b)
    with pytest.raises(DimensionMismatchError, match=message):
        cost_matrix([a], [b], kind)


@pytest.mark.parametrize("kind", ["sq", "l1", "euclid"])
def test_cost_matrix_empty_sides_and_points(kind):
    # a side with no points was once built as 1 x 0, or read as 0 x 0
    # when the rows were the empty side; unequal sides are now refused
    for src, dst, shape in (([(0,)], [], "1x0"), ([], [(1, 0)], "0x1"),
                            ([()], [(), ()], "1x2")):
        with pytest.raises(NotSquareError, match=f"^cost matrix is {shape}$"):
            cost_matrix(src, dst, kind)
    c = cost_matrix([], [], kind)
    assert c.values == () and (c.rows, c.cols) == (0, 0)
    assert cost_matrix([(), ()], [(), ()], kind).values == ((0, 0), (0, 0))


# ---------------------------------------------------------------------------
# assignment solver against the exhaustive oracle


def test_trivial_assignment():
    res = solve_assignment(CostMatrix("sq", [[0]]))
    assert res == ((0,), 0, ((0,), (0,)))


@pytest.mark.parametrize(
    "values, bad",
    [
        ([[1.7, 2], [3, 4]], "1.7"),
        ([[1, 2], [3, True]], "True"),
        ([[1, 2], [3, 4.0]], "4.0"),
        ([[1, "2"], [3, 4]], "'2'"),
        ([[1, None], [3, 4]], "None"),
    ],
)
def test_integer_cost_matrix_rejects_non_integer_entries(values, bad):
    # int() would turn 1.7 and True into 1 and solve a different problem
    with pytest.raises(ValueError, match=f"cost entry {bad} is not an integer"):
        CostMatrix("sq", values)


@pytest.mark.parametrize("kind", ["sq", "l1"])
@pytest.mark.parametrize("bad", [1.5, 2.0, True, False])
def test_cost_matrix_constructor_rejects_non_int_entries(kind, bad):
    with pytest.raises(ValueError, match=f"cost entry {bad!r} is not an integer"):
        CostMatrix(kind, ((0, 1), (bad, 0)))


def test_cost_matrix_constructor_checks_and_freezes():
    c = CostMatrix("euclid", [[0.0, 1.5], [math.sqrt(2), 0]])
    assert c.values == ((0.0, 1.5), (math.sqrt(2), 0))
    c = CostMatrix("sq", [[0, 1], [1, 0]])
    assert c.values == ((0, 1), (1, 0)) and type(c.values[0]) is tuple
    assert solve_assignment(c).total == 0
    with pytest.raises(ValueError, match="unknown cost kind"):
        CostMatrix("taxicab", ((0,),))
    with pytest.raises(ShapeMismatchError, match="ragged cost matrix"):
        CostMatrix("sq", ((0, 1), (1,)))


def test_cost_matrix_admits_the_empty_and_int_euclid_matrices():
    # the empty matching is the optimum at total 0
    assert solve_assignment(CostMatrix("sq", [])) == ((), 0, ((), ()))
    c = CostMatrix("euclid", [[0, 1], [1, 0]])
    assert not c.is_exact and solve_assignment(c)[:2] == ((0, 1), 0.0)


@pytest.mark.parametrize("kind", ["sq", "l1"])
def test_exact_costs_refuse_non_int_coordinates(kind):
    # a float point would give float costs that no solve checks again
    with pytest.raises(NonIntegerCostsError, match="requires integer coordinates"):
        cost_matrix([(0.5, 0)], [(0, 0)], kind)
    with pytest.raises(NonIntegerCostsError):
        optimal_total(((0, 0), (1.0, 0)), ((0, 0), (0, 1)), kind)
    assert cost_matrix([(0.5, 0)], [(0, 0)], "euclid").values == ((0.5,),)
    # bools are ints to Python, but no boundary takes them as coordinates
    with pytest.raises(NonIntegerCostsError, match="requires integer coordinates"):
        cost_matrix([(True, 0)], [(0, 0)], kind)
    with pytest.raises(NonIntegerCostsError):
        optimal_total(((True, 0), (0, 1)), ((0, 0), (0, 1)), kind)


@pytest.mark.parametrize(
    "bad",
    ["a", None, True, False, Fraction(1, 2), math.nan, math.inf, -math.inf, 1e300,
     -1e297, 10**400],
)
def test_euclid_cost_matrix_refuses_what_its_grid_cannot_hold(bad):
    # a str entry would make the solve's grid value "a" * 2**40, a 1 TiB
    # string, so these are refused where the matrix is built, never solved;
    # an entry whose repr is longer than 40 characters is named by its size
    name = "<int of 1329 bits>" if bad == 10**400 else repr(bad)
    with pytest.raises(ValueError, match=f"cost entry {re.escape(name)} is not"):
        CostMatrix("euclid", [[bad]])
    with pytest.raises(ValueError, match="is not an int or a float"):
        CostMatrix("euclid", [[0.0, 1.5], [1, bad]])


class _MultiLineRepr:
    def __repr__(self):
        return "two\nlines"


@pytest.mark.parametrize(
    "kind, entry, name",
    [
        ("euclid", 10**400, "<int of 1329 bits>"),
        # past 4300 digits the interpreter refuses the int's repr
        ("euclid", 10**5000, "<int of 16610 bits>"),
        ("sq", "a" * 10**5, "<str with a repr of 100002 characters>"),
        ("sq", "a" * 39, "<str with a repr of 41 characters>"),
        ("sq", "a" * 38, repr("a" * 38)),
        ("sq", _MultiLineRepr(), "<_MultiLineRepr with a repr of 9 characters>"),
        ("sq", 0.5, "0.5"),
    ],
    ids=["int-401-digits", "int-5001-digits", "str-100000", "str-39", "str-38",
         "multi-line-repr", "float"],
)
def test_a_refused_entry_is_named_in_one_short_line(kind, entry, name):
    with pytest.raises(ValueError) as refused:
        CostMatrix(kind, [[entry]])
    message = str(refused.value)
    assert message.startswith(f"cost entry {name} is not ")
    assert len(message) <= 120 and "\n" not in message


def test_an_int_entry_is_named_by_its_repr_up_to_40_characters():
    # the first ints on each side whose repr is 41 characters long
    for v in (10**40 - 1, -(10**39) + 1):
        assert partitions._entry_name(v) == repr(v) and len(repr(v)) == 40
    assert partitions._entry_name(10**40) == "<int of 133 bits>"
    assert partitions._entry_name(-(10**39)) == "<int of 130 bits>"


def test_euclid_cost_matrix_takes_ints_and_finite_floats():
    c = CostMatrix("euclid", [[0, 1e12], [-2.5, 3]])
    assert c.values == ((0, 1e12), (-2.5, 3)) and not c.is_exact
    # the largest entry whose 2^40-grid value is a finite float, and the next
    top = transport._EUCLID_MAX
    assert math.isfinite(top * 2**40) and solve_assignment(
        CostMatrix("euclid", [[top, 0], [0, -top]])
    ).total == 0.0
    with pytest.raises(ValueError, match="is not an int or a float"):
        CostMatrix("euclid", [[math.nextafter(top, math.inf)]])


@pytest.mark.parametrize("point", [(True, 0), (0, False), ("a", 0), (None, 0)])
def test_euclid_cost_matrix_refuses_bool_and_non_real_coordinates(point):
    with pytest.raises(ValueError, match="requires real, non-bool coordinates"):
        cost_matrix([point], [(0, 0)], "euclid")
    with pytest.raises(ValueError, match="requires real, non-bool coordinates"):
        optimal_total(((1, 1), point), ((0, 0), (0, 1)), "euclid")


def test_euclid_cost_matrix_takes_real_coordinates_and_checks_its_costs():
    assert cost_matrix([(0.5, 0)], [(0, 0)], "euclid").values == ((0.5,),)
    assert cost_matrix([(Fraction(3, 2), 0)], [(0, 2)], "euclid").values == ((2.5,),)
    for bad in (math.nan, math.inf, 1e200):  # an inf or nan cost, on the grid or not
        with pytest.raises(ValueError, match="is not an int or a float"):
            cost_matrix([(bad, 0)], [(0, 0)], "euclid")
    # an int coordinate whose squared distance no float holds
    with pytest.raises(ValueError, match="past float range"):
        cost_matrix([(10**200, 0)], [(0, 0)], "euclid")
    assert cost_matrix([(10**150, 0)], [(0, 0)], "euclid").values == ((1e150,),)


def test_integer_cost_matrix_keeps_integer_entries():
    c = CostMatrix("sq", [[-1, 2], (3, 10**30)])
    assert c.values == ((-1, 2), (3, 10**30))


def test_two_by_two_bruteforce_formula():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c, d = (rng.randrange(30) for _ in range(4))
        res = solve_bruteforce(CostMatrix("sq", [[a, b], [c, d]]))
        assert res.total == min(a + d, b + c)


def test_identity_instance():
    c = pair_measures(P42, P42)
    res = solve_assignment(c)
    assert res.total == 0
    assert res.matching == tuple(range(6))


def test_solver_agrees_with_bruteforce_on_partition_pairs():
    for m, n_max, sigmas in ((1, 7, all_permutations(2)), (2, 5, all_permutations(3))):
        for n in range(1, n_max + 1):
            for p in enumerate_partitions(m, n):
                for sigma in sigmas:
                    for kind in ("sq", "l1"):
                        c = pair_measures(p, symmetrize(p, sigma), kind)
                        fast = solve_assignment(c)
                        slow = solve_bruteforce(c)
                        assert fast.total == slow.total
                        assert fast.matching == slow.matching  # same lex tie-break


def test_solver_agrees_on_seeded_random_matrices():
    rng = random.Random(0)
    for _ in range(100):
        values = [[rng.randrange(100) for _ in range(6)] for _ in range(6)]
        c = CostMatrix("sq", values)
        assert solve_assignment(c).total == solve_bruteforce(c).total


def test_lexicographic_tie_break():
    res = solve_assignment(CostMatrix("sq", [[1, 1], [1, 1]]))
    assert res.matching == (0, 1)
    # two equal-cost optima on the moved pair; lex order decides
    res = solve_assignment(CostMatrix("sq", [[5, 3, 9], [3, 5, 9], [9, 9, 0]]))
    assert res.matching == solve_bruteforce(
        CostMatrix("sq", [[5, 3, 9], [3, 5, 9], [9, 9, 0]])
    ).matching


def test_not_square():
    # refused where the matrix is built, so no solve meets one
    for values in ([[1, 2, 3], [4, 5, 6]], [[]], [[1], [2]]):
        rows, cols = len(values), len(values[0])
        with pytest.raises(NotSquareError, match=f"^cost matrix is {rows}x{cols}$"):
            CostMatrix("sq", values)
    with pytest.raises(NotSquareError, match="^cost matrix is 2x3$"):
        cost_matrix([(0, 0), (1, 0)], [(0, 0), (1, 0), (0, 1)], "sq")
    c = CostMatrix("sq", [[1, 2], [4, 3]])
    assert (c.rows, c.cols) == (2, 2)


def test_cost_matrix_refuses_unequal_sides_before_any_entry(monkeypatch):
    # the kind, coordinate and dimension refusals keep their order; the
    # shape is refused after them, before the first term list is built
    def refuse(*args, **kwargs):
        raise AssertionError("built a cost entry")

    monkeypatch.setattr(transport, "reduce", refuse)  # sums a row's terms
    monkeypatch.setattr(CostMatrix, "_unchecked", refuse)
    one, two = [(0, 0)], [(0, 0), (1, 0)]
    for kind in COST_KINDS:
        with pytest.raises(NotSquareError, match="^cost matrix is 1x2$"):
            cost_matrix(one, two, kind)
        with pytest.raises(NotSquareError, match="^cost matrix is 2x1$"):
            cost_matrix(two, one, kind)
        with pytest.raises(NotSquareError, match="^cost matrix is 0x2$"):
            cost_matrix([], [(), ()], kind)
        with pytest.raises(DimensionMismatchError):
            cost_matrix(one, [(0,), (1,)], kind)
    with pytest.raises(ValueError, match="unknown cost kind"):
        cost_matrix(one, two, "l2")
    with pytest.raises(NonIntegerCostsError):
        cost_matrix([(0.5, 0)], two, "sq")


def test_bruteforce_guard():
    big = [[0] * 10 for _ in range(10)]
    with pytest.raises(InstanceTooLargeError):
        solve_bruteforce(CostMatrix("sq", big))


def test_euclid_solver_is_flagged_and_close():
    c = pair_measures(P42, P2211, "euclid")
    res = solve_assignment(c)
    assert not c.is_exact and isinstance(res.total, float)
    src = measure_of(P42)
    dst = measure_of(P2211)
    oracle = bruteforce_matching_total(
        src, dst, lambda a, b: math.dist(a, b)
    )
    assert res.total == pytest.approx(oracle, rel=1e-12)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail a test whose body runs longer than `seconds` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_negative_costs():
    rng = random.Random(3)
    matrices = [[[-1]], [[-5, -3], [-2, -7]]] + [
        [[rng.randrange(-9, hi) for _ in range(n)] for _ in range(n)]
        for n in range(1, 7)
        for hi in (-1, 0, 9)
    ]
    for values in matrices:
        c = CostMatrix("sq", values)
        with time_limit(10):
            res = solve_assignment(c)
        assert res[:2] == solve_bruteforce(c)[:2]
        assert check_certificate(c, res)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )
)
def test_tie_heavy_matrices_match_bruteforce_lex_order(values):
    c = CostMatrix("sq", values)
    res = solve_assignment(c)
    assert res[:2] == solve_bruteforce(c)[:2]
    assert check_certificate(c, res)


def flat_reflection_costs(n, count, seed):
    """Cost matrices of seeded flat partitions of n against their reflection."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        parts, left = [], n
        while left:
            parts.append(rng.randint(1, min(left, parts[-1] if parts else left)))
            left -= parts[-1]
        p = validate_array(parts, 1)
        for kind in ("sq", "l1"):
            out.append(pair_measures(p, symmetrize(p, SWAP), kind))
    return out


@pytest.mark.parametrize("n", [20, 40, 60])
def test_solver_agrees_with_perturbed_reference(n):
    rng = random.Random(n)
    matrices = flat_reflection_costs(n, 3, n) + [
        CostMatrix("sq", [[rng.randrange(k) for _ in range(n)] for _ in range(n)])
        for k in (1, 2, 3, 4)
    ]
    for c in matrices:
        res = solve_assignment(c)
        assert res.matching == lex_smallest_matching(c.values)
        assert check_certificate(c, res)


def test_certificate_rejects_corrupted_duals():
    c = pair_measures(P42, P2211)
    res = solve_assignment(c)
    assert check_certificate(c, res)
    u, v = res.duals
    shifted = ((u[0] + 1, u[1] - 1) + u[2:], v)  # same sum, row 0 infeasible
    lowered = ((u[0] - 1,) + u[1:], v)  # feasible, but sums short of the total
    for duals in (shifted, lowered, None, (u, v[:-1])):
        assert not check_certificate(c, res._replace(duals=duals))
    assert not check_certificate(c, res._replace(total=res.total - 1))
    assert not check_certificate(c, solve_bruteforce(c))  # carries no duals


@pytest.mark.parametrize(
    "duals, message",
    [
        # u_0 + v_1 = 2 > c_01 = 1: a negative reduced cost
        ([1, 0], "dual infeasible in row 0"),
        # feasible, but u + v sums to 0 against the matched total of 1
        ([0, 0], "does not certify"),
    ],
)
def test_solve_assignment_rejects_a_bad_dual(monkeypatch, duals, message):
    # under "euclid" the duals are in units of the 2^40 grid
    matrices = [CostMatrix(kind, [[0, 1], [0, 1]]) for kind in ("sq", "euclid")]
    results = [solve_assignment(c) for c in matrices]
    assert all(map(check_certificate, matrices, results))
    monkeypatch.setattr(
        transport, "_shortest_augmenting_paths", lambda costs: ([0, 1], duals, [0, 0])
    )
    for c, res in zip(matrices, results):
        with pytest.raises(RuntimeError, match=message):
            solve_assignment(c)
        # the certificate check refuses the result the solve refused
        assert not check_certificate(c, res._replace(duals=(tuple(duals), (0, 0))))


@st.composite
def int_matrices(draw):
    """Square int matrices, negative entries included; small bounds tie."""
    n = draw(st.integers(1, 9))
    bound = draw(st.sampled_from([0, 1, 2, 10**6]))
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_certified_core_total_is_the_optimum(values):
    c = CostMatrix("sq", values)
    costs, res = transport._certified_solve(c)
    assert costs == c.values
    assert check_certificate(c, res)
    assert res.total == solve_assignment(c).total
    if c.rows <= 7:
        assert res.total == solve_bruteforce(c).total


@pytest.mark.parametrize(
    "shift, message",
    [
        # v_0 + 1 breaks u_i + v_0 <= c_i0 on the row matched to column 0
        (1, "dual infeasible in row"),
        # feasible, but u + v sums one short of the matched total
        (-1, "does not certify"),
    ],
)
@pytest.mark.parametrize("kind", COST_KINDS)
def test_value_solve_rejects_a_tampered_v(monkeypatch, shift, message, kind):
    def tampered(costs):
        col_of, u, v = solve(costs)
        v[0] += shift
        results.append((col_of, u, v))
        return col_of, u, v

    solve = transport._shortest_augmenting_paths
    monkeypatch.setattr(transport, "_shortest_augmenting_paths", tampered)
    results = []
    with pytest.raises(RuntimeError, match=message):
        optimal_total(measure_of(P42), measure_of(P2211), kind)
    c = pair_measures(PLANE, PLANE_SYM, kind)
    with pytest.raises(RuntimeError, match=message):
        transport._certified_solve(c)
    # the certificate check refuses the same result, and takes it untampered
    col_of, u, v = results[-1]
    total = sum(row[j] for row, j in zip(c.values, col_of))
    res = transport.AssignmentResult(tuple(col_of), total, (tuple(u), tuple(v)))
    assert not check_certificate(c, res)
    v[0] -= shift
    assert check_certificate(c, res._replace(duals=(tuple(u), tuple(v))))


def test_solve_refuses_a_lex_matching_off_the_certified_total(monkeypatch):
    # a perfect matching that is not on the dual's tight edges
    monkeypatch.setattr(transport, "_lex_smallest_tight_matching", lambda *args: (1, 0))
    with pytest.raises(RuntimeError, match="assignment dual does not certify the matching"):
        solve_assignment(CostMatrix("sq", [[0, 1], [1, 0]]))


def test_euclid_certificate_on_the_grid():
    c = pair_measures(P42, P2211, "euclid")
    res = solve_assignment(c)
    assert check_certificate(c, res)
    u, v = res.duals
    shifted = ((u[0] + 1, u[1] - 1) + u[2:], v)
    assert not check_certificate(c, res._replace(duals=shifted))


def test_assignment_size_guard(monkeypatch):
    big = validate_array([ASSIGNMENT_MAX_N + 1], 1)
    with pytest.raises(InstanceTooLargeError, match="assignment guard"):
        solve_transport(big, big)
    monkeypatch.setattr(transport, "ASSIGNMENT_MAX_N", 2)
    with pytest.raises(InstanceTooLargeError, match="n=3 exceeds the assignment guard 2"):
        solve_assignment(CostMatrix("sq", [[0] * 3] * 3))


# ---------------------------------------------------------------------------
# distances

# NOTE: under the squared cost, relay moves through shared cells undercut
# the straight reflection; the optimum below is 14/6, not the reflection
# plan's 26/6.  Values frozen from the exhaustive oracle.


def test_wasserstein_flat_pair():
    assert wasserstein(P42, P2211) == Fraction(7, 3)
    src, dst = measure_of(P42), measure_of(P2211)
    oracle = bruteforce_matching_total(
        src, dst, lambda a, b: sum((x - y) ** 2 for x, y in zip(a, b))
    )
    assert wasserstein(P42, P2211) == Fraction(oracle, 6)


def test_wasserstein_plane_pair():
    assert wasserstein(PLANE, PLANE_SYM) == Fraction(1, 3)


def test_wasserstein_other_kinds():
    assert wasserstein(P42, P2211, "l1") == Fraction(5, 3)
    assert wasserstein(P42, P2211, "euclid") == pytest.approx(5 * math.sqrt(2) / 6)


def test_wasserstein_self_is_zero():
    for n in range(1, 6):
        for p in enumerate_partitions(1, n):
            assert wasserstein(p, p) == 0


def test_wasserstein_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        wasserstein(P42, validate_array([2, 1], 1))
    with pytest.raises(ShapeMismatchError):
        wasserstein(validate_array([2, 1, 1], 1), validate_array([[2, 1], [1]], 2))
    with pytest.raises(ShapeMismatchError):
        solve_transport(P42, validate_array([2, 1], 1))


@pytest.mark.parametrize("kind", ["sq", "l1", "euclid"])
def test_solve_transport_is_the_one_solve(kind):
    c, res = solve_transport(P42, P2211, kind)
    assert c == pair_measures(P42, P2211, kind)
    assert res == solve_assignment(c)
    assert plan_cost(res.matching, c) == wasserstein(P42, P2211, kind)


# ---------------------------------------------------------------------------
# the value helper: no solve when nothing moves, the moved cells under l1


@st.composite
def partition_pairs(draw):
    """Two partitions of one m <= 3 and n <= 7; often p and a sigma-image."""
    m = draw(st.integers(1, 3))
    parts = enumerate_partitions(m, draw(st.integers(1, 7)))
    p = draw(st.sampled_from(parts))
    if draw(st.booleans()):
        return p, symmetrize(p, draw(st.sampled_from(all_permutations(m + 1))))
    return p, draw(st.sampled_from(parts))


@settings(max_examples=300, deadline=None)
@given(partition_pairs(), st.sampled_from(["sq", "l1", "euclid"]))
def test_optimal_total_equals_the_full_solve(pair, kind):
    src, dst = map(measure_of, pair)
    full = solve_assignment(cost_matrix(src, dst, kind)).total
    total = optimal_total(src, dst, kind)
    assert total == full
    assert type(total) is type(full)
    if src == dst:
        assert total == 0


def test_optimal_total_never_drops_shared_cells_under_squared_cost():
    # Under "sq" the moved cells of (4,2) and its reflection cost 26 among
    # themselves, the 13/3 candidate; relaying through shared cells costs 14.
    src, dst = measure_of(P42), measure_of(P2211)
    shared = set(src) & set(dst)
    moved = [x for x in src if x not in shared], [y for y in dst if y not in shared]
    assert solve_assignment(cost_matrix(*moved, "sq")).total == 26
    assert optimal_total(src, dst, "sq") == 14 == 6 * wasserstein(P42, P2211)
    reduced_l1 = solve_assignment(cost_matrix(*moved, "l1")).total
    assert optimal_total(src, dst, "l1") == 10 == reduced_l1


def test_optimal_total_cancels_shared_points_with_multiplicity():
    # one shared copy of a and one of b cancel; a must still move to b
    a, b = (0, 0), (2, 1)
    assert optimal_total((a, a, b), (a, b, b), "l1") == 3 == transport.l1_distance(a, b)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            *[st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       min_size=n, max_size=n)] * 2
        )
    ),
    st.sampled_from(["sq", "l1", "euclid"]),
)
def test_optimal_total_on_repeated_points_equals_the_full_solve(pair, kind):
    src, dst = (tuple(sorted(x)) for x in pair)
    full = solve_assignment(cost_matrix(src, dst, kind)).total
    assert optimal_total(src, dst, kind) == full


def test_optimal_total_checks_kind_and_size(monkeypatch):
    src = measure_of(P42)
    with pytest.raises(ValueError, match="unknown cost kind"):
        optimal_total(src, src, "l2")
    monkeypatch.setattr(transport, "ASSIGNMENT_MAX_N", 5)
    with pytest.raises(InstanceTooLargeError, match="n=6 exceeds the assignment guard 5"):
        optimal_total(src, src, "sq")


@pytest.mark.parametrize("kind", COST_KINDS)
def test_optimal_total_refuses_tuples_of_unequal_length(monkeypatch, kind):
    # "l1" once cancelled the shared point and read the 0 x 1 matrix left
    # as 0 x 0, at total 0; every kind now refuses before any matrix
    def refuse(*args, **kwargs):
        raise AssertionError("built a cost matrix")

    monkeypatch.setattr(transport, "cost_matrix", refuse)
    one, two = ((0, 0),), ((0, 0), (1, 0))
    with pytest.raises(NotSquareError, match="^cost matrix is 1x2$"):
        optimal_total(one, two, kind)
    with pytest.raises(NotSquareError, match="^cost matrix is 2x1$"):
        optimal_total(two, one, kind)


@st.composite
def points_with_a_bad_one(draw):
    """Source and target points of one dimension with shared and moved
    ones, and up to two bad points: a bool, str or float coordinate (a
    float is bad under the exact kinds only), or a point of another
    dimension.  A bad point is shared (on both sides), moved (on one side),
    or both; sometimes the target side has one point more."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 2)] * dim)
    shared = draw(st.lists(point, max_size=3))
    k = draw(st.integers(0, 3))
    src = draw(st.lists(point, min_size=k, max_size=k))
    dst = draw(st.lists(point, min_size=k, max_size=k))

    def bad():
        if draw(st.booleans()):  # another dimension, 0 included
            other = draw(st.sampled_from([d for d in range(5) if d != dim]))
            return draw(st.tuples(*[st.integers(0, 2)] * other))
        cell = list(draw(point))
        coordinate = st.sampled_from([True, False, "a", 1.0, 0.5])
        cell[draw(st.integers(0, dim - 1))] = draw(coordinate)
        return tuple(cell)

    where = draw(st.sampled_from(["none", "shared", "moved", "both"]))
    if where in ("shared", "both"):
        shared.insert(draw(st.integers(0, len(shared))), bad())
    if where in ("moved", "both"):
        side, other = (src, dst) if draw(st.booleans()) else (dst, src)
        side.insert(draw(st.integers(0, len(side))), bad())
        other.insert(draw(st.integers(0, len(other))), draw(point))
    if draw(st.integers(0, 9)) == 0:
        dst.append(draw(point))
    src = draw(st.permutations(shared + src))
    dst = draw(st.permutations(shared + dst))
    return tuple(src), tuple(dst)


def _raised(call):
    """The type of the exception `call()` raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(points_with_a_bad_one(), st.sampled_from(COST_KINDS))
def test_optimal_total_raises_what_cost_matrix_raises(points, kind):
    # optimal_total once checked only the points left after shared ones
    # cancelled, or none at all when src == dst
    src, dst = points
    expected = _raised(lambda: cost_matrix(src, dst, kind))
    assert _raised(lambda: optimal_total(src, dst, kind)) is expected


@pytest.mark.parametrize(
    "src, dst, kind, error",
    [
        (((True, 0),), ((True, 0),), "sq", NonIntegerCostsError),
        (((1, 0), (2, 0), (0, "a")), ((1, 0), (0, 2), (0, "a")), "l1",
         NonIntegerCostsError),
        (((0, 0, 0), (1, 0)), ((0, 0, 0), (0, 1)), "l1", DimensionMismatchError),
    ],
    ids=["shared-bool", "shared-str", "shared-3d-point"],
)
def test_optimal_total_checks_shared_points(src, dst, kind, error):
    # these once returned 0, 4 and 2
    with pytest.raises(error):
        cost_matrix(src, dst, kind)
    with pytest.raises(error):
        optimal_total(src, dst, kind)


@pytest.mark.parametrize("kind", ["l1", "sq"])
def test_wasserstein_triangle_inequality(kind):
    # W is a metric under l1, exactly; under sq the metric is sqrt(W).
    for m, n_max in ((1, 7), (2, 5)):
        for n in range(1, n_max + 1):
            parts = enumerate_partitions(m, n)
            d = {}
            for a, b in itertools.combinations_with_replacement(parts, 2):
                w = wasserstein(a, b, kind)
                d[a, b] = d[b, a] = w if kind == "l1" else math.sqrt(w)
            slack = 0 if kind == "l1" else 1e-12
            for a, b, c in itertools.product(parts, repeat=3):
                assert d[a, c] <= d[a, b] + d[b, c] + slack, (a, b, c)


def test_wasserstein_symmetry_and_positivity():
    for n in range(1, 6):
        parts = enumerate_partitions(1, n)
        for a in parts:
            for b in parts:
                w = wasserstein(a, b)
                assert w == wasserstein(b, a)
                assert (w == 0) == (a == b)
                assert (w * a.n).denominator == 1  # n*W is an integer


def test_wasserstein_is_zero_matches_support_equality():
    # every kind costs 0 only on coinciding points
    for n in range(1, 6):
        for p in enumerate_partitions(2, n):
            for sigma in all_permutations(3):
                sym = symmetrize(p, sigma)
                for kind in ("sq", "l1", "euclid"):
                    assert (wasserstein(p, sym, kind) == 0) == (p == sym)


def test_wasserstein_is_zero_runs_no_solve(monkeypatch):
    equal = [
        (p, symmetrize(p, sigma))
        for n in range(1, 6)
        for p in enumerate_partitions(2, n)
        for sigma in all_permutations(3)
        if symmetrize(p, sigma) == p
    ]

    def no_solve(c):
        raise AssertionError("a zero distance ran a solve")

    monkeypatch.setattr(transport, "_certified_solve", no_solve)
    for kind in ("sq", "l1", "euclid"):
        assert all(wasserstein(a, b, kind) == 0 for a, b in equal), kind
    with pytest.raises(AssertionError, match="ran a solve"):
        wasserstein(P42, P2211)


def test_wasserstein_permutation_equivariance():
    perms = all_permutations(3)
    for p in enumerate_partitions(2, 4):
        for sigma in perms:
            w = wasserstein(p, symmetrize(p, sigma))
            for tau in perms:
                a, b = symmetrize(p, tau), symmetrize(symmetrize(p, sigma), tau)
                assert wasserstein(a, b) == w


# ---------------------------------------------------------------------------
# plans


def test_plan_json_diagonal():
    doc = plan_to_json((0, 1), Fraction(0))
    assert [(e["i"], e["j"]) for e in doc["entries"]] == [(0, 0), (1, 1)]
    assert all(Fraction(e["num"], e["den"]) == Fraction(1, 2) for e in doc["entries"])


def test_plan_cost_rejects_non_matching():
    with pytest.raises(ValueError):
        plan_cost((0, 0), CostMatrix("sq", [[0, 1], [1, 0]]))


@pytest.mark.parametrize(
    "matching, values",
    [((1.0, 0.0), [[0, 1], [1, 0]]), ((1, 0.0), [[0, 1], [1, 0]]),
     ((True, False), [[0, 1], [1, 0]]), ((False,), [[0]]),
     (("1", 0), [[0, 1], [1, 0]]), (("0", "1"), [[0, 1], [1, 0]])],
    ids=["float", "int-and-float", "bool", "one-bool", "str-and-int", "str"],
)
def test_a_matching_is_a_permutation_of_int_indices(matching, values):
    # plan_cost and check_certificate share one rule: ints, no bools, that
    # permute range(n).  Floats and bools once passed a sorted() compare,
    # and (False,) was costed as row 0's plan.
    c = CostMatrix("sq", values)
    res = solve_assignment(c)
    assert check_certificate(c, res) and plan_cost(res.matching, c) == 0
    assert not check_certificate(c, res._replace(matching=matching))
    with pytest.raises(ValueError, match=rf"^not a matching of {c.rows} indices: .*\)$"):
        plan_cost(matching, c)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: plan_cost((), CostMatrix("sq", [])), "n must be >= 1, got 0"),
        (lambda: distance_of_total(3, 2.0, "sq"), "n must be an integer, got 2.0"),
        (lambda: distance_of_total(3, True, "sq"), "n must be an integer, got True"),
        (lambda: distance_of_total(0, 0, "l1"), "n must be >= 1, got 0"),
    ],
    ids=["empty-plan", "float-n", "bool-n", "zero-n"],
)
def test_a_distance_needs_an_int_n_of_at_least_one(call, message):
    # these once raised a raw ZeroDivisionError or TypeError, or read True as 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_distance_of_total_divides_by_n():
    assert distance_of_total(14, 6, "sq") == Fraction(7, 3)
    assert distance_of_total(0, 1, "l1") == 0
    assert distance_of_total(3.0, 2, "euclid") == 1.5


def test_distance_of_total_refuses_an_unknown_kind():
    # it once read any kind but "euclid" as exact: "bogus" gave Fraction(3, 2)
    message = f"^unknown cost kind 'bogus'; expected one of {re.escape(str(COST_KINDS))}$"
    with pytest.raises(ValueError, match=message):
        distance_of_total(3, 2, "bogus")


def test_plan_cost_zero_on_identity():
    c = pair_measures(P42, P42)
    assert plan_cost(tuple(range(6)), c) == 0


def test_plan_cost_of_reflection_plan():
    # the fix-shared-cells/reflect-the-rest plan costs 26/6 = 13/3 under sq,
    # strictly above the optimal 7/3
    src = measure_of(P42)
    dst = measure_of(P2211)
    image = {(0, 0): (0, 0), (1, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 1),
             (2, 0): (0, 2), (3, 0): (0, 3)}
    matching = tuple(dst.index(image[pt]) for pt in src)
    cost = plan_cost(matching, pair_measures(P42, P2211))
    assert cost == Fraction(13, 3)
    assert cost > wasserstein(P42, P2211)


def test_plan_cost_positive_on_self_symmetric_rotation():
    # applying the swap everywhere on a fixed diagram costs 4/3; optimum is 0
    p21 = validate_array([2, 1], 1)
    src = measure_of(p21)
    matching = tuple(src.index(SWAP.apply_to_cell(pt)) for pt in src)
    cost = plan_cost(matching, pair_measures(p21, p21))
    assert cost == Fraction(4, 3)
    assert wasserstein(p21, p21) == 0


def test_plan_cost_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        plan_cost((0, 1), pair_measures(P42, P2211))


@pytest.mark.parametrize(
    "matching",
    [(0, 0), (1.0, 0), (True, False), (0, 2), (-1, 0)],
    ids=["duplicate", "float", "bool", "out-of-range", "negative"],
)
def test_plan_json_refuses_a_non_matching(matching):
    # plan_to_json((0, 0), 1/2) once wrote the entries 0 -> 0 and 1 -> 0;
    # it applies the rule plan_cost and check_certificate share
    with pytest.raises(ValueError, match=r"^not a matching of 2 indices: .*\)$"):
        plan_to_json(matching, Fraction(1, 2))
    # the total is checked first and keeps its error
    with pytest.raises(NonIntegerCostsError):
        plan_to_json(matching, 0.5)


def test_plan_json():
    assert plan_to_json((1, 0), Fraction(4, 2)) == {
        "n": 2,
        "entries": [
            {"i": 0, "j": 1, "num": 1, "den": 2},
            {"i": 1, "j": 0, "num": 1, "den": 2},
        ],
        "total_num": 2,
        "total_den": 1,
    }


# ---------------------------------------------------------------------------
# cyclical monotonicity


def test_monotone_pair_examples():
    ok, witness = is_c_cyclically_monotone(
        {((0, 0), (0, 0)), ((2, 0), (0, 2))}, "sq", 2
    )
    assert ok and witness is None
    ok, _ = is_c_cyclically_monotone({((5, 5), (1, 2))}, "sq", 3)
    assert ok  # single pair is vacuous


def test_monotone_violation_with_witness():
    ok, witness = is_c_cyclically_monotone(
        {((0, 0), (0, 3)), ((0, 3), (0, 0))}, "sq", 2
    )
    assert not ok
    family, relabeled = witness
    assert set(family) == {((0, 0), (0, 3)), ((0, 3), (0, 0))}
    assert set(relabeled) == {(0, 0), (0, 3)}


def test_monotone_boundary_equality_holds():
    # swap costs exactly the same here: 9 + 9 = 0 + 18
    ok, _ = is_c_cyclically_monotone({((0, 0), (0, 3)), ((3, 0), (0, 0))}, "sq", 2)
    assert ok


def test_monotone_guards(monkeypatch):
    # 13 pairs and 5-cycles: both were over the brute force's old caps
    pairs = {((i, 0), (i, 1)) for i in range(13)}
    assert is_c_cyclically_monotone(pairs, "sq", 2) == (True, None)
    assert is_c_cyclically_monotone({((0, 0), (0, 0))}, "sq", 5) == (True, None)
    assert is_c_cyclically_monotone(pairs, "l1", 10**9) == (True, None)
    # guards on the pairs, k <= ASSIGNMENT_MAX_N, for the k x k tables, and
    # on the steps, (min(max_cycle, k) - 2) * k^3 + k^2, before any cost; one
    # pair fewer passes them and reaches the cost build
    class CostBuilt(Exception):
        pass

    def cost_matrix(*args):
        raise CostBuilt

    monkeypatch.setattr(transport, "cost_matrix", cost_matrix)
    wide = {((i, 0), (i, 1)) for i in range(2001)}  # 2001 > ASSIGNMENT_MAX_N
    with pytest.raises(InstanceTooLargeError, match="2001 pairs at max_cycle=2"):
        is_c_cyclically_monotone(wide, "sq", 2)
    with pytest.raises(CostBuilt):
        is_c_cyclically_monotone(set(list(wide)[1:]), "sq", 2)
    deep = {((i, 0), (i, 1)) for i in range(369)}  # 2 * 369^3 + 369^2 > 10^8
    with pytest.raises(InstanceTooLargeError, match="369 pairs at max_cycle=4"):
        is_c_cyclically_monotone(deep, "sq", 4)
    with pytest.raises(CostBuilt):
        is_c_cyclically_monotone(set(list(deep)[1:]), "sq", 4)
    # under two steps there is nothing to search, however many pairs
    assert is_c_cyclically_monotone(wide, "sq", 1) == (True, None)
    with pytest.raises(ValueError, match="unknown cost kind"):
        is_c_cyclically_monotone(wide, "cube", 0)


@pytest.mark.parametrize("max_cycle", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_monotone_refuses_a_max_cycle_that_is_no_int(max_cycle):
    # 2.5 and "3" raised a raw TypeError, and True ran as a max_cycle of 1;
    # the refusal comes before the guards, here of 2001 pairs
    wide = {((i, 0), (i, 1)) for i in range(2001)}
    with pytest.raises(ValueError) as refused:
        is_c_cyclically_monotone(wide, "sq", max_cycle)
    assert str(refused.value) == f"max_cycle must be an integer, got {max_cycle!r}"


def test_monotone_checks_the_points_before_it_sorts_them():
    # a str coordinate raised a raw TypeError from the sort, and a list point
    # an unhashable-type TypeError from the set, where cost_matrix takes lists
    mixed = [((0, "a"), (0, 1)), ((0, 1), (0, 0))]
    with pytest.raises(NonIntegerCostsError) as refused:
        is_c_cyclically_monotone(mixed, "l1", 2)
    with pytest.raises(NonIntegerCostsError) as built:
        cost_matrix(*zip(*mixed), "l1")
    assert str(refused.value) == str(built.value)
    assert is_c_cyclically_monotone([([0, 1], [1, 0])], "l1", 2) == (True, None)
    # the points are frozen to tuples: lists give the tuples' answer and witness
    crossed = [((0, 0), (1, 0)), ((1, 0), (0, 0))]
    answer = is_c_cyclically_monotone(crossed, "sq", 2)
    assert answer[0] is False
    assert is_c_cyclically_monotone([[list(s), list(t)] for s, t in crossed], "sq", 2) == answer


@pytest.mark.parametrize("kind", ["sq", "l1"])
def test_monotone_exact_kinds_need_integer_coordinates(kind):
    with pytest.raises(NonIntegerCostsError):
        is_c_cyclically_monotone({((0.5, 0), (0, 1)), ((0, 1), (0, 0))}, kind, 2)
    with pytest.raises(NonIntegerCostsError):
        is_c_cyclically_monotone({((True, 0), (0, 1)), ((0, 1), (0, 0))}, kind, 2)


@pytest.mark.parametrize("kind", COST_KINDS)
@pytest.mark.parametrize(
    "pairs, max_cycle",
    [
        ({((True, 0), (0, 1))}, 2),  # one pair: no cycle to search
        ({((True, 0), (0, 1)), ((0, 1), (0, 0))}, 1),  # under two steps
        ({((0, 0), (0, 1, 2))}, 3),  # points of two dimensions
    ],
    ids=["one-pair", "max-cycle-1", "dimensions"],
)
def test_monotone_runs_the_point_rule_however_short_the_cycles(pairs, max_cycle, kind):
    # the rule cost_matrix runs, also where no cost is built
    expected = (
        DimensionMismatchError if len({len(x) for pair in pairs for x in pair}) > 1
        else NonIntegerCostsError if kind != "euclid" else ValueError
    )
    with pytest.raises(expected) as refused:
        is_c_cyclically_monotone(pairs, kind, max_cycle)
    with pytest.raises(expected) as built:
        cost_matrix(*zip(*sorted(pairs)), kind)
    assert (type(refused.value), str(refused.value)) == (type(built.value), str(built.value))


def _assert_matches_reference(pairs, kind, max_cycle):
    """The search and the brute force agree, and the search's witness is
    a simple cycle of the least violating size, cheaper by the slack.
    Returns the answer."""
    got = is_c_cyclically_monotone(pairs, kind, max_cycle)
    ok, ref_witness = brute_force_monotone(pairs, kind, max_cycle)
    assert got[0] == ok, (pairs, kind, max_cycle, got, ref_witness)
    if ok:
        assert got[1] is None
        return ok
    family, relabeled = got[1]
    assert len(family) == len(ref_witness[0])
    assert list(family) == sorted(set(family)) and set(family) <= set(pairs)
    assert sorted(relabeled) == sorted(t for _, t in family)
    # at the least size every pair moves: a fixed one would leave a
    # smaller violating family
    assert all(t != new for (_, t), new in zip(family, relabeled))
    base = sum(reference_cost(kind, s, t) for s, t in family)
    moved = sum(reference_cost(kind, s, t) for (s, _), t in zip(family, relabeled))
    assert base > moved + (1e-9 if kind == "euclid" else 0)
    return ok


def test_monotone_search_matches_brute_force_on_random_pairs():
    rng = random.Random(19)
    for _ in range(1500):
        dim, k, hi = rng.randint(1, 3), rng.randint(0, 7), rng.choice([1, 2, 4, 9])
        point = lambda: tuple(rng.randint(0, hi) for _ in range(dim))
        pairs = [(point(), point()) for _ in range(k)]
        for kind in ("sq", "l1", "euclid"):
            _assert_matches_reference(pairs, kind, rng.randint(0, 5))


def test_monotone_search_matches_brute_force_on_sweep_matchings():
    violations = 0
    for m, n_max in ((1, 8), (2, 6)):
        for n in range(1, n_max + 1):
            for p in enumerate_partitions(m, n):
                for sigma in involutions(m + 1):
                    src = measure_of(p)
                    dst = measure_of(symmetrize(p, sigma))
                    optimal = solve_assignment(cost_matrix(src, dst)).matching
                    assert _assert_matches_reference(_pairs(src, dst, optimal), "sq", 3)
                    candidate = hybrid_plan(p, sigma).matching
                    pairs = _pairs(src, dst, candidate)
                    violations += not _assert_matches_reference(pairs, "sq", 3)
    assert violations > 0  # some candidates do violate, so witnesses were checked


def _pairs(src, dst, matching):
    return [(src[i], dst[j]) for i, j in enumerate(matching)]


def _candidate_pairs(p, sigma):
    dst = measure_of(symmetrize(p, sigma))
    return _pairs(measure_of(p), dst, hybrid_plan(p, sigma).matching)


@pytest.mark.parametrize("entries", [(5, 2, 2, 2, 2), (5, 5, 1, 1, 1)], ids=str)
def test_monotone_answers_past_the_old_pair_cap(entries):
    # 13 candidate pairs, over the brute force's old cap of 12; no pair
    # swap improves the candidate, but a 3-cycle does
    pairs = _candidate_pairs(validate_array(entries, 1), SWAP)
    assert len(set(pairs)) == 13
    assert is_c_cyclically_monotone(pairs, "sq", 2) == (True, None)
    ok, (family, relabeled) = is_c_cyclically_monotone(pairs, "sq", 3)
    assert not ok and len(family) == len(relabeled) == 3
    if entries == (5, 2, 2, 2, 2):
        assert [s for s, _ in family] == [(0, 2), (1, 1), (1, 4)]


@pytest.mark.parametrize(
    "entries, sigma, family",
    [
        (
            [[3, 1, 1], [1, 1, 1]],
            "3 2 1",
            (((0, 0, 1), (0, 0, 1)), ((0, 1, 2), (2, 1, 0)), ((1, 0, 0), (1, 0, 0))),
        ),
        (
            [[2, 2, 2], [1], [1]],
            "1 3 2",
            (((0, 0, 1), (0, 0, 1)), ((0, 1, 0), (0, 1, 0)), ((1, 0, 2), (1, 2, 0))),
        ),
    ],
)
def test_monotone_plane_counterexamples_keep_their_witness(entries, sigma, family):
    pairs = _candidate_pairs(validate_array(entries, 2), Permutation.from_one_line(sigma))
    assert is_c_cyclically_monotone(pairs, "sq", 2) == (True, None)
    ok, witness = is_c_cyclically_monotone(pairs, "sq", 3)
    assert not ok and witness[0] == family


def test_optimal_plan_supports_are_monotone():
    for n in range(1, 7):
        parts = enumerate_partitions(1, n)
        for a in parts:
            for b in parts:
                src, dst = measure_of(a), measure_of(b)
                res = solve_assignment(pair_measures(a, b))
                pairs = [(src[i], dst[res.matching[i]]) for i in range(n)]
                ok, witness = is_c_cyclically_monotone(pairs, "sq", 3)
                assert ok, (a.entries, b.entries, witness)
    # 40 pairs, searched for improving cycles of up to 4 pairs
    p = validate_array([12, 9, 7, 5, 4, 2, 1], 1)
    q = symmetrize(p, SWAP)
    _, res = solve_transport(p, q)
    pairs = _pairs(measure_of(p), measure_of(q), res.matching)
    assert len(pairs) == 40 and is_c_cyclically_monotone(pairs, "sq", 4) == (True, None)

import itertools
import math
import random
from fractions import Fraction

import pytest

from partition_ot import (
    DimensionMismatchError,
    InstanceTooLargeError,
    NotSquareError,
    Permutation,
    ShapeMismatchError,
    all_permutations,
    cost_matrix,
    enumerate_partitions,
    integer_cost_matrix,
    is_c_cyclically_monotone,
    measure_of,
    plan_cost,
    plan_to_json,
    solve_assignment,
    solve_bruteforce,
    solve_transport,
    symmetrize,
    validate_array,
    wasserstein,
    wasserstein_is_zero,
)

from downset_oracle import bruteforce_matching_total

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
    assert ce.exact_squared[i][j] == 8
    assert not ce.is_exact


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cost_matrix(measure_of(P42), measure_of(PLANE))


# ---------------------------------------------------------------------------
# assignment solver against the exhaustive oracle


def test_trivial_assignment():
    res = solve_assignment(integer_cost_matrix([[0]]))
    assert res == ((0,), 0, True)


def test_two_by_two_bruteforce_formula():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c, d = (rng.randrange(30) for _ in range(4))
        res = solve_bruteforce(integer_cost_matrix([[a, b], [c, d]]))
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
        c = integer_cost_matrix(values)
        assert solve_assignment(c).total == solve_bruteforce(c).total


def test_lexicographic_tie_break():
    res = solve_assignment(integer_cost_matrix([[1, 1], [1, 1]]))
    assert res.matching == (0, 1)
    # two equal-cost optima on the moved pair; lex order decides
    res = solve_assignment(integer_cost_matrix([[5, 3, 9], [3, 5, 9], [9, 9, 0]]))
    assert res.matching == solve_bruteforce(
        integer_cost_matrix([[5, 3, 9], [3, 5, 9], [9, 9, 0]])
    ).matching


def test_not_square():
    with pytest.raises(NotSquareError):
        solve_assignment(integer_cost_matrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(NotSquareError):
        solve_bruteforce(integer_cost_matrix([[1, 2, 3], [4, 5, 6]]))


def test_bruteforce_guard():
    big = [[0] * 10 for _ in range(10)]
    with pytest.raises(InstanceTooLargeError):
        solve_bruteforce(integer_cost_matrix(big))


def test_euclid_solver_is_flagged_and_close():
    c = pair_measures(P42, P2211, "euclid")
    res = solve_assignment(c)
    assert not res.exact
    src = measure_of(P42)
    dst = measure_of(P2211)
    oracle = bruteforce_matching_total(
        src, dst, lambda a, b: math.dist(a, b)
    )
    assert res.total == pytest.approx(oracle, rel=1e-12)


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
    for n in range(1, 6):
        for p in enumerate_partitions(2, n):
            for sigma in all_permutations(3):
                sym = symmetrize(p, sigma)
                assert wasserstein_is_zero(p, sym) == (p == sym)


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
        plan_cost((0, 0), integer_cost_matrix([[0, 1], [1, 0]]))


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


def test_monotone_guards():
    pairs = {((i, 0), (i, 1)) for i in range(13)}
    with pytest.raises(InstanceTooLargeError):
        is_c_cyclically_monotone(pairs, "sq", 2)
    with pytest.raises(InstanceTooLargeError):
        is_c_cyclically_monotone({((0, 0), (0, 0))}, "sq", 5)


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

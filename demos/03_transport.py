"""Exact optimal transport between partition diagrams.

With uniform weights 1/n on both sides, the optimal plan is a
permutation matching, so the distance is an exact rational: the minimum
matching total divided by n.  The solver is exact on integer costs and
returns an LP dual that certifies its matching at any n; at small n it
is also checked against an exhaustive oracle.
"""

from partition_ot import (
    Permutation,
    check_certificate,
    cost_matrix,
    hybrid_plan,
    is_c_cyclically_monotone,
    measure_of,
    plan_cost,
    solve_assignment,
    solve_bruteforce,
    symmetrize,
    validate_array,
    wasserstein,
)

a = validate_array([4, 2], 1)
b = symmetrize(a, Permutation.from_one_line("2 1"))
print("source:", a, " target:", b)

for kind in ("sq", "l1", "euclid"):
    print(f"  W under {kind}:", wasserstein(a, b, kind))

# The optimal matching under the squared cost, step by step.
src, dst = measure_of(a), measure_of(b)
c = cost_matrix(src, dst, "sq")
res = solve_assignment(c)
print("\noptimal matching (sq), total", res.total, "over n =", a.n, "atoms:")
for i, j in enumerate(res.matching):
    print(f"  {src[i]} -> {dst[j]}  cost {c.values[i][j]}")

# Note the relay moves: under the squared cost it is cheaper to shift
# mass through the shared cells than to reflect (2,0) and (3,0) directly.
reflect = {(0, 0): (0, 0), (1, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 1),
           (2, 0): (0, 2), (3, 0): (0, 3)}
matching = tuple(dst.index(reflect[p]) for p in src)
print("\nreflection plan cost:", plan_cost(matching, c), " vs optimum:",
      plan_cost(res.matching, c))

# hybrid_plan packages that comparison: fix shared cells, permute the rest.
h = hybrid_plan(a, Permutation.from_one_line("2 1"))
print("hybrid plan: valid =", h.valid, " cost =", h.cost,
      " optimal =", h.optimal_cost, " attains optimum =", h.matches_optimum)

# The solver agrees with brute force over all 720 permutations.
assert solve_bruteforce(c).total == res.total
print("\nexhaustive oracle agrees:", res.total)

# The solver's LP dual proves the same at any n, in O(n^2): u_i + v_j <= c_ij
# for every pair, and sum(u) + sum(v) equals the matching's total.
u, v = res.duals
print("dual certificate holds:", check_certificate(c, res),
      " sum(u) + sum(v) =", sum(u) + sum(v))

# Optimal plan supports can never be improved by relabeling a few
# targets: c-cyclical monotonicity.
pairs = [(src[i], dst[res.matching[i]]) for i in range(a.n)]
ok, _ = is_c_cyclically_monotone(pairs, "sq", 3)
print("optimal support is c-cyclically monotone:", ok)

"""Reference c-cyclical monotonicity check by exhaustive relabelling.

Every family of up to L distinct pairs, taken in sorted order, is tried
against every permutation of its targets: C(k, L) * L! work for k pairs.
The differential oracle for `transport.is_c_cyclically_monotone`.  Its
costs come from its own formulas, and it shares no code with the library.
"""

import itertools
import math


def reference_cost(kind, a, b):
    sq = sum((x - y) ** 2 for x, y in zip(a, b))
    if kind == "sq":
        return sq
    if kind == "euclid":
        return math.sqrt(sq)
    return sum(abs(x - y) for x, y in zip(a, b))


def brute_force_monotone(pairs, kind, max_cycle):
    """(True, None), or (False, (family, permuted_targets)) for the first
    family, smallest first, with a relabelling cheaper by more than the
    slack ("euclid" compares floats with 1e-9 of slack)."""
    pair_list = sorted(set(pairs))
    slack = 1e-9 if kind == "euclid" else 0
    for size in range(2, max_cycle + 1):
        for family in itertools.combinations(pair_list, size):
            base = sum(reference_cost(kind, s, t) for s, t in family)
            targets = [t for _, t in family]
            for perm in itertools.permutations(targets):
                relabeled = sum(reference_cost(kind, s, t) for (s, _), t in zip(family, perm))
                if base > relabeled + slack:
                    return False, (family, perm)
    return True, None


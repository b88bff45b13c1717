"""Reference lex-smallest assignment by an exact n^n cost perturbation.

The differential oracle for `solve_assignment` at sizes the n! brute
force cannot reach.  Costs are scaled by n^n and column j of row i gains
j * n^(n-1-i); the perturbation totals less than one unit of the scaled
costs, so the perturbed problem's unique optimum is the lexicographically
smallest optimum of the original.  A plain potentials Hungarian method
solves it on Python integers.  It shares no code with the library.
"""


def lex_perturbed(values):
    n = len(values)
    unit = n**n
    return [
        [values[i][j] * unit + j * n ** (n - 1 - i) for j in range(n)]
        for i in range(n)
    ]


def hungarian(costs):
    """Minimum-cost perfect matching of a square matrix of non-negative ints."""
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


def lex_smallest_matching(values):
    """Lex-smallest minimum-cost matching of a non-negative integer matrix."""
    return hungarian(lex_perturbed(values))

"""Exhaustive small-instance verification sweeps.

Two exact claims are checked over every partition up to a size bound and
every permutation in a chosen set:

* "main": whether the candidate matching that fixes each shared cell and
  applies the coordinate permutation to the rest attains the exact optimal
  transport cost.  Violations are counted for involutive permutations,
  where the candidate is always a well-defined matching; for other
  permutations the sweep records findings without counting violations.
* "cor": the transport distance between a partition and its permuted image
  is zero exactly when the diagram is setwise fixed by the permutation.

Reports are deterministic: records appear in canonical enumeration order
and serialize to byte-identical JSON lines across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonIntegerCostsError, SizeMismatchError
from .measures import measure_of
from .partitions import enumerate_partitions, to_json
from .transport import (
    EUCLIDEAN,
    SQUARED_EUCLIDEAN,
    cost_matrix,
    plan_cost,
    solve_assignment,
    wasserstein,  # unused here; bench/test_bench.py pins this binding
)


@dataclass(frozen=True)
class HybridPlanResult:
    """Outcome of the fix-common, permute-the-rest candidate matching."""

    valid: bool
    cost: Fraction
    optimal_cost: Fraction
    matches_optimum: bool
    matching: tuple = None

    def __post_init__(self):
        if self.valid:
            assert self.cost >= self.optimal_cost
            assert self.matches_optimum == (self.cost == self.optimal_cost)


@dataclass(frozen=True)
class SweepReport:
    """Per-instance records plus summary counts for one verification sweep."""

    theorem: str
    m: int
    n_max: int
    sigmas: tuple
    kind: str
    records: tuple
    summary: dict

    @property
    def violations(self):
        return self.summary["violations"]

    def to_jsonl(self):
        """One JSON line per record, then the summary object."""
        lines = [_dumps(r) for r in self.records]
        lines.append(_dumps(self.summary))
        return "\n".join(lines) + "\n"


def hybrid_plan(p, sigma, kind=SQUARED_EUCLIDEAN):
    """Build the candidate matching and compare its cost to the optimum.

    The candidate fixes every cell shared between p and its permuted image
    and sends each remaining cell to its coordinate-permuted position.  It
    is `valid` when that defines a bijection onto the target cells, which
    always holds for involutions.  Costs are compared as exact rationals,
    so the irrational "euclid" kind is rejected.
    """
    return _hybrid(measure_of(p), sigma, kind)


def verify_theorem_main(m, n_max, sigmas, kind=SQUARED_EUCLIDEAN, max_cells=None):
    """Sweep the candidate-matching claim over all instances.

    Violations count only instances with involutive sigma where the
    candidate is invalid or suboptimal; for non-involutive sigma the same
    conditions are tallied separately as findings.
    """
    return _sweep("main", m, n_max, sigmas, kind, max_cells, _main_record, _main_counts)


def verify_theorem_cor(m, n_max, sigmas, kind=SQUARED_EUCLIDEAN, max_cells=None):
    """Sweep the zero-distance criterion over all instances.

    Checks (distance == 0) <=> (diagram fixed by sigma) for every instance.
    The zero side is decided exactly for every kind: integer kinds compare
    the rational value, "euclid" sums the integer squared costs over the
    solver's matching, which vanish on exactly the same matchings.
    """
    return _sweep("cor", m, n_max, sigmas, kind, max_cells, _cor_record, _cor_counts)


def _sweep(theorem, m, n_max, sigmas, kind, max_cells, record, counts):
    """Run one claim over every (partition, sigma) instance up to n_max.

    `record(src, sigma, kind)` returns the claim's fields for one instance,
    where `src` is the partition's measure, built once and shared by every
    sigma; `counts(records)` returns the claim's extra summary counts.
    """
    sigmas = tuple(sigmas)
    records = []
    for n in range(1, n_max + 1):
        for p in enumerate_partitions(m, n, max_cells=max_cells):
            src = measure_of(p)
            entries = to_json(p)["entries"]
            for sigma in sigmas:
                records.append(
                    {
                        "theorem": theorem,
                        "m": m,
                        "n": n,
                        "partition": entries,
                        "sigma": list(sigma.images),
                        **record(src, sigma, kind),
                    }
                )
    summary = {
        "theorem": theorem,
        "m": m,
        "n_max": n_max,
        "kind": kind,
        "sigmas": [list(s.images) for s in sigmas],
        "records": len(records),
        "violations": sum(r["violation"] for r in records),
        **counts(records),
    }
    return SweepReport(theorem, m, n_max, sigmas, kind, tuple(records), summary)


def _main_record(src, sigma, kind):
    res = _hybrid(src, sigma, kind)
    involution = sigma.is_involution()
    return {
        "involution": involution,
        "hybrid_valid": res.valid,
        "hybrid_cost": _frac_json(res.cost),
        "optimal_cost": _frac_json(res.optimal_cost),
        "matches_optimum": res.matches_optimum,
        "violation": involution and not res.matches_optimum,
    }


def _main_counts(records):
    # An invalid candidate never matches the optimum, so a record is bad
    # exactly when it does not match.
    findings = sum(not (r["involution"] or r["matches_optimum"]) for r in records)
    return {"noninvolutive_findings": findings}


def _cor_record(src, sigma, kind):
    dst, c, res = _solve(src, sigma, kind)
    w = plan_cost(res.matching, c)
    if kind == EUCLIDEAN:
        w_zero = sum(c.exact_squared[i][j] for i, j in enumerate(res.matching)) == 0
        w_json = w
    else:
        w_zero = w == 0
        w_json = _frac_json(w)
    self_symmetric = dst == src
    return {
        "w": w_json,
        "w_zero": w_zero,
        "self_symmetric": self_symmetric,
        "violation": w_zero != self_symmetric,
    }


def _cor_counts(records):
    return {"self_symmetric_count": sum(r["self_symmetric"] for r in records)}


def _hybrid(src, sigma, kind):
    """hybrid_plan on the measure `src` of a partition."""
    if kind == EUCLIDEAN:
        raise NonIntegerCostsError("hybrid comparison needs an exact cost kind")
    dst, c, res = _solve(src, sigma, kind)
    optimal = plan_cost(res.matching, c)
    # Shared cells stay; every other cell goes to its image, which always
    # lies in dst.  The candidate is a bijection when no two cells collide.
    dst_index = {cell: j for j, cell in enumerate(dst)}
    matching = tuple(
        dst_index[cell if cell in dst_index else sigma.apply_to_cell(cell)]
        for cell in src
    )
    if len(set(matching)) != len(src):
        return HybridPlanResult(False, None, optimal, False, None)
    cost = plan_cost(matching, c)
    return HybridPlanResult(True, cost, optimal, cost == optimal, matching)


def _solve(src, sigma, kind):
    """Image, cost matrix and optimal assignment of one (p, sigma) instance.

    `src` is the measure of p; the image `dst` is the measure of p's
    sigma-permuted diagram.
    """
    if sigma.size != len(src[0]):
        raise SizeMismatchError(
            f"permutation of size {sigma.size} cannot act on {len(src[0])} coordinates"
        )
    dst = tuple(sorted(sigma.apply_to_cell(cell) for cell in src))
    c = cost_matrix(src, dst, kind)
    return dst, c, solve_assignment(c)


def format_summary(report):
    """Human-readable per-sigma table for a sweep report."""
    lines = [
        f"sweep {report.theorem}: m={report.m} n_max={report.n_max} kind={report.kind}",
        f"{'sigma':<12} {'instances':>9} {'violations':>10}",
    ]
    for sigma in report.sigmas:
        recs = [r for r in report.records if r["sigma"] == list(sigma.images)]
        bad = sum(1 for r in recs if r["violation"])
        lines.append(f"{sigma.one_line():<12} {len(recs):>9} {bad:>10}")
    lines.append(
        f"total: {report.summary['records']} records, "
        f"{report.summary['violations']} violations"
    )
    return "\n".join(lines) + "\n"


def _frac_json(value):
    if value is None:
        return None
    return [value.numerator, value.denominator]


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

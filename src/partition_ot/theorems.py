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
and serialize to byte-identical JSON lines across runs.  Each claim is
computed and serialized once per symmetry orbit of instances under
relabelling the axes, and the orbit's other record lines reuse it (see
`_sweep`).
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple
from fractions import Fraction

from .errors import InstanceTooLargeError, NonIntegerCostsError, SizeMismatchError
from .measures import measure_of
from .partitions import _cell_action, apply_permutation, enumerate_partitions
from .transport import (
    EUCLIDEAN,
    L1,
    SQUARED_EUCLIDEAN,
    l1_distance,
    optimal_total,
    squared_distance,
    wasserstein,  # unused here; bench/test_bench.py pins this binding
)

# A sweep lists all (m + 1)! relabellings of the axes to key its orbits.
# At m = 8 that is 362880 of them: a cor sweep of n = 1 under the identity
# alone took 2.69 s and 172 MiB, with Python 3.11 on a shared 2-CPU VM.
SWEEP_MAX_M = 7


HybridPlanResult = namedtuple(
    "HybridPlanResult",
    "valid cost optimal_cost matches_optimum matching",
    defaults=(None,),
)
HybridPlanResult.__doc__ = (
    "Outcome of the fix-common, permute-the-rest candidate matching."
)

_SWEEP_FIELDS = "theorem m n_max sigmas kind lines summary sigma_counts"


class SweepReport(namedtuple("SweepReport", _SWEEP_FIELDS)):
    """One verification sweep: its JSON record lines plus summary counts.

    `lines` holds one serialized record per instance, in enumeration
    order; `sigma_counts` maps each sigma's images to its (instances,
    violations) tally.
    """

    __slots__ = ()

    @property
    def records(self):
        """The per-instance records, parsed from `lines` on each access."""
        return tuple(map(json.loads, self.lines))

    @property
    def violations(self):
        return self.summary["violations"]

    def to_jsonl(self):
        """One JSON line per record, then the summary object."""
        return "\n".join((*self.lines, _dumps(self.summary))) + "\n"


def hybrid_plan(p, sigma, kind=SQUARED_EUCLIDEAN):
    """Build the candidate matching and compare its cost to the optimum.

    The candidate fixes every cell shared between p and its permuted image
    and sends each remaining cell to its coordinate-permuted position.  It
    is `valid` when that defines a bijection onto the target cells, which
    always holds for involutions.  Costs are compared as exact rationals,
    so the irrational "euclid" kind is rejected.

    The optimum comes from `optimal_total`, and the candidate is costed over
    its moved cells only, because every shared cell stays put at cost 0.
    """
    if kind == EUCLIDEAN:
        raise NonIntegerCostsError("hybrid comparison needs an exact cost kind")
    src = measure_of(p)
    dst = apply_permutation(src, sigma)
    n = len(src)
    optimal = Fraction(optimal_total(src, dst, kind), n)
    if dst == src:  # nothing moves: the candidate is the identity, at cost 0
        return HybridPlanResult(True, optimal, optimal, True, tuple(range(n)))
    # Every moved cell goes to its image, which always lies in dst.  The
    # candidate is a bijection when no image lands on a shared cell.
    dst_index = {cell: j for j, cell in enumerate(dst)}
    distance = l1_distance if kind == L1 else squared_distance
    matching = []
    moved_cost = 0
    for cell in src:
        if cell in dst_index:
            matching.append(dst_index[cell])
        else:
            image = sigma.apply_to_cell(cell)
            matching.append(dst_index[image])
            moved_cost += distance(cell, image)
    if len(set(matching)) != n:
        return HybridPlanResult(False, None, optimal, False, None)
    cost = Fraction(moved_cost, n)
    return HybridPlanResult(True, cost, optimal, cost == optimal, tuple(matching))


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
    the rational value.  Under "euclid" every nonzero cost is the square
    root of an integer >= 1, so the float total is 0 only when every
    matched cost is.
    """
    return _sweep("cor", m, n_max, sigmas, kind, max_cells, _cor_record, _cor_counts)


def check_sweep_size(m):
    """Refuse a sweep of dimension m above `SWEEP_MAX_M`."""
    if m > SWEEP_MAX_M:
        raise InstanceTooLargeError(
            f"m={m} exceeds the sweep guard {SWEEP_MAX_M}: "
            f"orbits need all (m + 1)! axis relabellings"
        )


def _sweep(theorem, m, n_max, sigmas, kind, max_cells, record, counts):
    """Run one claim over every (partition, sigma) instance up to n_max.

    `record(p, sigma, kind)` returns the claim's fields for one instance;
    `counts(weighted)` returns the claim's extra summary counts from
    (fields, instances) pairs.

    Relabelling the m + 1 axes by any tau preserves every cost kind, so the
    instance (tau p, tau sigma tau^-1) has the cost matrix of (p, sigma) up
    to a reordering of rows and columns, and the same claim fields.
    `record` therefore runs once per orbit, on the orbit's first instance in
    enumeration order, and the orbit's fields are serialized once into a
    line template; every instance of the orbit fills in its own n,
    partition and sigma.  Orbits with equal fields share one template.  The
    summary counts each orbit's fields once per instance it holds.
    """
    sigmas = tuple(sigmas)
    sigma_json = [_dumps(list(s.images)) for s in sigmas]
    lines = []
    orbits = {}  # orbit key -> (line template, fields, instances per sigma)
    # line template per repr of the fields' values: one sweep has one record
    # function, so the names and their order are fixed; repr tells apart
    # what json prints apart (True and 1, 0.0 and -0.0), and equal reprs
    # print alike
    templates = {}
    for n in range(1, n_max + 1):
        partitions = enumerate_partitions(m, n, max_cells=max_cells)
        if n == 1:  # after the first enumeration, whose errors come first
            orbit_keys = _orbit_keys(m, sigmas)
        for p in partitions:
            entries = _dumps(p.entries)  # json writes tuples as arrays
            for i, key in enumerate(orbit_keys(measure_of(p))):
                orbit = orbits.get(key)
                if orbit is None:
                    fields = record(p, sigmas[i], kind)
                    fkey = repr(tuple(fields.values()))
                    template = templates.get(fkey)
                    if template is None:
                        template = templates[fkey] = _line_template(theorem, m, fields)
                    orbit = orbits[key] = (template, fields, [0] * len(sigmas))
                orbit[2][i] += 1
                lines.append(orbit[0] % (n, entries, sigma_json[i]))
    weighted = []  # (fields, instances) per orbit
    sigma_counts = {s.images: [0, 0] for s in sigmas}
    for _, fields, per_sigma in orbits.values():
        weighted.append((fields, sum(per_sigma)))
        for sigma, k in zip(sigmas, per_sigma):
            tally = sigma_counts[sigma.images]
            tally[0] += k
            tally[1] += k if fields["violation"] else 0
    summary = {
        "theorem": theorem,
        "m": m,
        "n_max": n_max,
        "kind": kind,
        "sigmas": [list(s.images) for s in sigmas],
        "records": len(lines),
        "violations": sum(k for fields, k in weighted if fields["violation"]),
        **counts(weighted),
    }
    return SweepReport(
        theorem, m, n_max, sigmas, kind, tuple(lines), summary, sigma_counts
    )


_SLOT = "\0"  # placeholder of a record line's per-instance fields


def _line_template(theorem, m, fields):
    """%-format template of a record line; n, partition, sigma fill it.

    The record is serialized once with a placeholder in each slot, and keys
    are sorted, so the slots come in that order and a filled template is
    byte-identical to `_dumps` of the whole record.  The placeholder is a
    NUL string, which no claim field holds.
    """
    slots = dict.fromkeys(("n", "partition", "sigma"), _SLOT)
    text = _dumps({"theorem": theorem, "m": m, **slots, **fields})
    return text.replace("%", "%%").replace(_dumps(_SLOT), "%s")


def _orbit_keys(m, sigmas):
    """Orbit keys of the (p, sigma) instances, one per sigma in `sigmas`.

    Returns `keys(src)`, which maps the measure of p to one key per sigma.
    Two instances get equal keys exactly when some tau in S_{m+1} carries
    one to the other: (p, sigma) -> (tau p, tau sigma tau^-1).

    The first partition that `keys` meets from an orbit of partitions is
    that orbit's representative r, and its tau-images are recorded then,
    so each later member p = tau r costs one lookup.  The instance
    (p, sigma) is tau (r, tau^-1 sigma tau); its key is r with the least
    such conjugate over the tau that carry r to p.
    """
    check_sweep_size(m)
    for sigma in sigmas:
        if sigma.size != m + 1:
            raise SizeMismatchError(
                f"permutation of size {sigma.size} cannot act on {m + 1} coordinates"
            )
    movers = []
    conjugates = []
    for tau in itertools.permutations(range(1, m + 2)):
        # one-line images: tau sends axis k to axis tau[k - 1]; `inv[j]` is
        # the axis, counted from 0, that lands on axis j + 1
        inv = sorted(range(m + 1), key=tau.__getitem__)
        movers.append(_cell_action(tau))
        conjugates.append(
            tuple(tuple(inv[s.images[k - 1] - 1] + 1 for k in tau) for s in sigmas)
        )
    known = {}  # measure of every partition met so far -> its keys

    def keys(src):
        found = known.get(src)
        if found is None:
            cosets = {}
            for move, conj in zip(movers, conjugates):
                cosets.setdefault(tuple(sorted(map(move, src))), []).append(conj)
            for image, coset in cosets.items():
                known[image] = [(src, min(conj)) for conj in zip(*coset)]
            found = known[src]
        return found

    return keys


def _main_record(p, sigma, kind):
    res = hybrid_plan(p, sigma, kind)
    involution = sigma.is_involution()
    return {
        "involution": involution,
        "hybrid_valid": res.valid,
        "hybrid_cost": _frac_json(res.cost),
        "optimal_cost": _frac_json(res.optimal_cost),
        "matches_optimum": res.matches_optimum,
        "violation": involution and not res.matches_optimum,
    }


def _main_counts(weighted):
    # An invalid candidate never matches the optimum, so a record is bad
    # exactly when it does not match.
    findings = sum(
        k for f, k in weighted if not (f["involution"] or f["matches_optimum"])
    )
    return {"noninvolutive_findings": findings}


def _cor_record(p, sigma, kind):
    src = measure_of(p)
    dst = apply_permutation(src, sigma)
    total = optimal_total(src, dst, kind)
    if kind == EUCLIDEAN:
        w_json = total / len(src)
    else:
        w_json = _frac_json(Fraction(total, len(src)))
    # exact for "euclid" too: a float sum of square roots of non-negative
    # ints is 0 only when every term is
    w_zero = total == 0
    self_symmetric = dst == src
    return {
        "w": w_json,
        "w_zero": w_zero,
        "self_symmetric": self_symmetric,
        "violation": w_zero != self_symmetric,
    }


def _cor_counts(weighted):
    return {"self_symmetric_count": sum(k for f, k in weighted if f["self_symmetric"])}


def format_summary(report):
    """Human-readable per-sigma table for a sweep report."""
    lines = [
        f"sweep {report.theorem}: m={report.m} n_max={report.n_max} kind={report.kind}",
        f"{'sigma':<12} {'instances':>9} {'violations':>10}",
    ]
    for sigma in report.sigmas:
        instances, bad = report.sigma_counts[sigma.images]
        lines.append(f"{sigma.one_line():<12} {instances:>9} {bad:>10}")
    lines.append(
        f"total: {report.summary['records']} records, "
        f"{report.summary['violations']} violations"
    )
    return "\n".join(lines) + "\n"


def _frac_json(value):
    if value is None:
        return None
    return [value.numerator, value.denominator]


# json.dumps(obj, sort_keys=True, separators=(",", ":")), its encoder built once
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

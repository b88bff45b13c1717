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
and serialize to byte-identical JSON lines, handed out a partition at a
time.  Both claims keep their matched totals as ints from solve to JSON,
where total/n goes out in lowest terms: no sweep builds a Fraction.
Each claim is computed once per symmetry orbit of instances under
relabelling the axes, a "cor" orbit under the exact kinds together with
its sigma^-1 twin's, and one outcome table serializes each distinct
result once for all its lines (`_sweep`).  Each n is one layer, run in
three passes: key its instances by orbit, solve one representative per
orbit through one cost table over the layer's cells, which solves each
distinct matrix once, and write its lines.
One gate (`_check_sweep`) refuses a sweep before any of that starts, for
the library and the command line alike.
"""

import itertools
import json
import math
import operator
from collections import namedtuple
from functools import partial

from .errors import InstanceTooLargeError, NonIntegerCostsError
from .measures import measure_of
from .partitions import (
    _cell_action,
    _check_acts_on,
    _check_guard,
    _check_int,
    _exceeds,
    apply_permutation,
    enumerate_partitions,
)
from .transport import (
    EUCLIDEAN,
    POINT_COSTS,
    SQUARED_EUCLIDEAN,
    _check_assignment_size,
    _check_kind,
    _CostTable,
    distance_of_total,
    optimal_total,
    wasserstein,  # unused here; bench/test_bench.py pins this binding
)

# A sweep lists all (m + 1)! relabellings of the axes to key its orbits.
# At m = 8 that is 362880 of them: a cor sweep of n = 1 under the identity
# alone took 2.69 s and 172 MiB, with Python 3.11 on a shared 2-CPU VM.
SWEEP_MAX_M = 7
# The orbit keys' conjugate table holds (m + 1)! x |sigma set| small ints
# and is built before anything is enumerated.  Measured at m <= 6, an entry
# takes 0.5-1.0 us and about 9 bytes, so this bound is about half a minute
# and 0.3 GiB: it admits m = 7 over the 764 involutions (3.1e7 entries) and
# refuses m = 7 over all 40320 sigma (1.6e9).
SWEEP_MAX_CONJUGATES = 32_000_000


HybridPlanResult = namedtuple(
    "HybridPlanResult", "valid cost optimal_cost matches_optimum matching"
)
HybridPlanResult.__doc__ = (
    "Outcome of the fix-common, permute-the-rest candidate matching."
)


class SweepReport(namedtuple("SweepReport", "lines summary sigma_counts")):
    """One verification sweep: its JSON record lines plus summary counts.

    `lines` holds one serialized record per instance, in enumeration
    order; `summary` is the report's last line, which names the sweep
    (theorem, m, n_max, kind and sigmas) and counts it; `sigma_counts` maps
    each sigma's images to its (instances, violations) tally.
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

    The comparison is `_hybrid_totals`, the integer core that the main
    sweep runs too; this runs it on the public `optimal_total` and wraps
    its two totals as Fraction costs, total/n.
    """
    _check_hybrid_kind(kind)
    total = partial(optimal_total, kind=kind)
    optimal, candidate, matching = _hybrid_totals(p, sigma, kind, total)
    optimal_cost = distance_of_total(optimal, p.n, kind)
    if candidate is None:
        return HybridPlanResult(False, None, optimal_cost, False, None)
    cost = distance_of_total(candidate, p.n, kind)
    return HybridPlanResult(True, cost, optimal_cost, candidate == optimal, matching)


def _hybrid_totals(p, sigma, kind, total):
    """The optimal and the candidate's matched totals, as ints, and its matching.

    Returns (optimal, candidate, matching), with candidate and matching
    None when the candidate is no bijection.  Both totals are over the
    same n cells, so they compare as their costs do.  The optimum is
    `total(src, dst)` of the diagram and its image: the public
    `optimal_total` for `hybrid_plan`, the layer's `_CostTable.total` in
    the sweep.  The candidate is costed over its moved cells only, because
    every shared cell stays put at cost 0.
    """
    src = measure_of(p)
    dst = apply_permutation(src, sigma)
    n = len(src)
    optimal = total(src, dst)
    if dst == src:  # nothing moves: the candidate is the identity, at cost 0
        return optimal, 0, tuple(range(n))
    # Every moved cell goes to its image, which always lies in dst.  The
    # candidate is a bijection when no image lands on a shared cell.
    dst_index = {cell: j for j, cell in enumerate(dst)}
    distance = POINT_COSTS[kind]
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
        return optimal, None, None
    return optimal, moved_cost, tuple(matching)


def _check_hybrid_kind(kind):
    if kind == EUCLIDEAN:
        raise NonIntegerCostsError("hybrid comparison needs an exact cost kind")


def verify_theorem_main(m, n_max, sigmas, kind=SQUARED_EUCLIDEAN, max_cells=None):
    """Sweep the candidate-matching claim over all instances.

    Violations count only instances with involutive sigma where the
    candidate is invalid or suboptimal; for non-involutive sigma the same
    conditions are tallied separately as findings.
    """
    return _sweep("main", m, n_max, sigmas, kind, max_cells)


def verify_theorem_cor(m, n_max, sigmas, kind=SQUARED_EUCLIDEAN, max_cells=None):
    """Sweep the zero-distance criterion over all instances.

    Checks (distance == 0) <=> (diagram fixed by sigma) for every instance.
    The zero side is decided exactly for every kind: integer kinds compare
    the rational value.  Under "euclid" every nonzero cost is the square
    root of an integer >= 1, so the float total is 0 only when every
    matched cost is.
    """
    return _sweep("cor", m, n_max, sigmas, kind, max_cells)


def _check_sweep(theorem, m, n_max, sigmas, kind, max_cells):
    """Refuse a sweep before anything is listed, built, opened or written.

    The one sweep gate, in this order: an unknown cost kind, "main" under
    "euclid", an m or n_max that is no int (a bool included), n_max below
    1, m above `SWEEP_MAX_M`, the enumeration guard at n_max (so every
    smaller n passes it too), n_max above `ASSIGNMENT_MAX_N`, an orbit
    table of more than `SWEEP_MAX_CONJUGATES` entries, a sigma of the
    wrong size and a sigma listed twice, whose tallies would merge.  The
    sweep's solves (`_CostTable.total`) check none of these per instance.
    Called with no sigmas, it runs the checks made before a set is listed.
    """
    _check_kind(kind)
    if theorem == "main":
        _check_hybrid_kind(kind)
    _check_int("m", m)
    _check_int("n_max", n_max, 1)
    if m > SWEEP_MAX_M:
        raise InstanceTooLargeError(
            _exceeds("m", m, "sweep", SWEEP_MAX_M)
            + ": orbits need all (m + 1)! axis relabellings"
        )
    _check_guard(m, n_max, max_cells)
    _check_assignment_size(n_max)
    conjugates = math.factorial(m + 1) * len(sigmas)
    if conjugates > SWEEP_MAX_CONJUGATES:
        raise InstanceTooLargeError(
            f"m={m} with {len(sigmas)} sigmas needs {conjugates} orbit conjugates, "
            f"above the sweep guard {SWEEP_MAX_CONJUGATES}"
        )
    for sigma in sigmas:
        _check_acts_on(sigma, m + 1)
    seen = set()
    for sigma in sigmas:
        if sigma.images in seen:
            raise ValueError(f"sigma {sigma.one_line()} is listed twice")
        seen.add(sigma.images)


def _sweep(theorem, m, n_max, sigmas, kind, max_cells, write=None):
    """Run one claim over every (partition, sigma) instance up to n_max.

    Hands `write` one string per partition, its record lines each ending
    in a newline, and the summary line last.  Without `write` the report
    keeps one line per record.

    Relabelling the axes by tau maps (p, sigma) to (tau p, tau sigma
    tau^-1) with the same cost matrix up to row and column order, so the
    claim runs once per orbit, and an orbit lies in one n.  Under "sq" and
    "l1", (p, sigma) and (p, sigma^-1) also carry equal "cor" fields:
    sigma^-1 is an isometry, so W(p, sigma p) = W(p, sigma^-1 p), and sigma
    fixes p exactly when sigma^-1 does.  So those "cor" keys are twin-closed
    (`_orbit_keys`) and the claim runs once per orbit and twin.  "euclid"
    solves both, as its float totals need not agree in the last bit.

    Each n runs in three passes: key, solve and write.  Its claims solve
    through `total` of one cost table over the union of its partitions'
    cells, a set that every sigma maps onto itself; the table cuts each
    matrix and keeps its total, so each distinct one is solved once per n.
    Each distinct outcome, the claim's fields, is serialized once into a
    line template that its instances fill with their n, partition and sigma.
    A partition's entries are written as the array of its layers' texts,
    its parts for m = 1, and each distinct layer is encoded once per sweep.
    """
    record, counts = _CLAIMS[theorem]
    sigmas = tuple(sigmas)
    _check_sweep(theorem, m, n_max, sigmas, kind, max_cells)
    lines = []  # kept only when no `write` is given
    write = write or (lambda text: lines.extend(text.split("\n")[:-1]))
    sigma_json = [_dumps(list(s.images)) for s in sigmas]
    # (line template, fields, instances per sigma) per repr of the fields'
    # values: one sweep has one record function, so the names and their
    # order are fixed; repr tells apart what json prints apart (True and 1,
    # 0.0 and -0.0), and equal reprs print alike
    outcomes = {}
    # json writes tuples as arrays, so a partition's entries are the array
    # of its layers' texts (of its parts, for m = 1), each encoded once
    layer_json = _Encoded()
    keys = _orbit_keys(m, sigmas, theorem == "cor" and kind != EUCLIDEAN)
    for n in range(1, n_max + 1):
        parts = enumerate_partitions(m, n, max_cells=max_cells)
        # key the layer; each key's first instance (p, sigma index)
        # represents its orbit, and then gives way to its outcome
        rows = keys([measure_of(p) for p in parts])
        orbits = {}
        for p, row in zip(parts, rows):
            for i, key in enumerate(row):
                if key not in orbits:
                    orbits[key] = p, i
        # solve the representatives, in enumeration order
        total = _CostTable(sorted({x for p in parts for x in p.cells}), kind).total
        for key, (p, i) in orbits.items():
            fields = record(p, sigmas[i], kind, total)
            fkey = repr(tuple(fields.values()))
            if fkey not in outcomes:
                template = _line_template(theorem, m, fields)
                outcomes[fkey] = (template, fields, [0] * len(sigmas))
            orbits[key] = outcomes[fkey]
        # write the layer, one string per partition
        n_json = str(n)
        for p, row in zip(parts, rows):
            entries = "[" + ",".join(map(layer_json.__getitem__, p.entries)) + "]"
            batch = []
            for i, key in enumerate(row):
                (head, mid1, mid2, tail), _, per_sigma = orbits[key]
                per_sigma[i] += 1
                batch += head, n_json, mid1, entries, mid2, sigma_json[i], tail
            write("".join(batch))
    weighted = [(fields, sum(per_sigma)) for _, fields, per_sigma in outcomes.values()]
    sigma_counts = {s.images: [0, 0] for s in sigmas}  # distinct, by the gate
    for _, fields, per_sigma in outcomes.values():
        for tally, k in zip(sigma_counts.values(), per_sigma):
            tally[0] += k
            tally[1] += k if fields["violation"] else 0
    summary = {
        "theorem": theorem,
        "m": m,
        "n_max": n_max,
        "kind": kind,
        "sigmas": [list(s.images) for s in sigmas],
        "records": sum(k for _, k in weighted),
        "violations": sum(k for fields, k in weighted if fields["violation"]),
        **counts(weighted),
    }
    write(_dumps(summary) + "\n")
    lines = tuple(lines[:-1])  # the last is the summary
    return SweepReport(lines, summary, sigma_counts)


class _Encoded(dict):
    """Each key's `_dumps` text, encoded on its first lookup."""

    __slots__ = ()

    def __missing__(self, value):
        text = self[value] = _dumps(value)
        return text


_SLOT = "\0"  # placeholder of a record line's per-instance fields


def _line_template(theorem, m, fields):
    """The four pieces of a record line around its n, partition and sigma.

    The record is serialized once with a placeholder in each slot, and keys
    are sorted, so the slots come in that order, and the pieces joined with
    n, partition and sigma between them are byte-identical to `_dumps` of
    the whole record, plus a newline.  The placeholder is a NUL string,
    which no claim field holds.
    """
    slots = dict.fromkeys(("n", "partition", "sigma"), _SLOT)
    text = _dumps({"theorem": theorem, "m": m, **slots, **fields})
    return tuple((text + "\n").split(_dumps(_SLOT)))


def _orbit_keys(m, sigmas, twins):
    """Orbit keys of the (p, sigma) instances, one per sigma in `sigmas`.

    Returns `keys(layer)`, which maps the measures of partitions of one n
    to one row of int keys each, one key per sigma.  Two instances of the
    layer get equal keys exactly when some tau in S_{m+1} carries one to
    the other: (p, sigma) -> (tau p, tau sigma tau^-1).  With `twins` they
    are also equal when tau carries one to the other's twin (p, sigma^-1).

    The conjugate table, all that `keys` keeps between calls, numbers each
    distinct tau^-1 sigma tau once, or with `twins` each one and its
    inverse, and holds one small int per (tau, sigma).  The first
    partition of the layer met from an orbit of partitions is its
    representative r, and all its tau-images are keyed then.  The instance
    (p, sigma) is tau (r, tau^-1 sigma tau); its key is r's number with the
    least such conjugate number over the tau that carry r to p, a set of
    conjugates that depends only on the instance's orbit.  The twin's set
    holds their inverses, which with `twins` have the same numbers.
    """
    movers = []
    conjugates = []
    numbers = {}  # a conjugate's one-line images -> its number
    # one-line images behind a 0, so that every itemgetter below reads two
    # items or more and returns a tuple
    padded = [(0, *s.images) for s in sigmas]
    for tau in itertools.permutations(range(1, m + 2)):
        # one-line images: tau sends axis k to axis tau[k - 1]; `inv[j]` is
        # the axis, counted from 0, that lands on axis j + 1
        inv = sorted(range(m + 1), key=tau.__getitem__)
        movers.append(_cell_action(tau))
        after_tau = operator.itemgetter(0, *tau)  # sigma tau
        tau_back = (0, *(j + 1 for j in inv))  # then tau^-1
        row = []
        for s in padded:
            conj = operator.itemgetter(*after_tau(s))(tau_back)
            if conj not in numbers:
                twin = conj  # with twins, its inverse: its points by their images
                if twins:
                    twin = tuple(sorted(range(m + 2), key=conj.__getitem__))
                numbers[conj] = numbers.get(twin, len(numbers))
            row.append(numbers[conj])
        conjugates.append(tuple(row))
    width = len(numbers)

    def keys(layer):
        rows = {}  # each partition keyed so far -> its key row
        for src in layer:
            if src in rows:
                continue
            images = {}  # each tau-image of src -> the conjugate rows giving it
            for move, conj in zip(movers, conjugates):
                images.setdefault(tuple(sorted(map(move, src))), []).append(conj)
            # src is a new representative: len(rows) grows by at least one
            # between representatives, so it numbers them apart
            base = len(rows) * width
            for image, coset in images.items():
                least = coset[0] if len(coset) == 1 else map(min, *coset)
                rows[image] = [base + c for c in least]
        return [rows[src] for src in layer]

    return keys


def _main_record(p, sigma, kind, total):
    optimal, candidate, _ = _hybrid_totals(p, sigma, kind, total)
    involution = sigma.is_involution()
    matches = candidate == optimal  # an invalid candidate's None never does
    return {
        "involution": involution,
        "hybrid_valid": candidate is not None,
        "hybrid_cost": None if candidate is None else _ratio_json(candidate, p.n),
        "optimal_cost": _ratio_json(optimal, p.n),
        "matches_optimum": matches,
        "violation": involution and not matches,
    }


def _main_counts(weighted):
    # An invalid candidate never matches the optimum, so a record is bad
    # exactly when it does not match.
    findings = sum(
        k for f, k in weighted if not (f["involution"] or f["matches_optimum"])
    )
    return {"noninvolutive_findings": findings}


def _cor_record(p, sigma, kind, total):
    src = measure_of(p)
    dst = apply_permutation(src, sigma)
    w = total(src, dst)
    n = len(src)
    w_json = w / n if kind == EUCLIDEAN else _ratio_json(w, n)
    # exact for "euclid" too: a float sum of square roots of non-negative
    # ints is 0 only when every term is
    w_zero = w == 0
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
    """Human-readable per-sigma table for a sweep report, rows summing to its total."""
    s = report.summary
    lines = [
        f"sweep {s['theorem']}: m={s['m']} n_max={s['n_max']} kind={s['kind']}",
        f"{'sigma':<12} {'instances':>9} {'violations':>10}",
    ]
    for images, (instances, bad) in report.sigma_counts.items():
        one_line = " ".join(map(str, images))
        lines.append(f"{one_line:<12} {instances:>9} {bad:>10}")
    lines.append(f"total: {s['records']} records, {s['violations']} violations")
    return "\n".join(lines) + "\n"


def _ratio_json(total, n):
    """total/n in lowest terms, as a Fraction's [numerator, denominator]."""
    g = math.gcd(total, n)
    return [total // g, n // g]


# json.dumps(obj, sort_keys=True, separators=(",", ":")), its encoder built once
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_CLAIMS = {"main": (_main_record, _main_counts), "cor": (_cor_record, _cor_counts)}

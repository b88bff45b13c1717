"""Reference sweep driver that runs the claim on every instance.

The differential oracle for `theorems._sweep`, which runs the claim once per
symmetry orbit of (p, sigma) and copies the fields to the rest of the orbit.
This driver has no orbit cache: every (partition, sigma) instance gets its
own `record` call, so each field is computed from that instance alone.
"""

from partition_ot import enumerate_partitions, measure_of, to_json
from partition_ot.theorems import (
    SweepReport,
    _cor_counts,
    _cor_record,
    _main_counts,
    _main_record,
)

CLAIMS = {"main": (_main_record, _main_counts), "cor": (_cor_record, _cor_counts)}


def uncached_sweep(theorem, m, n_max, sigmas, kind):
    record, counts = CLAIMS[theorem]
    sigmas = tuple(sigmas)
    records = []
    for n in range(1, n_max + 1):
        for p in enumerate_partitions(m, n):
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

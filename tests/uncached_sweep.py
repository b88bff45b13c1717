"""Reference sweep driver that runs the claim on every instance.

The differential oracle for `theorems._sweep`, which runs the claim once per
symmetry orbit of (p, sigma), serializes each orbit's fields once into a
line template and counts the summary from orbit sizes.  This reference has no
orbit cache: every (partition, sigma) instance gets its own `record` call,
which solves through the public `optimal_total` rather than a layer's cost
table, its own dict record and its own `json.dumps`, and the per-sigma table
scans the records once per sigma.
"""

import json
from dataclasses import dataclass
from functools import partial

from partition_ot import enumerate_partitions, optimal_total, to_json
from partition_ot.theorems import _cor_counts, _cor_record, _main_counts, _main_record

CLAIMS = {"main": (_main_record, _main_counts), "cor": (_cor_record, _cor_counts)}


@dataclass(frozen=True)
class ReferenceReport:
    theorem: str
    m: int
    n_max: int
    sigmas: tuple
    kind: str
    records: tuple
    summary: dict

    def to_jsonl(self):
        lines = [_dumps(r) for r in self.records]
        lines.append(_dumps(self.summary))
        return "\n".join(lines) + "\n"

    def table(self):
        """The per-sigma table `theorems.format_summary` prints."""
        lines = [
            f"sweep {self.theorem}: m={self.m} n_max={self.n_max} kind={self.kind}",
            f"{'sigma':<12} {'instances':>9} {'violations':>10}",
        ]
        for sigma in self.sigmas:
            recs = [r for r in self.records if r["sigma"] == list(sigma.images)]
            bad = sum(1 for r in recs if r["violation"])
            lines.append(f"{sigma.one_line():<12} {len(recs):>9} {bad:>10}")
        lines.append(
            f"total: {self.summary['records']} records, "
            f"{self.summary['violations']} violations"
        )
        return "\n".join(lines) + "\n"


def uncached_sweep(theorem, m, n_max, sigmas, kind):
    record, counts = CLAIMS[theorem]
    sigmas = tuple(sigmas)
    records = []
    for n in range(1, n_max + 1):
        for p in enumerate_partitions(m, n):
            entries = to_json(p)["entries"]
            for sigma in sigmas:
                records.append(
                    {
                        "theorem": theorem,
                        "m": m,
                        "n": n,
                        "partition": entries,
                        "sigma": list(sigma.images),
                        **record(p, sigma, kind, partial(optimal_total, kind=kind)),
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
        **counts([(r, 1) for r in records]),
    }
    return ReferenceReport(theorem, m, n_max, sigmas, kind, tuple(records), summary)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

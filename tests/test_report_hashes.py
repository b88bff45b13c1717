"""Byte-level pins of sweep reports.

Each case hashes the full JSON-lines report of one sweep.  A refactor of
the sweep pipeline must leave every byte, and so every hash, unchanged.
The last case is the report of the benchmark's smoke sweep.
"""

import hashlib

import pytest

from partition_ot import (
    all_permutations,
    involutions,
    verify_theorem_cor,
    verify_theorem_main,
)

CASES = [
    ("main", 1, 9, "involutions", "sq",
     "866c5b96f3d895ecbcd95591063bf6e22ab9f74066f27df4c9100cf04f3be013"),
    ("main", 1, 9, "involutions", "l1",
     "4d78cf817ba1c7a1fbe4388c729ec51be699fee5d48af8d73ff4882376b2bce9"),
    ("main", 2, 6, "involutions", "sq",
     "6d2fe07643ef04a3a97eb23437c17eeda0e7a5fa3845322c778d2e774a0fd6fe"),
    ("main", 2, 6, "all", "l1",
     "9b45fe6086d56689e2f5144167384f8b56abef53989060f1106e936fa2c14e59"),
    ("cor", 2, 6, "all", "sq",
     "995de64f7e4f419033e7397e7e932e93d8767c42de2711db1a5b81fc4bd8fdc2"),
    ("cor", 2, 6, "all", "l1",
     "cbe1347e289cce8d25c048c42c6076086e918449d8a6a89daf511468b8aa65cf"),
    ("cor", 2, 6, "all", "euclid",
     "38d56ff7fdbccc63a108c8494ebcffe7422ef78aab8a4985d3096d6edbeb317d"),
    ("cor", 3, 4, "all", "l1",
     "3557b9c9cabf2a087f836a4dabfc258e23037483a85cba7e453cf7364a0cf665"),
]

SWEEPS = {"main": verify_theorem_main, "cor": verify_theorem_cor}
SIGMA_SETS = {"involutions": involutions, "all": all_permutations}


@pytest.mark.parametrize(
    "theorem, m, n_max, sigmas, kind, digest",
    CASES,
    ids=[f"{t}-m{m}-n{n}-{s}-{k}" for t, m, n, s, k, _ in CASES],
)
def test_report_bytes_are_pinned(theorem, m, n_max, sigmas, kind, digest):
    report = SWEEPS[theorem](m, n_max, SIGMA_SETS[sigmas](m + 1), kind=kind)
    text = report.to_jsonl()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

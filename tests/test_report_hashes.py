"""Byte-level pins of sweep reports.

Each case hashes the full JSON-lines report of one sweep.  A refactor of
the sweep pipeline must leave every byte, and so every hash, unchanged.
The last three cases are the reports of the benchmark's smoke sweep,
of its `sweep_cor_solid` workload and of that workload's `sq` twin.

Reports carry totals and verdicts, not matchings, so one more pin hashes
the solver's lex-smallest optimal matching on every instance of a small
sweep, built from the cost matrix and the solver alone.
"""

import hashlib
import json

import pytest

from partition_ot import (
    all_permutations,
    cli,
    cost_matrix,
    enumerate_partitions,
    involutions,
    measure_of,
    theorems,
    solve_assignment,
    symmetrize,
    to_json,
    transport,
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
    ("cor", 3, 7, "all", "l1",
     "d94fa106f2de7eeb59117b6a202b9ed2cf0adec63a6bd7d708a09f1cf71f7ddf"),
    ("cor", 3, 7, "all", "sq",
     "b8eb8eb968ee7f24633f0d19b8113b617ef5a2cadf863c2ce129cf7ecc7cbf83"),
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


@pytest.mark.parametrize(
    "theorem, m, n_max, sigmas, kind, digest",
    CASES,
    ids=[f"{t}-m{m}-n{n}-{s}-{k}" for t, m, n, s, k, _ in CASES],
)
def test_a_sweep_solves_through_its_layer_alone(monkeypatch, theorem, m, n_max,
                                               sigmas, kind, digest):
    # every sweep solve runs through its layer's cost table
    # (`_CostTable.total`), never through the public `optimal_total`
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep called the public optimal_total")

    monkeypatch.setattr(transport, "optimal_total", refuse)
    monkeypatch.setattr(theorems, "optimal_total", refuse)
    report = SWEEPS[theorem](m, n_max, SIGMA_SETS[sigmas](m + 1), kind=kind)
    text = report.to_jsonl()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "theorem, m, n_max, sigmas, kind, digest",
    CASES,
    ids=[f"{t}-m{m}-n{n}-{s}-{k}" for t, m, n, s, k, _ in CASES],
)
def test_verify_streams_the_pinned_bytes(capsys, tmp_path, monkeypatch, theorem, m,
                                         n_max, sigmas, kind, digest):
    # the command writes each partition's lines as the sweep makes them:
    # it never joins or encodes the whole report
    def refuse(*args):
        raise AssertionError("the whole report was built")

    monkeypatch.setattr(theorems.SweepReport, "to_jsonl", refuse)
    monkeypatch.setattr(cli, "_emit", refuse)
    argv = ["verify", "--theorem", theorem, "--m", str(m), "--n-max", str(n_max),
            "--sigma", sigmas, "--cost", kind]
    code = cli.main(argv)
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert code == (3 if json.loads(text.splitlines()[-1])["violations"] else 0)
    out = tmp_path / "report.jsonl"
    assert cli.main([*argv, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# main, m = 2, n <= 6, involutions, "sq".  At n <= 5 the solver's first
# optimum is already lex-smallest on every instance; n = 6 has ties it
# must break.
MATCHINGS_DIGEST = "96c1c0a3905c721ee5aaee939800bf254173c9e91409cb766b8af1c2616754dc"


def test_sweep_matchings_are_pinned():
    lines = []
    for n in range(1, 7):
        for p in enumerate_partitions(2, n):
            src = measure_of(p)
            for sigma in involutions(3):
                c = cost_matrix(src, measure_of(symmetrize(p, sigma)), "sq")
                matching = solve_assignment(c).matching
                row = [to_json(p)["entries"], list(sigma.images), list(matching)]
                lines.append(json.dumps(row, separators=(",", ":")))
    assert len(lines) == 380
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MATCHINGS_DIGEST

from fractions import Fraction

import pytest

from partition_ot import (
    NonIntegerCostsError,
    Permutation,
    all_permutations,
    check_certificate,
    count_partitions,
    enumerate_partitions,
    format_summary,
    hybrid_plan,
    involutions,
    validate_array,
    verify_theorem_cor,
    verify_theorem_main,
)
from partition_ot import theorems

SWAP = Permutation.from_one_line("2 1")
THREE_CYCLES = [s for s in all_permutations(3) if not s.is_involution()]


# ---------------------------------------------------------------------------
# the candidate matching
#
# The fix-shared-cells candidate is always a well-defined matching for
# involutions, but it does not always attain the optimum: under the squared
# cost, relay moves through shared cells can be cheaper.  (4,2) with the
# axis swap is the smallest flat counterexample with two moved cells.


def test_hybrid_flat_counterexample():
    res = hybrid_plan(validate_array([4, 2], 1), SWAP)
    assert res.valid
    assert res.cost == Fraction(13, 3)
    assert res.optimal_cost == Fraction(7, 3)
    assert not res.matches_optimum


def test_hybrid_self_symmetric_is_free():
    res = hybrid_plan(validate_array([2, 1], 1), SWAP)
    assert res.valid and res.cost == 0 and res.matches_optimum


def test_hybrid_plane_pair_attains_optimum():
    res = hybrid_plan(validate_array([[3, 2], [1]], 2), Permutation.from_one_line("1 3 2"))
    assert res.valid
    assert res.cost == res.optimal_cost == Fraction(1, 3)
    assert res.matches_optimum


def test_hybrid_can_be_invalid_for_a_three_cycle():
    # the moved cell lands inside the shared support, so no bijection remains
    res = hybrid_plan(validate_array([[2, 1]], 2), Permutation.from_one_line("2 3 1"))
    assert not res.valid
    assert res.cost is None and res.matching is None
    assert res.optimal_cost == Fraction(2, 3)


def test_hybrid_rejects_irrational_kind():
    with pytest.raises(NonIntegerCostsError):
        hybrid_plan(validate_array([2, 1], 1), SWAP, kind="euclid")


def test_hybrid_always_valid_for_involutions():
    for m, n_max in ((1, 7), (2, 5)):
        for n in range(1, n_max + 1):
            for p in enumerate_partitions(m, n):
                for sigma in involutions(m + 1):
                    res = hybrid_plan(p, sigma)
                    assert res.valid
                    assert res.cost >= res.optimal_cost


# ---------------------------------------------------------------------------
# sweeps


def test_main_sweep_squared_cost_finds_the_gap():
    report = verify_theorem_main(1, 8, involutions(2))
    assert report.summary["records"] == 132
    assert report.violations == 42
    # every violating record is a valid but suboptimal candidate
    for rec in report.records:
        if rec["violation"]:
            assert rec["hybrid_valid"] and not rec["matches_optimum"]


def test_main_sweep_metric_cost_is_clean_longer():
    assert verify_theorem_main(1, 7, involutions(2), kind="l1").violations == 0
    assert verify_theorem_main(1, 8, involutions(2), kind="l1").violations == 2


def test_main_sweep_three_cycles_report_only():
    report = verify_theorem_main(2, 4, THREE_CYCLES)
    assert report.violations == 0  # nothing asserted for non-involutions
    assert report.summary["noninvolutive_findings"] == 24
    assert any(not rec["hybrid_valid"] for rec in report.records)


def test_cor_sweep_flat():
    report = verify_theorem_cor(1, 9, involutions(2))
    assert report.violations == 0
    assert report.summary["records"] == 192


@pytest.mark.parametrize("kind", ["sq", "l1", "euclid"])
def test_cor_sweep_plane_all_kinds(kind):
    report = verify_theorem_cor(2, 4, all_permutations(3), kind=kind)
    assert report.violations == 0
    for rec in report.records:
        assert rec["w_zero"] == rec["self_symmetric"]


def test_cor_sweep_identity_only():
    report = verify_theorem_cor(2, 4, [Permutation.identity(3)])
    assert report.violations == 0
    assert all(rec["self_symmetric"] for rec in report.records)
    assert all(rec["w"] == [0, 1] for rec in report.records)


@pytest.mark.parametrize(
    "sweep, m, n_max, sigmas, kind",
    [
        (verify_theorem_main, 2, 5, involutions(3), "sq"),
        (verify_theorem_cor, 3, 4, all_permutations(4), "l1"),
        (verify_theorem_cor, 2, 4, all_permutations(3), "euclid"),
    ],
)
def test_every_sweep_solve_is_certified(monkeypatch, sweep, m, n_max, sigmas, kind):
    solved = []

    def recording(c):
        res = solve(c)
        solved.append((c, res))
        return res

    solve = theorems.solve_assignment
    monkeypatch.setattr(theorems, "solve_assignment", recording)
    report = sweep(m, n_max, sigmas, kind=kind)
    assert len(solved) == report.summary["records"]
    assert all(check_certificate(c, res) for c, res in solved)


def test_record_count_invariant():
    sigmas = all_permutations(3)
    report = verify_theorem_cor(2, 5, sigmas)
    expected = sum(count_partitions(2, n) for n in range(1, 6)) * len(sigmas)
    assert report.summary["records"] == len(report.records) == expected


def test_reports_are_byte_deterministic():
    first = verify_theorem_cor(2, 4, all_permutations(3)).to_jsonl()
    second = verify_theorem_cor(2, 4, all_permutations(3)).to_jsonl()
    assert first == second
    lines = first.splitlines()
    assert len(lines) == 138 + 1  # records plus trailing summary object


def test_format_summary_mentions_counts():
    report = verify_theorem_main(1, 6, [SWAP])
    table = format_summary(report)
    assert "29 records" in table
    assert "14 violations" in table

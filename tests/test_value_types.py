"""The seven value types, built without dataclasses.

`MultiPartition`, `Permutation` and `CostMatrix` share one frozen base; the
records `HybridPlanResult`, `SweepReport`, `SupportDecomposition`,
`RenderSpec` and `AssignmentResult` are named tuples.  Their reprs, ==
and hash are those the frozen dataclasses had, and importing the command
line loads neither `dataclasses` nor `typing`.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from partition_ot import (
    AssignmentResult,
    CostMatrix,
    HybridPlanResult,
    MultiPartition,
    Permutation,
    RenderSpec,
    SupportDecomposition,
    SweepReport,
    decompose,
    hybrid_plan,
    integer_cost_matrix,
    solve_assignment,
    validate_array,
    verify_theorem_cor,
)

ROOT = Path(__file__).resolve().parent.parent
SWAP = Permutation.from_one_line("2 1")
P42 = validate_array([4, 2], 1)

# (value, its field tuple, its repr), one or more per type
VALUES = [
    (P42, (1, (4, 2), 6), "MultiPartition(m=1, entries=(4, 2), n=6)"),
    (SWAP, ((2, 1),), "Permutation(images=(2, 1))"),
    (
        CostMatrix("sq", [[0, 1], [1, 0]]),
        ("sq", ((0, 1), (1, 0))),
        "CostMatrix(kind='sq', values=((0, 1), (1, 0)))",
    ),
    (
        hybrid_plan(P42, SWAP),
        (True, Fraction(13, 3), Fraction(7, 3), False, (0, 1, 4, 5, 2, 3)),
        "HybridPlanResult(valid=True, cost=Fraction(13, 3), "
        "optimal_cost=Fraction(7, 3), matches_optimum=False, "
        "matching=(0, 1, 4, 5, 2, 3))",
    ),
    (
        decompose(validate_array([1], 1), SWAP),
        (frozenset({(0, 0)}), frozenset(), frozenset()),
        "SupportDecomposition(common=frozenset({(0, 0)}), "
        "source_only=frozenset(), target_only=frozenset())",
    ),
    (RenderSpec(), ("ascii", 24.0), "RenderSpec(format='ascii', cell_size=24.0)"),
    (
        solve_assignment(integer_cost_matrix([[2, 1], [1, 3]])),
        ((1, 0), 2, ((0, 0), (1, 1))),
        "AssignmentResult(matching=(1, 0), total=2, duals=((0, 0), (1, 1)))",
    ),
    (
        AssignmentResult((1, 0), 2),
        ((1, 0), 2, None),
        "AssignmentResult(matching=(1, 0), total=2, duals=None)",
    ),
]
IDS = [type(value).__name__ for value, _, _ in VALUES]
IDENTITY = Permutation.identity(2)
REPORT = verify_theorem_cor(1, 1, [IDENTITY])


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # a difference of sys.modules, since site may load typing beforehand
    code = (
        "import sys; before = set(sys.modules); import partition_ot.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    added = set(proc.stdout.split())
    assert "partition_ot.cli" in added
    assert not added & {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_repr_eq_and_hash_are_those_of_the_fields(value, fields, text):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    copy = type(value)(*fields)
    assert copy == value and not copy != value and hash(copy) == hash(value)
    assert value.__eq__(object()) is NotImplemented
    assert value.__eq__("text") is NotImplemented


def test_the_sweep_report_repr_and_equality():
    line = (
        '{"m":1,"n":1,"partition":[1],"self_symmetric":true,"sigma":[1,2],'
        '"theorem":"cor","violation":false,"w":[0,1],"w_zero":true}'
    )
    summary = {
        "theorem": "cor", "m": 1, "n_max": 1, "kind": "sq", "sigmas": [[1, 2]],
        "records": 1, "violations": 0, "self_symmetric_count": 1,
    }
    fields = ("cor", 1, 1, (IDENTITY,), "sq", (line,), summary, {(1, 2): [1, 0]})
    assert repr(REPORT) == (
        "SweepReport(theorem='cor', m=1, n_max=1, "
        "sigmas=(Permutation(images=(1, 2)),), "
        f"kind='sq', lines=({line!r},), summary={summary!r}, "
        "sigma_counts={(1, 2): [1, 0]})"
    )
    assert REPORT == SweepReport(*fields)
    assert REPORT.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError):  # it holds dicts, as the dataclass did
        hash(REPORT)


def test_records_are_tuples():
    res = AssignmentResult((1, 0), 2)
    assert res == ((1, 0), 2, None)
    matching, total, duals = res
    assert (matching, total, duals) == ((1, 0), 2, None)
    assert RenderSpec(cell_size=3.0) == ("ascii", 3.0)


@pytest.mark.parametrize(
    "value", [v for v, _, _ in VALUES] + [REPORT], ids=IDS + ["SweepReport"]
)
def test_no_assignment_or_deletion(value):
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in value._fields:
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_the_cell_action_stays_out_of_eq_hash_and_repr():
    # test_partitions::test_repr_eq_and_hash_ignore_the_cells does the cells
    other = object.__new__(Permutation)
    other.__dict__.update(images=(2, 1), apply_to_cell=None)
    assert other == SWAP and hash(other) == hash(SWAP) and repr(other) == repr(SWAP)


def test_the_frozen_types_compare_only_within_their_class():
    assert P42 != (1, (4, 2), 6)
    assert SWAP != ((2, 1),)
    assert Permutation((1, 2)) != MultiPartition(1, (1, 1))

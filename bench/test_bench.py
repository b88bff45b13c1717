"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _smoke_ops(name):
    rep = next(
        run.sweep_reps(run.WORKLOADS[name]["smoke"])
        if run.WORKLOADS[name]["kind"] == "sweep"
        else run.query_reps(run.WORKLOADS[name]["smoke"], 0)
    )
    return rep["ops"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    result, _ = run.run_workload(name, seed=0, seconds=0, trace=False, scale="smoke")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_layer_self_times_sum_to_traced_wall(name):
    _, answer = run.run_child(_smoke_ops(name), trace=True)
    wall = sum(op["seconds"] for op in answer["ops"])
    trace = answer["trace"]
    total_self = sum(trace["layer_self_s"].values())
    assert math.isclose(total_self, trace["root_s"], rel_tol=1e-9)
    # The op timer sits just outside the root span of cli.main.
    assert total_self <= wall
    assert wall - total_self < 0.02 * wall + 0.002


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_per_op_counters_repeat_across_traced_runs(name):
    first, second = (
        run.run_workload(name, seed=seed, seconds=0, trace=True, scale="smoke")[0]
        for seed in (0, 1)
    )
    assert first["correct"] and second["correct"]
    counters = [m for m, unit in run.PER_LAYER.items() if unit in ("calls/op", "count")]
    for metric in counters:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["measures.measure_of_per_op"]["value"] > 0


def test_traced_outputs_match_untraced():
    ops = _smoke_ops("sweep_main_plane")
    _, plain = run.run_child(ops)
    _, traced = run.run_child(ops, trace=True)
    assert [op["sha256"] for op in plain["ops"]] == [op["sha256"] for op in traced["ops"]]


def test_tracer_wraps_every_binding_and_restores():
    import partition_ot
    from partition_ot import cli, theorems, transport

    original = transport.wasserstein
    tracer = Tracer().install()
    try:
        wrapped = transport.wasserstein
        assert wrapped is not original
        assert partition_ot.wasserstein is wrapped
        assert theorems.wasserstein is wrapped and cli.wasserstein is wrapped
        names = {name for name, _ in tracer.names}
        assert "theorems.SweepReport.to_jsonl" in names
        assert "partitions.Permutation.from_one_line" in names
    finally:
        tracer.uninstall()
    assert transport.wasserstein is original and partition_ot.wasserstein is original


def test_query_pairs_are_seeded_and_distinct():
    def take(seed):
        pairs = run.query_pairs(seed, (6, 8, 10))
        return [next(pairs) for _ in range(30)]

    first = take(5)
    assert first == take(5)
    assert first != take(6)
    keys = [json.dumps(a) for a, _ in first]
    assert len(set(keys)) == len(keys)


def test_query_pairs_raise_once_a_size_is_used_up():
    pairs = run.query_pairs(0, (3,))  # 3 has three partitions
    drawn = {json.dumps(next(pairs)) for _ in range(3)}
    assert len(drawn) == 3
    with pytest.raises(ValueError):
        next(pairs)


def test_query_check_rejects_a_wrong_answer():
    a, b = [4, 2], [2, 2, 1, 1]
    good = {"code": 0, "output": "7/3 (2.33333333333)\n"}
    assert run.check_query(a, b, False, good)
    assert not run.check_query(a, b, False, {"code": 0, "output": "13/3 (4.33333333333)\n"})
    assert not run.check_query(a, b, False, {**good, "code": 2})
    assert not run.check_query(a, [2, 2, 2], False, good)
    plan = '{"n":6,"entries":[],"total_num":7,"total_den":3}'
    assert not run.check_query(a, b, True, {"code": 0, "output": good["output"] + plan})
    assert not run.check_query(a, b, True, {"code": 0, "output": good["output"] + "{"})


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query_flat", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

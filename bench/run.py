"""Layered benchmark for the partition-ot command line.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep_main_plane --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each repetition runs in a fresh child interpreter (`child.py`) that
imports `partition_ot.cli` from this checkout's ``src/`` and calls
``cli.main(argv)`` for every operation, so module-level caches start cold
as they do for a command-line user.  Repetitions run one at a time, in a
closed loop with one client, until ``--seconds`` have passed.

The host this was built on changes speed by up to 40% for seconds at a
time.  Each child therefore samples a fixed CPU probe while it works, and
time metrics are reported at a fixed reference probe speed, with the raw
figures printed beside them; see `child.SpeedProbe` and REFERENCE_PROBE_S.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions on the same inputs and reports per-layer
metrics from the outside-in tracer (`tracer.py`), plus the tracing
overhead.  Every operation's exit code and output are checked; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"

SETUP_ONLY_CHILDREN = 10  # extra interpreter start-ups per run, for setup_s
CHILD_TIMEOUT_S = 150  # a hung child fails the run inside its 180 s limit
# child.probe_loop's duration on the reference host (Python 3.11.7, see
# README.md) when no other tenant slows it down.  Times are reported at
# this probe speed: raw seconds * REFERENCE_PROBE_S / probe seconds.
REFERENCE_PROBE_S = 110e-6
QUERY_SIGMA = "2 1"  # flat partitions are reflected across the diagonal

WORKLOADS = {
    "sweep_main_plane": {
        "kind": "sweep",
        "full": "verify --theorem main --m 2 --n-max 10 --sigma involutions --cost sq",
        "smoke": "verify --theorem main --m 2 --n-max 5 --sigma involutions --cost sq",
    },
    "sweep_cor_solid": {
        "kind": "sweep",
        "full": "verify --theorem cor --m 3 --n-max 7 --sigma all --cost l1",
        "smoke": "verify --theorem cor --m 3 --n-max 4 --sigma all --cost l1",
    },
    "query_flat": {
        "kind": "query",
        "full": {"sizes": (40, 70, 100), "count": 100},
        "smoke": {"sizes": (6, 8, 10), "count": 6},
    },
}

# name -> unit; the order is the order printed.
END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}
LAYERS = ("cli", "theorems", "partitions", "measures", "transport")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.out_bytes": "bytes",
    "theorems.hybrid_plan_s": "s",
    "theorems.to_jsonl_s": "s",
    "partitions.enumerate_s": "s",
    "partitions.to_cells_per_op": "calls/op",
    "measures.measure_of_per_op": "calls/op",
    "transport.cost_matrix_s": "s",
    "transport.cost_matrix_per_op": "calls/op",
    "transport.cost_entries": "count",
    "transport.solve_s": "s",
    "transport.solve_per_op": "calls/op",
    "transport.solve_n3_sum": "count",
    "transport.solve_n_max": "count",
    "trace.overhead_ratio": "ratio",
}
# per-layer metric -> traced function whose inclusive time or calls it reports
INCLUSIVE = {
    "theorems.hybrid_plan_s": "theorems.hybrid_plan",
    "theorems.to_jsonl_s": "theorems.SweepReport.to_jsonl",
    "partitions.enumerate_s": "partitions.enumerate_partitions",
    "transport.cost_matrix_s": "transport.cost_matrix",
    "transport.solve_s": "transport.solve_assignment",
}
PER_OP = {
    "partitions.to_cells_per_op": "partitions.to_cells",
    "measures.measure_of_per_op": "measures.measure_of",
    "transport.cost_matrix_per_op": "transport.cost_matrix",
    "transport.solve_per_op": "transport.solve_assignment",
}


class ProgramMissing(Exception):
    """The checkout has no partition_ot sources to benchmark."""


# ---------------------------------------------------------------------------
# children


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same set layouts in every child
    return env


def run_child(ops, trace=False, keep_output=False, spans=None):
    """Start one child interpreter and run `ops` in it.

    Returns (setup, answer).  `setup` holds the start-up time, raw and at
    reference speed; every op in `answer` gains `ref_seconds`, its time at
    reference speed.
    """
    job = {"ops": ops, "trace": trace, "keep_output": keep_output, "spans": spans}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        cwd=str(ROOT),
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(json.dumps(job).encode(), timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(
            f"child failed (exit {proc.returncode}): {err.decode(errors='replace')[-2000:]}"
        )
    answer = json.loads(out.decode().splitlines()[-1])
    for op in answer["ops"]:
        op["ref_seconds"] = op["seconds"] * REFERENCE_PROBE_S / op["probe_s"]
    setup = {"seconds": setup_s, "ref_seconds": setup_s * REFERENCE_PROBE_S / answer["setup_probe_s"]}
    return setup, answer


# ---------------------------------------------------------------------------
# inputs


def sweep_reps(spec):
    """A sweep has no random input: every repetition runs the same command."""
    argv = spec.split()
    while True:
        yield {"ops": [argv], "queries": None}


def partitions_at_most(n_max):
    """table[n][m] = number of partitions of n with every part <= m."""
    table = [[1] * (n_max + 1)] + [[0] * (n_max + 1) for _ in range(n_max)]
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1):
            table[n][m] = table[n][m - 1] + (table[n - m][m] if m <= n else 0)
    return table


def uniform_partition(rng, n, table):
    """A partition of n drawn uniformly at random, parts in decreasing order."""
    parts = []
    cap = n
    while n:
        choices = range(1, min(n, cap) + 1)
        # a next part k leaves table[n - k][k] ways to finish
        k = rng.choices(choices, weights=[table[n - k][k] for k in choices])[0]
        parts.append(k)
        n -= k
        cap = k
    return tuple(parts)


def query_pairs(seed, sizes):
    """Endless stream of distinct flat partitions p, each with p reflected.

    Sizes cycle through `sizes`; each p is uniform among the partitions
    of its size, so its shape is typical and solve times stay close.
    Repeats are skipped, so no pair occurs twice in one stream; once every
    partition of a size has been drawn, the stream raises ValueError.
    Pairs are built through the public `validate_array` and `symmetrize`.
    """
    from partition_ot import Permutation, symmetrize, to_json, validate_array

    sigma = Permutation.from_one_line(QUERY_SIGMA)
    rng = random.Random(seed)
    table = partitions_at_most(max(sizes))
    seen = set()
    drawn = dict.fromkeys(sizes, 0)
    k = 0
    while True:
        n = sizes[k % len(sizes)]
        if drawn[n] == table[n][n]:
            raise ValueError(f"all {table[n][n]} partitions of {n} have been used")
        parts = uniform_partition(rng, n, table)
        if parts in seen:
            continue
        drawn[n] += 1
        seen.add(parts)
        p = validate_array(list(parts), 1)
        yield to_json(p), to_json(symmetrize(p, sigma))
        k += 1


def query_reps(spec, seed):
    """Repetitions of `count` queries each, drawn from one pair stream.

    Within a repetition, every other block of three queries adds --plan.
    """
    pairs = query_pairs(seed, spec["sizes"])
    WORK.mkdir(exist_ok=True)
    while True:
        ops, queries = [], []
        for i in range(spec["count"]):
            a_doc, b_doc = next(pairs)
            a_path, b_path = WORK / f"q{i}_a.json", WORK / f"q{i}_b.json"
            a_path.write_text(json.dumps(a_doc), encoding="utf-8")
            b_path.write_text(json.dumps(b_doc), encoding="utf-8")
            plan = (i // 3) % 2 == 1
            argv = ["wasserstein", str(a_path), str(b_path), "--cost", "sq"]
            ops.append(argv + ["--plan"] if plan else argv)
            queries.append((a_doc["entries"], b_doc["entries"], plan))
        yield {"ops": ops, "queries": queries}


# ---------------------------------------------------------------------------
# correctness


def flat_cells(parts):
    """Sorted diagram cells (height, column) of a flat partition."""
    return sorted((a, i) for i, part in enumerate(parts) for a in range(part))


def conjugate(parts):
    return [sum(1 for part in parts if part > j) for j in range(parts[0])]


def check_query(a_parts, b_parts, plan, result):
    """Check one wasserstein answer against an independent optimum.

    The optimum comes from scipy's assignment solver on squared distances
    between cells built here, not by the program.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    if result["code"] != 0 or list(b_parts) != conjugate(a_parts):
        return False
    src, dst = np.array(flat_cells(a_parts)), np.array(flat_cells(b_parts))
    cost = ((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    best = int(cost[rows, cols].sum())
    n = len(src)
    w = Fraction(best, n)
    lines = result["output"].splitlines()
    if len(lines) != 1 + plan or lines[0] != f"{w.numerator}/{w.denominator} ({float(w):.12g})":
        return False
    if not plan:
        return True
    try:
        doc = json.loads(lines[1])
        entries = doc["entries"]
        matching = [e["j"] for e in entries]
        return (
            doc["n"] == n
            and [e["i"] for e in entries] == list(range(n))
            and sorted(matching) == list(range(n))
            and all(Fraction(e["num"], e["den"]) == Fraction(1, n) for e in entries)
            and Fraction(doc["total_num"], doc["total_den"]) == w
            and int(cost[np.arange(n), matching].sum()) == best
        )
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):  # malformed plan
        return False


def rep_digest(results):
    """sha256 over the per-op output digests of one repetition, in order."""
    return hashlib.sha256("".join(r["sha256"] for r in results).encode()).hexdigest()


def check_rep(name, scale, seed, rep_index, rep, results, expected):
    """Number of ops in one repetition whose result is wrong."""
    want = expected[scale][name]
    if rep["queries"] is None:
        res = results[0]
        ok = res["code"] == want["exit"] and res["sha256"] == want["sha256"]
        if ok:
            summary = json.loads(res["last_line"])
            ok = (summary["records"], summary["violations"]) == (
                want["records"], want["violations"]
            )
        return 0 if ok else 1
    failed = sum(
        1
        for (a, b, plan), res in zip(rep["queries"], results)
        if not check_query(a, b, plan, res)
    )
    recorded = want["rep0_digest"].get(str(seed))
    if rep_index == 0 and recorded is not None and rep_digest(results) != recorded:
        failed = len(results)
    return failed


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rep_seconds(rep, key="ref_seconds"):
    """Time spent inside cli.main over one repetition."""
    return sum(r[key] for r in rep["results"])


def end_to_end(setups, reps, ok_ratio, key="ref_seconds"):
    """End-to-end metrics from op times `key`: reference-speed or raw."""
    latencies = [r[key] for rep in reps for r in rep["results"]]
    return {
        "setup_s": statistics.median(s[key] for s in setups),
        "instances_per_s": statistics.median(rep["instances"] / rep_seconds(rep, key) for rep in reps),
        "op_p50_ms": percentile(latencies, 50) * 1000,
        "op_p90_ms": percentile(latencies, 90) * 1000,
        "peak_rss_mib": statistics.median(rep["rss_kib"] for rep in reps) / 1024,
        "ok_ratio": ok_ratio,
    }


def per_layer(traced, untraced):
    """Per-layer metrics from each traced repetition; medians across them.

    Span times are scaled to reference speed by the repetition's probe.
    """
    rows = []
    for rep in traced:
        t = rep["trace"]
        speed = rep_seconds(rep) / rep_seconds(rep, "seconds")
        row = {
            f"{layer}.self_s": t["layer_self_s"].get(layer, 0.0) * speed for layer in LAYERS
        }
        row["cli.out_bytes"] = sum(r["bytes"] for r in rep["results"])
        for metric, fn in INCLUSIVE.items():
            row[metric] = t["fn_inclusive_s"].get(fn, 0.0) * speed
        for metric, fn in PER_OP.items():
            row[metric] = t["fn_calls"].get(fn, 0) / rep["instances"]
        costs = t["sizes"].get("transport.cost_matrix", {})
        solves = t["sizes"].get("transport.solve_assignment", {})
        row["transport.cost_entries"] = costs.get("entries", 0)
        row["transport.solve_n3_sum"] = solves.get("n3_sum", 0)
        row["transport.solve_n_max"] = solves.get("n_max", 0)
        rows.append(row)
    metrics = {m: statistics.median(row[m] for row in rows) for m in PER_LAYER if m in rows[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        map(rep_seconds, traced)
    ) / statistics.median(map(rep_seconds, untraced))
    return metrics


# ---------------------------------------------------------------------------
# driver


def run_workload(name, seed, seconds, trace, scale="full"):
    """Run one workload for `seconds`.

    `scale` is "full", or "smoke" for the tiny inputs of the self-tests.
    Returns the result object and, for untraced runs, the end-to-end
    metrics computed from raw (not reference-speed) times, for display.
    """
    if not (SRC / "partition_ot" / "cli.py").is_file():
        raise ProgramMissing(f"no partition_ot sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    workload = WORKLOADS[name]
    spec = workload[scale]
    source = sweep_reps(spec) if workload["kind"] == "sweep" else query_reps(spec, seed)
    WORK.mkdir(exist_ok=True)

    run_child([])  # compile bytecode before anything is timed
    setups = [run_child([])[0] for _ in range(SETUP_ONLY_CHILDREN if scale == "full" else 1)]
    reps, traced = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        rep = next(source)
        keep = rep["queries"] is not None
        setup, answer = run_child(rep["ops"], keep_output=keep)
        setups.append(setup)
        results = answer["ops"]
        for res in results:
            if res["stderr"]:
                print(f"{name}: op stderr: {res['stderr']}", file=sys.stderr)
        attempted += len(results)
        failed += check_rep(name, scale, seed, len(reps), rep, results, expected)
        reps.append({"results": results, "rss_kib": answer["rss_kib"],
                     "instances": len(results) if keep else expected[scale][name]["records"]})
        if trace:
            span_file = str(WORK / f"spans-{name}.bin")
            _, answer = run_child(rep["ops"], trace=True, keep_output=keep, spans=span_file)
            t_results = answer["ops"]
            attempted += len(t_results)
            failed += sum(
                1
                for u, t in zip(results, t_results)
                if (u["code"], u["sha256"]) != (t["code"], t["sha256"])
            )
            traced.append({"results": t_results, "trace": answer["trace"],
                           "instances": reps[-1]["instances"]})
    ok_ratio = (attempted - failed) / attempted
    if trace:
        metrics, units, raw = per_layer(traced, reps), PER_LAYER, {}
    else:
        metrics, units = end_to_end(setups, reps, ok_ratio), END_TO_END
        raw = end_to_end(setups, reps, ok_ratio, key="seconds")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    return result, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [
            (name, run_workload(name, args.seed, args.seconds, bool(args.trace)))
            for name in names
        ]
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, (result, raw) in results:
        print(f"# {name}: {result['attempted']} ops, {result['failed']} failed")
        for metric, m in result["metrics"].items():
            extra = f"  (raw {raw[metric]:.6g})" if metric in raw else ""
            print(f"#   {metric:<30} {m['value']:>14.6g} {m['unit']}{extra}")
    for name, (result, _) in results:
        if len(results) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

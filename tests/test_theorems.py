import hashlib
import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_ot import (
    ASSIGNMENT_MAX_N,
    SQUARED_EUCLIDEAN,
    SWEEP_MAX_M,
    InstanceTooLargeError,
    NonIntegerCostsError,
    Permutation,
    SizeMismatchError,
    all_permutations,
    check_certificate,
    cost_matrix,
    count_partitions,
    enumerate_partitions,
    format_summary,
    from_json,
    hybrid_plan,
    involutions,
    measure_of,
    optimal_total,
    plan_cost,
    solve_assignment,
    symmetrize,
    validate_array,
    verify_theorem_cor,
    verify_theorem_main,
)
from partition_ot import theorems, transport

from group_reference import compose, inverse
from uncached_sweep import uncached_sweep

SWAP = Permutation.from_one_line("2 1")
THREE_CYCLES = [s for s in all_permutations(3) if not s.is_involution()]


@st.composite
def instances(draw, max_m=3, max_n=6):
    """A partition p of dimension m <= max_m and two axis permutations."""
    m = draw(st.integers(1, max_m))
    p = draw(st.sampled_from(enumerate_partitions(m, draw(st.integers(1, max_n)))))
    group = all_permutations(m + 1)
    return m, p, draw(st.sampled_from(group)), draw(st.sampled_from(group))


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


@settings(max_examples=200, deadline=None)
@given(instances(), st.sampled_from(["sq", "l1"]))
def test_hybrid_result_invariants(instance, kind):
    _, p, sigma, _ = instance
    res = hybrid_plan(p, sigma, kind)
    if res.valid:
        assert res.cost >= res.optimal_cost
        assert res.matches_optimum == (res.cost == res.optimal_cost)
        assert sorted(res.matching) == list(range(p.n))
    else:
        assert res.cost is None and res.matching is None
        assert not res.matches_optimum


@pytest.mark.parametrize("kind", ["sq", "l1"])
def test_sweep_records_keep_the_hybrid_invariants(kind):
    for rec in verify_theorem_main(2, 5, all_permutations(3), kind=kind).records:
        optimal = Fraction(*rec["optimal_cost"])
        if rec["hybrid_valid"]:
            cost = Fraction(*rec["hybrid_cost"])
            assert cost >= optimal
            assert rec["matches_optimum"] == (cost == optimal)
        else:
            assert rec["hybrid_cost"] is None and not rec["matches_optimum"]


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


@pytest.mark.parametrize("kind", ["sq", "l1"])
def test_cor_claims_are_symmetric_under_sigma_inverse(kind):
    # sigma^-1 is an isometry, so W(p, sigma p) = W(sigma^-1 p, p), and p is
    # fixed by sigma exactly when it is fixed by sigma^-1.  "euclid" is left
    # out: its float totals need not agree in the last bit.
    claims = ("w", "w_zero", "self_symmetric", "violation")
    checked = 0
    for m, n_max in ((2, 6), (3, 5)):
        report = verify_theorem_cor(m, n_max, all_permutations(m + 1), kind=kind)
        fields = {
            (json.dumps(rec["partition"]), tuple(rec["sigma"])): [rec[f] for f in claims]
            for rec in report.records
        }
        for (partition, sigma), claim in fields.items():
            inv = inverse(Permutation(sigma)).images
            assert fields[partition, inv] == claim, (partition, sigma)
            checked += 1
    assert checked == 2970


def test_cor_sweep_identity_only():
    report = verify_theorem_cor(2, 4, [Permutation.identity(3)])
    assert report.violations == 0
    assert all(rec["self_symmetric"] for rec in report.records)
    assert all(rec["w"] == [0, 1] for rec in report.records)


# ---------------------------------------------------------------------------
# one solve per symmetry orbit
#
# Relabelling the axes by tau maps the instance (p, sigma) to
# (tau p, tau sigma tau^-1) and keeps every claim field, so the sweep runs
# the claim once per orbit.


def _conjugate(tau, sigma):
    return compose(compose(tau, sigma), inverse(tau))


def _orbit(group, src, sigma):
    """The orbit of the instance (src, sigma) under relabelling the axes."""
    return frozenset(
        (tuple(sorted(map(tau.apply_to_cell, src))), _conjugate(tau, sigma).images)
        for tau in group
    )


def _orbits(m, n_max, sigmas):
    """Orbits met by a sweep's instances, by brute force over S_{m+1}.

    Maps each orbit to (n, k, twin): its partitions' total, the number of
    cells that sigma moves, the same on every instance of the orbit, and
    the orbit of (p, sigma^-1) for any of its instances (p, sigma).
    """
    group = all_permutations(m + 1)
    orbits = {}
    for n in range(1, n_max + 1):
        for p in enumerate_partitions(m, n):
            src = measure_of(p)
            for sigma in sigmas:
                moved = set(src) - {sigma.apply_to_cell(cell) for cell in src}
                twin = _orbit(group, src, inverse(sigma))
                orbits[_orbit(group, src, sigma)] = (n, len(moved), twin)
    return orbits


@settings(max_examples=300, deadline=None)
@given(instances(), st.booleans())
def test_orbit_key_is_invariant_under_relabelling_axes(instance, twins):
    m, p, sigma, tau = instance
    # with twins, the images of the twin (p, sigma^-1) share the key too
    trio = [sigma, _conjugate(tau, sigma), _conjugate(tau, inverse(sigma))]
    src, image = measure_of(p), measure_of(symmetrize(p, tau))
    keys = theorems._orbit_keys(m, trio, twins)  # tau may fix p: image == src
    src_row, image_row = keys([src, image])
    assert src_row[0] == image_row[1]
    assert src_row[0] == image_row[2] or not twins
    image_row, src_row = keys([image, src])  # meet the image first
    assert image_row[1] == src_row[0]
    assert image_row[2] == src_row[0] or not twins


@settings(max_examples=300, deadline=None)
@given(instances(), st.data())
def test_orbit_keys_differ_across_orbits(instance, data):
    m, p, sigma, tau = instance
    group = all_permutations(m + 1)
    twins = data.draw(st.booleans())
    # a second instance of the same n: often in the same orbit or its
    # twin's, often not
    q = symmetrize(p, tau) if data.draw(st.booleans()) else data.draw(
        st.sampled_from(enumerate_partitions(m, p.n))
    )
    rho = data.draw(st.sampled_from([
        _conjugate(tau, sigma),
        _conjugate(tau, inverse(sigma)),
        data.draw(st.sampled_from(group)),
    ]))
    # some tau carries (p, sigma) to (q, rho), or with twins to (q, rho^-1)
    targets = {rho, inverse(rho)} if twins else {rho}
    same_orbit = any(
        measure_of(symmetrize(p, t)) == measure_of(q) and _conjugate(t, sigma) in targets
        for t in group
    )
    keys = theorems._orbit_keys(m, [sigma, rho], twins)
    p_row, q_row = keys([measure_of(p), measure_of(q)])
    assert (p_row[0] == q_row[1]) == same_orbit


@pytest.mark.parametrize("twins", [False, True])
@pytest.mark.parametrize("m, n", [(2, 4), (3, 4)])
def test_orbit_keys_keep_the_key_law_on_whole_layers(m, n, twins):
    # every instance of the layer over all sigma: one key per orbit, or
    # with twins per union of an orbit and its twin's, and none shared
    group = all_permutations(m + 1)
    layer = [measure_of(p) for p in enumerate_partitions(m, n)]
    class_of, key_of = {}, {}
    for src, row in zip(layer, theorems._orbit_keys(m, group, twins)(layer)):
        for sigma, key in zip(group, row):
            orbit = _orbit(group, src, sigma)
            if twins:
                orbit |= _orbit(group, src, inverse(sigma))
            assert class_of.setdefault(key, orbit) == orbit
            assert key_of.setdefault(orbit, key) == key


def test_the_orbit_table_holds_small_ints():
    # about 9 bytes per (tau, sigma) entry, with twin-closed numbers too;
    # one tuple per entry, as before the int table, peaked at 50 MB here
    sigmas = all_permutations(6)
    for twins in (False, True):
        tracemalloc.start()
        try:
            theorems._orbit_keys(5, sigmas, twins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def test_a_sweep_writes_once_per_partition():
    calls = []
    sigmas = all_permutations(3)
    report = theorems._sweep("cor", 2, 5, sigmas, "l1", None, calls.append)
    partitions = [p for n in range(1, 6) for p in enumerate_partitions(2, n)]
    assert len(calls) == len(partitions) + 1  # the summary comes last
    for p, text in zip(partitions, calls):
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == len(sigmas)
        assert {tuple(map(tuple, r["partition"])) for r in records} == {p.entries}
    unwritten = theorems._sweep("cor", 2, 5, sigmas, "l1", None)
    assert "".join(calls) == unwritten.to_jsonl()
    assert len(unwritten.lines) == len(partitions) * len(sigmas)
    assert report.summary == unwritten.summary and report.lines == ()


@pytest.mark.parametrize(
    "theorem, sigmas",
    [("cor", all_permutations(3)), ("main", involutions(3))],
    ids=["cor-all", "main-involutions"],
)
def test_a_sweep_solves_a_layer_before_writing_it(monkeypatch, theorem, sigmas):
    # each n runs in three passes: key its instances, solve one per orbit,
    # then write its lines; so no line of n is written before its last solve
    events = []
    record, counts = theorems._CLAIMS[theorem]

    def recording(p, *args):
        events.append(("solve", p.n))
        return record(p, *args)

    def write(text):
        events.append(("write", json.loads(text.split("\n")[0]).get("n")))

    monkeypatch.setitem(theorems._CLAIMS, theorem, (recording, counts))
    theorems._sweep(theorem, 2, 5, sigmas, "sq", None, write)
    assert events[-1] == ("write", None)  # the summary, which has no n
    for n in range(1, 6):
        solves = [i for i, event in enumerate(events) if event == ("solve", n)]
        assert solves and solves[-1] < events.index(("write", n))


@pytest.mark.parametrize(
    "sweep, m, n_max, sigmas, kind",
    [
        (verify_theorem_main, 2, 5, involutions(3), "sq"),
        (verify_theorem_cor, 3, 4, all_permutations(4), "l1"),
        (verify_theorem_cor, 2, 4, all_permutations(3), "euclid"),
        (verify_theorem_cor, 2, 5, all_permutations(3), "sq"),
    ],
)
def test_every_sweep_solve_is_certified(monkeypatch, sweep, m, n_max, sigmas, kind):
    # One record per orbit, and a cor orbit under an exact kind none when
    # its sigma^-1 twin has one: (p, sigma) and (p, sigma^-1) have equal
    # fields.  An orbit whose image is its diagram has optimum 0 and no
    # solve.  "l1" solves the k x k problem on the k moved cells, the other
    # kinds the full n x n problem, each once per distinct matrix of a layer.
    # Every solve, value-only or lex-smallest, runs the certified core, so
    # it is recorded there, under the n of the record that made it.
    theorem = "cor" if sweep is verify_theorem_cor else "main"
    record, counts = theorems._CLAIMS[theorem]
    recorded, solved = [], []

    def recording_record(p, sigma, *args):
        recorded.append((p, sigma))
        return record(p, sigma, *args)

    def recording_solve(c):
        costs, res = solve(c)
        solved.append((recorded[-1][0].n, c, res))
        return costs, res

    solve = transport._certified_solve
    monkeypatch.setattr(transport, "_certified_solve", recording_solve)
    monkeypatch.setitem(theorems._CLAIMS, theorem, (recording_record, counts))
    report = sweep(m, n_max, sigmas, kind=kind)
    assert all(check_certificate(c, res) for _, c, res in solved)

    orbits = _orbits(m, n_max, sigmas)
    group = all_permutations(m + 1)
    made = [_orbit(group, measure_of(p), sigma) for p, sigma in recorded]
    assert len(set(made)) == len(made) < report.summary["records"]
    twins = [(o, orbits[o][2]) for o in orbits if orbits[o][2] != o]
    assert twins or theorem == "main"
    if theorem == "cor" and kind != "euclid":
        assert all(o in made or twin in made for o, twin in twins)
        assert not any(o in made and twin in made for o, twin in twins)
    else:
        assert set(made) == orbits.keys()  # an orbit and its twin alike
    moved = [orbits[o][:2] for o in made if orbits[o][1]]
    # no layer solves one matrix twice
    layer_matrices = [(n, c.values) for n, c, _ in solved]
    assert len(set(layer_matrices)) == len(layer_matrices)
    sizes = {(n, k if kind == "l1" else n) for n, k in moved}
    assert {(n, c.rows) for n, c, _ in solved} == sizes
    # a cor layer repeats matrices under every kind; main's here are distinct
    assert len(solved) < len(moved) or theorem == "main"
    if kind == "l1":
        assert any(k < n for n, k in moved)


@pytest.mark.parametrize(
    "kind, solves, digest",
    [
        ("l1", 185, "d94fa106f2de7eeb59117b6a202b9ed2cf0adec63a6bd7d708a09f1cf71f7ddf"),
        ("sq", 285, "b8eb8eb968ee7f24633f0d19b8113b617ef5a2cadf863c2ce129cf7ecc7cbf83"),
    ],
    ids=["l1", "sq"],
)
def test_the_cor_solid_sweep_records_each_twin_class_and_solves_each_matrix_once(
    monkeypatch, kind, solves, digest
):
    # the benchmark's sweep_cor_solid input, and its "sq" twin: its 13128
    # instances lie in 673 orbits, 539 of them moved, which took one record
    # call and one solve each; 579 are left once twins merge, and their
    # matrices take 185 ("l1", moved cells) or 285 ("sq", full diagrams)
    # distinct values within their layers
    record, counts = theorems._CLAIMS["cor"]
    calls = []

    def recording_record(*args):
        calls.append("record")
        return record(*args)

    def recording_solve(c):
        calls.append("solve")
        return solve(c)

    solve = transport._certified_solve
    monkeypatch.setattr(transport, "_certified_solve", recording_solve)
    monkeypatch.setitem(theorems._CLAIMS, "cor", (recording_record, counts))
    text = verify_theorem_cor(3, 7, all_permutations(4), kind=kind).to_jsonl()
    assert (calls.count("record"), calls.count("solve")) == (579, solves)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _full_solve_fields(theorem, p, sigma, kind):
    """A record's claim fields from the full n x n cost matrix and solve."""
    src = measure_of(p)
    dst = tuple(sorted(sigma.apply_to_cell(cell) for cell in src))
    c = cost_matrix(src, dst, kind)
    optimal = plan_cost(solve_assignment(c).matching, c)
    if theorem == "cor":
        return {"w": [optimal.numerator, optimal.denominator], "w_zero": optimal == 0}
    targets = [cell if cell in dst else sigma.apply_to_cell(cell) for cell in src]
    valid = len(set(targets)) == len(src)
    cost = plan_cost(tuple(map(dst.index, targets)), c) if valid else None
    return {
        "hybrid_valid": valid,
        "hybrid_cost": None if cost is None else [cost.numerator, cost.denominator],
        "optimal_cost": [optimal.numerator, optimal.denominator],
        "matches_optimum": cost == optimal,
    }


@pytest.mark.parametrize(
    "theorem, m, n_max",
    [("cor", 1, 12), ("cor", 2, 8), ("cor", 3, 6), ("main", 1, 12), ("main", 2, 8),
     ("main", 3, 6)],
)
def test_l1_sweep_records_match_a_full_solve_reference(theorem, m, n_max):
    sweep = verify_theorem_main if theorem == "main" else verify_theorem_cor
    sigmas = all_permutations(m + 1)
    records = iter(sweep(m, n_max, sigmas, kind="l1").records)
    for n in range(1, n_max + 1):
        for p in enumerate_partitions(m, n):
            for sigma in sigmas:
                expected = _full_solve_fields(theorem, p, sigma, "l1")
                record = next(records)
                assert {key: record[key] for key in expected} == expected


NOT_CLOSED = [Permutation.from_one_line("2 1 3"), Permutation.from_one_line("3 1 2")]
REPEATED = [Permutation.from_one_line(s) for s in ("2 3 1", "1 2 3", "1 3 2", "1 3 2")]


# The main sweeps over all sigma hold 3-cycles, whose invalid candidates
# serialize a null hybrid_cost; the euclid sweeps serialize float costs.
# The m = 3 cor sweeps pair each sigma with its inverse: the exact kinds
# write one outcome per twin class, and l1 solves each distinct moved-cell
# matrix of a layer once, where the reference solves every instance.
@pytest.mark.parametrize(
    "theorem, m, n_max, sigmas, kind",
    [
        ("main", 2, 7, all_permutations(3), "sq"),
        ("cor", 1, 12, all_permutations(2), "euclid"),
        ("main", 2, 8, NOT_CLOSED, "sq"),
        ("cor", 2, 6, REPEATED[:3], "euclid"),  # the gate refuses the repeat
        ("cor", 3, 5, all_permutations(4), "sq"),
        ("cor", 3, 5, all_permutations(4), "l1"),
        ("cor", 3, 5, all_permutations(4), "euclid"),
    ],
    ids=["main-m2-all-sq", "cor-m1-euclid", "main-m2-not-closed-sq",
         "cor-m2-repeated-sigma-euclid", "cor-m3-all-sq", "cor-m3-all-l1",
         "cor-m3-all-euclid"],
)
def test_orbit_cache_matches_the_uncached_sweep(theorem, m, n_max, sigmas, kind):
    sweep = verify_theorem_main if theorem == "main" else verify_theorem_cor
    report = sweep(m, n_max, sigmas, kind=kind)
    reference = uncached_sweep(theorem, m, n_max, sigmas, kind)
    assert report.to_jsonl() == reference.to_jsonl()
    assert format_summary(report) == reference.table()


def test_report_records_match_the_uncached_sweep():
    report = verify_theorem_main(2, 5, all_permutations(3), kind="l1")
    reference = uncached_sweep("main", 2, 5, all_permutations(3), "l1")
    assert report.records == reference.records
    assert any(r["hybrid_cost"] is None for r in report.records)
    report = verify_theorem_cor(2, 4, all_permutations(3), kind="euclid")
    reference = uncached_sweep("cor", 2, 4, all_permutations(3), "euclid")
    assert report.records == reference.records
    assert any(isinstance(r["w"], float) and r["w"] > 0 for r in report.records)


def test_orbits_share_a_line_template_only_when_fields_print_alike(monkeypatch):
    # orbit-invariant fields whose values compare equal but print apart
    def record(p, sigma, kind, total=None):
        src = measure_of(p)
        n = len(src)
        self_conjugate = sorted(c[::-1] for c in src) == list(src)
        x = {1: True, 2: 1, 3: 0.0 if self_conjugate else -0.0}.get(n)
        if n == 4:
            x = [1, 2] if self_conjugate else [1, 2.0]
        return {"violation": False, "x": x}

    monkeypatch.setitem(theorems._CLAIMS, "t", (record, lambda weighted: {}))
    report = theorems._sweep("t", 1, 4, [Permutation.identity(2)], "sq", None)
    assert len(report.lines) == 1 + 2 + 3 + 5
    for line in report.lines:
        rec = json.loads(line)
        assert line == theorems._dumps(rec)
        p = from_json({"m": 1, "entries": rec["partition"]})
        assert json.dumps(rec["x"]) == json.dumps(record(p, None, "sq")["x"])


def test_a_main_sweep_builds_each_partition_s_cells_once(monkeypatch):
    from partition_ot import partitions

    built = []

    def counting(real):
        def build(m, entries):
            built.append(entries)
            return real(m, entries)

        return build

    # enumeration's builder and the one for a partition built any other way
    for name in ("_stacked_cells", "_sorted_cells"):
        monkeypatch.setattr(partitions, name, counting(getattr(partitions, name)))
    report = verify_theorem_main(2, 6, involutions(3))
    # 1 + 3 + 6 + 13 + 24 + 48 plane partitions of n <= 6
    assert len(built) == len(set(built)) == 95
    assert report.summary["records"] == 95 * len(involutions(3))


def test_the_main_sweep_and_hybrid_plan_run_one_integer_core(monkeypatch):
    expected = verify_theorem_main(2, 5, involutions(3)).to_jsonl()
    calls = []
    real = theorems._hybrid_totals

    def counting(p, sigma, kind, total):
        calls.append((p.entries, sigma.images))
        return real(p, sigma, kind, total)

    def refuse(*args):
        raise AssertionError("the main sweep built a Fraction")

    monkeypatch.setattr(theorems, "_hybrid_totals", counting)
    p = validate_array([4, 2], 1)
    res = hybrid_plan(p, SWAP)
    assert res == (True, Fraction(13, 3), Fraction(7, 3), False, (0, 1, 4, 5, 2, 3))
    assert calls == [(p.entries, SWAP.images)]
    calls.clear()
    monkeypatch.setattr(theorems, "hybrid_plan", refuse)
    monkeypatch.setattr(theorems, "distance_of_total", refuse)
    assert verify_theorem_main(2, 5, involutions(3)).to_jsonl() == expected
    assert calls and len(set(calls)) == len(calls)


def test_hybrid_plan_agrees_with_every_main_record():
    # main --m 2 --n-max 6 --sigma all --cost sq, a record at a time
    report = verify_theorem_main(2, 6, all_permutations(3), kind="sq")
    assert report.summary["records"] == 95 * 6
    for rec in report.records:
        p = validate_array(rec["partition"], 2)
        res = hybrid_plan(p, Permutation(rec["sigma"]), "sq")
        cost = None if res.cost is None else [res.cost.numerator, res.cost.denominator]
        optimal = [res.optimal_cost.numerator, res.optimal_cost.denominator]
        assert (rec["hybrid_valid"], rec["hybrid_cost"]) == (res.valid, cost)
        assert rec["optimal_cost"] == optimal
        assert rec["matches_optimum"] == res.matches_optimum


def test_size_mismatch_is_raised_before_any_solve(monkeypatch):
    def refuse(c):
        raise AssertionError("solved before the size check")

    monkeypatch.setattr(transport, "_certified_solve", refuse)
    sigmas = [Permutation.identity(3), SWAP]
    with pytest.raises(SizeMismatchError, match="permutation of size 2 cannot act on 3"):
        verify_theorem_cor(2, 3, sigmas)


def test_a_euclid_main_sweep_is_refused_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the cost kind check")

    monkeypatch.setattr(theorems, "enumerate_partitions", refuse)
    with pytest.raises(NonIntegerCostsError, match="needs an exact cost kind"):
        verify_theorem_main(1, 3, involutions(2), kind="euclid")


@pytest.mark.parametrize("kind", ["sq", "l1", "euclid"])
def test_a_layer_cost_table_gives_the_built_matrices(kind):
    # every (cells, sigma-image) pair of one layer, the l1 moved
    # sub-tuples and a 1 x 1 pair; floats are compared with ==.  The
    # table's totals, which a sweep takes in place of `optimal_total`,
    # follow the same rule from the cut matrices and the memo
    parts = enumerate_partitions(2, 6)
    table = transport._CostTable(sorted({x for p in parts for x in p.cells}), kind)
    pairs = []
    for p in parts:
        src = measure_of(p)
        for sigma in all_permutations(3):
            dst = tuple(sorted(map(sigma.apply_to_cell, src)))
            pairs.append((src, dst))
            moved = tuple(x for x in src if x not in dst)
            if moved:
                pairs.append((moved, tuple(y for y in dst if y not in src)))
    pairs.append((((0, 0, 0),), ((2, 1, 0),)))
    assert sum(len(src) == 1 for src, _ in pairs) > 1
    for src, dst in pairs:
        assert table(src, dst) == cost_matrix(src, dst, kind)
        assert table.total(src, dst) == optimal_total(src, dst, kind)
    assert 0 < len(table.totals) < len(pairs)


def test_a_main_sweep_builds_one_cost_matrix_per_n(monkeypatch):
    built = []
    real = transport.cost_matrix

    def counting(src, dst, kind=SQUARED_EUCLIDEAN):
        built.append((len(src), len(dst)))
        return real(src, dst, kind)

    monkeypatch.setattr(transport, "cost_matrix", counting)
    text = verify_theorem_main(2, 6, involutions(3)).to_jsonl()
    # one table per n over the cells of its plane partitions, not one
    # matrix per moved orbit
    assert built == [(k, k) for k in (1, 4, 7, 13, 16, 25)]
    # the pinned main-m2-n6-involutions-sq report
    digest = "6d2fe07643ef04a3a97eb23437c17eeda0e7a5fa3845322c778d2e774a0fd6fe"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_sweep_guard():
    m = SWEEP_MAX_M + 1
    with pytest.raises(InstanceTooLargeError, match="m=8 exceeds the sweep guard 7"):
        verify_theorem_main(m, 1, [Permutation.identity(m + 1)])


def test_the_orbit_table_guard_refuses_before_any_entry(monkeypatch):
    from partition_ot import partitions

    sigmas = all_permutations(8)

    def refuse(*args):
        raise AssertionError("built an orbit table entry")

    monkeypatch.setattr(partitions, "_cell_action", refuse)
    monkeypatch.setattr(theorems, "_cell_action", refuse)
    message = "m=7 with 40320 sigmas needs 1625702400 orbit conjugates"
    start = time.perf_counter()
    with pytest.raises(InstanceTooLargeError, match=message):
        theorems._check_sweep("cor", 7, 1, sigmas, "sq", None)
    with pytest.raises(InstanceTooLargeError, match=message):
        verify_theorem_main(7, 1, sigmas)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "sweep", [verify_theorem_main, verify_theorem_cor], ids=["main", "cor"]
)
def test_a_sigma_listed_twice_is_refused_before_anything_is_built(monkeypatch, sweep):
    # the per-sigma tallies are keyed by images: a repeated sigma once
    # printed two rows of one merged tally, which summed past the total
    from partition_ot import partitions

    size_first = [Permutation.identity(3)] * 2 + [SWAP]

    def refuse(*args, **kwargs):
        raise AssertionError("built an orbit table entry or a partition")

    monkeypatch.setattr(partitions, "_cell_action", refuse)
    monkeypatch.setattr(theorems, "_cell_action", refuse)
    monkeypatch.setattr(theorems, "enumerate_partitions", refuse)
    with pytest.raises(ValueError, match="^sigma 1 3 2 is listed twice$"):
        sweep(2, 3, REPEATED)
    with pytest.raises(ValueError, match="^sigma 1 2 3 is listed twice$"):
        theorems._check_sweep("cor", 2, 3, REPEATED[1:2] * 2, "sq", None)
    # after the size checks
    with pytest.raises(SizeMismatchError, match="permutation of size 2 cannot act on 3"):
        sweep(2, 3, size_first)


def test_the_orbit_table_guard_admits_the_m7_involution_sweeps():
    sigmas = involutions(8)
    assert len(sigmas) * 40320 <= theorems.SWEEP_MAX_CONJUGATES
    theorems._check_sweep("cor", 7, 1, sigmas, "sq", None)  # checked, not built


@pytest.mark.parametrize(
    "sweep", [verify_theorem_main, verify_theorem_cor], ids=["main", "cor"]
)
def test_the_gate_refuses_a_kind_and_an_n_max_that_no_solve_takes(monkeypatch, sweep):
    # a sweep solves through its layer's table, which checks neither per
    # instance; the gate refuses both before the orbit table or any layer
    from partition_ot import partitions

    sigmas = involutions(3)

    def refuse(*args, **kwargs):
        raise AssertionError("built an orbit table entry or a partition")

    monkeypatch.setattr(partitions, "_cell_action", refuse)
    monkeypatch.setattr(theorems, "_cell_action", refuse)
    monkeypatch.setattr(theorems, "enumerate_partitions", refuse)
    message = r"^unknown cost kind 'l2'; expected one of \('sq', 'euclid', 'l1'\)$"
    # the kind comes first, before the type of m or the value of n_max
    for m, n_max in ((2, 3), (2.0, 0)):
        with pytest.raises(ValueError, match=message):
            sweep(m, n_max, sigmas, kind="l2")
    n = ASSIGNMENT_MAX_N + 1
    message = f"^n={n} exceeds the assignment guard {ASSIGNMENT_MAX_N}$"
    with pytest.raises(InstanceTooLargeError, match=message):
        sweep(1, n, [SWAP], max_cells=n)


def test_sweep_checks_the_enumeration_guard_at_n_max_first(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated or solved before the guard")

    monkeypatch.setattr(theorems, "enumerate_partitions", refuse)
    monkeypatch.setattr(transport, "_certified_solve", refuse)
    for sweep in (verify_theorem_main, verify_theorem_cor):
        with pytest.raises(InstanceTooLargeError, match="n=13 exceeds the enumeration"):
            sweep(2, 13, involutions(3))
        # no n to sweep is refused, as enumerate_partitions refuses n < 1
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            sweep(2, 0, involutions(3))


@pytest.mark.parametrize("m, size", [(2, 2), (8, 9)], ids=["m2-size2", "m8-size9"])
def test_a_sweep_of_no_n_is_refused_before_its_orbit_table(monkeypatch, m, size):
    # a sigma of the wrong size, or m past the sweep guard: n_max < 1 is
    # refused first, and no relabelling is listed
    def refuse(*args):
        raise AssertionError("built an orbit table entry")

    monkeypatch.setattr(theorems, "_cell_action", refuse)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
        verify_theorem_cor(m, 0, [Permutation.identity(size)])
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "m, n_max, max_cells, message",
    [(2, True, None, "n_max must be an integer, got True"),
     (2, 2.5, None, "n_max must be an integer, got 2.5"),
     (2.0, 2, None, "m must be an integer, got 2.0"),
     (2, 2, True, "max_cells must be an integer, got True"),
     (2, 2, 2.5, "max_cells must be an integer, got 2.5"),
     (2, 2, "3", "max_cells must be an integer, got '3'")],
    ids=["bool-n-max", "float-n-max", "float-m",
         "bool-max-cells", "float-max-cells", "str-max-cells"],
)
def test_a_sweep_of_a_non_int_size_is_refused_before_anything_is_built(
    monkeypatch, m, n_max, max_cells, message
):
    # a bool n_max once ran as n_max = 1 and wrote "n_max":true, a float
    # passed the gate to fail in range or math.factorial, and a max_cells
    # of 2.5 ran as a bound
    def refuse(*args, **kwargs):
        raise AssertionError("built before the gate")

    monkeypatch.setattr(theorems, "_cell_action", refuse)
    monkeypatch.setattr(theorems, "enumerate_partitions", refuse)
    for sweep in (verify_theorem_main, verify_theorem_cor):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(m, n_max, involutions(3), max_cells=max_cells)


def test_a_sweep_takes_permutations_built_from_lists():
    sigma = Permutation([2, 1])
    assert verify_theorem_cor(1, 3, [sigma]).to_jsonl() == (
        verify_theorem_cor(1, 3, [SWAP]).to_jsonl()
    )


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

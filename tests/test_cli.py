import hashlib
import json
import time

import pytest

from partition_ot import ASSIGNMENT_MAX_N, cli, partitions


def write_partition(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def p42(tmp_path):
    return write_partition(tmp_path, "p42.json", {"m": 1, "entries": [4, 2]})


@pytest.fixture
def p2211(tmp_path):
    return write_partition(tmp_path, "p2211.json", {"m": 1, "entries": [2, 2, 1, 1]})


@pytest.fixture
def plane(tmp_path):
    return write_partition(tmp_path, "plane.json", {"m": 2, "entries": [[3, 2], [1]]})


@pytest.fixture
def plane_sym(tmp_path):
    return write_partition(tmp_path, "plane_sym.json", {"m": 2, "entries": [[3, 1], [2]]})


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_count(capsys):
    assert cli.main(["enumerate", "--m", "1", "--n", "4", "--count"]) == 0
    assert capsys.readouterr().out == "5\n"


def test_enumerate_listing(capsys):
    assert cli.main(["enumerate", "--m", "1", "--n", "1"]) == 0
    assert capsys.readouterr().out == '{"m":1,"entries":[1]}\n'


def test_enumerate_plane_count(capsys):
    assert cli.main(["enumerate", "--m", "2", "--n", "4", "--count"]) == 0
    assert capsys.readouterr().out == "13\n"


def test_enumerate_guard_exit_code(capsys):
    assert cli.main(["enumerate", "--m", "1", "--n", "40"]) == 2
    err = capsys.readouterr().err
    assert "--max-cells" in err
    assert err == (
        "error: n=40 exceeds the enumeration guard 12 for m=1; "
        "raise the max-cells limit to override (see --max-cells)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--m", "2000", "--n", "1"],
        ["verify", "--theorem", "cor", "--m", "700", "--n-max", "1", "--sigma",
         "identity"],
    ],
    ids=["enumerate", "verify"],
)
def test_dimension_guards_exit_2(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    m = argv[argv.index("--m") + 1]
    assert captured.err.startswith(f"error: m={m} exceeds the ")
    assert captured.err.count("\n") == 1


def test_enumerate_at_the_dimension_guard(capsys):
    assert cli.main(["enumerate", "--m", "400", "--n", "1"]) == 0
    entries = "[" * 400 + "1" + "]" * 400
    assert capsys.readouterr().out == '{"m":400,"entries":' + entries + "}\n"


def test_enumerate_guard_override(capsys):
    assert cli.main(
        ["enumerate", "--m", "1", "--n", "13", "--count", "--max-cells", "13"]
    ) == 0
    assert capsys.readouterr().out == "101\n"


@pytest.mark.parametrize("m, n, cap", [(400, 3, 2), (30, 5, 3)])
def test_enumerate_refuses_large_m_before_enumerating(capsys, m, n, cap):
    # both pass the dimension guard and the cap of 8; unguarded, m = 400
    # ran for minutes and m = 30 for seconds
    start = time.perf_counter()
    assert cli.main(["enumerate", "--m", str(m), "--n", str(n), "--count"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: n={n} exceeds the enumeration guard {cap} for m={m}; "
        "raise the max-cells limit to override (see --max-cells)\n"
    )


def test_max_cells_overrides_the_work_guard(capsys, monkeypatch):
    monkeypatch.setattr(partitions, "MAX_ENUMERATION_WORK", 100)
    assert cli.main(["enumerate", "--m", "3", "--n", "4", "--count"]) == 2
    argv = ["enumerate", "--m", "3", "--n", "4", "--count", "--max-cells", "4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "26\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--m", "1", "--n", "5", "--count", "--cost", "l1"],
        ["enumerate", "--m", "1", "--n", "5", "--count", "--seed", "3"],
        ["symmetrize", "p.json", "--sigma", "2 1", "--cost", "l1"],
        ["render", "p.json", "--seed", "3"],
        ["wasserstein", "a.json", "b.json", "--seed", "3"],
        ["wasserstein", "a.json", "b.json", "--certify", "--oracle-max", "10"],
        ["verify", "--theorem", "solver"],
        ["verify", "--theorem", "cor", "--m", "1", "--n-max", "2", "--seed", "3"],
    ],
)
def test_options_exist_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_enumerate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert cli.main(["enumerate", "--m", "2", "--n", "5", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# symmetrize


def test_symmetrize_swap(capsys, p42):
    assert cli.main(["symmetrize", p42, "--sigma", "2 1"]) == 0
    assert capsys.readouterr().out == '{"m":1,"entries":[2,2,1,1]}\n'


def test_symmetrize_identity(capsys, p42):
    assert cli.main(["symmetrize", p42, "--sigma", "1 2"]) == 0
    assert capsys.readouterr().out == '{"m":1,"entries":[4,2]}\n'


def test_symmetrize_plane(capsys, plane):
    assert cli.main(["symmetrize", plane, "--sigma", "1 3 2"]) == 0
    assert capsys.readouterr().out == '{"m":2,"entries":[[3,1],[2]]}\n'


def test_check_self(capsys, tmp_path, p42):
    fixed = write_partition(tmp_path, "p21.json", {"m": 1, "entries": [2, 1]})
    assert cli.main(["symmetrize", fixed, "--sigma", "2 1", "--check-self"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert cli.main(["symmetrize", p42, "--sigma", "2 1", "--check-self"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_symmetrize_bad_sigma(capsys, p42):
    assert cli.main(["symmetrize", p42, "--sigma", "2 2"]) == 2
    assert cli.main(["symmetrize", p42, "--sigma", "1 2 3"]) == 2  # size mismatch


@pytest.mark.parametrize("doc, key", [({"m": 1}, "entries"), ({"entries": [1]}, "m")])
def test_partition_json_missing_a_key_exits_2(capsys, tmp_path, doc, key):
    path = write_partition(tmp_path, "partial.json", doc)
    assert cli.main(["symmetrize", path, "--sigma", "2 1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: partition JSON has no '{key}' key\n"


def test_symmetrize_rejects_non_object_document(capsys, tmp_path):
    path = write_partition(tmp_path, "array.json", [1, 2])
    assert cli.main(["symmetrize", path, "--sigma", "2 1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "object" in err


@pytest.mark.parametrize("m", [1.7, True, "1"])
def test_symmetrize_rejects_non_integer_dimension(capsys, tmp_path, m):
    path = write_partition(tmp_path, "bad_m.json", {"m": m, "entries": [2, 1]})
    assert cli.main(["symmetrize", path, "--sigma", "2 1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "dimension m must be an integer" in captured.err


@pytest.mark.parametrize(
    "text",
    [
        "[" * 3000 + "]" * 3000,
        '{"m": 900, "entries": ' + "[" * 900 + "1" + "]" * 900 + "}",
    ],
    ids=["deep-array", "valid-m900"],
)
def test_deeply_nested_json_exits_2(capsys, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["wasserstein", str(path), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: partition JSON is nested too deeply\n"


# ---------------------------------------------------------------------------
# wasserstein


# sha256 of the full stdout of `wasserstein <a> <b> <flags>`; each exits 0.
WASSERSTEIN_PINS = [
    ("p42", "p2211", "--certify --plan",
     "9f51e31a913d35b53f70d58d067e701da84efd2c9f6ee78b7bbeef9449ec236c"),
    ("p42", "p2211", "--certify --plan --cost l1",
     "e367432be6b3982a88f08a690bb880e28916ddd1692160aa6ecd8c4ec9be3a2c"),
    ("p42", "p2211", "--certify --cost euclid",
     "53602f70ee14598694a706d61cd09faf6082361f4cb227740770fdd50977100d"),
    ("plane", "plane_sym", "--certify --plan",
     "f9277bdf9956347e00c2a0e54ce321af2435028183669d648bd375451e77eeca"),
]


@pytest.mark.parametrize(
    "a,b,flags,digest",
    WASSERSTEIN_PINS,
    ids=["-".join([a, b] + [f.lstrip("-") for f in flags.split()])
         for a, b, flags, _ in WASSERSTEIN_PINS],
)
def test_wasserstein_output_bytes(capsys, request, a, b, flags, digest):
    argv = ["wasserstein", request.getfixturevalue(a), request.getfixturevalue(b)]
    assert cli.main(argv + flags.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_wasserstein_value(capsys, p42, p2211):
    assert cli.main(["wasserstein", p42, p2211]) == 0
    out = capsys.readouterr().out
    assert out.split()[0] == "7/3"


@pytest.mark.parametrize(
    "a,b",
    [("p42", "p2211"), ("p2211", "p42"), ("plane", "plane_sym"), ("p4321", "p5221"),
     ("p42", "p42")],
)
def test_wasserstein_value_line_matches_the_lex_solve(capsys, request, a, b):
    # the bare value takes the value-only solve; --plan and --certify the
    # lex-smallest one, whose first line is the same value
    paths = [request.getfixturevalue(a), request.getfixturevalue(b)]
    for cost, flag in (("sq", "--plan"), ("l1", "--plan"), ("euclid", "--certify")):
        argv = ["wasserstein", *paths, "--cost", cost]
        assert cli.main(argv) == 0
        value = capsys.readouterr().out
        assert cli.main(argv + [flag]) == 0
        assert value == capsys.readouterr().out.splitlines(keepends=True)[0]


def test_wasserstein_self_is_zero(capsys, p42):
    assert cli.main(["wasserstein", p42, p42]) == 0
    assert capsys.readouterr().out.split()[0] == "0/1"


def test_wasserstein_certify(capsys, p42, p2211):
    assert cli.main(["wasserstein", p42, p2211, "--certify"]) == 0
    assert "certified" in capsys.readouterr().out


@pytest.fixture
def p4321(tmp_path):
    return write_partition(tmp_path, "p4321.json", {"m": 1, "entries": [4, 3, 2, 1]})


@pytest.fixture
def p5221(tmp_path):
    return write_partition(tmp_path, "p5221.json", {"m": 1, "entries": [5, 2, 2, 1]})


def test_wasserstein_certify_checks_the_dual_above_oracle_limit(capsys, p4321, p5221):
    assert cli.main(["wasserstein", p4321, p5221, "--certify"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "3/10 (0.3)\ncertified: LP dual (u, v) proves the matching optimal\n"
    )
    assert captured.err == ""


def test_wasserstein_corrupted_dual_exits_3(capsys, monkeypatch, p4321, p5221):
    def corrupted(a, b, kind):
        c, res = solve(a, b, kind)
        u, v = res.duals
        return c, res._replace(duals=((u[0] + 1,) + u[1:], v))

    solve = cli.solve_transport
    monkeypatch.setattr(cli, "solve_transport", corrupted)
    assert cli.main(["wasserstein", p4321, p5221, "--certify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "certify: the LP dual certificate does not hold\n"


def test_wasserstein_assignment_guard(capsys, tmp_path):
    n = ASSIGNMENT_MAX_N + 1
    big = write_partition(tmp_path, "big.json", {"m": 1, "entries": [n]})
    assert cli.main(["wasserstein", big, big]) == 2
    assert capsys.readouterr().err == (
        f"error: n={n} exceeds the assignment guard {ASSIGNMENT_MAX_N}\n"
    )


def test_wasserstein_solves_once(capsys, monkeypatch, p42, p2211):
    from partition_ot import transport

    calls = {"cost_matrix": 0, "solve_assignment": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(transport, name)):
            calls[_name] += 1
            return _original(*args)

        for module in (transport, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert cli.main(["wasserstein", p42, p2211, "--certify", "--plan"]) == 0
    assert calls == {"cost_matrix": 1, "solve_assignment": 1}


def test_wasserstein_plan_json(capsys, p42, p2211):
    assert cli.main(["wasserstein", p42, p2211, "--plan"]) == 0
    lines = capsys.readouterr().out.splitlines()
    doc = json.loads(lines[-1])
    assert doc["n"] == 6
    assert len(doc["entries"]) == 6
    assert all(e["num"] == 1 and e["den"] == 6 for e in doc["entries"])
    assert (doc["total_num"], doc["total_den"]) == (7, 3)


def test_wasserstein_plan_rejects_euclid(capsys, p42, p2211):
    assert cli.main(["wasserstein", p42, p2211, "--plan", "--cost", "euclid"]) == 2


def test_wasserstein_plan_refuses_euclid_before_solving(capsys, monkeypatch, p42, p2211):
    def refuse(*args):
        raise AssertionError("solved before the --plan check")

    monkeypatch.setattr(cli, "solve_transport", refuse)
    assert cli.main(["wasserstein", p42, p2211, "--plan", "--cost", "euclid"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --plan needs an exact cost kind (sq or l1)\n"


def test_wasserstein_shape_mismatch(capsys, tmp_path, p42):
    other = write_partition(tmp_path, "p3.json", {"m": 1, "entries": [2, 1]})
    assert cli.main(["wasserstein", p42, other]) == 2


def test_wasserstein_certify_euclid_ignores_summation_order(capsys, tmp_path):
    # the oracle's plain float sum and the solver's fsum differ in the last bit
    a = write_partition(tmp_path, "p1111.json", {"m": 1, "entries": [1, 1, 1, 1]})
    b = write_partition(tmp_path, "p4.json", {"m": 1, "entries": [4]})
    assert cli.main(["wasserstein", a, b, "--certify", "--cost", "euclid"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "certified: exhaustive oracle agrees"


def test_wasserstein_certify_failure_exits_3(capsys, p42, p2211, monkeypatch):
    from partition_ot.transport import AssignmentResult

    monkeypatch.setattr(
        cli, "solve_bruteforce", lambda c: AssignmentResult((0,), 10**9)
    )
    assert cli.main(["wasserstein", p42, p2211, "--certify"]) == 3


# ---------------------------------------------------------------------------
# verify


def test_verify_cor_passes(capsys):
    assert cli.main(["verify", "--theorem", "cor", "--m", "2", "--n-max", "4",
                     "--sigma", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["violations"] == 0
    assert summary["records"] == 138


def test_verify_main_surfaces_squared_cost_gap(capsys):
    # the candidate matching is not optimal under sq; the sweep reports it
    assert cli.main(["verify", "--theorem", "main", "--m", "1", "--n-max", "6",
                     "--sigma", "2 1"]) == 3
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["violations"] == 14


def test_verify_main_metric_kind_passes(capsys):
    assert cli.main(["verify", "--theorem", "main", "--m", "1", "--n-max", "7",
                     "--sigma", "involutions", "--cost", "l1"]) == 0


def test_verify_out_file_and_table(capsys, tmp_path):
    out = tmp_path / "report.jsonl"
    assert cli.main(["verify", "--theorem", "cor", "--m", "1", "--n-max", "5",
                     "--sigma", "all", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "violations" in table
    lines = out.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[-1])["violations"] == 0


# sha256 of the per-sigma table `verify --out` prints on stdout
VERIFY_TABLE_DIGEST = "496e162c49a512c9535301476b5e5d80db1bd19aafdb4722a185806becd8396a"


def test_verify_out_table_bytes(capsys, tmp_path):
    argv = ["verify", "--theorem", "main", "--m", "2", "--n-max", "6", "--sigma", "all",
            "--out", str(tmp_path / "report.jsonl")]
    assert cli.main(argv) == 3
    table = capsys.readouterr().out
    assert "total: 570 records, 78 violations" in table
    assert hashlib.sha256(table.encode("utf-8")).hexdigest() == VERIFY_TABLE_DIGEST


def test_verify_reports_byte_identical(tmp_path):
    outs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        path = tmp_path / name
        assert cli.main(["verify", "--theorem", "cor", "--m", "2", "--n-max", "4",
                         "--sigma", "all", "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_verify_requires_m_and_nmax(capsys):
    assert cli.main(["verify", "--theorem", "cor"]) == 2


@pytest.mark.parametrize("theorem", ["main", "cor"])
def test_verify_wrong_size_sigma(capsys, theorem):
    argv = ["verify", "--theorem", theorem, "--m", "2", "--n-max", "3", "--sigma", "2 1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: permutation of size 2 cannot act on 3 coordinates\n"
    )


def test_verify_rejects_nonpositive_n_max(capsys):
    assert cli.main(["verify", "--theorem", "cor", "--m", "2", "--n-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n-max must be >= 1, got 0\n"


def test_verify_guard(capsys):
    assert cli.main(["verify", "--theorem", "cor", "--m", "2", "--n-max", "30",
                     "--sigma", "identity"]) == 2


@pytest.mark.parametrize("m, sigma", [(8, "identity"), (9, "all")])
def test_verify_sweep_guard(capsys, m, sigma):
    # refused before S_{m+1} is listed, so "all" at m = 9 exits at once
    argv = ["verify", "--theorem", "cor", "--m", str(m), "--n-max", "1",
            "--sigma", sigma]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: m={m} exceeds the sweep guard 7: "
        "orbits need all (m + 1)! axis relabellings\n"
    )


def test_verify_at_the_sweep_guard(capsys):
    argv = ["verify", "--theorem", "cor", "--m", "7", "--n-max", "2",
            "--sigma", "identity"]
    assert cli.main(argv) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (summary["records"], summary["violations"]) == (9, 0)


# ---------------------------------------------------------------------------
# render


def test_render_ascii(capsys, p42):
    assert cli.main(["render", p42]) == 0
    assert capsys.readouterr().out == "####\n##\n"


def test_render_svg_to_file(tmp_path, plane):
    out = tmp_path / "diagram.svg"
    assert cli.main(["render", plane, "--format", "svg", "--sigma", "1 3 2",
                     "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("<polygon") == 18


def test_render_tikz(capsys, p42):
    assert cli.main(["render", p42, "--format", "tikz"]) == 0
    assert "\\filldraw" in capsys.readouterr().out


@pytest.mark.parametrize("size", ["nan", "inf", "0", "-2.5"])
def test_render_rejects_bad_cell_size(capsys, plane, size):
    assert cli.main(["render", plane, "--format", "svg", f"--cell-size={size}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cell-size must be finite and > 0")
    assert captured.err.count("\n") == 1


def test_render_unsupported(capsys, plane):
    assert cli.main(["render", plane, "--format", "ascii"]) == 2


def test_missing_file(capsys):
    assert cli.main(["render", "/nonexistent/p.json"]) == 2


# ---------------------------------------------------------------------------
# one parser per process


def _run_all(capsys, argvs):
    """(exit code, stdout, stderr) of each `cli.main(argv)` call, in order."""
    results = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch, p42, p2211):
    argvs = [
        ["verify", "--theorem", "main", "--m", "1", "--n-max", "6", "--sigma", "2 1"],
        ["verify", "--theorem", "main", "--m", "1", "--n-max", "6"],  # sigma: all
        ["wasserstein", p42, p2211, "--cost", "nope"],
        ["wasserstein", p42, p2211],
    ]
    reused = _run_all(capsys, argvs)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new one per call
    assert reused == _run_all(capsys, argvs)
    assert [code for code, _, _ in reused] == [3, 3, 2, 0]
    assert reused[3][1] == "7/3 (2.33333333333)\n"


@pytest.fixture
def fresh_parser_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(capsys, monkeypatch, fresh_parser_cache):
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for _ in range(3):
        assert cli.main(["enumerate", "--m", "1", "--n", "4", "--count"]) == 0
    assert capsys.readouterr().out == "5\n" * 3
    assert len(built) == 1


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()

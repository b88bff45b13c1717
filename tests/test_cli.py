import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import partition_ot
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


def test_enumerate_count_builds_no_partition(capsys, monkeypatch):
    def no_cells(*args):
        raise AssertionError("built a partition's cells")

    monkeypatch.setattr(partitions, "_sorted_cells", no_cells)
    assert cli.main(["enumerate", "--m", "2", "--n", "6", "--count"]) == 0
    assert capsys.readouterr().out == "48\n"


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


# `enumerate --m M --n N` listings: (line count, sha256 of the output)
ENUMERATION_PINS = {
    (2, 12): (1479, "562b9976101deaf5864f6dcdf62e7f82b6ffd025e0bebc35dbcbcfba82334101"),
    (3, 8): (684, "cc787954a7ec6f7db12f91e5d90cffcc715ea780b67edd934d87cecd7eb86ba8"),
    (4, 7): (835, "dc7aacdfbde3c89f53e62704cf7e01921ae0dbd5da8d89ae511ce0e0ca5f42b1"),
}


@pytest.mark.parametrize("m, n", ENUMERATION_PINS, ids=lambda v: str(v))
def test_enumerate_bytes_are_pinned(capsys, m, n):
    assert cli.main(["enumerate", "--m", str(m), "--n", str(n)]) == 0
    text = capsys.readouterr().out
    lines, digest = ENUMERATION_PINS[m, n]
    assert text.count("\n") == lines
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


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


def test_partition_json_names_entries_of_the_wrong_type(capsys, tmp_path):
    path = write_partition(tmp_path, "p.json", {"m": 1, "entries": 5})
    assert cli.main(["symmetrize", path, "--sigma", "2 1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: partition entries must be a nested tuple, got int\n"


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
    "text, message",
    [
        # json.loads recurses past the limit from 10,000 brackets on
        # Python 3.10 to 3.13; 3.13 parses 3,000
        ("[" * 100_000 + "]" * 100_000, "{path}: partition JSON is nested too deeply"),
        # a valid document whose m meets the dimension guard before any
        # part of it is frozen, printed or nested
        ('{"m": 900, "entries": ' + "[" * 900 + "1" + "]" * 900 + "}",
         "m=900 exceeds the dimension guard 400"),
    ],
    ids=["deep-array", "valid-m900"],
)
def test_deeply_nested_json_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["wasserstein", str(path), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=path)}\n"


def test_symmetrize_refuses_a_partition_above_the_dimension_guard(capsys, tmp_path):
    # refused as the file is read, before freezing, symmetrizing or
    # printing the partition recurses once per dimension
    entries = 1
    for _ in range(450):
        entries = [entries]
    path = write_partition(tmp_path, "m450.json", {"m": 450, "entries": entries})
    sigma = " ".join(map(str, range(451, 0, -1)))
    assert cli.main(["symmetrize", path, "--sigma", sigma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: m=450 exceeds the dimension guard 400\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"m": 1,\n', "Expecting property name enclosed in double quotes: "
                        "line 2 column 1 (char 9)"),
        (b'\xff{"m": 1, "entries": [1]}', "'utf-8' codec can't decode byte 0xff "
                                          "in position 0: invalid start byte"),
    ],
    ids=["syntax", "encoding"],
)
def test_unreadable_json_names_its_file(capsys, tmp_path, p42, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert cli.main(["wasserstein", p42, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def _byte_stdin(data):
    """A stdin over raw bytes, decoded leniently as a POSIX locale's is."""
    return io.TextIOWrapper(io.BytesIO(data), errors="surrogateescape")


def test_empty_stdin_is_named_as_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _byte_stdin(b""))
    assert cli.main(["symmetrize", "-", "--sigma", "2 1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: -: Expecting value: line 1 column 1 (char 0)\n"


def test_stdin_is_decoded_strictly_as_utf8(capsys, monkeypatch):
    # the text layer would turn the byte into a lone surrogate, and json
    # would then report an empty document
    monkeypatch.setattr("sys.stdin", _byte_stdin(b"\xff"))
    assert cli.main(["symmetrize", "-", "--sigma", "2 1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: -: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def test_stdin_reads_a_partition(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _byte_stdin(b'{"m": 1, "entries": [4, 2]}'))
    assert cli.main(["symmetrize", "-", "--sigma", "2 1"]) == 0
    assert capsys.readouterr().out == '{"m":1,"entries":[2,2,1,1]}\n'


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


def test_wasserstein_above_the_assignment_guard_builds_no_cell(
    capsys, monkeypatch, tmp_path
):
    # building these 1.6 million cells first took 5 s and 346 MiB
    def no_cells(*args):
        raise AssertionError("built the cells")

    monkeypatch.setattr(partitions, "_sorted_cells", no_cells)
    big = write_partition(tmp_path, "big.json", {"m": 1, "entries": [1_600_000]})
    for flags in ([], ["--plan"]):
        assert cli.main(["wasserstein", big, big, *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: n=1600000 exceeds the assignment guard {ASSIGNMENT_MAX_N}\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["wasserstein", "HUGE", "HUGE"],
        ["symmetrize", "HUGE", "--sigma", "2 1"],
        ["render", "HUGE"],
    ],
)
def test_a_huge_part_is_refused_at_once(capsys, tmp_path, argv):
    # unguarded, each allocated cells until the process was killed
    huge = write_partition(tmp_path, "huge.json", {"m": 1, "entries": [10**12]})
    start = time.perf_counter()
    assert cli.main([huge if arg == "HUGE" else arg for arg in argv]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: n={10**12} exceeds the cell guard {partitions._CELL_CAP}\n"
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
    assert captured.err == "error: n_max must be >= 1, got 0\n"


def test_verify_checks_the_enumeration_guard_before_enumerating(capsys, monkeypatch):
    from partition_ot import theorems, transport

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated or solved before the guard")

    monkeypatch.setattr(theorems, "enumerate_partitions", refuse)
    monkeypatch.setattr(partitions, "_entry_trees", refuse)
    monkeypatch.setattr(transport, "_certified_solve", refuse)
    argv = ["verify", "--theorem", "main", "--m", "2", "--n-max", "13",
            "--sigma", "all"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: n=13 exceeds the enumeration guard 12 for m=2; "
        "raise the max-cells limit to override (see --max-cells)\n"
    )


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


REFUSED_SWEEPS = pytest.mark.parametrize(
    "argv, message",
    [
        (["--m", "8", "--n-max", "1", "--sigma", "identity"],
         "m=8 exceeds the sweep guard 7: orbits need all (m + 1)! axis relabellings"),
        (["--m", "7", "--n-max", "1"],
         "m=7 with 40320 sigmas needs 1625702400 orbit conjugates, "
         "above the sweep guard 32000000"),
        (["--m", "2", "--n-max", "3", "--sigma", "2 1"],
         "permutation of size 2 cannot act on 3 coordinates"),
        (["--m", "2", "--n-max", "13"],
         "n=13 exceeds the enumeration guard 12 for m=2; "
         "raise the max-cells limit to override (see --max-cells)"),
        (["--m", "2", "--n-max", "0"], "n_max must be >= 1, got 0"),
        (["--m", "1", "--n-max", "2001", "--max-cells", "2001"],
         "n=2001 exceeds the assignment guard 2000"),
    ],
    ids=["sweep-size", "orbit-table", "sigma-size", "enumeration", "n-max",
         "assignment"],
)


def _refuse_to_build(monkeypatch):
    from partition_ot import theorems

    def refuse(*args, **kwargs):
        raise AssertionError("built an orbit table entry or a partition")

    monkeypatch.setattr(theorems, "_cell_action", refuse)
    monkeypatch.setattr(theorems, "enumerate_partitions", refuse)


@REFUSED_SWEEPS
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_a_refused_sweep_writes_nothing(capsys, tmp_path, monkeypatch, argv, message,
                                        to_file):
    # the named sigma sets are listed first; the table and the sweep never start
    _refuse_to_build(monkeypatch)
    out = tmp_path / "report.jsonl"
    extra = ["--out", str(out)] if to_file else []
    assert cli.main(["verify", "--theorem", "cor", *argv, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@REFUSED_SWEEPS
def test_a_refused_library_sweep_raises_what_verify_prints(monkeypatch, argv, message):
    from partition_ot import (
        EnumerationTooLargeError,
        PartitionOTError,
        verify_theorem_cor,
    )

    args = cli.build_parser().parse_args(["verify", "--theorem", "cor", *argv])
    sigmas = cli._sigma_set(args.sigma or ["all"], args.m + 1)
    _refuse_to_build(monkeypatch)
    with pytest.raises((PartitionOTError, ValueError)) as info:  # as `main` catches
        verify_theorem_cor(args.m, args.n_max, sigmas, max_cells=args.max_cells)
    hint = " (see --max-cells)" if info.type is EnumerationTooLargeError else ""
    assert f"{info.value}{hint}" == message


def test_a_refused_euclid_main_sweep_leaves_its_out_file_alone(capsys, tmp_path):
    out = tmp_path / "report.jsonl"
    out.write_bytes(b"kept as is")
    argv = ["verify", "--theorem", "main", "--m", "1", "--n-max", "3",
            "--cost", "euclid", "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: hybrid comparison needs an exact cost kind\n"
    assert out.read_bytes() == b"kept as is"


def test_a_streamed_sweep_holds_far_less_than_its_report(capsys, tmp_path):
    # the lines go to the file as they are made: the sweep holds one n's
    # orbit state and the distinct outcomes, never the report
    out = tmp_path / "report.jsonl"
    argv = ["verify", "--theorem", "cor", "--m", "4", "--n-max", "6", "--sigma", "all",
            "--cost", "l1", "--out", str(out)]
    cli.main(["verify", "--theorem", "cor", "--m", "1", "--n-max", "1"])  # warm up
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = out.stat().st_size
    assert size > 9_000_000
    assert peak < size / 2


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


@pytest.mark.parametrize(
    "flags, digest",
    [
        (["--format", "svg", "--sigma", "2 1"],
         "3a8fd42e61c112e4e8015c4458faf8de0aa543000f54ae37866ed83a32081751"),
        (["--format", "tikz"],
         "50883ad280098a1c0495f0f76f295fd9bdd5512ded53c016722837a3419a11ed"),
    ],
    ids=["svg-sigma", "tikz"],
)
def test_render_output_bytes(capsys, p42, flags, digest):
    # one scale, so one drawing per partition and format, byte for byte
    assert cli.main(["render", p42, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_render_has_no_cell_size(capsys, tmp_path, p42):
    out = tmp_path / "diagram.svg"
    out.write_text("kept", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["render", p42, "--format", "svg", "--cell-size", "10", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cell-size 10" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "kept"


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


# ---------------------------------------------------------------------------
# output bytes across hash seeds

# Each command runs in-process in a fresh interpreter per hash seed: set and
# dict order of strs and tuples changes with the seed, the output must not.
SEEDED_COMMANDS = [
    ["enumerate", "--m", "3", "--n", "6"],
    ["symmetrize", "p42.json", "--sigma", "2 1"],
    ["render", "p42.json", "--format", "ascii", "--sigma", "2 1"],
    ["render", "p42.json", "--format", "svg", "--sigma", "2 1"],
    ["render", "p42.json", "--format", "tikz", "--sigma", "2 1"],
    ["render", "plane.json", "--format", "svg", "--sigma", "3 1 2"],
    ["render", "plane.json", "--format", "tikz", "--sigma", "3 1 2"],
    ["wasserstein", "p42.json", "p2211.json", "--plan"],
    ["wasserstein", "p42.json", "p2211.json", "--cost", "euclid", "--certify"],
    ["verify", "--theorem", "cor", "--m", "2", "--n-max", "6", "--sigma", "all",
     "--cost", "euclid"],
    ["verify", "--theorem", "main", "--m", "2", "--n-max", "6", "--sigma", "all",
     "--cost", "l1"],
]

_SEEDED_RUN = """
import contextlib, io, json, sys
from partition_ot import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    sys.stdout.write(f"{argv} exit {code}\\n{out.getvalue()}")
"""


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path, p42, p2211, plane):
    outputs = set()
    for seed in ("0", "1", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(partition_ot.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", _SEEDED_RUN, json.dumps(SEEDED_COMMANDS)],
            cwd=tmp_path, env=env, capture_output=True, timeout=120, check=True,
        )
        assert proc.stderr == b""
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    text = outputs.pop().decode()
    # every command ran: main under l1 finds violations (exit 3), the rest exit 0
    assert [line.rsplit(" ", 1)[-1] for line in text.splitlines()
            if line.startswith("['")] == ["0"] * 10 + ["3"]
    assert "<svg" in text and "\\filldraw" in text and "certified:" in text

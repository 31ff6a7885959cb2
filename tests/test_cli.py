"""End-to-end command-line checks: exit codes, report schemas, determinism.

The exit-code contract is 0 = verified/ok, 1 = counterexample found (report
carries a certificate), 2 = usage or input trouble.  A frozen fixture: the
square-cycle metric violates the four-point condition at the quadruple
(0,1,2,3) with sums (2,4,2), and its powered matrix at base 10 has inertia
(2,2,0).
"""

import json
import shlex
from fractions import Fraction

import pytest

from treeminor import cli, matroid, metric
from treeminor.cli import run
from treeminor.metric import format_matrix_csv, square_cycle_metric
from treeminor.poly import ExactPoly
from treeminor.tree import Tree, parse_tree_text, random_tree

F = Fraction

C4_CSV = "0,1,2,1\n1,0,1,2\n2,1,0,1\n1,2,1,0\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def tree_metric_csv(t):
    pts = list(t.vertices)
    rows = [[t.dist(a, b) for b in pts] for a in pts]
    return format_matrix_csv(rows)


# --- exit codes and input errors ----------------------------------------------


def test_tree_gen_is_deterministic(capsys, tmp_path):
    code1, out1, _ = invoke(capsys, "tree-gen", "--n", "6", "--seed", "9")
    code2, out2, _ = invoke(capsys, "tree-gen", "--n", "6", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    target = tmp_path / "t.tree"
    code3, _, _ = invoke(capsys, "tree-gen", "--n", "6", "--seed", "9", "--out", str(target))
    assert code3 == 0
    assert parse_tree_text(target.read_text()).n == 6


def test_malformed_tree_file_exits_2_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_text("3\n1 2\n1 two\n")
    code, _, err = invoke(capsys, "minor", "--tree", str(bad), "--X", "1,2")
    assert code == 2
    assert "line 3" in err


def test_usage_errors_exit_2(capsys):
    assert run(["minor", "--X", "1,2"]) == 2  # no tree source
    capsys.readouterr()
    assert run(["no-such-subcommand"]) == 2
    capsys.readouterr()
    assert run(["minor", "--n", "4", "--tree", "x", "--X", "1"]) == 2
    capsys.readouterr()


# --- single computations --------------------------------------------------------


def test_minor_json_schema(capsys):
    code, out, _ = invoke(
        capsys, "minor", "--n", "5", "--seed", "3", "--X", "1,4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"tree", "X", "formula", "oracle", "equal", "leading"}
    assert data["equal"] is True
    assert set(data["leading"]) == {"exp", "coeff"}


def test_pfaffian_rejects_bad_order_with_hint(capsys, tmp_path):
    p4 = tmp_path / "p4.tree"
    p4.write_text("4\n1 2\n2 3\n3 4\n")
    code, _, err = invoke(capsys, "pfaffian", "--tree", str(p4), "--X", "1,3,2,4")
    assert code == 2
    assert "nice order" in err
    code, out, _ = invoke(
        capsys, "pfaffian", "--tree", str(p4), "--X", "1,2,3,4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["pfaffian"] == "t^2"


def _path_file(tmp_path, n):
    path = tmp_path / f"p{n}.tree"
    path.write_text(f"{n}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n)))
    return str(path)


def test_pfaffian_checks_its_size_before_expanding(capsys, monkeypatch, tmp_path):
    def unreachable(*args):
        raise AssertionError("pf_oracle ran on an over-size X")

    monkeypatch.setattr(cli, "pf_oracle", unreachable)
    X = ",".join(map(str, range(1, 25)))
    code, out, err = invoke(capsys, "pfaffian", "--tree", _path_file(tmp_path, 24), "--X", X)
    assert code == 2
    assert out == ""
    assert "more than 65536 sets at |X| = 24" in err


def test_pfaffian_accepts_22_labels(capsys, monkeypatch, tmp_path):
    # 28,656 sets take seconds: the monomial formula stands in for the oracle
    monkeypatch.setattr(cli, "pf_oracle", cli.pf_formula)
    X = ",".join(map(str, range(1, 23)))
    code, out, _ = invoke(
        capsys, "pfaffian", "--tree", _path_file(tmp_path, 22), "--X", X, "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_signature_both_modes(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "signature", "--n", "5", "--seed", "1", "--X", "1,3,4",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert (data["positives"], data["negatives"]) == (1, 2)

    c4 = tmp_path / "c4.csv"
    c4.write_text(C4_CSV)
    code, out, _ = invoke(
        capsys, "signature", "--matrix", str(c4), "--tau", "10", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["inertia"] == [2, 2, 0]

    assert run(["signature"]) == 2  # neither source
    capsys.readouterr()


# --- verification sweeps ---------------------------------------------------------


SWEEP_ARGS = {
    "minor-verify": ["--trees", "4", "--n", "5", "--seed", "11"],
    "pf-verify": ["--trees", "3", "--n", "6", "--seed", "11", "--negatives", "2"],
    "cycles-verify": ["--trees", "3", "--n", "5", "--seed", "11", "--max-x", "4"],
}


def test_minor_verify_sweep_and_jobs_determinism(capsys):
    outs = {}
    for sub, args in SWEEP_ARGS.items():
        for fmt in ("json", "csv", "text"):
            argv = [sub, *args, "--format", fmt]
            code1, out1, _ = invoke(capsys, *argv)
            code2, out2, _ = invoke(capsys, *argv, "--jobs", "2")
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv
            outs[sub, fmt] = out1
    data = json.loads(outs["minor-verify", "json"])
    assert data["failures"] == 0
    assert len(data["rows"]) == 4
    assert all(r["ok"] for r in data["rows"])


def test_pf_verify_sweep(capsys):
    code, out, _ = invoke(
        capsys, "pf-verify", "--trees", "4", "--n", "6", "--seed", "2",
        "--negatives", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert data["negative_checks"] > 0


def test_cycles_verify_sweep(capsys):
    code, out, _ = invoke(
        capsys, "cycles-verify", "--trees", "3", "--n", "5", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["failures"] == 0
    assert run(["cycles-verify", "--max-x", "99"]) == 2
    capsys.readouterr()


BAD_SWEEP_ARGS = [
    ("minor-verify --n 1", "--n must be at least 2"),
    ("pf-verify --trees 0", "--trees must be at least 1"),
    ("cycles-verify --trees -1", "--trees must be at least 1"),
    ("minor-verify --jobs 0", "--jobs must be at least 1"),
    ("pf-verify --jobs -3", "--jobs must be at least 1"),
    ("pf-verify --negatives -1", "--negatives must be at least 0"),
    ("cycles-verify --max-x 0", "--max-x must be at least 1"),
    ("minor-verify --max-x -2", "--max-x must be at least 0"),
    ("cycles-verify --max-x 99", "exceeds the enumeration cap"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_SWEEP_ARGS, ids=[argv for argv, _ in BAD_SWEEP_ARGS]
)
def test_sweep_rejects_arguments_that_check_nothing(capsys, argv, message):
    code, out, err = invoke(capsys, *argv.split(), "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


BAD_OPTION_VALUES = [
    ("represent-rooted --n 6 --seed 1 --root 1 --max-reseeds -1",
     "max_reseeds must be at least 0"),
    ("represent-rooted --n 6 --seed 1 --root 1 --window 1/0", "zero denominator"),
    ("signature --matrix C4 --tau 1/0", "zero denominator"),
    ("hpp-check --matrix C4 --taus 10,1/0", "zero denominator"),
    ("hpp-check --matrix C4 --taus ,", "--taus needs at least one base"),
    ('hpp-check --matrix C4 --taus ""', "--taus needs at least one base"),
    ("signature --matrix C4 --X 4", "distinct indices in 0..3"),
    ("signature --matrix C4 --X -1", "distinct indices in 0..3"),
    ("signature --matrix C4 --X 0,2,0", "distinct indices in 0..3"),
    ("minor-verify --n 17", "more than 65536 subsets per tree at --n 17"),
    ("minor-verify --n 36 --max-x 4", "more than 65536 subsets per tree at --n 36 --max-x 4"),
    ("pf-verify --n 18", "more than 65536 subsets per tree at --n 18"),
    # the bound is decided from the first few binomials, not the whole sum
    ("minor-verify --n 1000000", "more than 65536 subsets per tree at --n 1000000"),
    ("pf-verify --n 1000000", "more than 65536 subsets per tree at --n 1000000"),
    # r! cycle partitions for each subset of size r: 69,280 at --n 8 --max-x 7
    ("cycles-verify --n 8 --max-x 7",
     "more than 65536 cycle partitions per tree at --n 8 --max-x 7"),
    ("cycles-verify --n 30", "more than 65536 cycle partitions per tree at --n 30 --max-x 6"),
    ("cycles-verify --n 30 --max-x 99", "--max-x 99 exceeds the enumeration cap 7"),
    ("dissimilarity --n 18 --map odd", "--map odd would evaluate more than 65536 values"),
    ("dissimilarity --n 40 --map odd", "--map odd would evaluate more than 65536 values"),
    ("dissimilarity --n 400 --map k --k 3", "--map k would evaluate more than 65536 values"),
    ("dissimilarity --n 400 --map rooted --root 1 --k 3",
     "--map rooted would evaluate more than 65536 values"),
    ("represent-odd --n 13", "at most 12 represented vertices"),
    ("represent-odd --n 3000", "at most 12 represented vertices"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_OPTION_VALUES, ids=[argv for argv, _ in BAD_OPTION_VALUES]
)
def test_bad_option_values_are_usage_errors(capsys, tmp_path, argv, message):
    c4 = tmp_path / "c4.csv"
    c4.write_text(C4_CSV)
    argv = [str(c4) if tok == "C4" else tok for tok in shlex.split(argv)]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        "minor-verify --n 16",
        "minor-verify --n 35 --max-x 4",
        "pf-verify --n 17",
        "cycles-verify --n 8 --max-x 6",
    ],
)
def test_sweep_sizes_at_the_bound_are_accepted(argv):
    # only the check runs: sweeping trees this large takes minutes
    cli._check_sweep_args(cli.build_parser().parse_args(argv.split()))


def _failing_sweep(capsys, monkeypatch, name, wrong, sweep):
    """Patch the CLI's binding of `name` with `wrong(original result)` and run
    one tree of `sweep`; return its certificate."""
    right = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: wrong(right(*a)))
    code, out, _ = invoke(
        capsys, sweep, "--trees", "1", "--n", "4", "--seed", "3", "--format", "json"
    )
    assert code == 1
    data = json.loads(out)
    assert data["failures"] == 1
    (row,) = data["rows"]
    assert row["ok"] is False
    return row["certificate"]


def _replay(capsys, tmp_path, sub, cert):
    tree = tmp_path / "cert.tree"
    tree.write_text(cert["tree"])
    X = ",".join(map(str, cert["X"]))
    return invoke(capsys, sub, "--tree", str(tree), "--X", X, "--format", "json")


def test_minor_verify_certificate_replays_as_failure(capsys, monkeypatch, tmp_path):
    # only the leading term is wrong: formula and oracle still agree
    cert = _failing_sweep(
        capsys, monkeypatch, "minor_leading", lambda ec: (ec[0] + 1, ec[1]), "minor-verify"
    )
    assert set(cert) == {"tree", "X", "formula", "oracle"}
    code, out, _ = _replay(capsys, tmp_path, "minor", cert)
    assert code == 1
    assert json.loads(out)["equal"] is False


def test_pf_verify_certificate_replays_as_failure(capsys, monkeypatch, tmp_path):
    cert = _failing_sweep(
        capsys, monkeypatch, "pf_formula", lambda p: p * ExactPoly.t_power(1), "pf-verify"
    )
    assert set(cert) == {"tree", "X", "pfaffian", "oracle"}
    code, out, _ = _replay(capsys, tmp_path, "pfaffian", cert)
    assert code == 1
    assert json.loads(out)["equal"] is False


@pytest.mark.parametrize(
    "sweep, table, replay, values",
    [
        ("minor-verify", "minor_table", "minor", {"formula", "oracle"}),
        ("pf-verify", "pf_table", "pfaffian", {"pfaffian", "oracle"}),
    ],
)
def test_a_wrong_table_entry_fails_its_row(
    capsys, monkeypatch, tmp_path, sweep, table, replay, values
):
    wrong = []

    def corrupt(entries):
        key = max(entries, key=len)
        entries[key] = entries[key] * ExactPoly.t_power(1)
        wrong.append((key, entries[key]))
        return entries

    cert = _failing_sweep(capsys, monkeypatch, table, corrupt, sweep)
    ((key, value),) = wrong
    assert set(cert) == {"tree", "X", "table", *values}
    assert cert["X"] == list(key)
    assert cert["table"] == str(value) != cert["oracle"]
    # the single-instance check passes: the fault is the table's
    code, out, _ = _replay(capsys, tmp_path, replay, cert)
    assert code == 0


def test_cycles_verify_failure_lists_all_three_values(capsys, monkeypatch):
    cert = _failing_sweep(
        capsys, monkeypatch, "cycle_sums", lambda pair: (pair[0], -pair[1]), "cycles-verify"
    )
    assert set(cert) == {"tree", "X", "all_cycles", "tight_cycles", "formula"}
    assert cert["tight_cycles"] != cert["all_cycles"] == cert["formula"]


# --- metric subcommands ----------------------------------------------------------


def test_check_4pc_both_ways(capsys, tmp_path):
    c4 = tmp_path / "c4.csv"
    c4.write_text(C4_CSV)
    code, out, _ = invoke(capsys, "check-4pc", "--matrix", str(c4), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["violation"]["quadruple"] == [0, 1, 2, 3]
    assert data["violation"]["sums"] == ["2", "4", "2"]

    good = tmp_path / "tm.csv"
    good.write_text(tree_metric_csv(random_tree(6, seed=2)))
    code, out, _ = invoke(capsys, "check-4pc", "--matrix", str(good), "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_realize_roundtrip(capsys, tmp_path):
    t = random_tree(6, seed=7, weights="rational")
    src = tmp_path / "d.csv"
    src.write_text(tree_metric_csv(t))
    code, out, _ = invoke(capsys, "realize", "--matrix", str(src), "--format", "json")
    assert code == 0
    data = json.loads(out)
    built = parse_tree_text(data["tree"])
    place = data["placement"]
    pts = list(t.vertices)
    for i in range(len(pts)):
        for j in range(len(pts)):
            assert built.dist(place[i], place[j]) == t.dist(pts[i], pts[j])


def test_decompose_example_and_failure(capsys, tmp_path):
    w = tmp_path / "w.csv"
    w.write_text("2,4\n4,4\n")
    code, out, _ = invoke(capsys, "decompose", "--matrix", str(w), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["potentials"] == ["1", "2"]
    assert data["metric_csv"] == "0,1\n1,0\n"

    c4 = tmp_path / "c4.csv"
    c4.write_text(C4_CSV)
    assert run(["decompose", "--matrix", str(c4)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, entry",
    [
        ("-inf,1,2\n1,0,3\n2,3,0\n", "(0,0)"),
        ("0,1\n1,-inf\n", "(1,1)"),
        ("0,-inf,2\n-inf,0,3\n2,3,0\n", "(0,1)"),
    ],
)
def test_decompose_rejects_minus_inf_like_realize(capsys, tmp_path, text, entry):
    w = tmp_path / "w.csv"
    w.write_text(text)
    for sub in ("realize", "check-4pc"):
        assert run([sub, "--matrix", str(w)]) == 2
        capsys.readouterr()
    code, out, err = invoke(capsys, "decompose", "--matrix", str(w))
    assert code == 2
    assert out == ""
    assert f"entry {entry} is -inf" in err


@pytest.mark.parametrize("sub", ["check-4pc", "realize", "decompose"])
def test_metric_commands_scan_quadruples_once(capsys, monkeypatch, tmp_path, sub):
    scan = metric._four_point_scan
    calls = []
    monkeypatch.setattr(metric, "_four_point_scan", lambda m: calls.append(1) or scan(m))
    good = tmp_path / "tm.csv"
    good.write_text(tree_metric_csv(random_tree(5, seed=4)))
    c4 = tmp_path / "c4.csv"
    c4.write_text(C4_CSV)
    for path, want_code in ((good, 0), (c4, 1)):
        calls.clear()
        code, out, _ = invoke(capsys, sub, "--matrix", str(path), "--format", "json")
        assert code == want_code
        assert len(calls) == 1
    assert json.loads(out)["violation"]["quadruple"] == [0, 1, 2, 3]


def test_hpp_check(capsys, tmp_path):
    c4 = tmp_path / "c4.csv"
    c4.write_text(C4_CSV)
    code, out, _ = invoke(capsys, "hpp-check", "--matrix", str(c4), "--format", "json")
    assert code == 1
    assert json.loads(out)["failing_tau"] == "10"

    good = tmp_path / "tm.csv"
    good.write_text(tree_metric_csv(random_tree(5, seed=4)))
    assert run(["hpp-check", "--matrix", str(good)]) == 0
    capsys.readouterr()


# --- maps and representations ----------------------------------------------------


def test_dissimilarity_pipes_into_check_matroid(capsys, tmp_path):
    tree = tmp_path / "t.tree"
    assert run(["tree-gen", "--n", "7", "--seed", "6", "--out", str(tree)]) == 0
    capsys.readouterr()

    code, out, _ = invoke(
        capsys, "dissimilarity", "--tree", str(tree), "--map", "odd", "--format", "json"
    )
    assert code == 0
    payload = tmp_path / "odd.json"
    payload.write_text(out)
    code, out, _ = invoke(
        capsys, "check-matroid", "--map", str(payload), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["axiom"] == "delta"

    code, out, _ = invoke(
        capsys, "dissimilarity", "--tree", str(tree), "--map", "k", "--k", "2",
        "--format", "json",
    )
    payload2 = tmp_path / "k2.json"
    payload2.write_text(out)
    code, out, _ = invoke(capsys, "check-matroid", "--map", str(payload2))
    assert code == 0


def test_check_matroid_violation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ground": [1, 2, 3, 4],
        "k": 2,
        "values": {"1,2": "10", "3,4": "10", "1,3": "0", "1,4": "0",
                   "2,3": "0", "2,4": "0"},
    }))
    code, out, _ = invoke(capsys, "check-matroid", "--map", str(bad), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["violation"]["axiom"] == "matroid"
    assert data["violation"]["lhs"] == "20"


def test_represent_rooted_report(capsys, tmp_path):
    tree = tmp_path / "q.tree"
    tree.write_text("6\n1 5\n2 5\n5 6\n3 6\n4 6\n")
    code, out, _ = invoke(
        capsys, "represent-rooted", "--tree", str(tree), "--root", "5",
        "--k", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["reseeds"] <= 5
    for row in data["rows"]:
        assert row["valuation"] == row["subtree_weight"]
        assert F(row["exact_minor_valuation"]) == 2 * F(row["subtree_weight"])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_represent_rooted_runs_each_block_determinant_once(capsys, tmp_path, monkeypatch, k):
    from treeminor import matroid

    calls = []
    real = matroid.series_det

    def counted(grid):
        calls.append(len(grid))
        return real(grid)

    monkeypatch.setattr(matroid, "series_det", counted)
    tree = tmp_path / "q.tree"
    tree.write_text("6\n1 5\n2 5\n5 6\n3 6\n4 6\n")
    code, out, _ = invoke(
        capsys, "represent-rooted", "--tree", str(tree), "--root", "5",
        "--k", str(k), "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(calls) == len(data["rows"]) * (data["reseeds"] + 1)
    assert set(calls) == {k}


def test_represent_rooted_window_failure(capsys, tmp_path):
    tree = tmp_path / "c.tree"
    tree.write_text("5\n10 1\n1 2\n2 3\n2 4\n")
    code, _, err = invoke(
        capsys, "represent-rooted", "--tree", str(tree), "--root", "10",
        "--ground", "3,4", "--k", "2", "--window", "2", "--max-reseeds", "1",
    )
    assert code == 1
    assert "window" in err


def test_represent_odd_report(capsys):
    code, out, _ = invoke(
        capsys, "represent-odd", "--n", "6", "--seed", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["mismatches"] == []
    assert data["checked"] == 32  # even subsets of 6 vertices


def test_represent_odd_reads_one_pfaffian_table(capsys, monkeypatch):
    tables = []
    pf_table = matroid.pf_table

    def counted(T, order):
        tables.append(pf_table(T, order))
        return tables[-1]

    monkeypatch.setattr(matroid, "pf_table", counted)
    monkeypatch.setattr(matroid, "pfaffian", None)  # no per-subset expansion
    code, out, _ = invoke(
        capsys, "represent-odd", "--n", "8", "--seed", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["checked"] == 128
    assert [len(t) for t in tables] == [128]


def test_represent_odd_checks_its_size_before_building(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("represent_odd ran on an over-size ground set")

    monkeypatch.setattr(cli, "represent_odd", unreachable)
    code, out, err = invoke(capsys, "represent-odd", "--n", "13")
    assert code == 2
    assert out == ""
    assert "at most 12 represented vertices" in err


def test_csv_format_rows(capsys):
    code, out, _ = invoke(
        capsys, "minor-verify", "--trees", "2", "--n", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "checked,n,ok,seed,tree_index,weights"
    assert len(lines) == 3

"""End-to-end command-line checks: exit codes, report schemas, determinism.

The exit-code contract is 0 = verified/ok, 1 = counterexample found (report
carries a certificate), 2 = usage or input trouble.  A frozen fixture: the
square-cycle metric violates the four-point condition at the quadruple
(0,1,2,3) with sums (2,4,2), and its powered matrix at base 10 has inertia
(2,2,0).
"""

import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from cli_runs import caterpillar, path_tree, star
from treeminor import cli, matroid, metric, pfaffian, poly
from treeminor.cli import run
from treeminor.metric import format_matrix_csv, square_cycle_metric
from treeminor.poly import ExactPoly, _unpack_even
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


def test_one_process_answers_like_fresh_ones(capsys, monkeypatch):
    # run keeps one parser per process; a usage error must leave nothing
    # behind that a later call could see
    calls = (
        ["pf-verify", "--trees", "x"],
        ["minor-verify", "--help"],
        ["minor-verify", "--trees", "1", "--n", "4", "--seed", "3"],
    )
    env = dict(os.environ, COLUMNS="80")
    paths = [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    monkeypatch.setenv("COLUMNS", "80")
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "treeminor", *argv], env=env, capture_output=True, text=True
        )
        assert invoke(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(fresh.returncode)
    assert codes == [2, 0, 0]


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


def test_pfaffian_checks_its_size_before_expanding(capsys, monkeypatch, tmp_path):
    def unreachable(*args):
        raise AssertionError("pf_oracle ran on an over-size X")

    monkeypatch.setattr(cli, "pf_oracle", unreachable)
    X = ",".join(map(str, range(1, 25)))
    code, out, err = invoke(capsys, "pfaffian", "--tree", path_tree(tmp_path / "p24.tree", 24), "--X", X)
    assert code == 2
    assert out == ""
    assert "more than 65536 sets at |X| = 24" in err


def test_pfaffian_accepts_22_labels(capsys, tmp_path):
    # the oracle expands 28,656 sets, on packed ints
    X = ",".join(map(str, range(1, 23)))
    code, out, _ = invoke(
        capsys, "pfaffian", "--tree", path_tree(tmp_path / "p22.tree", 22), "--X", X, "--format", "json"
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

    # at --tau 1 every entry powers to 1: the asymmetry shows in the exponents
    asym = tmp_path / "asym.csv"
    asym.write_text("0,1\n2,0\n")
    for tau in ("1", "2"):
        code, out, err = invoke(capsys, "signature", "--matrix", str(asym), "--tau", tau)
        assert (code, out) == (2, "")
        assert "matrix is not symmetric at (1,0)" in err

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


def test_jobs_forks_at_most_one_worker_per_tree(capsys, monkeypatch):
    # a fork pool starts all max_workers processes at its first submit
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    argv = ["minor-verify", "--trees", "3", "--n", "5", "--seed", "11"]
    code1, out1, _ = invoke(capsys, *argv, "--jobs", "1")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    code64, out64, _ = invoke(capsys, *argv, "--jobs", "64")
    assert seen == [3]
    assert (code64, out64) == (code1, out1) == (0, out1)


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


# sha256 of each sweep's --format json stdout: a passing sweep's report is
# fixed byte for byte, however its formula and oracle values are computed
PINNED_SWEEPS = {
    "minor-verify --trees 4 --n 9 --seed 4 --weights unit":
        "ebb67f3738376bdf7dc3f5c46a1246ec1af8bfe8528e8ec4fe8bc3a1850602f5",
    "minor-verify --trees 4 --n 8 --seed 7 --weights rational":
        "44f48b1ffa082e77310aa93b16b8d56dcae098abf8cd78cdab98d2e2e5bdf924",
    "minor-verify --trees 3 --n 12 --seed 1 --weights both --max-x 3":
        "ea1a8ed785008096fdb6cd2ea318d3b41161b51e60c102676640dbb3be6082ff",
    "pf-verify --trees 4 --n 10 --seed 4 --weights unit --negatives 3":
        "fdf26cfef1679d1cfd23a7de1a1c669dbe3acaae4027312e1888c35cd05a14b0",
    "pf-verify --trees 4 --n 10 --seed 7 --weights rational --negatives 3":
        "a6f6e4e74d391e878244a287efb0c3ba4edbb7e8fd559e4c1a5cdd23349f9c24",
    "cycles-verify --trees 4 --n 6 --seed 4 --weights unit --max-x 5":
        "ff16f111b027ebf85b4d67d76e12a948c356f9b87547f4db25301e6b120c1ac2",
    "cycles-verify --trees 4 --n 6 --seed 7 --weights rational --max-x 5":
        "70c8085edfa06478bbe71b130b03581e243210bc9848dfdb7af8aa7d30a08620",
}


@pytest.mark.parametrize("argv", PINNED_SWEEPS)
def test_sweep_stdout_is_pinned(capsys, argv):
    code, out, _ = invoke(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEPS[argv]


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
    ("dissimilarity --n 6 --map rooted --k 2", "--map rooted needs --root"),
    ("represent-odd --n 18", "represent-odd would check more than 65536 even subsets"),
    ("represent-odd --n 3000", "represent-odd would check more than 65536 even subsets"),
    # rational weights: minor_table's polynomials grow with |X| (minutes at --n 16)
    ("minor-verify --trees 1 --n 16 --seed 56 --weights rational",
     "more than 8192 subsets per tree on rational weights at --n 16"),
    ("minor-verify --n 14", "more than 8192 subsets per tree on rational weights at --n 14"),
    # 39^3 + 6 C(39, 2) 2! = 68,211 series products
    ("represent-rooted --n 40 --root 40 --ground " + ",".join(map(str, range(1, 40))),
     "represent-rooted would make about 68211 series products, more than 65536"),
    ("represent-rooted --n 30 --root 30 --ground 1,2,3 --k 2 --max-reseeds 100000",
     "represent-rooted would make about 600033 series products"),
    # 38 rational ground elements pass up to --window 331/12 (exponent
    # denominator 12); 28 is the first integer window above it
    ("represent-rooted --n 39 --weights rational --root 39 --window 28 --ground "
     + ",".join(map(str, range(1, 39))),
     "would cost more than 1000000000 coefficient products at --window 28: 38 ground"),
    ("represent-rooted --n 8 --weights rational --root 1 --window 1024/3",
     "at --window 1024/3: 4 ground elements, about 440 series products"),
    ("represent-rooted --n 16 --weights rational --root 2",
     "at the default window 640/3: 6 ground elements"),
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


# every rational read from text goes through one reader, which refuses a
# value of more than 4,300 digits before Fraction builds 10^e in full; each
# input keeps its own wording
RATIONAL_INPUTS = {
    "tree-weight": ("minor --tree FILE --X 1,2", "2\n1 2 {}\n", "line 2: bad weight"),
    "csv-entry": ("check-4pc --matrix FILE", "0,{0}\n{0},0\n", "line 1: bad entry"),
    "map-value": ("check-matroid --map FILE", '{{"ground": [1], "values": {{"1": "{}"}}}}',
                  "bad map file: "),
    "--tau": ("signature --matrix C4 --tau {}", None, "of more than 4300 digits"),
    "--taus": ("hpp-check --matrix C4 --taus 10,{}", None, "expected comma-separated rationals"),
    "--window": ("represent-rooted --n 6 --root 2 --ground 1,3 --window {}", None,
                 "of more than 4300 digits"),
}


def _rational_argv(tmp_path, where, tok):
    argv, file_text, _ = RATIONAL_INPUTS[where]
    (tmp_path / "c4.csv").write_text(C4_CSV)
    if file_text:
        (tmp_path / "input").write_text(file_text.format(tok))
    subs = {"C4": str(tmp_path / "c4.csv"), "FILE": str(tmp_path / "input")}
    return [subs.get(arg, arg) for arg in argv.format(tok).split()]


@pytest.mark.parametrize("tok", ["1e5000", "1e-5000", "0." + "0" * 4400 + "1"],
                         ids=["1e5000", "1e-5000", "0.0...01"])
@pytest.mark.parametrize("where", list(RATIONAL_INPUTS))
def test_oversized_rationals_exit_2_with_their_inputs_wording(capsys, tmp_path, where, tok):
    code, out, err = invoke(capsys, *_rational_argv(tmp_path, where, tok))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and RATIONAL_INPUTS[where][2] in err


@pytest.mark.parametrize("where", list(RATIONAL_INPUTS))
def test_rationals_at_the_digit_limit_are_read(capsys, tmp_path, where):
    # 10^4299 and 10^-4299 have 4,300 digits: read, then judged as any value
    # (--window 1e4299 is over represent-rooted's cost bound), never refused
    # for their size
    for tok in ("1e4299", "1e-4299"):
        _, _, err = invoke(capsys, *_rational_argv(tmp_path, where, tok))
        assert RATIONAL_INPUTS[where][2] not in err and "digits" not in err, (where, tok)
    for tok in ("1e4300", "1e-4300"):
        code, _, err = invoke(capsys, *_rational_argv(tmp_path, where, tok))
        assert code == 2 and RATIONAL_INPUTS[where][2] in err, (where, tok)


def test_a_weight_at_the_digit_limit_is_printed_back(capsys, tmp_path):
    code, out, _ = invoke(capsys, *_rational_argv(tmp_path, "tree-weight", "1e4299"),
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["tree"] == f"2\n1 2 {10**4299}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("weight, exponent", [("9e4299", "18" + "0" * 4299), ("5e4299", "1" + "0" * 4300)],
                         ids=["9e4299", "5e4299"])
def test_a_minor_past_the_int_to_str_limit_is_printed(capsys, tmp_path, weight, exponent, fmt):
    # the reader accepts an edge weight of 4,300 digits; the minor on the
    # edge's ends has the exponent twice that, of 4,301 digits, and prints
    # with the interpreter's int-to-str limit lifted only while it prints
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, *_rational_argv(tmp_path, "tree-weight", weight), "--format", fmt)
    assert (code, err) == (0, "")
    assert f"-t^{exponent}" in out
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_pfaffian_summing_two_weights_at_the_digit_limit_is_printed(capsys, tmp_path, fmt):
    # the odd edges of the path 1-2-3-4 are its first and last, each of
    # 4,300 digits: the monomial's exponent is their sum, of 4,301 digits
    path = tmp_path / "p4.tree"
    path.write_text("4\n1 2 9e4299\n2 3 1\n3 4 9e4299\n")
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, "pfaffian", "--tree", str(path), "--X", "1,2,3,4", "--format", fmt)
    assert (code, err) == (0, "")
    assert out.count("t^18" + "0" * 4299) == 2  # the formula and the oracle
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv",
    [
        "minor-verify --n 13",
        "minor-verify --n 13 --weights rational",
        "minor-verify --n 20 --max-x 4 --weights rational",
        "pf-verify --n 17",
        "cycles-verify --n 8 --max-x 6",
    ],
)
def test_sweep_sizes_at_the_bound_are_accepted(argv):
    # only the check runs: sweeping trees this large takes minutes
    cli._check_sweep_args(cli.build_parser().parse_args(argv.split()))


@pytest.mark.parametrize("argv", ["--n 16", "--n 35 --max-x 4"])
def test_unit_minor_sweep_sizes_at_the_bound_are_accepted(argv):
    # unit weights keep the 2^16 bound; rational and both (the default) have 2^13
    args = ["minor-verify", "--weights", "unit", *argv.split()]
    cli._check_sweep_args(cli.build_parser().parse_args(args))


@pytest.mark.parametrize(
    "argv",
    [
        # 38 ground elements at their largest accepted window: 38^3 + 6 C(38, 2)
        # 2! + 2 x 38 x 39/2 = 64,828 series products and 20 exponent slots
        "represent-rooted --n 39 --root 39 --ground "
        + ",".join(map(str, range(1, 39)))
        + " --window 39",
        # the same ground on rational weights at its largest accepted window
        "represent-rooted --n 39 --weights rational --root 39 --ground "
        + ",".join(map(str, range(1, 39)))
        + " --window 331/12",
        # 512/3 x exponent denominator 12 = 2,048 exponent slots of the old
        # bound; 561 sums of the entry gaps
        "represent-rooted --n 8 --weights rational --root 1 --window 512/3",
    ],
)
def test_represent_rooted_sizes_at_the_bound_are_accepted(capsys, monkeypatch, argv):
    # the run gets past the bounds to the factorisation, stubbed out here
    def reached(*args, **kwargs):
        raise ArithmeticError("factorisation reached")

    monkeypatch.setattr(cli, "verify_rooted_representation", reached)
    code, out, err = invoke(capsys, *argv.split())
    assert code == 1
    assert err == "verification failed: factorisation reached\n"


def test_represent_rooted_small_window_on_rational_ground(capsys):
    # the factorisation is cheap at --window 1 and reports the precision it
    # lacks, so 38 rational ground elements are no usage error there
    ground = ",".join(map(str, range(1, 39)))
    argv = "represent-rooted --n 39 --weights rational --root 39 --window 1 --ground "
    code, out, err = invoke(capsys, *(argv + ground).split())
    assert (code, out) == (1, "")
    assert "raise the window" in err


def test_represent_rooted_counts_block_products_at_large_k(capsys, monkeypatch, tmp_path):
    # a star's matrix is diagonal, so its series are short and the slot term
    # is small: the memo's products decide.  14^3 + sum_{j=2..6} j C(14, j)
    # = 36,050 pass at k = 6; 15^3 + sum_{j=2..7} j C(15, j) = 100,500 do not
    def reached(*args, **kwargs):
        raise ArithmeticError("factorisation reached")

    monkeypatch.setattr(cli, "verify_rooted_representation", reached)
    for leaves, k, code in ((14, 6, 1), (15, 7, 2)):
        tree = star(tmp_path / f"star{leaves}.tree", leaves)
        argv = ["represent-rooted", "--tree", tree, "--root", "1", "--k", str(k)]
        out_code, out, err = invoke(capsys, *argv, "--max-reseeds", "0")
        assert (out_code, out) == (code, "")
    assert "would make about 100500 series products, more than 65536" in err


@pytest.mark.parametrize(
    "leaves, k, window, code",
    [(9, 6, "19", 1), (9, 6, "149", 1), (9, 6, "150", 2),
     (8, 8, "19", 1), (8, 8, "165", 1), (8, 8, "166", 2)],
)
def test_represent_rooted_bound_at_large_k(
    capsys, monkeypatch, tmp_path, leaves, k, window, code
):
    # the memo's products, weighted by k^2 / 4, shrink the window: 9 leaves
    # at k = 6 (1,962 products) stop at 149 and 8 at k = 8 (1,016) at 165
    def reached(*args, **kwargs):
        raise ArithmeticError("factorisation reached")

    monkeypatch.setattr(cli, "verify_rooted_representation", reached)
    tree = caterpillar(tmp_path / "c.tree", leaves)
    argv = ["represent-rooted", "--tree", tree, "--root", "1", "--k", str(k)]
    out_code, out, err = invoke(capsys, *argv, "--max-reseeds", "0", "--window", window)
    assert (out_code, out) == (code, "")
    if code == 2:
        assert err.startswith("error: represent-rooted would cost more than 1000000000")


@pytest.mark.parametrize(
    "window, code",
    [(None, 1), ("39", 1), ("40", 2), ("2048", 2)],
)
def test_represent_rooted_bound_on_38_leaves(capsys, monkeypatch, tmp_path, window, code):
    # the default window is 32; 39 is the largest accepted, and one bound
    # over products and slots also stops the two together (2,048 slots)
    def reached(*args, **kwargs):
        raise ArithmeticError("factorisation reached")

    monkeypatch.setattr(cli, "verify_rooted_representation", reached)
    argv = ["represent-rooted", "--tree", caterpillar(tmp_path / "c.tree", 38), "--root", "1"]
    out_code, out, err = invoke(capsys, *argv, *(["--window", window] if window else []))
    assert out_code == code
    assert out == ""
    if code == 2:
        assert err.startswith("error: represent-rooted would cost more than 1000000000")
    else:
        assert err == "verification failed: factorisation reached\n"


def _failing_sweep(capsys, monkeypatch, name, wrong, sweep, module=cli):
    """Patch module's binding of `name` (the CLI's by default) with
    `wrong(original result)` and run one tree of `sweep`; return its
    certificate."""
    right = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: wrong(right(*a)))
    return _failing_row(capsys, sweep)


def _failing_row(capsys, sweep):
    """Run one tree of `sweep`, which must fail; return its certificate."""
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
    # only the leading term is wrong, in the sweep's table and in the
    # single-instance check alike: formula and oracle still agree
    right = cli.minor_leading
    monkeypatch.setattr(cli, "minor_leading", lambda *a: (right(*a)[0] + 1, right(*a)[1]))
    cert = _failing_sweep(
        capsys, monkeypatch, "minor_leading_table",
        lambda table: {X: (e + 1, c) for X, (e, c) in table.items()}, "minor-verify",
    )
    assert set(cert) == {"tree", "X", "formula", "oracle"}
    code, out, _ = _replay(capsys, tmp_path, "minor", cert)
    assert code == 1
    assert json.loads(out)["equal"] is False


def test_pf_verify_certificate_replays_as_failure(capsys, monkeypatch, tmp_path):
    # the monomial's exponent serves both pf_formula_table and pf_formula, so
    # a fault there fails the sweep's table and the single-instance check alike
    cert = _failing_sweep(
        capsys, monkeypatch, "_odd_exponent", lambda w: w + 1, "pf-verify", module=pfaffian
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
        ("minor-verify", "minor_formula_table", "minor", {"formula", "oracle"}),
        ("pf-verify", "pf_formula_table", "pfaffian", {"pfaffian", "oracle"}),
        # no single-instance subcommand replays a cycles-verify certificate
        ("cycles-verify", "minor_formula_table", None, {"all_cycles", "tight_cycles", "formula"}),
    ],
)
def test_a_wrong_table_entry_fails_its_row(
    capsys, monkeypatch, tmp_path, sweep, table, replay, values
):
    # the certificate field of the table, and the check's value it stands for
    if table.endswith("formula_table"):
        field, value = "formula_table", "pfaffian" if sweep == "pf-verify" else "formula"
    else:
        field, value = "table", "oracle"
    wrong = []
    right = getattr(cli, table)

    def corrupt(T, *args):
        # times t: the Pfaffian table's value, in its form, shifts by T._den
        # exponent steps, and so does the Pfaffian formula's exponent; the
        # minor tables' values pack at u = t^(2/_den), so times t^2 there
        if table == "pf_table":
            entries, unit, shift, read = right(T, *args)
            key = max(entries, key=len)
            entry = ExactPoly._make(T._den, 1, read(entries[key])) * ExactPoly.t_power(1)
            entries[key] <<= shift * T._den
            wrong.append((key, entry))
            return entries, unit, shift, read
        entries = right(T, *args)
        key = max(entries, key=len)
        if sweep == "pf-verify":
            entry = ExactPoly._make(T._den, 1, {entries[key]: 1}) * ExactPoly.t_power(1)
            entries[key] += T._den
        else:
            bits = args[-1]
            if isinstance(entries[key], tuple):  # a formula value and its 1-norm bound
                packed, norm = entries[key]
                entries[key] = (packed << bits * T._den, norm)
            else:
                packed = entries[key]
                entries[key] = packed << bits * T._den
            entry = ExactPoly._make(T._den, 1, _unpack_even(bits, packed)) * ExactPoly.t_power(2)
        wrong.append((key, entry))
        return entries

    monkeypatch.setattr(cli, table, corrupt)
    cert = _failing_row(capsys, sweep)
    ((key, entry),) = wrong
    # the certificate names the table that disagreed, and only that one
    assert set(cert) == {"tree", "X", field, *values}
    assert cert["X"] == list(key)
    assert cert[field] == str(entry) != cert[value]
    if replay is not None:
        # the single-instance check passes: the fault is the table's
        code, out, _ = _replay(capsys, tmp_path, replay, cert)
        assert code == 0


@pytest.mark.parametrize("sweep, replay", [("minor-verify", "minor"), ("cycles-verify", None)])
def test_a_formula_value_changed_by_a_zero_at_the_packing_base_fails_its_row(
    capsys, monkeypatch, tmp_path, sweep, replay
):
    # q = 2^B t^k - t^(k+1) packs to 2^B 2^(Bk) - 2^(B(k+1)) = 0, so adding
    # it leaves the int as it is; only the 1-norm bound carried beside the
    # value, |q| = 2^B + 1 more, shows it
    right = cli.minor_formula_table
    seen = []

    def shifted(T, size, bits):
        entries = right(T, size, bits)
        key = max(entries, key=len)
        value, norm = entries[key]
        q = (1 << bits) * (1 << bits * 2) - (1 << bits * 3)  # k = 2
        entries[key] = (value + q, norm + (1 << bits) + 1)
        seen.append(key)
        return entries

    monkeypatch.setattr(cli, "minor_formula_table", shifted)
    cert = _failing_row(capsys, sweep)
    assert cert["X"] == list(seen[0])
    assert cert["formula_table"].startswith("undecided: 1-norm bound ")
    if replay is not None:
        assert set(cert) == {"tree", "X", "formula_table", "formula", "oracle"}
        assert cert["formula"] == cert["oracle"]
        code, _, _ = _replay(capsys, tmp_path, replay, cert)
        assert code == 0
    else:
        assert set(cert) == {"tree", "X", "formula_table", "all_cycles", "tight_cycles", "formula"}
        assert cert["all_cycles"] == cert["tight_cycles"] == cert["formula"]


def test_a_key_the_formula_table_finds_not_nice_fails_its_row(capsys, monkeypatch):
    def not_nice(entries):
        key = max(entries, key=len)
        entries[key] = None
        return entries

    cert = _failing_sweep(capsys, monkeypatch, "pf_formula_table", not_nice, "pf-verify")
    assert set(cert) == {"tree", "X", "formula_table", "pfaffian", "oracle"}
    assert cert["formula_table"] == "not nicely ordered"
    assert cert["pfaffian"] == cert["oracle"]


def test_cycles_verify_failure_lists_all_three_values(capsys, monkeypatch):
    # the tight sum is negated in the sweep's table and in cycle_sums alike,
    # so the single-instance check fails as well and no table is named
    right = cli.cycle_table
    monkeypatch.setattr(
        cli, "cycle_table", lambda *a: {X: (f, -t) for X, (f, t) in right(*a).items()}
    )
    cert = _failing_sweep(
        capsys, monkeypatch, "cycle_sums", lambda pair: (pair[0], -pair[1]), "cycles-verify"
    )
    assert set(cert) == {"tree", "X", "all_cycles", "tight_cycles", "formula"}
    assert cert["tight_cycles"] != cert["all_cycles"] == cert["formula"]


def test_a_wrong_cycle_table_entry_fails_its_row(capsys, monkeypatch):
    # one entry's tight sum times t^2 (u^_den, u = t^(2/_den)): the
    # single-instance check passes, so the certificate carries the table's
    # two sums under `table`
    right = cli.cycle_table
    wrong = []

    def corrupt(T, elems, size, bits):
        entries = right(T, elems, size, bits)
        key = max(entries, key=len)
        full, tight = entries[key]
        entries[key] = full, tight << bits * T._den
        sums = [str(ExactPoly._make(T._den, 1, _unpack_even(bits, v))) for v in entries[key]]
        wrong.append((key, sums))
        return entries

    monkeypatch.setattr(cli, "cycle_table", corrupt)
    cert = _failing_row(capsys, "cycles-verify")
    ((key, sums),) = wrong
    assert set(cert) == {"tree", "X", "table", "all_cycles", "tight_cycles", "formula"}
    assert cert["X"] == list(key)
    assert cert["table"] == sums
    assert sums[0] == cert["all_cycles"] == cert["tight_cycles"] == cert["formula"] != sums[1]


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
    # the realizing tree is grown once; the quadruple scan only after a refusal
    scan, grow = metric._four_point_scan, metric._grow
    calls = []
    monkeypatch.setattr(
        metric, "_four_point_scan", lambda w, s: calls.append("scan") or scan(w, s)
    )
    monkeypatch.setattr(metric, "_grow", lambda w: calls.append("grow") or grow(w))
    good = tmp_path / "tm.csv"
    good.write_text(tree_metric_csv(random_tree(5, seed=4)))
    c4 = tmp_path / "c4.csv"
    c4.write_text(C4_CSV)
    for path, want_code in ((good, 0), (c4, 1)):
        calls.clear()
        code, out, _ = invoke(capsys, sub, "--matrix", str(path), "--format", "json")
        assert code == want_code
        assert calls == ["grow", "scan"][: 1 + want_code]
    assert json.loads(out)["violation"]["quadruple"] == [0, 1, 2, 3]


def test_decompose_validates_its_matrix_once(capsys, monkeypatch, tmp_path):
    # one integer read of the input: the potential-reduced part is realized
    # from split_potentials' integer form, not read again from Fractions
    real = metric._integers
    calls = []

    def counted(m, idx=None):
        calls.append(len(m))
        return real(m, idx)

    monkeypatch.setattr(metric, "_integers", counted)
    t = random_tree(5, seed=4)
    p = [F(1, 2), F(3), F(0), F(5, 2), F(1)]
    d = [[t.dist(a, b) for b in t.vertices] for a in t.vertices]
    good = tmp_path / "w.csv"
    good.write_text(format_matrix_csv(
        [[d[i][j] + p[i] + p[j] for j in range(5)] for i in range(5)]))
    c4 = tmp_path / "c4.csv"
    c4.write_text(C4_CSV)
    neg = tmp_path / "neg.csv"
    neg.write_text(PINNED_REPORT_FILES["neg3"])
    for path, want_code in ((good, 0), (c4, 1), (neg, 1)):
        calls.clear()
        code, _, _ = invoke(capsys, "decompose", "--matrix", str(path))
        assert code == want_code
        assert len(calls) == 1


def _pinned_metric_csvs():
    """The matrices the metric commands' pinned stdout is taken on."""
    half = Tree([(1, 2, F(1, 2)), (2, 3, F(3, 2)), (2, 4, 1), (4, 5, F(5, 2)),
                 (4, 6, F(1, 2)), (6, 7, 2), (6, 8, F(3, 2))])
    tm8 = [[half.dist(a, b) for b in half.vertices] for a in half.vertices]
    rng = random.Random(5)
    big = Tree([(rng.randint(1, v - 1), v, F(rng.randint(1, 8), 2)) for v in range(2, 25)])
    tm24 = [[big.dist(a, b) for b in big.vertices] for a in big.vertices]
    bad24 = [row[:] for row in tm24]
    bad24[17][20] = bad24[20][17] = tm24[17][20] + F(1, 2)
    # w = d + p_i + p_j off the diagonal, -inf on it: a leaf-potential map
    p = [F(1), F(1, 2), F(0), F(2), F(3, 2)]
    pot = [[metric.MINUS_INF if i == j else tm8[i][j] + p[i] + p[j] for j in range(5)]
           for i in range(5)]
    return {
        "tm8": format_matrix_csv(tm8),
        "tm24": format_matrix_csv(tm24),
        "bad24": format_matrix_csv(bad24),
        "pot5": format_matrix_csv(pot),
        "wpot5": format_matrix_csv(
            [[tm8[i][j] + p[i] + p[j] for j in range(5)] for i in range(5)]),
        "c4": C4_CSV,
        # three half-integer distances: an odd cycle of parities
        "odd3": "0,1/2,1/2\n1/2,0,1/2\n1/2,1/2,0\n",
        # only the repeated-index quadruple (0,1,1,2) fails: d(0,2) > d(0,1) + d(1,2)
        "tri": "0,1,5\n1,0,1\n5,1,0\n",
    }


# sha256 of each metric command's --format json stdout, taken on the
# matrices above before the fast four-point check and the integer powered
# form went in: neither may change a byte of any report
PINNED_METRIC = {
    "hpp-check tm8":
        "b35cde54073b444e505ed755fccee81741ca2f9779194c5dbcb1127bf8c9484f",
    "hpp-check tm8 --taus 3/2,4,9/4,12,1":
        "47ca15d36bbe0ae778dba772a9752b5ede9a11d106aa338ffe2a45c8c619fb4a",
    "hpp-check tm24":
        "b35cde54073b444e505ed755fccee81741ca2f9779194c5dbcb1127bf8c9484f",
    "hpp-check pot5 --taus 10,3/2,9/4":
        "2cd0bbaee6a93fe1fc4bf1e7f2d4861cb646555259cc5ec821fb855d37294ff3",
    "hpp-check odd3 --taus 10,9/4":
        "dde4d2bfba037528ebe5df06fa3cb2f7e3e934a9aa43394aa4da54cd6364fa9e",
    "hpp-check bad24 --taus 1":
        "00a6fb0250a7a38977f850a7a722c9c3da5cbb458679b0133ddfc7529d361bd1",
    "hpp-check c4":
        "1a65c3e8e0b6ed073a35aeb6bd7177128c8ed83bb9fd77b017487e1b49806ce9",
    "hpp-check c4 --taus 1":
        "8e780c6fb32f620613737fdefdd6ae654cdc396c4913b7b45d72e9c8747348ee",
    "hpp-check tri":
        "1a65c3e8e0b6ed073a35aeb6bd7177128c8ed83bb9fd77b017487e1b49806ce9",
    "hpp-check tri --taus 1":
        "42069f2e1a949b8d2dd988369b04dd6560962f8eb48bcbb25fa15ebb7f7b1199",
    "signature --matrix tm8 --tau 10":
        "27d07fdd7927e8b5005a5398d166354e4d2aef10c0bb98a9ce007ed3d46d7175",
    "signature --matrix tm8 --tau 3/2 --X 0,3,5,6":
        "ebf1ecc6f12b86d3c1e748d370b971e3635fd5819be0defde8a442cf6dcc8f00",
    "signature --matrix tm24 --tau 100":
        "2570ae152e108bbf9fef26e6efff53befeea7fdd96c4589ec511919a68a095ba",
    "signature --matrix odd3 --tau 12":
        "2e7227637e8d04ff4eea6ea2a5c3ddc668bd3578a781e4fc7552513a67915860",
    "signature --matrix c4 --tau 10":
        "76e268f34dae7e3bfb4ff64a1e4c8dc50ff05ddaab1d0362994428d4b19bdd56",
    "signature --matrix c4 --tau 10 --X 0,1,2":
        "11bf05c2adb4cdc80d928263cd0a8cce139ffbb4c296204ba8364670d6fb040c",
    "check-4pc tm8":
        "2a0ad0c14219e0ff4678d1651d64d324f60cacaee97792a10879d7829ca47359",
    "check-4pc tm24":
        "1a29a542a6a9b68b3d597639c320a2cfc670fa22f819efe8f8a248f54cafc7fe",
    "check-4pc bad24":
        "90885c2ffdc9ff5e56c2d15f559eabd955639faf631885a8f8aba5da1362d1ec",
    "check-4pc c4":
        "8b1effb6820bef5b9da911f8f3c6be2863a3d18f445724d3ccb64c6f1f411c2c",
    "check-4pc tri":
        "cc23175dc5b0d52e3a882ecda81c014d53f102e816017aa074cb0eb38d481a63",
    "realize tm8":
        "73cd4dd540210279494537553da9ee2d0fed8494478d14db8d41d3b1fd6177d6",
    "realize tm24":
        "0b7c2c9273a27fd000c77277bac3bce086d4861f3ccfe43b301fbcfeaffdbf10",
    "realize bad24":
        "00a6fb0250a7a38977f850a7a722c9c3da5cbb458679b0133ddfc7529d361bd1",
    "realize c4":
        "8e780c6fb32f620613737fdefdd6ae654cdc396c4913b7b45d72e9c8747348ee",
    "realize tri":
        "42069f2e1a949b8d2dd988369b04dd6560962f8eb48bcbb25fa15ebb7f7b1199",
    "decompose wpot5":
        "eb44d475b8a305357b9cb69476d939f0e0d19b4eaf00565d4a637cba765cc5ce",
    "decompose c4":
        "5ce10482aebc13df75d35037de8dd985643459399984ef185de2199f44891d84",
}


@pytest.mark.parametrize("argv", PINNED_METRIC)
def test_metric_stdout_is_pinned(capsys, tmp_path, argv):
    csvs = _pinned_metric_csvs()
    words = argv.split()
    sub, rest = words[0], words[1:]
    if rest[0] == "--matrix":
        rest = rest[1:]
    path = tmp_path / f"{rest[0]}.csv"
    path.write_text(csvs[rest[0]])
    code, out, _ = invoke(capsys, sub, "--matrix", str(path), *rest[1:], "--format", "json")
    assert code in (0, 1)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_METRIC[argv]


@pytest.mark.parametrize("text", ["-inf\n", C4_CSV])
def test_metric_commands_refuse_a_nonpositive_base(capsys, tmp_path, text):
    # a 1x1 -inf matrix powers no entry, yet its base is refused as well
    path = tmp_path / "m.csv"
    path.write_text(text)
    for argv in (["hpp-check", "--taus", "-1"], ["signature", "--tau", "-2"]):
        code, out, err = invoke(capsys, *argv, "--matrix", str(path))
        assert (code, out) == (2, "")
        assert "base must be positive" in err


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


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        5,
        {"map": 7},
        {"values": [1], "ground": [1]},
        {"values": {"1": "2"}, "ground": 3},
        {"ground": [1], "values": {"1": None}},
        {"ground": [1], "values": {"1": float("inf")}},
        {"ground": [1, "2"], "values": {"1": "0"}},
        {"ground": [1, 2], "values": {"1,2": 0.1, "": 0}},
        {"ground": [1, 2], "values": {"1,2": "1/0"}},
        {"ground": [1, 2], "k": [1], "values": {}},
        {"ground": [1, 2], "k": True, "values": {}},
        {"ground": [1, 2], "k": "2", "values": {}},
        {"ground": [1, 2], "k": 2, "values": {"1,2": True}},
    ],
    ids=["list", "number", "map-number", "values-list", "ground-number", "value-null",
         "value-infinity", "ground-string", "value-float", "value-over-zero", "k-list",
         "k-bool", "k-string", "value-bool"],
)
def test_check_matroid_refuses_json_of_the_wrong_shape(capsys, tmp_path, payload):
    # exit 1 means a counterexample, so a malformed map is a usage error
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    code, out, err = invoke(capsys, "check-matroid", "--map", str(path))
    assert (code, out) == (2, "")
    assert "bad map file" in err


@pytest.mark.parametrize(
    "payload, error",
    [
        ({"ground": [1], "k": 1, "values": {"1,1": "0"}}, "key '1,1' repeats an element"),
        ({"ground": [1, 2], "values": {"1,2": "0", "2,1": "1"}},
         "keys '1,2' and '2,1' name the same set"),
        ({"ground": [True, 2], "values": {"2": "0"}}, '"ground" must be a list of integers'),
    ],
    ids=["key-repeats-an-element", "two-keys-one-set", "ground-bool"],
)
def test_check_matroid_names_a_malformed_key_or_ground(capsys, tmp_path, payload, error):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    code, out, err = invoke(capsys, "check-matroid", "--map", str(path))
    assert (code, out) == (2, "")
    assert error in err


@pytest.mark.parametrize(
    "argv, steps, code",
    [
        # 4 steps a pair: 256 values on 9 ground elements, 256^2 (4 + 9 x 8)
        ("--n 9 --map odd", 4_980_736, 0),
        ("--n 10 --map odd", 24_641_536, 2),
        # C(16, 3) = 560 values: 560^2 (4 + 3^2)
        ("--n 30 --map k --k 3 --ground " + ",".join(map(str, range(1, 17))), 4_076_800, 0),
        ("--n 30 --map k --k 3 --ground " + ",".join(map(str, range(1, 19))), 8_656_128, 2),
        # C(40, 2) = 780 values: 780^2 (4 + 2^2), and C(41, 2) = 820 over it
        ("--n 45 --map k --k 2 --ground " + ",".join(map(str, range(1, 41))), 4_867_200, 0),
        ("--n 45 --map k --k 2 --ground " + ",".join(map(str, range(1, 42))), 5_379_200, 2),
    ],
)
def test_check_matroid_counts_its_scan_before_any_work(
    capsys, tmp_path, monkeypatch, argv, steps, code
):
    code_map, out, _ = invoke(capsys, "dissimilarity", *argv.split(), "--format", "json")
    assert code_map == 0
    path = tmp_path / "map.json"
    path.write_text(out)
    scans = []
    for name in ("check_valuated_matroid", "check_delta_matroid"):
        monkeypatch.setattr(cli, name, lambda fn, name=name: scans.append(name))
    got, out, err = invoke(capsys, "check-matroid", "--map", str(path))
    assert got == code
    if code == 2:
        assert (scans, out) == ([], "")
        assert err == (
            f"error: check-matroid would visit about {steps} pairs and swaps, "
            "more than 5000000; pass a map with fewer values\n"
        )
    else:
        assert len(scans) == 1
        fn = matroid.ValuatedFn.from_json(json.loads(path.read_text())["map"])
        assert cli._exchange_steps(fn, "delta" if fn.k is None else "matroid") == steps


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_represent_rooted_runs_each_block_determinant_once(capsys, tmp_path, monkeypatch, k):
    # the block phase reads each k-subset's determinant once per attempt,
    # builds each column set of a memo once, and makes sum_{j=2..k} j C(|g|, j)
    # products in a full attempt: the count the CLI's bound prices
    reads, builds, products = [], [], []
    read, build, addmul = (matroid._grid_valuation, matroid._ColumnMinors.__missing__,
                           matroid._mul_into)

    def counted_read(s, R):
        reads.append(s)
        return read(s, R)

    def counted_build(self, cols):
        builds.append((id(self), cols))
        return build(self, cols)

    def counted_addmul(*args):
        products.append(args)
        return addmul(*args)

    monkeypatch.setattr(matroid, "_grid_valuation", counted_read)
    monkeypatch.setattr(matroid._ColumnMinors, "__missing__", counted_build)
    monkeypatch.setattr(matroid, "_mul_into", counted_addmul)
    tree = tmp_path / "q.tree"
    tree.write_text("6\n1 5\n2 5\n5 6\n3 6\n4 6\n")
    code, out, _ = invoke(
        capsys, "represent-rooted", "--tree", str(tree), "--root", "5",
        "--k", str(k), "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    g = len(data["ground"])
    assert data["reseeds"] == 0  # no attempt stopped early
    assert len(reads) == len(data["rows"]) == comb(g, k)
    assert len(set(builds)) == len(builds)
    assert sorted(len(cols) for _, cols in builds) == [
        j for j in range(1, k + 1) for _ in range(comb(g, j))]
    assert len(products) == sum(j * comb(g, j) for j in range(2, k + 1))
    assert len(products) == cli._block_products(g, k)


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
    bottom_up = pfaffian._pf_bottom_up

    def counted(xs, rows, unit):
        tables.append(bottom_up(xs, rows, unit))
        return tables[-1]

    monkeypatch.setattr(pfaffian, "_pf_bottom_up", counted)
    monkeypatch.setattr(matroid, "pf_oracle", None)  # no per-subset expansion
    monkeypatch.setattr(cli, "pf_oracle", None)
    code, out, _ = invoke(
        capsys, "represent-odd", "--n", "8", "--seed", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["checked"] == 128
    assert [len(t) for t in tables] == [128]


SPARSE8_TREE = "8\n1 2 5/991\n2 3 7/991\n3 4 8/997\n3 5 2/997\n2 6 8/997\n3 7 7/983\n7 8 5/991\n"

# values planted in one represent-odd table, each a function of the value v
# and of the shift s of one power of t in the table's form, and the
# mismatch list the command reported for them when it read every block's
# value pair off the table: times t, plus the term t^(w + 1), zero, and 2
# t^w, which has the block's valuation and is no mismatch
PLANTS = {
    "t": lambda v, s: v << s,
    "top": lambda v, s: v + (v << s),
    "zero": lambda v, s: v - v,
    "two": lambda v, s: v + v,
}
PLANTED_CASES = [
    (
        ["--n", "9", "--seed", "1", "--weights", "rational"],
        96,  # packed at pf_bits(9) = 8 bits, den 12
        {(2, 7): "t", (1, 3, 2, 5): "top", (4, 8, 6, 9): "zero", (1, 9): "two"},
        [
            {"X": [2, 7], "dual": "-29/3", "expected": "26/3", "value": "29/3"},
            {"X": [1, 3, 2, 5], "dual": "-21/2", "expected": "21/2", "value": "23/2"},
            {"X": [4, 8, 6, 9], "dual": "-inf", "expected": "179/12", "value": "-inf"},
        ],
    ),
    (
        ["--tree", "SPARSE8"],
        971230541,  # on shifted maps, den 971,230,541
        {(2, 4): "t", (1, 2, 3, 5): "top", (3, 4, 7, 8): "zero", (1, 6): "two"},
        [
            {"X": [2, 4], "dual": "-1002934/988027", "expected": "14907/988027", "value": "1002934/988027"},
            {"X": [1, 2, 3, 5], "dual": "-6967/988027", "expected": "6967/988027", "value": "994994/988027"},
            {"X": [3, 4, 7, 8], "dual": "-inf", "expected": "12913/988027", "value": "-inf"},
        ],
    ),
]


def _planted_represent_odd(capsys, monkeypatch, tmp_path, source, step, plants):
    """Run represent-odd on source with plants (key -> PLANTS name) put into
    the CLI's Pfaffian table; check the step of one power of t in the form
    the table took, and return the exit code, the JSON report and the tree."""
    right = cli.pf_table
    trees = []

    def planted(T, order):
        trees.append(T)
        table, unit, shift, read = right(T, order)
        assert shift * T._den == step
        for X, name in plants.items():
            table[X] = PLANTS[name](table[X], step)
        return table, unit, shift, read

    monkeypatch.setattr(cli, "pf_table", planted)
    if "SPARSE8" in source:
        path = tmp_path / "sparse8.tree"
        path.write_text(SPARSE8_TREE)
        source = [str(path) if word == "SPARSE8" else word for word in source]
    code, out, _ = invoke(capsys, "represent-odd", *source, "--format", "json")
    (T,) = trees
    return code, json.loads(out), T


@pytest.mark.parametrize("source, step, plants, mismatches", PLANTED_CASES)
def test_a_planted_pfaffian_table_value_gives_the_same_mismatch_entry(
    capsys, monkeypatch, tmp_path, source, step, plants, mismatches
):
    code, report, _ = _planted_represent_odd(capsys, monkeypatch, tmp_path, source, step, plants)
    assert code == 1
    assert report["mismatches"] == mismatches
    assert report["checked"] == 2 ** (len(report["order"]) - 1)


@pytest.mark.parametrize("source, step, plants, mismatches", PLANTED_CASES)
def test_a_planted_multiple_of_the_monomial_passes_the_valuation_test(
    capsys, monkeypatch, tmp_path, source, step, plants, mismatches
):
    # 2 t^w fails the table comparison, so it is read back, and its value
    # pair is the block's: no mismatch
    read_back = []
    value_pair = cli._value_pair
    monkeypatch.setattr(cli, "_value_pair", lambda p: read_back.append(p) or value_pair(p))
    two = {X: name for X, name in plants.items() if name == "two"}
    code, report, T = _planted_represent_odd(capsys, monkeypatch, tmp_path, source, step, two)
    assert code == 0 and report["mismatches"] == []
    (X,) = two
    assert read_back == [2 * pfaffian.pf_oracle(T, X)]


def test_a_key_the_formula_table_finds_not_nice_is_read_back(capsys, monkeypatch):
    # the key's table value is its monomial, but with no exponent to compare
    # it with, the check reads it back; its value pair is the block's
    right = cli.pf_formula_table
    keys = []

    def not_nice(T, order):
        entries = right(T, order)
        keys.append(max(entries, key=len))
        entries[keys[-1]] = None
        return entries

    read_back = []
    value_pair = cli._value_pair
    monkeypatch.setattr(cli, "pf_formula_table", not_nice)
    monkeypatch.setattr(cli, "_value_pair", lambda p: read_back.append(p) or value_pair(p))
    code, out, _ = invoke(capsys, "represent-odd", "--n", "8", "--seed", "0", "--format", "json")
    assert code == 0 and json.loads(out)["mismatches"] == []
    (X,) = keys
    assert read_back == [pfaffian.pf_oracle(random_tree(8, seed=0), X)]


@pytest.mark.parametrize("source, step, plants, mismatches", PLANTED_CASES)
def test_represent_odd_decides_without_the_oracles(
    capsys, monkeypatch, tmp_path, source, step, plants, mismatches
):
    # neither pf_oracle nor poly's expansion is reached, the read-back of a
    # mismatch included, and the formula side reads no distance
    def refuse(*args):
        raise AssertionError("reached an oracle or the distances")

    for module, name in (
        (pfaffian, "pf_oracle"), (matroid, "pf_oracle"), (cli, "pf_oracle"),
        (poly, "pfaffian"), (poly, "_pfaffian_maps"),
    ):
        monkeypatch.setattr(module, name, refuse)
    formula_table = cli.pf_formula_table

    def no_distances(T, order):
        with monkeypatch.context() as m:
            m.setattr(Tree, "_distance_ints", refuse)
            return formula_table(T, order)

    monkeypatch.setattr(cli, "pf_formula_table", no_distances)
    code, report, _ = _planted_represent_odd(capsys, monkeypatch, tmp_path, source, step, plants)
    assert code == 1
    assert report["mismatches"] == mismatches


def test_represent_odd_checks_its_size_before_building(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the Pfaffian table was built on an over-size ground set")

    monkeypatch.setattr(cli, "pf_table", unreachable)
    code, out, err = invoke(capsys, "represent-odd", "--n", "18")
    assert code == 2
    assert out == ""
    assert "more than 65536 even subsets" in err


def test_represent_odd_accepts_13_vertices(capsys):
    # 4,096 even subsets, under the bound that dissimilarity --map odd uses
    code, out, _ = invoke(
        capsys, "represent-odd", "--n", "13", "--seed", "0", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["mismatches"] == []
    assert data["checked"] == 4096


# the trees and matrices that PINNED_REPORTS names; q6 is the tree of
# test_represent_rooted_report, and neg3's potential-reduced part has the
# negative entry 1 - 1 - 2 at (0,1)
PINNED_REPORT_FILES = {
    "q6": "6\n1 5\n2 5\n5 6\n3 6\n4 6\n",
    "q6r": "6\n1 5 1/2\n2 5 3/2\n5 6 2/3\n3 6 5/2\n4 6 1\n",
    "neg3": "2,1,0\n1,4,3\n0,3,6\n",
}

# sha256 of each command's --format json stdout, taken before minor_formula
# ran on the tree's rooted walk, decompose validated its matrix once and
# represent-odd read the odd-edge weights straight off the tree
PINNED_REPORTS = {
    "minor --n 9 --seed 2 --X 1,3,4,7,9":
        "ba3b1d06d5db9c932e51eefd92e2cdf52a7a52e39de8207fdc942641e6500d1e",
    "minor --n 9 --seed 5 --weights rational --X 2,3,5,8":
        "0ba19a9c0cdb483a295df313d8591ab1b8b40cfb0c165c5382ec2f242fd5c9c0",
    "decompose --matrix neg3":
        "3455f0fdd53f2ac86843433c1fad9244d653b4e178bc1c22f72f62a9d77b0e40",
    "represent-odd --n 8 --seed 0":
        "3c550b8d595d2df9a0a3a13f2b035ec385d7acfbcb73c669d37213604968bfd6",
    "represent-odd --n 9 --seed 1 --weights rational":
        "d07fc0acacb938ec7b57b48684fe281d6dcdce36de308e5decc3b48f97293d8f",
    "represent-rooted --tree q6 --root 5 --k 1":
        "90821393556cb34c385f847928024a1d9d4db803524de1c0b648e40e5ac649df",
    "represent-rooted --tree q6 --root 5 --k 2":
        "a82bb6831409b31c4b58bbe1d4100cc83b4794bd59b3fc122a077242ebe3be3e",
    "represent-rooted --tree q6 --root 5 --k 3":
        "9a29e6221b1095975e1963608053a9bc7b006cdbc052a204f0c41176a337b2c1",
    "represent-rooted --tree q6r --root 5 --k 2":
        "27568cfbe90b50d76bfb784f61e1a281cdb5607fc5e73e5d9bd9c2fa598d995d",
    "dissimilarity --tree q6 --map rooted --root 5 --k 2":
        "61ee30d8ab5ab94d9ecee6e4e92a0a271ef4a1284a26382a3719da1369bc703a",
}


@pytest.mark.parametrize("argv", PINNED_REPORTS)
def test_report_stdout_is_pinned(capsys, tmp_path, argv):
    words = argv.split()
    for i, word in enumerate(words):
        if word in PINNED_REPORT_FILES:
            path = tmp_path / word
            path.write_text(PINNED_REPORT_FILES[word])
            words[i] = str(path)
    code, out, _ = invoke(capsys, *words, "--format", "json")
    assert code in (0, 1)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[argv]


def test_rooted_check_reaches_no_radical(capsys, tmp_path, monkeypatch):
    # the LDL^T factor and the monomial column scale keep every coefficient
    # rational: no square root is taken and no QRad is built, and the
    # pinned represent-rooted reports still match
    from treeminor import tropic

    def no_sqrt(self):
        raise AssertionError("PuiseuxTrunc.sqrt reached")

    class NoQRad:
        def __init__(self, *args, **kwargs):
            raise AssertionError("QRad built")

    monkeypatch.setattr(tropic.PuiseuxTrunc, "sqrt", no_sqrt)
    monkeypatch.setattr(tropic, "QRad", NoQRad)
    for name in ("q6", "q6r"):
        T = parse_tree_text(PINNED_REPORT_FILES[name])
        for k in (1, 2, 3):
            rep, _ = matroid.verify_rooted_representation(T, 5, k)
            assert len(rep.valuations) == len(list(combinations(rep.ground, k)))
    pinned = [argv for argv in PINNED_REPORTS if argv.startswith("represent-rooted")]
    assert len(pinned) == 4
    for argv in pinned:
        test_report_stdout_is_pinned(capsys, tmp_path, argv)


def test_powered_matrices_build_no_qrad(capsys, tmp_path, monkeypatch):
    # powered entries are pairs a + b sqrt(r), r = num * den of tau, on a
    # matrix that splits as D R D (the square cycle at half weights) and on
    # one that does not (odd5: 9/2 closes an odd cycle of parities); no QRad
    # is built, so no tau is factorised, 2^61 - 1 among them
    class NoQRad:
        def __init__(self, *args, **kwargs):
            raise AssertionError("QRad built")

    monkeypatch.setattr(metric, "QRad", NoQRad)
    odd5 = "0,1,3,9/2,5\n1,0,4,5,6\n3,4,0,1,2\n9/2,5,1,0,1\n5,6,2,1,0\n"
    c4h = "0,1/2,1,1/2\n1/2,0,1/2,1\n1,1/2,0,1/2\n1/2,1,1/2,0\n"
    for name, text, above, below in (("odd5", odd5, [2, 3, 0], [5, 0, 0]),
                                      ("c4h", c4h, [2, 2, 0], [4, 0, 0])):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        rows = metric.parse_matrix_csv(text)
        for tau in ("10", "3/2", "2/3", "2305843009213693951"):
            want = above if Fraction(tau) > 1 else below
            code, out, _ = invoke(capsys, "signature", "--tau", tau, "--matrix", str(path),
                                  "--format", "json")
            assert (code, json.loads(out)["inertia"]) == (0, want)
            code, out, _ = invoke(capsys, "hpp-check", "--taus", tau, "--matrix", str(path),
                                  "--format", "json")
            assert (code, json.loads(out)["failing_tau"]) == (1, tau)
            pm = metric.power_matrix(rows, Fraction(tau))
            assert any(isinstance(x, metric._Surd) for row in pm for x in row)
            assert metric.inertia(pm) == tuple(want)
            assert metric.star_condition_check(pm) is not None


@pytest.mark.parametrize(
    "argv, lines",
    [
        ("check-4pc --matrix TM3", ["n,3", "ok,True"]),
        # the tree file in "raw" is left out, as in the text format's fields
        ("tree-gen --n 4 --seed 1", ["edges,\"[[1, 2, '1'], [1, 4, '1'], [2, 3, '1']]\"", "n,4"]),
    ],
)
def test_csv_format_key_value_reports(capsys, tmp_path, argv, lines):
    tm3 = tmp_path / "tm3.csv"
    tm3.write_text("0,1,2\n1,0,3\n2,3,0\n")
    argv = [str(tm3) if tok == "TM3" else tok for tok in argv.split()]
    code, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.split("\n") == [*lines, ""]


def test_csv_format_rows(capsys):
    code, out, _ = invoke(
        capsys, "minor-verify", "--trees", "2", "--n", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "checked,n,ok,seed,tree_index,weights"
    assert len(lines) == 3

"""CI's command-line runs as data: each command at its size bound.

Run from the repository root; it takes no arguments:

    PYTHONPATH=src python tests/cli_runs.py

It writes every input once into a temporary directory and runs each entry
of RUNS as `python -m treeminor` within BUDGET_S seconds.  An entry is an
argv, the exit code it must give and an optional check: a predicate on the
JSON report, which `--format json`, appended exactly then, asks for.  The
argv's `{name}` fields are the inputs' paths and values derived from them;
`{seq:n}` is 1,2,...,n.  Exit 2, and exit 1 of an entry without a check,
must be the CLI's own refusal: an empty stdout and a stderr that starts
`error: ` or `verification failed: ` (argparse exits 2 too, on `usage:`).
Exit 1 of an entry with a check is a violation found, which the JSON
report carries.  It prints one line per entry: pass or FAIL, the exit
code, the wall time and what failed.  It runs every entry and exits 1 if
any failed.

pytest does not collect this module; tests/test_cli.py imports its tree
writers.
"""

import json
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

from treeminor import Tree, random_tree
from treeminor.cli import run
from treeminor.metric import format_matrix_csv
from treeminor.tree import format_tree

BUDGET_S = 60


def _write(path, *lines):
    path.write_text("".join(f"{line}\n" for line in lines))
    return str(path)


def path_tree(path, n):
    """the path 1-2-...-n"""
    return _write(path, n, *(f"{v} {v + 1}" for v in range(1, n)))


def caterpillar(path, leaves):
    """spine 1-2-3-4 with leaves 5, 6, ... hung on it in turn"""
    hung = (f"{(v - 5) % 4 + 1} {v}" for v in range(5, leaves + 5))
    return _write(path, leaves + 4, "1 2", "2 3", "3 4", *hung)


def star(path, leaves):
    """centre 1 with leaves 2, ..., leaves + 1"""
    return _write(path, leaves + 1, *(f"1 {v}" for v in range(2, leaves + 2)))


def _tree_file(path, t):
    path.write_text(format_tree(t))
    return str(path), ",".join(map(str, t.leaves()))


def _csv(path, matrix):
    path.write_text(format_matrix_csv(matrix))
    return str(path)


def _tree_metric(path, n, top, den, draws=None):
    """The distances among the vertices of a random n-vertex tree with
    weights k/den, 1 <= k <= top, or among `draws` of them drawn with
    repetition; returns the path, the matrix and the generator, which
    draws on."""
    rng = random.Random(0)
    t = Tree([(rng.randint(1, v - 1), v, Fraction(rng.randint(1, top), den))
              for v in range(2, n + 1)])
    pts = [rng.choice(t.vertices) for _ in range(draws)] if draws else t.vertices
    d = [[t.dist(a, b) for b in pts] for a in pts]
    return _csv(path, d), d, rng


class _Seq:
    def __format__(self, n):
        return ",".join(map(str, range(1, int(n) + 1)))


def write_inputs(tmp):
    """Write every input under the directory tmp; return the argv fields."""
    f = {"seq": _Seq()}
    f["odd11"] = str(tmp / "odd11.json")
    with open(f["odd11"], "w") as out, redirect_stdout(out):
        if run(["dissimilarity", "--n", "11", "--map", "odd", "--format", "json"]):
            sys.exit("dissimilarity failed to write odd11.json")
    f["p30"] = path_tree(tmp / "p30.tree", 30)
    f["big_csv"] = _write(tmp / "big.csv", "0,1e100000000", "1e100000000,0")
    f["big_tree"] = _write(tmp / "big.tree", 2, "1 2 1e100000000")
    f["big_json"] = _write(tmp / "big.json", '{"ground": [1, 2], "values": {"1": "1e100000000"}}')
    f["big_ok"] = _write(tmp / "big-ok.csv", "0,1", "1,0")
    for leaves in 8, 9, 16, 17, 24, 38:
        f[f"cat{leaves}"] = caterpillar(tmp / f"cat{leaves}.tree", leaves)
    f["r80"], f["r80_leaves"] = _tree_file(tmp / "r80.tree", random_tree(80, seed=1))
    for s in 1, 7:
        t = random_tree(30, seed=s, weights="rational")
        f[f"r30q{s}"], f[f"r30q{s}_leaves"] = _tree_file(tmp / f"r30q{s}.tree", t)
    f["sparse8"] = _write(
        tmp / "sparse8.tree", 8, "1 2 5/991", "2 3 7/991", "3 4 8/997", "3 5 2/997",
        "2 6 8/997", "3 7 7/983", "7 8 5/991",
    )
    rng = random.Random(16)
    t = Tree([(u, v, Fraction(rng.randint(1, 9), rng.choice((991, 997, 983))))
              for u, v, _ in random_tree(16, seed=3).edges()])
    f["sparse16"], f["sparse16_leaves"] = _tree_file(tmp / "sparse16.tree", t)
    f["sparse16_order"] = ",".join(map(str, t.nice_order(t.vertices)))
    f["big4300"] = _write(tmp / "big4300.tree", 2, "1 2 9e4299")
    for p in 101, 113:
        edges = (f"10 {v}" for v in range(2, 10))
        f[f"star{p}"] = _write(tmp / f"star{p}.tree", 10, f"10 1 1/{p}", *edges)
    f["star14"] = star(tmp / "star14.tree", 14)
    f["tm320"], d, rng = _tree_metric(tmp / "tm320.csv", 320, 8, 2)
    order = list(range(len(d)))
    random.Random(1).shuffle(order)
    f["tm320s"] = _csv(tmp / "tm320s.csv", [[d[i][j] for j in order] for i in order])
    bent = [row[:] for row in d]
    bent[5][200] = bent[200][5] = d[5][200] + Fraction(1, 2)
    f["tm320b"] = _csv(tmp / "tm320b.csv", bent)
    # raised by 1, an even step in the integer form: every parity is kept
    bent[5][200] = bent[200][5] = d[5][200] + 1
    f["tm320c"] = _csv(tmp / "tm320c.csv", bent)
    lead = [row[:120] for row in d[:120]]
    lead[5][100] = lead[100][5] = d[5][100] + 1
    f["tm120c"] = _csv(tmp / "tm120c.csv", lead)
    p = [Fraction(rng.randint(0, 8), 2) for _ in d]
    w = [[x + p[i] + p[j] for j, x in enumerate(row)] for i, row in enumerate(d)]
    f["w320"] = _csv(tmp / "w320.csv", w)
    f["potentials"] = [str(x) for x in p]
    f["tm1000"], _, _ = _tree_metric(tmp / "tm1000.csv", 1000, 8, 2)
    f["rep320"], d, _ = _tree_metric(tmp / "rep320.csv", 200, 12, 6, draws=320)
    f["distinct"] = len({tuple(row) for row in d})
    d[0][0] = float("-inf")
    f["rep320x"] = _csv(tmp / "rep320x.csv", d)
    f["tri"] = _write(tmp / "tri.csv", "0,1/2,1/2", "1/2,0,1/2", "1/2,1/2,0")
    f["hollow3"] = _write(tmp / "hollow3.csv", "-inf,1,2", "1,-inf,1", "2,1,-inf")
    f["odd5"] = _write(
        tmp / "odd5.csv", "0,1,3,9/2,5", "1,0,4,5,6", "3,4,0,1,2", "9/2,5,1,0,1", "5,6,2,1,0"
    )
    f["m4253"] = str(2**4253 - 1)
    return f


def rooted(report, f):
    """one row per k-subset of the ground, each valuation its subtree weight
    and each exact minor's top exponent twice that weight"""
    rows = report["rows"]
    return len(rows) == comb(len(report["ground"]), report["k"]) and all(
        row["valuation"] == row["subtree_weight"]
        and Fraction(row["exact_minor_valuation"]) == 2 * Fraction(row["subtree_weight"])
        for row in rows
    )


def ok(report, f):
    return report["ok"] is True


def potentials(report, f):
    return report["potentials"] == f["potentials"]


def inertia(*want):
    def inertia(report, f):
        return report["inertia"] == list(want)
    return inertia


def violation(*quadruple):
    def violation(report, f):
        return report["violation"]["quadruple"] == list(quadruple)
    return violation


def failing_tau(tau):
    def failing_tau(report, f):
        return report["failing_tau"] == tau
    return failing_tau


def distinct_inertia(report, f):
    """d distinct points of 320: one positive, d - 1 negative, 320 - d zero"""
    d = f["distinct"]
    return report["inertia"] == [1, d - 1, 320 - d]


def hollow0_inertia(report, f):
    """point 0 shares its vertex with a point j, so with its diagonal entry
    powered to 0, row 0 less row j is -e_0: one more negative than the d
    distinct points give, one zero fewer"""
    d = f["distinct"]
    return report["inertia"] == [1, d, 319 - d]


RUNS = [
    # over the size bound: exit 2 before any work, which would time out here
    ("pf-verify --trees 1 --n 18", 2),
    ("minor-verify --trees 1 --n 17", 2),
    ("minor-verify --trees 1 --n 16 --seed 56 --weights rational", 2),
    ("cycles-verify --trees 1 --n 30", 2),
    ("dissimilarity --n 40 --map odd", 2),
    ("represent-odd --n 3000", 2),
    ("represent-rooted --n 40 --root 40 --ground {seq:39}", 2),
    ("represent-rooted --n 8 --weights rational --root 1 --window 1024/3", 2),
    ("represent-rooted --n 39 --weights rational --root 39 --window 28 --ground {seq:38}", 2),
    # the odd map of an 11-vertex tree: 116,391,936 pairs and swaps to scan (161 s)
    ("check-matroid --map {odd11}", 2),
    ("pfaffian --tree {p30} --X {seq:24}", 2),
    # 10^8 digits in each kind of input, refused over 4,300 before Fraction builds 10^e
    ("check-4pc --matrix {big_csv}", 2),
    ("minor --tree {big_tree} --X 1,2", 2),
    ("check-matroid --map {big_json}", 2),
    ("represent-rooted --n 6 --root 2 --ground 1,3 --window 1e100000000", 2),
    ("hpp-check --matrix {big_ok} --taus 1e100000000", 2),
    # in bound at --window 1: the factorisation asks for a larger window
    ("represent-rooted --n 39 --weights rational --root 39 --window 1 --ground {seq:38}", 1),
    # 38 leaves pass at the default window (32), 4 at 2,048, but not the two together
    ("represent-rooted --tree {cat38} --window 2048 --root 1", 2),
    # at --k 4, 24 leaves' 62,952 block products fit the cap, but weighted by k^2/4 do not
    ("represent-rooted --tree {cat24} --k 4 --max-reseeds 0 --root 1", 2),
    # at --k 5, 17 leaves are one past the largest accepted (16, below)
    ("represent-rooted --tree {cat17} --k 5 --max-reseeds 0 --root 1", 2),
    # the largest accepted sweeps: 7- and 8-vertex trees at the cycle cap, unit and rational
    ("cycles-verify --trees 3 --n 7 --max-x 7 --seed 23", 0),
    ("cycles-verify --trees 3 --n 8 --max-x 6", 0),
    ("cycles-verify --trees 20 --n 7 --max-x 7 --weights both", 0),
    # every set of one or two vertices of a 56- and a 107-vertex tree
    ("cycles-verify --trees 2 --n 120 --max-x 2 --seed 2", 0),
    ("represent-odd --n 17", 0),
    ("pf-verify --trees 1 --n 17 --seed 10 --weights rational", 0),
    ("pf-verify --trees 1 --n 17 --seed 12 --weights unit", 0),
    ("minor-verify --trees 1 --n 16 --seed 56 --weights unit", 0),
    ("minor-verify --trees 1 --n 13 --seed 27 --weights rational", 0),
    # 4 leaves at 561 exponent slots, and 30 ground elements of 39 vertices
    ("represent-rooted --n 8 --weights rational --root 1 --window 512/3", 0, rooted),
    ("represent-rooted --n 39 --root 39 --ground {seq:30} --window 39", 0, rooted),
    # leaf sets: a 26 x 26 oracle on packed ints, then rational half powers
    ("minor --tree {r80} --X {r80_leaves}", 0),
    ("minor --tree {r30q1} --X {r30q1_leaves}", 0),
    ("minor --tree {r30q7} --X {r30q7_leaves}", 0),
    # the largest accepted pfaffian: F(23) - 1 = 28,656 sets
    ("pfaffian --tree {p30} --X {seq:22}", 0),
    # a large common denominator: packed, one Pfaffian is 10^8-10^9 bits, so these stay maps
    ("represent-odd --tree {sparse8}", 0),
    ("pfaffian --tree {sparse8} --X 1,2,3,4,5,7,8,6", 0),
    ("represent-odd --tree {sparse16}", 0),
    ("pfaffian --tree {sparse16} --X {sparse16_order}", 0),
    ("minor --tree {sparse16} --X {sparse16_leaves}", 0),
    # 4,300 digits, the most the reader accepts: 2 w is past the int-to-str limit
    ("minor --tree {big4300} --X 1,2", 0),
    # one edge 1/p: the last star the oracle packs (p = 101), the first on maps (p = 113)
    ("minor --tree {star101} --X {seq:9}", 0),
    ("minor --tree {star113} --X {seq:9}", 0),
    ("represent-rooted --tree {cat38} --root 1", 0, rooted),
    # 9 leaves at k = 6 and 8 at k = 8 pass up to --window 149 and 165; 16 is k = 5's largest
    ("represent-rooted --tree {cat9} --root 1 --k 6 --max-reseeds 0 --window 19", 0, rooted),
    ("represent-rooted --tree {cat8} --root 1 --k 8 --max-reseeds 0 --window 19", 0, rooted),
    ("represent-rooted --tree {cat16} --root 1 --k 5 --max-reseeds 0", 0, rooted),
    # 14^3 + sum_{j=2..6} j C(14, j) = 36,050 products over short series
    ("represent-rooted --tree {star14} --root 1 --k 6 --max-reseeds 0", 0, rooted),
    # a 320-point half-integer tree metric: an O(n^4) quadruple scan would take about 115 s
    ("check-4pc --matrix {tm320}", 0),
    ("realize --matrix {tm320}", 0),
    ("decompose --matrix {tm320}", 0),
    # d(5, 200) raised by 1/2: the realizing tree is refused, and the scan
    # names the first quadruple that fails
    ("check-4pc --matrix {tm320b}", 1, violation(0, 2, 5, 200)),
    ("realize --matrix {tm320b}", 1, violation(0, 2, 5, 200)),
    ("decompose --matrix {tm320b}", 1, violation(0, 2, 5, 200)),
    # one exponent parity broken, so no D R D split: the walk runs on pairs a + b sqrt(tau)
    ("signature --tau 10 --matrix {tm320b}", 0, inertia(2, 318, 0)),
    # d(5, 200) raised by 1 keeps every parity: the walk runs on the
    # powered matrix split as D R D, with no square root of tau taken
    ("check-4pc --matrix {tm320c}", 1, violation(0, 2, 5, 200)),
    ("signature --tau 10 --matrix {tm320c}", 0, inertia(2, 318, 0)),
    ("hpp-check --matrix {tm320c}", 1, failing_tau("10")),
    # the same on a 120-point block: tau = 2^61 - 1 is never factorised
    ("signature --tau 3/2 --matrix {tm120c}", 0, inertia(2, 118, 0)),
    ("signature --tau 2305843009213693951 --matrix {tm120c}", 0, inertia(2, 118, 0)),
    ("hpp-check --taus 2305843009213693951 --matrix {tm120c}", 1,
     failing_tau("2305843009213693951")),
    # signature and hpp-check read tree metrics' inertia off the realized tree
    ("signature --tau 10 --matrix {tm320}", 0, inertia(1, 319, 0)),
    ("signature --tau 1/2 --matrix {tm320}", 0, inertia(320, 0, 0)),
    ("hpp-check --matrix {tm320}", 0, ok),
    # the same with its rows shuffled: the dense walk took 66 s on this order
    ("signature --tau 10 --matrix {tm320s}", 0, inertia(1, 319, 0)),
    ("hpp-check --matrix {tm320s}", 0, ok),
    # tau = 2^61 - 1: powered entries would factorise tau (tri.csv: three
    # points at distance 1/2, a star of quarter edges)
    ("signature --tau 2305843009213693951 --matrix {tm320}", 0, inertia(1, 319, 0)),
    ("hpp-check --taus 2305843009213693951 --matrix {tm320}", 0, ok),
    ("signature --tau 2305843009213693951 --matrix {tri}", 0, inertia(1, 2, 0)),
    ("hpp-check --taus 2305843009213693951 --matrix {tri}", 0, ok),
    # the same with potentials p added, w_ij = d_ij + p_i + p_j
    ("decompose --matrix {w320}", 0, potentials),
    ("hpp-check --matrix {w320}", 0, ok),
    ("check-4pc --matrix {tm1000}", 0),
    ("realize --matrix {tm1000}", 0),
    ("hpp-check --matrix {tm1000}", 0, ok),
    # 320 points drawn with repetition: zero distances, interior points
    ("check-4pc --matrix {rep320}", 0),
    ("realize --matrix {rep320}", 0),
    ("decompose --matrix {rep320}", 0),
    # tau = 64 has an exact sixth root; the 157 distinct points give 163 zeros
    ("signature --tau 64 --matrix {rep320}", 0, distinct_inertia),
    ("hpp-check --taus 64 --matrix {rep320}", 0, ok),
    # with a -inf diagonal entry it is no tree metric: the walk settles 133 zero pivots
    ("signature --tau 64 --matrix {rep320x}", 0, hollow0_inertia),
    ("hpp-check --taus 64 --matrix {rep320x}", 0, ok),
    # a -inf diagonal, zero when powered: the walk starts with a congruence
    ("signature --tau 10 --matrix {hollow3}", 0, inertia(1, 2, 0)),
    ("hpp-check --taus 10 --matrix {hollow3}", 0, ok),
    # odd5: one exponent 9/2 puts an odd cycle in the parities, so no split:
    # the walk runs on pairs a + b sqrt(tau) at the Mersenne primes 2^61 - 1
    # and 2^4253 - 1, which trial division would never factorise
    ("signature --tau 2305843009213693951 --matrix {odd5}", 0, inertia(2, 3, 0)),
    ("hpp-check --taus 2305843009213693951 --matrix {odd5}", 1,
     failing_tau("2305843009213693951")),
    ("signature --tau {m4253} --matrix {odd5}", 0, inertia(2, 3, 0)),
    ("hpp-check --taus {m4253} --matrix {odd5}", 1, failing_tau(str(2**4253 - 1))),
]


def _fault(proc, code, check, f):
    if proc is None:
        return f"timed out at {BUDGET_S} s"
    if proc.returncode != code:
        return f"expected exit {code}: {' '.join(proc.stderr.split())[-200:]}"
    lead = {2: "error: ", 1: None if check else "verification failed: "}.get(code)
    if lead and (proc.stdout or not proc.stderr.startswith(lead)):
        return f"not the CLI's own refusal: stdout must be empty, stderr start {lead!r}"
    if check:
        try:
            held = check(json.loads(proc.stdout), f)
        except Exception as exc:  # a report without the checked fields
            return f"check {check.__name__} failed: {exc!r}"[:200]
        if not held:
            return f"check {check.__name__} failed"
    return None


def _run(f, argv, code, check=None):
    args = [a.format(**f) for a in argv.split()] + (["--format", "json"] if check else [])
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "treeminor", *args],
            capture_output=True, text=True, timeout=BUDGET_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
    wall = time.perf_counter() - start
    fault = _fault(proc, code, check, f)
    got = "-" if proc is None else proc.returncode
    print(f"{'FAIL' if fault else 'pass'}  exit {got}  {wall:6.2f} s  {argv}"
          + (f"  -- {fault}" if fault else ""), flush=True)
    return fault is None


def main():
    with tempfile.TemporaryDirectory() as tmp:
        f = write_inputs(Path(tmp))
        passed = [_run(f, *entry) for entry in RUNS]
    print(f"{sum(passed)} of {len(passed)} entries passed")
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: seeded item lists and their checks.

Every workload is a fixed list of items (one "pass"), built from the seed
alone.  The pass has a fixed composition of item kinds; the seed picks only
the trees, subsets and weights inside each kind.  Each kind pins its sizes
exactly (n, |X|, |E_X|, weight mode, k), so a new seed moves the work within
a kind but cannot turn a seconds-long pass into minutes.  A draw that misses the
pinned sizes or exceeds a cap in CAPS is refused before anything is timed.

An item returns (ok, canonical output).  `ok` is the item's own
formula-versus-oracle or expected-value check; the canonical output is what
the output digest hashes.  Items rebuild their trees from edge lists on every
execution, so a repeated pass never reuses a Tree's distance or path caches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("verify-sweep", "minor-large", "series-inertia")

# The CLI derives the sweep's first tree from --seed as
# random_tree(randint(2, n), seed=seed * stride); the stride is documented
# as fixed in the CLI.  Items pick CLI seeds whose first tree has exactly
# the pinned size, and check the size the report gives back.
CLI_SEED_STRIDE = 1_000_003

# Hard caps, checked on every generated input before it is timed.
CAPS = {
    "minor-verify.n": 8,
    "pf-verify.n": 12,
    "cycles-verify.n": 7,
    "minor.E_X": 17,  # minor_formula enumerates 2^|E_X| edge subsets
    "minor.n": 20,
    "minor.rational_X": 9,  # rational Bareiss cost grows steeply with |X|
    "rooted.unit_n": 8,
    "rooted.rational_n": 7,
    "rooted.rational_slots": 200,  # window x ramification of the series
    "star.n": 9,  # 2^n principal minors, each an exact inertia
}


@dataclass
class Item:
    kind: str
    sizes: dict
    spec: str  # the generated input, as text
    run: Callable[[], tuple[bool, str]] = field(repr=False)


@dataclass
class Workload:
    name: str
    items: list[Item]
    refused: int  # generated draws refused before timing
    inputs_sha256: str
    nominal_pass_s: float


# Typical time of one pass on a 2-vCPU x86-64 VM at 2.1 GHz with Python
# 3.11.  A run makes the number of whole passes that fill --seconds at this
# rate, so every run of a workload, on any commit, times the same number of
# samples and its tail percentile stays put.
NOMINAL_PASS_S = {"verify-sweep": 8.4, "minor-large": 6.8, "series-inertia": 5.9}


class _Refusals:
    def __init__(self):
        self.count = 0


def _cap(name: str, value) -> None:
    if value > CAPS[name]:
        raise ValueError(f"cap {name}={CAPS[name]} exceeded by {value}")


def _den_lcm(values) -> int:
    out = 1
    for x in values:
        out = math.lcm(out, Fraction(x).denominator)
    return out


# ---------------------------------------------------------------------------
# CLI items


def _cli_item(tm, kind: str, argv: list[str], sizes: dict, check) -> Item:
    cli = tm.cli  # cli.run is looked up per call, so a traced run sees its wrapper

    def run() -> tuple[bool, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        text = out.getvalue()
        if code != 0:
            return False, f"exit {code}\n{text}{err.getvalue()}"
        try:
            report = json.loads(text)
        except ValueError:
            return False, text
        return bool(check(report)), text

    return Item(kind, sizes, " ".join(argv), run)


def _sweep_seed(rng: random.Random, n: int) -> int:
    """A CLI --seed whose first sweep tree has exactly n vertices."""
    while True:
        s = rng.randrange(1, 10**6)
        if random.Random(s * CLI_SEED_STRIDE).randint(2, n) == n:
            return s


def _sweep_ok(n: int):
    def check(report) -> bool:
        rows = report["rows"]
        return (
            report["failures"] == 0
            and report["checked"] > 0
            and len(rows) == 1
            and rows[0]["ok"]
            and rows[0]["n"] == n
        )

    return check


# (subcommand, n, weights, copies per pass)
_SWEEP_KINDS = (
    ("minor-verify", 8, "unit", 3),
    ("pf-verify", 11, "unit", 1),
    ("pf-verify", 11, "rational", 1),
    ("cycles-verify", 7, "unit", 1),
    ("cycles-verify", 7, "rational", 1),
    ("minor-verify", 7, "rational", 3),
    ("minor-verify", 7, "unit", 2),
    ("pf-verify", 10, "unit", 3),  # the most numerous, uniform kind: the median item
    ("pf-verify", 10, "rational", 3),
    ("cycles-verify", 6, "unit", 1),
    ("cycles-verify", 6, "rational", 1),
    ("minor-verify", 6, "rational", 2),
    ("pf-verify", 8, "unit", 1),
    ("pf-verify", 8, "rational", 1),
    ("cycles-verify", 5, "unit", 2),
)


def _verify_sweep(tm, rng: random.Random, refusals: _Refusals) -> list[list[Item]]:
    groups = []
    for sub, n, weights, copies in _SWEEP_KINDS:
        _cap(f"{sub}.n", n)
        group = []
        for _ in range(copies):
            seed = _sweep_seed(rng, n)
            argv = [sub, "--trees", "1", "--n", str(n), "--weights", weights,
                    "--seed", str(seed), "--format", "json"]
            if sub == "pf-verify":
                argv += ["--negatives", "3"]
            if sub == "cycles-verify":
                argv += ["--max-x", "7"]
            sizes = {"n": n, "weights": weights, "X_max": 7 if sub == "cycles-verify" else n}
            group.append(_cli_item(tm, f"{sub}:n{n}:{weights}", argv, sizes, _sweep_ok(n)))
        groups.append(group)
    return groups


# ---------------------------------------------------------------------------
# minor-large


def _minor_item(tm, kind: str, edges, X, sizes: dict) -> Item:
    Tree = tm.tree.Tree
    minors = tm.minors

    def run() -> tuple[bool, str]:
        T = Tree(edges)
        formula = minors.minor_formula(T, X)
        oracle = minors.minor_oracle(T, X)
        lead = minors.minor_leading(T, X)
        ok = formula == oracle and lead == oracle.leading_term()
        return ok, f"{formula}\n{oracle}\n{lead[0]} {lead[1]}"

    return Item(kind, sizes, f"{edges} X={X}", run)


# (subset rule, n, weights, |X|, |E_X|, copies per pass).  Unit leaf sets
# cost 2^|E_X| forest subsets and little else, so they are the uniform
# kinds: n = 18 is the heaviest and sets the tail, the twelve n = 16 sets
# hold the median item between the eight n = 14 sets below and the rest
# above.  The random subsets load the Bareiss oracle, rational
# coefficients above all; their cost varies most from seed to seed.
_MINOR_KINDS = (
    ("leaves", 18, "unit", 7, 17, 4),
    ("subset", 18, "rational", 8, 12, 4),
    ("leaves", 16, "rational", 7, 15, 3),
    ("subset", 20, "unit", 10, 14, 2),
    ("leaves", 16, "unit", 7, 15, 12),
    ("leaves", 14, "unit", 6, 13, 8),
)


def _minor_large(tm, rng: random.Random, refusals: _Refusals) -> list[list[Item]]:
    groups = []
    for rule, n, weights, nx, ne, copies in _MINOR_KINDS:
        _cap("minor.n", n)
        _cap("minor.E_X", ne)
        if weights == "rational":
            _cap("minor.rational_X", nx)
        group = []
        while len(group) < copies:
            T = tm.tree.random_tree(n, seed=rng.randrange(10**9), weights=weights)
            X = list(T.leaves()) if rule == "leaves" else sorted(rng.sample(T.vertices, nx))
            _, E = T.spanned_subtree(X)
            # rational draws also pin the common denominator of the spanned
            # weights, which sets the exponent grid of every polynomial
            den = _den_lcm(T.weight(e) for e in E)
            if len(X) != nx or len(E) != ne or (weights == "rational" and den != 12):
                refusals.count += 1
                continue
            sizes = {"n": n, "X": nx, "E_X": ne, "weights": weights, "den": den}
            group.append(_minor_item(tm, f"{rule}:n{n}:{weights}", T.edges(), X, sizes))
        groups.append(group)
    return groups


# ---------------------------------------------------------------------------
# series-inertia


def _interior_root(T) -> int:
    return min(v for v in T.vertices if T.degree(v) > 1)


def _rooted_ok(report) -> bool:
    rows = report["rows"]
    return bool(rows) and all(r["valuation"] == r["subtree_weight"] for r in rows)


def _rooted_rational_item(tm, edges, root: int, k: int, sizes: dict) -> Item:
    Tree = tm.tree.Tree
    matroid = tm.matroid

    def run() -> tuple[bool, str]:
        T = Tree(edges)
        rep, reseeds = matroid.verify_rooted_representation(T, root, k)
        want = matroid.rooted_k_dissimilarity(T, root, k, ground=rep.ground)
        vals = [(Y, rep.series_valuation(Y)) for Y in itertools.combinations(rep.ground, k)]
        ok = all(v == want.value(Y) for Y, v in vals)
        return ok, f"reseeds {reseeds} window {rep.window}\n" + "\n".join(
            f"{Y} {v}" for Y, v in vals
        )

    return Item("rooted:rational", sizes, f"{edges} root={root} k={k}", run)


def _rooted_shape(tm, T, root: int):
    """(ground size, largest coupled block, series slots, window) of the
    rooted matrix over the leaves: the sizes that set the cost of its
    truncated Cholesky factor.  Series slots are the window times the
    common denominator of the exponents."""
    matroid = tm.matroid
    g = T.leaves()
    M = matroid.rooted_matrix(T, root, g)
    window = matroid.default_window(M)
    ram = _den_lcm(e for row in M.entries for p in row for e, _ in p.terms())
    parent = list(range(len(g)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            if not M.entries[i][j].is_zero():
                parent[find(i)] = find(j)
    blocks = [sum(1 for i in range(len(g)) if find(i) == r) for r in set(map(find, range(len(g))))]
    return len(g), max(blocks), window * ram, window


def _tree_metric(tm, rng: random.Random, n_tree: int, m: int):
    """Distances between m distinct vertices of a random tree with
    half-integer weights 1/2 .. 4."""
    T = tm.tree.Tree(
        [(rng.randint(1, v - 1), v, Fraction(rng.randint(1, 8), 2)) for v in range(2, n_tree + 1)]
    )
    pts = sorted(rng.sample(T.vertices, m))
    return [[T.dist(a, b) for b in pts] for a in pts]


def _star_item(tm, rows, sizes: dict) -> Item:
    metric = tm.metric

    def run() -> tuple[bool, str]:
        bad = metric.star_condition_check(metric.power_matrix(rows, 10))
        return bad is None, f"star {bad}"

    return Item("star:tau10", sizes, f"{rows}", run)


def _inertia_check(m: int):
    return lambda report: report["inertia"] == [1, m - 1, 0]


def _hpp_ok(report) -> bool:
    return report["ok"] is True


def _series_inertia(tm, rng: random.Random, refusals: _Refusals, workdir: str) -> list[list[Item]]:
    groups = []
    # exact inertia over square-root extensions: the star condition checks
    # all 2^9 principal minors of a powered half-integer tree metric; with
    # the k = 3 rooted items below, the heaviest kinds, so they set the tail
    _cap("star.n", 9)
    groups.append([_star_item(tm, _tree_metric(tm, rng, 13, 9), {"n": 9, "tau": "10"})
                   for _ in range(8)])
    # represent-rooted on unit trees, through the CLI; (n, k, coupled block,
    # window) pinned, since the Cholesky cost follows them
    for n, k, block, window, copies in ((8, 3, 3, 24, 3), (8, 2, 3, 24, 5)):
        _cap("rooted.unit_n", n)
        group = []
        while len(group) < copies:
            seed = rng.randrange(10**6)
            T = tm.tree.random_tree(n, seed=seed, weights="unit")
            if len(T.leaves()) != 4:
                refusals.count += 1
                continue
            root = _interior_root(T)
            shape = _rooted_shape(tm, T, root)
            if shape[1] != block or shape[3] != window:
                refusals.count += 1
                continue
            argv = ["represent-rooted", "--n", str(n), "--weights", "unit", "--seed", str(seed),
                    "--root", str(root), "--k", str(k), "--format", "json"]
            sizes = {"n": n, "ground": 4, "block": block, "k": k, "window": window,
                     "weights": "unit"}
            group.append(_cli_item(tm, f"rooted:n{n}:k{k}", argv, sizes, _rooted_ok))
        groups.append(group)
    # rational rooted cases: Cholesky on long series, through the library
    _cap("rooted.rational_n", 6)
    group = []
    while len(group) < 3:
        T = tm.tree.random_tree(6, seed=rng.randrange(10**9), weights="rational")
        root = _interior_root(T)
        ground, block, slots, window = _rooted_shape(tm, T, root)
        if ground != 3 or block != 2 or slots > CAPS["rooted.rational_slots"]:
            refusals.count += 1
            continue
        sizes = {"n": 6, "ground": ground, "block": block, "k": 2, "weights": "rational",
                 "window": str(window), "slots": str(slots)}
        group.append(_rooted_rational_item(tm, T.edges(), root, 2, sizes))
    groups.append(group)
    # hpp-check is the most uniform kind and the most numerous, so the
    # median item falls among its items
    for sub, m, copies in (("hpp-check", 24, 8), ("signature", 24, 6)):
        group = []
        for i in range(copies):
            rows = _tree_metric(tm, rng, m + 4, m)
            path = os.path.join(workdir, f"{sub}-{i}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(tm.metric.format_matrix_csv(rows))
            argv = [sub, "--matrix", path, "--format", "json"]
            if sub == "signature":
                # a powered tree metric on distinct points has inertia (1, m-1, 0)
                argv += ["--tau", "10"]
                check = _inertia_check(m)
            else:
                check = _hpp_ok
            item = _cli_item(tm, f"{sub}:n{m}", argv, {"n": m, "tau": "10"}, check)
            item.spec += f" {rows}"
            group.append(item)
        groups.append(group)
    return groups


# ---------------------------------------------------------------------------


def build(name: str, tm, seed: int, workdir: str) -> Workload:
    """The workload's pass for this seed.  `tm` is the imported treeminor
    package; `workdir` receives matrix files that the CLI reads."""
    rng = random.Random(f"{name}:{seed}")
    refusals = _Refusals()
    if name == "verify-sweep":
        groups = _verify_sweep(tm, rng, refusals)
    elif name == "minor-large":
        groups = _minor_large(tm, rng, refusals)
    elif name == "series-inertia":
        groups = _series_inertia(tm, rng, refusals, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    items = [it for group in groups for it in group]
    h = hashlib.sha256()
    for it in items:
        h.update(f"{it.kind}\n{it.spec}\n".encode())
    return Workload(name, items, refusals.count, h.hexdigest(), NOMINAL_PASS_S[name])

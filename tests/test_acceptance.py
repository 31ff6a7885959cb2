"""Acceptance sweep: one test per release criterion, one printed verdict each.

Every check is exact (Fraction / polynomial / quadratic-radical arithmetic);
there are no numeric tolerances anywhere.  Seeds are fixed so the whole file
is reproducible bit for bit.  Run with -s to watch the verdict lines.
"""

import itertools
import random
import time
from fractions import Fraction

from treeminor.cyclekernel import (
    Forest,
    bracket_closed,
    bracket_enum,
    cycle_partitions,
    det_via_cycles,
    det_via_tight_cycles,
    partition_sign,
    support,
)
from treeminor.matroid import (
    check_delta_matroid,
    check_valuated_matroid,
    k_dissimilarity,
    odd_dissimilarity,
    represent_odd,
    rooted_k_dissimilarity,
    rooted_matrix,
    verify_rooted_representation,
)
from treeminor.metric import (
    check_4pc,
    power_matrix,
    random_symmetric_matrix,
    realize_tree,
    spectral_signature,
    split_potentials,
    square_cycle_metric,
    star_condition_check,
)
from treeminor.minors import minor_formula, minor_leading, minor_oracle
from treeminor.pfaffian import pf_formula, pf_oracle
from treeminor.poly import ExactPoly, det
from treeminor.tree import Tree, random_tree

F = Fraction


def verdict(num, label, failures=(), extra=""):
    bad = list(failures)
    tag = "FAIL" if bad else "PASS"
    note = f" ({extra})" if extra else ""
    print(f"criterion {num}: {tag} - {label}{note}")
    assert not bad, f"criterion {num} ({label}): " + "; ".join(
        str(b) for b in bad[:5]
    )


def metric_rows(t):
    pts = sorted(t.vertices)
    return [[t.dist(a, b) for b in pts] for a in pts]


def test_criterion_1_full_vertex_minor_closed_form():
    # det over the whole vertex set of a unit-weight tree collapses to
    # (1 - t^2)^(n-1), whatever the shape
    start = time.perf_counter()
    rng = random.Random(10)
    base = ExactPoly.one() - ExactPoly.t_power(2)
    failures = []
    for i in range(100):
        n = rng.randint(2, 10)
        t = random_tree(n, seed=1000 + i)
        got = minor_formula(t, sorted(t.vertices))
        if got != base ** (n - 1):
            failures.append(f"tree seed {1000 + i} (n={n})")
    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    verdict(1, "100 whole-tree minors equal (1-t^2)^(n-1)", failures,
            f"{elapsed:.1f}s")


def test_criterion_2_forest_expansion_matches_determinant():
    # the signed spanned-forest expansion, the elimination determinant, and
    # the closed-form leading term agree on every nonempty subset
    start = time.perf_counter()
    rng = random.Random(20)
    failures = []
    checked = 0
    for i in range(30):
        n = rng.randint(2, 8)
        t = random_tree(n, seed=2000 + i, weights="rational" if i % 2 else "unit")
        vs = sorted(t.vertices)
        for r in range(1, n + 1):
            for xs in itertools.combinations(vs, r):
                oracle = minor_oracle(t, xs)
                if minor_formula(t, xs) != oracle:
                    failures.append(f"formula != det at seed {2000 + i}, X={xs}")
                if minor_leading(t, xs) != oracle.leading_term():
                    failures.append(f"leading term off at seed {2000 + i}, X={xs}")
                checked += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    verdict(2, "forest expansion = determinant on all subsets of 30 trees",
            failures, f"{checked} subsets, {elapsed:.1f}s")


def test_criterion_3_powered_distance_inertia():
    # [tau^(d_ij)] restricted to any subset has exactly one positive
    # eigenvalue, the rest negative (tau = 10, integer distances)
    rng = random.Random(30)
    failures = []
    checked = 0
    for i in range(10):
        n = rng.randint(2, 8)
        t = random_tree(n, seed=3000 + i)
        rows = t.distance_matrix()
        for r in range(1, n + 1):
            for xs in itertools.combinations(range(n), r):
                got = spectral_signature(rows, 10, xs)
                if got != (1, r - 1, 0):
                    failures.append(f"inertia {got} at seed {3000 + i}, X={xs}")
                checked += 1
    verdict(3, "powered distance matrices have inertia (1, |X|-1, 0)",
            failures, f"{checked} subsets")


def test_criterion_4_pfaffian_monomial():
    # nicely ordered even subsets: Pf = t^(odd-edge weight); orders that
    # reuse an edge more than twice genuinely break the monomial shape
    rng = random.Random(40)
    failures = []
    positives = negatives = 0
    for i in range(30):
        n = rng.randint(2, 8)
        t = random_tree(n, seed=4000 + i, weights="rational" if i % 2 else "unit")
        vs = sorted(t.vertices)
        for r in range(2, n + 1, 2):
            for xs in itertools.combinations(vs, r):
                order = t.nice_order(xs)
                if pf_formula(t, order) != pf_oracle(t, order):
                    failures.append(f"seed {4000 + i}, order {order}")
                positives += 1
                if r >= 4 and negatives < 40:
                    odd_total = sum(t.weight(e) for e in t.odd_edges(xs))
                    for _ in range(6):
                        perm = list(xs)
                        rng.shuffle(perm)
                        if t.is_nicely_ordered(perm)[0]:
                            continue
                        if pf_oracle(t, perm) != ExactPoly.t_power(odd_total):
                            negatives += 1
                            break
    if negatives < 20:
        failures.append(f"only {negatives} non-nice counterexamples found")
    verdict(4, "Pfaffian monomial on nice orders, broken by bad orders",
            failures, f"{positives} orders, {negatives} counterexamples")


def test_criterion_5_cycle_expansion_chain():
    rng = random.Random(50)
    failures = []

    # full and tight cycle-partition sums both reproduce the minor
    checked = 0
    for i in range(10):
        t = random_tree(rng.randint(3, 7), seed=5000 + i,
                        weights="rational" if i % 2 else "unit")
        vs = sorted(t.vertices)
        for r in range(1, min(6, len(vs)) + 1):
            for xs in itertools.combinations(vs, r):
                want = minor_formula(t, xs)
                if det_via_cycles(t, xs) != want:
                    failures.append(f"cycle sum off at seed {5000 + i}, X={xs}")
                if det_via_tight_cycles(t, xs) != want:
                    failures.append(f"tight sum off at seed {5000 + i}, X={xs}")
                checked += 1

    # support buckets holding an edge of multiplicity >= 4 cancel sign-wise
    heavy = 0
    for i in range(3):
        t = random_tree(6, seed=5100 + i)
        xs = tuple(sorted(t.vertices))[:5]
        buckets = {}
        for w in cycle_partitions(xs):
            key = tuple(sorted(support(t, w).items()))
            buckets[key] = buckets.get(key, 0) + partition_sign(w)
        for key, total in buckets.items():
            if any(mult >= 4 for _, mult in key):
                heavy += 1
                if total != 0:
                    failures.append(f"bucket {key} sums to {total}")
    if heavy == 0:
        failures.append("no multiplicity-4 buckets encountered")

    # bracket enumeration equals its closed form on every spanned forest
    brackets = 0
    for i, n in enumerate((4, 5, 6)):
        t = random_tree(n, seed=5200 + i)
        tree_edges = [(u, v) for u, v, _ in t.edges()]
        vs = sorted(t.vertices)
        for keep_r in range(len(tree_edges) + 1):
            for keep in itertools.combinations(tree_edges, keep_r):
                f = Forest(vs, keep)
                for r in range(min(5, n) + 1):
                    for xs in itertools.combinations(vs, r):
                        if not f.is_spanned_by(frozenset(xs)):
                            continue
                        if bracket_enum(f, xs) != bracket_closed(f, xs):
                            failures.append(f"bracket off: n={n}, {keep}, X={xs}")
                        brackets += 1

    # star-forest ladder: hand seeds -1 and 2, then both recurrences
    def star_forest(k, center_in_x):
        f = Forest(range(k + 1), [(0, i) for i in range(1, k + 1)])
        x = set(range(1, k + 1)) | ({0} if center_in_x else set())
        return f, frozenset(x)

    a = {2: bracket_enum(*star_forest(2, False)),
         3: bracket_enum(*star_forest(3, False))}
    if a[2] != -1 or a[3] != 2:
        failures.append(f"star seeds came out {a}")
    for k in range(4, 8):
        a[k] = bracket_enum(*star_forest(k, False))
        if a[k] != -(k - 1) * (a[k - 1] + a[k - 2]):
            failures.append(f"open-star recurrence breaks at k={k}")
    b = {2: bracket_enum(*star_forest(1, True))}
    if b[2] != -1:
        failures.append(f"closed-star seed came out {b[2]}")
    for k in range(3, 8):
        b[k] = bracket_enum(*star_forest(k - 1, True))
        if b[k] != a[k] + a[k - 1]:
            failures.append(f"closed-star recurrence breaks at k={k}")

    verdict(5, "cycle-partition expansions, bucket cancellation, brackets",
            failures, f"{checked} subsets, {brackets} brackets")


def test_criterion_6_metric_layer():
    rng = random.Random(60)
    failures = []

    # tree metrics pass the four-point scan; the square cycle fails it
    for i in range(15):
        t = random_tree(rng.randint(3, 10), seed=6000 + i,
                        weights="rational" if i % 3 == 2 else "unit")
        if check_4pc(metric_rows(t)) is not None:
            failures.append(f"tree metric rejected at seed {6000 + i}")
    c4 = check_4pc(square_cycle_metric())
    if c4 is None or len(c4.quadruple) != 4:
        failures.append("square-cycle metric slipped through")

    # split/join of potentials is the exact identity; realization returns
    # every pairwise distance unchanged
    for i in range(100):
        t = random_tree(rng.randint(2, 8), seed=6100 + i,
                        weights="rational" if i % 2 else "unit")
        d = metric_rows(t)
        n = len(d)
        p = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        w = [[d[a][b] + p[a] + p[b] for b in range(n)] for a in range(n)]
        d2, p2 = split_potentials(w)
        if d2 != d or list(p2) != p:
            failures.append(f"split/join not inverse at seed {6100 + i}")
        if [[d2[a][b] + p2[a] + p2[b] for b in range(n)] for a in range(n)] != w:
            failures.append(f"recompose drifted at seed {6100 + i}")
        built, place = realize_tree(d)
        for a in range(n):
            for b in range(n):
                if built.dist(place[a], place[b]) != d[a][b]:
                    failures.append(f"realization off at seed {6100 + i}")
                    break
            else:
                continue
            break
    verdict(6, "four-point scan, potential split/join, exact realization",
            failures)


def test_criterion_7_star_condition_tracks_four_point():
    # the alternating minor-sign condition on the powered matrix agrees
    # with the four-point scan across a mixed population, pass and fail
    rng = random.Random(70)
    failures = []
    passed = violated = 0
    for i in range(500):
        kind = i % 5
        n = rng.randint(2, 5)
        if kind < 2:
            w = random_symmetric_matrix(n, seed=7000 + i, high=6)
        elif kind < 4:
            w = metric_rows(random_tree(n, seed=7000 + i))
        else:
            w = metric_rows(random_tree(n, seed=7000 + i))
            a = rng.randrange(n)
            b = rng.randrange(n)
            if a != b:
                bump = F(rng.randint(1, 4), 2)
                w[a][b] = w[b][a] = w[a][b] + bump
        ok4 = check_4pc(w) is None
        ok_star = all(
            star_condition_check(power_matrix(w, tau)) is None
            for tau in (10, 100)
        )
        if ok4 != ok_star:
            failures.append(f"disagreement at i={i}: 4pc={ok4}, star={ok_star}")
        passed += ok4
        violated += not ok4
    if passed < 50 or violated < 50:
        failures.append(f"lopsided sample: {passed} ok, {violated} violating")
    verdict(7, "star sign condition tracks the four-point scan on 500 matrices",
            failures, f"{passed} ok / {violated} violating")


def test_criterion_8_representation_valuations():
    rng = random.Random(80)
    failures = []

    # skew path-power matrix: Pf valuations give the odd-edge map, and the
    # inverted-variable matrix gives its negative, over every even subset
    evens = 0
    for i, n in enumerate(range(2, 9)):
        t = random_tree(n, seed=8000 + i, weights="rational" if i % 2 else "unit")
        rep = represent_odd(t)
        fn = odd_dissimilarity(t)
        neg = fn.negate()
        for r in range(0, n + 1, 2):
            for xs in itertools.combinations(sorted(t.vertices), r):
                if rep.value(xs) != fn.value(xs):
                    failures.append(f"Pf valuation off at n={n}, X={xs}")
                if rep.dual_value(xs) != neg.value(xs):
                    failures.append(f"dual Pf valuation off at n={n}, X={xs}")
                evens += 1

    # root-reduced matrix: raw minor valuations are exactly twice the rooted
    # subtree weight, and halving the variable lands exactly on it
    minors_checked = 0
    for i, n in enumerate(range(3, 8)):
        t = random_tree(n, seed=8100 + i, weights="rational" if i % 2 else "unit")
        vs = sorted(t.vertices)
        root = vs[0]
        ground = vs[1:]
        m = rooted_matrix(t, root, ground)
        for k in range(1, min(3, len(ground)) + 1):
            fn = rooted_k_dissimilarity(t, root, k, ground=ground)
            for pos in itertools.combinations(range(len(ground)), k):
                ys = tuple(ground[p] for p in pos)
                d = det(m.principal_submatrix(pos))
                want = fn.value(ys)
                if d.leading_term()[0] != 2 * want:
                    failures.append(f"raw valuation off at n={n}, Y={ys}")
                if d.power_substitute(F(1, 2)).leading_term()[0] != want:
                    failures.append(f"halved valuation off at n={n}, Y={ys}")
                minors_checked += 1

    # the truncated-series factorization path agrees with the exact path
    reseed_total = 0
    for i in range(10):
        t = random_tree(rng.randint(4, 6), seed=8200 + i,
                        weights="rational" if i % 2 else "unit")
        root = next(v for v in sorted(t.vertices) if t.degree(v) >= 2)
        rep, reseeds = verify_rooted_representation(t, root, 2, max_reseeds=5)
        reseed_total += reseeds
        for ys in itertools.combinations(rep.ground, 2):
            if rep.series_valuation(ys) != rep.exact_minor_valuation(ys) / 2:
                failures.append(f"series path off at seed {8200 + i}, Y={ys}")
    verdict(8, "Pfaffian/minor valuations equal the dissimilarity maps",
            failures,
            f"{evens} even sets, {minors_checked} minors, {reseed_total} reseeds")


def test_criterion_9_exchange_axioms():
    rng = random.Random(90)
    failures = []

    # leaf k-subset subtree weights satisfy the k-exchange inequality
    maps = 0
    for i in range(10):
        t = random_tree(rng.randint(4, 8), seed=9000 + i,
                        weights="rational" if i % 2 else "unit")
        leaves = t.leaves()
        assert len(leaves) <= 7
        for k in (2, 3):
            if len(leaves) < k:
                continue
            bad = check_valuated_matroid(k_dissimilarity(t, k))
            if bad is not None:
                failures.append(f"k-exchange fails at seed {9000 + i}, k={k}: {bad}")
            maps += 1

    # the odd-edge map and its negative both satisfy the symmetric-difference
    # exchange inequality
    for i, n in enumerate(range(2, 8)):
        t = random_tree(n, seed=9100 + i, weights="rational" if i % 2 else "unit")
        fn = odd_dissimilarity(t)
        for tagged in (fn, fn.negate()):
            bad = check_delta_matroid(tagged)
            if bad is not None:
                failures.append(f"delta exchange fails at n={n}: {bad}")
    verdict(9, "subtree-weight maps satisfy their exchange axioms", failures,
            f"{maps} k-maps")

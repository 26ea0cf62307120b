"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s or
in the captured output section of a failing run).
"""

import random
from math import factorial

from hsl.antipode import (Adjunction, antipode_axiom_check,
                          antipode_on_inverted_check, box_indecomposables,
                          closed_form_antipode, primitives_basis,
                          reassembly_poset, takeuchi_antipode)
from hsl.families import (GRAPHS, HYPERGRAPHS, PARTITIONS, SIMPLICIAL,
                          Hypergraph, chromatic_polynomial,
                          closed_form_antipode_graphs,
                          closed_form_antipode_partitions,
                          closed_form_antipode_sc, parse_structure)
from hsl.posets import check_galois, rota_transfer_check
from hsl.axioms import verify_axioms
from hsl.species import subsets
from hsl.vectors import split_galois_setup
from hsl.fock import partition_char_poly_check, power_sum_identity_check
from adjunction_oracle import comult_vector, duality_by_triples
from literal_oracle import acyclic_orientations_brute


def _report(num, name, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_01_antipode_triple_agreement_graphs():
    ok = True
    for g in GRAPHS.enumerate(frozenset(range(4))):
        defining = takeuchi_antipode(GRAPHS, g)
        closed = closed_form_antipode(GRAPHS, g).vector
        flats = closed_form_antipode_graphs(g)
        ok = ok and defining == closed == flats
    _report(1, "graphs n=4: defining sum == closed form == flat/acyclic formula", ok)


def test_criterion_02_antipode_agreement_partitions():
    ok = True
    count = 0
    for n in range(6):
        for q in PARTITIONS.enumerate(frozenset(range(n))):
            count += 1
            defining = takeuchi_antipode(PARTITIONS, q)
            closed = closed_form_antipode(PARTITIONS, q).vector
            block_formula = closed_form_antipode_partitions(q)
            ok = ok and defining == closed == block_formula
    ok = ok and count == 1 + 1 + 2 + 5 + 15 + 52
    _report(2, "partitions n<=5: defining sum == closed form == factorial formula", ok)


def test_criterion_03_antipode_agreement_hypergraphs():
    ok = True
    for h in HYPERGRAPHS.enumerate(frozenset(range(3))):
        ok = ok and takeuchi_antipode(HYPERGRAPHS, h) == closed_form_antipode(
            HYPERGRAPHS, h).vector
    labels4 = frozenset(range(4))
    pool = [frozenset(c) for k in range(2, 5)
            for c in __import__("itertools").combinations(range(4), k)]
    rng = random.Random(20260809)
    seen = set()
    while len(seen) < 200:
        mask = rng.randrange(2 ** len(pool))
        if mask in seen:
            continue
        seen.add(mask)
        h = Hypergraph(labels4, frozenset(
            pool[i] for i in range(len(pool)) if mask >> i & 1))
        ok = ok and takeuchi_antipode(HYPERGRAPHS, h) == closed_form_antipode(
            HYPERGRAPHS, h).vector
    _report(3, "hypergraphs: all n=3 plus 200 random n=4, defining == closed", ok)


def test_criterion_04_antipode_agreement_simplicial():
    ok = True
    for n in range(5):
        for c in SIMPLICIAL.enumerate(frozenset(range(n))):
            defining = takeuchi_antipode(SIMPLICIAL, c)
            skeleton_formula = closed_form_antipode_sc(c)
            closed = closed_form_antipode(SIMPLICIAL, c).vector
            ok = ok and defining == skeleton_formula == closed
    _report(4, "complexes n<=4: defining sum == skeleton formula == closed form", ok)


def test_criterion_05_literal_lower_discrepancy_log():
    ok = True
    # two-element chains in both families: the corrected form matches the
    # defining sum; the literal lower form differs exactly by a flipped
    # sign on the top coefficient
    p01 = parse_structure("P:n=2;B=01")
    singles = parse_structure("P:n=2;B=0|1")
    closed = closed_form_antipode(PARTITIONS, p01)
    defining = takeuchi_antipode(PARTITIONS, p01)
    ok = ok and closed.vector == defining
    ok = ok and closed.vector.coefficient(singles) == 2
    ok = ok and closed.literal_lower_vector.coefficient(singles) == -2
    ok = ok and closed.literal_lower_vector.coefficient(p01) == defining.coefficient(p01)
    ok = ok and closed.literal_lower_vector != defining

    k2 = parse_structure("G:n=2;E=0-1")
    empty = parse_structure("G:n=2;E=")
    closed = closed_form_antipode(GRAPHS, k2)
    defining = takeuchi_antipode(GRAPHS, k2)
    ok = ok and closed.vector == defining
    ok = ok and closed.vector.coefficient(empty) == 2
    ok = ok and closed.literal_lower_vector.coefficient(empty) == -2
    ok = ok and closed.literal_lower_vector.coefficient(k2) == defining.coefficient(k2)
    ok = ok and closed.literal_lower_vector != defining
    _report(5, "literal lower form reproduces the documented sign delta", ok)


def test_criterion_06_eigen_identity():
    ok = True
    for fam in (GRAPHS, HYPERGRAPHS, SIMPLICIAL, PARTITIONS):
        for n in range(4):
            for x in fam.enumerate(frozenset(range(n))):
                ok = ok and antipode_on_inverted_check(fam, x)[0]
    for g in GRAPHS.enumerate(frozenset(range(4))):
        ok = ok and antipode_on_inverted_check(GRAPHS, g)[0]
    _report(6, "S(omega_x) = (-1)^ell(x) omega_x, all families n<=3, graphs n=4", ok)


def _connected_labeled_graph_count(n):
    # brute-force connectivity enumeration, independent of the library route
    count = 0
    for g in GRAPHS.enumerate(frozenset(range(n))):
        seen = {min(g.labels)} if g.labels else set()
        frontier = list(seen)
        while frontier:
            v = frontier.pop()
            for e in g.edges:
                if v in e:
                    w = next(u for u in e if u != v)
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
        if seen == set(g.labels):
            count += 1
    return count


def test_criterion_07_primitives():
    ok = [_connected_labeled_graph_count(n) for n in range(1, 5)] == [1, 1, 4, 38]
    adj = Adjunction(GRAPHS, "delta_box")
    for n in range(1, 5):
        labels = frozenset(range(n))
        vectors = primitives_basis(adj, labels)
        ok = ok and len(vectors) == _connected_labeled_graph_count(n)
        for v in vectors:
            for S in subsets(labels):
                T = labels - S
                if S and T:
                    ok = ok and comult_vector(GRAPHS, v, S, T).is_zero
    for adj in (Adjunction(HYPERGRAPHS, "delta_box"),
                Adjunction(SIMPLICIAL, "m_delta")):
        for n in range(1, 4):
            labels = frozenset(range(n))
            vectors = primitives_basis(adj, labels)
            ok = ok and len(vectors) == len(box_indecomposables(adj, labels))
            ok = ok and len(vectors) > 0
            for v in vectors:
                for S in subsets(labels):
                    T = labels - S
                    if S and T:
                        ok = ok and comult_vector(adj.family, v, S, T).is_zero
    _report(7, "primitive bases annihilate proper splits; graph count 1,1,4,38", ok)


def test_criterion_08_inverted_basis_coproduct():
    # the coefficient of b in Delta_{S,T}(omega_x) and in the free-product
    # fibre sum of omega_{x1} (x) omega_{x2} are the two sides of Rota's
    # transfer at (x, b), so one scan per split checks every x
    ok = True
    for fam in (GRAPHS, HYPERGRAPHS):
        adj = Adjunction(fam, "delta_box")
        for n in range(4):
            labels = frozenset(range(n))
            for S in subsets(labels):
                setup = split_galois_setup(fam, adj.poset, adj.box, S, labels - S)
                ok = ok and rota_transfer_check(*setup).ok
    _report(8, "split of omega_x equals the free-product fiber sum, n<=3", ok)


def test_criterion_09_adjunction_matrix():
    cases = [(GRAPHS, "delta_box"), (GRAPHS, "delta_m"),
             (HYPERGRAPHS, "delta_box"), (PARTITIONS, "delta_m"),
             (SIMPLICIAL, "m_delta")]
    ok = True
    for fam, kind in cases:
        adj = Adjunction(fam, kind)
        for n in range(4):
            labels = frozenset(range(n))
            for S in subsets(labels):
                T = labels - S
                setup = split_galois_setup(adj.family, adj.poset, adj.box, S, T)
                ok = ok and check_galois(*setup).ok and rota_transfer_check(*setup).ok
    _report(9, "five declared adjunctions pass the Galois and transfer checks", ok)


def test_criterion_10_axioms_and_classification():
    ok = True
    for fam in (GRAPHS, HYPERGRAPHS, SIMPLICIAL, PARTITIONS):
        report = verify_axioms(fam, 3)
        ok = ok and report.passed
        ok = ok and report.result("commutativity").passed
        ok = ok and report.result("cocommutativity").passed
    for fam in (GRAPHS, PARTITIONS):
        ok = ok and verify_axioms(fam, 4).passed
    for fam in (GRAPHS, HYPERGRAPHS, SIMPLICIAL, PARTITIONS):
        view = reassembly_poset(fam, frozenset(range(3)))
        for x in view.elems:
            ups = set(view.upset(x))
            ok = ok and x in ups
            for y in ups:
                ok = ok and not (view.leq(y, x) and y != x)
                ok = ok and set(view.upset(y)) <= ups
    _report(10, "axiom sweeps pass; merge/split commute; reassembly is a poset", ok)


def test_criterion_11_convolution_certificate():
    ok = True
    for fam in (GRAPHS, HYPERGRAPHS, SIMPLICIAL, PARTITIONS):
        ok = ok and antipode_axiom_check(fam, 3)[0]
        closed = lambda y, fam=fam: closed_form_antipode(fam, y).vector
        ok = ok and antipode_axiom_check(fam, 3, antipode=closed)[0]
    _report(11, "convolution identity certifies both antipode methods, n<=3", ok)


def test_criterion_12_symmetric_functions():
    ok = True
    for n, expected in ((1, 1), (2, 1), (3, 2)):
        report = power_sum_identity_check(n)
        ok = ok and report.proportional and report.scalar == expected
    for n in (4, 5):
        report = power_sum_identity_check(n)
        ok = ok and report.proportional and report.scalar not in (0, None)
    for n in range(1, 7):
        char = partition_char_poly_check(n)
        ok = ok and char.ok
        ok = ok and ("upper", "blocks") in char.matches
        matched = char.polynomials[("upper", "blocks")]
        ok = ok and matched.evaluate(-1) == (-1) ** n * factorial(n)
    _report(12, "power sums recovered (scalars 1,1,2,*,*); char poly n<=6", ok)


def test_criterion_13_zaslavsky_cross_check():
    ok = True
    for n in range(6):
        for g in GRAPHS.enumerate(frozenset(range(n))):
            ok = ok and acyclic_orientations_brute(g) == abs(
                chromatic_polynomial(g).evaluate(-1))
    _report(13, "orientation counts equal |chromatic(-1)| for all graphs n<=5", ok)


def kronecker_row(p, i) -> dict:
    """{j: <omega_x, elems[j]>} for x = p.elems[i] and each y = elems[j]
    of its up-set, elsewhere 0: the sum of the compiled row mu(x, .) over
    up(x) & down(y), one popcount per distinct value of the row."""
    row = p.mu(i)
    classes: dict = {}  # value -> bitset of the positions where the row takes it
    for k, v in row.items():
        classes[v] = classes.get(v, 0) | 1 << k
    return {j: sum(v * (c & p.down[j]).bit_count() for v, c in classes.items())
            for j in row}


def test_criterion_14_duality():
    # Kronecker duality <omega_x, y> == [x == y] from the rows, and the
    # pairing <Delta_{S,T}(x), y (x) z> == <x, y box z> by the literal
    # loop over every triple (x, y, z) of each split
    ok = True
    for fam in (GRAPHS, HYPERGRAPHS):
        for n in range(4):
            p = fam.poset(frozenset(range(n)))
            for i in range(len(p.elems)):
                ok = ok and all(s == (j == i) for j, s in kronecker_row(p, i).items())
        ok = ok and duality_by_triples(fam, fam.poset, fam.box, 3)[0]
    _report(14, "Kronecker duality and the pairing identity, n<=3", ok)

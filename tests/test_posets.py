import random
from types import SimpleNamespace
from fractions import Fraction

import pytest

from hsl.antipode import Adjunction, reassembly_poset
from hsl.errors import CarrierOverflow, NotComparable
from hsl.families import (FAMILIES, GRAPHS, HYPERGRAPHS, PARTITIONS,
                          SIMPLICIAL, parse_structure)
from hsl.posets import (FinitePoset, GaloisReport, IntPolynomial, _positions, _word,
                        check_galois, interval, mobius, rota_transfer_check)
from hsl.species import _native_poset, subsets
from hsl.vectors import inverted_basis
from adjunction_oracle import product_by_shifts, three_scan_check_galois
from family_replace import replace
from literal_oracle import (_bits, graded_char_eval, graded_char_poly,
                            rota_transfer_pair, transpose)


def from_leq(elems, leq, family_tag=None):
    """Compile an order oracle over `elems`, one call per pair."""
    elems = tuple(elems)
    up = [sum(1 << j for j, y in enumerate(elems) if leq(x, y)) for x in elems]
    return FinitePoset(elems, up, transpose(up), family_tag)


def chain_poset(n):
    return from_leq(range(n), lambda a, b: a <= b, "chain")


def diamond_poset():
    # 0 < 1, 2 < 3 with 1, 2 incomparable
    order = {(0, 0), (1, 1), (2, 2), (3, 3),
             (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    return from_leq(range(4), lambda a, b: (a, b) in order)


def recursive_mobius(p, x, y, memo):
    """mu(x, y) from its defining recursion over the interval [x, y],
    memoized in `memo` by the pair of elements."""
    if (x, y) not in memo:
        memo[(x, y)] = 1 if x == y else -sum(
            recursive_mobius(p, x, z, memo) for z in interval(p, x, y) if z != y)
    return memo[(x, y)]


def mobius_matrix_oracle(p):
    """Invert the zeta matrix of the carrier by back substitution, from
    `leq` alone.  Returns {(x, y): mu(x, y)} over the pairs x <= y."""
    elems = list(p.elems)
    n = len(elems)
    order = sorted(range(n), key=lambda i: sum(1 for j in range(n) if p.leq(elems[j], elems[i])))
    mu = {}
    for ii, i in enumerate(order):
        for j in order[:ii + 1][::-1]:
            if not p.leq(elems[j], elems[i]):
                continue
            if i == j:
                mu[(j, i)] = Fraction(1)
                continue
            total = Fraction(0)
            for k in range(n):
                if k != j and p.leq(elems[j], elems[k]) and p.leq(elems[k], elems[i]):
                    total += mu.get((k, i), Fraction(0))
            mu[(j, i)] = -total
    return {(elems[j], elems[i]): int(v) for (j, i), v in mu.items()}


def _oracle_orders():
    """The orders the bitset Möbius function is pinned on, each with its
    opposite: every native and every reassembly order on at most 3
    labels, the partition order on 4, one product order and two small
    abstract orders."""
    orders = [chain_poset(4), diamond_poset(),
              PARTITIONS.poset(frozenset(range(4))),
              FinitePoset.product(GRAPHS.poset(frozenset({0, 1})),
                                  PARTITIONS.poset(frozenset({2, 3, 4})))]
    for fam in FAMILIES.values():
        for n in range(4):
            orders.append(fam.poset(frozenset(range(n))))
            orders.append(reassembly_poset(fam, frozenset(range(n))))
    return orders + [p.reverse() for p in orders]


def test_mobius_base_cases():
    p = chain_poset(3)
    assert mobius(p, 1, 1) == 1
    assert mobius(p, 0, 1) == -1
    assert mobius(p, 0, 2) == 0


def test_mobius_not_comparable():
    p = diamond_poset()
    with pytest.raises(NotComparable):
        mobius(p, 1, 2)


def test_mobius_against_zeta_inversion_oracle():
    for p in _oracle_orders():
        oracle = mobius_matrix_oracle(p)
        memo: dict = {}
        pairs = 0
        for x in p.elems:
            for y in p.upset(x):
                assert mobius(p, x, y) == oracle[(x, y)] == recursive_mobius(p, x, y, memo)
                pairs += 1
        assert pairs == len(oracle)


def test_mobius_partition_lattice_n3():
    p = PARTITIONS.poset(frozenset(range(3)))
    one_block = parse_structure("P:n=3;B=012")
    singletons = parse_structure("P:n=3;B=0|1|2")
    assert mobius(p, one_block, singletons) == 2


def test_interval_examples():
    p = GRAPHS.poset(frozenset({0, 1}))
    empty = parse_structure("G:n=2;E=")
    k2 = parse_structure("G:n=2;E=0-1")
    assert interval(p, empty, empty) == (empty,)
    assert set(interval(p, empty, k2)) == {empty, k2}

    p3 = GRAPHS.poset(frozenset(range(3)))
    k3 = parse_structure("G:n=3;E=0-1,0-2,1-2")
    assert len(interval(p3, parse_structure("G:n=3;E="), k3)) == 8


def test_interval_requires_comparability():
    p = GRAPHS.poset(frozenset(range(3)))
    a = parse_structure("G:n=3;E=0-1")
    b = parse_structure("G:n=3;E=0-2")
    with pytest.raises(NotComparable):
        interval(p, a, b)


def test_mobius_inversion_round_trip():
    rng = random.Random(7)
    for p in (chain_poset(5), diamond_poset(),
              GRAPHS.poset(frozenset(range(3))),
              PARTITIONS.poset(frozenset(range(4)))):
        carrier = p.elems
        f = {x: rng.randint(-9, 9) for x in carrier}
        g = {x: sum(mobius(p, x, y) * f[y] for y in p.upset(x)) for x in carrier}
        for x in carrier:
            assert sum(g[y] for y in p.upset(x)) == f[x]


def test_mu_row_sums_to_the_delta_over_each_interval():
    # the row mu(x, .) covers the up-set of x, and sums over [x, w] to 1
    # at w = x and 0 above it, for every w >= x
    for p in (diamond_poset(), chain_poset(4), PARTITIONS.poset(frozenset(range(4))),
              reassembly_poset(GRAPHS, frozenset(range(3)))):
        for i, x in enumerate(p.elems):
            row = p.mu(i)
            assert set(row) == {p.index[y] for y in p.upset(x)}
            for w in row:
                assert sum(row[k] for k in row if p.up[k] >> w & 1) == (w == i)


def test_product_downsets_are_the_transpose_of_its_upsets():
    labels = frozenset(range(2))
    for left, right in ((GRAPHS.poset(labels), chain_poset(3)),
                        (PARTITIONS.poset(frozenset(range(3))),
                         SIMPLICIAL.poset(labels).reverse()),
                        (reassembly_poset(SIMPLICIAL, labels), diamond_poset())):
        prod = FinitePoset.product(left, right)
        assert prod.down == transpose(prod.up)


def test_every_compiled_order_carries_the_transpose_of_its_upsets():
    # the native orders and their opposites of every family on at most 4
    # labels and of graphs on 5, and the reassembly orders on at most 4
    # (products: the test above); on 0 labels the carrier is one element,
    # and the element whose key is the `|` of all keys has everything below it
    orders = []
    for fam in FAMILIES.values():
        for k in range(5):
            labels = frozenset(range(k))
            p = fam.poset(labels)
            top = 0
            for x in p.elems:
                top |= fam.order_key(x)
            tops = [i for i, x in enumerate(p.elems) if fam.order_key(x) == top]
            assert len(tops) == 1, (fam.tag, k)
            assert p.down[tops[0]] == (1 << len(p.elems)) - 1, (fam.tag, k)
            if k == 0:
                assert (p.up, p.down) == ((1,), (1,)), fam.tag
            orders += [p, fam.poset(labels).reverse(), reassembly_poset(fam, labels)]
    labels = frozenset(range(5))
    orders += [GRAPHS.poset(labels), GRAPHS.poset(labels).reverse()]
    for p in orders:
        assert p.down == transpose(p.up), (p.family_tag, len(p.elems))


def test_product_by_spread_matches_the_shifted_sum():
    # a one-element factor on the left and on the right (the trivial
    # splits), and every split of hypergraphs on 4 labels
    point, complexes = SIMPLICIAL.poset(frozenset()), SIMPLICIAL.poset(frozenset(range(3)))
    cases = [(point, complexes), (complexes.reverse(), point)]
    labels = frozenset(range(4))
    cases += [(HYPERGRAPHS.poset(S), HYPERGRAPHS.poset(labels - S)) for S in subsets(labels)]
    for p, q in cases:
        prod = FinitePoset.product(p, q)
        assert (list(prod.up), list(prod.down)) == product_by_shifts(p, q)


def test_product_poset_multiplicativity():
    left = GRAPHS.poset(frozenset({0, 1}))
    right = chain_poset(3)
    prod = FinitePoset.product(left, right)
    assert prod.elems == tuple((u, v) for u in left.elems
                                   for v in right.elems)
    for a in left.elems:
        for c in left.upset(a):
            for b in right.elems:
                for d in right.upset(b):
                    assert (mobius(prod, (a, b), (c, d))
                            == mobius(left, a, c) * mobius(right, b, d))


def test_boolean_lattice_closed_form():
    for n in range(5):
        p = GRAPHS.poset(frozenset(range(n)))
        for g in p.elems:
            for h in p.upset(g):
                assert mobius(p, g, h) == (-1) ** len(h.edges - g.edges)


def test_budget_overflow():
    # a carrier over the budget raises before its order is compiled, also
    # for a family whose carrier is not counted in advance
    with pytest.raises(CarrierOverflow):
        GRAPHS.poset(frozenset(range(4)), budget=10)
    with pytest.raises(CarrierOverflow):
        SIMPLICIAL.poset(frozenset(range(3)), budget=10)


def test_reverse_view():
    p = chain_poset(4)
    r = p.reverse()
    assert r.leq(3, 0) and not r.leq(0, 3)
    assert set(r.upset(3)) == {0, 1, 2, 3}
    twice = r.reverse()
    assert (twice.elems, twice.up, twice.down) == (p.elems, p.up, p.down)


def test_reverse_swaps_the_arrays_of_the_transpose():
    # the opposite's up-sets are the transpose oracle's down-sets of the
    # order, and its down-sets the order's up-sets, on every native order
    # with n <= 4
    for tag, fam in FAMILIES.items():
        for n in range(5):
            labels = frozenset(range(n))
            p = fam.poset(labels)
            r = p.reverse()
            assert (r.elems, r.up, r.down) == (p.elems, transpose(p.up), p.up), (tag, n)
            assert r._down_size == [mask.bit_count() for mask in p.up], (tag, n)
            assert r.family_tag == tag
            twice = r.reverse()
            assert (twice.elems, twice.up, twice.down) == (p.elems, p.up, p.down)
            assert twice._down_size == p._down_size


def test_each_order_keeps_one_opposite(monkeypatch):
    # the opposite is built once and its opposite is the order itself, so
    # each direction fills its Möbius rows once and the compiled-order
    # cache holds one entry per label set, not one per direction
    for p in (chain_poset(4), diamond_poset(), GRAPHS.poset(frozenset(range(3))),
              reassembly_poset(PARTITIONS, frozenset(range(3)))):
        assert p.reverse() is p.reverse()
        assert p.reverse().reverse() is p
    adj = Adjunction(SIMPLICIAL, "m_delta")
    for n in range(4):
        labels = frozenset(range(n))
        assert adj.poset(labels) is SIMPLICIAL.poset(labels).reverse()
    p = GRAPHS.poset(frozenset(range(3)))
    x = p.elems[-1]
    first = inverted_basis(p.reverse(), x)
    filled = []
    fill = FinitePoset.mu

    def spy(self, i):
        if i not in self._mu:
            filled.append(i)
        return fill(self, i)

    monkeypatch.setattr(FinitePoset, "mu", spy)
    assert inverted_basis(p.reverse(), x) == first
    assert filled == []
    monkeypatch.undo()
    _native_poset.cache_clear()
    assert adj.verify_all_splits(range(3)).ok
    assert _native_poset.cache_info().currsize == 8


# the native orders as the families once compared them, pair by pair
OLD_COMPARATORS = {
    "graphs": lambda a, b: a.edges <= b.edges,
    "hypergraphs": lambda a, b: a.edges <= b.edges,
    "simplicial": lambda a, b: a.faces <= b.faces,
    # tau refines pi: every block of tau lies inside a block of pi
    "partitions": lambda pi, tau: all(any(b <= B for B in pi.blocks)
                                      for b in tau.blocks),
}


def test_key_set_orders_match_old_comparators():
    for tag, fam in FAMILIES.items():
        for n in range(7 if tag == "partitions" else 5):
            labels = frozenset(range(n))
            p = fam.poset(labels)
            # the views decoded once per element, not once per pair
            views = [SimpleNamespace(**{name: getattr(x, name) for name in
                                        ("edges", "faces", "blocks")
                                        if hasattr(type(x), name)})
                     for x in p.elems]
            old = OLD_COMPARATORS[tag]
            oracle = from_leq(range(len(views)), lambda i, j: old(views[i], views[j]))
            assert p.up == oracle.up and p.down == oracle.down, (tag, n)
            opposite = fam.poset(labels).reverse()
            assert opposite.up == oracle.down and opposite.down == oracle.up
            if n <= 3:
                assert all(fam.leq(x, y) == OLD_COMPARATORS[tag](x, y)
                           for x in p.elems for y in p.elems)


def test_native_poset_cache_is_bounded():
    bound = _native_poset.cache_info().maxsize
    assert bound is not None
    _native_poset.cache_clear()
    for i in range(bound + 1):
        GRAPHS.poset({i})
    assert _native_poset.cache_info().currsize == bound


def test_native_poset_cache_keys_families_by_identity():
    # a copy with the same maps is another family: it hashes by identity
    # and compiles its own order, under its own tag
    twin = replace(GRAPHS, tag="graphs-twin")
    same = replace(GRAPHS)
    assert twin != GRAPHS and same != GRAPHS
    assert hash(same) == object.__hash__(same) != hash(GRAPHS)
    labels = frozenset(range(2))
    assert GRAPHS.poset(labels) is GRAPHS.poset(labels)
    ours, theirs = GRAPHS.poset(labels), twin.poset(labels)
    assert theirs is not ours and theirs.family_tag == "graphs-twin"
    assert theirs.elems == ours.elems and theirs.up == ours.up
    assert len({GRAPHS: 0, twin: 1, same: 2}) == 3


def test_check_galois_identity():
    p = GRAPHS.poset(frozenset(range(2)))
    ident = lambda x: x
    assert check_galois(p, p, ident, ident).ok


def test_galois_report_is_truthy_exactly_when_ok():
    p = GRAPHS.poset(frozenset(range(2)))
    ident = lambda x: x
    passed = check_galois(p, p, ident, ident)
    failed = check_galois(p, p, ident, lambda x: p.elems[0])
    assert passed.ok and bool(passed)
    assert not failed.ok and not bool(failed) and failed.witness is not None


def test_check_galois_graphs_free_product():
    S, T = frozenset({0}), frozenset({1, 2})
    whole = GRAPHS.poset(S | T)
    parts = FinitePoset.product(GRAPHS.poset(S), GRAPHS.poset(T))
    calls = []
    f = lambda g: calls.append(g) or GRAPHS.comult(g, S, T)
    g = lambda pair: GRAPHS.box(pair[0], pair[1])
    assert check_galois(whole, parts, f, g).ok
    # f is applied once per element, not once per compared pair
    assert sorted(calls, key=whole.index.__getitem__) == list(whole.elems)


def _position_maps(p, q, fx, gy):
    """f: P -> Q and g: Q -> P with the images at positions fx and gy."""
    return (lambda x: q.elems[fx[p.index[x]]]), (lambda y: p.elems[gy[q.index[y]]])


def _galois_cases():
    """(p, q, fx, gy) for Galois connections given by image positions: the
    identity on two orders, the graph split and free product on {0}|{1, 2}."""
    S, T = frozenset({0}), frozenset({1, 2})
    whole = GRAPHS.poset(S | T)
    parts = FinitePoset.product(GRAPHS.poset(S), GRAPHS.poset(T))
    cases = [(p, p, range(len(p.elems)), range(len(p.elems)))
             for p in (diamond_poset(), SIMPLICIAL.poset(frozenset(range(3))).reverse())]
    cases.append((whole, parts, [parts.index[GRAPHS.comult(x, S, T)] for x in whole.elems],
                  [whole.index[GRAPHS.box(*pair)] for pair in parts.elems]))
    return cases


def test_biconditional_scan_matches_the_pairwise_scan():
    # Galois connections with up to two images moved, each failure against
    # the first (i, j) of the pairwise scan in element order
    rng = random.Random(11)
    for p, q, fx0, gy0 in _galois_cases():
        assert check_galois(p, q, *_position_maps(p, q, fx0, gy0)).ok
        for _ in range(200):
            fx, gy = list(fx0), list(gy0)
            for _ in range(rng.randint(1, 2)):
                images, target = rng.choice(((fx, q), (gy, p)))
                images[rng.randrange(len(images))] = rng.randrange(len(target.elems))
            expected = next(((i, j) for i in range(len(p.elems)) for j in range(len(q.elems))
                             if (q.up[fx[i]] >> j & 1) != (p.up[i] >> gy[j] & 1)), None)
            report = check_galois(p, q, *_position_maps(p, q, fx, gy))
            if expected is None:
                assert report.ok
            else:
                i, j = expected
                assert (report.ok, report.reason, report.witness) == (
                    False, "adjunction biconditional fails", (p.elems[i], q.elems[j]))


def test_check_galois_verdict_matches_the_three_scan_oracle():
    # the biconditional alone decides: over partial orders it makes both
    # maps monotone, so dropping the monotonicity scans changes no verdict.
    # Maps are adjoint pairs with images moved, constant (monotone) pairs,
    # or drawn at random; the partition order adds split and merge on
    # 4 labels.  Non-monotone maps must occur for the check to say anything.
    rng = random.Random(18)
    cases = _galois_cases()
    for S in ({0}, {0, 1}):
        S, T = frozenset(S), frozenset(range(4)) - frozenset(S)
        whole = PARTITIONS.poset(S | T)
        parts = FinitePoset.product(PARTITIONS.poset(S), PARTITIONS.poset(T))
        cases.append((whole, parts, [parts.index[PARTITIONS.comult(x, S, T)] for x in whole.elems],
                      [whole.index[PARTITIONS.mult(*pair)] for pair in parts.elems]))
    reasons = set()
    for p, q, fx0, gy0 in cases:
        for trial in range(300):
            if trial % 3 == 0:
                fx, gy = list(fx0), list(gy0)
                for _ in range(rng.randint(1, 3)):
                    images, target = rng.choice(((fx, q), (gy, p)))
                    images[rng.randrange(len(images))] = rng.randrange(len(target.elems))
            elif trial % 3 == 1:
                fx = [rng.randrange(len(q.elems))] * len(p.elems)
                gy = [rng.randrange(len(p.elems))] * len(q.elems)
            else:
                fx = [rng.randrange(len(q.elems)) for _ in p.elems]
                gy = [rng.randrange(len(p.elems)) for _ in q.elems]
            f, g = _position_maps(p, q, fx, gy)
            expected = three_scan_check_galois(p, q, f, g)
            reasons.add(expected.reason)
            assert check_galois(p, q, f, g).ok == expected.ok
    assert reasons == {None, "left map not order-preserving", "right map not order-preserving",
                       "adjunction biconditional fails"}


def test_check_galois_fails_for_disjoint_union():
    # the split map is not adjoint to plain merge in the containment order
    S, T = frozenset({0}), frozenset({1})
    whole = GRAPHS.poset(S | T)
    parts = FinitePoset.product(GRAPHS.poset(S), GRAPHS.poset(T))
    f = lambda g: GRAPHS.comult(g, S, T)
    g = lambda pair: GRAPHS.mult(pair[0], pair[1])
    report = check_galois(whole, parts, f, g)
    assert not report.ok
    assert report.witness is not None
    x, y = report.witness
    k2 = parse_structure("G:n=2;E=0-1")
    assert x == k2  # split(K2) <= (pt, pt) but K2 is not below their merge


def test_rota_transfer_trivial_and_graphs():
    S, T = frozenset({0}), frozenset({1})
    whole = GRAPHS.poset(S | T)
    parts = FinitePoset.product(GRAPHS.poset(S), GRAPHS.poset(T))
    f = lambda g: GRAPHS.comult(g, S, T)
    g = lambda pair: GRAPHS.box(pair[0], pair[1])
    k2 = parse_structure("G:n=2;E=0-1")
    pt_pair = f(k2)
    equal, left, right = rota_transfer_pair(whole, parts, f, g, k2, pt_pair)
    assert equal and left == 1 == right
    empty = parse_structure("G:n=2;E=")
    equal, left, right = rota_transfer_pair(whole, parts, f, g, empty, pt_pair)
    assert equal and left == 0 == right
    assert rota_transfer_check(whole, parts, f, g) == GaloisReport(True)


def test_rota_transfer_partitions():
    S, T = frozenset({0}), frozenset({1, 2})
    whole = PARTITIONS.poset(S | T)
    parts = FinitePoset.product(PARTITIONS.poset(S), PARTITIONS.poset(T))
    f = lambda q: PARTITIONS.comult(q, S, T)
    g = lambda pair: PARTITIONS.mult(pair[0], pair[1])
    x = parse_structure("P:n=3;B=012")
    b = f(x)  # (one block on S, one block on T)
    equal, left, right = rota_transfer_pair(whole, parts, f, g, x, b)
    assert equal, (left, right)
    assert rota_transfer_check(whole, parts, f, g) == GaloisReport(True)


def test_rota_transfer_everywhere_on_small_galois_pairs():
    S, T = frozenset({0}), frozenset({1})
    whole = GRAPHS.poset(S | T)
    parts = FinitePoset.product(GRAPHS.poset(S), GRAPHS.poset(T))
    f = lambda g: GRAPHS.comult(g, S, T)
    g = lambda pair: GRAPHS.box(pair[0], pair[1])
    assert check_galois(whole, parts, f, g).ok
    assert rota_transfer_check(whole, parts, f, g).ok
    for x in whole.elems:
        for b in parts.elems:
            equal, _, _ = rota_transfer_pair(whole, parts, f, g, x, b)
            assert equal


def test_graded_char_eval_singleton():
    p = chain_poset(1)
    assert graded_char_eval(p, 0, 0, lambda z: 5, "lower", -1) == -1
    assert graded_char_eval(p, 0, 0, lambda z: 4, "upper", -1) == 1


def test_graded_char_eval_two_chain_partition():
    p = PARTITIONS.poset(frozenset({0, 1}))
    bottom = parse_structure("P:n=2;B=01")
    top = parse_structure("P:n=2;B=0|1")
    ell = lambda q: len(q.blocks)
    assert graded_char_eval(p, bottom, top, ell, "upper", -1) == 2
    assert graded_char_eval(p, bottom, top, ell, "lower", -1) == -2


def test_graded_char_poly_shapes():
    p = PARTITIONS.poset(frozenset({0, 1}))
    bottom = parse_structure("P:n=2;B=01")
    top = parse_structure("P:n=2;B=0|1")
    ell = lambda q: len(q.blocks)
    upper = graded_char_poly(p, bottom, top, ell, "upper")
    assert upper == IntPolynomial({2: 1, 1: -1})
    with pytest.raises(ValueError):
        graded_char_poly(p, bottom, top, ell, "sideways")


def test_int_polynomial():
    f = IntPolynomial.falling_factorial(3)
    assert f == IntPolynomial({3: 1, 2: -3, 1: 2})
    assert f.evaluate(-1) == -6
    assert f.evaluate(5) == 5 * 4 * 3
    assert IntPolynomial.from_json(f.to_json()) == f
    assert (IntPolynomial({1: 1}) + IntPolynomial({1: -1})) == IntPolynomial()
    # integer coefficients stay ints through the arithmetic; a fraction or
    # a float is refused, not truncated
    assert f - f == IntPolynomial() and (f - f).terms == {}
    assert all(type(c) is int for c in (f * f - 3 * f).terms.values())
    for bad in ({1: Fraction(1, 2), 2: 2.7}, {2: 2.0}):
        with pytest.raises(TypeError):
            IntPolynomial(bad)


def test_bit_kernel_matches_the_generator_oracle():
    # the positions of 0, of every single bit up to 2^130 and of seeded
    # sparse, half-full and nearly full ints of each width, on both sides
    # of the 2^64 cache boundary and up to the 32,768 graphs on 6 labels,
    # against the generator that yields one position per int step
    rng = random.Random(31)
    cases = [0] + [1 << k for k in range(131)]
    for width in (1, 8, 63, 64, 65, 128, 203, 4140, 21147, 32768):
        top = 1 << width - 1
        cases.append(top)
        for density in (0.01, 0.5, 0.99):
            text = "".join("1" if rng.random() < density else "0" for _ in range(width))
            cases.append(top | int(text, 2))
    for m in cases:
        got = _positions(m)
        assert type(got) is tuple and got == tuple(_bits(m)), m.bit_length()


def test_bit_kernel_caches_only_small_ints_and_stays_bounded():
    _word.cache_clear()
    bound = _word.cache_info().maxsize
    assert bound is not None
    for m in range(bound + 100):
        assert _positions(m) == tuple(_bits(m))
    assert _word.cache_info().currsize == bound
    _word.cache_clear()
    wide = 1 << 64 | 1 << 200 | 5
    assert _positions(wide) == (0, 2, 64, 200) == _positions(wide)
    assert _word.cache_info().currsize == 0

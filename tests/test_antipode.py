from math import factorial

import pytest

import hsl.antipode as ap
from hsl.antipode import (Adjunction, antipode_axiom_check,
                          antipode_on_inverted_check, box_indecomposables,
                          closed_form_antipode, declared_adjunctions,
                          factorize, grading, primitives_basis,
                          reassembly_poset, reassembly_upset,
                          takeuchi_antipode, takeuchi_on_vector)
from hsl.errors import CarrierOverflow, EngineError, NotSelfAdjoint
from hsl.families import (FAMILIES, GRAPHS, HYPERGRAPHS, PARTITIONS,
                          SIMPLICIAL, Graph, is_connected, parse_structure)
from hsl.posets import graded_char_eval
from hsl.species import reassemble, subsets
from hsl.vectors import FreeVector, comult_vector, inverted_basis
from partition_oracle import compositions, set_partitions

G = parse_structure


def test_reassembly_upset_examples():
    pt = Graph(frozenset({0}), frozenset())
    assert reassembly_upset(GRAPHS, pt) == (pt,)
    assert reassembly_upset(GRAPHS, GRAPHS.unit) == (GRAPHS.unit,)
    k2 = G("G:n=2;E=0-1")
    assert set(reassembly_upset(GRAPHS, k2)) == {k2, G("G:n=2;E=")}
    one_block = G("P:n=3;B=012")
    assert set(reassembly_upset(PARTITIONS, one_block)) == set(
        PARTITIONS.enumerate(frozenset(range(3))))


def test_reassembly_relation_is_partial_order():
    for fam, nmax in ((GRAPHS, 4), (HYPERGRAPHS, 4), (SIMPLICIAL, 4),
                      (PARTITIONS, 4)):
        for n in range(nmax + 1):
            view = reassembly_poset(fam, frozenset(range(n)))
            for x in view.carrier():
                ups = set(view.upset(x))
                assert x in ups
                for y in ups:
                    assert not (view.leq(y, x) and y != x)
                    assert set(view.upset(y)) <= ups
    # partitional reassembly order coincides with refinement
    for n in range(5):
        view = reassembly_poset(PARTITIONS, frozenset(range(n)))
        for x in view.carrier():
            for y in view.carrier():
                assert view.leq(x, y) == PARTITIONS.leq(x, y)


def test_reassembly_galois_property():
    # split(x) <=r (y, z) iff x <=r merge(y, z)
    for fam in (GRAPHS, PARTITIONS, SIMPLICIAL, HYPERGRAPHS):
        adj = Adjunction(fam, "delta_m")
        for n in range(4):
            labels = frozenset(range(n))
            assert adj.verify_all_splits(labels).ok


def test_grading_monotone_on_reassembly_order():
    for fam, nmax in ((GRAPHS, 4), (HYPERGRAPHS, 4), (SIMPLICIAL, 4),
                      (PARTITIONS, 4)):
        for n in range(nmax + 1):
            view = reassembly_poset(fam, frozenset(range(n)))
            for x in view.carrier():
                lx = grading(fam, x)
                for y in view.upset(x):
                    assert lx <= grading(fam, y)


def test_covering_steps_raise_grading_by_one_where_graded():
    for fam, nmax in ((GRAPHS, 4), (SIMPLICIAL, 4), (PARTITIONS, 4)):
        for n in range(nmax + 1):
            view = reassembly_poset(fam, frozenset(range(n)))
            for x in view.carrier():
                ups = view.upset(x)
                for y in ups:
                    if y == x:
                        continue
                    covers = not any(view.leq(z, y) and z not in (x, y)
                                     for z in ups)
                    if covers:
                        assert grading(fam, y) == grading(fam, x) + 1


def test_hypergraph_reassembly_order_is_not_cover_graded():
    # pinned counterexample: the bare 3-hyperedge loses every hyperedge
    # under any proper split, so its only proper reassembly image is the
    # edgeless hypergraph and the factor count jumps from 1 to 3 across a
    # covering pair; every antipode identity still holds on the nose
    x = G("H:n=3;E={0,1,2}")
    ups = reassembly_upset(HYPERGRAPHS, x)
    assert [u.encode() for u in ups] == ["H:n=3;E=", "H:n=3;E={0,1,2}"]
    assert grading(HYPERGRAPHS, x) == 1
    assert grading(HYPERGRAPHS, G("H:n=3;E=")) == 3
    assert closed_form_antipode(HYPERGRAPHS, x).vector == takeuchi_antipode(
        HYPERGRAPHS, x)


def test_factorize_examples():
    k3 = G("G:n=3;E=0-1,0-2,1-2")
    assert factorize(GRAPHS, k3).length == 1
    split = factorize(GRAPHS, G("G:n=3;E=0-1"))
    assert sorted(f.encode() for f in split.factors) == ["G:n=1;E=", "G:n=2;E=0-1"]
    assert split.blocks == (frozenset({0, 1}), frozenset({2}))
    edgeless = G("G:n=4;E=")
    assert factorize(GRAPHS, edgeless).length == 4
    assert factorize(GRAPHS, GRAPHS.unit).length == 0


def test_takeuchi_frozen_examples():
    unit_vec = takeuchi_antipode(GRAPHS, GRAPHS.unit)
    assert unit_vec == FreeVector.basis("graphs", GRAPHS.unit)
    pt = Graph(frozenset({0}), frozenset())
    assert takeuchi_antipode(GRAPHS, pt) == FreeVector("graphs", pt.labels,
                                                       [(pt, -1)])
    p01 = G("P:n=2;B=01")
    assert takeuchi_antipode(PARTITIONS, p01) == FreeVector(
        "partitions", p01.labels, [(p01, -1), (G("P:n=2;B=0|1"), 2)])


def test_takeuchi_budget():
    # Bell(5) = 52 set partitions exceed a budget of 50
    big = SIMPLICIAL.unit
    wide = G("P:n=5;B=01234")
    with pytest.raises(CarrierOverflow):
        takeuchi_antipode(PARTITIONS, wide, budget=50)
    assert takeuchi_antipode(SIMPLICIAL, big, budget=1) is not None


def _ordered(fam, x):
    return FreeVector(fam.tag, x.labels, ap._ordered_sum(fam, x))


def _unordered_sum(fam, x):
    """Takeuchi's sum collapsed onto the unordered set partitions, each
    standing for its k! block orders, with every image reassembled
    literally: the oracle for the table route of `takeuchi_antipode`."""
    acc = {}
    for part in set_partitions(x.labels):
        k = len(part)
        y = reassemble(fam, part, x)
        acc[y] = acc.get(y, 0) + (-1) ** k * factorial(k)
    return FreeVector(fam.tag, x.labels, acc)


def test_collapsed_sum_matches_ordered_sum():
    cases = [(fam, n) for fam in FAMILIES.values() for n in range(4)]
    cases += [(GRAPHS, 4), (PARTITIONS, 4)]
    for fam, n in cases:
        for x in fam.enumerate(frozenset(range(n))):
            assert ap._restrictions(fam, x) is not None, x.encode()
            collapsed = _unordered_sum(fam, x)
            assert collapsed == _ordered(fam, x), x.encode()
            assert takeuchi_antipode(fam, x) == collapsed, x.encode()


def _skewed_graphs():
    """Graphs whose merge of two single vertices adds the edge when the
    larger label comes first: not commutative."""
    from dataclasses import replace

    def skewed(a, b):
        if len(a.labels) == 1 and len(b.labels) == 1 and min(a.labels) > min(b.labels):
            return GRAPHS.box_fn(a, b)
        return GRAPHS.mult_fn(a, b)

    return replace(GRAPHS, tag="graphs-skew", mult_fn=skewed)


def test_takeuchi_falls_back_to_ordered_sum_when_block_order_matters():
    mutant = _skewed_graphs()
    k2 = G("G:n=2;E=0-1")
    assert ap._restrictions(mutant, k2) is None
    ordered = _ordered(mutant, k2)
    assert takeuchi_antipode(mutant, k2) == ordered
    # the collapse would be wrong here: the two block orders of 0|1
    # reassemble to different graphs
    assert _unordered_sum(mutant, k2) != ordered


def _composition_sum(fam, x):
    """Takeuchi's sum over the oracle's ordered set partitions, in its
    sweep order: the route `_ordered_sum` replaced by block orders."""
    acc = {}
    for comp in compositions(x.labels):
        y = reassemble(fam, comp, x)
        acc[y] = acc.get(y, 0) + (-1) ** len(comp)
    return FreeVector(fam.tag, x.labels, acc)


def test_ordered_sum_by_block_orders_matches_the_composition_route():
    mutant = _skewed_graphs()
    cases = [(mutant, n) for n in range(5)]
    cases += [(fam, n) for fam in FAMILIES.values() for n in range(4)]
    failing = 0
    for fam, n in cases:
        for x in fam.enumerate(frozenset(range(n))):
            failing += ap._restrictions(fam, x) is None
            assert _ordered(fam, x) == _composition_sum(fam, x), (fam.tag, x.encode())
    assert failing > 0  # the mutant's gate fails, so the ordered sum is its route


def test_takeuchi_budget_counts_set_partitions_where_the_gate_holds(monkeypatch):
    # Bell(4) = 15 <= 20 < Fubini(4) = 75: the table route runs, and only
    # the ordered fallback is held to Fubini(n)
    one_block = G("P:n=4;B=0123")
    assert (takeuchi_antipode(PARTITIONS, one_block, budget=20)
            == _ordered(PARTITIONS, one_block))

    def no_ordered_sum(fam, x):
        raise AssertionError("the ordered sum ran past its budget")

    monkeypatch.setattr(ap, "_ordered_sum", no_ordered_sum)
    mutant = _skewed_graphs()
    k4 = G("G:n=4;E=0-1,0-2,0-3,1-2,1-3,2-3")
    assert ap._restrictions(mutant, k4) is None
    with pytest.raises(CarrierOverflow):
        takeuchi_antipode(mutant, k4, budget=20)


def _checked(fam, calls=None):
    """fam with its merge wrapped: the same maps, which `_restrictions`
    does not recognize as the integer kernel's, so it checks (a)-(c) by
    calling them.  Each call appends to `calls` when one is given."""
    from dataclasses import replace
    from hsl.families import _union

    def mult(a, b):
        if calls is not None:
            calls.append((a, b))
        return _union(a, b)

    return replace(fam, mult_fn=mult)


def test_kernel_table_matches_checked_table():
    # every structure of each family on 0-4 labels, graphs and partitions
    # on 5: the table built on ints equals the one the maps build
    cases = [(fam, n) for fam in FAMILIES.values() for n in range(5)]
    cases += [(GRAPHS, 5), (PARTITIONS, 5)]
    for fam, n in cases:
        checked = _checked(fam)
        parts = ap._partitions(n)
        for x in fam.enumerate(frozenset(range(n))):
            fast, slow = ap._restrictions(fam, x), ap._restrictions(checked, x)
            assert fast[2] is not None and slow[2] is None, x.encode()
            assert fast[:2] == slow[:2], x.encode()
            img, image = ap._images(fam, fast, parts)
            slow_img, slow_image = ap._images(checked, slow, parts)
            assert list(map(image, img)) == list(map(slow_image, slow_img)), x.encode()


def test_wrapped_maps_take_the_checked_route():
    calls = []
    for fam in FAMILIES.values():
        checked = _checked(fam, calls)
        for x in fam.enumerate(frozenset(range(3))):
            del calls[:]
            assert ap._restrictions(checked, x)[2] is None
            assert calls, x.encode()
            assert takeuchi_antipode(checked, x) == takeuchi_antipode(fam, x)
            assert closed_form_antipode(checked, x) == closed_form_antipode(fam, x)


def test_closed_form_matches_takeuchi_all_families_n3():
    for fam in FAMILIES.values():
        for n in range(4):
            for x in fam.enumerate(frozenset(range(n))):
                closed = closed_form_antipode(fam, x)
                assert closed.vector == takeuchi_antipode(fam, x), x.encode()


def test_closed_form_literal_discrepancy_on_two_chains():
    # the lower evaluation flips the sign of the top coefficient on both
    # canonical two-chains while agreeing on the bottom
    p01 = G("P:n=2;B=01")
    closed = closed_form_antipode(PARTITIONS, p01)
    top = G("P:n=2;B=0|1")
    assert closed.vector.coefficient(top) == 2
    assert closed.literal_lower_vector.coefficient(top) == -2
    assert closed.vector.coefficient(p01) == -1
    assert closed.literal_lower_vector.coefficient(p01) == -1
    assert closed.literal_lower_vector != takeuchi_antipode(PARTITIONS, p01)

    k2 = G("G:n=2;E=0-1")
    closed = closed_form_antipode(GRAPHS, k2)
    empty = G("G:n=2;E=")
    assert closed.vector.coefficient(empty) == 2
    assert closed.literal_lower_vector.coefficient(empty) == -2


def test_closed_form_rejects_noncommutative_family():
    mutant = _skewed_graphs()
    with pytest.raises(NotSelfAdjoint):
        closed_form_antipode(mutant, G("G:n=2;E=0-1"))


def _literal_closed_form(fam, x):
    """The closed form from its definition: the Möbius function of the
    reassembly poset built from `reassembly_upset` (pinned against the
    recursive one in test_posets), one interval per coefficient."""
    p = reassembly_poset(fam, x.labels)
    ell = lambda z: grading(fam, z)
    upper = {y: graded_char_eval(p, x, y, ell, "upper", -1) for y in p.upset(x)}
    lower = {y: graded_char_eval(p, x, y, ell, "lower", -1) for y in p.upset(x)}
    return upper, lower


def _closed_form_cases():
    """Every structure of every family up to 4 labels (every 8th hypergraph
    on 4), all partitions on 5 and every 16th graph on 5."""
    for fam in FAMILIES.values():
        for n in range(5):
            step = 8 if fam is HYPERGRAPHS and n == 4 else 1
            for x in fam.enumerate(frozenset(range(n)))[::step]:
                yield fam, x
    for x in PARTITIONS.enumerate(frozenset(range(5))):
        yield PARTITIONS, x
    for x in GRAPHS.enumerate(frozenset(range(5)))[::16]:
        yield GRAPHS, x


def test_closed_form_matches_literal_oracle():
    for fam, x in _closed_form_cases():
        closed = closed_form_antipode(fam, x)
        upper, lower = _literal_closed_form(fam, x)
        assert list(closed.upper.items()) == list(upper.items()), x.encode()
        assert list(closed.lower.items()) == list(lower.items()), x.encode()


def test_table_route_matches_literal_unordered_sum():
    for fam, x in _closed_form_cases():
        assert takeuchi_antipode(fam, x) == _unordered_sum(fam, x), x.encode()


def test_table_grading_matches_factorize():
    for fam, x in _closed_form_cases():
        table = ap.require_self_adjoint(fam, x)
        elems, _, _, ell = ap._reassembly_images(fam, x, table)
        assert ell == [grading(fam, y) for y in elems], x.encode()


def test_derived_upsets_match_reassembly_upset():
    for fam, x in _closed_form_cases():
        table = ap.require_self_adjoint(fam, x)
        elems, up, bottom, _ = ap._reassembly_images(fam, x, table)
        assert elems[bottom] == x
        assert tuple(elems) == reassembly_upset(fam, x), x.encode()
        for y, mask in zip(elems, up):
            derived = tuple(elems[k] for k in ap._bits(mask))
            assert derived == reassembly_upset(fam, y), (x.encode(), y.encode())


def test_grading_cache_is_bounded():
    bound = grading.cache_info().maxsize
    assert bound is not None
    grading.cache_clear()
    points = [Graph(frozenset({i}), frozenset()) for i in range(bound + 1)]
    assert all(grading(GRAPHS, pt) == 1 for pt in points)
    assert grading.cache_info().currsize == bound


def test_reassembly_view_cache_is_bounded():
    bound = ap._reassembly_view.cache_info().maxsize
    assert bound is not None
    ap._reassembly_view.cache_clear()
    for i in range(bound + 1):
        reassembly_poset(GRAPHS, {i})
    assert ap._reassembly_view.cache_info().currsize == bound


def test_eigen_identity_small():
    for fam in FAMILIES.values():
        for n in range(4):
            for x in fam.enumerate(frozenset(range(n))):
                ok, lhs, rhs = antipode_on_inverted_check(fam, x)
                assert ok, x.encode()


def test_takeuchi_is_involutive():
    for fam in FAMILIES.values():
        for n in range(4):
            for x in fam.enumerate(frozenset(range(n))):
                twice = takeuchi_on_vector(fam, takeuchi_antipode(fam, x))
                assert twice == FreeVector.basis(fam.tag, x)


def test_convolution_certificate_both_methods():
    for fam in FAMILIES.values():
        ok, _ = antipode_axiom_check(fam, 3)
        assert ok
        closed = lambda y, fam=fam: closed_form_antipode(fam, y).vector
        ok, _ = antipode_axiom_check(fam, 3, antipode=closed)
        assert ok


def test_convolution_rejects_wrong_antipode():
    literal = lambda y: closed_form_antipode(GRAPHS, y).literal_lower_vector
    ok, witness = antipode_axiom_check(GRAPHS, 2, antipode=literal)
    assert not ok and witness is not None


def test_primitives_graphs_counts():
    adj = Adjunction(GRAPHS, "delta_box")
    assert len(primitives_basis(adj, frozenset(range(1)))) == 1
    vecs2 = primitives_basis(adj, frozenset(range(2)))
    assert len(vecs2) == 1
    omega = vecs2[0]
    assert omega == FreeVector("graphs", frozenset(range(2)),
                               [(G("G:n=2;E="), 1), (G("G:n=2;E=0-1"), -1)])
    assert len(primitives_basis(adj, frozenset(range(3)))) == 4


def test_primitives_partitions_n3():
    adj = Adjunction(PARTITIONS, "delta_m")
    vecs = primitives_basis(adj, frozenset(range(3)))
    assert len(vecs) == 1
    indecs = box_indecomposables(adj, frozenset(range(3)))
    assert [x.encode() for x in indecs] == ["P:n=3;B=012"]


def test_primitives_annihilate_proper_splits():
    cases = [(Adjunction(GRAPHS, "delta_box"), 3),
             (Adjunction(HYPERGRAPHS, "delta_box"), 3),
             (Adjunction(SIMPLICIAL, "m_delta"), 3),
             (Adjunction(PARTITIONS, "delta_m"), 3)]
    for adj, n in cases:
        labels = frozenset(range(n))
        vectors = primitives_basis(adj, labels)
        assert vectors
        for v in vectors:
            for S in subsets(labels):
                T = labels - S
                if not S or not T:
                    continue
                assert comult_vector(adj.family, v, S, T).is_zero


def test_primitive_count_matches_indecomposable_count():
    for adj, n, indec_oracle in (
            (Adjunction(GRAPHS, "delta_box"), 4,
             lambda x: is_connected(x.complement())),
            (Adjunction(HYPERGRAPHS, "delta_box"), 3,
             lambda x: is_connected(x.complement())),
            (Adjunction(SIMPLICIAL, "m_delta"), 3, is_connected),
            (Adjunction(PARTITIONS, "delta_m"), 4,
             lambda x: len(x.blocks) == 1)):
        labels = frozenset(range(n))
        expected = [x for x in adj.family.enumerate(labels) if indec_oracle(x)]
        assert len(box_indecomposables(adj, labels)) == len(expected)


def test_sc_primitives_n4_count_and_annihilation():
    adj = Adjunction(SIMPLICIAL, "m_delta")
    labels = frozenset(range(4))
    vectors = primitives_basis(adj, labels)
    connected = [c for c in SIMPLICIAL.enumerate(labels) if is_connected(c)]
    assert len(vectors) == len(connected) == 84
    for v in vectors:
        for S in subsets(labels):
            T = labels - S
            if S and T:
                assert comult_vector(SIMPLICIAL, v, S, T).is_zero


def test_sc_primitives_use_downward_inverted_basis():
    # merge right-adjoint to split: omega is taken in the reversed order
    adj = Adjunction(SIMPLICIAL, "m_delta")
    labels = frozenset(range(2))
    view = adj.poset(labels)
    full_edge = G("S:n=2;F=0,1")
    omega = inverted_basis(view, full_edge)
    downset = {x.encode() for x, _ in omega.items()}
    assert full_edge.encode() in downset
    assert all(SIMPLICIAL.leq(x, full_edge) for x, _ in omega.items())


def test_declared_adjunctions_verify_n2():
    for fam in FAMILIES.values():
        for adj in declared_adjunctions(fam):
            assert adj.verify_all_splits(frozenset(range(2))).ok


def test_adjunction_rejects_undeclared_kind():
    with pytest.raises(EngineError):
        Adjunction(PARTITIONS, "delta_box")
    with pytest.raises(EngineError):
        Adjunction(GRAPHS, "sideways")


def _lossy_graphs(path):
    """Graphs whose merge returns `path` for any two pieces on its labels
    with one edge between them: two different bipartitions of the path
    both recompose it, with genuinely different factor multisets."""
    from dataclasses import replace

    def lossy_mult(a, b):
        plain = GRAPHS.mult_fn(a, b)
        joined = a.labels | b.labels
        if joined == path.labels and len(plain.edges) == 1:
            return path
        return plain

    return replace(GRAPHS, tag="graphs-lossy", mult_fn=lossy_mult)


def test_factorize_guard_detects_sweep_disagreement():
    from hsl.errors import NonUniqueFactorization

    path = G("G:n=3;E=0-1,1-2")
    with pytest.raises(NonUniqueFactorization):
        factorize(_lossy_graphs(path), path)


def test_table_grading_detects_join_disagreement():
    # the lossy merge passes the gate; the table's two joins of the path
    # give different factor blocks
    from hsl.errors import NonUniqueFactorization

    path = G("G:n=3;E=0-1,1-2")
    mutant = _lossy_graphs(path)
    assert ap._restrictions(mutant, path) is not None
    with pytest.raises(NonUniqueFactorization):
        closed_form_antipode(mutant, path)


def test_gate_rejects_comult_off_its_labels():
    # a split that hands each side the other side's piece
    from dataclasses import replace
    from hsl.errors import LabelMismatch

    swapped = replace(GRAPHS, tag="graphs-swapped",
                      comult_fn=lambda x, S, T: (x.restrict(T), x.restrict(S)))
    path = G("G:n=3;E=0-1,1-2")
    for method in (takeuchi_antipode, closed_form_antipode):
        with pytest.raises(LabelMismatch, match="split does not partition"):
            method(swapped, path)


def test_takeuchi_ignores_jobs():
    tri = G("G:n=3;E=0-1,0-2,1-2")
    assert takeuchi_antipode(GRAPHS, tri, jobs=2) == takeuchi_antipode(GRAPHS, tri)

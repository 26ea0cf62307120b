from math import factorial

import pytest

import hsl.antipode as ap
from hsl.antipode import (Adjunction, ClosedFormAntipode, antipode_axiom_check,
                          antipode_on_inverted_check, box_indecomposables,
                          closed_form_antipode, declared_adjunctions,
                          primitives_basis, reassembly_poset, takeuchi_antipode)
from hsl.errors import (DEFAULT_BUDGET, AmbientMismatch, CarrierOverflow,
                        EngineError, NotSelfAdjoint)
from hsl.families import (FAMILIES, GRAPHS, HYPERGRAPHS, PARTITIONS,
                          SIMPLICIAL, Graph, SimplicialComplex,
                          closed_form_antipode_graphs,
                          closed_form_antipode_partitions,
                          closed_form_antipode_sc, parse_structure)
from hsl.posets import check_galois
from hsl.species import _native_poset, _partitions, subsets
from hsl.vectors import FreeVector, inverted_basis
import literal_oracle as lit
from adjunction_oracle import (comult_vector, first_failing_triple,
                               inverted_check_by_view, merge_split_setup)
from literal_oracle import (factorize, graded_char_eval, grading,
                            is_connected, literal_poset, reassemble,
                            upset_by_encoding)
from partition_oracle import compositions, set_partitions

G = parse_structure


def test_reassembly_upset_examples():
    pt = Graph(frozenset({0}), frozenset())
    assert upset_by_encoding(GRAPHS, pt) == (pt,)
    assert upset_by_encoding(GRAPHS, GRAPHS.unit) == (GRAPHS.unit,)
    k2 = G("G:n=2;E=0-1")
    assert set(upset_by_encoding(GRAPHS, k2)) == {k2, G("G:n=2;E=")}
    one_block = G("P:n=3;B=012")
    assert set(upset_by_encoding(PARTITIONS, one_block)) == set(
        PARTITIONS.enumerate(frozenset(range(3))))


def test_reassembly_relation_is_partial_order():
    for fam, nmax in ((GRAPHS, 4), (HYPERGRAPHS, 4), (SIMPLICIAL, 4),
                      (PARTITIONS, 4)):
        for n in range(nmax + 1):
            view = reassembly_poset(fam, frozenset(range(n)))
            for x in view.elems:
                ups = set(view.upset(x))
                assert x in ups
                for y in ups:
                    assert not (view.leq(y, x) and y != x)
                    assert set(view.upset(y)) <= ups
    # partitional reassembly order coincides with refinement
    for n in range(5):
        view = reassembly_poset(PARTITIONS, frozenset(range(n)))
        for x in view.elems:
            for y in view.elems:
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
            for x in view.elems:
                lx = grading(fam, x)
                for y in view.upset(x):
                    assert lx <= grading(fam, y)


def test_covering_steps_raise_grading_by_one_where_graded():
    for fam, nmax in ((GRAPHS, 4), (SIMPLICIAL, 4), (PARTITIONS, 4)):
        for n in range(nmax + 1):
            view = reassembly_poset(fam, frozenset(range(n)))
            for x in view.elems:
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
    ups = upset_by_encoding(HYPERGRAPHS, x)
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
    from family_replace import replace

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


def test_box_indecomposables_counts_the_splits_first(monkeypatch):
    # 2^24 label subsets, each a frozenset, before any split is boxed
    def no_subsets(labels):
        raise AssertionError("the subsets were built past the budget")

    monkeypatch.setattr(ap, "subsets", no_subsets)
    with pytest.raises(CarrierOverflow):
        box_indecomposables(Adjunction(GRAPHS, "delta_box"), range(24))


def test_box_indecomposables_list_the_carrier_in_encoding_order(monkeypatch):
    # the structures that no proper split recomposes under the box, sorted
    # by encoding, also on labels whose encodings cross a digit boundary
    # (5-10 before 5-9); the carrier is listed, and no order is compiled
    def no_order(self, labels):
        raise AssertionError("an order was compiled to list a carrier")

    monkeypatch.setattr(Adjunction, "poset", no_order)
    for fam in FAMILIES.values():
        for adj in declared_adjunctions(fam):
            for labels in (frozenset(range(4)), frozenset({5, 9, 10})):
                found = box_indecomposables(adj, labels)
                codes = [x.encode() for x in found]
                assert codes == sorted(codes), (adj.kind, fam.tag)
                splits = [(S, labels - S) for S in subsets(labels) if S and S != labels]
                assert set(found) == {
                    x for x in fam.enumerate(labels)
                    if all(adj.box(*fam.comult(x, S, T)) != x for S, T in splits)}


def test_compiling_an_order_encodes_nothing(monkeypatch):
    # every carrier comes out in its enumeration's own order, and every
    # order keeps it: enumerating, compiling a native or reassembly order
    # and its opposite encode nothing on any family, the 7,580 complexes on
    # 5 labels and the 2,048 hypergraphs on 4 included
    calls = []
    for cls in {type(fam.unit) for fam in FAMILIES.values()}:
        monkeypatch.setattr(cls, "encode", lambda self, encode=cls.encode:
                            calls.append(self) or encode(self))
    labels = frozenset(range(4))
    compiles = [lambda: SIMPLICIAL.enumerate(range(5)),
                lambda: HYPERGRAPHS.enumerate(range(4))]
    for fam in FAMILIES.values():
        compiles += [lambda fam=fam: fam.poset(labels).reverse(),
                     lambda fam=fam: reassembly_poset(fam, labels).reverse()]
    for compile_ in compiles:
        _native_poset.cache_clear()
        ap._reassembly_view.cache_clear()
        calls.clear()
        compile_()
        assert len(calls) == 0


def _checked(fam, calls=None):
    """fam with its merge wrapped: the same maps, which `_restrictions`
    does not recognize as the integer kernel's, so it checks (a)-(c) by
    calling them.  Each call appends to `calls` when one is given."""
    from family_replace import replace
    from hsl.families import _union

    def mult(a, b):
        if calls is not None:
            calls.append((a, b))
        return _union(a, b)

    return replace(fam, mult_fn=mult)


def test_kernel_table_matches_checked_table():
    # every structure of each family on 0-4 labels, graphs and partitions
    # on 5: the kernel table holds each image as the int x.bits &
    # inside(pi) and builds nothing per structure, and its images, the
    # structures they give and their grades at the finest partitions equal
    # the checked route's, which runs the maps
    cases = [(fam, n) for fam in FAMILIES.values() for n in range(5)]
    cases += [(GRAPHS, 5), (PARTITIONS, 5)]
    for fam, n in cases:
        checked = _checked(fam)
        blocks = list(map(len, _partitions(n)))
        for x in fam.enumerate(frozenset(range(n))):
            img, image, grades = ap._restrictions(fam, x)
            slow_img, slow_image, slow_grades = ap._restrictions(checked, x)
            assert all(type(b) is int for b in img), x.encode()
            assert list(map(image, img)) == list(map(slow_image, slow_img)), x.encode()
            # the finest partition of each image: the last of most blocks
            finest = {y: j for j, y in sorted(enumerate(img), key=lambda jy: blocks[jy[0]])}
            assert grades(finest.values()) == slow_grades(finest.values()), x.encode()
            assert (ap._reassembly_images(x, (img, image, grades))
                    == ap._reassembly_images(x, (slow_img, slow_image, slow_grades))), x.encode()


def test_wrapped_maps_take_the_checked_route():
    calls = []
    for fam in FAMILIES.values():
        checked = _checked(fam, calls)
        for x in fam.enumerate(frozenset(range(3))):
            del calls[:]
            img, image, _ = ap._restrictions(checked, x)
            assert calls and all(image(y) is y for y in img), x.encode()
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
    reassembly poset built from the literal sweep (the bitset Möbius is
    pinned against the recursive one in test_posets), graded by
    `factorize`, one interval per coefficient."""
    p = literal_poset(fam, x.labels)
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


def _by_encoding(structures) -> tuple:
    """The structures sorted by encoding, the order of `reassembly_upset`
    and of the literal oracle; the closed form keeps its images in the
    order of their first partitions."""
    return tuple(sorted(structures, key=lambda y: y.encode()))


def test_closed_form_matches_literal_oracle():
    for fam, x in _closed_form_cases():
        closed = closed_form_antipode(fam, x)
        upper, lower = _literal_closed_form(fam, x)
        for got, want in ((closed.upper, upper), (closed.lower, lower)):
            assert ([(y, got[y]) for y in _by_encoding(got)]
                    == [(y, want[y]) for y in _by_encoding(want)]), x.encode()


def test_streamed_rows_match_the_materialized_walk():
    # each row the stream folds, alone as its callers ask for it and all
    # three together, against the walk that compiles every down-set at
    # once and folds the three rows together: the images in order, mu,
    # upper and lower; the records read in either order, compare and
    # print as records built from the two dicts.  Every structure of each
    # family on 0-4 labels, graphs and partitions on 5, the one-block
    # partition on 7 and 8, and graphs on 0-4 through wrapped maps
    cases = [(fam, x) for fam in FAMILIES.values() for n in range(5)
             for x in fam.enumerate(frozenset(range(n)))]
    cases += [(fam, x) for fam in (GRAPHS, PARTITIONS)
              for x in fam.enumerate(frozenset(range(5)))]
    cases += [(PARTITIONS, G("P:n=7;B=0123456")), (PARTITIONS, G("P:n=8;B=01234567"))]
    checked = _checked(GRAPHS)
    cases += [(checked, x) for n in range(5) for x in GRAPHS.enumerate(frozenset(range(n)))]
    for fam, x in cases:
        elems, ell, mu, upper, lower = lit.materialized_walk(fam, x)
        streamed, streamed_ell, fold = ap._upset_walk(fam, x, DEFAULT_BUDGET)
        assert (streamed, streamed_ell) == (elems, ell), x.encode()
        assert fold(("mu",)) == {"mu": mu}, x.encode()
        assert fold(("upper",)) == {"upper": upper}, x.encode()
        assert fold(("mu", "lower", "upper")) == {"mu": mu, "upper": upper,
                                                  "lower": lower}, x.encode()
        built = ClosedFormAntipode(fam.tag, x.labels, dict(zip(elems, upper)),
                                   dict(zip(elems, lower)))
        upper_first, lower_first = closed_form_antipode(fam, x), closed_form_antipode(fam, x)
        assert list(upper_first.upper.items()) == list(zip(elems, upper)), x.encode()
        assert list(lower_first.lower.items()) == list(zip(elems, lower)), x.encode()
        for closed in (upper_first, lower_first):
            assert closed == built and repr(closed) == repr(built), x.encode()


def test_closed_form_compiles_the_order_of_the_distinct_images_only(monkeypatch):
    # one containment stream per closed form, with one key per distinct
    # image of x and none per partition of its labels: 2 for one edge on
    # 10 labels, 2^9 for the 9-edge star, all 877 for the one-block
    # partition on 7; on the one edge the closed form is the defining sum
    sizes = []
    stream = ap._containment_stream
    monkeypatch.setattr(ap, "_containment_stream",
                        lambda keys: sizes.append(len(keys)) or stream(keys))
    star = "G:n=10;E=" + ",".join(f"0-{j}" for j in range(1, 10))
    for fam, text, count in ((GRAPHS, "G:n=10;E=0-1", 2), (GRAPHS, star, 512),
                             (PARTITIONS, "P:n=7;B=0123456", 877)):
        del sizes[:]
        upper = closed_form_antipode(fam, G(text)).upper
        assert sizes == [count] == [len(upper)], text
    edge = G("G:n=10;E=0-1")
    assert closed_form_antipode(GRAPHS, edge).vector == takeuchi_antipode(GRAPHS, edge)


def test_closed_form_and_inverted_check_encode_nothing(monkeypatch):
    # the order layer keeps images as ints and positions: with every
    # encode raising, both routes still answer on every structure up to 4
    # labels, and the answers are the ones computed with encode in place
    cases = [(fam, x) for fam in FAMILIES.values() for n in range(5)
             for x in fam.enumerate(frozenset(range(n)))]
    expected = [(closed_form_antipode(fam, x), antipode_on_inverted_check(fam, x)[0])
                for fam, x in cases]

    def refuse(self):
        raise AssertionError(f"encode called on a {type(self).__name__}")
    for cls in {type(fam.unit) for fam in FAMILIES.values()}:
        monkeypatch.setattr(cls, "encode", refuse)
    for (fam, x), (closed, agrees) in zip(cases, expected):
        assert closed_form_antipode(fam, x) == closed
        assert antipode_on_inverted_check(fam, x)[0] is agrees is True


def test_table_route_matches_literal_unordered_sum():
    for fam, x in _closed_form_cases():
        assert takeuchi_antipode(fam, x) == _unordered_sum(fam, x), x.encode()


def test_dict_filled_vectors_match_the_per_term_loop():
    # the defining sum, both closed forms and the graph and partition
    # formulas fill their vectors from dicts of int coefficients, which
    # `_fill` copies in one pass; each vector against the one rebuilt from
    # its terms as pairs, which `_fill` reads term by term, and the closed
    # forms also against the raw dicts they copy
    formulas = {GRAPHS: closed_form_antipode_graphs, SIMPLICIAL: closed_form_antipode_sc,
                PARTITIONS: closed_form_antipode_partitions}
    for fam, x in _closed_form_cases():
        closed = closed_form_antipode(fam, x)
        vectors = [(takeuchi_antipode(fam, x), None), (closed.vector, closed.upper),
                   (closed.literal_lower_vector, closed.lower)]
        if fam in formulas:
            vectors.append((formulas[fam](x), None))
        for v, raw in vectors:
            assert {*map(type, v.terms.values())} <= {int}, x.encode()
            for terms in (v.terms, raw or v.terms):
                slow = FreeVector(fam.tag, x.labels, list(terms.items()))
                assert slow == v and slow.terms == v.terms, x.encode()


def test_table_grading_matches_factorize():
    for fam, x in _closed_form_cases():
        table = ap.require_self_adjoint(fam, x)
        elems, _, ell = ap._reassembly_images(x, table)
        assert ell == [grading(fam, y) for y in elems], x.encode()


def test_derived_upsets_match_reassembly_upset():
    # the up-set of each image, read off the down-sets as the images whose
    # down-set holds it, against the literal sweep from that image
    for fam, x in _closed_form_cases():
        table = ap.require_self_adjoint(fam, x)
        elems, keys, _ = ap._reassembly_images(x, table)
        down = lit.down_sets(keys)
        assert elems[0] == x
        assert _by_encoding(elems) == lit.reassembly_upset(fam, x), x.encode()
        assert upset_by_encoding(fam, x) == lit.reassembly_upset(fam, x), x.encode()
        for i, y in enumerate(elems):
            derived = _by_encoding(z for z, mask in zip(elems, down) if mask >> i & 1)
            assert derived == lit.reassembly_upset(fam, y), (x.encode(), y.encode())


def test_reassembly_poset_matches_the_literal_sweep():
    # the views that `reassembly_poset` compiles from the tables' images
    # against views compiled from the literal sweep; the skewed graphs
    # fail the gate, so their up-sets take the literal fallback
    mutant = _skewed_graphs()
    cases = [(fam, n) for fam in FAMILIES.values() for n in range(5)]
    cases += [(PARTITIONS, 5), (PARTITIONS, 6)]
    cases += [(mutant, n) for n in range(5)]
    for fam, n in cases:
        view = reassembly_poset(fam, frozenset(range(n)))
        literal = literal_poset(fam, frozenset(range(n)))
        assert len(view.elems) == len(literal.elems), (fam.tag, n)
        assert set(view.elems) == set(literal.elems), (fam.tag, n)
        assert lit.relation(view) == lit.relation(literal), (fam.tag, n)
    carrier = mutant.enumerate(frozenset(range(4)))
    assert any(ap._restrictions(mutant, x) is None for x in carrier)


def test_inverted_check_rejects_a_failed_gate():
    mutant = _skewed_graphs()
    k2 = G("G:n=2;E=0-1")
    assert ap._restrictions(mutant, k2) is None
    with pytest.raises(NotSelfAdjoint):
        antipode_on_inverted_check(mutant, k2)


def test_inverted_check_reads_omega_and_sign_off_the_table():
    # omega_x against the literal view, and the sign against `factorize`
    for fam, x in _closed_form_cases():
        if len(x.labels) <= 4:
            ok, _, rhs = antipode_on_inverted_check(fam, x)
            omega = inverted_basis(literal_poset(fam, x.labels), x)
            assert ok and rhs == omega * (-1) ** grading(fam, x), x.encode()


def test_inverted_check_matches_the_reversed_view():
    # omega_x from the closed form's pass against omega_x read off the
    # compiled, reversed order of x's images, on every structure of every
    # family up to 4 labels
    for fam in FAMILIES.values():
        for n in range(5):
            for x in fam.enumerate(frozenset(range(n))):
                assert (antipode_on_inverted_check(fam, x)
                        == inverted_check_by_view(fam, x)), x.encode()


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
                once = takeuchi_antipode(fam, x)
                twice = once.bind(lambda y: takeuchi_antipode(fam, y))
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
    with pytest.raises(AmbientMismatch):
        antipode_axiom_check(GRAPHS, 1, antipode=lambda y: FreeVector.basis("other", y))


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


def _join_complexes():
    """Complexes merged by the join, every face of one side with every
    face of the other: split is no longer right-adjoint to it."""
    from family_replace import replace

    def join(a, b):
        return SimplicialComplex(a.labels | b.labels,
                                 (s | t for s in a.faces for t in b.faces))

    return replace(SIMPLICIAL, tag="simplicial-join", mult_fn=join)


def test_m_delta_as_split_merge_on_the_opposite_order():
    # split -| merge on the opposite order passes on exactly the splits
    # where merge -| split passes on the native order
    failing = 0
    for fam in (SIMPLICIAL, _join_complexes()):
        adj = Adjunction(fam, "m_delta")
        for n in range(4):
            labels = frozenset(range(n))
            for S in subsets(labels):
                T = labels - S
                ok = adj.verify(S, T).ok
                assert ok == check_galois(*merge_split_setup(fam, S, T, adj.budget)).ok
                failing += not ok
    assert failing > 0  # the join mutant fails on some splits


def test_declared_adjunctions_verify_n2():
    for fam in FAMILIES.values():
        for adj in declared_adjunctions(fam):
            assert adj.verify_all_splits(frozenset(range(2))).ok


def test_verify_all_splits_names_the_failing_split(monkeypatch):
    # with the merge for the free product, split -| box fails on graphs
    # from 2 labels on; the witness is the first failing (x, y, z, S, T)
    # of the triple loop over that label set's splits
    monkeypatch.setattr(Adjunction, "box", lambda self, x, y: self.family.mult(x, y))
    adj = Adjunction(GRAPHS, "delta_box")
    for n in (2, 3):
        labels = frozenset(range(n))
        report = adj.verify_all_splits(labels)
        expected = first_failing_triple(GRAPHS, adj.poset, adj.box, labels)
        assert expected is not None
        assert (report.ok, report.reason) == (False, "adjunction biconditional fails")
        assert report.witness == expected, n


def test_adjunction_rejects_undeclared_kind():
    with pytest.raises(EngineError):
        Adjunction(PARTITIONS, "delta_box")
    with pytest.raises(EngineError):
        Adjunction(GRAPHS, "sideways")


def _lossy_graphs(path):
    """Graphs whose merge returns `path` for any two pieces on its labels
    with one edge between them: two different bipartitions of the path
    both recompose it, with genuinely different factor multisets."""
    from family_replace import replace

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


def test_lossy_merge_keeps_the_defining_sum():
    # the table grades only when asked: on the lossy merge the closed form
    # raises, and the defining sum, which grades nothing, still answers,
    # as the ordered sum and the literal unordered sum do
    from hsl.errors import NonUniqueFactorization

    path = G("G:n=3;E=0-1,1-2")
    mutant = _lossy_graphs(path)
    with pytest.raises(NonUniqueFactorization):
        closed_form_antipode(mutant, path)
    answer = takeuchi_antipode(mutant, path)
    assert answer == _ordered(mutant, path) == _unordered_sum(mutant, path)
    assert answer == FreeVector(mutant.tag, path.labels,
                                [(G("G:n=3;E="), -4), (path, 3)])


def test_gate_rejects_comult_off_its_labels():
    # a split that hands each side the other side's piece
    from family_replace import replace
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

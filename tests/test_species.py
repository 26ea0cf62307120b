from dataclasses import replace
from itertools import permutations

import pytest

from hsl.errors import LabelMismatch
from hsl.families import (FAMILIES, GRAPHS, HYPERGRAPHS, PARTITIONS,
                          SIMPLICIAL, Graph, SetPartition, parse_structure)
from hsl.species import (OrderedSetPartition, UnorderedSetPartition, bell,
                         compositions, compose_comult, compose_mult, fubini,
                         reassemble, set_partitions, verify_axioms,
                         verify_delta_after_mult_identity)


def test_ordered_set_partition_validation():
    OrderedSetPartition(({0, 1}, {2}))
    with pytest.raises(LabelMismatch):
        OrderedSetPartition(({0, 1}, {1, 2}))
    with pytest.raises(LabelMismatch):
        OrderedSetPartition(({0}, set()))


def test_unordered_partition_canonical_order():
    a = UnorderedSetPartition(({2}, {0, 1}))
    b = UnorderedSetPartition(({0, 1}, {2}))
    assert a == b
    assert [min(blk) for blk in a.blocks] == [0, 2]


def test_composition_counts_match_fubini():
    for n in range(6):
        assert len(compositions(frozenset(range(n)))) == fubini(n)
    assert [fubini(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]


def test_set_partition_counts_match_bell():
    for n in range(7):
        assert len(set_partitions(frozenset(range(n)))) == bell(n)
    assert [bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_partition_caches_are_bounded():
    for cache in (compositions, set_partitions):
        bound = cache.cache_info().maxsize
        assert bound is not None
        cache.cache_clear()
        for i in range(bound + 1):
            assert len(cache(frozenset({i}))) == 1
        assert cache.cache_info().currsize == bound


def test_capped_counts_stop_early_and_stay_exact_below_the_cap():
    # no recursion and no giant integers: a capped count of a huge label
    # set stops at the first term above the cap
    assert 10 ** 6 < fubini(2000, cap=10 ** 6) < 10 ** 8
    assert 10 ** 6 < bell(2000, cap=10 ** 6) < 10 ** 8
    for n in range(8):
        assert fubini(n, cap=10 ** 6) == fubini(n)
        assert bell(n, cap=10 ** 6) == bell(n)


def test_enumeration_is_deterministic():
    a = [c.blocks for c in compositions(frozenset(range(4)))]
    b = [c.blocks for c in compositions(frozenset(range(4)))]
    assert a == b
    assert compositions(frozenset()) == (OrderedSetPartition(()),)


def test_compose_mult_examples():
    # single block: unchanged
    g = parse_structure("G:n=2;E=0-1")
    assert compose_mult(GRAPHS, (frozenset({0, 1}),), (g,)) == g
    # two single vertices merge without edges
    pt0 = Graph(frozenset({0}), frozenset())
    pt1 = Graph(frozenset({1}), frozenset())
    assert (compose_mult(GRAPHS, (frozenset({0}), frozenset({1})), (pt0, pt1))
            == parse_structure("G:n=2;E="))
    # partitions merge by block union
    p01 = parse_structure("P:n=2;B=01")
    p2 = SetPartition(frozenset({2}), (frozenset({2}),))
    merged = compose_mult(PARTITIONS, (frozenset({0, 1}), frozenset({2})), (p01, p2))
    assert merged == parse_structure("P:n=3;B=01|2")


def test_compose_mult_label_mismatch():
    pt0 = Graph(frozenset({0}), frozenset())
    with pytest.raises(LabelMismatch):
        compose_mult(GRAPHS, (frozenset({1}),), (pt0,))


def test_compose_comult_examples():
    tri = parse_structure("G:n=3;E=0-1,0-2,1-2")
    parts = compose_comult(GRAPHS, (frozenset({0, 1}), frozenset({2})), tri)
    assert parts == (parse_structure("G:n=2;E=0-1"),
                     Graph(frozenset({2}), frozenset()))
    one = compose_comult(GRAPHS, (frozenset({0, 1, 2}),), tri)
    assert one == (tri,)
    blocks = (frozenset({0}), frozenset({1}), frozenset({2}))
    pieces = compose_comult(PARTITIONS, blocks, parse_structure("P:n=3;B=012"))
    assert [q.encode() for q in pieces] == ["P:n=1;B=0", "P:n=1;B=1", "P:n=1;B=2"]


def test_verify_axioms_all_families_n3():
    for fam in FAMILIES.values():
        report = verify_axioms(fam, 3)
        assert report.passed, [r for r in report.results if not r.passed]
        assert report.result("commutativity").passed
        assert report.result("cocommutativity").passed


def test_verify_axioms_partitions_n4():
    report = verify_axioms(PARTITIONS, 4)
    assert report.passed


def _mutant_graphs():
    # corrupt the merge: smaller-first-block products grow cross edges
    def bad_mult(a, b):
        if len(a.labels) and len(a.labels) < len(b.labels):
            return GRAPHS.box_fn(a, b)
        return GRAPHS.mult_fn(a, b)

    return replace(GRAPHS, tag="graphs-mutant", mult_fn=bad_mult)


def test_verify_axioms_catches_mutant():
    report = verify_axioms(_mutant_graphs(), 3)
    assert not report.passed
    broken = [r for r in report.results if not r.passed]
    assert any(r.name in ("associativity", "naturality_mult", "compatibility",
                          "commutativity") for r in broken)
    assert all(r.witness for r in broken)


def test_order_checks_catch_order_breaking_mutants():
    # the split complements a one-edge part, so G:n=3;E=0-1 <= G:n=3;E=0-1,0-2
    # splits along S = {0, 1, 2} into incomparable parts
    def flip_comult(g, S, T):
        a, b = g.restrict(S), g.restrict(T)
        return (a.complement() if len(a.edges) == 1 else a), b

    # an edgeless left factor merges with every cross edge, so E= <= E=0-1
    # on {0, 1} times a point gives incomparable products
    def box_when_edgeless(a, b):
        return (GRAPHS.box_fn if not a.edges else GRAPHS.mult_fn)(a, b)

    for mutant, name, witness in (
            (replace(GRAPHS, tag="graphs-flip", comult_fn=flip_comult),
             "order_preservation_comult",
             "delta not order-preserving at G:n=3;E=0-1"),
            (replace(GRAPHS, tag="graphs-box", mult_fn=box_when_edgeless),
             "order_preservation_mult",
             "m not order-preserving at G:n=2;E=")):
        result = verify_axioms(mutant, 3).result(name)
        assert not result.passed and result.witness == witness


def test_delta_after_mult_identity():
    assert verify_delta_after_mult_identity(GRAPHS, 3)[0]
    assert verify_delta_after_mult_identity(SIMPLICIAL, 3)[0]
    assert verify_delta_after_mult_identity(HYPERGRAPHS, 3)[0]
    assert verify_delta_after_mult_identity(PARTITIONS, 3)[0]


def test_relabeling_is_poset_isomorphism():
    for fam in (GRAPHS, HYPERGRAPHS, SIMPLICIAL, PARTITIONS):
        for n in range(4):
            labels = frozenset(range(n))
            carrier = fam.enumerate(labels)
            for image in permutations(range(n)):
                f = dict(zip(sorted(labels), image))
                for x in carrier:
                    for y in carrier:
                        assert fam.leq(x, y) == fam.leq(
                            fam.relabel(f, x), fam.relabel(f, y))


def test_relabel_to_shifted_labels():
    g = parse_structure("G:n=2;E=0-1")
    moved = GRAPHS.relabel({0: 5, 1: 9}, g)
    assert moved.labels == frozenset({5, 9})
    assert frozenset({5, 9}) in moved.edges


def test_reassemble_idempotent():
    for fam in FAMILIES.values():
        for n in range(4):
            labels = frozenset(range(n))
            for x in fam.enumerate(labels):
                for part in set_partitions(labels):
                    once = reassemble(fam, part.blocks, x)
                    assert reassemble(fam, part.blocks, once) == once


def test_comult_refinement_coassociativity():
    # splitting along a refinement equals splitting coarsely, then block-wise
    for fam in FAMILIES.values():
        for n in range(4):
            labels = frozenset(range(n))
            carrier = fam.enumerate(labels)
            for coarse in compositions(labels):
                for x in carrier:
                    pieces = compose_comult(fam, coarse.blocks, x)
                    # refine each block into singletons
                    fine = tuple(frozenset({v}) for blk in coarse.blocks
                                 for v in sorted(blk))
                    direct = compose_comult(fam, fine, x)
                    blockwise = tuple(
                        piece
                        for blk, part in zip(coarse.blocks, pieces)
                        for piece in compose_comult(
                            fam, tuple(frozenset({v}) for v in sorted(blk)), part))
                    assert direct == blockwise


def test_unit_structures():
    assert GRAPHS.unit.encode() == "G:n=0;E="
    assert HYPERGRAPHS.unit.encode() == "H:n=0;E="
    assert SIMPLICIAL.unit.encode() == "S:n=0;F="
    assert PARTITIONS.unit.encode() == "P:n=0;B="
    for fam in FAMILIES.values():
        assert fam.enumerate(frozenset()) == (fam.unit,)

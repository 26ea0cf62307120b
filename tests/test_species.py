from itertools import permutations
from math import factorial

import pytest

import hsl.species as sp
from hsl.errors import DEFAULT_BUDGET, LabelMismatch
from hsl.families import (FAMILIES, GRAPHS, HYPERGRAPHS, PARTITIONS,
                          SIMPLICIAL, Graph, Hypergraph, SetPartition,
                          SimplicialComplex, _of, _split,
                          parse_structure, partition_masks)
from hsl.antipode import _reassembly_images, _restrictions
from hsl.species import (AxiomReport, AxiomResult, Family, _bijections,
                         _partitions, _splits, bell, fubini, reassemble,
                         subsets, verify_axioms)
from family_replace import replace
from literal_oracle import (_bits, compose_comult, compose_mult, delta_after_mult,
                            down_sets, reassemble as literal_reassemble)
from partition_oracle import compositions, partition_masks_by_fold, set_partitions
from test_antipode import _join_complexes, _skewed_graphs


def test_ordered_set_partition_validation():
    # SetPartition checks its blocks: empty, then overlapping, then cover
    SetPartition({0, 1, 2}, ({0, 1}, {2}))
    for blocks, message in ((({0, 1}, {1, 2}), "overlapping blocks in set partition"),
                            (({0}, set(), {1, 2}), "empty block in set partition"),
                            (({0, 1}, {1}, set()), "overlapping blocks in set partition"),
                            (({0}, {1}), "blocks do not cover the label set"),
                            (({0}, {1}, {2, 3}), "blocks do not cover the label set"),
                            (({0, "1"}, {2}), "blocks do not cover the label set")):
        with pytest.raises(LabelMismatch) as err:
            SetPartition({0, 1, 2}, blocks)
        assert str(err.value) == message, blocks


def test_unordered_partition_canonical_order():
    a = SetPartition({0, 1, 2}, ({2}, {0, 1}))
    b = SetPartition({0, 1, 2}, ({0, 1}, {2}))
    assert a == b and a.bits == b.bits and a.encode() == b.encode()
    assert [min(blk) for blk in a.blocks] == [0, 2]


def test_composition_counts_match_fubini():
    for n in range(6):
        assert len(compositions(frozenset(range(n)))) == fubini(n)
        assert sum(factorial(len(blocks)) for blocks in _partitions(n)) == fubini(n)
    assert [fubini(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]


def test_set_partition_counts_match_bell():
    for n in range(7):
        assert len(set_partitions(frozenset(range(n)))) == bell(n)
        assert len(_partitions(n)) == len(PARTITIONS.enumerate(range(n))) == bell(n)
    assert [bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_partition_caches_are_bounded():
    # the per-size cache: a finite bound and one entry per label count
    assert _partitions.cache_info().maxsize is not None
    _partitions.cache_clear()
    for n in list(range(7)) * 2:
        _partitions(n)
    info = _partitions.cache_info()
    assert info.currsize == 7 <= info.maxsize and info.hits >= 7
    # the per-(class, label set) cache evicts at its bound: on one label
    # the one partition's mask holds no pair
    bound = partition_masks.cache_info().maxsize
    assert bound is not None
    partition_masks.cache_clear()
    for i in range(bound + 1):
        assert partition_masks(SetPartition, frozenset({i})) == (0,)
    assert partition_masks.cache_info().currsize == bound


def test_budget_counts_are_cached_exactly_and_within_a_bound():
    # keyed by (n, cap): each cached value is the recurrence's, and the
    # 164 keys swept here overflow the cache, which keeps its bound
    for count in (bell, fubini):
        bound = count.cache_info().maxsize
        assert bound is not None
        count.cache_clear()
        for cap in (None, 1, 200_000, 10 ** 9):
            for n in range(41):
                assert count(n, cap) == count.__wrapped__(n, cap), (count, n, cap)
                assert count(n, cap) == count.__wrapped__(n, cap)  # a hit
        info = count.cache_info()
        assert info.currsize == bound < 4 * 41 and info.hits >= 4 * 41


def test_capped_counts_stop_early_and_stay_exact_below_the_cap():
    # no recursion and no giant integers: a capped count of a huge label
    # set stops at the first term above the cap
    assert 10 ** 6 < fubini(2000, cap=10 ** 6) < 10 ** 8
    assert 10 ** 6 < bell(2000, cap=10 ** 6) < 10 ** 8
    for n in range(8):
        assert fubini(n, cap=10 ** 6) == fubini(n)
        assert bell(n, cap=10 ** 6) == bell(n)


def test_enumeration_is_deterministic():
    a = _partitions(4)
    _partitions.cache_clear()
    assert _partitions(4) == a
    assert _partitions(0) == ((),)
    assert PARTITIONS.enumerate(range(4)) == PARTITIONS.enumerate(range(4))
    assert PARTITIONS.enumerate(()) == (PARTITIONS.unit,)


def test_partitions_come_before_their_strict_refinements():
    # the closed form keeps x's images in the order of their finest
    # partitions, a linear extension of the reassembly order by this
    for n in range(7):
        parts = _partitions(n)
        for i, coarse in enumerate(parts):
            for j, fine in enumerate(parts):
                if i != j and all(any(not b & ~c for c in coarse) for b in fine):
                    assert i < j, (n, coarse, fine)


def _pair_key_lattice(n):
    """The refinement lattice from separated-pair keys with the pair
    i < j at bit i*n + j, one pair of partitions at a time: for each
    partition of `_partitions(n)`, the bitset of the partitions that it
    refines, those whose separated pairs it separates too.  The one-block
    partition's images are the partitions themselves, and these are their
    down-sets in the reassembly order: the oracle for `_reassembly_images`."""
    pairs = lambda m: sum((m >> i + 1) << (i * n + i + 1) for i in _bits(m))
    keys = [pairs((1 << n) - 1) & ~sum(map(pairs, blocks)) for blocks in _partitions(n)]
    return [sum(1 << k for k, other in enumerate(keys) if not other & ~key)
            for key in keys]


def test_block_mask_partitions_match_the_frozenset_oracle():
    # _partitions is the oracle's sweep reversed, so the carrier order and
    # every first witness stay those of the frozenset enumeration
    for n in range(8):
        oracle = set_partitions(frozenset(range(n)))
        as_sets = [tuple(frozenset(_bits(b)) for b in blocks) for blocks in _partitions(n)]
        assert as_sets == list(reversed(oracle)), n
        assert [p.blocks for p in PARTITIONS.enumerate(range(n))] == list(oracle), n
        one_block = PARTITIONS.enumerate(range(n))[-1]
        elems, keys, _ = _reassembly_images(one_block, _restrictions(PARTITIONS, one_block))
        assert [y.blocks for y in elems] == as_sets, n
        assert down_sets(keys) == _pair_key_lattice(n), n
    wide = frozenset({2, 5, 9, 30})
    assert [p.blocks for p in PARTITIONS.enumerate(wide)] == list(set_partitions(wide))


def test_partition_masks_match_the_literal_fold():
    # every class on 0..n-1 for n <= 5 and on a gapped label set; the
    # partition masks are the ints of the partition carrier, reversed
    for cls in (Graph, Hypergraph, SimplicialComplex, SetPartition):
        for labels in [frozenset(range(n)) for n in range(6)] + [frozenset({2, 5, 9})]:
            masks = partition_masks(cls, labels)
            assert masks == partition_masks_by_fold(cls, labels), (cls, labels)
            assert masks[0] == cls._inside(labels) | cls._inside(frozenset())
    for labels in [frozenset(range(n)) for n in range(6)] + [frozenset({2, 5, 9, 30})]:
        ints = [p.bits for p in PARTITIONS.enumerate(labels)]
        assert ints == list(reversed(partition_masks(SetPartition, labels)))
        assert ints == [SetPartition(labels, blocks).bits
                        for blocks in set_partitions(labels)], labels


def _subsets_comprehension(labels):
    """One frozenset per bitmask over the sorted labels: the oracle for
    `subsets`, which builds the same tuple by doubling."""
    elems = sorted(labels)
    return tuple(frozenset(v for i, v in enumerate(elems) if mask >> i & 1)
                 for mask in range(2 ** len(elems)))


def test_subsets_by_doubling_match_the_comprehension():
    cases = [range(n) for n in range(9)]
    cases += [frozenset({2, 5, 9, 30}), {7}, [40, 3, 12, 0, 11, 100, 4, 41]]
    for labels in cases:
        got = subsets(labels)
        assert got == _subsets_comprehension(labels), sorted(labels)
        assert all(type(s) is frozenset for s in got), sorted(labels)


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


def test_axiom_reports_keep_their_own_results():
    first, second = AxiomReport("graphs", 1), AxiomReport("graphs", 1)
    first.results.append(AxiomResult("unitality", False, "witness"))
    assert second.results == [] and not first.passed and second.passed
    # records compare by value
    assert verify_axioms(GRAPHS, 2) == verify_axioms(GRAPHS, 2)
    assert first != second


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


def _flip_graphs():
    # the split complements a one-edge part, so G:n=3;E=0-1 <= G:n=3;E=0-1,0-2
    # splits along S = {0, 1, 2} into incomparable parts
    def flip_comult(g, S, T):
        a, b = g.restrict(S), g.restrict(T)
        return (a.complement() if len(a.edges) == 1 else a), b

    return replace(GRAPHS, tag="graphs-flip", comult_fn=flip_comult)


def _box_graphs():
    # an edgeless left factor merges with every cross edge, so E= <= E=0-1
    # on {0, 1} times a point gives incomparable products
    def box_when_edgeless(a, b):
        return (GRAPHS.box_fn if not a.edges else GRAPHS.mult_fn)(a, b)

    return replace(GRAPHS, tag="graphs-box", mult_fn=box_when_edgeless)


def test_order_checks_catch_order_breaking_mutants():
    for mutant, name, witness in (
            (_flip_graphs(), "order_preservation_comult",
             "delta not order-preserving at G:n=3;E=0-1"),
            (_box_graphs(), "order_preservation_mult",
             "m not order-preserving at G:n=2;E=")):
        result = verify_axioms(mutant, 3).result(name)
        assert not result.passed and result.witness == witness


def test_delta_after_mult_identity():
    for fam in (GRAPHS, SIMPLICIAL, HYPERGRAPHS, PARTITIONS):
        assert delta_after_mult(fam, 3) == (True, None), fam.tag


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
                    once = reassemble(fam, part, x)
                    assert reassemble(fam, part, once) == once


def _logged(fam, log):
    """fam with its split and merge appending each call to `log`."""
    def comult(x, S, T):
        log.append(("comult", x, S, T))
        return fam.comult_fn(x, S, T)

    def mult(a, b):
        log.append(("mult", a, b))
        return fam.mult_fn(a, b)

    return replace(fam, comult_fn=comult, mult_fn=mult)


def test_reassemble_makes_the_literal_calls():
    # the fold calls the maps as splitting along the ordered set partition
    # and then merging the pieces from the unit does, so a family with
    # faulty maps gives the same images
    for fam in list(FAMILIES.values()) + [_skewed_graphs()]:
        for n in range(4):
            labels = frozenset(range(n))
            for x in fam.enumerate(labels):
                for comp in compositions(labels):
                    fold, literal = [], []
                    y = reassemble(_logged(fam, fold), comp, x)
                    assert y == literal_reassemble(_logged(fam, literal), comp, x)
                    assert fold == literal, (x.encode(), comp)


def test_comult_refinement_coassociativity():
    # splitting along a refinement equals splitting coarsely, then block-wise
    for fam in FAMILIES.values():
        for n in range(4):
            labels = frozenset(range(n))
            carrier = fam.enumerate(labels)
            for coarse in compositions(labels):
                for x in carrier:
                    pieces = compose_comult(fam, coarse, x)
                    # refine each block into singletons
                    fine = tuple(frozenset({v}) for blk in coarse
                                 for v in sorted(blk))
                    direct = compose_comult(fam, fine, x)
                    blockwise = tuple(
                        piece
                        for blk, part in zip(coarse, pieces)
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


# ---------------------------------------------------------------------------
# the literal axiom sweeps: the oracle for the value table of verify_axioms,
# each map called afresh on every case and structures compared directly


class _LiteralCarriers(dict):
    """The carriers on 0..k-1 by k up to n, plus `sub` for any label set,
    shared by one axiom sweep under one budget."""

    def __init__(self, fam, n: int, budget: int):
        super().__init__((k, fam.enumerate(frozenset(range(k)), budget))
                         for k in range(n + 1))
        self.fam = fam
        self.budget = budget
        self._subs: dict = {}

    def sub(self, labels) -> tuple:
        labels = frozenset(labels)
        if labels not in self._subs:
            self._subs[labels] = self.fam.enumerate(labels, self.budget)
        return self._subs[labels]


def _literal_relabel_functorial(fam, carriers):
    for k, carrier in carriers.items():
        labels = sorted(range(k))
        for f_img in permutations(labels):
            f = dict(zip(labels, f_img))
            for g_img in permutations(labels):
                g = dict(zip(labels, g_img))
                gf = {i: g[f[i]] for i in labels}
                for x in carrier:
                    if fam.relabel(gf, x) != fam.relabel(g, fam.relabel(f, x)):
                        return f"composition fails on {x.encode()}"
            ident = {i: i for i in labels}
            for x in carrier:
                if fam.relabel(ident, x) != x:
                    return f"identity fails on {x.encode()}"
        if k >= 3:
            break
    return None


def _literal_naturality_mult(fam, carriers):
    for k, carrier in carriers.items():
        labels = frozenset(range(k))
        for S, T in _splits(labels):
            xs = carriers.sub(S)
            ys = carriers.sub(T)
            prods = [[fam.mult(x, y) for y in ys] for x in xs]  # once, not per f
            for f in _bijections(labels):
                fS = {i: f[i] for i in S}
                fT = {i: f[i] for i in T}
                fys = [fam.relabel(fT, y) for y in ys]
                for x, row in zip(xs, prods):
                    fx = fam.relabel(fS, x)
                    for y, fy, xy in zip(ys, fys, row):
                        lhs = fam.relabel(f, xy)
                        rhs = fam.mult(fx, fy)
                        if lhs != rhs:
                            return (f"m not natural: x={x.encode()} y={y.encode()} "
                                    f"f={f}")
    return None


def _literal_naturality_comult(fam, carriers):
    # factor order follows the merge diagram: sigma(S) with x|S
    for k, carrier in carriers.items():
        labels = frozenset(range(k))
        bijections = list(_bijections(labels))
        # each relabelling once, not per split, and each split once, not per f
        images = [[fam.relabel(f, x) for x in carrier] for f in bijections]
        for S, T in _splits(labels):
            splits = [fam.comult(x, S, T) for x in carrier]
            for f, fxs in zip(bijections, images):
                fS = {i: f[i] for i in S}
                fT = {i: f[i] for i in T}
                fSimg = frozenset(fS.values())
                fTimg = frozenset(fT.values())
                for x, fx, (x1, x2) in zip(carrier, fxs, splits):
                    lhs = fam.comult(fx, fSimg, fTimg)
                    rhs = (fam.relabel(fS, x1), fam.relabel(fT, x2))
                    if lhs != rhs:
                        return f"delta not natural: x={x.encode()} f={f}"
    return None


def _literal_unitality(fam, carriers):
    for carrier in carriers.values():
        for x in carrier:
            if fam.mult(fam.unit, x) != x or fam.mult(x, fam.unit) != x:
                return f"unit fails on {x.encode()}"
    return None


def _literal_counitality(fam, carriers):
    for carrier in carriers.values():
        for x in carrier:
            if fam.comult(x, x.labels, frozenset()) != (x, fam.unit):
                return f"counit (I, empty) fails on {x.encode()}"
            if fam.comult(x, frozenset(), x.labels) != (fam.unit, x):
                return f"counit (empty, I) fails on {x.encode()}"
    return None


def _literal_associativity(fam, carriers):
    for k in carriers:
        labels = frozenset(range(k))
        for S, rest in _splits(labels):
            for T, R in _splits(rest):
                for x in carriers.sub(S):
                    for y in carriers.sub(T):
                        for z in carriers.sub(R):
                            if fam.mult(fam.mult(x, y), z) != fam.mult(x, fam.mult(y, z)):
                                return (f"assoc fails: {x.encode()},{y.encode()},"
                                        f"{z.encode()}")
    return None


def _literal_coassociativity(fam, carriers):
    for k, carrier in carriers.items():
        labels = frozenset(range(k))
        for S, rest in _splits(labels):
            for T, R in _splits(rest):
                for x in carrier:
                    xs, xr1 = fam.comult(x, S, rest)
                    xt, xr = fam.comult(xr1, T, R)
                    x_st, xr2 = fam.comult(x, S | T, R)
                    xs2, xt2 = fam.comult(x_st, S, T)
                    if (xs, xt, xr) != (xs2, xt2, xr2):
                        return f"coassoc fails on {x.encode()} split {sorted(S)}|{sorted(T)}|{sorted(R)}"
    return None


def _literal_compatibility(fam, carriers):
    for k in carriers:
        labels = frozenset(range(k))
        for S1, S2 in _splits(labels):
            xs = carriers.sub(S1)
            ys = carriers.sub(S2)
            for T1, T2 in _splits(labels):
                A, B = S1 & T1, S1 & T2
                C, D = S2 & T1, S2 & T2
                for x in xs:
                    for y in ys:
                        lhs = fam.comult(fam.mult(x, y), T1, T2)
                        xa, xb = fam.comult(x, A, B)
                        yc, yd = fam.comult(y, C, D)
                        rhs = (fam.mult(xa, yc), fam.mult(xb, yd))
                        if lhs != rhs:
                            return (f"compatibility fails: x={x.encode()} "
                                    f"y={y.encode()} T1={sorted(T1)}")
    return None


def _literal_commutativity(fam, carriers):
    for k in carriers:
        labels = frozenset(range(k))
        for S, T in _splits(labels):
            for x in carriers.sub(S):
                for y in carriers.sub(T):
                    if fam.mult(x, y) != fam.mult(y, x):
                        return f"m not commutative on {x.encode()}, {y.encode()}"
    return None


def _literal_cocommutativity(fam, carriers):
    for k, carrier in carriers.items():
        labels = frozenset(range(k))
        for S, T in _splits(labels):
            for x in carrier:
                a, b = fam.comult(x, S, T)
                b2, a2 = fam.comult(x, T, S)
                if (a, b) != (a2, b2):
                    return f"delta not cocommutative on {x.encode()}"
    return None


def _literal_order_mult(fam, carriers):
    key = fam.order_key
    for k in carriers:
        labels = frozenset(range(k))
        for S, T in _splits(labels):
            xs = carriers.sub(S)
            ys = carriers.sub(T)
            xkeys = [key(x) for x in xs]
            ykeys = [key(y) for y in ys]
            # each product once, not once per comparable pair of pairs
            prods = [[key(fam.mult(x, y)) for y in ys] for x in xs]
            for x1, k1, p1 in zip(xs, xkeys, prods):
                for k2, p2 in zip(xkeys, prods):
                    if k1 & ~k2:
                        continue
                    for l1, q1 in zip(ykeys, p1):
                        for l2, q2 in zip(ykeys, p2):
                            if not l1 & ~l2 and q1 & ~q2:
                                return f"m not order-preserving at {x1.encode()}"
    return None


def _literal_order_comult(fam, carriers):
    key = fam.order_key
    for k, carrier in carriers.items():
        labels = frozenset(range(k))
        keys = [key(x) for x in carrier]
        for S, T in _splits(labels):
            # each structure split once per (S, T), not once per partner
            splits = [tuple(map(key, fam.comult(x, S, T))) for x in carrier]
            for x, kx, (xa, xb) in zip(carrier, keys, splits):
                for ky, (ya, yb) in zip(keys, splits):
                    if not kx & ~ky and (xa & ~ya or xb & ~yb):
                        return f"delta not order-preserving at {x.encode()}"
    return None


def _literal_report(fam, n, budget=DEFAULT_BUDGET):
    carriers = _LiteralCarriers(fam, n, budget)
    checks = [("relabel_functorial", _literal_relabel_functorial),
              ("naturality_mult", _literal_naturality_mult),
              ("naturality_comult", _literal_naturality_comult),
              ("unitality", _literal_unitality),
              ("counitality", _literal_counitality),
              ("associativity", _literal_associativity),
              ("coassociativity", _literal_coassociativity),
              ("compatibility", _literal_compatibility),
              ("commutativity", _literal_commutativity),
              ("cocommutativity", _literal_cocommutativity)]
    if fam.order_key is not None:
        checks += [("order_preservation_mult", _literal_order_mult),
                   ("order_preservation_comult", _literal_order_comult)]
    report = AxiomReport(fam.tag, n)
    for name, check in checks:
        witness = check(fam, carriers)
        report.results.append(AxiomResult(name, witness is None, witness))
    return report


def _twisted_relabel_graphs():
    """Graphs whose relabelling complements every image of a map that
    moves a label: relabelling is neither functorial nor natural."""
    def twisted(f, g):
        image = GRAPHS.relabel_fn(f, g)
        return image if all(i == j for i, j in f.items()) else image.complement()

    return replace(GRAPHS, tag="graphs-twisted", relabel_fn=twisted)


def _off_carrier_partitions():
    """Partitions whose split drops the lowest same-block pair of a piece
    that is one block on three labels: the piece left is no set partition,
    so it lies off every enumerated carrier."""
    def lossy(p, S, T):
        a, b = _split(p, S, T)
        if len(S) == 3 and a.bits.bit_count() == 3:
            a = _of(SetPartition, a.labels, a.bits & (a.bits - 1))
        return a, b

    return replace(PARTITIONS, tag="partitions-lossy", comult_fn=lossy)


def test_verify_axioms_matches_literal_oracle():
    cases = [(fam, n) for fam in FAMILIES.values() for n in range(4)]
    cases += [(GRAPHS, 4), (PARTITIONS, 4)]
    for fam, n in cases:
        report = verify_axioms(fam, n)
        assert report.passed and report == _literal_report(fam, n), (fam.tag, n)


def test_verify_axioms_matches_literal_oracle_on_mutants():
    # every result, witness text included, equals the literal sweeps'
    for mutant in (_mutant_graphs(), _flip_graphs(), _box_graphs(),
                   _skewed_graphs(), _twisted_relabel_graphs(),
                   _off_carrier_partitions()):
        report = verify_axioms(mutant, 3)
        assert not report.passed, mutant.tag
        assert report == _literal_report(mutant, 3), mutant.tag
    broken = {r.name for r in verify_axioms(_twisted_relabel_graphs(), 3).results
              if not r.passed}
    assert {"relabel_functorial", "naturality_mult"} <= broken


def test_verify_axioms_decides_delta_after_mult():
    # wherever splitting a product along its own decomposition loses a
    # factor, verify_axioms fails on the same carriers
    families = [GRAPHS, SIMPLICIAL, HYPERGRAPHS, PARTITIONS,
                _mutant_graphs(), _flip_graphs(), _box_graphs(),
                _twisted_relabel_graphs(), _off_carrier_partitions(),
                _skewed_graphs(), _join_complexes()]
    failing = set()
    for fam in families:
        for n in range(4):
            if not delta_after_mult(fam, n)[0]:
                failing.add((fam.tag, n))
                assert not verify_axioms(fam, n).passed, (fam.tag, n)
    assert failing == {("graphs-flip", 2), ("graphs-flip", 3), ("partitions-lossy", 3)}


def test_value_table_positions_off_carrier_structures():
    # the lossy piece of the one-block partition is in no carrier: it takes
    # the next free position, after every carrier element
    mutant = _off_carrier_partitions()
    table = sp._Carriers(mutant, 3, DEFAULT_BUDGET)
    enumerated = len(table.elems)
    assert enumerated == sum(map(len, table.values()))
    witness = sp._check_counitality(table)
    assert witness == "counit (I, empty) fails on P:n=3;B=012"
    assert len(table.elems) > enumerated
    piece = table.elems[-1]
    assert piece.labels == frozenset(range(3))
    assert piece not in mutant.enumerate(piece.labels)


def test_verify_axioms_computes_each_relabelling_once(monkeypatch):
    # 19,020 relabel calls on partitions of 4 labels when every case
    # called the map afresh; the value table makes each one once
    calls = []
    relabel = Family.relabel

    def counted(self, f, x):
        calls.append(1)
        return relabel(self, f, x)

    monkeypatch.setattr(Family, "relabel", counted)
    assert verify_axioms(PARTITIONS, 4).passed
    assert 0 < len(calls) <= 3000

import random
from functools import cache
from itertools import combinations, islice, permutations
from math import factorial

import pytest

from hsl.antipode import closed_form_antipode, takeuchi_antipode
from hsl.errors import (DEFAULT_BUDGET, CarrierOverflow, LabelMismatch,
                        LabelOverlap, NotAFlat, ParseError)
from hsl.families import (FAMILIES, GRAPHS, HYPERGRAPHS, PARTITIONS,
                          SIMPLICIAL, Graph, Hypergraph, SetPartition,
                          SimplicialComplex, acyclic_orientation_count,
                          chromatic_polynomial, closed_form_antipode_graphs,
                          closed_form_antipode_partitions,
                          closed_form_antipode_sc, contract, graph_components,
                          graph_flats, graph_free_product,
                          hypergraph_free_product, is_flat,
                          parse_structure, _part_table,
                          sc_gamma_of_flat, sc_one_skeleton)
from hsl import families
from hsl.posets import IntPolynomial, _word
from hsl.species import subsets
from hsl.vectors import FreeVector
import literal_oracle
from literal_oracle import (_bits, acyclic_orientations_brute,
                            acyclic_orientations_sweep, factorize, graph_rank,
                            grading, is_connected, is_indecomposable,
                            reassembly_upset)
from partition_oracle import set_partitions
from complex_oracle import by_encoding, sc_enumerate_by_faces
import encode_oracle
import parse_oracle


def G(text):
    return parse_structure(text)


# ---------------------------------------------------------------------------
# encodings and parsing


def test_encoding_round_trip_all_carriers():
    for fam, n in ((GRAPHS, 3), (HYPERGRAPHS, 3), (SIMPLICIAL, 3), (PARTITIONS, 4)):
        for x in fam.enumerate(frozenset(range(n))):
            assert parse_structure(x.encode()) == x


def test_encoding_examples():
    assert G("G:n=3;E=0-1,1-2").encode() == "G:n=3;E=0-1,1-2"
    assert G("H:n=3;E={0,1};{0,1,2}").encode() == "H:n=3;E={0,1};{0,1,2}"
    assert G("S:n=3;F=0,1;F=2").encode() == "S:n=3;F=2;F=0,1"  # size before lex
    assert G("P:n=3;B=01|2").encode() == "P:n=3;B=01|2"
    # hyperedges sort by size before lex
    h = Hypergraph(frozenset(range(3)),
                   frozenset({frozenset({0, 1, 2}), frozenset({1, 2})}))
    assert h.encode() == "H:n=3;E={1,2};{0,1,2}"


def test_empty_complex_and_units():
    empty_complex = G("S:n=2;F=")
    assert empty_complex.faces == frozenset({frozenset()})
    assert empty_complex.encode() == "S:n=2;F="
    assert G("P:n=0;B=") == PARTITIONS.unit


def test_partition_encoding_wide_labels():
    p = SetPartition(frozenset({3, 10}), (frozenset({3, 10}),))
    assert p.encode() == "P:n=2;B=3,10"
    # past ten labels every block is comma-separated, one-label blocks too
    wide = SetPartition(frozenset(range(11)), (frozenset(range(10)), frozenset({10})))
    assert wide.encode() == "P:n=11;B=0,1,2,3,4,5,6,7,8,9|10"
    assert parse_structure(wide.encode()) == wide


def test_encode_matches_the_old_bodies():
    """The encodings read from per-byte tables against the bodies that
    decode and print every structure afresh (`encode_oracle`): every
    carrier up to 5-7 labels, carried onto the label set {2, 5, 9, 11, 13,
    14, 15}, onto labels led by 10 (the least top label that puts commas
    in a partition) and onto random labels up to 15 (hypergraphs and
    complexes, whose subsets lie in 0..15) or 40 (graphs and partitions)."""
    rng = random.Random(20)
    spreads = ((2, 5, 9, 11, 13, 14, 15), (10, 1, 3, 4, 6, 7, 8))
    tops = {GRAPHS: (5, 40), HYPERGRAPHS: (4, 15), SIMPLICIAL: (5, 15),
            PARTITIONS: (7, 40)}
    for fam, (top, widest) in tops.items():
        for k in range(top + 1):
            fixed = [dict(zip(range(k), spread)) for spread in spreads]
            for x in fam.enumerate(frozenset(range(k))):
                at_random = dict(zip(range(k), rng.sample(range(widest + 1), k)))
                for f in (None, *fixed, at_random):
                    y = x if f is None else fam.relabel(f, x)
                    assert y.encode() == encode_oracle.encode(y), encode_oracle.encode(y)


def test_widest_encodings_match_the_oracle_and_parse_back():
    """Parts at the top of the label range (subsets in 0..15, pairs up to
    label 361) and set bits on both sides of the byte boundaries at 7/8 and
    63/64."""
    full = frozenset(range(16))
    wide = frozenset(range(362))
    cases = [
        SimplicialComplex.from_facets(full, [{0, 15}, {3, 4, 5}, {7}]),
        Hypergraph(full, [{14, 15}, full]),
        Graph(wide, [{0, 361}, {360, 361}, {7, 8}]),
        SetPartition(wide, [{0, 361}, {5, 360}] + [{v} for v in range(1, 360) if v != 5]),
        # pair bits 7, 8 = (1, 4), (2, 4) and 63, 64 = (8, 11), (9, 11)
        Graph(frozenset(range(12)), [{1, 4}, {2, 4}, {8, 11}, {9, 11}]),
        # facet bits 7, 8 = {0,1,2}, {3} and 63, 64 = {0..5}, {6}
        SimplicialComplex.from_facets(range(4), [{0, 1, 2}, {3}]),
        SimplicialComplex.from_facets(range(7), [set(range(6)), {6}]),
        # hyperedge bits 7, 9 and 63, 65
        Hypergraph(frozenset(range(7)), [{0, 1, 2}, {0, 3}, set(range(6)), {0, 6}]),
    ]
    for x in cases:
        assert x.encode() == encode_oracle.encode(x)
        assert parse_structure(x.encode()) == x
    assert cases[0].encode() == "S:n=16;F=7;F=0,15;F=3,4,5"
    assert cases[1].encode() == "H:n=16;E={14,15};{" + ",".join(map(str, range(16))) + "}"
    assert cases[2].encode() == "G:n=362;E=0-361,7-8,360-361"
    assert cases[4].encode() == "G:n=12;E=1-4,2-4,8-11,9-11"


def test_encodings_skip_the_bit_kernel_cache_and_keep_their_tables_bounded():
    """Encoding a complex or hypergraph reads no `_word` entry, so the bit
    kernel's cache is not flooded with one-off facet ints; the part tables
    stay at their bound across labels up to 15 (subsets) and 361 (pairs)."""
    complexes = SIMPLICIAL.enumerate(range(5))
    hypergraphs = HYPERGRAPHS.enumerate(range(4))
    _word.cache_clear()
    for x in complexes + hypergraphs:
        x.encode()
    assert _word.cache_info().currsize == 0
    _part_table.cache_clear()
    bound = _part_table.cache_info().maxsize
    assert bound is not None
    rng = random.Random(33)
    for fam, k, widest in ((SIMPLICIAL, 4, 15), (HYPERGRAPHS, 4, 15), (GRAPHS, 5, 361)):
        for x in fam.enumerate(range(k)):
            y = fam.relabel(dict(zip(range(k), rng.sample(range(widest + 1), k))), x)
            assert y.encode() == encode_oracle.encode(y)
    info = _part_table.cache_info()
    assert info.currsize == bound < info.misses, info


def test_parse_errors():
    for bad in ("", "X:n=2;E=", "G:n=;E=", "G:n=2;E=0-9", "G:n=2;E=0",
                "H:n=2;E=0,1", "H:n=2;E={0}", "S:n=2;G=0", "P:n=2;B=0",
                "P:n=2;B=01|", "G:n=-1;E="):
        with pytest.raises(ParseError):
            parse_structure(bad)


def _spellings(rng, count: int) -> list:
    """Random spellings near the four grammars: one half random headers and
    bodies made of labels, separators and junk, the other half canonical
    encodings with one to three characters deleted, doubled or replaced."""
    counts = ["0", "1", "2", "3", "4", "11", "20", "400", "02", " 3", "+2",
              "-1", "", "x"]
    pieces = ["0", "1", "2", "3", "10", "19", "50", "399", "-1", " 2", "+1",
              "", "x", ",", "-", ";", "|", "{", "}", ";F=", "F=", "01", "012"]
    canonical = [x.encode() for fam, n in ((GRAPHS, 3), (HYPERGRAPHS, 3),
                                           (SIMPLICIAL, 3), (PARTITIONS, 4))
                 for x in fam.enumerate(range(n))]
    out = []
    for _ in range(count // 2):
        prefix = rng.choice("GHSPX")
        section = {"G": "E=", "H": "E=", "S": "F=", "P": "B="}.get(prefix, "")
        if rng.random() < 0.2:
            section = rng.choice(["E=", "F=", "B=", ""])
        body = "".join(rng.choice(pieces) for _ in range(rng.randrange(9)))
        out.append(f"{prefix}:n={rng.choice(counts)};{section}{body}")
    for _ in range(count - count // 2):
        text = rng.choice(canonical)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(["", text[i] * 2, rng.choice(pieces)]) + text[i + 1:]
        out.append(text)
    return out


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, LabelMismatch, CarrierOverflow) as exc:
        return type(exc)


def test_facets_close_by_masks_before_any_face_is_built(monkeypatch):
    # a facet on 24 labels is refused by its width, not after its 2^24
    # faces are built as sets; a facet off the labels is checked first
    def no_subsets(labels):
        raise AssertionError("the faces of a facet were built as sets")

    monkeypatch.setattr(families, "subsets", no_subsets)
    with pytest.raises(CarrierOverflow):
        parse_structure("S:n=24;F=" + ",".join(map(str, range(24))))
    with pytest.raises(LabelMismatch):
        SimplicialComplex.from_facets(range(24), [range(24), {99}])
    closed = SimplicialComplex.from_facets(range(4), [{0, 1, 2}, {2, 3}])
    assert closed == SimplicialComplex(range(4), [{0, 1, 2}, {0, 1}, {0, 2}, {1, 2},
                                                  {2, 3}, {0}, {1}, {2}, {3}])


def test_parser_counts_labels_before_building_the_label_set():
    # past MAX_BITS labels no mask of the label set fits, and the label
    # set of a huge header is not built
    for prefix in ("G:n=70000;E=", "H:n=70000;E=", "S:n=70000;F=", "P:n=70000;B="):
        with pytest.raises(CarrierOverflow):
            parse_structure(prefix)
    wide = parse_structure(f"G:n={families.MAX_BITS};E=")
    assert wide.labels == frozenset(range(families.MAX_BITS)) and not wide.bits


def test_parser_matches_the_per_family_parsers():
    """One grammar table and the constructors' checks against the four
    parsers they replaced (`parse_oracle`): the same structure or the same
    exception class on edge cases and on seeded random spellings.  The old
    partition parser let blocks that cover the labels but overlap through
    to the constructor, whose LabelMismatch is a ParseError now."""
    edge_cases = {"G:n=2;E=0-0": ParseError, "P:n=2;B=0|0": ParseError,
                  "P:n=3;B=01": ParseError, "P:n=2;B=01|0": ParseError,
                  # a bad part next to one whose int would overflow
                  "S:n=20;F=0,19;F=0,50": ParseError,
                  "H:n=20;E={0,19};{0}": ParseError,
                  "G:n=400;E=0-399,0-0": ParseError,
                  "H:n=20;E={0,19}": CarrierOverflow,
                  # other spellings of valid structures
                  "S:n=3;F=0,1;F=2": SimplicialComplex,
                  "P:n=3;B=2|01": SetPartition, "G:n=02;E=": Graph}
    for text, expected in edge_cases.items():
        got = _outcome(parse_structure, text)
        assert got is expected or type(got) is expected, (text, got)
    parsed = 0
    for text in [*edge_cases, *_spellings(random.Random(24), 6000)]:
        old, new = _outcome(parse_oracle.parse_structure, text), _outcome(parse_structure, text)
        if old is LabelMismatch:
            assert text.startswith("P:") and new is ParseError, text
        else:
            assert type(new) is type(old) and new == old, (text, old, new)
        parsed += not isinstance(new, type)
    assert parsed > 300  # the spellings reach the builders, not just the syntax


def test_structure_validation():
    with pytest.raises(LabelMismatch):
        Graph(frozenset({0}), frozenset({frozenset({0, 1})}))
    with pytest.raises(LabelMismatch):
        Hypergraph(frozenset({0, 1}), frozenset({frozenset({0})}))
    with pytest.raises(LabelMismatch):
        SimplicialComplex(frozenset({0, 1}),
                          frozenset({frozenset(), frozenset({0, 1})}))
    with pytest.raises(LabelMismatch):
        SetPartition(frozenset({0, 1}), (frozenset({0}),))
    for fam, a, b in ((GRAPHS, "G:n=2;E=0-1", "G:n=2;E=0-1"),
                      (PARTITIONS, "P:n=2;B=01", "P:n=2;B=0|1")):
        with pytest.raises(LabelOverlap):
            fam.mult(G(a), G(b))


FIELD = {Graph: "edges", Hypergraph: "edges", SimplicialComplex: "faces",
         SetPartition: "blocks"}


def assert_equals_validated_rebuild(x):
    rebuilt = type(x)(x.labels, getattr(x, FIELD[type(x)]))
    assert x == rebuilt
    assert hash(x) == hash(rebuilt)
    assert x.encode() == rebuilt.encode()


# The integer kernel's reference: the frozenset-literal restrict, disjoint
# union, relabel, order key and encode that the families once ran, here
# on the decoded views.
def _by_min(blocks):
    return tuple(sorted(blocks, key=min))


def _old_restrict(view, S):
    if isinstance(view, tuple):
        return _by_min(b & S for b in view if b & S)
    return frozenset(e for e in view if e <= S)


def _old_union(a, b):
    return _by_min(a + b) if isinstance(a, tuple) else a | b


def _old_relabel(f, view):
    images = [frozenset(f[v] for v in e) for e in view]
    return _by_min(images) if isinstance(view, tuple) else frozenset(images)


def _lex(sets):
    return sorted((len(e), tuple(sorted(e))) for e in sets)


def _old_encode_graph(labels, edges):
    parts = ",".join(f"{a}-{b}" for a, b in sorted(tuple(sorted(e)) for e in edges))
    return f"G:n={len(labels)};E={parts}"


def _old_encode_hypergraph(labels, edges):
    parts = ";".join("{" + ",".join(map(str, t)) + "}" for _, t in _lex(edges))
    return f"H:n={len(labels)};E={parts}"


def _old_encode_complex(labels, faces):
    facets = [f for f in faces if not any(f < g for g in faces)]
    parts = ";".join("F=" + ",".join(map(str, t)) for _, t in _lex(facets))
    return f"S:n={len(labels)};" + parts


def _old_encode_partition(labels, blocks):
    sep = "," if labels and max(labels) > 9 else ""
    body = "|".join(sep.join(map(str, sorted(b))) for b in blocks)
    return f"P:n={len(labels)};B={body}"


OLD_ENCODE = {Graph: _old_encode_graph, Hypergraph: _old_encode_hypergraph,
              SimplicialComplex: _old_encode_complex,
              SetPartition: _old_encode_partition}


def _old_separated_pairs(p):
    block_of = {v: i for i, b in enumerate(p.blocks) for v in b}
    return frozenset((a, b) for a, b in combinations(sorted(p.labels), 2)
                     if block_of[a] != block_of[b])


OLD_ORDER_KEY = {"graphs": lambda g: g.edges, "hypergraphs": lambda h: h.edges,
                 "simplicial": lambda c: c.faces,
                 "partitions": _old_separated_pairs}


def assert_matches_reference(x, labels, view):
    """x is the structure that the validating constructor builds from the
    reference labels and view: same ==, hash, encoding and decoded view."""
    reference = type(x)(labels, view)
    assert x == reference and hash(x) == hash(reference)
    assert x.labels == labels and getattr(x, FIELD[type(x)]) == view
    assert x.encode() == reference.encode() == OLD_ENCODE[type(x)](labels, view)


def test_kernel_matches_frozenset_reference():
    """Restriction, split, merge, relabelling, the enumerators, the native
    orders and the closed-form builders work on the integer kernel; each
    result must equal the frozenset reference above, rebuilt through the
    validating constructor."""
    for fam in FAMILIES.values():
        field = FIELD[type(fam.unit)]
        old_key = OLD_ORDER_KEY[fam.tag]
        top = 5 if fam is PARTITIONS else 4
        carriers = [fam.enumerate(frozenset(range(k))) for k in range(top + 1)]
        for k, carrier in enumerate(carriers):
            labels = frozenset(range(k))
            bijections = [dict(zip(range(k), img)) for img in permutations(range(k))]
            bijections.append({i: i + k for i in range(k)})
            for x in carrier:
                view = getattr(x, field)
                assert_matches_reference(x, labels, view)
                for S in subsets(labels):
                    assert_matches_reference(x.restrict(S), S, _old_restrict(view, S))
                    for piece, part in zip(fam.comult(x, S, labels - S), (S, labels - S)):
                        assert_matches_reference(piece, part, _old_restrict(view, part))
                for f in bijections:
                    assert_matches_reference(fam.relabel(f, x), frozenset(f.values()),
                                             _old_relabel(f, view))
                # every pair on small carriers, the first 64 partners on large
                for y in carrier[:64]:
                    assert fam.leq(x, y) == (old_key(x) <= old_key(y))
            for S in subsets(labels):
                for x in fam.enumerate(S):
                    for y in fam.enumerate(labels - S):
                        assert_matches_reference(
                            fam.mult(x, y), labels,
                            _old_union(getattr(x, field), getattr(y, field)))
    for k in range(5):
        for g in GRAPHS.enumerate(frozenset(range(k))):
            for h in graph_flats(g):
                assert_equals_validated_rebuild(h)
        for p in PARTITIONS.enumerate(frozenset(range(k))):
            for tau in closed_form_antipode_partitions(p).terms:
                assert_equals_validated_rebuild(tau)
        for c in SIMPLICIAL.enumerate(frozenset(range(k))):
            for image in closed_form_antipode_sc(c).terms:
                assert_equals_validated_rebuild(image)


def test_trusted_paths_still_reject_bad_labels():
    for fam, text in ((GRAPHS, "G:n=2;E=0-1"), (HYPERGRAPHS, "H:n=2;E={0,1}"),
                      (SIMPLICIAL, "S:n=2;F=0,1"), (PARTITIONS, "P:n=2;B=01")):
        x = G(text)
        with pytest.raises(LabelMismatch):
            x.restrict({-1, 0})
        for image in ({0: -1, 1: 0}, {0: "a", 1: 0}):
            with pytest.raises(LabelMismatch):
                fam.relabel(image, x)
    # a restriction beyond the labels goes through the validating constructor
    assert G("G:n=2;E=0-1").restrict({0, 1, 2}) == G("G:n=3;E=0-1")
    with pytest.raises(LabelMismatch):
        G("P:n=2;B=01").restrict({0, 1, 2})


def test_carrier_counts():
    assert len(GRAPHS.enumerate(frozenset(range(4)))) == 64
    assert len(HYPERGRAPHS.enumerate(frozenset(range(3)))) == 16
    assert len(SIMPLICIAL.enumerate(frozenset(range(3)))) == 19
    assert len(PARTITIONS.enumerate(frozenset(range(5)))) == 52


def test_simplicial_carrier_conventions_fixture():
    # with every singleton required to be a face, the n=3 carrier shrinks
    carrier = SIMPLICIAL.enumerate(frozenset(range(3)))
    all_singletons = [c for c in carrier
                      if all(frozenset({v}) in c.faces for v in range(3))]
    assert (len(carrier), len(all_singletons)) == (19, 9)


def test_simplicial_enumeration_matches_brute_force():
    labels = frozenset(range(3))
    faces_pool = [frozenset(s) for s in subsets(labels) if s]
    found = set()
    for chosen in subsets(range(len(faces_pool))):
        fam = {faces_pool[i] for i in chosen}
        fam.add(frozenset())
        if all((g in fam) for f in fam for g in map(frozenset, subsets(f))):
            found.add(frozenset(fam))
    assert found == {c.faces for c in SIMPLICIAL.enumerate(labels)}


def test_complexes_by_links_match_the_breadth_first_sweep():
    # the link recursion against the face-by-face oracle, sorted by encoding
    # as the oracle's are: on 0..k-1, on labels with gaps, on labels whose
    # encodings cross a digit boundary, and at the budget boundary of the
    # 167 complexes on 4 labels
    for labels in [range(k) for k in range(6)] + [{2, 5, 7}, {3, 9, 10, 12}]:
        labels = frozenset(labels)
        assert by_encoding(SIMPLICIAL.enumerate(labels)) == sc_enumerate_by_faces(
            labels, DEFAULT_BUDGET), sorted(labels)
    labels = frozenset(range(4))
    assert by_encoding(SIMPLICIAL.enumerate(labels, 167)) == sc_enumerate_by_faces(labels, 167)
    for enumerate_ in (SIMPLICIAL.enumerate, sc_enumerate_by_faces):
        with pytest.raises(CarrierOverflow, match="exceeds budget 166"):
            enumerate_(labels, 166)


def test_carrier_budget_overflow():
    with pytest.raises(CarrierOverflow):
        SIMPLICIAL.enumerate(frozenset(range(4)), budget=50)
    # counted as bell(n, cap) counts: the exact graph count on 3,000 labels
    # has over 4,300 digits, the hypergraph count on 30 labels 2^30 bits,
    # and Bell(3000) is thousands of sums of big ints
    for fam, n in ((GRAPHS, 3000), (GRAPHS, 200000), (HYPERGRAPHS, 5),
                   (HYPERGRAPHS, 30), (PARTITIONS, 3000)):
        with pytest.raises(CarrierOverflow, match="has more than 200000 elements"):
            fam.enumerate(range(n))


# ---------------------------------------------------------------------------
# free products and complements


def test_graph_free_product_examples():
    pt0 = Graph(frozenset({0}), frozenset())
    pt1 = Graph(frozenset({1}), frozenset())
    pt2 = Graph(frozenset({2}), frozenset())
    assert graph_free_product(pt0, pt1) == G("G:n=2;E=0-1")
    assert graph_free_product(G("G:n=2;E=0-1"), pt2) == G("G:n=3;E=0-1,0-2,1-2")
    assert graph_free_product(GRAPHS.unit, G("G:n=2;E=0-1")) == G("G:n=2;E=0-1")


def test_hypergraph_free_product_example():
    a = Hypergraph(frozenset({0}), frozenset())
    b = Hypergraph(frozenset({1, 2}), frozenset())
    prod = hypergraph_free_product(a, b)
    assert prod.edges == frozenset({frozenset({0, 1}), frozenset({0, 2}),
                                    frozenset({0, 1, 2})})
    assert hypergraph_free_product(HYPERGRAPHS.unit, b) == b


def test_complement_involution():
    for fam in (GRAPHS, HYPERGRAPHS):
        for n in range(5):
            if fam is HYPERGRAPHS and n > 4:
                continue
            for x in fam.enumerate(frozenset(range(n))):
                assert x.complement().complement() == x


def test_free_product_complement_identity():
    for fam, box in ((GRAPHS, graph_free_product),
                     (HYPERGRAPHS, hypergraph_free_product)):
        for n in range(5):
            labels = frozenset(range(n))
            for S in subsets(labels):
                T = labels - S
                for x in fam.enumerate(S):
                    for y in fam.enumerate(T):
                        lhs = box(x.complement(), y.complement()).complement()
                        assert lhs == fam.mult(x, y)


def test_box_indecomposable_iff_complement_connected():
    for fam, box, nmax in ((GRAPHS, graph_free_product, 4),
                           (HYPERGRAPHS, hypergraph_free_product, 4)):
        for n in range(1, nmax + 1):
            labels = frozenset(range(n))
            decomposable = set()
            for S in subsets(labels):
                T = labels - S
                if not S or not T:
                    continue
                for x in fam.enumerate(S):
                    for y in fam.enumerate(T):
                        decomposable.add(box(x, y))
            for x in fam.enumerate(labels):
                assert (x not in decomposable) == is_connected(x.complement())


# ---------------------------------------------------------------------------
# flats, contraction, orientation counts


def test_graph_flats_examples():
    edgeless = G("G:n=3;E=")
    assert graph_flats(edgeless) == (edgeless,)
    k2 = G("G:n=2;E=0-1")
    assert set(graph_flats(k2)) == {k2, G("G:n=2;E=")}
    k3 = G("G:n=3;E=0-1,0-2,1-2")
    assert set(graph_flats(k3)) == {k3, G("G:n=3;E=0-1"), G("G:n=3;E=0-2"),
                                    G("G:n=3;E=1-2"), G("G:n=3;E=")}
    # the path misses an internal edge of the triangle, so it is not a flat
    assert not is_flat(G("G:n=3;E=0-1,1-2"), k3)


def _graph_flats_oracle(g):
    """Every graph on the vertex set of g that is a flat of g."""
    out = [h for h in GRAPHS.enumerate(g.labels) if is_flat(h, g)]
    return tuple(sorted(out, key=Graph.encode))


def test_graph_flats_match_all_graphs_sweep():
    for n in range(5):
        for g in GRAPHS.enumerate(frozenset(range(n))):
            assert graph_flats(g) == _graph_flats_oracle(g), g.encode()
    # every 17th graph on 5 vertices by edge count, and K5: 62 graphs
    carrier = sorted(GRAPHS.enumerate(frozenset(range(5))),
                     key=lambda g: (len(g.edges), g.encode()))
    for g in carrier[::17] + [carrier[-1]]:
        assert graph_flats(g) == _graph_flats_oracle(g), g.encode()


def test_flats_equal_reassembly_upset():
    for n in range(5):
        for g in GRAPHS.enumerate(frozenset(range(n))):
            assert set(graph_flats(g)) == set(reassembly_upset(GRAPHS, g))


def test_contract_examples():
    k3 = G("G:n=3;E=0-1,0-2,1-2")
    q = contract(k3, G("G:n=3;E=0-1"))
    assert q == Graph(frozenset({0, 2}), frozenset({frozenset({0, 2})}))
    assert contract(k3, G("G:n=3;E=")) == k3
    connected = G("G:n=2;E=0-1")
    assert contract(connected, connected) == Graph(frozenset({0}), frozenset())
    with pytest.raises(NotAFlat):
        contract(k3, G("G:n=3;E=0-1,1-2"))


def test_acyclic_orientation_examples():
    assert acyclic_orientation_count(G("G:n=2;E=0-1")) == 2
    assert acyclic_orientation_count(G("G:n=3;E=0-1,0-2,1-2")) == 6
    assert acyclic_orientation_count(G("G:n=3;E=0-1,1-2")) == 4
    assert acyclic_orientation_count(GRAPHS.unit) == 1


def test_orientation_cache_is_bounded_and_shared_by_relabellings():
    # the count reads the integer deletion-contraction memo, keyed by the
    # canonical graph
    import hsl.families as fm
    cache = fm._acyclic
    bound = cache.cache_info().maxsize
    assert bound is not None
    cache.cache_clear()
    # one edge i-j on the labels 0..k-1: a distinct graph for each (k, i, j)
    graphs = (Graph(frozenset(range(k)), [(i, j)])
              for k in range(2, 64) for j in range(k) for i in range(j))
    for g in islice(graphs, bound + 1):
        assert acyclic_orientation_count(g) == 2
    assert cache.cache_info().currsize == bound
    cache.cache_clear()
    assert acyclic_orientation_count(G("G:n=3;E=0-1,1-2")) == 4
    filled = cache.cache_info()
    assert acyclic_orientation_count(Graph({5, 7, 9}, [(5, 7), (7, 9)])) == 4
    info = cache.cache_info()
    assert (info.currsize, info.hits) == (filled.currsize, filled.hits + 1)


def test_acyclic_memo_matches_the_brute_count_and_chromatic_at_minus_one():
    # the integer deletion-contraction a(G) = a(G - e) + a(G / e) against
    # the exhaustive cut search and |chi(-1)| on every graph on up to 5
    # labels, K6 and K7 less one edge; K7 has 21 edges, past the cut
    # search, and is checked against |chi(-1)| and 7!
    pairs = list(combinations(range(7), 2))
    graphs = [g for n in range(6) for g in GRAPHS.enumerate(frozenset(range(n)))]
    graphs += [Graph(range(6), combinations(range(6), 2)), Graph(range(7), pairs[1:])]
    for g in graphs:
        count = acyclic_orientation_count(g)
        assert type(count) is int, g.encode()
        assert count == acyclic_orientations_brute(g) == abs(
            chromatic_polynomial(g).evaluate(-1)), g.encode()
    k7 = Graph(range(7), pairs)
    assert acyclic_orientation_count(k7) == abs(chromatic_polynomial(k7).evaluate(-1)) == 5040


def test_chromatic_polynomial_known_values():
    k3 = G("G:n=3;E=0-1,0-2,1-2")
    assert chromatic_polynomial(k3) == IntPolynomial({3: 1, 2: -3, 1: 2})
    path = G("G:n=3;E=0-1,1-2")
    assert chromatic_polynomial(path).evaluate(3) == 3 * 2 * 2
    assert chromatic_polynomial(G("G:n=4;E=")).evaluate(2) == 16


def test_orientation_count_cross_check_small():
    for n in range(5):
        for g in GRAPHS.enumerate(frozenset(range(n))):
            assert (acyclic_orientations_brute(g)
                    == abs(chromatic_polynomial(g).evaluate(-1)))


def test_cut_search_matches_the_sweep_of_every_orientation():
    graphs = ([g for n in range(6) for g in GRAPHS.enumerate(frozenset(range(n)))]
              + list(islice(GRAPHS.enumerate(frozenset(range(6))), 0, None, 331))
              + list(GRAPHS.enumerate(frozenset({2, 5, 9, 30}))))
    for g in graphs:
        assert acyclic_orientations_brute(g) == acyclic_orientations_sweep(g), g.encode()


def test_cut_search_follows_every_branch_where_nothing_closes_a_cycle():
    # the sparse cases: a 12-edge path cuts nothing, and a 12-edge cycle
    # cuts only its two cyclic orientations, at its last edge
    path = Graph(range(13), [(i, i + 1) for i in range(12)])
    cycle = Graph(range(12), [(i, (i + 1) % 12) for i in range(12)])
    assert acyclic_orientations_brute(path) == acyclic_orientations_sweep(path) == 2 ** 12
    assert (acyclic_orientations_brute(cycle) == acyclic_orientations_sweep(cycle)
            == 2 ** 12 - 2)


def test_orientation_count_matches_the_cut_search_from_13_to_20_edges():
    # the band where the count once ran the cut search alone: K6, K7 less
    # one edge, a 13-edge path, and seeded graphs on 7 labels of each size
    rng = random.Random(13)
    pairs = list(combinations(range(7), 2))
    graphs = [Graph(range(6), combinations(range(6), 2)),
              Graph(range(7), pairs[1:]),
              Graph(range(14), [(i, i + 1) for i in range(13)])]
    graphs += [Graph(range(7), rng.sample(pairs, m)) for m in range(13, 21)]
    for g in graphs:
        assert 13 <= len(g.edges) <= 20
        assert acyclic_orientation_count(g) == acyclic_orientations_brute(g), g.encode()


def test_runtime_orientation_route_never_runs_the_cut_search(monkeypatch):
    # the cut search is a test oracle: `hsl.families` no longer holds it
    def cut_search(g):
        raise AssertionError("the runtime route ran the cut search")

    assert not hasattr(families, "acyclic_orientations_brute")
    monkeypatch.setattr(literal_oracle, "acyclic_orientations_brute", cut_search)
    families._chromatic.cache_clear()
    k5 = Graph(range(5), combinations(range(5), 2))
    assert acyclic_orientation_count(k5) == factorial(5)
    assert closed_form_antipode_graphs(k5) == closed_form_antipode(GRAPHS, k5).vector
    for c in SIMPLICIAL.enumerate(frozenset(range(4))):
        assert closed_form_antipode_sc(c) == closed_form_antipode(SIMPLICIAL, c).vector


def test_brute_orientation_count_refuses_more_than_20_edges():
    k7 = Graph(range(7), combinations(range(7), 2))
    with pytest.raises(CarrierOverflow) as raised:
        acyclic_orientations_brute(k7)
    assert str(raised.value) == "21 edges is too many for brute-force orientation"
    assert acyclic_orientation_count(k7) == factorial(7)  # the chromatic route


# ---------------------------------------------------------------------------
# the int kernel of the family formulas against the routes it replaced
#
# The literal routes stay here as oracles: flats from the frozenset sweep of
# set_partitions, and each quotient contracted, relabelled to 0..k-1 and
# encoded, with its orientations and chromatic polynomial cached by that
# encoding in a dict the caller passes.


@cache
def _pinned_graphs():
    """Every graph on up to 5 labels, every 331st graph on 6 in enumeration
    order, and every 5th graph on the labels 1, 4, 6, 9."""
    return ([g for n in range(6) for g in GRAPHS.enumerate(frozenset(range(n)))]
            + list(islice(GRAPHS.enumerate(frozenset(range(6))), 0, None, 331))
            + list(islice(GRAPHS.enumerate(frozenset({1, 4, 6, 9})), 0, None, 5)))


def _pinned_complexes():
    """Every complex on up to 4 labels, and every complex on 1, 4, 6."""
    return [c for labels in [range(n) for n in range(5)] + [{1, 4, 6}]
            for c in SIMPLICIAL.enumerate(frozenset(labels))]


def _flats_literal(g):
    """{flat: its components} of g, from the frozenset set-partition sweep."""
    out = {}
    for part in set_partitions(g.labels):
        edges = set()
        for block in part:
            inside = g.restrict(block)
            if len(graph_components(inside)) != 1:
                break
            edges |= inside.edges
        else:
            out[Graph(g.labels, edges)] = frozenset(part)
    return out


def _canonical_encoding(g):
    """g relabelled to 0..k-1, keeping the order of its labels, encoded."""
    rank = {v: i for i, v in enumerate(sorted(g.labels))}
    return Graph(rank.values(), [map(rank.get, e) for e in g.edges]).encode()


def _chromatic_literal(encoding, seen):
    """Deletion-contraction on the lex-least edge, cached by encoding."""
    if encoding not in seen:
        g = parse_structure(encoding)
        if not g.edges:
            seen[encoding] = IntPolynomial({len(g.labels): 1})
        else:
            a, b = min(tuple(sorted(e)) for e in g.edges)
            rest = g.edges - {frozenset({a, b})}
            merged = {frozenset(a if v == b else v for v in e) for e in rest}
            deleted = Graph(g.labels, rest)
            contracted = Graph(g.labels - {b}, [e for e in merged if len(e) == 2])
            seen[encoding] = (_chromatic_literal(_canonical_encoding(deleted), seen)
                              - _chromatic_literal(_canonical_encoding(contracted), seen))
    return seen[encoding]


def _orientations_literal(encoding, seen, chromatic):
    """Brute-force orientations (the pinned graphs have at most 15 edges),
    checked against |chi(-1)| up to 12 edges."""
    if encoding not in seen:
        g = parse_structure(encoding)
        seen[encoding] = brute = acyclic_orientations_brute(g)
        if len(g.edges) <= 12:
            assert brute == abs(_chromatic_literal(encoding, chromatic).evaluate(-1))
    return seen[encoding]


def _flat_terms_literal(g, orientations, chromatic):
    """{flat: (its components, its closed-form coefficient)}."""
    return {h: (blocks, (-1) ** len(blocks) * _orientations_literal(
                _canonical_encoding(contract(g, h)), orientations, chromatic))
            for h, blocks in _flats_literal(g).items()}


def _as_label_sets(blocks, labels):
    """The blocks of a flat, position masks over the sorted labels, as
    label sets."""
    order = sorted(labels)
    return frozenset(frozenset(order[i] for i in _bits(b)) for b in blocks)


def test_flats_and_quotients_match_the_frozenset_sweep():
    for g in _pinned_graphs():
        got = {families._of(Graph, g.labels, bits):
               (_as_label_sets(blocks, g.labels),
                families._of(Graph, frozenset(range(len(blocks))), quotient).encode())
               for bits, blocks, quotient in families._flats(g)}
        want = {h: (blocks, _canonical_encoding(contract(g, h)))
                for h, blocks in _flats_literal(g).items()}
        assert got == want, g.encode()


def test_flat_terms_and_family_formulas_match_the_encoding_route():
    orientations, chromatic = {}, {}
    for g in _pinned_graphs():
        terms = _flat_terms_literal(g, orientations, chromatic)
        got = {families._of(Graph, g.labels, bits): (_as_label_sets(blocks, g.labels), c)
               for bits, blocks, c in families._flat_terms(g)}
        assert got == terms, g.encode()
        assert closed_form_antipode_graphs(g) == FreeVector(
            "graphs", g.labels, [(h, c) for h, (_, c) in terms.items()]), g.encode()
    for c in _pinned_complexes():
        terms = _flat_terms_literal(sc_one_skeleton(c), orientations, chromatic)
        assert closed_form_antipode_sc(c) == FreeVector(
            "simplicial", c.labels,
            [(sc_gamma_of_flat(c, h), k) for h, (_, k) in terms.items()]), c.encode()


def test_counts_and_cache_entries_match_the_encoding_caches():
    # the int caches hold one entry per canonical graph, as the encoding
    # caches did: a contraction that left its labels unshifted would key
    # one graph under several ints.  The chromatic cache and the acyclic
    # memo contract the same edge, so each holds the literal recursion's
    # graphs
    for g in _pinned_graphs():
        families._chromatic.cache_clear()
        families._acyclic.cache_clear()
        orientations, chromatic = {}, {}
        encoding = _canonical_encoding(g)
        assert acyclic_orientation_count(g) == _orientations_literal(
            encoding, orientations, chromatic), g.encode()
        assert chromatic_polynomial(g) == _chromatic_literal(encoding, chromatic)
        assert families._chromatic.cache_info().currsize == len(chromatic), g.encode()
        assert families._acyclic.cache_info().currsize == len(chromatic), g.encode()


def test_graph_rank():
    assert graph_rank(G("G:n=3;E=")) == 0
    assert graph_rank(G("G:n=3;E=0-1")) == 1
    assert graph_rank(G("G:n=3;E=0-1,0-2,1-2")) == 2


# ---------------------------------------------------------------------------
# simplicial helpers


def test_sc_one_skeleton():
    full = SimplicialComplex.from_facets(frozenset(range(3)), [frozenset({0, 1, 2})])
    assert sc_one_skeleton(full) == G("G:n=3;E=0-1,0-2,1-2")
    partial = G("S:n=3;F=0,1;F=0,2")
    assert sc_one_skeleton(partial) == G("G:n=3;E=0-1,0-2")
    vertex_only = G("S:n=3;F=0;F=1;F=2")
    assert sc_one_skeleton(vertex_only) == G("G:n=3;E=")


def test_sc_gamma_of_flat():
    full = SimplicialComplex.from_facets(frozenset(range(3)), [frozenset({0, 1, 2})])
    skel = sc_one_skeleton(full)
    assert sc_gamma_of_flat(full, skel) == full
    restricted = sc_gamma_of_flat(full, G("G:n=3;E=0-1"))
    assert restricted == G("S:n=3;F=0,1;F=2")
    dim0 = sc_gamma_of_flat(full, G("G:n=3;E="))
    assert dim0 == G("S:n=3;F=0;F=1;F=2")
    with pytest.raises(NotAFlat):
        sc_gamma_of_flat(full, G("G:n=3;E=0-1,1-2"))


def test_sc_reassembly_upset_is_flat_image():
    for n in range(5):
        for c in SIMPLICIAL.enumerate(frozenset(range(n))):
            skel = sc_one_skeleton(c)
            images = {sc_gamma_of_flat(c, f) for f in graph_flats(skel)}
            assert images == set(reassembly_upset(SIMPLICIAL, c))


# ---------------------------------------------------------------------------
# closed-form antipodes against the defining-sum oracle


def test_closed_form_graphs_frozen_examples():
    pt = Graph(frozenset({0}), frozenset())
    assert closed_form_antipode_graphs(pt) == FreeVector("graphs", pt.labels,
                                                         [(pt, -1)])
    k2 = G("G:n=2;E=0-1")
    assert closed_form_antipode_graphs(k2) == FreeVector(
        "graphs", k2.labels, [(k2, -1), (G("G:n=2;E="), 2)])
    k3 = G("G:n=3;E=0-1,0-2,1-2")
    expected = FreeVector("graphs", k3.labels, [
        (k3, -1), (G("G:n=3;E=0-1"), 2), (G("G:n=3;E=0-2"), 2),
        (G("G:n=3;E=1-2"), 2), (G("G:n=3;E="), -6)])
    assert closed_form_antipode_graphs(k3) == expected


def test_closed_form_graphs_matches_defining_sum():
    for n in range(4):
        for g in GRAPHS.enumerate(frozenset(range(n))):
            assert closed_form_antipode_graphs(g) == takeuchi_antipode(GRAPHS, g)


def test_closed_form_partitions_frozen_examples():
    for n in range(1, 5):
        singles = SetPartition(frozenset(range(n)),
                               tuple(frozenset({v}) for v in range(n)))
        assert closed_form_antipode_partitions(singles) == FreeVector(
            "partitions", singles.labels, [(singles, (-1) ** n)])
    p01 = G("P:n=2;B=01")
    assert closed_form_antipode_partitions(p01) == FreeVector(
        "partitions", p01.labels, [(p01, -1), (G("P:n=2;B=0|1"), 2)])
    p012 = G("P:n=3;B=012")
    expected = FreeVector("partitions", p012.labels, [
        (p012, -1), (G("P:n=3;B=01|2"), 2), (G("P:n=3;B=02|1"), 2),
        (G("P:n=3;B=0|12"), 2), (G("P:n=3;B=0|1|2"), -6)])
    assert closed_form_antipode_partitions(p012) == expected


def test_closed_form_partitions_matches_defining_sum():
    # up to 5 labels, and on labels that are not 0..n-1, one of them past 9
    for labels in [range(n) for n in range(6)] + [{2, 5, 7, 11}]:
        for q in PARTITIONS.enumerate(frozenset(labels)):
            assert closed_form_antipode_partitions(q) == takeuchi_antipode(PARTITIONS, q)


def test_closed_form_sc_frozen_examples():
    single = G("S:n=1;F=0")
    assert closed_form_antipode_sc(single) == FreeVector(
        "simplicial", single.labels, [(single, -1)])
    edge = G("S:n=2;F=0,1")
    assert closed_form_antipode_sc(edge) == FreeVector(
        "simplicial", edge.labels, [(edge, -1), (G("S:n=2;F=0;F=1"), 2)])


def test_closed_form_sc_matches_defining_sum():
    # up to 3 labels, and on the labels 1, 4, 6
    for labels in [range(n) for n in range(4)] + [{1, 4, 6}]:
        for c in SIMPLICIAL.enumerate(frozenset(labels)):
            assert closed_form_antipode_sc(c) == takeuchi_antipode(SIMPLICIAL, c)


def _closed_form_graphs_literal(g):
    n = len(g.labels)
    return FreeVector("graphs", g.labels, [
        (h, (-1) ** (n - graph_rank(h)) * acyclic_orientation_count(contract(g, h)))
        for h in graph_flats(g)])


def _closed_form_sc_literal(c):
    skel, n = sc_one_skeleton(c), len(c.labels)
    return FreeVector("simplicial", c.labels, [
        (sc_gamma_of_flat(c, f),
         (-1) ** (n - graph_rank(f)) * acyclic_orientation_count(contract(skel, f)))
        for f in graph_flats(skel)])


def test_partition_formula_counts_bell_before_its_sweep(monkeypatch):
    # Bell(13) = 27,644,437 refinements of the one-block partition; the
    # per-block table is what would build them
    def refinements(m):
        raise AssertionError("the refinement sweep ran past its budget")

    monkeypatch.setattr(families, "_block_refinements", refinements)
    with pytest.raises(CarrierOverflow):
        closed_form_antipode_partitions(SetPartition(range(13), [range(13)]))


def test_closed_forms_read_components_off_the_flat_sweep(monkeypatch):
    # the family formulas take each flat's components from the blocks of
    # its sweep; graph_rank (`literal_oracle`), contract and
    # sc_gamma_of_flat, which search components and check flatness, are
    # the oracle
    graphs = [g for n in range(5) for g in GRAPHS.enumerate(frozenset(range(n)))]
    complexes = [c for n in range(4) for c in SIMPLICIAL.enumerate(frozenset(range(n)))]
    complexes += by_encoding(SIMPLICIAL.enumerate(frozenset(range(4))))[::7]
    expected = ([_closed_form_graphs_literal(g) for g in graphs],
                [_closed_form_sc_literal(c) for c in complexes])

    def searched(g):
        raise AssertionError(f"components of {g.encode()} searched again")
    monkeypatch.setattr(families, "graph_components", searched)
    assert [closed_form_antipode_graphs(g) for g in graphs] == expected[0]
    assert [closed_form_antipode_sc(c) for c in complexes] == expected[1]


# ---------------------------------------------------------------------------
# unique factorization


def test_unique_unordered_factorization_all_families():
    for fam in FAMILIES.values():
        for n in range(5):
            if fam is HYPERGRAPHS and n > 4:
                continue
            for x in fam.enumerate(frozenset(range(n))):
                f = factorize(fam, x)
                assert all(is_indecomposable(fam, part) for part in f.factors)
                assert grading(fam, x) == len(f)


def test_grading_matches_component_count():
    for n in range(5):
        for g in GRAPHS.enumerate(frozenset(range(n))):
            assert grading(GRAPHS, g) == len(graph_components(g))
    for n in range(5):
        for q in PARTITIONS.enumerate(frozenset(range(n))):
            assert grading(PARTITIONS, q) == len(q.blocks)
    for n in range(4):
        for c in SIMPLICIAL.enumerate(frozenset(range(n))):
            assert grading(SIMPLICIAL, c) == len(
                graph_components(sc_one_skeleton(c)))

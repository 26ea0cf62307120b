"""The four concrete structure families: graphs, hypergraphs, simplicial
complexes, and set partitions, with their native orders, free products,
complements, flats, contractions, and acyclic-orientation counts.

Canonical encodings (bit-exact, in serialized output and in the sorts of
public tuples), joined from per-byte tables of part texts or block texts:

    graph:      G:n=<k>;E=<i>-<j>,...      edges sorted lexicographically
    hypergraph: H:n=<k>;E={i,j,...};...    hyperedges sorted by (size, lex)
    complex:    S:n=<k>;F=<facet>;...      facets sorted by (size, lex)
    partition:  P:n=<k>;B=01|2|...         blocks sorted by minimum

All four are set systems (Aguiar and Mahajan, 2010, ch. 8): a structure
is its label set plus one int, `bits`.  Graph edges and the same-block
pairs of a partition set bit j(j-1)/2 + i for the pair i < j; hyperedges
and faces set the bit of their label bitmask (the empty face is bit 0).
Restriction to S is `bits & mask(S)`, the disjoint-union merge is `|`,
the native orders compare key ints with `&`, and relabelling permutes
bits.  Ints built from valid ints that way are canonical, so only the
public constructors (`Graph(labels, edges)` and the others) validate, and
`parse_structure` checks just an encoding's syntax and label range before
it calls them; `.edges`, `.faces` and `.blocks` are decoded views.
No int is wider than MAX_BITS = 2^16 bits (an edge or same-block pair
joins labels below 362, a hyperedge or face lies in 0..15): whatever
builds one counts its width first and raises CarrierOverflow past it.
So `parse_structure` refuses more than MAX_BITS labels before it builds
the label set, and `from_facets` a wider facet before any face.
So x reassembled along a set partition pi of its labels is x.bits &
inside(pi), inside(pi) the `|` of the restriction masks of pi's blocks: a
mask of the label set alone.  `partition_masks` keeps one table of them
per class and label set, in the order of `_partitions`, and the
antipode's reassemblies and the order of its images, the partition
carrier, the refinements and the flats all read it.  The family formulas
run on the same ints: each quotient of a flat comes out canonical, and
the chromatic cache and the integer acyclic-orientation memo are keyed
by a graph's canonical (k, bits) on 0..k-1.
"""

from __future__ import annotations

import json
from functools import lru_cache, reduce
from itertools import combinations, product
from math import factorial, isqrt
from operator import or_

from .errors import (DEFAULT_BUDGET, CarrierOverflow, LabelMismatch, NotAFlat,
                     ParseError)
from .posets import IntPolynomial, _positions
from .species import (Family, _partitions, bell, check_label_set,
                      check_set_partition_budget, subsets)
from .vectors import FreeVector


# ---------------------------------------------------------------------------
# the integer kernel


MAX_BITS = 1 << 16


def _bit(k: int) -> int:
    """1 << k, or CarrierOverflow where that is wider than MAX_BITS."""
    if k >= MAX_BITS:
        raise CarrierOverflow(
            f"a structure or mask needs an integer wider than {MAX_BITS} bits")
    return 1 << k


def _pair(i: int, j: int) -> int:
    """The bit of the label pair {i, j}, i < j."""
    return j * (j - 1) // 2 + i


def _pair_of(k: int) -> tuple:
    """The label pair (i, j), i < j, at bit k."""
    j = (1 + isqrt(8 * k + 1)) // 2
    return k - j * (j - 1) // 2, j


def _mask(S) -> int:
    """The label bitmask of S: the bit of S as a hyperedge or a face."""
    return sum(1 << v for v in S)


# Restriction masks, one per label set: the bounds are far above the label
# sets one command or benchmark pass restricts to (2^n subsets of n labels).
@lru_cache(maxsize=4096)
def _pairs_in(S: frozenset) -> int:
    """The bits of the label pairs inside S."""
    top = sorted(S)
    if len(top) > 1:
        _bit(_pair(top[-2], top[-1]))  # the widest pair
    out = below = 0  # below: the labels of S under j
    for j in top:
        out |= below << j * (j - 1) // 2
        below |= 1 << j
    return out


@lru_cache(maxsize=4096)
def _subsets_in(S: frozenset) -> int:
    """The bits of the subsets of S, the empty one included."""
    _bit(_mask(S))  # the widest subset, S itself
    out = 1
    for v in S:
        out |= out << (1 << v)
    return out


# One table per (class, label set): the bound is far above the label sets
# one command or benchmark pass reassembles or sweeps partitions of.
@lru_cache(maxsize=256)
def partition_masks(cls, labels: frozenset) -> tuple:
    """inside(pi) for each set partition pi of `_partitions(len(labels))`
    over the positions of `labels`: the `|` of inside(B) over the blocks B
    of pi, from inside(∅).  A structure x of cls on `labels`, split into
    its restrictions to the blocks (`bits & inside(B)`) and merged back
    (`|`), is x.bits & inside(pi); x.bits & inside(∅) is the unit's int."""
    inside = tuple(map(cls._inside, subsets(labels)))  # by position mask
    return tuple(reduce(or_, map(inside.__getitem__, blocks), inside[0])
                 for blocks in _partitions(len(labels)))


@lru_cache(maxsize=16)
def _holding(top: int) -> tuple:
    """For each label v < top, the bits of the subsets of 0..top-1 holding v
    (the upper half of each period of 2^(v+1) bits) and 2^v, the shift that drops v."""
    repunit = (1 << (1 << top)) - 1
    return tuple((repunit // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v)), 1 << v)
                 for v in range(top))


def _image_pairs(f: dict, bits: int) -> int:
    """The pair bits of f's images of the pairs at `bits`, less loops."""
    out = 0
    for k in _positions(bits):
        i, j = _pair_of(k)
        a, b = f[i], f[j]
        if a != b:
            out |= _bit(_pair(a, b) if a < b else _pair(b, a))
    return out


def _image_subsets(f: dict, bits: int) -> int:
    """The subset bits of f's images of the subsets at `bits`; f is 1-1."""
    out = 0
    for m in _positions(bits):
        out |= _bit(_mask(f[v] for v in _positions(m)))
    return out


class _PartTable(dict):
    """{byte value b: {sort key: text} of the parts at b's set bits} for the
    byte from bit t of a subset int or from bit t - MAX_BITS of a pair int,
    each entry built on first use, as wide labels meet many tables.  A pair
    (i, j) is keyed i << 16 | j, lexicographic as j < 2^16, and printed
    "i-j"; a subset m is keyed |m| << 16 | (0xFFFF - m reversed in 16 bits),
    (size, lex) order as every hyperedge and face lies in 0..15, and printed
    as its members joined by ","."""

    __slots__ = ("parts",)  # the (key, text) of the byte's 8 bits

    def __init__(self, t: int):
        pairs, low = divmod(t, MAX_BITS)
        self.parts = parts = []
        for k in range(low, low + 8):
            if pairs:
                i, j = _pair_of(k)
                parts.append((i << 16 | j, f"{i}-{j}"))
            else:
                key = k.bit_count() << 16 | 0xFFFF - int(f"{k:016b}"[::-1], 2)
                parts.append((key, ",".join([str(v) for v in range(16) if k >> v & 1])))

    def __missing__(self, b):
        return self.setdefault(b, dict([self.parts[i] for i in range(8) if b >> i & 1]))


_part_table = lru_cache(maxsize=64)(_PartTable)  # one per byte an encoded int reaches


def _parts(bits: int, base: int) -> list:
    """The texts of the parts of a subset int (base 0) or a pair int (base
    MAX_BITS) in key order, read a nonzero byte at a time from the top."""
    texts = {}
    while bits:
        low = bits.bit_length() - 1 & -8
        b = bits >> low
        texts |= _part_table(base + low)[b]
        bits ^= b << low
    return list(map(texts.__getitem__, sorted(texts)))


@lru_cache(maxsize=4096)
def _block_text(m: int, sep: str) -> str:
    """The members of the label bitmask m joined by sep."""
    return sep.join(map(str, _positions(m)))


# ---------------------------------------------------------------------------
# structures


class _Structure:
    """A label set and the int over the family's subsets of it; immutable.
    Subclasses name the decoded view (`_view`), its validation into bits
    (`_validated`, which makes every check before it builds a bit, so an
    invalid part is a LabelMismatch however wide the valid ones are) and
    the restriction mask (`_inside`)."""

    __slots__ = ("labels", "bits")

    def __init__(self, labels, view):
        labels = check_label_set(labels)
        bits = self._validated(labels, view)
        _set_labels(self, labels)
        _set_bits(self, bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.bits == other.bits and self.labels == other.labels

    def __hash__(self):
        return hash((self.labels, self.bits))

    def __repr__(self):
        return f"{type(self).__name__}({self.encode()!r})"

    def restrict(self, S):
        S = frozenset(S)
        if S <= self.labels:
            return _of(type(self), S, self.bits & self._inside(S))
        # past the labels, the validating constructor checks S
        return type(self)(S, getattr(self.restrict(S & self.labels), self._view))


_set_labels = _Structure.labels.__set__
_set_bits = _Structure.bits.__set__
_new = object.__new__


def _of(cls, labels: frozenset, bits: int):
    """A cls with these fields as they are: valid bits, or bits made from
    valid ones by `&`, `|` and the relabel maps."""
    x = _new(cls)
    _set_labels(x, labels)
    _set_bits(x, bits)
    return x


def _split(x, S: frozenset, T: frozenset) -> tuple:
    """x restricted to S and to T; `Family.comult` checked they split it."""
    cls, bits = type(x), x.bits
    return _of(cls, S, bits & cls._inside(S)), _of(cls, T, bits & cls._inside(T))


class Graph(_Structure):
    __slots__ = ()
    _view = "edges"
    _inside = staticmethod(_pairs_in)

    @staticmethod
    def _validated(labels, edges) -> int:
        edges = set(map(frozenset, edges))
        for e in edges:
            if len(e) != 2 or not e <= labels:
                raise LabelMismatch(f"bad edge {sorted(e)}")
        return sum(_bit(_pair(*sorted(e))) for e in edges)

    @property
    def edges(self) -> frozenset:
        return frozenset(frozenset(_pair_of(k)) for k in _positions(self.bits))

    def encode(self) -> str:
        return f"G:n={len(self.labels)};E=" + ",".join(_parts(self.bits, MAX_BITS))

    def complement(self) -> "Graph":
        return _of(Graph, self.labels, _pairs_in(self.labels) & ~self.bits)


class Hypergraph(_Structure):
    __slots__ = ()
    _view = "edges"
    _inside = staticmethod(_subsets_in)

    @staticmethod
    def _validated(labels, edges) -> int:
        edges = set(map(frozenset, edges))
        for e in edges:
            if len(e) < 2 or not e <= labels:
                raise LabelMismatch(f"bad hyperedge {sorted(e)}")
        return sum(_bit(_mask(e)) for e in edges)

    @property
    def edges(self) -> frozenset:
        return frozenset(map(frozenset, map(_positions, _positions(self.bits))))

    def encode(self) -> str:
        edges = _parts(self.bits, 0)
        body = "{" + "};{".join(edges) + "}" if edges else ""
        return f"H:n={len(self.labels)};E=" + body

    def complement(self) -> "Hypergraph":
        labels = self.labels
        small = 1 | sum(1 << (1 << v) for v in labels)  # empty, singletons
        return _of(Hypergraph, labels, _subsets_in(labels) & ~(small | self.bits))


class SimplicialComplex(_Structure):
    """Downward-closed face family; the empty face is always present, so
    the complex with no vertices on a nonempty ground set is {()}."""

    __slots__ = ()
    _view = "faces"
    _inside = staticmethod(_subsets_in)

    @staticmethod
    def _validated(labels, faces) -> int:
        faces = frozenset(map(frozenset, faces)) | {frozenset()}
        for f in faces:
            if not f <= labels:
                raise LabelMismatch(f"face {sorted(f)} outside the ground set")
            for drop in f:
                if f - {drop} not in faces:
                    raise LabelMismatch(f"faces not downward closed at {sorted(f)}")
        return sum(_bit(_mask(f)) for f in faces)

    @property
    def faces(self) -> frozenset:
        return frozenset(map(frozenset, map(_positions, _positions(self.bits))))

    def _facet_bits(self) -> int:
        """The bits of the facets, the faces under no face one label larger."""
        faces = self.bits
        covered = 0
        for holding, shift in _holding((faces.bit_length() - 1).bit_length()):
            covered |= (faces & holding) >> shift
        return faces & ~covered

    def encode(self) -> str:
        return f"S:n={len(self.labels)};F=" + ";F=".join(_parts(self._facet_bits(), 0))

    @classmethod
    def from_facets(cls, labels, facets) -> "SimplicialComplex":
        """The `|` of the facets' subset masks, each facet checked to lie
        in the labels first: no face is built as a set."""
        labels = check_label_set(labels)
        facets = [frozenset(f) for f in facets]
        for f in facets:
            if not f <= labels:
                raise LabelMismatch(f"face {sorted(f)} outside the ground set")
        return _of(cls, labels, reduce(or_, map(_subsets_in, facets), 1))


class SetPartition(_Structure):
    __slots__ = ()
    _view = "blocks"
    _inside = staticmethod(_pairs_in)

    @staticmethod
    def _validated(labels, blocks) -> int:
        blocks = [frozenset(b) for b in blocks]
        seen: set = set()
        for b in blocks:
            if not b:
                raise LabelMismatch("empty block in set partition")
            if b & seen:
                raise LabelMismatch("overlapping blocks in set partition")
            seen |= b
        if seen != labels:
            raise LabelMismatch("blocks do not cover the label set")
        return sum(map(_pairs_in, blocks))  # the blocks are disjoint

    def block_masks(self) -> list:
        """The label bitmasks of the blocks, by minimum.  The bits from
        j(j-1)/2 up hold the labels below j in j's block, lowest first."""
        blocks: dict = {}
        bits = self.bits
        for j in sorted(self.labels):
            below = bits >> j * (j - 1) // 2 & ((1 << j) - 1)
            first = (below & -below).bit_length() - 1 if below else j
            blocks[first] = blocks.get(first, 0) | 1 << j
        return list(blocks.values())

    @property
    def blocks(self) -> tuple:
        return tuple(frozenset(_positions(m)) for m in self.block_masks())

    def encode(self) -> str:
        sep = "," if self.labels and max(self.labels) > 9 else ""
        body = "|".join([_block_text(m, sep) for m in self.block_masks()])
        return f"P:n={len(self.labels)};B=" + body


# ---------------------------------------------------------------------------
# parsing


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}") from None


# prefix: (section tag, part separator, the validating builder, and the
# label texts of one part, or None where its syntax is wrong).  Partitions
# are canonical with one digit per label up to ten labels and commas
# beyond, where a one-label block such as "10" has no comma to go by.
_GRAMMAR = {
    "G": ("E=", ",", Graph,
          lambda part, n: part.split("-", 1) if "-" in part else None),
    "H": ("E=", ";", Hypergraph,
          lambda part, n: [v for v in part[1:-1].split(",") if v]
          if part[:1] == "{" and part[-1:] == "}" else None),
    "S": ("F=", ";F=", SimplicialComplex.from_facets,
          lambda part, n: [v for v in part.split(",") if v]),
    "P": ("B=", "|", SetPartition,
          lambda part, n: part.split(",") if "," in part or n > 10 else part),
}


def _parse_header(text: str) -> tuple:
    """(the grammar of text's prefix, n, the body after the header); no
    label set is built."""
    grammar = _GRAMMAR.get(text[:1])
    if grammar is None:
        raise ParseError(f"unknown structure encoding {text!r}")
    if text[1:4] != ":n=":
        raise ParseError(f"expected {text[0]}:n=..., got {text!r}")
    head, sep, body = text[4:].partition(";")
    if not sep:
        raise ParseError(f"missing ';' in {text!r}")
    n = _parse_int(head, "label count")
    if n < 0:
        raise ParseError(f"negative label count in {text!r}")
    return grammar, n, body


def parse_label_count(text: str) -> int:
    """The label count in the header of any encoding; the body is not read."""
    return _parse_header(text)[1]


def parse_structure(text: str):
    """Parse any encoding on the labels 0..n-1 by its prefix's grammar.
    This checks the syntax and that every label is in range, before the
    builder runs, so an out-of-range part is a ParseError however wide the
    others are.  The builder, a public constructor, checks the rest, and
    its LabelMismatch is re-raised as ParseError."""
    (section, sep, build, tokens), n, body = _parse_header(text)
    if n > MAX_BITS:
        raise CarrierOverflow(f"{n} labels need a mask wider than {MAX_BITS} bits")
    if not body.startswith(section):
        raise ParseError(f"expected {section} section in {text!r}")
    parts = []
    for part in body[len(section):].split(sep) if body != section else ():
        texts = tokens(part, n)
        if texts is None:
            raise ParseError(f"bad part {part!r} in {text!r}")
        members = frozenset(_parse_int(v, "label") for v in texts)
        if not all(0 <= v < n for v in members):
            raise ParseError(f"part {part!r} outside 0..{n - 1} in {text!r}")
        parts.append(members)
    try:
        return build(frozenset(range(n)), parts)
    except LabelMismatch as exc:
        raise ParseError(f"{text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# connectivity helpers


def _components(labels, groups) -> tuple:
    """Connected components of `labels` where the labels of each group (a
    label bitmask) are glued together, as frozensets sorted by minimum."""
    comps = [1 << v for v in labels]
    for group in groups:  # the components that a group meets become one
        met = [c for c in comps if c & group]
        comps = [c for c in comps if not c & group] + [sum(met)]
    return tuple(frozenset(_positions(c)) for c in sorted(comps, key=lambda c: c & -c))


def graph_components(g: Graph) -> tuple:
    return _components(g.labels, (_mask(_pair_of(k)) for k in _positions(g.bits)))


def is_connected(x) -> bool:
    if isinstance(x, SimplicialComplex):
        x = sc_one_skeleton(x)
    if isinstance(x, Graph):
        return len(graph_components(x)) == 1
    if isinstance(x, Hypergraph):  # each hyperedge bit is its label bitmask
        return len(_components(x.labels, _positions(x.bits))) == 1
    raise TypeError(f"no connectivity notion for {type(x)}")


# ---------------------------------------------------------------------------
# free products and disjoint unions


def _union(a, b):
    """Every family's merge, on labels that `Family.mult` checked disjoint."""
    return _of(type(a), a.labels | b.labels, a.bits | b.bits)


def graph_free_product(a, b):
    """Disjoint union plus every edge, or hyperedge, meeting both sides;
    equals the complement of the disjoint union of the complements."""
    both, inside = a.labels | b.labels, a._inside
    cross = inside(both) & ~inside(a.labels) & ~inside(b.labels)
    return _of(type(a), both, a.bits | b.bits | cross)


hypergraph_free_product = graph_free_product


# ---------------------------------------------------------------------------
# family registry


def _or_of_every_subset(singles) -> list:
    """The ORs of all subsets of `singles`, in bitmask order over them."""
    out = [0]
    for b in singles:
        out += [o | b for o in out]
    return out


def _graph_enumerate(labels, budget):
    pairs = [_bit(_pair(i, j)) for i, j in combinations(sorted(labels), 2)]
    return tuple(_of(Graph, labels, b) for b in _or_of_every_subset(pairs))


def _hypergraph_enumerate(labels, budget):
    cands = [_bit(_mask(c)) for k in range(2, len(labels) + 1)
             for c in combinations(sorted(labels), k)]
    return tuple(_of(Hypergraph, labels, b) for b in _or_of_every_subset(cands))


def _sc_enumerate(labels, budget):
    """The complexes by their links, over the labels in ascending order: a
    complex on the labels up to v is its deletion a of v plus the cone
    over its link b, a subcomplex of a (0: v is no vertex), whose faces,
    b's with v added, lie 2^v bits above b's."""
    _bit((2 << max(labels, default=0)) - 1)  # every face's bit is below 2^(top label + 1)
    level = [1]
    for v in sorted(labels):
        row = []
        for a in level:
            row += [a | b << (1 << v) for b in (0, *level) if not b & ~a]
            if len(row) > budget:
                raise CarrierOverflow(f"simplicial carrier exceeds budget {budget}")
        level = row
    return tuple(sorted((_of(SimplicialComplex, labels, b) for b in level),
                        key=SimplicialComplex.encode))


def _partition_enumerate(labels, budget):
    """The set partitions of `_partitions` in reverse, the singletons first:
    the int of a partition is its mask, the pairs inside its blocks."""
    return tuple(_of(SetPartition, labels, m)
                 for m in reversed(partition_masks(SetPartition, labels)))


def _capped_power(e: int, cap: int) -> int:
    """2^e, or a power of two above cap where 2^e is (as `bell(n, cap)`)."""
    return 1 << min(e, cap.bit_length())


def _relabelled(cls, image):
    """The relabel map of cls, with `image` the map of its bits.
    `Family.relabel` checks that f is a bijection; this checks its image."""
    return lambda f, x: _of(cls, check_label_set(f.values()), image(f, x.bits))


GRAPHS = Family(
    tag="graphs",
    count_fn=lambda n, cap: _capped_power(n * (n - 1) // 2, cap),
    enumerate_fn=_graph_enumerate,
    unit=Graph(frozenset(), frozenset()),
    relabel_fn=_relabelled(Graph, _image_pairs),
    mult_fn=_union,
    comult_fn=_split,
    box_fn=graph_free_product,
    order_key=lambda g: g.bits,
    adjunction_kinds=("delta_box", "delta_m"),
)

HYPERGRAPHS = Family(
    tag="hypergraphs",
    count_fn=lambda n, cap: _capped_power((1 << n) - n - 1, cap),
    enumerate_fn=_hypergraph_enumerate,
    unit=Hypergraph(frozenset(), frozenset()),
    relabel_fn=_relabelled(Hypergraph, _image_subsets),
    mult_fn=_union,
    comult_fn=_split,
    box_fn=hypergraph_free_product,
    order_key=lambda h: h.bits,
    adjunction_kinds=("delta_box", "delta_m"),
)

SIMPLICIAL = Family(
    tag="simplicial",
    count_fn=None,
    enumerate_fn=_sc_enumerate,
    unit=SimplicialComplex(frozenset(), frozenset({frozenset()})),
    relabel_fn=_relabelled(SimplicialComplex, _image_subsets),
    mult_fn=_union,
    comult_fn=_split,
    box_fn=None,
    order_key=lambda c: c.bits,
    adjunction_kinds=("m_delta", "delta_m"),
)

PARTITIONS = Family(
    tag="partitions",
    count_fn=bell,
    enumerate_fn=_partition_enumerate,
    unit=SetPartition(frozenset(), ()),
    relabel_fn=_relabelled(SetPartition, _image_pairs),
    mult_fn=_union,
    comult_fn=_split,
    box_fn=None,
    # the separated pairs: tau refines pi iff tau separates all pi separates
    order_key=lambda p: _pairs_in(p.labels) & ~p.bits,
    adjunction_kinds=("delta_m",),
)

FAMILIES = {f.tag: f for f in (GRAPHS, HYPERGRAPHS, SIMPLICIAL, PARTITIONS)}

def free_vector_from_json(data) -> FreeVector:
    if isinstance(data, str):
        data = json.loads(data)
    tag, _, labeltext = data["ambient"].partition(":")
    labels = frozenset(int(v) for v in labeltext.split(",") if v != "")
    terms = [(parse_structure(enc), coeff) for enc, coeff in data["terms"].items()]
    return FreeVector(tag, labels, terms)


# ---------------------------------------------------------------------------
# flats, contraction, acyclic orientations


def is_flat(h: Graph, g: Graph) -> bool:
    """h is a flat of g when g restricted to each connected component of h
    agrees with h there."""
    inside = sum(map(_pairs_in, graph_components(h)))  # disjoint components
    return h.labels == g.labels and g.bits & inside == h.bits


def _flats(g: Graph) -> list:
    """(edge bits, blocks, quotient) of each flat of g.

    A flat is the disjoint union of the restrictions of g to the blocks of
    a set partition whose blocks each induce a connected subgraph, so the
    sweep runs over the Bell(n) set partitions of the positions of g's
    sorted labels (`_partitions`), not over every graph on them (Benedetti
    and Sagan, 2017): the flat along pi is g.bits & inside(pi)
    (`partition_masks`).  The blocks are the flat's components as label
    masks, by lowest label.  The quotient g/flat is the int of the graph
    on 0..k-1 whose label i is block i, with i-j an edge where g joins
    blocks i and j."""
    labels = tuple(sorted(g.labels))
    n = len(labels)
    check_set_partition_budget(n, DEFAULT_BUDGET)
    position = {v: 1 << i for i, v in enumerate(labels)}
    adjacent = dict.fromkeys(labels, 0)
    for k in _positions(g.bits):
        a, b = _pair_of(k)
        adjacent[a] |= position[b]
        adjacent[b] |= position[a]
    near = _or_of_every_subset(adjacent.values())  # positions next to each mask
    span = _or_of_every_subset(1 << v for v in labels)  # the labels at each mask
    connected = []  # by mask: does g restricted to it connect it
    for m in range(1 << n):
        reach = m & -m
        while (grown := reach | near[reach] & m) != reach:
            reach = grown
        connected.append(reach == m)
    out = []
    for blocks, inside in zip(_partitions(n), partition_masks(Graph, g.labels)):
        if all(map(connected.__getitem__, blocks)):
            quotient = 0
            for j, b in enumerate(blocks):
                low = j * (j - 1) // 2  # the bit of the pair (0, j)
                for i in range(j):
                    if near[blocks[i]] & b:
                        quotient |= 1 << low + i
            out.append((g.bits & inside, tuple(map(span.__getitem__, blocks)), quotient))
    return out


def graph_flats(g: Graph) -> tuple:
    """All flats of g, sorted by encoding (see `_flats`)."""
    return tuple(sorted((_of(Graph, g.labels, bits) for bits, _, _ in _flats(g)),
                        key=Graph.encode))


def graph_rank(g: Graph) -> int:
    """Size of a spanning forest: |vertices| - number of components."""
    return len(g.labels) - len(graph_components(g))


def contract(g: Graph, h: Graph) -> Graph:
    """Quotient of g by a flat h: one vertex per component of h (labeled
    by its minimum), one edge per pair of components joined in g.
    Multiplicities and loops are forgotten."""
    if not is_flat(h, g):
        raise NotAFlat(f"{h.encode()} is not a flat of {g.encode()}")
    return _quotient(g, graph_components(h))


def _quotient(g: Graph, blocks) -> Graph:
    """g with each block merged into its minimum."""
    name = {v: min(block) for block in blocks for v in block}
    return _of(Graph, frozenset(name.values()), _image_pairs(name, g.bits))


def acyclic_orientations_brute(g: Graph) -> int:
    """Count the orientations with no directed cycle by building each one;
    only sensible for |E| <= 20.  Edges are oriented one at a time, on
    label positions; reach[v] is the bitset of positions v reaches, v
    included.  tail->head closes a cycle exactly when reach[head] holds
    tail, and every completion of that branch keeps the cycle, so the
    branch is cut: it counts 0 per orientation, as a sweep of all 2^|E|
    would.  Otherwise every reach holding tail gains reach[head].  Each
    acyclic orientation is one leaf, built once: an exhaustive count,
    independent of the chromatic polynomial it is checked against."""
    edges = sorted(map(_pair_of, _positions(g.bits)))
    if len(edges) > 20:
        raise CarrierOverflow(
            f"{len(edges)} edges is too many for brute-force orientation")
    at = {v: i for i, v in enumerate(sorted(g.labels))}
    arcs = [((at[a], at[b]), (at[b], at[a])) for a, b in edges]

    def count(i: int, reach: list) -> int:  # acyclic orientations of edges i..
        out = 0
        for tail, head in arcs[i]:
            gained, bit = reach[head], 1 << tail
            if not gained & bit:  # after the last edge, a leaf counts 1
                out += 1 if i == len(arcs) - 1 else count(
                    i + 1, [r | gained if r & bit else r for r in reach])
        return out
    return count(0, [1 << i for i in range(len(at))]) if arcs else 1


def _canonical(g: Graph) -> tuple:
    """(k, bits): g relabelled to 0..k-1, keeping the order of its labels."""
    mapping = {v: i for i, v in enumerate(sorted(g.labels))}
    return len(mapping), _image_pairs(mapping, g.bits)


def chromatic_polynomial(g: Graph) -> IntPolynomial:
    """Proper-coloring counting polynomial via deletion-contraction."""
    return _chromatic(*_canonical(g))


def _contract_edge(k: int, bits: int) -> tuple:
    """The graph on 0..k-1 less its least edge a-b; that with b merged into a, on 0..k-2."""
    a, b = min(map(_pair_of, _positions(bits)))
    rest = bits & ~(1 << _pair(a, b))
    return rest, _image_pairs([*range(b), a, *range(b, k - 1)], rest)


# One entry per graph on 0..k-1: K8 fills 92.
@lru_cache(maxsize=4096)
def _chromatic(k: int, bits: int) -> IntPolynomial:
    """The chromatic polynomial of the graph on 0..k-1 with int `bits`."""
    if not bits:
        return IntPolynomial({k: 1})
    rest, merged = _contract_edge(k, bits)
    return _chromatic(k, rest) - _chromatic(k - 1, merged)


# Keyed and bounded like `_chromatic`: a closed-form benchmark pass fills 237.
@lru_cache(maxsize=4096)
def _acyclic(k: int, bits: int) -> int:
    if not bits:
        return 1
    rest, merged = _contract_edge(k, bits)
    return _acyclic(k, rest) + _acyclic(k - 1, merged)


def acyclic_orientation_count(g: Graph) -> int:
    """Number of acyclic orientations, |chi(-1)| (Stanley, 1973), by integer
    deletion-contraction, a(G) = a(G - e) + a(G / e) and 1 with no edge;
    `acyclic_orientations_brute`, one by one, is its oracle."""
    return _acyclic(*_canonical(g))


# ---------------------------------------------------------------------------
# one-skeletons of complexes


def sc_one_skeleton(c: SimplicialComplex) -> Graph:
    edges = (_positions(m) for m in _positions(c.bits) if m.bit_count() == 2)
    return _of(Graph, c.labels, sum(1 << _pair(i, j) for i, j in edges))


def sc_gamma_of_flat(c: SimplicialComplex, f: Graph) -> SimplicialComplex:
    """Union of the restrictions of c to the connected components of a
    flat of its 1-skeleton."""
    skel = sc_one_skeleton(c)
    if not is_flat(f, skel):
        raise NotAFlat(f"{f.encode()} is not a flat of the 1-skeleton")
    return _gamma(c, map(_mask, graph_components(f)))


def _gamma(c: SimplicialComplex, blocks) -> SimplicialComplex:
    """The faces of c inside one of the blocks (label masks), and the
    empty face."""
    inside = reduce(or_, (_subsets_in(frozenset(_positions(b))) for b in blocks), 1)
    return _of(SimplicialComplex, c.labels, c.bits & inside)


# ---------------------------------------------------------------------------
# closed-form antipodes specific to each family


def _flat_terms(g: Graph):
    """(bits, blocks, coefficient) for each flat of g in the closed form:
    (-1)^(|I| - rank) * acyc(g/flat).  The flat's components are its
    blocks, so rank = |I| - #blocks, and g/flat comes canonical from the
    sweep."""
    for bits, blocks, quotient in _flats(g):
        k = len(blocks)
        yield bits, blocks, (-1) ** k * _acyclic(k, quotient)


def closed_form_antipode_graphs(g: Graph) -> FreeVector:
    """Sum over flats h of (-1)^(|I| - rank(h)) * acyc(g/h) * h."""
    terms = {_of(Graph, g.labels, bits): coeff for bits, _, coeff in _flat_terms(g)}
    return FreeVector(GRAPHS.tag, g.labels, terms)


def _refinements(p: SetPartition):
    """All partitions refining p, with the per-block refinement shape."""
    per_block = [zip(partition_masks(SetPartition, frozenset(_positions(m))),
                     map(len, _partitions(m.bit_count())))
                 for m in p.block_masks()]
    for choice in product(*per_block):
        bits = 0
        for same, _ in choice:
            bits |= same
        yield _of(SetPartition, p.labels, bits), tuple(k for _, k in choice)


def closed_form_antipode_partitions(p: SetPartition) -> FreeVector:
    """Sum over refinements tau of (-1)^len(tau) * prod(lambda_i!) * tau,
    where lambda_i counts the blocks of tau inside the i-th block of p."""
    check_set_partition_budget(len(p.labels), DEFAULT_BUDGET)
    terms: dict = {}
    for tau, shape in _refinements(p):
        coeff = (-1) ** sum(shape)
        for lam in shape:
            coeff *= factorial(lam)
        terms[tau] = terms.get(tau, 0) + coeff
    return FreeVector(PARTITIONS.tag, p.labels, terms)


def closed_form_antipode_sc(c: SimplicialComplex) -> FreeVector:
    """Sum over flats F of the 1-skeleton of
    (-1)^(|I| - rank(F)) * acyc(skeleton/F) * Gamma(F), with coefficients
    of identical images accumulated."""
    terms = [(_gamma(c, blocks), coeff)
             for _, blocks, coeff in _flat_terms(sc_one_skeleton(c))]
    return FreeVector(SIMPLICIAL.tag, c.labels, terms)

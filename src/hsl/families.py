"""The four concrete structure families: graphs, hypergraphs, simplicial
complexes, and set partitions, with their native orders, free products,
complements, flats, contractions, and acyclic-orientation counts.

Canonical encodings (bit-exact, used everywhere as dictionary keys and
in serialized output):

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
parsers and the public constructors (`Graph(labels, edges)` and the
others) validate; `.edges`, `.faces` and `.blocks` are decoded views.
No int is wider than MAX_BITS = 2^16 bits (an edge or same-block pair
joins labels below 362, a hyperedge or face lies in 0..15): whatever
builds one counts its width first and raises CarrierOverflow past it.
For a family whose split and merge are these two ops, `restriction_bits`
gives the antipode's restriction table as ints, with no map call.  The
family formulas run on the same ints: flats sweep the block-mask set
partitions of the label positions (`_partitions`), each quotient comes
out canonical, and the orientation and chromatic caches are keyed by a
graph's canonical (k, bits) on 0..k-1.
"""

from __future__ import annotations

import json
from functools import lru_cache, partial, reduce
from itertools import combinations, product
from math import factorial, isqrt
from operator import or_

from .errors import (DEFAULT_BUDGET, CarrierOverflow, LabelMismatch, NotAFlat,
                     ParseError)
from .posets import IntPolynomial, _bits
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


@lru_cache(maxsize=4096)
def _members(m: int) -> tuple:
    """The positions of the set bits of m, ascending."""
    return tuple(_bits(m))


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


@lru_cache(maxsize=256)
def _by_position(labels: tuple) -> tuple:
    """(span, pairs) over the position masks m of `labels`, ascending:
    span[m] is the label mask of the labels at m, pairs[m] the bits of the
    label pairs among them.  The bound is far above the label sets one
    command or benchmark pass sweeps partitions of."""
    if len(labels) > 1:
        _bit(_pair(labels[-2], labels[-1]))  # the widest pair
    span, pairs = [0], [0]
    for v in labels:  # each mask of the labels so far, then with v added
        low = v * (v - 1) // 2  # the bit of the pair (0, v)
        pairs += [p | s << low for p, s in zip(pairs, span)]
        span += [s | 1 << v for s in span]
    return tuple(span), tuple(pairs)


@lru_cache(maxsize=16)
def _holding(top: int) -> tuple:
    """For each label v < top, the bits of the subsets of 0..top-1 that hold
    v: the upper half of each period of 2^(v+1) bits."""
    repunit = (1 << (1 << top)) - 1
    return tuple(repunit // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v))
                 for v in range(top))


def _image_pairs(f: dict, bits: int) -> int:
    """The pair bits of f's images of the pairs at `bits`, less loops."""
    out = 0
    for k in _bits(bits):
        i, j = _pair_of(k)
        a, b = f[i], f[j]
        if a != b:
            out |= _bit(_pair(a, b) if a < b else _pair(b, a))
    return out


def _image_subsets(f: dict, bits: int) -> int:
    """The subset bits of f's images of the subsets at `bits`; f is 1-1."""
    out = 0
    for m in _bits(bits):
        out |= _bit(_mask(f[v] for v in _members(m)))
    return out


def _by_size(bits: int) -> list:
    """The subset bits of `bits` in (size, lex) order of their subsets."""
    return sorted(_bits(bits), key=lambda m: (m.bit_count(), _members(m)))


# ---------------------------------------------------------------------------
# structures


class _Structure:
    """A label set and the int over the family's subsets of it; immutable.
    Subclasses name the decoded view (`_view`), its validation into bits
    (`_validated`) and the restriction mask (`_inside`)."""

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
        bits = 0
        for e in map(frozenset, edges):
            if len(e) != 2 or not e <= labels:
                raise LabelMismatch(f"bad edge {sorted(e)}")
            bits |= _bit(_pair(*sorted(e)))
        return bits

    @property
    def edges(self) -> frozenset:
        return frozenset(frozenset(_pair_of(k)) for k in _bits(self.bits))

    def encode(self) -> str:
        pairs = sorted(map(_pair_of, _bits(self.bits)))
        parts = ",".join(f"{a}-{b}" for a, b in pairs)
        return f"G:n={len(self.labels)};E={parts}"

    def complement(self) -> "Graph":
        return _of(Graph, self.labels, _pairs_in(self.labels) & ~self.bits)


class Hypergraph(_Structure):
    __slots__ = ()
    _view = "edges"
    _inside = staticmethod(_subsets_in)

    @staticmethod
    def _validated(labels, edges) -> int:
        bits = 0
        for e in map(frozenset, edges):
            if len(e) < 2 or not e <= labels:
                raise LabelMismatch(f"bad hyperedge {sorted(e)}")
            bits |= _bit(_mask(e))
        return bits

    @property
    def edges(self) -> frozenset:
        return frozenset(map(frozenset, map(_members, _bits(self.bits))))

    def encode(self) -> str:
        parts = ";".join("{" + ",".join(map(str, _members(m))) + "}"
                         for m in _by_size(self.bits))
        return f"H:n={len(self.labels)};E={parts}"

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
        bits = 0
        for f in faces:
            if not f <= labels:
                raise LabelMismatch(f"face {sorted(f)} outside the ground set")
            for drop in f:
                if f - {drop} not in faces:
                    raise LabelMismatch(f"faces not downward closed at {sorted(f)}")
            bits |= _bit(_mask(f))
        return bits

    @property
    def faces(self) -> frozenset:
        return frozenset(map(frozenset, map(_members, _bits(self.bits))))

    def _facet_bits(self) -> list:
        """The facets, faces under no face one label larger, (size, lex)."""
        faces = self.bits
        covered = 0
        for v, holding in enumerate(_holding((faces.bit_length() - 1).bit_length())):
            covered |= (faces & holding) >> (1 << v)
        return _by_size(faces & ~covered)

    def encode(self) -> str:
        parts = ";".join("F=" + ",".join(map(str, _members(m)))
                         for m in self._facet_bits())
        return f"S:n={len(self.labels)};" + parts

    @classmethod
    def from_facets(cls, labels, facets) -> "SimplicialComplex":
        return cls(labels, (face for f in facets for face in subsets(f)))


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
        return tuple(frozenset(_members(m)) for m in self.block_masks())

    def encode(self) -> str:
        sep = "," if self.labels and max(self.labels) > 9 else ""
        body = "|".join(sep.join(map(str, _members(m))) for m in self.block_masks())
        return f"P:n={len(self.labels)};B={body}"


# ---------------------------------------------------------------------------
# parsing


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}") from None


def _parse_header(text: str, prefix: str, section: str = ""):
    """(n, the body after its section tag); no label set is built."""
    if not text.startswith(prefix + ":n="):
        raise ParseError(f"expected {prefix}:n=..., got {text!r}")
    rest = text[len(prefix) + 3:]
    head, sep, body = rest.partition(";")
    if not sep:
        raise ParseError(f"missing ';' in {text!r}")
    n = _parse_int(head, "label count")
    if n < 0:
        raise ParseError(f"negative label count in {text!r}")
    if not body.startswith(section):
        raise ParseError(f"expected {section} section in {text!r}")
    return n, body[len(section):]


def parse_label_count(text: str) -> int:
    """The label count in the header of any encoding; the body is not read."""
    if not text or text[0] not in _PARSERS:
        raise ParseError(f"unknown structure encoding {text!r}")
    return _parse_header(text, text[0])[0]


def parse_graph(text: str) -> Graph:
    n, payload = _parse_header(text, "G", "E=")
    labels = frozenset(range(n))
    edges = set()
    if payload:
        for part in payload.split(","):
            a, sep, b = part.partition("-")
            if not sep:
                raise ParseError(f"bad edge {part!r}")
            edge = frozenset({_parse_int(a, "vertex"), _parse_int(b, "vertex")})
            if not edge <= labels or len(edge) != 2:
                raise ParseError(f"edge {part!r} outside label range")
            edges.add(edge)
    return Graph(labels, edges)


def parse_hypergraph(text: str) -> Hypergraph:
    n, payload = _parse_header(text, "H", "E=")
    labels = frozenset(range(n))
    edges = set()
    if payload:
        for part in payload.split(";"):
            if not (part.startswith("{") and part.endswith("}")):
                raise ParseError(f"bad hyperedge {part!r}")
            members = frozenset(_parse_int(v, "vertex")
                                for v in part[1:-1].split(",") if v != "")
            if len(members) < 2 or not members <= labels:
                raise ParseError(f"bad hyperedge {part!r}")
            edges.add(members)
    return Hypergraph(labels, edges)


def parse_simplicial(text: str) -> SimplicialComplex:
    n, payload = _parse_header(text, "S", "F=")
    labels = frozenset(range(n))
    facets = []
    for part in ("F=" + payload).split(";"):
        if not part.startswith("F="):
            raise ParseError(f"bad facet section {part!r}")
        payload = part[2:]
        members = frozenset(_parse_int(v, "vertex")
                            for v in payload.split(",") if v != "")
        if not members <= labels:
            raise ParseError(f"facet {payload!r} outside label range")
        facets.append(members)
    return SimplicialComplex.from_facets(labels, facets)


def parse_partition(text: str) -> SetPartition:
    n, payload = _parse_header(text, "P", "B=")
    labels = frozenset(range(n))
    blocks = []
    if payload:
        for part in payload.split("|"):
            # canonical: one digit per label up to ten labels, commas beyond,
            # where a one-label block such as "10" has no comma to go by
            digits = part.split(",") if "," in part or n > 10 else part
            members = frozenset(_parse_int(v, "label") for v in digits)
            if not members:
                raise ParseError(f"empty block in {text!r}")
            blocks.append(members)
    covered = frozenset().union(*blocks) if blocks else frozenset()
    if covered != labels:
        raise ParseError(f"blocks do not cover 0..{n - 1} in {text!r}")
    return SetPartition(labels, tuple(blocks))


_PARSERS = {"G": parse_graph, "H": parse_hypergraph,
            "S": parse_simplicial, "P": parse_partition}


def parse_structure(text: str):
    """Parse any canonical encoding, dispatching on its prefix letter."""
    if not text or text[0] not in _PARSERS:
        raise ParseError(f"unknown structure encoding {text!r}")
    return _PARSERS[text[0]](text)


# ---------------------------------------------------------------------------
# connectivity helpers


def _components(labels, groups) -> tuple:
    """Connected components of `labels` where the labels of each group (a
    label bitmask) are glued together, as frozensets sorted by minimum."""
    comps = [1 << v for v in labels]
    for group in groups:  # the components that a group meets become one
        met = [c for c in comps if c & group]
        comps = [c for c in comps if not c & group] + [sum(met)]
    return tuple(frozenset(_members(c)) for c in sorted(comps, key=lambda c: c & -c))


def _edge_masks(bits: int):
    """The label bitmask of each pair at `bits`."""
    for k in _bits(bits):
        i, j = _pair_of(k)
        yield 1 << i | 1 << j


def graph_components(g: Graph) -> tuple:
    return _components(g.labels, _edge_masks(g.bits))


def is_connected(x) -> bool:
    if isinstance(x, SimplicialComplex):
        x = sc_one_skeleton(x)
    if isinstance(x, Graph):
        return len(graph_components(x)) == 1
    if isinstance(x, Hypergraph):  # each hyperedge bit is its label bitmask
        return len(_components(x.labels, _bits(x.bits))) == 1
    raise TypeError(f"no connectivity notion for {type(x)}")


# ---------------------------------------------------------------------------
# free products and disjoint unions


def _union(a, b):
    """Every family's merge, on labels that `Family.mult` checked disjoint."""
    return _of(type(a), a.labels | b.labels, a.bits | b.bits)


def restriction_bits(fam: Family, x, subs) -> tuple | None:
    """(bits, make) where fam splits with `_split` and merges with
    `_union`, None for any other family.  bits[i] is the int of x
    restricted to subs[i], `x.bits & inside(subs[i])`, and make(S, b) is
    the structure on S with int b.  On these ints the split of a
    restriction is `&` and the merge of restrictions to disjoint label
    sets is `|`, folded from `fam.unit.bits`."""
    if fam.comult_fn is not _split or fam.mult_fn is not _union:
        return None
    cls, bits = type(x), x.bits
    return [bits & cls._inside(S) for S in subs], partial(_of, cls)


def graph_free_product(a, b):
    """Disjoint union plus every edge, or hyperedge, meeting both sides;
    equals the complement of the disjoint union of the complements."""
    both, inside = a.labels | b.labels, a._inside
    cross = inside(both) & ~inside(a.labels) & ~inside(b.labels)
    return _of(type(a), both, a.bits | b.bits | cross)


hypergraph_free_product = graph_free_product


def partition_union(a: SetPartition, b: SetPartition) -> SetPartition:
    if not a.labels.isdisjoint(b.labels):  # the constructor rejects the overlap
        return SetPartition(a.labels | b.labels, a.blocks + b.blocks)
    return _union(a, b)


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
    """Grow complexes from {()} one face at a time, its boundary present."""
    labels = frozenset(labels)
    # each nonempty subset's bit, with the bits of its boundary faces
    candidates = [(_bit(m), sum(1 << (m ^ 1 << v) for v in c))
                  for k in range(1, len(labels) + 1)
                  for c in combinations(sorted(labels), k) for m in [_mask(c)]]
    seen = frontier = {1}
    while frontier:
        frontier = {faces | face for faces in frontier for face, boundary in candidates
                    if not faces & face and faces & boundary == boundary} - seen
        if len(seen) + len(frontier) > budget:
            raise CarrierOverflow(f"simplicial carrier exceeds budget {budget}")
        seen = seen | frontier
    return tuple(sorted((_of(SimplicialComplex, labels, b) for b in seen),
                        key=SimplicialComplex.encode))


def _partition_enumerate(labels, budget):
    """The set partitions of `_partitions` in reverse, the singletons first."""
    order = tuple(sorted(labels))
    pairs = _by_position(order)[1]
    return tuple(_of(SetPartition, labels, sum(map(pairs.__getitem__, blocks)))
                 for blocks in reversed(_partitions(len(order))))


def _relabelled(cls, image):
    """The relabel map of cls, with `image` the map of its bits.
    `Family.relabel` checks that f is a bijection; this checks its image."""
    return lambda f, x: _of(cls, check_label_set(f.values()), image(f, x.bits))


GRAPHS = Family(
    tag="graphs",
    count_fn=lambda labels: 2 ** (len(labels) * (len(labels) - 1) // 2),
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
    count_fn=lambda labels: 2 ** (2 ** len(labels) - len(labels) - 1),
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
    count_fn=lambda labels: bell(len(labels)),
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
    and Sagan, 2017).  The blocks are the flat's components as label
    masks, by lowest label.  The quotient g/flat is the int of the graph
    on 0..k-1 whose label i is block i, with i-j an edge where g joins
    blocks i and j."""
    labels = tuple(sorted(g.labels))
    n = len(labels)
    check_set_partition_budget(n, DEFAULT_BUDGET)
    span, pairs = _by_position(labels)
    position = {v: 1 << i for i, v in enumerate(labels)}
    adjacent = dict.fromkeys(labels, 0)
    for k in _bits(g.bits):
        a, b = _pair_of(k)
        adjacent[a] |= position[b]
        adjacent[b] |= position[a]
    near = _or_of_every_subset(adjacent.values())  # positions next to each mask
    inside = [g.bits & p for p in pairs]  # edges in each mask, None if disconnected
    for m in range(1, 1 << n):
        reach = m & -m
        while (grown := reach | near[reach] & m) != reach:
            reach = grown
        if reach != m:
            inside[m] = None
    out = []
    for blocks in _partitions(n):
        bits = 0
        for b in blocks:
            edges = inside[b]
            if edges is None:
                break
            bits |= edges
        else:
            quotient = 0
            for j, b in enumerate(blocks):
                low = j * (j - 1) // 2  # the bit of the pair (0, j)
                for i in range(j):
                    if near[blocks[i]] & b:
                        quotient |= 1 << low + i
            out.append((bits, tuple(map(span.__getitem__, blocks)), quotient))
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
    """Count orientations with no directed cycle by enumerating all of
    them; only sensible for |E| <= 20."""
    edges = sorted(map(_pair_of, _bits(g.bits)))
    m = len(edges)
    if m > 20:
        raise CarrierOverflow(f"{m} edges is too many for brute-force orientation")
    count = 0
    for mask in range(2 ** m):
        succ = dict.fromkeys(g.labels, 0)  # vertex -> bitmask of its successors
        for i, (a, b) in enumerate(edges):
            tail, head = (a, b) if mask >> i & 1 else (b, a)
            succ[tail] |= 1 << head
        count += _is_acyclic(succ)
    return count


def _is_acyclic(succ: dict) -> bool:
    """Whether taking out vertices with no successor left, again and
    again, takes out all of them: no directed cycle."""
    left = _mask(succ)
    while left:
        before = left
        for v in _members(left):
            if not succ[v] & left:
                left ^= 1 << v
        if left == before:
            return False
    return True


def _canonical(g: Graph) -> tuple:
    """(k, bits): g relabelled to 0..k-1, keeping the order of its labels."""
    mapping = {v: i for i, v in enumerate(sorted(g.labels))}
    return len(mapping), _image_pairs(mapping, g.bits)


def chromatic_polynomial(g: Graph) -> IntPolynomial:
    """Proper-coloring counting polynomial via deletion-contraction."""
    return _chromatic(*_canonical(g))


# One entry per graph on 0..k-1: a closed-form benchmark pass fills 235, K8 92.
@lru_cache(maxsize=4096)
def _chromatic(k: int, bits: int) -> IntPolynomial:
    """The chromatic polynomial of the graph on 0..k-1 with int `bits`."""
    if not bits:
        return IntPolynomial({k: 1})
    a, b = min(map(_pair_of, _bits(bits)))
    rest = bits & ~(1 << _pair(a, b))
    # contract b into a; the labels above b move down one, onto 0..k-2
    merge = [*range(b), a, *range(b, k - 1)]
    return _chromatic(k, rest) - _chromatic(k - 1, _image_pairs(merge, rest))


def acyclic_orientation_count(g: Graph) -> int:
    """Number of acyclic orientations; brute-force for small edge sets,
    chromatic-polynomial evaluation at -1 otherwise, with a runtime
    agreement check where both routes are cheap."""
    return _orientations(*_canonical(g))


# One entry per graph on 0..k-1: a closed-form benchmark pass fills 131.
@lru_cache(maxsize=4096)
def _orientations(k: int, bits: int) -> int:
    """The acyclic orientations of the graph on 0..k-1 with int `bits`."""
    edges = bits.bit_count()
    if edges > 20:
        return abs(_chromatic(k, bits).evaluate(-1))
    g = _of(Graph, frozenset(range(k)), bits)
    brute = acyclic_orientations_brute(g)
    if edges <= 12:
        via_chromatic = abs(_chromatic(k, bits).evaluate(-1))
        if brute != via_chromatic:
            raise ArithmeticError(
                f"orientation count mismatch on {g.encode()}: {brute} vs {via_chromatic}")
    return brute


# ---------------------------------------------------------------------------
# one-skeletons of complexes


def sc_one_skeleton(c: SimplicialComplex) -> Graph:
    bits = 0
    for m in _bits(c.bits):
        if m.bit_count() == 2:
            bits |= 1 << _pair((m & -m).bit_length() - 1, m.bit_length() - 1)
    return _of(Graph, c.labels, bits)


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
    inside = reduce(or_, (_subsets_in(frozenset(_members(b))) for b in blocks), 1)
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
        yield bits, blocks, (-1) ** k * _orientations(k, quotient)


def closed_form_antipode_graphs(g: Graph) -> FreeVector:
    """Sum over flats h of (-1)^(|I| - rank(h)) * acyc(g/h) * h."""
    terms = {_of(Graph, g.labels, bits): coeff for bits, _, coeff in _flat_terms(g)}
    return FreeVector(GRAPHS.tag, g.labels, terms)


def _refinements(p: SetPartition):
    """All partitions refining p, with the per-block refinement shape."""
    per_block = []
    for m in p.block_masks():
        pairs = _by_position(_members(m))[1]
        per_block.append([(sum(map(pairs.__getitem__, blocks)), len(blocks))
                          for blocks in _partitions(m.bit_count())])
    for choice in product(*per_block):
        bits = 0
        for same, _ in choice:
            bits |= same
        yield _of(SetPartition, p.labels, bits), tuple(k for _, k in choice)


def closed_form_antipode_partitions(p: SetPartition) -> FreeVector:
    """Sum over refinements tau of (-1)^len(tau) * prod(lambda_i!) * tau,
    where lambda_i counts the blocks of tau inside the i-th block of p."""
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

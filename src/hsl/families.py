"""The four concrete structure families: graphs, hypergraphs, simplicial
complexes, and set partitions, with their native orders, free products,
complements, flats, contractions, and acyclic-orientation counts.

Canonical encodings (bit-exact, used everywhere as dictionary keys and
in serialized output):

    graph:      G:n=<k>;E=<i>-<j>,...      edges sorted lexicographically
    hypergraph: H:n=<k>;E={i,j,...};...    hyperedges sorted by (size, lex)
    complex:    S:n=<k>;F=<facet>;...      facets sorted by (size, lex)
    partition:  P:n=<k>;B=01|2|...         blocks sorted by minimum

Parsers and the public constructors validate.  Restriction, disjoint-union
merge, relabelling and the enumerators build with `_trusted` instead: their
results are valid by construction (Aguiar and Mahajan, 2010, ch. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import (DEFAULT_BUDGET, CarrierOverflow, LabelMismatch, NotAFlat,
                     ParseError)
from .posets import IntPolynomial
from .species import (Family, UnorderedSetPartition, check_label_set,
                      check_set_partition_budget, set_partitions, subsets)
from .vectors import FreeVector


# ---------------------------------------------------------------------------
# structures


def _trusted(cls, labels: frozenset, field: str, value):
    """A `cls` on `labels` with `field` set to `value`, unchecked.  The caller
    passes a valid structure in canonical form: frozensets throughout,
    partition blocks sorted by minimum, complexes holding the empty face."""
    x = object.__new__(cls)
    object.__setattr__(x, "labels", labels)
    object.__setattr__(x, field, value)
    return x


def _restricted(x, S: frozenset, field: str, value):
    """x's type on S with `value`: trusted inside x's labels, else validated."""
    if S <= x.labels:
        return _trusted(type(x), S, field, value)
    return type(x)(S, value)


@dataclass(frozen=True)
class Graph:
    labels: frozenset
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "labels", check_label_set(self.labels))
        edges = frozenset(frozenset(e) for e in self.edges)
        for e in edges:
            if len(e) != 2 or not e <= self.labels:
                raise LabelMismatch(f"bad edge {sorted(e)}")
        object.__setattr__(self, "edges", edges)

    def encode(self) -> str:
        parts = ",".join(f"{a}-{b}" for a, b in
                         sorted(tuple(sorted(e)) for e in self.edges))
        return f"G:n={len(self.labels)};E={parts}"

    def restrict(self, S) -> "Graph":
        S = frozenset(S)
        return _restricted(self, S, "edges", frozenset(e for e in self.edges if e <= S))

    def complement(self) -> "Graph":
        allpairs = frozenset(frozenset(p) for p in combinations(sorted(self.labels), 2))
        return Graph(self.labels, allpairs - self.edges)


@dataclass(frozen=True)
class Hypergraph:
    labels: frozenset
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "labels", check_label_set(self.labels))
        edges = frozenset(frozenset(e) for e in self.edges)
        for e in edges:
            if len(e) < 2 or not e <= self.labels:
                raise LabelMismatch(f"bad hyperedge {sorted(e)}")
        object.__setattr__(self, "edges", edges)

    def encode(self) -> str:
        keys = sorted((len(e), tuple(sorted(e))) for e in self.edges)
        parts = ";".join("{" + ",".join(map(str, t)) + "}" for _, t in keys)
        return f"H:n={len(self.labels)};E={parts}"

    def restrict(self, S) -> "Hypergraph":
        S = frozenset(S)
        return _restricted(self, S, "edges", frozenset(e for e in self.edges if e <= S))

    def complement(self) -> "Hypergraph":
        alledges = frozenset(frozenset(c)
                             for k in range(2, len(self.labels) + 1)
                             for c in combinations(sorted(self.labels), k))
        return Hypergraph(self.labels, alledges - self.edges)


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face family; the empty face is always present, so
    the complex with no vertices on a nonempty ground set is {()}."""

    labels: frozenset
    faces: frozenset

    def __post_init__(self):
        object.__setattr__(self, "labels", check_label_set(self.labels))
        faces = frozenset(frozenset(f) for f in self.faces) | {frozenset()}
        for f in faces:
            if not f <= self.labels:
                raise LabelMismatch(f"face {sorted(f)} outside the ground set")
            for drop in f:
                if f - {drop} not in faces:
                    raise LabelMismatch(f"faces not downward closed at {sorted(f)}")
        object.__setattr__(self, "faces", faces)

    def facets(self) -> tuple:
        out = [f for f in self.faces
               if not any(f < g for g in self.faces)]
        return tuple(sorted(out, key=lambda f: (len(f), tuple(sorted(f)))))

    def encode(self) -> str:
        parts = ";".join("F=" + ",".join(map(str, sorted(f))) for f in self.facets())
        return f"S:n={len(self.labels)};" + parts

    def restrict(self, S) -> "SimplicialComplex":
        S = frozenset(S)
        return _restricted(self, S, "faces", frozenset(f for f in self.faces if f <= S))

    @classmethod
    def from_facets(cls, labels, facets) -> "SimplicialComplex":
        faces = {frozenset()}
        for f in facets:
            f = frozenset(f)
            for sub in subsets(f):
                faces.add(sub)
        return cls(frozenset(labels), frozenset(faces))


@dataclass(frozen=True)
class SetPartition:
    labels: frozenset
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", check_label_set(self.labels))
        usp = UnorderedSetPartition(self.blocks)
        if usp.ambient != self.labels:
            raise LabelMismatch("blocks do not cover the label set")
        object.__setattr__(self, "blocks", usp.blocks)

    def encode(self) -> str:
        if self.labels and max(self.labels) > 9:
            body = "|".join(",".join(map(str, sorted(b))) for b in self.blocks)
        else:
            body = "|".join("".join(map(str, sorted(b))) for b in self.blocks)
        return f"P:n={len(self.labels)};B={body}"

    def restrict(self, S) -> "SetPartition":
        S = frozenset(S)
        blocks = sorted((b & S for b in self.blocks if b & S), key=min)
        return _restricted(self, S, "blocks", tuple(blocks))


# ---------------------------------------------------------------------------
# parsing


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}") from None


def _parse_header(text: str, prefix: str):
    if not text.startswith(prefix + ":n="):
        raise ParseError(f"expected {prefix}:n=..., got {text!r}")
    rest = text[len(prefix) + 3:]
    head, sep, body = rest.partition(";")
    if not sep:
        raise ParseError(f"missing ';' in {text!r}")
    n = _parse_int(head, "label count")
    if n < 0:
        raise ParseError(f"negative label count in {text!r}")
    return frozenset(range(n)), body


def parse_graph(text: str) -> Graph:
    labels, body = _parse_header(text, "G")
    if not body.startswith("E="):
        raise ParseError(f"expected E= section in {text!r}")
    edges = set()
    payload = body[2:]
    if payload:
        for part in payload.split(","):
            a, sep, b = part.partition("-")
            if not sep:
                raise ParseError(f"bad edge {part!r}")
            edge = frozenset({_parse_int(a, "vertex"), _parse_int(b, "vertex")})
            if not edge <= labels or len(edge) != 2:
                raise ParseError(f"edge {part!r} outside label range")
            edges.add(edge)
    return Graph(labels, frozenset(edges))


def parse_hypergraph(text: str) -> Hypergraph:
    labels, body = _parse_header(text, "H")
    if not body.startswith("E="):
        raise ParseError(f"expected E= section in {text!r}")
    payload = body[2:]
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
    return Hypergraph(labels, frozenset(edges))


def parse_simplicial(text: str) -> SimplicialComplex:
    labels, body = _parse_header(text, "S")
    if not body.startswith("F="):
        raise ParseError(f"expected F= section in {text!r}")
    facets = []
    for part in body.split(";"):
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
    labels, body = _parse_header(text, "P")
    if not body.startswith("B="):
        raise ParseError(f"expected B= section in {text!r}")
    payload = body[2:]
    blocks = []
    if payload:
        for part in payload.split("|"):
            # canonical: one digit per label up to ten labels, commas beyond,
            # where a one-label block such as "10" has no comma to go by
            digits = part.split(",") if "," in part or len(labels) > 10 else part
            members = frozenset(_parse_int(v, "label") for v in digits)
            if not members:
                raise ParseError(f"empty block in {text!r}")
            blocks.append(members)
    covered = frozenset().union(*blocks) if blocks else frozenset()
    if covered != labels:
        raise ParseError(f"blocks do not cover 0..{len(labels) - 1} in {text!r}")
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
    """Connected components of `labels` where each group is glued together.

    Returns a tuple of frozensets sorted by minimum element."""
    parent = {v: v for v in labels}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for group in groups:
        it = iter(group)
        first = find(next(it))
        for other in it:
            parent[find(other)] = first
    buckets: dict = {}
    for v in labels:
        buckets.setdefault(find(v), set()).add(v)
    return tuple(sorted((frozenset(b) for b in buckets.values()), key=min))


def graph_components(g: Graph) -> tuple:
    return _components(g.labels, g.edges)


def hypergraph_components(h: Hypergraph) -> tuple:
    return _components(h.labels, h.edges)


def is_connected(x) -> bool:
    if isinstance(x, Graph):
        return len(graph_components(x)) == 1
    if isinstance(x, Hypergraph):
        return len(hypergraph_components(x)) == 1
    if isinstance(x, SimplicialComplex):
        return len(graph_components(sc_one_skeleton(x))) == 1
    raise TypeError(f"no connectivity notion for {type(x)}")


# ---------------------------------------------------------------------------
# free products and disjoint unions


def graph_disjoint_union(a: Graph, b: Graph) -> Graph:
    return _trusted(Graph, a.labels | b.labels, "edges", a.edges | b.edges)


def graph_free_product(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus every cross edge; equals the complement of the
    disjoint union of the complements."""
    cross = frozenset(frozenset({u, v}) for u in a.labels for v in b.labels)
    return Graph(a.labels | b.labels, a.edges | b.edges | cross)


def hypergraph_disjoint_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    return _trusted(Hypergraph, a.labels | b.labels, "edges", a.edges | b.edges)


def hypergraph_free_product(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    """Disjoint union plus the complete bipartite hypergraph: every
    hyperedge meeting both sides."""
    both = a.labels | b.labels
    cross = frozenset(e for k in range(2, len(both) + 1)
                      for c in combinations(sorted(both), k)
                      if (e := frozenset(c)) & a.labels and e & b.labels)
    return Hypergraph(both, a.edges | b.edges | cross)


def sc_disjoint_union(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    return _trusted(SimplicialComplex, a.labels | b.labels, "faces", a.faces | b.faces)


def partition_union(a: SetPartition, b: SetPartition) -> SetPartition:
    if a.labels & b.labels:  # overlapping blocks: the constructor rejects them
        return SetPartition(a.labels | b.labels, a.blocks + b.blocks)
    return _trusted(SetPartition, a.labels | b.labels, "blocks",
                    tuple(sorted(a.blocks + b.blocks, key=min)))


# ---------------------------------------------------------------------------
# family registry


def _graph_count(labels):
    n = len(labels)
    return 2 ** (n * (n - 1) // 2)


def _graph_enumerate(labels, budget):
    pairs = [frozenset(p) for p in combinations(sorted(labels), 2)]
    out = []
    for chosen in subsets(range(len(pairs))):
        out.append(_trusted(Graph, labels, "edges", frozenset(pairs[i] for i in chosen)))
    return tuple(out)


def _hypergraph_count(labels):
    n = len(labels)
    return 2 ** (2 ** n - n - 1)


def _hypergraph_enumerate(labels, budget):
    cands = [frozenset(c) for k in range(2, len(labels) + 1)
             for c in combinations(sorted(labels), k)]
    out = []
    for chosen in subsets(range(len(cands))):
        out.append(_trusted(Hypergraph, labels, "edges", frozenset(cands[i] for i in chosen)))
    return tuple(out)


def _sc_enumerate(labels, budget):
    """Grow complexes one face at a time from {()}; the growth frontier
    only ever adds a face whose boundary is already present."""
    labels = frozenset(labels)
    base = SimplicialComplex(labels, frozenset({frozenset()}))
    seen = {base.faces: base}
    frontier = [base]
    candidates = [frozenset(c) for k in range(1, len(labels) + 1)
                  for c in combinations(sorted(labels), k)]
    while frontier:
        nxt = []
        for cx in frontier:
            for cand in candidates:
                if cand in cx.faces:
                    continue
                if any(cand - {v} not in cx.faces for v in cand):
                    continue
                faces = cx.faces | {cand}
                if faces not in seen:
                    if len(seen) + 1 > budget:
                        raise CarrierOverflow(
                            f"simplicial carrier exceeds budget {budget}")
                    grown = _trusted(SimplicialComplex, labels, "faces", faces)
                    seen[faces] = grown
                    nxt.append(grown)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda c: c.encode()))


def _partition_count(labels):
    from .species import bell
    return bell(len(labels))


def _partition_enumerate(labels, budget):
    return tuple(_trusted(SetPartition, labels, "blocks", usp.blocks)
                 for usp in set_partitions(frozenset(labels)))


def _separated_pairs(p: SetPartition) -> frozenset:
    """The label pairs (a, b), a < b, in different blocks of p: tau
    refines pi iff tau separates every pair that pi separates."""
    block_of = {v: i for i, b in enumerate(p.blocks) for v in b}
    return frozenset((a, b) for a, b in combinations(sorted(p.labels), 2)
                     if block_of[a] != block_of[b])


def _relabel_edges(mapping, edges):
    return frozenset(frozenset(mapping[v] for v in e) for e in edges)


def _relabelled(cls, field: str):
    """The relabel map of structures keeping their sets in `field`.
    `Family.relabel` checks that f is a bijection; this checks its image."""
    return lambda f, x: _trusted(cls, check_label_set(f.values()), field,
                                 _relabel_edges(f, getattr(x, field)))


GRAPHS = Family(
    tag="graphs",
    count_fn=_graph_count,
    enumerate_fn=_graph_enumerate,
    unit=Graph(frozenset(), frozenset()),
    relabel_fn=_relabelled(Graph, "edges"),
    mult_fn=graph_disjoint_union,
    comult_fn=lambda g, S, T: (g.restrict(S), g.restrict(T)),
    box_fn=graph_free_product,
    order_key=lambda g: g.edges,
    adjunction_kinds=("delta_box", "delta_m"),
)

HYPERGRAPHS = Family(
    tag="hypergraphs",
    count_fn=_hypergraph_count,
    enumerate_fn=_hypergraph_enumerate,
    unit=Hypergraph(frozenset(), frozenset()),
    relabel_fn=_relabelled(Hypergraph, "edges"),
    mult_fn=hypergraph_disjoint_union,
    comult_fn=lambda h, S, T: (h.restrict(S), h.restrict(T)),
    box_fn=hypergraph_free_product,
    order_key=lambda h: h.edges,
    adjunction_kinds=("delta_box", "delta_m"),
)

SIMPLICIAL = Family(
    tag="simplicial",
    count_fn=None,
    enumerate_fn=_sc_enumerate,
    unit=SimplicialComplex(frozenset(), frozenset({frozenset()})),
    relabel_fn=_relabelled(SimplicialComplex, "faces"),
    mult_fn=sc_disjoint_union,
    comult_fn=lambda c, S, T: (c.restrict(S), c.restrict(T)),
    box_fn=None,
    order_key=lambda c: c.faces,
    adjunction_kinds=("m_delta", "delta_m"),
)

PARTITIONS = Family(
    tag="partitions",
    count_fn=_partition_count,
    enumerate_fn=_partition_enumerate,
    unit=SetPartition(frozenset(), ()),
    relabel_fn=lambda f, p: _trusted(
        SetPartition, check_label_set(f.values()), "blocks",
        tuple(sorted(_relabel_edges(f, p.blocks), key=min))),
    mult_fn=partition_union,
    comult_fn=lambda p, S, T: (p.restrict(S), p.restrict(T)),
    box_fn=None,
    order_key=_separated_pairs,
    adjunction_kinds=("delta_m",),
)

FAMILIES = {f.tag: f for f in (GRAPHS, HYPERGRAPHS, SIMPLICIAL, PARTITIONS)}

def free_vector_from_json(data) -> FreeVector:
    import json as _json
    if isinstance(data, str):
        data = _json.loads(data)
    tag, _, labeltext = data["ambient"].partition(":")
    labels = frozenset(int(v) for v in labeltext.split(",") if v != "")
    terms = [(parse_structure(enc), coeff) for enc, coeff in data["terms"].items()]
    return FreeVector(tag, labels, terms)


# ---------------------------------------------------------------------------
# flats, contraction, acyclic orientations


def is_flat(h: Graph, g: Graph) -> bool:
    """h is a flat of g when g restricted to each connected component of h
    agrees with h there."""
    if h.labels != g.labels:
        return False
    for comp in graph_components(h):
        if g.restrict(comp) != h.restrict(comp):
            return False
    return True


def graph_flats(g: Graph) -> tuple:
    """All flats of g, sorted by encoding.

    A flat is the disjoint union of the restrictions of g to the blocks of
    a set partition whose blocks each induce a connected subgraph, so the
    sweep runs over the Bell(n) set partitions of the vertices, not over
    every graph on them (Benedetti and Sagan, 2017)."""
    check_set_partition_budget(len(g.labels), DEFAULT_BUDGET)
    inside: dict = {}  # block -> edges of g inside it, None if disconnected

    def edges_inside(block):
        if block not in inside:
            h = g.restrict(block)
            inside[block] = h.edges if len(graph_components(h)) == 1 else None
        return inside[block]

    out = []
    for part in set_partitions(g.labels):
        edges = [edges_inside(block) for block in part.blocks]
        if all(e is not None for e in edges):
            out.append(_trusted(Graph, g.labels, "edges", frozenset().union(*edges)))
    return tuple(sorted(out, key=Graph.encode))


def graph_rank(g: Graph) -> int:
    """Size of a spanning forest: |vertices| - number of components."""
    return len(g.labels) - len(graph_components(g))


def contract(g: Graph, h: Graph) -> Graph:
    """Quotient of g by a flat h: one vertex per component of h (labeled
    by its minimum), one edge per pair of components joined in g.
    Multiplicities and loops are forgotten."""
    if not is_flat(h, g):
        raise NotAFlat(f"{h.encode()} is not a flat of {g.encode()}")
    comp_of = {}
    names = []
    for comp in graph_components(h):
        name = min(comp)
        names.append(name)
        for v in comp:
            comp_of[v] = name
    edges = set()
    for e in g.edges:
        a, b = tuple(e)
        if comp_of[a] != comp_of[b]:
            edges.add(frozenset({comp_of[a], comp_of[b]}))
    return Graph(frozenset(names), frozenset(edges))


def acyclic_orientations_brute(g: Graph) -> int:
    """Count orientations with no directed cycle by enumerating all of
    them; only sensible for |E| <= 20."""
    edges = [tuple(sorted(e)) for e in sorted(g.edges, key=lambda e: tuple(sorted(e)))]
    m = len(edges)
    if m > 20:
        raise CarrierOverflow(f"{m} edges is too many for brute-force orientation")
    verts = sorted(g.labels)
    count = 0
    for mask in range(2 ** m):
        succ = {v: [] for v in verts}
        for i, (a, b) in enumerate(edges):
            if mask >> i & 1:
                succ[a].append(b)
            else:
                succ[b].append(a)
        if _is_acyclic(verts, succ):
            count += 1
    return count


def _is_acyclic(verts, succ) -> bool:
    state = {v: 0 for v in verts}  # 0 unseen, 1 active, 2 done
    for start in verts:
        if state[start]:
            continue
        stack = [(start, iter(succ[start]))]
        state[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 1:
                    return False
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return True


# One entry per graph on 0..k-1: a closed-form benchmark pass fills 235, K8 92.
@lru_cache(maxsize=4096)
def _chromatic_by_encoding(encoding: str) -> IntPolynomial:
    return _chromatic(parse_graph(encoding))


def chromatic_polynomial(g: Graph) -> IntPolynomial:
    """Proper-coloring counting polynomial via deletion-contraction."""
    mapping = {v: i for i, v in enumerate(sorted(g.labels))}
    canon = Graph(frozenset(mapping.values()), _relabel_edges(mapping, g.edges))
    return _chromatic_by_encoding(canon.encode())


def _chromatic(g: Graph) -> IntPolynomial:
    if not g.edges:
        return IntPolynomial({len(g.labels): 1})
    e = min(g.edges, key=lambda e: tuple(sorted(e)))
    a, b = tuple(sorted(e))
    deleted = Graph(g.labels, g.edges - {e})
    merged_edges = set()
    for f in g.edges - {e}:
        f2 = frozenset(a if v == b else v for v in f)
        if len(f2) == 2:
            merged_edges.add(f2)
    contracted = Graph(g.labels - {b}, frozenset(merged_edges))
    return chromatic_polynomial(deleted) + chromatic_polynomial(contracted).scale(-1)


def acyclic_orientation_count(g: Graph) -> int:
    """Number of acyclic orientations; brute-force for small edge sets,
    chromatic-polynomial evaluation at -1 otherwise, with a runtime
    agreement check where both routes are cheap."""
    via_chromatic = None
    if len(g.edges) <= 12:
        brute = acyclic_orientations_brute(g)
        via_chromatic = abs(chromatic_polynomial(g).evaluate(-1))
        if brute != via_chromatic:
            raise ArithmeticError(
                f"orientation count mismatch on {g.encode()}: {brute} vs {via_chromatic}")
        return brute
    if len(g.edges) <= 20:
        return acyclic_orientations_brute(g)
    return abs(chromatic_polynomial(g).evaluate(-1))


# ---------------------------------------------------------------------------
# one-skeletons of complexes


def sc_one_skeleton(c: SimplicialComplex) -> Graph:
    return Graph(c.labels, frozenset(f for f in c.faces if len(f) == 2))


def sc_gamma_of_flat(c: SimplicialComplex, f: Graph) -> SimplicialComplex:
    """Union of the restrictions of c to the connected components of a
    flat of its 1-skeleton."""
    skel = sc_one_skeleton(c)
    if not is_flat(f, skel):
        raise NotAFlat(f"{f.encode()} is not a flat of the 1-skeleton")
    out = SIMPLICIAL.unit
    for comp in graph_components(f):
        out = sc_disjoint_union(out, c.restrict(comp))
    return out


# ---------------------------------------------------------------------------
# closed-form antipodes specific to each family


def closed_form_antipode_graphs(g: Graph) -> FreeVector:
    """Sum over flats h of (-1)^(|I| - rank(h)) * acyc(g/h) * h."""
    n = len(g.labels)
    terms = []
    for h in graph_flats(g):
        sign = (-1) ** (n - graph_rank(h))
        terms.append((h, sign * acyclic_orientation_count(contract(g, h))))
    return FreeVector(GRAPHS.tag, g.labels, terms)


def _refinements(p: SetPartition):
    """All partitions refining p, with the per-block refinement shape."""
    per_block = [set_partitions(frozenset(b)) for b in p.blocks]

    def rec(i, acc_blocks, shape):
        if i == len(per_block):
            blocks = tuple(sorted(acc_blocks, key=min))
            yield _trusted(SetPartition, p.labels, "blocks", blocks), tuple(shape)
            return
        for usp in per_block[i]:
            yield from rec(i + 1, acc_blocks + list(usp.blocks),
                           shape + [len(usp)])

    yield from rec(0, [], [])


def closed_form_antipode_partitions(p: SetPartition) -> FreeVector:
    """Sum over refinements tau of (-1)^len(tau) * prod(lambda_i!) * tau,
    where lambda_i counts the blocks of tau inside the i-th block of p."""
    from math import factorial
    terms: dict = {}
    for tau, shape in _refinements(p):
        coeff = (-1) ** len(tau.blocks)
        for lam in shape:
            coeff *= factorial(lam)
        terms[tau] = terms.get(tau, 0) + coeff
    return FreeVector(PARTITIONS.tag, p.labels, terms)


def closed_form_antipode_sc(c: SimplicialComplex) -> FreeVector:
    """Sum over flats F of the 1-skeleton of
    (-1)^(|I| - rank(F)) * acyc(skeleton/F) * Gamma(F), with coefficients
    of identical images accumulated."""
    skel = sc_one_skeleton(c)
    n = len(c.labels)
    terms: dict = {}
    for f in graph_flats(skel):
        sign = (-1) ** (n - graph_rank(f))
        coeff = sign * acyclic_orientation_count(contract(skel, f))
        image = sc_gamma_of_flat(c, f)
        terms[image] = terms.get(image, 0) + coeff
    return FreeVector(SIMPLICIAL.tag, c.labels, terms)

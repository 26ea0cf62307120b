"""The encodings built afresh from each structure's int, kept as the
oracle for the `encode` methods of `hsl.families`, which join texts
cached per pair, subset or block: every edge, hyperedge, facet and block
is decoded and printed here on each call, and each body sorts by its own
key."""

from hsl.families import (Graph, Hypergraph, SetPartition, SimplicialComplex,
                          _holding, _pair_of)

from literal_oracle import _bits


def _members(m: int) -> tuple:
    return tuple(_bits(m))


def _by_size(bits: int) -> list:
    """The subset bits of `bits` in (size, lex) order of their subsets."""
    return sorted(_bits(bits), key=lambda m: (m.bit_count(), _members(m)))


def graph_encode(g) -> str:
    pairs = sorted(map(_pair_of, _bits(g.bits)))
    parts = ",".join(f"{a}-{b}" for a, b in pairs)
    return f"G:n={len(g.labels)};E={parts}"


def hypergraph_encode(h) -> str:
    parts = ";".join("{" + ",".join(map(str, _members(m))) + "}"
                     for m in _by_size(h.bits))
    return f"H:n={len(h.labels)};E={parts}"


def simplicial_encode(c) -> str:
    """The facets are the faces under no face one label larger."""
    faces = c.bits
    covered = 0
    for v, holding in enumerate(_holding((faces.bit_length() - 1).bit_length())):
        covered |= (faces & holding) >> (1 << v)
    parts = ";".join("F=" + ",".join(map(str, _members(m)))
                     for m in _by_size(faces & ~covered))
    return f"S:n={len(c.labels)};" + parts


def partition_encode(p) -> str:
    sep = "," if p.labels and max(p.labels) > 9 else ""
    body = "|".join(sep.join(map(str, _members(m))) for m in p.block_masks())
    return f"P:n={len(p.labels)};B={body}"


ENCODE = {Graph: graph_encode, Hypergraph: hypergraph_encode,
          SimplicialComplex: simplicial_encode, SetPartition: partition_encode}


def encode(x) -> str:
    return ENCODE[type(x)](x)

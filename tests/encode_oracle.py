"""The encodings built afresh from each structure's int, kept as the
oracle for the `encode` methods of `hsl.families`, which read their parts
from per-byte tables of sort keys and texts: here every edge, hyperedge,
facet and block is decoded and printed on each call, each body sorts by
its own tuple key, and no helper of `hsl.families` is used.  A pair's bit
is decoded by a loop over j, a complex's facets are its faces that no
other face contains, and a partition's blocks come from its pairs."""

from hsl.families import Graph, Hypergraph, SetPartition, SimplicialComplex

from literal_oracle import _bits


def _members(m: int) -> tuple:
    return tuple(_bits(m))


def _pair_at(k: int) -> tuple:
    """The label pair (i, j), i < j, at bit k = j(j-1)/2 + i."""
    j = 1
    while j * (j + 1) // 2 <= k:
        j += 1
    return k - j * (j - 1) // 2, j


def _by_size(masks) -> list:
    """The subset masks in (size, lex) order of their subsets."""
    return sorted(masks, key=lambda m: (m.bit_count(), _members(m)))


def graph_encode(g) -> str:
    pairs = sorted(map(_pair_at, _bits(g.bits)))
    parts = ",".join(f"{a}-{b}" for a, b in pairs)
    return f"G:n={len(g.labels)};E={parts}"


def hypergraph_encode(h) -> str:
    parts = ";".join("{" + ",".join(map(str, _members(m))) + "}"
                     for m in _by_size(_bits(h.bits)))
    return f"H:n={len(h.labels)};E={parts}"


def simplicial_encode(c) -> str:
    faces = list(_bits(c.bits))
    facets = [m for m in faces if not any(f != m and f & m == m for f in faces)]
    parts = ";".join("F=" + ",".join(map(str, _members(m))) for m in _by_size(facets))
    return f"S:n={len(c.labels)};" + parts


def partition_encode(p) -> str:
    """Each label's block is the label and its same-block partners."""
    block = {v: {v} for v in p.labels}
    for i, j in map(_pair_at, _bits(p.bits)):
        block[i].add(j)
        block[j].add(i)
    sep = "," if p.labels and max(p.labels) > 9 else ""
    blocks = sorted({tuple(sorted(b)) for b in block.values()})  # by minimum
    body = "|".join(sep.join(map(str, b)) for b in blocks)
    return f"P:n={len(p.labels)};B={body}"


ENCODE = {Graph: graph_encode, Hypergraph: hypergraph_encode,
          SimplicialComplex: simplicial_encode, SetPartition: partition_encode}


def encode(x) -> str:
    return ENCODE[type(x)](x)

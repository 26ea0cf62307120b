"""The breadth-first enumeration of simplicial complexes, kept as the
oracle for `hsl.families._sc_enumerate`, which builds them by their links.

Complexes grow from {()} one face at a time, the face's boundary present;
each frontier holds the complexes one face larger than the last.  Like
the library's, the enumeration raises CarrierOverflow once it has found
more complexes than the budget.  It returns them in encoding order, which
the library's carrier does not keep: compare `by_encoding` of that."""

from itertools import combinations

from hsl.errors import CarrierOverflow
from hsl.families import SimplicialComplex, _bit, _mask, _of


def sc_enumerate_by_faces(labels, budget):
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
    return by_encoding(_of(SimplicialComplex, labels, b) for b in seen)


def by_encoding(complexes):
    return tuple(sorted(complexes, key=SimplicialComplex.encode))

"""The routes that the one adjunction shape replaced, kept as the oracle
for it.

- `duality_by_triples` checks the zeta duality <Delta(x), y (x) z> ==
  <x, y box z> by a loop over every (x, y, z) of each split, where
  `hsl.vectors.duality_pairing_check` runs the Galois biconditional scan
  of `hsl.posets` on the product order.
- `merge_split_setup` is the check of merge -| split on the native
  order, merge from the product order into the order on S | T and split
  back, where `Adjunction.galois_setup` checks split -| merge on the
  opposite order.
- `inverted_basis_by_mobius` reads each coefficient of omega_x from
  `mobius`, where `hsl.vectors.inverted_basis` reads the compiled row
  mu(x, .).
"""

from hsl.posets import FinitePoset, mobius
from hsl.species import subsets
from hsl.vectors import FreeVector


def duality_by_triples(fam, poset_for, box, n: int):
    """(ok, witness) with witness (x, y, z, S, T), the first failure with
    x in element order, then y, then z."""
    for k in range(n + 1):
        labels = frozenset(range(k))
        p = poset_for(labels)
        for S in subsets(labels):
            T = labels - S
            ps = poset_for(S)
            pt = poset_for(T)
            for x in p.elems:
                x1, x2 = fam.comult(x, S, T)
                for y in ps.elems:
                    for z in pt.elems:
                        lhs = ps.leq(x1, y) and pt.leq(x2, z)
                        if lhs != p.leq(x, box(y, z)):
                            return False, (x, y, z, S, T)
    return True, None


def merge_split_setup(fam, S, T, budget):
    """(p, q, f, g) for merge -| split on the native order of the split
    (S, T): f merges a pair of the product order, g splits."""
    S, T = frozenset(S), frozenset(T)
    whole = fam.poset(S | T, budget)
    parts = FinitePoset.product(fam.poset(S, budget), fam.poset(T, budget))
    f = lambda pair: fam.mult(pair[0], pair[1])
    g = lambda z: fam.comult(z, S, T)
    return parts, whole, f, g


def inverted_basis_by_mobius(p: FinitePoset, x) -> FreeVector:
    """omega_x = sum over y >= x of mu(x, y) * y, one `mobius` per y."""
    return FreeVector(p.family_tag, x.labels, [(y, mobius(p, x, y)) for y in p.upset(x)])

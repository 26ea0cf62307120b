"""The routes that the one adjunction shape and the biconditional-only
Galois check replaced, kept as the oracle for them.

- `three_scan_check_galois` checks that both maps are order-preserving,
  one scan per map over every comparable pair, before it scans the
  biconditional (`biconditional_failure`), where `hsl.posets.check_galois`
  scans the biconditional alone.

- `duality_by_triples` checks the zeta duality <Delta(x), y (x) z> ==
  <x, y box z> by a loop over every (x, y, z) of each split
  (`first_failing_triple`, one label set), where
  `hsl.antipode.Adjunction.verify_all_splits` on each label set (the
  `duality` field of `hsl verify`) runs the Galois biconditional scan
  of `hsl.posets` on the product order.  Criterion 14 reads it.
- `merge_split_setup` is the check of merge -| split on the native
  order, merge from the product order into the order on S | T and split
  back, where `hsl.vectors.split_galois_setup` sets up split -| merge on the
  opposite order.
- `inverted_basis_by_mobius` reads each coefficient of omega_x from
  `mobius`, where `hsl.vectors.inverted_basis` reads the compiled row
  mu(x, .).
- `product_by_shifts` builds each set of the product order as a sum of
  shifted copies, where `hsl.posets.FinitePoset.product` multiplies.
- `delta_on_inverted_by_vectors` expands both sides of the split of
  omega_x as a fibre sum, Delta_{S,T}(omega_x) against the sum of
  omega_{x1} (x) omega_{x2} over x1 box x2 = x, as vectors, for one x,
  where `hsl.posets.rota_transfer_check` on `hsl.vectors.split_galois_setup`
  checks the same coefficients for every x of the split in one scan.
- `inverted_check_by_view` compiles x's images into a `FinitePoset`,
  their down-sets from the keys by `literal_oracle.down_sets`, and reads
  omega_x with `inverted_basis`, where
  `hsl.antipode.antipode_on_inverted_check` folds mu(x, .) alone over
  the images, each down-set formed when it is reached.
"""

from hsl.antipode import _reassembly_images, require_self_adjoint, takeuchi_antipode
from hsl.posets import FinitePoset, GaloisReport, mobius
from hsl.species import subsets
from hsl.vectors import (FreeVector, TensorVector, comult_vector,
                         inverted_basis, tensor)
from literal_oracle import _bits, down_sets, transpose


def biconditional_failure(p: FinitePoset, q: FinitePoset, fx, gy):
    """The first position pair (i, j), in element order, at which
    fx[i] <= j in Q and i <= gy[j] in P disagree, or None: the Galois
    biconditional f(x) <= y iff x <= g(y), with fx and gy the positions
    of the images of f and g.  It is read one j at a time, folding over
    the down-sets of Q: in the adjunction checks and the duality pairing
    Q is the product order of a split, smaller than P."""
    preimage = [0] * len(q.elems)  # position in Q -> bitset of the i with fx[i] there
    for i, k in enumerate(fx):
        preimage[k] |= 1 << i
    first = None
    for j, mask in enumerate(q.down):
        below_f = 0  # the i with fx[i] <= j
        for k in _bits(mask):
            below_f |= preimage[k]
        diff = p.down[gy[j]] ^ below_f  # the i at which the biconditional fails with j
        if diff:
            i = (diff & -diff).bit_length() - 1
            if first is None or i < first[0]:
                first = i, j
    return first


def three_scan_check_galois(p: FinitePoset, q: FinitePoset, f, g) -> GaloisReport:
    """Check that f: P -> Q and g: Q -> P are order-preserving and satisfy
    f(x) <= y iff x <= g(y) for every pair; on failure report a witness,
    the first failing pair in element order.

    f and g are applied once per element; the checks then compare
    bitsets."""
    fx = [q.index[f(x)] for x in p.elems]
    gy = [p.index[g(y)] for y in q.elems]
    for src, dst, h, reason in ((p, q, fx, "left map not order-preserving"),
                                (q, p, gy, "right map not order-preserving")):
        for i, mask in enumerate(src.up):
            for k in _bits(mask):
                if not dst.up[h[i]] >> h[k] & 1:
                    return GaloisReport(False, reason, (src.elems[i], src.elems[k]))
    failure = biconditional_failure(p, q, fx, gy)
    if failure is not None:
        i, j = failure
        return GaloisReport(False, "adjunction biconditional fails",
                            (p.elems[i], q.elems[j]))
    return GaloisReport(True)


def duality_by_triples(fam, poset_for, box, n: int):
    """(ok, witness) with witness (x, y, z, S, T), the first failure on
    the label sets 0..k-1, k = 0..n (`first_failing_triple`)."""
    for k in range(n + 1):
        witness = first_failing_triple(fam, poset_for, box, frozenset(range(k)))
        if witness is not None:
            return False, witness
    return True, None


def first_failing_triple(fam, poset_for, box, labels):
    """The first (x, y, z, S, T) over the splits of labels, S in bitmask
    order, then x in element order, then y, then z, at which
    <Delta_{S,T}(x), y (x) z> and <x, y box z> differ, or None."""
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
                        return x, y, z, S, T
    return None


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


def delta_on_inverted_by_vectors(fam, poset_for, box, x, S, T) -> tuple:
    """(equal, lhs, rhs): lhs is Delta_{S,T}(omega_x), rhs the sum of
    omega_{x1} (x) omega_{x2} over all pairs with x1 box x2 = x, each
    omega read in the order `poset_for` gives its labels."""
    S, T = frozenset(S), frozenset(T)
    lhs = comult_vector(fam, inverted_basis(poset_for(x.labels), x), S, T)
    ps, pt = poset_for(S), poset_for(T)
    rhs = TensorVector(fam.tag, S, T)
    for x1 in ps.elems:
        for x2 in pt.elems:
            if box(x1, x2) == x:
                rhs = rhs + tensor(inverted_basis(ps, x1), inverted_basis(pt, x2))
    return lhs == rhs, lhs, rhs


def product_by_shifts(p: FinitePoset, q: FinitePoset) -> tuple:
    """(up, down) of the product order, each set the sum of one shifted
    copy of b per set bit of a, as `FinitePoset.product` built them before
    it multiplied b by the spread of a."""
    width = len(q.elems)
    return tuple([sum(b << width * i for i in _bits(a)) for a in p_sets for b in q_sets]
                 for p_sets, q_sets in ((p.up, q.up), (p.down, q.down)))


def inverted_check_by_view(fam, x):
    """(equal, lhs, rhs) for S(omega_x) == (-1)^ell(x) * omega_x, omega_x
    the inverted basis of the order compiled from the down-sets of x's
    images, its up-sets their transpose."""
    elems, keys, ell = _reassembly_images(x, require_self_adjoint(fam, x))
    down = down_sets(keys)
    omega = inverted_basis(FinitePoset(elems, transpose(down), down, fam.tag), x)
    lhs = omega.bind(lambda y: takeuchi_antipode(fam, y))
    rhs = omega * ((-1) ** ell[0])
    return lhs == rhs, lhs, rhs

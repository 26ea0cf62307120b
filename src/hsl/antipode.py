"""Reassembly order, unique factorization and its grading, the defining
alternating-sum antipode, the characteristic-polynomial closed form, and
primitive bases for verified adjunctions.

The closed form's normative coefficient of y in S(x) is

    sum over x <=r z <=r y of (-1)^ell(z) * mu(z, y)

(the upper-side evaluation).  The lower-side evaluation
sum of mu(x, z) * (-1)^ell(z) is computed alongside and reported, because
the two disagree already on two-element chains; see the discrepancy tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import permutations
from math import factorial
from operator import or_

from .errors import (DEFAULT_BUDGET, EngineError, LabelMismatch,
                     NonUniqueFactorization, NotSelfAdjoint)
from .families import _by_position, restriction_bits
from .posets import (FinitePoset, GaloisReport, _bits, _containment_upsets,
                     check_galois)
from .species import (Family, _Memo, _partitions, check_set_partition_budget,
                      check_subset_budget, compose_mult, reassemble, subsets)
from .vectors import FreeVector, inverted_basis


# ---------------------------------------------------------------------------
# reassembly order


def _label_partitions(labels) -> list:
    """The set partitions of `_partitions` on `labels`, each block mask
    mapped to its set of labels."""
    subs = subsets(labels)  # subs[m]: the labels at the set bits of m
    return [tuple(map(subs.__getitem__, blocks))
            for blocks in _partitions(len(labels))]


def reassembly_upset(fam: Family, x, budget: int = DEFAULT_BUDGET) -> tuple:
    """All images of x under split-then-merge along a set partition,
    deduplicated; always contains x via the trivial partition."""
    check_set_partition_budget(len(x.labels), budget)
    seen = {}
    for blocks in _label_partitions(x.labels):
        y = reassemble(fam, blocks, x)
        seen.setdefault(y.encode(), y)
    return tuple(seen[k] for k in sorted(seen))


@lru_cache(maxsize=256)
def _reassembly_view(fam: Family, labels: frozenset, budget: int) -> FinitePoset:
    """One compiled reassembly order per (family, labels, budget), shared
    by its callers.  The bound is far above the orders one CLI command
    builds (one per subset of its labels)."""
    elems = sorted(fam.enumerate(labels, budget), key=lambda x: x.encode())
    index = {x: i for i, x in enumerate(elems)}
    up = [sum(1 << index[y] for y in reassembly_upset(fam, x, budget))
          for x in elems]
    return FinitePoset(elems, up, fam.tag)


def reassembly_poset(fam: Family, labels, budget: int = DEFAULT_BUDGET) -> FinitePoset:
    return _reassembly_view(fam, frozenset(labels), budget)


# ---------------------------------------------------------------------------
# adjunctions


@dataclass(eq=False)
class Adjunction:
    """A declared Galois connection between the split map and a merge map.

    kind "delta_box":  split left-adjoint to the free product, native order.
    kind "delta_m":    split left-adjoint to the merge, reassembly order.
    kind "m_delta":    merge left-adjoint to the split, native order; the
                       inverted-basis machinery runs on the reversed order.
    """

    family: Family
    kind: str
    budget: int = DEFAULT_BUDGET
    _verified: set = field(default_factory=set)

    def __post_init__(self):
        if self.kind not in ("delta_box", "delta_m", "m_delta"):
            raise EngineError(f"unknown adjunction kind {self.kind!r}")
        if self.kind not in self.family.adjunction_kinds:
            raise EngineError(
                f"family {self.family.tag} does not declare {self.kind}")

    @property
    def display(self) -> str:
        return {"delta_box": "split -| free-product",
                "delta_m": "split -| merge (reassembly order)",
                "m_delta": "merge -| split"}[self.kind]

    def box(self, x, y):
        if self.kind == "delta_box":
            return self.family.box(x, y)
        return self.family.mult(x, y)

    def poset(self, labels) -> FinitePoset:
        if self.kind == "delta_m":
            return reassembly_poset(self.family, labels, self.budget)
        reverse = self.kind == "m_delta"
        return self.family.poset(labels, self.budget, reverse=reverse)

    def galois_setup(self, S, T):
        """(p, q, f, g) for the order-theoretic check on the split (S, T).

        For the split-side adjunctions, f is the split map from the carrier
        on S | T into the product order; for merge -| split the roles
        swap and the native (unreversed) order is used directly."""
        fam = self.family
        S, T = frozenset(S), frozenset(T)
        if self.kind == "m_delta":
            whole = fam.poset(S | T, self.budget)
            parts = FinitePoset.product(fam.poset(S, self.budget),
                                        fam.poset(T, self.budget))
            f = lambda pair: fam.mult(pair[0], pair[1])
            g = lambda z: fam.comult(z, S, T)
            return parts, whole, f, g
        whole = self.poset(S | T)
        parts = FinitePoset.product(self.poset(S), self.poset(T))
        f = lambda z: fam.comult(z, S, T)
        g = lambda pair: self.box(pair[0], pair[1])
        return whole, parts, f, g

    def verify(self, S, T) -> GaloisReport:
        """Run the full Galois check on one split and record success."""
        S, T = frozenset(S), frozenset(T)
        p, q, f, g = self.galois_setup(S, T)
        report = check_galois(p, q, f, g)
        if report.ok:
            self._verified.add((S, T))
        return report

    def verify_all_splits(self, labels) -> GaloisReport:
        labels = frozenset(labels)
        check_subset_budget(len(labels), self.budget)
        for S in subsets(labels):
            report = self.verify(S, labels - S)
            if not report.ok:
                return report
        return GaloisReport(True)

    def is_verified(self, S, T) -> bool:
        return (frozenset(S), frozenset(T)) in self._verified


def declared_adjunctions(fam: Family, budget: int = DEFAULT_BUDGET) -> list[Adjunction]:
    return [Adjunction(fam, kind, budget) for kind in fam.adjunction_kinds]


# ---------------------------------------------------------------------------
# unique factorization and the grading


@dataclass(frozen=True)
class Factorization:
    blocks: tuple  # the factors' label sets, by minimum
    factors: tuple  # aligned with blocks

    def __len__(self):
        return len(self.factors)

    @property
    def length(self) -> int:
        return len(self.factors)


def _split_once(fam: Family, x, reverse: bool):
    """First proper bipartition (a, b) along which x merges back to
    itself, sweeping the bipartitions in bitmask order or its reverse;
    None when x is indecomposable."""
    labels = sorted(x.labels)
    if len(labels) < 2:
        return None
    anchor = labels[0]
    rest = labels[1:]
    masks = range(2 ** len(rest) - 1)
    for mask in (reversed(masks) if reverse else masks):
        S = frozenset([anchor] + [rest[i] for i in range(len(rest)) if mask >> i & 1])
        a, b = fam.comult(x, S, x.labels - S)
        if fam.mult(a, b) == x:
            return a, b
    return None


def _factor_sweep(fam: Family, x, reverse: bool) -> list:
    if not x.labels:
        return []
    split = _split_once(fam, x, reverse)
    if split is None:
        return [x]
    return _factor_sweep(fam, split[0], reverse) + _factor_sweep(fam, split[1], reverse)


def factorize(fam: Family, x) -> Factorization:
    """Unique unordered factorization of x into merge-indecomposables,
    found by recursive bipartition search.  Two independent sweeps must
    agree; a disagreement raises NonUniqueFactorization."""
    forward = _factor_sweep(fam, x, reverse=False)
    backward = _factor_sweep(fam, x, reverse=True)
    key = lambda s: s.encode()
    if sorted(map(key, forward)) != sorted(map(key, backward)):
        raise NonUniqueFactorization(
            f"sweeps disagree on {x.encode()}: "
            f"{sorted(map(key, forward))} vs {sorted(map(key, backward))}")
    ordered = tuple(sorted(forward, key=lambda s: min(s.labels)))
    blocks = tuple(s.labels for s in ordered)
    if compose_mult(fam, blocks, ordered) != x:
        raise NonUniqueFactorization(f"factors of {x.encode()} do not recompose")
    return Factorization(blocks, ordered)


@lru_cache(maxsize=1 << 14)
def grading(fam: Family, x) -> int:
    """Number of indecomposable factors of x.  The cache bound is far above
    the distinct structures one CLI command or benchmark pass grades."""
    return factorize(fam, x).length


def is_indecomposable(fam: Family, x) -> bool:
    return bool(x.labels) and _split_once(fam, x, reverse=False) is None


# ---------------------------------------------------------------------------
# the restriction table


def _restrictions(fam: Family, x) -> tuple | None:
    """(r, joins, kernel) when the checks below hold on x; None when one
    fails.

    Let I be the labels of x and r(S) = comult(x, S, I - S)[0], indexed by
    the bitmask of S over the sorted labels.  The check:

    (a) comult(x, S, I - S) == (r(S), r(I - S)) for every subset S of I;
    (b) comult(r(U), S, U - S) == (r(S), r(U - S)) for every proper subset
        U of I and every nonempty proper subset S of U;
    (c) mult(r(S), r(T)) == mult(r(T), r(S)) for all disjoint nonempty
        subsets S, T of I.

    Splitting x along (B1, ..., Bk) first cuts x along (B1, I - B1), which
    gives r(B1) and r(I - B1) by (a); every later cut splits some r(U)
    along (B, U - B), which gives r(B) and r(U - B) by (b).  So the pieces
    are r(B1), ..., r(Bk) in every block order.  The merge folds them
    from the unit; by unitality and associativity of mult (Hopf axioms
    that `verify_axioms` checks) that is their product, and by (c) any
    two adjacent factors swap, so every order gives the same product.

    joins[U] holds one S per split {S, U - S} along which r(U) merges back
    (mult(r(S), r(U - S)) == r(U)), in ascending order: by (a) and (b),
    the splits along which `factorize` finds r(U) decomposable.  The image
    of a set partition pi is the product of the r(B) over its blocks B,
    so by unique factorization (Aguiar and Mahajan, 2010, ch. 8)
    ell(img pi) is the sum of the ell(r(B)): 2^n entries grade all
    Bell(n) images (`_factor_blocks`).  Once every r(S) lies on S, every
    split and merge here is disjoint by construction, so the maps run
    unchecked.

    kernel is `restriction_bits` of x: for the four families, whose split
    is `&` with inside(S) and whose merge is `|` (`hsl.families`), it is
    (rb, make) with rb(S) = x.bits & inside(S) and r(S) = make(S, rb(S));
    for any other family it is None.  On the kernel the checks hold by
    algebra, so no map is called: for S a subset of U, inside(S) lies in
    inside(U), so splitting r(U) along (S, U - S) leaves rb(U) & inside(S)
    = rb(S) and rb(U - S), which is (a) at U = I and (b) below it; and (c)
    holds because `|` commutes.  Then r(U) merges back along {S, U - S}
    exactly when rb(S) | rb(U - S) == rb(U)."""
    labels = x.labels
    subs = subsets(labels)  # subs[m]: the labels at the set bits of m
    full = len(subs) - 1
    kernel = restriction_bits(fam, x, subs)
    joins: list = [[] for _ in subs]
    if kernel is not None:
        rb, make = kernel
        for S in range(1, full + 1):
            T = full ^ S
            while T > S:
                if rb[S] | rb[T] == rb[S | T]:
                    joins[S | T].append(S)
                T = (T - 1) & (full ^ S)
        return list(map(make, subs, rb)), joins, kernel
    split, mult = fam.comult_fn, fam.mult_fn
    splits = [split(x, S, labels - S) for S in subs]
    r = [first for first, _ in splits]
    if any(piece.labels != S for piece, S in zip(r, subs)):
        raise LabelMismatch("split does not partition the structure's labels")
    if any(second != r[full ^ m] for m, (_, second) in enumerate(splits)):
        return None
    for U in range(1, full):
        S = (U - 1) & U
        while S:
            if split(r[U], subs[S], subs[U ^ S]) != (r[S], r[U ^ S]):
                return None
            S = (S - 1) & U
    for S in range(1, full + 1):
        T = full ^ S
        while T > S:
            y = mult(r[S], r[T])
            if y != mult(r[T], r[S]):
                return None
            if y == r[S | T]:
                joins[S | T].append(S)
            T = (T - 1) & (full ^ S)
    return r, joins, None


def require_self_adjoint(fam: Family, x) -> tuple:
    """The restriction table of x from `_restrictions`, or NotSelfAdjoint
    where it fails its checks.  The closed form needs the family
    commutative and cocommutative only on the pieces that the
    reassemblies of x cut and merge, which is what those checks cover."""
    table = _restrictions(fam, x)
    if table is None:
        raise NotSelfAdjoint(
            f"family {fam.tag} is not commutative and cocommutative "
            f"on the restrictions of {x.encode()}")
    return table


def _factor_blocks(r: list, joins: list) -> list:
    """blocks[U]: the ascending bitmasks B of the indecomposable factors
    r(B) of r(U).  Every join of r(U) must give the same blocks."""
    blocks = [()]
    for U in range(1, len(r)):
        found = sorted({tuple(sorted(blocks[S] + blocks[U ^ S])) for S in joins[U]})
        if len(found) > 1:
            shown = [sorted(r[b].encode() for b in bs) for bs in found[:2]]
            raise NonUniqueFactorization(
                f"splits disagree on {r[U].encode()}: {shown[0]} vs {shown[1]}")
        blocks.append(found[0] if found else (U,))
    return blocks


def _images(fam: Family, table: tuple, parts) -> tuple:
    """(img, image) for the set partitions in `parts`, each a tuple of
    block bitmasks: image(img[i]) is img(parts[i]).  img(pi) is the fold
    of mult from the unit over r(B) for the blocks B of pi, in order,
    which by `_restrictions` is reassemble(pi, x), with no split made.
    On the kernel img[i] is the int of the image, the fold of `|` over
    rb(B) from the unit's int, so equal images compare as ints and the
    caller builds one structure per distinct image; otherwise img[i] is
    the image itself."""
    r, _, kernel = table
    if kernel is None:
        mult, unit = fam.mult_fn, fam.unit
        img = [reduce(mult, map(r.__getitem__, blocks), unit) for blocks in parts]
        return img, lambda y: y
    rb, make = kernel
    unit = fam.unit.bits
    img = [reduce(or_, map(rb.__getitem__, blocks), unit) for blocks in parts]
    return img, partial(make, r[-1].labels)


# ---------------------------------------------------------------------------
# the defining antipode sum


def _ordered_sum(fam: Family, x) -> dict:
    """Takeuchi's sum over the ordered set partitions of x's labels, each
    a set partition with an order of its blocks: the route for structures
    whose restrictions fail `_restrictions`."""
    acc: dict = {}
    for blocks in _label_partitions(x.labels):
        sign = (-1) ** len(blocks)
        for order in permutations(blocks):
            y = reassemble(fam, order, x)
            acc[y] = acc.get(y, 0) + sign
    return acc


def takeuchi_antipode(fam: Family, x, budget: int = DEFAULT_BUDGET,
                      jobs: int = 1) -> FreeVector:
    """Takeuchi's alternating sum: over all ordered set partitions of the
    label set, sign (-1)^k times split-then-merge.  Exact integer
    accumulation; the empty label set maps to the unit.

    Where `_restrictions` holds for x, the k! orders of one set partition
    reassemble x alike, to the product of its blocks' restrictions, so
    the sum runs over the Bell(n) set partitions with weight (-1)^k k!
    (Aguiar and Mahajan, 2010) and reads each image off the table
    (`_images`): for the four families, an `|` of ints per block, summed
    by int, with one structure built per distinct image.  Otherwise it
    falls back to the ordered sum.  The budget bounds the
    Bell(n) set partitions, and the Fubini(n) ordered ones only before
    that fallback.  `jobs` is accepted and ignored."""
    check_set_partition_budget(len(x.labels), budget)
    table = _restrictions(fam, x)
    if table is None:
        check_set_partition_budget(len(x.labels), budget, ordered=True)
        return FreeVector(fam.tag, x.labels, _ordered_sum(fam, x))
    n = len(x.labels)
    parts = _partitions(n)
    img, image = _images(fam, table, parts)
    weight = [(-1) ** k * factorial(k) for k in range(n + 1)]
    terms: dict = {}
    for blocks, y in zip(parts, img):
        terms[y] = terms.get(y, 0) + weight[len(blocks)]
    return FreeVector(fam.tag, x.labels, {image(y): c for y, c in terms.items()})


def takeuchi_on_vector(fam: Family, v: FreeVector,
                       budget: int = DEFAULT_BUDGET) -> FreeVector:
    return v.bind(lambda x: takeuchi_antipode(fam, x, budget))


# ---------------------------------------------------------------------------
# closed form


@dataclass
class ClosedFormAntipode:
    """Closed-form antipode with both characteristic evaluations.

    `vector` carries the upper-side coefficients (the form that matches
    the defining sum); `literal_lower_vector` carries the lower-side
    evaluation of the characteristic polynomial at -1."""

    family: str
    labels: frozenset
    upper: dict
    lower: dict

    @property
    def vector(self) -> FreeVector:
        return FreeVector(self.family, self.labels, self.upper)

    @property
    def literal_lower_vector(self) -> FreeVector:
        return FreeVector(self.family, self.labels, self.lower)


@lru_cache(maxsize=16)
def _partition_lattice(n: int) -> tuple:
    """For each partition in `_partitions(n)`, the indices of the
    partitions that refine it, itself included, in ascending order.

    rho refines pi iff rho separates every pair that pi separates: the
    containment order of the separated pairs' bits (`_by_position`)."""
    pairs = _by_position(tuple(range(n)))[1]
    keys = [pairs[-1] ^ sum(map(pairs.__getitem__, blocks)) for blocks in _partitions(n)]
    return tuple(tuple(_bits(up)) for up in _containment_upsets(keys))


def _reassembly_images(fam: Family, x, table: tuple) -> tuple:
    """(elems, up, bottom, ell) for the up-set of x in the reassembly
    order, from the restriction table of x that passed the gate.

    `elems` are the images in encoding order (the order of
    `reassembly_upset`), up[i] is the bitmask over `elems` of the up-set
    of elems[i], elems[bottom] is x, and ell[i] is the grading of
    elems[i], the sum of ell(r(B)) over the blocks B of a partition that
    gives it (see `_restrictions`).

    The images are img(pi) = reassemble(pi, x) over the set partitions pi
    of the labels, and by the gate img(pi) is the product of the r(B) over
    the blocks B of pi.  Splitting img(pi) along sigma restricts each r(B)
    to r(B & C) for the blocks C of sigma (Hopf compatibility and the
    gate), so reassembling it along sigma gives img(pi meet sigma): the
    up-set of img(pi) is {img(rho) : rho refines pi}."""
    r, joins, _ = table
    parts, refines = _partitions(len(x.labels)), _partition_lattice(len(x.labels))
    img, image = _images(fam, table, parts)
    # image -> index of the first partition giving it
    first = {y: j for j, y in reversed(list(enumerate(img)))}
    built = {y: image(y) for y in first}
    keys = sorted(first, key=lambda y: built[y].encode())
    index = {y: i for i, y in enumerate(keys)}
    bit = [1 << index[y] for y in img]
    up = [reduce(or_, map(bit.__getitem__, refines[first[y]])) for y in keys]
    factors = _factor_blocks(r, joins)
    ell = [sum(len(factors[b]) for b in parts[first[y]]) for y in keys]
    bottom = index[img[0]]  # parts[0] has one block: its image is x
    return [built[y] for y in keys], up, bottom, ell


def closed_form_antipode(fam: Family, x,
                         budget: int = DEFAULT_BUDGET) -> ClosedFormAntipode:
    """Antipode from the reassembly order: the coefficient of y is the
    upper characteristic evaluation at -1 over the interval [x, y] graded
    by factorization length.  The lower evaluation is reported alongside.

    The up-set of x, its order and its grading come from the restriction
    table that the gate (`require_self_adjoint`) returns; see
    `_reassembly_images`.  With s(z) = (-1)^ell(z), the lower value at y
    is the sum of mu(x, z) s(z) over z <= y.  The upper value u(y), the
    sum of mu(z, y) s(z) over x <= z <= y, sums over [x, w] to s(w): it is
    the Möbius inversion of s along the up-set of x, the same pass that
    gives mu(x, .) from the delta at x."""
    check_set_partition_budget(len(x.labels), budget)
    elems, up, bottom, ell = _reassembly_images(
        fam, x, require_self_adjoint(fam, x))
    p = FinitePoset(elems, up)
    sign = [(-1) ** k for k in ell]
    mu = p.mu(bottom)
    upper = p.invert(bottom, sign.__getitem__)
    # every element is above x, so [x, y] is the whole down-set of y
    lower = [sum(mu[k] * sign[k] for k in _bits(below)) for below in p.down]
    return ClosedFormAntipode(fam.tag, x.labels,
                              {y: upper[i] for i, y in enumerate(elems)},
                              dict(zip(elems, lower)))


# ---------------------------------------------------------------------------
# identities on the inverted basis


def antipode_on_inverted_check(fam: Family, x, budget: int = DEFAULT_BUDGET):
    """Check S(omega_x) == (-1)^ell(x) * omega_x on the reassembly order.

    Returns (equal, lhs, rhs)."""
    p = reassembly_poset(fam, x.labels, budget)
    omega = inverted_basis(p, x)
    lhs = takeuchi_on_vector(fam, omega, budget)
    rhs = omega * ((-1) ** grading(fam, x))
    return lhs == rhs, lhs, rhs


def antipode_axiom_check(fam: Family, n: int, antipode=None,
                         budget: int = DEFAULT_BUDGET):
    """Certify the convolution identity: summing merge(S(x1) (x) x2) over
    all ordered splits gives zero for nonempty label sets and the unit
    for the empty one.  S(x1) is computed once per distinct piece x1.

    Returns (ok, witness)."""
    if antipode is None:
        antipode = lambda y: takeuchi_antipode(fam, y, budget)
    values = _Memo(antipode)
    for k in range(n + 1):
        labels = frozenset(range(k))
        unit_vec = FreeVector.basis(fam.tag, fam.unit) if k == 0 else None
        for x in fam.enumerate(labels, budget):
            total = FreeVector.zero(fam.tag, labels)
            for S in subsets(labels):
                T = labels - S
                x1, x2 = fam.comult(x, S, T)
                total = total + values[x1].map_structures(
                    lambda a: fam.mult(a, x2), labels)
            expected = unit_vec if k == 0 else FreeVector.zero(fam.tag, labels)
            if total != expected:
                return False, (x, total)
    return True, None


# ---------------------------------------------------------------------------
# primitives


def box_indecomposables(adj: Adjunction, labels) -> list:
    """Structures not expressible as a proper box-product."""
    labels = frozenset(labels)
    fam = adj.family
    carrier = fam.enumerate(labels, adj.budget)
    decomposable = set()
    for S in subsets(labels):
        T = labels - S
        if not S or not T:
            continue
        for x1 in fam.enumerate(S, adj.budget):
            for x2 in fam.enumerate(T, adj.budget):
                decomposable.add(adj.box(x1, x2))
    return [x for x in sorted(carrier, key=lambda s: s.encode())
            if labels and x not in decomposable]


def primitives_basis(adj: Adjunction, labels) -> list[FreeVector]:
    """Inverted-basis vectors of the structures that are indecomposable
    for the adjunction's merge; each returned vector is killed by every
    proper split.  Verifies the Galois connection first."""
    labels = frozenset(labels)
    report = adj.verify_all_splits(labels)
    if not report.ok:
        raise EngineError(f"adjunction fails on {sorted(labels)}: {report.reason}")
    p = adj.poset(labels)
    return [inverted_basis(p, x) for x in box_indecomposables(adj, labels)]

"""Reassembly order and its grading from the restriction table, the
defining alternating-sum antipode, the characteristic-polynomial closed
form, and primitive bases for verified adjunctions.

The closed form's normative coefficient of y in S(x) is

    sum over x <=r z <=r y of (-1)^ell(z) * mu(z, y)

(the upper-side evaluation).  The lower-side evaluation
sum of mu(x, z) * (-1)^ell(z) is folded where it is read and reported,
because the two disagree already on two-element chains; see the
discrepancy tests.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import permutations, product
from math import factorial

from .errors import (DEFAULT_BUDGET, AmbientMismatch, EngineError,
                     LabelMismatch, NonUniqueFactorization, NotSelfAdjoint)
from .families import SetPartition, _of, _split, _union, partition_masks
from .posets import (FinitePoset, GaloisReport, _Record, _containment_stream,
                     _positions, check_galois)
from .species import (Family, _Memo, _partitions, _splits,
                      check_set_partition_budget, check_subset_budget,
                      reassemble, subsets)
from .vectors import FreeVector, _galois_splits, inverted_basis, split_galois_setup


# ---------------------------------------------------------------------------
# reassembly order


def _label_partitions(labels) -> list:
    """The set partitions of `_partitions` on `labels`, each block mask
    mapped to its set of labels."""
    subs = subsets(labels)  # subs[m]: the labels at the set bits of m
    return [tuple(map(subs.__getitem__, blocks))
            for blocks in _partitions(len(labels))]


def _upset_images(fam: Family, x, budget: int):
    """The distinct images of x under split-then-merge along a set
    partition, in no fixed order, for one pass.  They are read off the
    restriction table of x (`_restrictions`), one structure built per
    distinct image, and reassembled one partition at a time only where
    `_restrictions` fails on x."""
    check_set_partition_budget(len(x.labels), budget)
    table = _restrictions(fam, x)
    if table is not None:
        img, image, _ = table
        return map(image, set(img))
    return {reassemble(fam, blocks, x) for blocks in _label_partitions(x.labels)}


def reassembly_upset(fam: Family, x, budget: int = DEFAULT_BUDGET) -> tuple:
    """All images of x under split-then-merge along a set partition,
    deduplicated, in encoding order; always contains x via the trivial
    partition.  The one function of the reassembly order that sorts by
    encoding: the orders, the closed form and the inverted-basis check
    read the images unsorted (`_upset_images`, `_reassembly_images`).

    The order they make (x below each of its images) is transitive: by
    compatibility and coassociativity, the piece of img_pi(x) on a block C
    is the product of the pieces of x on the nonempty B & C, so by
    associativity and commutativity img_rho(img_pi(x)) is the image of x
    along the common refinement of pi and rho.  `verify` checks those
    axioms and the order itself (`hsl.cli._reassembly_poset_axioms`)."""
    return tuple(sorted(_upset_images(fam, x, budget), key=lambda y: y.encode()))


@lru_cache(maxsize=256)
def _reassembly_view(fam: Family, labels: frozenset, budget: int) -> FinitePoset:
    """One compiled reassembly order per (family, labels, budget), shared
    by its callers.  The bound is far above the orders one CLI command
    builds (one per subset of its labels)."""
    elems = fam.enumerate(labels, budget)
    index = {x: i for i, x in enumerate(elems)}
    up, down = [0] * len(elems), [0] * len(elems)
    for i, x in enumerate(elems):
        for k in map(index.__getitem__, _upset_images(fam, x, budget)):
            up[i] |= 1 << k
            down[k] |= 1 << i
    return FinitePoset(elems, up, down, fam.tag)


def reassembly_poset(fam: Family, labels, budget: int = DEFAULT_BUDGET) -> FinitePoset:
    return _reassembly_view(fam, frozenset(labels), budget)


# ---------------------------------------------------------------------------
# adjunctions


class Adjunction:
    """A declared Galois connection between the split map and a merge map.

    kind "delta_box":  split left-adjoint to the free product, native order.
    kind "delta_m":    split left-adjoint to the merge, reassembly order.
    kind "m_delta":    merge left-adjoint to the split, native order; that
                       is split left-adjoint to the merge on the opposite
                       order, its `poset`, where it is checked and inverted.

    An adjunction compares and hashes by identity.
    """

    def __init__(self, family: Family, kind: str, budget: int = DEFAULT_BUDGET):
        if kind not in ("delta_box", "delta_m", "m_delta"):
            raise EngineError(f"unknown adjunction kind {kind!r}")
        if kind not in family.adjunction_kinds:
            raise EngineError(f"family {family.tag} does not declare {kind}")
        self.family = family
        self.kind = kind
        self.budget = budget

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
        native = self.family.poset(labels, self.budget)
        return native.reverse() if self.kind == "m_delta" else native

    def verify(self, S, T) -> GaloisReport:
        """Run the full Galois check on one split."""
        return check_galois(*split_galois_setup(self.family, self.poset, self.box, S, T))

    def verify_all_splits(self, labels) -> GaloisReport:
        """The Galois check on every split of labels (`_galois_splits`)."""
        labels = frozenset(labels)
        check_subset_budget(len(labels), self.budget)
        return _galois_splits(self.family, self.poset, self.box, labels)


def declared_adjunctions(fam: Family, budget: int = DEFAULT_BUDGET) -> list[Adjunction]:
    return [Adjunction(fam, kind, budget) for kind in fam.adjunction_kinds]


# ---------------------------------------------------------------------------
# the restriction table


def _restrictions(fam: Family, x) -> tuple | None:
    """(img, image, grades) when the checks below hold on x, else None.

    img[j] stands for the image of x along the j-th set partition of
    `_partitions`, equal entries for equal images, image(img[j]) is that
    image as a structure, and grades(js) lists ell(img[j]) at positions j
    each the finest partition giving its image (`_reassembly_images`).

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
    two adjacent factors swap, so every order gives the same product:
    img(pi) = reassemble(pi, x) is the fold of mult over the r(B) for the
    blocks B of pi, with no split made.

    On the integer kernel of the four families (split `_split`, merge
    `_union`), no map is called and nothing is built per structure.
    There r(S) has the int x.bits & inside(S), and the checks hold by
    algebra: (x.bits & inside(U)) & inside(S) = x.bits & inside(S) for S
    in U, which is (a) and (b), and `|` commutes, which is (c).  So
    img[j] is the int x.bits & inside(pi) (`partition_masks`), image
    builds the structure on I with that int, and grades counts the blocks
    of pi.

    Otherwise the maps run the checks, img[j] is the image itself and
    image is the identity.  joins[U] holds, ascending, each S of a split
    {S, U - S} with mult(r(S), r(U - S)) == r(U), along which r(U)
    decomposes.  By unique factorization (Aguiar and Mahajan, 2010, ch. 8)
    ell(img pi) is the sum of ell(r(B)) over the blocks B of pi.  grades
    reads those from the joins (`_factor_blocks`, which raises
    NonUniqueFactorization where two joins disagree) only when called, so
    the defining sum, which grades nothing, answers where they disagree."""
    labels = x.labels
    parts = _partitions(len(labels))
    if fam.comult_fn is _split and fam.mult_fn is _union:
        return (list(map(x.bits.__and__, partition_masks(type(x), labels))),
                partial(_of, type(x), labels), lambda js: [len(parts[j]) for j in js])
    subs = subsets(labels)  # subs[m]: the labels at the set bits of m
    full = len(subs) - 1
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
    joins: list = [[] for _ in subs]
    for S in range(1, full + 1):
        T = full ^ S
        while T > S:
            y = mult(r[S], r[T])
            if y != mult(r[T], r[S]):
                return None
            if y == r[S | T]:
                joins[S | T].append(S)
            T = (T - 1) & (full ^ S)

    def grades(js) -> list:
        factors = _factor_blocks(r, joins)
        return [sum(len(factors[b]) for b in parts[j]) for j in js]

    img = [reduce(mult, map(r.__getitem__, blocks), fam.unit) for blocks in parts]
    return img, (lambda y: y), grades


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
    (Aguiar and Mahajan, 2010) and reads each image off the table: for
    the four families, one `&` of ints per partition, summed by int, with
    one structure built per distinct image.  Otherwise it falls back to
    the ordered sum.  The budget bounds the Bell(n) set partitions, and
    the Fubini(n) ordered ones only before that fallback.
    `jobs` is accepted and ignored."""
    check_set_partition_budget(len(x.labels), budget)
    table = _restrictions(fam, x)
    if table is None:
        check_set_partition_budget(len(x.labels), budget, ordered=True)
        return FreeVector(fam.tag, x.labels, _ordered_sum(fam, x))
    n = len(x.labels)
    img, image, _ = table
    weight = [(-1) ** k * factorial(k) for k in range(n + 1)]
    terms: dict = {}
    for blocks, y in zip(_partitions(n), img):
        terms[y] = terms.get(y, 0) + weight[len(blocks)]
    return FreeVector(fam.tag, x.labels, {image(y): c for y, c in terms.items()})


# ---------------------------------------------------------------------------
# closed form


class ClosedFormAntipode(_Record):
    """Closed-form antipode with both characteristic evaluations.

    `vector` carries the upper-side coefficients (the form that matches
    the defining sum); `literal_lower_vector` carries the lower-side
    evaluation of the characteristic polynomial at -1.

    A record from `closed_form_antipode` holds the fold over the images of
    x (`_upset_walk`) until a row is read, and folds each row on its first
    read: `upper` alone, while the first read of `lower` folds mu and the
    lower row, with the upper row where it is still unread, in one stream.
    Comparing or printing a record reads both rows."""

    def __init__(self, family: str, labels: frozenset, upper: dict, lower: dict):
        self.family = family
        self.labels = labels
        self.upper = upper
        self.lower = lower

    @classmethod
    def _unread(cls, family: str, labels: frozenset, elems: list, fold):
        out = cls.__new__(cls)
        out.family, out.labels, out._walk = family, labels, (elems, fold)
        return out

    def __getattr__(self, name):
        # called only for an attribute that is not set: a row not yet read
        walk = self.__dict__.get("_walk")
        if walk is None or name not in ("upper", "lower"):
            raise AttributeError(name)
        elems, fold = walk
        rows = ["upper"] if name == "upper" else ["mu", "lower"]
        if name == "lower" and "upper" not in self.__dict__:
            rows.append("upper")
        folded = fold(rows)
        for row in ("upper", "lower"):  # the fields in the constructor's order
            if row in folded:
                setattr(self, row, dict(zip(elems, folded[row])))
        if name == "lower":
            del self._walk
        return self.__dict__[name]

    def _fields(self) -> dict:
        self.lower  # its first read folds every row still unread
        return vars(self)

    @property
    def vector(self) -> FreeVector:
        return FreeVector(self.family, self.labels, self.upper)

    @property
    def literal_lower_vector(self) -> FreeVector:
        return FreeVector(self.family, self.labels, self.lower)


def _reassembly_images(x, table: tuple) -> tuple:
    """(elems, keys, ell) for the up-set of x in the reassembly order, from
    the restriction table of x that passed the gate: `elems` are the
    distinct images of the table, one structure each, keys[i] is the
    same-block pair mask of the finest partition giving elems[i], and
    ell[i] is the grading of elems[i].  z <= y iff keys[y] has no bit
    outside keys[z] (below).  No image is encoded, and nothing is built
    per partition of the labels.

    The images are in the order of their finest partitions pi0 in
    `_partitions`, which lists a partition before each that strictly
    refines it (`hsl.species._partitions`).  That order is a linear
    extension: z < w means pi0(w) strictly refines pi0(z) (see below); x,
    below every other image, comes first.

    The images are img(pi) = reassemble(pi, x) over the set partitions pi
    of the labels, and by the gate img(pi) is the product of the r(B) over
    the blocks B of pi.  Splitting img(pi) along sigma restricts each r(B)
    to r(B & C) for the blocks C of sigma (Hopf compatibility and the
    gate), so reassembling it along sigma gives img(pi meet sigma): the
    up-set of img(pi) is {img(rho) : rho refines pi}, for any pi giving it.
    So if img(pi) = img(sigma) = y, then img(pi meet sigma) = reassemble(y,
    sigma) = img(sigma) = y, on the kernel and through the maps alike: the
    partitions giving y are closed under meets.  Their meet pi0(y) refines
    them all, so it is the last partition giving y, the one a dict pass
    over the table keeps.  Then z >= y iff pi0(z) refines pi0(y): z is
    some img(rho) with rho refining pi0(y), and pi0(z) refines that rho;
    the converse takes rho = pi0(z).  A partition refines another iff its
    same-block pairs lie among the other's, inside(pi) of `SetPartition`,
    so the down-sets are a containment order on the keys inside(pi0(y))
    (`_containment_stream`).

    ell is the table's grades at the pi0(y) (`_restrictions`).  On the
    kernel that is |pi0(y)|, and it is ell(y): there img(pi) = x &
    inside(pi), inside(pi) the `|` of inside(B) over the blocks B of pi
    (`partition_masks`), and each block B of pi0 is indecomposable: were
    x & inside(B) the `|` of x & inside(S) and x & inside(B - S), cutting
    B in two would give y from a finer partition.  So y is a product of
    |pi0| indecomposables, and by unique factorization ell(y) = |pi0|."""
    img, image, grades = table
    pi0 = sorted(dict(zip(img, range(len(img)))).values())  # each image's last partition
    masks = partition_masks(SetPartition, frozenset(range(len(x.labels))))
    return [image(img[j]) for j in pi0], [masks[j] for j in pi0], grades(pi0)


def _fold_rows(keys: list, sign: list, rows) -> dict:
    """{row: its values over the images} for each row named in `rows`:
    "mu" for mu(x, .), "upper" and "lower" for the closed form's values,
    "lower" only with "mu".  With s(z) = sign[z] = (-1)^ell(z), the lower
    value at y is the sum of mu(x, z) s(z) over z <= y.  The upper value
    u(y), the sum of mu(z, y) s(z) over x <= z <= y, sums over [x, w] to
    s(w): it is the Möbius inversion of s along the up-set of x, as
    mu(x, .) is that of the delta at x.  Every image lies above x, so
    [x, w] is the down-set of w, and one pass over the images in their
    order, a linear extension (`_reassembly_images`), folds every named
    row.  Each down-set is formed from the keys when the pass reaches it,
    read once from the bit kernel and dropped (`_containment_stream`)."""
    out = {row: [0] * len(keys) for row in rows}
    mu, upper, lower = map(out.get, ("mu", "upper", "lower"))
    signed = [0] * len(keys)  # mu(x, w) s(w), for the lower row
    for w, down in enumerate(_containment_stream(keys)):
        below = _positions(down ^ 1 << w)
        if mu is not None:
            mu[w] = (w == 0) - sum(map(mu.__getitem__, below))  # elems[0] is x
        if upper is not None:
            upper[w] = sign[w] - sum(map(upper.__getitem__, below))
        if lower is not None:
            signed[w] = mu[w] * sign[w]
            lower[w] = signed[w] + sum(map(signed.__getitem__, below))
    return out


def _upset_walk(fam: Family, x, budget: int) -> tuple:
    """(elems, ell, fold) on the up-set of x in the reassembly order,
    where the gate (`require_self_adjoint`) holds on x: the images and
    their grading from `_reassembly_images`, and fold(rows), which folds
    the rows of `_fold_rows` that its caller reads, each a list over
    `elems`, in one stream over the images."""
    check_set_partition_budget(len(x.labels), budget)
    elems, keys, ell = _reassembly_images(x, require_self_adjoint(fam, x))
    return elems, ell, partial(_fold_rows, keys, [(-1) ** k for k in ell])


def closed_form_antipode(fam: Family, x,
                         budget: int = DEFAULT_BUDGET) -> ClosedFormAntipode:
    """Antipode from the reassembly order: the coefficient of y is the
    upper characteristic evaluation at -1 over the interval [x, y] graded
    by factorization length.  The lower evaluation is reported alongside.

    The gate and the images of x in its restriction table (`_upset_walk`)
    are read here, which raises NotSelfAdjoint where the gate fails on x
    and NonUniqueFactorization where the grading is not unique; each row
    is folded on its first read (`ClosedFormAntipode`).  `upper` and
    `lower` hold the images in the order of `_reassembly_images`, not in
    encoding order."""
    elems, _, fold = _upset_walk(fam, x, budget)
    return ClosedFormAntipode._unread(fam.tag, x.labels, elems, fold)


# ---------------------------------------------------------------------------
# identities on the inverted basis


def antipode_on_inverted_check(fam: Family, x, budget: int = DEFAULT_BUDGET):
    """Check S(omega_x) == (-1)^ell(x) * omega_x on the reassembly order,
    an identity of commutative, cocommutative families: omega_x, the sum
    of mu(x, y) y over the up-set of x, and ell(x) come from the closed
    form's pass over x's images (`_upset_walk`), which folds the row
    mu(x, .) alone, and where the gate fails on x it raises
    NotSelfAdjoint, as `closed_form_antipode` does.

    Returns (equal, lhs, rhs)."""
    elems, ell, fold = _upset_walk(fam, x, budget)
    omega = FreeVector(fam.tag, x.labels, dict(zip(elems, fold(("mu",))["mu"])))
    lhs = omega.bind(lambda y: takeuchi_antipode(fam, y, budget))
    rhs = omega * ((-1) ** ell[0])  # elems[0] is x
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
            terms = []  # one vector at the end, not a running sum
            for S, T in _splits(labels):
                x1, x2 = fam.comult(x, S, T)
                piece = values[x1]
                if piece.family_tag != fam.tag:
                    raise AmbientMismatch(piece._mismatch)
                terms += [(fam.mult(a, x2), c) for a, c in piece.terms.items()]
            total = FreeVector(fam.tag, labels, terms)
            expected = unit_vec if k == 0 else FreeVector.zero(fam.tag, labels)
            if total != expected:
                return False, (x, total)
    return True, None


# ---------------------------------------------------------------------------
# primitives


def box_indecomposables(adj: Adjunction, labels) -> list:
    """Structures not expressible as a proper box-product, by encoding."""
    labels = frozenset(labels)
    check_subset_budget(len(labels), adj.budget)
    if not labels:
        return []
    fam = adj.family
    decomposable = {adj.box(x1, x2) for S in subsets(labels)[1:-1]  # S, T nonempty
                    for x1, x2 in product(fam.enumerate(S, adj.budget),
                                          fam.enumerate(labels - S, adj.budget))}
    return sorted(set(fam.enumerate(labels, adj.budget)) - decomposable,
                  key=lambda x: x.encode())


def primitives_basis(adj: Adjunction, labels) -> list[FreeVector]:
    """Inverted-basis vectors of the structures that are indecomposable
    for the adjunction's merge; each returned vector is killed by every
    proper split.  Verifies the Galois connection first."""
    return list(_primitives_by_indecomposable(adj, labels).values())


def _primitives_by_indecomposable(adj: Adjunction, labels) -> dict:
    """{x: omega_x} over the box indecomposables x, by encoding."""
    labels = frozenset(labels)
    report = adj.verify_all_splits(labels)
    if not report.ok:
        raise EngineError(f"adjunction fails on {sorted(labels)}: {report.reason}")
    p = adj.poset(labels)
    return {x: inverted_basis(p, x) for x in box_indecomposables(adj, labels)}

"""Free vector spaces over structure carriers with exact rational
coefficients: the Möbius-inverted basis, the split set-up that the
Galois checks of `hsl.posets` read, and the product identity as an
executable check.  The duality pairing <Delta_{S,T}(x), y (x) z> ==
<x, y box z> is the zeta function of the product order, so on a split it
is the Galois biconditional that `_galois_splits` scans.

The split of omega_x as a fibre sum of omega_{x1} (x) omega_{x2} over
x1 box x2 = x is Rota's transfer on that split: its coefficient at b is
the sum of mu_P(x, y) over the y >= x that split to b, and the fibre
sum's is the sum of mu_Q(a, b) over the a <= b with box(a) = x, mu of
the product order Q being the product of its factors'.  So
`rota_transfer_check(*split_galois_setup(...))` checks it for every x
at once.

No floating point anywhere; every check is an exact identity.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .errors import AmbientMismatch
from .posets import FinitePoset, GaloisReport, _Combination, check_galois
from .species import _splits

_labels = attrgetter("labels")


class FreeVector(_Combination):
    """Sparse exact-rational combination of structures on one label set."""

    __slots__ = ("family_tag", "labels", "terms")
    _mismatch = "vectors live in different ambient spaces"

    def __init__(self, family_tag: str, labels, terms=()):
        self.family_tag = family_tag
        self.labels = frozenset(labels)
        self._fill(terms)

    @property
    def _ambient(self) -> tuple:
        return self.family_tag, self.labels

    def _key(self, x):
        if x.labels != self.labels:
            raise AmbientMismatch(
                f"term {x.encode()} not on labels {sorted(self.labels)}")
        return x

    def _keys_fit(self, terms) -> bool:
        try:
            return {*map(_labels, terms)} <= {self.labels}
        except AttributeError:  # not a structure: `_key` raises at its term
            return False

    @staticmethod
    def _show(x) -> str:
        return x.encode()

    @classmethod
    def basis(cls, family_tag: str, x) -> "FreeVector":
        return cls(family_tag, x.labels, [(x, 1)])

    @classmethod
    def zero(cls, family_tag: str, labels) -> "FreeVector":
        return cls(family_tag, labels)

    def coefficient(self, x) -> Fraction:
        return self.terms.get(x, Fraction(0))

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].encode())

    def bind(self, fn) -> "FreeVector":
        """Linear extension of a structure-to-vector map, its terms summed
        in one pass; AmbientMismatch where two images lie in different
        spaces."""
        pieces = [(fn(x), c) for x, c in self.terms.items()]
        if not pieces:
            return FreeVector.zero(self.family_tag, self.labels)
        first = pieces[0][0]
        for v, _ in pieces:
            first._check_ambient(v)
        return FreeVector(*first._ambient, [(y, c * d) for v, c in pieces
                                            for y, d in v.terms.items()])

    def ambient_string(self) -> str:
        return f"{self.family_tag}:" + ",".join(map(str, sorted(self.labels)))

    def to_json_dict(self) -> dict:
        terms = {x.encode(): str(c) for x, c in self.terms.items()}
        return {"ambient": self.ambient_string(), "terms": dict(sorted(terms.items()))}


class TensorVector(_Combination):
    """Exact-rational combination of structure pairs on a fixed split."""

    __slots__ = ("family_tag", "left_labels", "right_labels", "terms")
    _mismatch = "tensors live on different splits"

    def __init__(self, family_tag: str, left_labels, right_labels, terms=()):
        self.family_tag = family_tag
        self.left_labels = frozenset(left_labels)
        self.right_labels = frozenset(right_labels)
        self._fill(terms)

    @property
    def _ambient(self) -> tuple:
        return self.family_tag, self.left_labels, self.right_labels

    def _key(self, pair):
        a, b = pair
        if a.labels != self.left_labels or b.labels != self.right_labels:
            raise AmbientMismatch("tensor factor on the wrong label set")
        return pair

    def _keys_fit(self, terms) -> bool:
        split = self.left_labels, self.right_labels
        try:
            return {(a.labels, b.labels) for a, b in terms} <= {split}
        except (AttributeError, TypeError, ValueError):  # not a pair of structures
            return False

    @staticmethod
    def _show(pair) -> str:
        return f"{pair[0].encode()}(x){pair[1].encode()}"

    def coefficient(self, a, b) -> Fraction:
        return self.terms.get((a, b), Fraction(0))

    def items(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0].encode(), kv[0][1].encode()))


def tensor(v: FreeVector, w: FreeVector) -> TensorVector:
    if v.family_tag != w.family_tag:
        raise AmbientMismatch("tensor factors from different families")
    terms = {(a, b): ca * cb for a, ca in v.terms.items() for b, cb in w.terms.items()}
    return TensorVector(v.family_tag, v.labels, w.labels, terms)


def comult_vector(fam, v: FreeVector, S, T) -> TensorVector:
    """Linear extension of the split map to a vector."""
    S, T = frozenset(S), frozenset(T)
    terms = [(fam.comult(x, S, T), c) for x, c in v.terms.items()]
    return TensorVector(fam.tag, S, T, terms)


def mult_tensor(fam, tv: TensorVector) -> FreeVector:
    """Linear extension of the merge map to a tensor."""
    terms = [(fam.mult(a, b), c) for (a, b), c in tv.terms.items()]
    return FreeVector(fam.tag, tv.left_labels | tv.right_labels, terms)


def inverted_basis(p: FinitePoset, x) -> FreeVector:
    """omega_x = sum over y >= x of mu(x, y) * y.

    The coefficient of x itself is always 1."""
    if p.family_tag is None:
        raise AmbientMismatch("poset does not carry a family tag")
    row = p.mu(p.index[x])
    return FreeVector(p.family_tag, x.labels, {p.elems[w]: c for w, c in row.items()})


def split_galois_setup(fam, poset_for, box, S, T) -> tuple:
    """(p, q, f, g) for the Galois check on the split (S, T): the order on
    S | T, the product order P(S) x P(T), the split and the merge `box`."""
    S, T = frozenset(S), frozenset(T)
    return (poset_for(S | T), FinitePoset.product(poset_for(S), poset_for(T)),
            lambda z: fam.comult(z, S, T), lambda pair: box(*pair))


def _galois_splits(fam, poset_for, box, labels) -> GaloisReport:
    """`check_galois` on each split (S, labels - S), S in bitmask order;
    the first failure's witness is (x, y, z, S, T)."""
    for S, T in _splits(labels):
        report = check_galois(*split_galois_setup(fam, poset_for, box, S, T))
        if not report.ok:
            x, (y, z) = report.witness
            return GaloisReport(False, report.reason, (x, y, z, S, T))
    return GaloisReport(True)


def product_of_inverted_check(fam, poset_for, x, y):
    """Check omega_x * omega_y == omega_{x * y} by expanding both sides.

    Returns (equal, lhs, rhs)."""
    ps = poset_for(x.labels)
    pt = poset_for(y.labels)
    lhs = mult_tensor(fam, tensor(inverted_basis(ps, x), inverted_basis(pt, y)))
    p = poset_for(x.labels | y.labels)
    rhs = inverted_basis(p, fam.mult(x, y))
    return lhs == rhs, lhs, rhs

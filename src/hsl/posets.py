"""Finite-poset kernel: one compiled order class, Möbius functions,
intervals, Galois-connection checks, and graded characteristic
evaluations; and the one sparse exact combination (`_Combination`) that
vectors, tensors, symmetric functions and integer polynomials share.

A `FinitePoset` keeps its elements (hashable frozen structures, or pairs
of them) in a fixed order, and each element's up-set and down-set as a
Python-int bitset over that order: comparing two elements is a bit test
and an interval is one `&`.  Möbius values come from one inversion pass
along an up-set in a linear extension (Rota, "On the foundations of
combinatorial theory I", 1964).  A combination maps keys to nonzero
coefficients, exact rationals or, in an `IntPolynomial`, ints; it
refuses floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_, index

from .errors import AmbientMismatch, NotComparable


def _bits(m: int):
    """Positions of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _containment_upsets(keys) -> list:
    """The up-sets, as bitsets over positions, of the order x <= y iff
    keys[x] has no bit outside keys[y].  Each bit e of a key gets the
    bitset has[e] of the positions whose key holds it; the up-set of x is
    the `&` of has[e] over the bits e of keys[x]."""
    has: dict = {}
    for i, key in enumerate(keys):
        for e in _bits(key):
            has[e] = has.get(e, 0) | 1 << i
    everything = (1 << len(keys)) - 1
    return [reduce(and_, map(has.__getitem__, _bits(key)), everything) for key in keys]


class FinitePoset:
    """A finite partial order compiled to bitsets.

    `elems` is the element order (encoding order for a carrier), `index`
    maps each element to its position, and up[i] and down[i] are the
    bitsets of the elements above and below elems[i], itself included.
    `family_tag` names the family of a carrier, for the vectors built on
    it.  The rows mu(x, .) are computed once per element and kept."""

    def __init__(self, elems, up, family_tag: str | None = None):
        self.elems = tuple(elems)
        self.index = {x: i for i, x in enumerate(self.elems)}
        self.up = tuple(up)
        down = [0] * len(self.elems)
        for i, mask in enumerate(self.up):
            for k in _bits(mask):
                down[k] |= 1 << i
        self.down = tuple(down)
        self.family_tag = family_tag
        self._down_size = [mask.bit_count() for mask in down]
        self._mu: dict = {}

    @classmethod
    def product(cls, p: "FinitePoset", q: "FinitePoset") -> "FinitePoset":
        """Componentwise order on the pairs (p.elems[i], q.elems[j]), the
        pair at position i * |Q| + j."""
        width = len(q.elems)
        # the shifted copies of b occupy disjoint blocks of width bits
        up = [sum(b << width * i for i in _bits(a)) for a in p.up for b in q.up]
        return cls(((u, v) for u in p.elems for v in q.elems), up)

    def reverse(self) -> "FinitePoset":
        """The opposite order on the same elements."""
        return FinitePoset(self.elems, self.down, self.family_tag)

    def carrier(self) -> tuple:
        return self.elems

    def leq(self, x, y) -> bool:
        return bool(self.up[self.index[x]] >> self.index[y] & 1)

    def upset(self, x) -> tuple:
        return tuple(self.elems[k] for k in _bits(self.up[self.index[x]]))

    def invert(self, i: int, s) -> dict:
        """Möbius inversion along the up-set of elems[i]: for s given on
        the positions of the up-set, the g with the sum of g(y) over
        elems[i] <= y <= w equal to s(w) for every w in it, as
        {position: g}.  One pass in a linear extension (by down-set size):
        g(w) = s(w) - sum of g(y) over i <= y < w."""
        up = self.up[i]
        g: dict = {}
        for w in sorted(_bits(up), key=self._down_size.__getitem__):
            below = (up & self.down[w]) ^ (1 << w)
            g[w] = s(w) - sum(map(g.__getitem__, _bits(below)))
        return g

    def mu(self, i: int) -> dict:
        """mu(elems[i], .) on the up-set of elems[i]: `invert` with s the
        delta at i."""
        row = self._mu.get(i)
        if row is None:
            row = self._mu[i] = self.invert(i, lambda w: int(w == i))
        return row


def interval(p: FinitePoset, x, y) -> tuple:
    """All z with x <= z <= y, in the poset's element order."""
    if not p.leq(x, y):
        raise NotComparable(f"{x!r} and {y!r} are not comparable")
    return tuple(p.elems[k] for k in _bits(p.up[p.index[x]] & p.down[p.index[y]]))


def mobius(p: FinitePoset, x, y) -> int:
    """Möbius value mu(x, y): 1 on the diagonal, else the negated sum of
    mu(x, z) over x <= z < y."""
    if not p.leq(x, y):
        raise NotComparable(f"{x!r} and {y!r} are not comparable")
    return p.mu(p.index[x])[p.index[y]]


@dataclass
class GaloisReport:
    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def check_galois(p: FinitePoset, q: FinitePoset, f, g) -> GaloisReport:
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
    preimage = [0] * len(p.elems)  # position in P -> bitset of the y with g(y) there
    for j, k in enumerate(gy):
        preimage[k] |= 1 << j
    for i, mask in enumerate(p.up):
        below_g = 0  # the y with x <= g(y)
        for k in _bits(mask):
            below_g |= preimage[k]
        diff = q.up[fx[i]] ^ below_g
        if diff:
            j = (diff & -diff).bit_length() - 1
            return GaloisReport(False, "adjunction biconditional fails",
                                (p.elems[i], q.elems[j]))
    return GaloisReport(True)


def rota_transfer_check(p: FinitePoset, q: FinitePoset, f, g, x, b):
    """Compare the two Möbius sums transported along a Galois connection:
    sum of mu_P(x, y) over y >= x with f(y) = b, against
    sum of mu_Q(a, b) over a <= b with g(a) = x.

    Returns (equal, left_sum, right_sum)."""
    left = sum(mobius(p, x, y) for y in p.upset(x) if f(y) == b)
    right = sum(mobius(q, a, b) for a in q.carrier()
                if q.leq(a, b) and g(a) == x)
    return left == right, left, right


def _as_fraction(value) -> int | Fraction:
    """An exact coefficient: an int or a Fraction as it is, a bool or a str
    as a Fraction.  Ints stay ints until a Fraction joins them, and print
    alike: str(2) == str(Fraction(2))."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value)}")


def _accumulate(terms: dict, key, c) -> None:
    """Add c to the coefficient of key, dropping it where the sum is 0."""
    new = terms.get(key, 0) + c
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


class _Combination:
    """Sparse exact combination in one ambient space, `terms` mapping each
    key to its nonzero coefficient.  `_ambient` (the constructor's leading
    arguments) names the space, `_coefficient` makes a coefficient exact
    (a rational unless a subclass says otherwise) and rejects floats,
    `_key` gives the stored key or rejects one from outside the space, and
    `_show` prints a key."""

    __slots__ = ()
    _coefficient = staticmethod(_as_fraction)

    def _fill(self, terms) -> None:
        self.terms = out = {}
        distinct = isinstance(terms, dict)  # else pairs whose keys may repeat
        for key, c in (terms.items() if distinct else terms):
            c = self._coefficient(c)
            if c:
                key = self._key(key)
                if distinct:
                    out[key] = c
                else:
                    _accumulate(out, key, c)

    def _key(self, key):
        return key

    def _check_ambient(self, other):
        if self._ambient != other._ambient:
            raise AmbientMismatch(self._mismatch)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __add__(self, other):
        self._check_ambient(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return type(self)(*self._ambient, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        scalar = self._coefficient(scalar)
        scaled = {k: scalar * c for k, c in self.terms.items()}
        return type(self)(*self._ambient, scaled)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self) and self._ambient == other._ambient
                and self.terms == other.terms)

    def __repr__(self):
        name = type(self).__name__
        if self.is_zero:
            return f"{name}(0)"
        shown = (f"{c}*{self._show(k)}" for k, c in self.items())
        return f"{name}(" + " + ".join(shown) + ")"

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


class IntPolynomial(_Combination):
    """Integer polynomial stored sparsely as exponent -> coefficient."""

    __slots__ = ("terms",)
    _ambient = ()
    _coefficient = staticmethod(index)  # ints only: TypeError on anything else
    _show = "t^{}".format

    def __init__(self, terms=()):
        self._fill(terms)

    @property
    def coeffs(self) -> dict:
        return self.terms

    @classmethod
    def term(cls, coefficient: int, exponent: int) -> "IntPolynomial":
        return cls({exponent: coefficient})

    @classmethod
    def falling_factorial(cls, n: int) -> "IntPolynomial":
        """t (t-1) (t-2) ... (t-n+1)."""
        out = cls({0: 1})
        for k in range(n):
            out = out * cls({1: 1, 0: -k})
        return out

    def evaluate(self, t):
        return sum(c * t ** e for e, c in self.terms.items())

    def __mul__(self, other):
        """The polynomial product, or a scalar multiple."""
        if not isinstance(other, IntPolynomial):
            return super().__mul__(other)
        return IntPolynomial([(e1 + e2, c1 * c2) for e1, c1 in self.terms.items()
                              for e2, c2 in other.terms.items()])

    def to_json_dict(self) -> dict:
        return {str(e): c for e, c in self.terms.items()}

    @classmethod
    def from_json(cls, text: str) -> "IntPolynomial":
        return cls({int(e): c for e, c in json.loads(text).items()})


def graded_char_poly(p: FinitePoset, x, y, grading, side: str) -> IntPolynomial:
    """Möbius-weighted rank generating polynomial of the interval [x, y].

    side="lower" weights z by mu(x, z); side="upper" weights z by mu(z, y).
    The exponent of each term is the grading of z."""
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    weight = ((lambda z: mobius(p, x, z)) if side == "lower"
              else (lambda z: mobius(p, z, y)))
    return IntPolynomial((grading(z), weight(z)) for z in interval(p, x, y))


def graded_char_eval(p: FinitePoset, x, y, grading, side: str, t: int) -> int:
    return graded_char_poly(p, x, y, grading, side).evaluate(t)

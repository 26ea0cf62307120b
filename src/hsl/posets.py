"""Finite-poset kernel: one compiled order class, Möbius functions,
intervals and Galois-connection checks; the one sparse exact
combination (`_Combination`) that vectors, tensors, symmetric functions
and integer polynomials share; and `_Record`, the value equality of the
engine's result reports.

A `FinitePoset` keeps its elements (hashable frozen structures, or pairs
of them) in a fixed order, and each element's up-set and down-set as a
Python-int bitset over that order, both passed by its builder: comparing
two elements is a bit test, an interval is one `&`, and one kernel,
`_positions`, reads the set bits of every int.  Möbius values come from
one inversion pass along an up-set in a linear extension
(Rota, "On the foundations of combinatorial theory I", 1964).  A
combination maps keys to nonzero coefficients, exact rationals or, in an
`IntPolynomial`, ints; it refuses floats.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_, index, or_

from .errors import AmbientMismatch, NotComparable


_BYTE = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_HIGH = tuple(tuple(8 + i for i in t) for t in _BYTE)  # for the second byte of an int


@lru_cache(maxsize=4096)  # ints below 2^64 (keys, structures, small sets) recur
def _word(m: int) -> tuple:
    if m < 1 << 16:
        return _BYTE[m & 255] + _HIGH[m >> 8]
    data = m.to_bytes(m.bit_length() + 7 >> 3, "little")
    return tuple([8 * k + i for k, b in enumerate(data) if b for i in _BYTE[b]])


def _positions(m: int) -> tuple:
    """The positions of the set bits of m >= 0, lowest first: the bit
    kernel, one read of the byte table `_BYTE` per nonzero byte.  Ints
    below 2^64 are cached (`_word`); wider ones, the sets of large orders,
    are read afresh, each zero 64-bit word passed over."""
    if m < 1 << 64:
        return _word(m)
    data = m.to_bytes(8 * -(-m.bit_length() // 64), "little")
    return tuple([8 * k + i for w, word in enumerate(memoryview(data).cast("Q")) if word
                  for k in range(8 * w, 8 * w + 8) if (b := data[k]) for i in _BYTE[b]])


def _containment_upsets(keys) -> list:
    """The up-sets, as bitsets over positions, of the order x <= y iff
    keys[x] has no bit outside keys[y].  Each bit e of a key gets the
    bitset has[e] of the positions whose key holds it; the up-set of x is
    the `&` of has[e] over the bits e of keys[x]."""
    members = list(map(_positions, keys))  # the bits of each key
    has: dict = {}
    for i, bits in enumerate(members):
        for e in bits:
            has[e] = has.get(e, 0) | 1 << i
    everything = (1 << len(keys)) - 1
    return [reduce(and_, map(has.__getitem__, bits), everything) for bits in members]


class FinitePoset:
    """A finite partial order compiled to bitsets.

    `elems` is the element order (a carrier's enumeration order), `index`
    maps each element to its position, and up[i] and down[i] are the
    bitsets of the elements above and below elems[i], itself included.
    `family_tag` names the family of a carrier, for the vectors built on
    it; every builder passes `down` with `up`, from what it holds.  The
    rows mu(x, .) and the opposite order (`reverse`) are built once and kept."""

    def __init__(self, elems, up, down, family_tag: str | None = None):
        self.elems = tuple(elems)
        self.index = {x: i for i, x in enumerate(self.elems)}
        self.up = tuple(up)
        self.down = tuple(down)
        self.family_tag = family_tag
        self._down_size = [mask.bit_count() for mask in self.down]
        self._mu: dict = {}
        self._opposite = None

    @classmethod
    def product(cls, p: "FinitePoset", q: "FinitePoset") -> "FinitePoset":
        """Componentwise order on the pairs (p.elems[i], q.elems[j]), the
        pair at position i * |Q| + j; its up-sets and down-sets are both
        built componentwise: the set of (a, b) is b * spread(a), where
        spread(a) holds bit i of a at bit i * |Q|, so the copies of b land
        in disjoint blocks of |Q| bits and nothing carries.  A one-element
        factor keeps the other's sets and positions, so they share rows."""
        gap = "0" * (len(q.elems) - 1)
        spread = (lambda a: int(gap.join(bin(a)[2:]), 2)) if gap else (lambda a: a)
        up, down = ([b * s for s in map(spread, p_sets) for b in q_sets]
                    for p_sets, q_sets in ((p.up, q.up), (p.down, q.down)))
        out = cls(((u, v) for u in p.elems for v in q.elems), up, down)
        if len(q.elems) == 1 or len(p.elems) == 1:
            out._mu = (q if len(p.elems) == 1 else p)._mu
        return out

    def reverse(self) -> "FinitePoset":
        """The opposite order on the same elements, built on the first call
        and kept; its own `reverse()` is this order."""
        if self._opposite is None:
            self._opposite = FinitePoset(self.elems, self.down, self.up, self.family_tag)
            self._opposite._opposite = self
        return self._opposite

    def leq(self, x, y) -> bool:
        return bool(self.up[self.index[x]] >> self.index[y] & 1)

    def upset(self, x) -> tuple:
        return tuple(self.elems[k] for k in _positions(self.up[self.index[x]]))

    def mu(self, i: int) -> dict:
        """mu(elems[i], .) on the up-set of elems[i], as {position: value},
        by one pass over the up-set in a linear extension (by down-set
        size): mu(i, w) is 1 at w = i, else minus the sum of mu(i, y) over
        i <= y < w, a half-open interval read as one `&` and one kernel
        call (`_positions`), not one int step per comparable pair."""
        row = self._mu.get(i)
        if row is None:
            row = self._mu[i] = {}
            up = self.up[i]
            for w in sorted(_positions(up), key=self._down_size.__getitem__):
                below = (up & self.down[w]) ^ (1 << w)
                row[w] = (w == i) - sum(map(row.__getitem__, _positions(below)))
        return row


def interval(p: FinitePoset, x, y) -> tuple:
    """All z with x <= z <= y, in the poset's element order."""
    if not p.leq(x, y):
        raise NotComparable(f"{x!r} and {y!r} are not comparable")
    return tuple(p.elems[k] for k in _positions(p.up[p.index[x]] & p.down[p.index[y]]))


def mobius(p: FinitePoset, x, y) -> int:
    """Möbius value mu(x, y): 1 on the diagonal, else the negated sum of
    mu(x, z) over x <= z < y."""
    if not p.leq(x, y):
        raise NotComparable(f"{x!r} and {y!r} are not comparable")
    return p.mu(p.index[x])[p.index[y]]


class _Record:
    """A result report: two reports are equal when they are of one class
    and their attributes are equal, a report is unhashable, and its repr
    lists its attributes in the order its constructor sets them."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class GaloisReport(_Record):
    def __init__(self, ok: bool, reason: str | None = None,
                 witness: tuple | None = None):
        self.ok = ok
        self.reason = reason
        self.witness = witness

    def __bool__(self):
        return self.ok


def check_galois(p: FinitePoset, q: FinitePoset, f, g) -> GaloisReport:
    """Check the Galois biconditional f(x) <= y iff x <= g(y) for every
    pair (x, y) of P x Q; on failure report a witness, the first failing
    pair in element order (the least x, then the least y).

    The biconditional alone decides, given its premise that P and Q are
    reflexive and transitive: it makes both maps monotone.  If x <= x',
    f(x') <= f(x') gives x' <= g(f(x')), so x <= g(f(x')), so f(x) <= f(x');
    the argument for g is dual (Erné et al. 1993; Davey and Priestley
    2002, ch. 7).  Every order the engine compiles meets the premise:
    containment orders, products and the reassembly order (transitive by
    the argument at `reassembly_upset`, and checked by `verify`).

    f and g are applied once per element.  The scan is read one y at a
    time, folding over the down-sets of Q: in the adjunction checks and
    the duality pairing Q is the product order of a split, smaller than
    P."""
    fx = [q.index[f(x)] for x in p.elems]
    preimage = [0] * len(q.elems)  # position in Q -> bitset of the i with fx[i] there
    for i, k in enumerate(fx):
        preimage[k] |= 1 << i
    first = None
    for j, (y, mask) in enumerate(zip(q.elems, q.down)):
        below_f = reduce(or_, map(preimage.__getitem__, _positions(mask)), 0)  # fx[i] <= j
        diff = p.down[p.index[g(y)]] ^ below_f  # the i at which the biconditional fails with j
        if diff:
            i = (diff & -diff).bit_length() - 1
            if first is None or i < first[0]:
                first = i, j
    if first is None:
        return GaloisReport(True)
    i, j = first
    return GaloisReport(False, "adjunction biconditional fails", (p.elems[i], q.elems[j]))


def rota_transfer_check(p: FinitePoset, q: FinitePoset, f, g) -> GaloisReport:
    """Rota's transfer along a Galois connection, for every pair (x, b) of
    P x Q in one pass: the sum of mu_P(x, y) over the y >= x with f(y) = b
    equals the sum of mu_Q(a, b) over the a <= b with g(a) = x.  f and g
    are applied once per element, and each order's own rows mu(a, .)
    (`FinitePoset.mu`) are read: mu_P(x, y) is added at (x, f(y)) and
    mu_Q(a, b) subtracted at (g(a), b).  The witness is the first failing
    (x, b), least x then least b, and the reason names its two sums."""
    fx = [q.index[f(x)] for x in p.elems]
    gy = [p.index[g(y)] for y in q.elems]
    diff: dict = {}  # (i, j) -> the left sum minus the right sum, where nonzero
    for i in range(len(p.elems)):
        for k, m in p.mu(i).items():
            _accumulate(diff, (i, fx[k]), m)
    for j in range(len(q.elems)):
        for k, m in q.mu(j).items():
            _accumulate(diff, (gy[j], k), -m)
    if not diff:
        return GaloisReport(True)
    i, j = min(diff)
    left = sum(m for k, m in p.mu(i).items() if fx[k] == j)
    return GaloisReport(False, f"transfer sums differ: {left} over f, {left - diff[i, j]} over g",
                        (p.elems[i], q.elems[j]))


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
    `_key` gives the stored key or rejects one from outside the space,
    `_keys_fit` tells whether every key of a dict passes `_key` as it is,
    and `_show` prints a key.

    A dict whose coefficients are all exact ints and whose keys all fit is
    filled in one pass: `dict(terms)` copies it in C with the hashes it
    holds, and any zero entries are then dropped.  Any other dict, and
    every list of pairs, goes term by term through `_coefficient` and
    `_key`, which convert or raise at the first offending term.  A
    subclass whose `_key` rewrites keys passes pairs (`SymFunc`)."""

    __slots__ = ()
    _coefficient = staticmethod(_as_fraction)

    def _fill(self, terms) -> None:
        distinct = isinstance(terms, dict)  # else pairs whose keys may repeat
        if distinct and {*map(type, terms.values())} <= {int} and self._keys_fit(terms):
            self.terms = out = dict(terms)
            if 0 in out.values():
                for key in [k for k, c in out.items() if not c]:
                    del out[key]
            return
        self.terms = out = {}
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

    def _keys_fit(self, terms) -> bool:
        return True

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

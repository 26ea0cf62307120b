"""Orbit quotients of labeled structures (the passage to unlabeled
generating objects) and the symmetric-function bridge: power sums from
Möbius inversion over the partition order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod

from .errors import CarrierOverflow, DEFAULT_BUDGET, EngineError
from .posets import IntPolynomial, _Record, _accumulate, _as_fraction
from .species import Family, _count_upward, _splits, bell
from .symfunc import SymFunc, power_sum_monomial

_MAX_ORBIT_DEGREE = 7


class OrbitClass:
    """Relabeling orbit of a structure, stored as its encoding-minimal
    representative on labels 0..n-1.  Orbit classes compare and hash by
    value: they key the terms of `fock_coproduct`."""

    def __init__(self, family_tag: str, degree: int, rep: object):
        self.family_tag = family_tag
        self.degree = degree
        self.rep = rep

    def _key(self) -> tuple:
        return self.family_tag, self.degree, self.rep

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def encode(self) -> str:
        return self.rep.encode()

    def __repr__(self):
        return f"[{self.encode()}]"


def orbit_canonicalize(fam: Family, x) -> OrbitClass:
    """Minimize the encoding over all relabelings onto 0..n-1."""
    n = len(x.labels)
    if n > _MAX_ORBIT_DEGREE:
        raise CarrierOverflow(
            f"orbit minimization over {n}! relabelings is out of budget")
    elems = sorted(x.labels)
    best = None
    for image in permutations(range(n)):
        candidate = fam.relabel(dict(zip(elems, image)), x)
        if best is None or candidate.encode() < best.encode():
            best = candidate
    return OrbitClass(fam.tag, n, best)


def fock_coproduct(fam: Family, oc: OrbitClass) -> dict:
    """Coproduct in the orbit quotient: sum over all ordered two-block
    splits (trivial ones included) of the canonicalized split images.

    Returns {(OrbitClass, OrbitClass): Fraction}."""
    x = oc.rep
    out: dict = {}
    for S, T in _splits(x.labels):
        a, b = fam.comult(x, S, T)
        key = (orbit_canonicalize(fam, a), orbit_canonicalize(fam, b))
        out[key] = out.get(key, Fraction(0)) + 1
    return out


def fock_primitive_check(fam: Family, vector: dict) -> bool:
    """True when the reduced coproduct (both trivial splits dropped) of a
    homogeneous orbit combination vanishes."""
    degrees = {oc.degree for oc in vector}
    if len(degrees) > 1:
        raise EngineError("primitive check needs a homogeneous combination")
    total: dict = {}
    for oc, c in vector.items():
        c = _as_fraction(c)
        for (a, b), k in fock_coproduct(fam, oc).items():
            if a.degree and b.degree:
                _accumulate(total, (a, b), c * k)
    return not total


def integer_partition_of(partition_structure) -> tuple:
    """Block-size shape of a set partition, sorted descending."""
    sizes = map(int.bit_count, partition_structure.block_masks())
    return tuple(sorted(sizes, reverse=True))


def symfunc_bridge(lam) -> SymFunc:
    """Image of the orbit basis element indexed by an integer partition:
    the product of (part! * h_part) over the parts.

    The part! scaling is the unique one under which the map also respects
    coproducts; the inverse scaling h_part / part! fails that check in
    degree 2 (see the bridge tests)."""
    lam = tuple(sorted((int(v) for v in lam), reverse=True))
    return SymFunc("h", {lam: prod(map(factorial, lam))})


def _check_partition_order_budget(n: int, budget: int) -> None:
    """Raise CarrierOverflow when the comparable pairs of the partition
    order on n labels, sum over k of S(n, k) Bell(k) (OEIS A000258), exceed
    the budget.  They obey a(m) = sum over k < m of C(m-1, k) Bell(k+1)
    a(m-1-k), counted as in `_count_upward`, before any order is built."""
    pairs = _count_upward(n, lambda a, m: sum(
        comb(m - 1, k) * bell(k + 1) * a[m - 1 - k] for k in range(m)), budget)
    if pairs > budget:
        raise CarrierOverflow(f"comparable pairs of the partition order on {n} "
                              f"labels exceed budget {budget}")


def _partition_rows(n: int, budget: int) -> list:
    """(block sizes largest first, mu(bottom, tau), mu(tau, top)) for the
    partitions tau of range(n) in carrier order, bottom the one block and
    top the singletons: one Möbius row of the partition order and one of
    its opposite (`reverse()`), where mu(tau, top) is mu(top, tau)."""
    from .families import PARTITIONS
    if n < 1:
        raise EngineError("degree must be positive")
    _check_partition_order_budget(n, budget)
    labels = frozenset(range(n))
    view = PARTITIONS.poset(labels, budget)
    shapes = [integer_partition_of(tau) for tau in view.elems]
    lower = view.mu(shapes.index((n,)))
    upper = view.reverse().mu(shapes.index((1,) * n))
    return [(lam, lower[k], upper[k]) for k, lam in enumerate(shapes)]


class PowerSumReport(_Record):
    def __init__(self, n: int, image_h: SymFunc, image_monomial: SymFunc,
                 proportional: bool, scalar: Fraction | None,
                 printed_expression_status: str, printed_expression: SymFunc):
        self.n = n
        self.image_h = image_h
        self.image_monomial = image_monomial
        self.proportional = proportional
        self.scalar = scalar
        # "exact" | "proportional" | "neither"
        self.printed_expression_status = printed_expression_status
        self.printed_expression = printed_expression

    def lines(self) -> list[str]:
        out = [f"power-sum recovery at degree {self.n}:"]
        if self.proportional:
            out.append(f"  image is {self.scalar} * p_{self.n}")
        else:
            out.append("  image is NOT proportional to the power sum")
        out.append(f"  unscaled printed expression: {self.printed_expression_status}")
        return out


def power_sum_identity_check(n: int, budget: int = DEFAULT_BUDGET) -> PowerSumReport:
    """Push the inverted basis element of the full-block partition through
    the orbit quotient and the h-basis bridge, then compare its monomial
    expansion with the power sum p_n.

    Also evaluates the same Möbius sum without the factorial scaling,
    divided by the Möbius value of the full interval, and classifies it
    against p_n (exact / proportional / neither)."""
    rows = _partition_rows(n, budget)
    # the sum of mu(bottom, tau) over the taus of each block shape
    weight = SymFunc("h", [(lam, lower) for lam, lower, _ in rows])
    image = SymFunc("h", {lam: w * prod(map(factorial, lam))
                          for lam, w in weight.terms.items()})
    printed = weight * Fraction(1, next(lower for lam, lower, _ in rows if len(lam) == n))

    image_m = image.to_monomial()
    target = power_sum_monomial(n)
    proportional = set(image_m.terms) == {(n,)}
    scalar = image_m.terms.get((n,)) if proportional else None

    printed_m = printed.to_monomial()
    if printed_m == target:
        status = "exact"
    elif set(printed_m.terms) == {(n,)}:
        status = "proportional"
    else:
        status = "neither"
    return PowerSumReport(n, image, image_m, proportional, scalar, status, printed)


_EXPONENTS = {
    "blocks": lambda ell, n: ell,
    "blocks-1": lambda ell, n: ell - 1,
    "n-blocks": lambda ell, n: n - ell,
}


class CharPolyReport(_Record):
    def __init__(self, n: int, polynomials: dict, falling: IntPolynomial,
                 matches: list, value_at_minus_one_ok: bool):
        self.n = n
        # (side, exponent_name) -> IntPolynomial
        self.polynomials = polynomials
        self.falling = falling
        # the conventions whose polynomial equals the falling factorial
        self.matches = matches
        self.value_at_minus_one_ok = value_at_minus_one_ok

    @property
    def ok(self) -> bool:
        return bool(self.matches) and self.value_at_minus_one_ok

    def lines(self) -> list[str]:
        out = [f"partition characteristic polynomial at n={self.n}:"]
        out.append(f"  target t(t-1)...(t-{self.n - 1}): {self.falling.to_json()}")
        for conv, poly in sorted(self.polynomials.items()):
            mark = "match" if conv in self.matches else "differs"
            out.append(f"  {conv[0]:<5} mu, exponent {conv[1]:<8}: {mark}")
        val = "ok" if self.value_at_minus_one_ok else "WRONG"
        out.append(f"  value (-1)^n n! at t=-1 under matching convention: {val}")
        return out


def partition_char_poly_check(n: int, budget: int = DEFAULT_BUDGET) -> CharPolyReport:
    """Compare the Möbius-weighted block-count generating polynomials of
    the full partition interval, for lower and upper Möbius weights and
    three exponent conventions, against t(t-1)...(t-n+1); the value at
    t=-1 must be (-1)^n n! under any matching convention."""
    rows = _partition_rows(n, budget)
    polys = {(side, name): IntPolynomial((expo(len(row[0]), n), row[column]) for row in rows)
             for column, side in enumerate(("lower", "upper"), 1)
             for name, expo in _EXPONENTS.items()}

    falling = IntPolynomial.falling_factorial(n)
    matches = [conv for conv, poly in polys.items() if poly == falling]
    expected = (-1) ** n * factorial(n)
    value_ok = bool(matches) and all(
        polys[conv].evaluate(-1) == expected for conv in matches)
    return CharPolyReport(n, polys, falling, matches, value_ok)

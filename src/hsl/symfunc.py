"""Exact symmetric-function expressions in three bases (complete
homogeneous h, power sum p, monomial m) with conversion to the monomial
basis, in which all equality checks across bases are made.

The monomial expansion sums over every partition mu of the degree: it
is the expansion in infinitely many variables, faithful at every degree
(Stanley, Enumerative Combinatorics 2, Prop. 7.5.1).  Each coefficient of
h_lambda or p_lambda in it is an integer count (`monomial_count`), so no
polynomial is ever multiplied out.  Multiplication is supported in the h
and p bases (where products just merge index partitions).
"""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import EngineError
from .posets import _accumulate, _Combination


def _as_partition(lam) -> tuple:
    lam = tuple(sorted((int(v) for v in lam), reverse=True))
    if any(v <= 0 for v in lam):
        raise EngineError(f"partition parts must be positive, got {lam}")
    return lam


def partition_key(lam: tuple) -> str:
    return "+".join(map(str, lam))


def parse_partition_key(text: str) -> tuple:
    if text == "":
        return ()
    return _as_partition(text.split("+"))


class SymFunc(_Combination):
    """Exact-rational combination of basis elements indexed by integer
    partitions; basis is one of "h", "p", "m".  A key is normalized to a
    descending partition, and keys that normalize alike add up."""

    __slots__ = ("basis", "terms")
    _mismatch = "cannot add across bases; expand to monomials first"
    _key = staticmethod(_as_partition)

    def __init__(self, basis: str, terms=()):
        if basis not in ("h", "p", "m"):
            raise EngineError(f"unknown basis {basis!r}")
        self.basis = basis
        self._fill(terms.items() if isinstance(terms, dict) else terms)

    @property
    def _ambient(self) -> tuple:
        return (self.basis,)

    def _show(self, lam) -> str:
        return f"{self.basis}[{partition_key(lam)}]"

    @property
    def degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def __mul__(self, other):
        """The product in the h or p basis, or a scalar multiple."""
        if not isinstance(other, SymFunc):
            return super().__mul__(other)
        if self.basis != other.basis or self.basis == "m":
            raise EngineError("products are supported in the h and p bases")
        return SymFunc(self.basis, [(lam + mu, c * d)
                                    for lam, c in self.terms.items()
                                    for mu, d in other.terms.items()])

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis == other.basis:
            return self.terms == other.terms
        return self.to_monomial().terms == other.to_monomial().terms

    def to_monomial(self) -> "SymFunc":
        """The expansion in the monomial basis, in infinitely many
        variables."""
        if self.basis == "m":
            return self
        return SymFunc("m", [(mu, c * monomial_count(self.basis, lam, mu))
                             for lam, c in self.terms.items()
                             for mu in _partitions(sum(lam))])

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.degree,
            "terms": {partition_key(lam): str(c) for lam, c in self.items()},
        }

    @classmethod
    def from_json(cls, data) -> "SymFunc":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(data["basis"],
                   [(parse_partition_key(k), v) for k, v in data["terms"].items()])


def _partitions(n: int, largest: int | None = None):
    """The partitions of n with parts at most `largest`, descending."""
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest
    if n == 0:
        yield ()


def _fillings(basis: str, row: int, cols: tuple) -> list:
    """The column capacities left after placing one row of sum `row`: in
    the h basis spread over the columns in every way, in the p basis
    whole into one column."""
    if basis == "p":
        return [cols[:j] + (c - row,) + cols[j + 1:]
                for j, c in enumerate(cols) if c >= row]
    if not cols:
        return [()] if row == 0 else []
    return [(cols[0] - take,) + rest for take in range(min(row, cols[0]) + 1)
            for rest in _fillings(basis, row - take, cols[1:])]


@lru_cache(maxsize=4096)
def monomial_count(basis: str, rows: tuple, cols: tuple) -> int:
    """Coefficient of m_cols in h_rows or p_rows.

    In the h basis it is the number of nonnegative integer matrices with
    row sums `rows` and column sums `cols`; in the p basis the number of
    ways to put each part of `rows` whole into a column so that the
    columns sum to `cols` (Stanley, Enumerative Combinatorics 2, Props.
    7.5.1 and 7.7.1).  Both counts are symmetric in the columns, so the
    capacities left are kept sorted, and the cache holds the pairs of
    partitions of equal size up to degree 8, the largest `hsl fock`
    answers at the default budget (919 per basis), with room."""
    if not rows:
        return int(not cols)
    total = 0
    for left in _fillings(basis, rows[0], cols):
        rest = tuple(sorted((c for c in left if c), reverse=True))
        total += monomial_count(basis, rows[1:], rest)
    return total


def h(k: int) -> SymFunc:
    return SymFunc("h", {(k,): 1}) if k else SymFunc("h", {(): 1})


def power_sum_monomial(n: int) -> SymFunc:
    """p_n expanded in the monomial basis: exactly m_(n)."""
    return SymFunc("m", {(n,): 1})


@lru_cache(maxsize=32)
def newton_p_in_h(n: int) -> SymFunc:
    """p_n written in the h basis through the Newton recurrence
    n*h_n = sum over i of p_i * h_{n-i}."""
    if n < 1:
        raise EngineError("power sums are indexed by positive integers")
    total = SymFunc("h", {(n,): n})
    for i in range(1, n):
        total = total - newton_p_in_h(i) * h(n - i)
    return total


def h_coproduct(sf: SymFunc) -> dict:
    """Coproduct of an h-basis element, extended multiplicatively:
    each h_k splits as the sum of h_i (x) h_{k-i}.

    Returns {(left_partition, right_partition): coefficient}."""
    if sf.basis != "h":
        raise EngineError("coproduct implemented on the h basis")
    out: dict = {}
    for lam, c in sf.terms.items():
        pieces = [((), ())]
        for part in lam:
            grown = []
            for left, right in pieces:
                for i in range(part + 1):
                    new_left = left + (i,) if i else left
                    new_right = right + (part - i,) if part - i else right
                    grown.append((new_left, new_right))
            pieces = grown
        for left, right in pieces:
            _accumulate(out, (_as_partition(left), _as_partition(right)), c)
    return out

"""Structure families with relabeling, merge and split, their native
orders, set-partition enumeration and counts, and the split-then-merge
`reassemble` that the antipode sums over.

Label sets are finite sets of small nonnegative integers, and subsets
sweep in bitmask order over the sorted labels.  A set partition of n
labels is a tuple of block bitmasks over their positions (`_partitions`),
the one enumeration of set partitions in the engine; an ordered set
partition is one of them with an order of its blocks.  Sweeps are in a
fixed order, so reports and sums are reproducible run to run, and
`bell`/`fubini` count them, so budgets are checked before anything is
enumerated.  The exhaustive axiom sweep over these maps is `hsl.axioms`.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, reduce
from math import comb

from .errors import (DEFAULT_BUDGET, CarrierOverflow, EngineError,
                     LabelMismatch, LabelOverlap)
from .posets import FinitePoset, _containment_upsets


def check_label_set(labels) -> frozenset[int]:
    labels = frozenset(labels)
    for v in labels:
        if not isinstance(v, int) or v < 0:
            raise LabelMismatch(f"labels must be nonnegative integers, got {v!r}")
    return labels


def subsets(labels) -> tuple[frozenset[int], ...]:
    """All subsets (including empty) in bitmask order over sorted labels."""
    out = [frozenset()]
    for v in sorted(labels):
        out += [s | {v} for s in out]
    return tuple(out)


@lru_cache(maxsize=16)
def _partitions(n: int) -> tuple:
    """The set partitions of the positions 0..n-1, each a tuple of block
    bitmasks ordered by lowest bit; the one-block partition comes first,
    and each partition before every one that strictly refines it: the
    block of the lowest position takes the other positions `extra` in
    descending bitmask order, a proper subset being a smaller int, and
    partitions with that block in common follow the order of the rest."""
    def of(m: int) -> list:
        if not m:
            return [()]
        low = m & -m
        rest = extra = m ^ low
        out = []
        while True:
            out.extend((low | extra,) + tail for tail in of(rest ^ extra))
            if not extra:
                return out
            extra = (extra - 1) & rest
    return tuple(of((1 << n) - 1))


def _count_upward(n: int, step, cap: int | None) -> int:
    """Run a counting recurrence a(0) = 1, a(m) = step(a, m) upward to m = n.

    The counts here never decrease in m, so with `cap` the run stops at the
    first a(m) above it and returns that: a result above `cap` then says
    only that a(n) exceeds it too.  A budget check costs a few terms that
    way, however large n is."""
    a = [1]
    for m in range(1, n + 1):
        a.append(step(a, m))
        if cap is not None and a[m] > cap:
            break
    return a[-1]


# One entry per (n, cap): the budget checks of one pass ask for a few sizes.
@lru_cache(maxsize=64)
def fubini(n: int, cap: int | None = None) -> int:
    """Count of ordered set partitions of an n-set (capped as in
    `_count_upward`)."""
    return _count_upward(
        n, lambda a, m: sum(comb(m, k) * a[m - k] for k in range(1, m + 1)), cap)


@lru_cache(maxsize=64)
def bell(n: int, cap: int | None = None) -> int:
    """Count of unordered set partitions of an n-set (capped as in
    `_count_upward`)."""
    return _count_upward(
        n, lambda a, m: sum(comb(m - 1, k) * a[k] for k in range(m)), cap)


def check_subset_budget(n: int, budget: int) -> None:
    """Raise CarrierOverflow when the 2^n subsets of an n-set exceed the
    budget, before anything is enumerated (and without computing 2^n)."""
    if n >= budget.bit_length():
        raise CarrierOverflow(f"subsets of {n} labels exceed budget {budget}")


def check_set_partition_budget(n: int, budget: int, ordered: bool = False) -> None:
    """Raise CarrierOverflow when Bell(n), or Fubini(n) for the ordered set
    partitions, exceeds the budget, before anything is enumerated."""
    if (fubini if ordered else bell)(n, cap=budget) > budget:
        raise CarrierOverflow(f"{'ordered ' * ordered}set partitions of {n} "
                              f"labels exceed budget {budget}")


class Family:
    """A structure family: enumeration, relabeling, merge and split maps,
    an optional free product, and an optional native order.

    count_fn(n, cap) counts the carrier on n labels, or stops at a count
    above cap as `bell(n, cap)` does.  The native order is containment of
    key bits: x <= y iff order_key(x) has no bit outside order_key(y).  A
    family compares and hashes by identity: it keys the cache of compiled
    native orders."""

    def __init__(self, tag: str,
                 count_fn: Callable[[int, int], int] | None,
                 enumerate_fn: Callable[[frozenset, int], tuple],
                 unit: object,
                 relabel_fn: Callable[[dict, object], object],
                 mult_fn: Callable[[object, object], object],
                 comult_fn: Callable[[object, frozenset, frozenset], tuple],
                 box_fn: Callable[[object, object], object] | None = None,
                 order_key: Callable[[object], int] | None = None,
                 adjunction_kinds: tuple[str, ...] = ()):
        self.tag = tag
        self.count_fn = count_fn
        self.enumerate_fn = enumerate_fn
        self.unit = unit
        self.relabel_fn = relabel_fn
        self.mult_fn = mult_fn
        self.comult_fn = comult_fn
        self.box_fn = box_fn
        self.order_key = order_key
        self.adjunction_kinds = adjunction_kinds

    def enumerate(self, labels, budget: int = DEFAULT_BUDGET) -> tuple:
        labels = check_label_set(labels)
        if self.count_fn is not None and self.count_fn(len(labels), budget) > budget:
            raise CarrierOverflow(f"{self.tag} carrier on {len(labels)} labels "
                                  f"has more than {budget} elements")
        return self.enumerate_fn(labels, budget)

    def mult(self, x, y):
        if not x.labels.isdisjoint(y.labels):
            raise LabelOverlap(f"label sets overlap: {sorted(x.labels & y.labels)}")
        return self.mult_fn(x, y)

    def comult(self, x, S, T):
        S, T = frozenset(S), frozenset(T)
        if not S.isdisjoint(T) or (S | T) != x.labels:
            raise LabelMismatch("split does not partition the structure's labels")
        return self.comult_fn(x, S, T)

    def box(self, x, y):
        if self.box_fn is None:
            raise EngineError(f"family {self.tag} has no free product")
        if not x.labels.isdisjoint(y.labels):
            raise LabelOverlap(f"label sets overlap: {sorted(x.labels & y.labels)}")
        return self.box_fn(x, y)

    def relabel(self, mapping: dict, x):
        if set(mapping) != set(x.labels):
            raise LabelMismatch("relabeling domain must equal the label set")
        if len(set(mapping.values())) != len(mapping):
            raise LabelMismatch("relabeling must be a bijection")
        return self.relabel_fn(mapping, x)

    def leq(self, x, y) -> bool:
        """x <= y in the native order."""
        return not self.order_key(x) & ~self.order_key(y)

    def poset(self, labels, budget: int = DEFAULT_BUDGET) -> FinitePoset:
        """The native order on the carrier over `labels`; its `reverse()`
        is the opposite order, kept on it."""
        if self.order_key is None:
            raise EngineError(f"family {self.tag} has no native order")
        return _native_poset(self, check_label_set(labels), budget)


@lru_cache(maxsize=256)
def _native_poset(fam: Family, labels: frozenset, budget: int) -> FinitePoset:
    """One compiled native order per (family, labels, budget), which keeps
    its own opposite.  The bound is far above the orders one CLI command
    builds (one per subset of its labels)."""
    elems = fam.enumerate(labels, budget)
    keys = [fam.order_key(x) for x in elems]
    top = reduce(int.__or__, keys, 0)  # y <= x iff top ^ key(x) has no bit outside top ^ key(y)
    down = _containment_upsets([top ^ key for key in keys])
    return FinitePoset(elems, _containment_upsets(keys), down, fam.tag)


def reassemble(fam: Family, partition, x):
    """Split x along the blocks and merge the pieces back: split each block
    but the last off what is left of x, in order, the remainder being the
    last piece, then fold the merge over the pieces from the unit."""
    blocks = tuple(partition)
    pieces, rest, remaining = [], x, x.labels
    for block in map(frozenset, blocks[:-1]):
        remaining = remaining - block
        head, rest = fam.comult(rest, block, remaining)
        pieces.append(head)
    if blocks:
        pieces.append(rest)
    return reduce(fam.mult, pieces, fam.unit)


def _splits(labels):
    """Ordered pairs (S, T) with S ∪ T = labels, disjoint (empty allowed)."""
    for S in subsets(labels):
        yield S, labels - S


class _Memo(dict):
    """A dict that fills a missing key k with fn(k)."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value

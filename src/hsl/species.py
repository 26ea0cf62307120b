"""Structure families with relabeling, set-partition enumeration and
counts, and exhaustive monoid/comonoid/Hopf axiom checkers.

Label sets are finite sets of small nonnegative integers, and subsets
sweep in bitmask order over the sorted labels.  A set partition of n
labels is a tuple of block bitmasks over their positions (`_partitions`),
the one enumeration of set partitions in the engine; an ordered set
partition is one of them with an order of its blocks.  Sweeps are in a
fixed order, so reports and sums are reproducible run to run, and
`bell`/`fubini` count them, so budgets are checked before anything is
enumerated.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, reduce
from itertools import permutations
from math import comb, factorial

from .errors import (DEFAULT_BUDGET, CarrierOverflow, EngineError,
                     LabelMismatch, LabelOverlap)
from .posets import FinitePoset, _containment_upsets, _Record


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


class AxiomResult(_Record):
    def __init__(self, name: str, passed: bool, witness: str | None = None):
        self.name = name
        self.passed = passed
        self.witness = witness


class AxiomReport(_Record):
    def __init__(self, family: str, n: int):
        self.family = family
        self.n = n
        self.results: list[AxiomResult] = []

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def lines(self) -> list[str]:
        out = [f"axioms for {self.family} up to n={self.n}:"]
        for r in self.results:
            mark = "pass" if r.passed else "FAIL"
            line = f"  {r.name:<24} {mark}"
            if r.witness:
                line += f"  [{r.witness}]"
            out.append(line)
        return out


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


class _Carriers(dict):
    """The value table of one `verify_axioms` call: the carriers on 0..k-1
    by k up to n, plus `sub` for any label set, under one budget.

    Every structure the sweep meets has an int position (`pos`; `elems`
    maps back): the carriers on 0..k-1 first, then each new structure
    (another carrier's element, a relabelling onto shifted labels, a
    faulty map's value) at the next free one.  Equal structures share a
    position, so the checks compare positions.  `product`, `split` and
    `relabelling` memoize the family's public maps, with their checks, on
    positions, and `key` the order key: each value is computed once per
    table.  `splits` lists the splits (k, S, T) of 0..k-1 for k <= n, k
    ascending, then S in bitmask order."""

    def __init__(self, fam: Family, n: int, budget: int):
        self.fam, self.budget, self.elems = fam, budget, []
        self.pos = _Memo(lambda x: self.elems.append(x) or len(self.elems) - 1)
        self.product = _Memo(lambda ij: self.pos[
            fam.mult(self.elems[ij[0]], self.elems[ij[1]])])
        # sub[S]: the positions of the carrier on the label set S
        self.sub = _Memo(lambda S: tuple(self.pos[x] for x in fam.enumerate(S, budget)))
        self.key = _Memo(lambda i: fam.order_key(self.elems[i]))
        self._maps: dict = {}
        super().__init__((k, self.sub[frozenset(range(k))]) for k in range(n + 1))
        _check_relabel_budget(self)  # before the 2^k splits of each k are listed
        self.splits = [(k, S, T) for k in self for S, T in _splits(frozenset(range(k)))]

    def name(self, i: int) -> str:
        return self.elems[i].encode()

    def split(self, S, T) -> _Memo:
        """Positions to the positions of fam.comult(., S, T)."""
        S, T = frozenset(S), frozenset(T)
        return self._map(("split", S, T), lambda x: tuple(
            self.pos[y] for y in self.fam.comult(x, S, T)))

    def relabelling(self, f: dict) -> _Memo:
        """Positions to the position of fam.relabel(f, .), keyed by f's
        domain and images, so equal restrictions of two maps share values."""
        return self._map(tuple(sorted(f.items())),
                         lambda x: self.pos[self.fam.relabel(f, x)])

    def _map(self, key, value) -> _Memo:
        if key not in self._maps:
            self._maps[key] = _Memo(lambda i: value(self.elems[i]))
        return self._maps[key]


def verify_axioms(fam: Family, n: int, budget: int = DEFAULT_BUDGET) -> AxiomReport:
    """Exhaustively check the monoid/comonoid/Hopf axioms on carriers of
    size up to n, plus (co)commutativity and, when the family carries a
    native order, order-preservation of the structure maps.  The checks
    of `_CHECKS` compare positions in one value table (`_Carriers`)."""
    report = AxiomReport(fam.tag, n)
    carriers = _Carriers(fam, n, budget)
    checks = _CHECKS if fam.order_key is not None else _CHECKS[:-2]
    for name, check in checks:
        witness = check(carriers)
        report.results.append(AxiomResult(name, witness is None, witness))
    return report


def _check_relabel_functorial(carriers):
    for k, carrier in carriers.items():
        labels = sorted(range(k))
        for f_img in permutations(labels):
            f = dict(zip(labels, f_img))
            rf = carriers.relabelling(f)
            for g_img in permutations(labels):
                g = dict(zip(labels, g_img))
                rg = carriers.relabelling(g)
                rgf = carriers.relabelling({i: g[f[i]] for i in labels})
                for x in carrier:
                    if rgf[x] != rg[rf[x]]:
                        return f"composition fails on {carriers.name(x)}"
            ident = carriers.relabelling({i: i for i in labels})
            for x in carrier:
                if ident[x] != x:
                    return f"identity fails on {carriers.name(x)}"
        if k >= 3:
            break
    return None


def _bijections(labels):
    """Permutations of the label set plus one shifted target set."""
    elems = sorted(labels)
    for img in permutations(elems):
        yield dict(zip(elems, img))
    if elems:
        shift = max(elems) + 1
        yield {i: i + shift for i in elems}


def _check_relabel_budget(carriers) -> None:
    """Raise CarrierOverflow when either naturality sweep would check more
    relabelled cases than the budget, counted from the carrier sizes
    before any relabel runs.  Carrier size k has k! + 1 bijections (one
    for k = 0).  The merge sweep checks each on every pair of C(S) x C(T)
    over the 2^k subsets S; the split sweep on every structure of C(k),
    once per subset."""
    sizes = [len(carriers[k]) for k in carriers]
    for name, cases in (
            ("merge", lambda k: sum(comb(k, j) * sizes[j] * sizes[k - j]
                                    for j in range(k + 1))),
            ("split", lambda k: 2 ** k * sizes[k])):
        count = sum((factorial(k) + (k > 0)) * cases(k) for k in carriers)
        if count > carriers.budget:
            raise CarrierOverflow(f"{name} naturality sweep checks {count} "
                                  f"relabelled cases (budget {carriers.budget})")


def _check_naturality_mult(carriers):
    product = carriers.product
    for _, S, T in carriers.splits:
        xs = carriers.sub[S]
        ys = carriers.sub[T]
        for f in _bijections(S | T):
            rf = carriers.relabelling(f)
            rS = carriers.relabelling({i: f[i] for i in S})
            rT = carriers.relabelling({i: f[i] for i in T})
            for x in xs:
                for y in ys:
                    if rf[product[x, y]] != product[rS[x], rT[y]]:
                        return (f"m not natural: x={carriers.name(x)} "
                                f"y={carriers.name(y)} f={f}")
    return None


def _check_naturality_comult(carriers):
    # factor order follows the merge diagram: sigma(S) with x|S
    for k, S, T in carriers.splits:
        split = carriers.split(S, T)
        for f in _bijections(S | T):
            fS = {i: f[i] for i in S}
            fT = {i: f[i] for i in T}
            rf, rS, rT = map(carriers.relabelling, (f, fS, fT))
            split_f = carriers.split(fS.values(), fT.values())
            for x in carriers[k]:
                x1, x2 = split[x]
                if split_f[rf[x]] != (rS[x1], rT[x2]):
                    return f"delta not natural: x={carriers.name(x)} f={f}"
    return None


def _check_unitality(carriers):
    product, unit = carriers.product, carriers.pos[carriers.fam.unit]
    for carrier in carriers.values():
        for x in carrier:
            if product[unit, x] != x or product[x, unit] != x:
                return f"unit fails on {carriers.name(x)}"
    return None


def _check_counitality(carriers):
    unit, empty = carriers.pos[carriers.fam.unit], frozenset()
    for carrier in carriers.values():
        for x in carrier:
            labels = carriers.elems[x].labels
            if carriers.split(labels, empty)[x] != (x, unit):
                return f"counit (I, empty) fails on {carriers.name(x)}"
            if carriers.split(empty, labels)[x] != (unit, x):
                return f"counit (empty, I) fails on {carriers.name(x)}"
    return None


def _check_associativity(carriers):
    product, name = carriers.product, carriers.name
    for _, S, rest in carriers.splits:
        for T, R in _splits(rest):
            for x in carriers.sub[S]:
                for y in carriers.sub[T]:
                    for z in carriers.sub[R]:
                        if product[product[x, y], z] != product[x, product[y, z]]:
                            return f"assoc fails: {name(x)},{name(y)},{name(z)}"
    return None


def _check_coassociativity(carriers):
    for k, S, rest in carriers.splits:
        for T, R in _splits(rest):
            left, right = carriers.split(S, rest), carriers.split(T, R)
            outer, inner = carriers.split(S | T, R), carriers.split(S, T)
            for x in carriers[k]:
                xs, xr1 = left[x]
                xt, xr = right[xr1]
                x_st, xr2 = outer[x]
                xs2, xt2 = inner[x_st]
                if (xs, xt, xr) != (xs2, xt2, xr2):
                    return (f"coassoc fails on {carriers.name(x)} "
                            f"split {sorted(S)}|{sorted(T)}|{sorted(R)}")
    return None


def _check_compatibility(carriers):
    product = carriers.product
    for _, S1, S2 in carriers.splits:
        xs = carriers.sub[S1]
        ys = carriers.sub[S2]
        for T1, T2 in _splits(S1 | S2):
            split = carriers.split(T1, T2)
            split_x = carriers.split(S1 & T1, S1 & T2)
            split_y = carriers.split(S2 & T1, S2 & T2)
            for x in xs:
                for y in ys:
                    (xa, xb), (yc, yd) = split_x[x], split_y[y]
                    if split[product[x, y]] != (product[xa, yc], product[xb, yd]):
                        return (f"compatibility fails: x={carriers.name(x)} "
                                f"y={carriers.name(y)} T1={sorted(T1)}")
    return None


def _check_commutativity(carriers):
    product = carriers.product
    for _, S, T in carriers.splits:
        for x in carriers.sub[S]:
            for y in carriers.sub[T]:
                if product[x, y] != product[y, x]:
                    return (f"m not commutative on {carriers.name(x)}, "
                            f"{carriers.name(y)}")
    return None


def _check_cocommutativity(carriers):
    for k, S, T in carriers.splits:
        split_ST, split_TS = carriers.split(S, T), carriers.split(T, S)
        for x in carriers[k]:
            if split_ST[x] != split_TS[x][::-1]:
                return f"delta not cocommutative on {carriers.name(x)}"
    return None


def _check_order_mult(carriers):
    key = carriers.key
    for _, S, T in carriers.splits:
        xs = carriers.sub[S]
        ys = carriers.sub[T]
        xkeys = [key[x] for x in xs]
        ykeys = [key[y] for y in ys]
        prods = [[key[carriers.product[x, y]] for y in ys] for x in xs]
        for x1, k1, p1 in zip(xs, xkeys, prods):
            for k2, p2 in zip(xkeys, prods):
                if k1 & ~k2:
                    continue
                for l1, q1 in zip(ykeys, p1):
                    for l2, q2 in zip(ykeys, p2):
                        if not l1 & ~l2 and q1 & ~q2:
                            return f"m not order-preserving at {carriers.name(x1)}"
    return None


def _check_order_comult(carriers):
    key = carriers.key
    for k, S, T in carriers.splits:
        carrier = carriers[k]
        keys = [key[x] for x in carrier]
        split = carriers.split(S, T)
        splits = [(key[a], key[b]) for a, b in map(split.__getitem__, carrier)]
        for x, kx, (xa, xb) in zip(carrier, keys, splits):
            for ky, (ya, yb) in zip(keys, splits):
                if not kx & ~ky and (xa & ~ya or xb & ~yb):
                    return f"delta not order-preserving at {carriers.name(x)}"
    return None


# (name, check) in report order, the two order checks last
_CHECKS = (("relabel_functorial", _check_relabel_functorial),
           ("naturality_mult", _check_naturality_mult),
           ("naturality_comult", _check_naturality_comult),
           ("unitality", _check_unitality),
           ("counitality", _check_counitality),
           ("associativity", _check_associativity),
           ("coassociativity", _check_coassociativity),
           ("compatibility", _check_compatibility),
           ("commutativity", _check_commutativity),
           ("cocommutativity", _check_cocommutativity),
           ("order_preservation_mult", _check_order_mult),
           ("order_preservation_comult", _check_order_comult))

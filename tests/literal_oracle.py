"""The literal split-merge routes, kept as the oracle for the restriction
table (`hsl.antipode._restrictions`), which gives every reassembly up-set
and every grading in `hsl`.

- `compose_comult`/`compose_mult` split a structure along an ordered set
  partition and merge the pieces back, checking labels at each step;
  `reassemble` is the one after the other.
- `reassembly_upset` reassembles x along every set partition of its
  labels; `literal_poset` compiles the reassembly order from it.
- `materialized_walk` compiles the down-sets of x's images all at once
  (`down_sets`) and folds mu(x, .) and both closed-form rows together,
  where `hsl.antipode` streams the down-sets and folds the rows read.
- `factorize` finds the indecomposable factors by two recursive
  bipartition sweeps that must agree; `grading` counts them.
- `graded_char_poly`/`graded_char_eval` are the Möbius-weighted rank
  polynomials of an interval, one interval at a time.
- `transpose` makes down-sets from up-sets, one bit step per comparable
  pair, where every builder of a `hsl.posets.FinitePoset` passes both
  arrays from what it already holds.
- `rota_transfer_pair` sums both sides of Rota's transfer for one pair
  (x, b), one `mobius` per term and one `leq` test per element of Q,
  where `hsl.posets.rota_transfer_check` checks every pair of a split in
  one pass over the compiled Möbius rows.
- `zeta_pairing` extends zeta(a, b) = [a <= b] bilinearly, one `leq` per
  pair of terms, where criterion 14 reads the Kronecker duality
  <omega_x, y> as the sum of the compiled row mu(x, .) over
  up(x) & down(y).

`_bits`, the generator of set-bit positions, is the oracle for the bit
kernel `hsl.posets._positions`; the oracles in `tests/` decode ints with
it, so none of them reads the kernel it checks.

It also keeps the sweep of all 2^|E| orientations of a graph, each tested
for a cycle by peeling sinks, as the oracle for the cut search of
`hsl.families.acyclic_orientations_brute`, and `delta_after_mult`, the
loop over every product that compatibility, unitality and counitality in
`hsl.species.verify_axioms` decide between them.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from hsl.antipode import _reassembly_images, require_self_adjoint
from hsl.errors import (DEFAULT_BUDGET, CarrierOverflow, LabelMismatch,
                        NonUniqueFactorization)
from hsl.families import _mask, _pair_of
from hsl.posets import (FinitePoset, IntPolynomial, _containment_upsets,
                        interval, mobius)
from hsl.species import _splits, check_set_partition_budget

from partition_oracle import set_partitions


def _bits(m: int):
    """Positions of the set bits of m, lowest first, one int step per set
    bit: the generator that `hsl.posets._positions` replaced, kept as its
    oracle and as the decoder of the oracles here."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


# ---------------------------------------------------------------------------
# split-then-merge along an ordered set partition


def compose_mult(fam, parts_partition, parts) -> object:
    """Left fold of the binary merge over an ordered set partition."""
    blocks = tuple(parts_partition)
    parts = tuple(parts)
    if len(blocks) != len(parts):
        raise LabelMismatch("need one part per block")
    for block, part in zip(blocks, parts):
        if part.labels != frozenset(block):
            raise LabelMismatch(
                f"part on {sorted(part.labels)} does not match block {sorted(block)}")
    out = fam.unit
    for part in parts:
        out = fam.mult(out, part)
    return out


def compose_comult(fam, parts_partition, x) -> tuple:
    """Iterated binary split of x along an ordered set partition."""
    blocks = tuple(frozenset(b) for b in parts_partition)
    ambient: frozenset = frozenset()
    for b in blocks:
        ambient |= b
    if ambient != x.labels:
        raise LabelMismatch("partition does not cover the structure's labels")
    out = []
    rest = x
    remaining = x.labels
    for block in blocks[:-1]:
        head, rest = fam.comult(rest, block, remaining - block)
        remaining = remaining - block
        out.append(head)
    if blocks:
        out.append(rest)
    return tuple(out)


def reassemble(fam, partition, x):
    """Split x along the blocks and merge the pieces back."""
    blocks = tuple(partition)
    return compose_mult(fam, blocks, compose_comult(fam, blocks, x))


# ---------------------------------------------------------------------------
# the reassembly order


def reassembly_upset(fam, x, budget: int = DEFAULT_BUDGET) -> tuple:
    """All images of x under split-then-merge along a set partition,
    deduplicated; always contains x via the trivial partition."""
    check_set_partition_budget(len(x.labels), budget)
    seen = {}
    for blocks in set_partitions(x.labels):
        y = reassemble(fam, blocks, x)
        seen.setdefault(y.encode(), y)
    return tuple(seen[k] for k in sorted(seen))


def literal_poset(fam, labels) -> FinitePoset:
    """The reassembly order on the carrier over `labels`, in encoding
    order, each up-set from `reassembly_upset`; compiled once per family
    and label set."""
    return _literal_view(fam, frozenset(labels))


def down_sets(keys) -> list:
    """The down-sets of the images of `hsl.antipode._reassembly_images`
    from their keys, all compiled at once and kept: z <= y iff keys[y]
    has no bit outside keys[z]."""
    return _containment_upsets(keys)


def materialized_walk(fam, x, budget: int = DEFAULT_BUDGET) -> tuple:
    """(elems, ell, mu, upper, lower) on the up-set of x in the reassembly
    order: the images and their grading from `_reassembly_images`, every
    down-set compiled at once (`down_sets`), then mu(x, .) and the closed
    form's upper and lower values folded together, each a list over
    `elems`, where `hsl.antipode._fold_rows` forms each down-set when it
    reaches it and folds only the rows its caller names."""
    check_set_partition_budget(len(x.labels), budget)
    elems, keys, ell = _reassembly_images(x, require_self_adjoint(fam, x))
    sign = [(-1) ** k for k in ell]
    mu, upper, signed, lower = ([0] * len(elems) for _ in range(4))
    for w, mask in enumerate(down_sets(keys)):
        below = list(_bits(mask ^ 1 << w))
        mu[w] = (w == 0) - sum(mu[z] for z in below)  # elems[0] is x
        upper[w] = sign[w] - sum(upper[z] for z in below)
        signed[w] = mu[w] * sign[w]
        lower[w] = signed[w] + sum(signed[z] for z in below)
    return elems, ell, mu, upper, lower


def transpose(up) -> tuple:
    """The down-sets of the order whose up-sets are `up`: bit i of
    down[k] is bit k of up[i]."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        for k in _bits(mask):
            down[k] |= 1 << i
    return tuple(down)


def rota_transfer_pair(p: FinitePoset, q: FinitePoset, f, g, x, b) -> tuple:
    """(equal, left, right): left is the sum of mu_P(x, y) over the y >= x
    with f(y) = b, right the sum of mu_Q(a, b) over the a <= b with
    g(a) = x."""
    left = sum(mobius(p, x, y) for y in p.upset(x) if f(y) == b)
    right = sum(mobius(q, a, b) for a in q.elems if q.leq(a, b) and g(a) == x)
    return left == right, left, right


def zeta_pairing(v, w, p: FinitePoset) -> Fraction:
    """Bilinear extension of zeta(a, b) = 1 if a <= b else 0."""
    v._check_ambient(w)
    total = Fraction(0)
    for a, ca in v.terms.items():
        for b, cb in w.terms.items():
            if p.leq(a, b):
                total += ca * cb
    return total


def relation(p: FinitePoset) -> frozenset:
    """The comparable pairs (x, y), x <= y, of a compiled order: what two
    orders on one carrier must share, whatever their element order."""
    return frozenset((x, y) for x in p.elems for y in p.upset(x))


@lru_cache(maxsize=64)
def _literal_view(fam, labels: frozenset) -> FinitePoset:
    elems = sorted(fam.enumerate(labels), key=lambda x: x.encode())
    index = {x: i for i, x in enumerate(elems)}
    up = [sum(1 << index[y] for y in reassembly_upset(fam, x)) for x in elems]
    return FinitePoset(elems, up, transpose(up), fam.tag)


def delta_after_mult(fam, n: int, budget: int = DEFAULT_BUDGET) -> tuple:
    """(ok, witness): whether splitting each product along its own
    decomposition recovers the factors, Delta_{S,T}(m_{S,T}(x, y)) ==
    (x, y), on every split (S, T) of 0..k-1 for k <= n; the witness is
    the first failing (x, y, S, T).  It is the loop of the sweep that
    `hsl` exported as `verify_delta_after_mult_identity`: compatibility at
    the split T = S with the unit and counit axioms gives the identity, so
    `verify_axioms` decides it."""
    for k in range(n + 1):
        for S, T in _splits(frozenset(range(k))):
            for x in fam.enumerate(S, budget):
                for y in fam.enumerate(T, budget):
                    if fam.comult(fam.mult(x, y), S, T) != (x, y):
                        return False, (x, y, S, T)
    return True, None


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


def _split_once(fam, x, reverse: bool):
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


def _factor_sweep(fam, x, reverse: bool) -> list:
    if not x.labels:
        return []
    split = _split_once(fam, x, reverse)
    if split is None:
        return [x]
    return _factor_sweep(fam, split[0], reverse) + _factor_sweep(fam, split[1], reverse)


def factorize(fam, x) -> Factorization:
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
def grading(fam, x) -> int:
    """Number of indecomposable factors of x."""
    return factorize(fam, x).length


def is_indecomposable(fam, x) -> bool:
    return bool(x.labels) and _split_once(fam, x, reverse=False) is None


# ---------------------------------------------------------------------------
# graded characteristic evaluations


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


# ---------------------------------------------------------------------------
# acyclic orientations, all 2^|E| of them


def acyclic_orientations_sweep(g) -> int:
    """Count orientations with no directed cycle by enumerating all of
    them; only sensible for |E| <= 20."""
    edges = sorted(map(_pair_of, _bits(g.bits)))
    m = len(edges)
    if m > 20:
        raise CarrierOverflow(f"{m} edges is too many for brute-force orientation")
    count = 0
    for mask in range(2 ** m):
        succ = dict.fromkeys(g.labels, 0)  # vertex -> bitmask of its successors
        for i, (a, b) in enumerate(edges):
            tail, head = (a, b) if mask >> i & 1 else (b, a)
            succ[tail] |= 1 << head
        count += _is_acyclic(succ)
    return count


def _is_acyclic(succ: dict) -> bool:
    """Whether taking out vertices with no successor left, again and
    again, takes out all of them: no directed cycle."""
    left = _mask(succ)
    while left:
        before = left
        for v in _bits(left):
            if not succ[v] & left:
                left ^= 1 << v
        if left == before:
            return False
    return True

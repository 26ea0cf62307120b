"""Two maps of the symmetric-function bridge that no route in `hsl` runs,
kept for the tests that check the bridge and the orbit quotient.

- `h_coproduct` splits each h_k of an h-basis element as the sum of
  h_i (x) h_{k-i}, extended multiplicatively; the bridge is a coalgebra
  morphism when the coproduct of `hsl.fock.fock_coproduct` goes to it.
- `fock_mult` multiplies two orbit classes: the right representative is
  shifted past the left one's labels, the two are merged, and the product
  is canonicalized (`hsl.fock.orbit_canonicalize`).
"""

from hsl.errors import EngineError
from hsl.fock import OrbitClass, orbit_canonicalize
from hsl.posets import _accumulate
from hsl.symfunc import SymFunc, _as_partition


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


def fock_mult(fam, left: OrbitClass, right: OrbitClass) -> OrbitClass:
    shift = {i: i + left.degree for i in range(right.degree)}
    moved = fam.relabel(shift, right.rep)
    return orbit_canonicalize(fam, fam.mult(left.rep, moved))

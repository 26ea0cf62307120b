from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from hsl.antipode import Adjunction, primitives_basis
from hsl.errors import CarrierOverflow, EngineError
from hsl.families import (GRAPHS, PARTITIONS, Graph, SetPartition,
                          parse_structure)
from hsl.fock import (fock_coproduct, fock_primitive_check, integer_partition_of,
                      orbit_canonicalize, partition_char_poly_check,
                      power_sum_identity_check, symfunc_bridge)
from hsl import symfunc
from hsl.symfunc import SymFunc, h, newton_p_in_h, power_sum_monomial
from fock_oracle import fock_mult, h_coproduct

G = parse_structure


# ---------------------------------------------------------------------------
# symmetric-function core, Newton oracle first


def _monomial_brute(basis, lam, nvars=8):
    # direct expansion oracle: multiply out the generators one variable
    # tuple at a time, then read off coefficients of sorted exponents
    from itertools import combinations_with_replacement
    poly = {(0,) * nvars: Fraction(1)}

    def mul(poly, gen):
        out = {}
        for alpha, c in poly.items():
            for beta, d in gen.items():
                key = tuple(a + b for a, b in zip(alpha, beta))
                out[key] = out.get(key, Fraction(0)) + c * d
        return out

    for part in lam:
        if basis == "h":
            gen = {}
            for combo in combinations_with_replacement(range(nvars), part):
                alpha = [0] * nvars
                for i in combo:
                    alpha[i] += 1
                gen[tuple(alpha)] = Fraction(1)
        else:
            gen = {}
            for i in range(nvars):
                alpha = [0] * nvars
                alpha[i] = part
                gen[tuple(alpha)] = Fraction(1)
        poly = mul(poly, gen)
    out = {}
    for alpha, c in poly.items():
        if all(alpha[i] >= alpha[i + 1] for i in range(nvars - 1)):
            out[tuple(v for v in alpha if v)] = c
    return out


def test_monomial_expansion_matches_brute_force():
    # every partition of degree <= 5, and one of degree 6
    shapes = [lam for n in range(6) for lam in symfunc._partitions(n)]
    assert len(set(shapes)) == 1 + 1 + 2 + 3 + 5 + 7
    for basis in ("h", "p"):
        for lam in shapes + [(3, 2, 1)]:
            sf = SymFunc(basis, {lam: 1})
            assert sf.to_monomial().terms == {
                k: v for k, v in _monomial_brute(basis, lam).items() if v}


def test_monomial_expansion_degree_bound():
    # the expansion sums over every partition of the degree: it has no
    # variable count, so it holds past degree 8
    assert SymFunc("p", {(4, 4): 1}).to_monomial() == SymFunc(
        "m", {(8,): 1, (4, 4): 2})
    assert SymFunc("p", {(5, 4): 1}).to_monomial() == SymFunc(
        "m", {(9,): 1, (5, 4): 1})
    for n in (9, 10):
        assert newton_p_in_h(n).to_monomial() == power_sum_monomial(n)


def test_symfunc_caches_are_bounded():
    for cache in (symfunc.monomial_count, newton_p_in_h):
        assert cache.cache_info().maxsize is not None


def test_newton_identities_oracle():
    for n in range(1, 7):
        newton = newton_p_in_h(n).to_monomial()
        direct = SymFunc("p", {(n,): 1}).to_monomial()
        assert newton == direct == power_sum_monomial(n)


def test_symfunc_arithmetic_and_json():
    two_h2 = 2 * h(2)
    assert (two_h2 * h(1)).terms == {(2, 1): Fraction(2)}
    blob = two_h2.to_json()
    assert SymFunc.from_json(blob) == two_h2
    assert SymFunc.from_json(blob).to_json() == blob
    p2 = SymFunc("h", {(2,): 2, (1, 1): -1})
    assert p2.to_monomial() == power_sum_monomial(2)
    with pytest.raises(EngineError, match="^cannot add across bases; "
                                          "expand to monomials first$"):
        h(2) + SymFunc("p", {(2,): 1})
    with pytest.raises(EngineError):
        SymFunc("m", {(2,): 1}) * SymFunc("m", {(1,): 1})
    # exact coefficients only: a float is refused, not rounded to a binary
    # fraction; keys that normalize to one partition add up
    for bad in (lambda: SymFunc("h", {(2,): 0.1}), lambda: h(2) * 0.5):
        with pytest.raises(TypeError):
            bad()
    assert SymFunc("h", {(1, 2): 1, (2, 1): 1}).terms == {(2, 1): Fraction(2)}


def test_h_coproduct():
    cop = h_coproduct(h(2))
    assert cop == {((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1}
    cop21 = h_coproduct(h(2) * h(1))
    assert cop21[((2,), (1,))] == 1
    assert cop21[((1,), (1, 1))] == 1
    assert cop21[((1, 1), (1,))] == 1


# ---------------------------------------------------------------------------
# orbit classes


def test_orbit_canonicalize_examples():
    edgeless = G("G:n=3;E=")
    assert orbit_canonicalize(GRAPHS, edgeless).rep == edgeless
    moved = G("G:n=3;E=1-2")
    assert orbit_canonicalize(GRAPHS, moved).encode() == "G:n=3;E=0-1"
    part = G("P:n=3;B=02|1")
    assert orbit_canonicalize(PARTITIONS, part).encode() == "P:n=3;B=01|2"
    # a structure on shifted labels normalizes onto 0..n-1
    shifted = Graph(frozenset({4, 7}), frozenset({frozenset({4, 7})}))
    assert orbit_canonicalize(GRAPHS, shifted).encode() == "G:n=2;E=0-1"


def test_orbit_canonicalize_budget():
    wide = Graph(frozenset(range(8)), frozenset())
    with pytest.raises(CarrierOverflow):
        orbit_canonicalize(GRAPHS, wide)


def test_orbit_classes_compare_and_hash_by_value():
    # two canonicalizations of one orbit are distinct objects that key
    # the same term of the coproduct
    a = orbit_canonicalize(GRAPHS, G("G:n=3;E=1-2"))
    b = orbit_canonicalize(GRAPHS, G("G:n=3;E=0-2"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    assert a != orbit_canonicalize(GRAPHS, G("G:n=3;E="))
    assert a != orbit_canonicalize(PARTITIONS, G("P:n=3;B=01|2"))


def test_fock_coproduct_frozen_examples():
    two_block = orbit_canonicalize(PARTITIONS, G("P:n=2;B=01"))
    one = orbit_canonicalize(PARTITIONS, G("P:n=1;B=0"))
    unit = orbit_canonicalize(PARTITIONS, PARTITIONS.unit)
    cop = fock_coproduct(PARTITIONS, two_block)
    assert cop == {(two_block, unit): 1, (unit, two_block): 1, (one, one): 2}

    k2 = orbit_canonicalize(GRAPHS, G("G:n=2;E=0-1"))
    pt = orbit_canonicalize(GRAPHS, Graph(frozenset({0}), frozenset()))
    gunit = orbit_canonicalize(GRAPHS, GRAPHS.unit)
    cop = fock_coproduct(GRAPHS, k2)
    assert cop == {(k2, gunit): 1, (gunit, k2): 1, (pt, pt): 2}


def test_fock_coproduct_well_defined_over_representatives():
    for fam, n in ((GRAPHS, 4), (PARTITIONS, 4)):
        labels = frozenset(range(n))
        for x in fam.enumerate(labels):
            base = fock_coproduct(fam, orbit_canonicalize(fam, x))
            for image in permutations(range(n)):
                moved = fam.relabel(dict(zip(sorted(labels), image)), x)
                assert fock_coproduct(fam, orbit_canonicalize(fam, moved)) == base


def test_fock_coproduct_degree_zero():
    unit = orbit_canonicalize(GRAPHS, GRAPHS.unit)
    assert fock_coproduct(GRAPHS, unit) == {(unit, unit): 1}


def test_fock_mult():
    pt = orbit_canonicalize(GRAPHS, Graph(frozenset({0}), frozenset()))
    two = fock_mult(GRAPHS, pt, pt)
    assert two.encode() == "G:n=2;E="


def test_fock_primitive_checks():
    pt = orbit_canonicalize(GRAPHS, Graph(frozenset({0}), frozenset()))
    assert fock_primitive_check(GRAPHS, {pt: 1})
    k2 = orbit_canonicalize(GRAPHS, G("G:n=2;E=0-1"))
    e2 = orbit_canonicalize(GRAPHS, G("G:n=2;E="))
    assert fock_primitive_check(GRAPHS, {e2: 1, k2: -1})
    assert not fock_primitive_check(GRAPHS, {k2: 1})
    with pytest.raises(EngineError):
        fock_primitive_check(GRAPHS, {pt: 1, k2: 1})


def test_fock_image_of_monoid_primitives_is_primitive():
    adj = Adjunction(GRAPHS, "delta_box")
    for n in range(1, 4):
        for v in primitives_basis(adj, frozenset(range(n))):
            image = {}
            for x, c in v.items():
                oc = orbit_canonicalize(GRAPHS, x)
                image[oc] = image.get(oc, Fraction(0)) + c
            assert fock_primitive_check(GRAPHS, image)


# ---------------------------------------------------------------------------
# the bridge


def test_bridge_frozen_examples():
    assert symfunc_bridge((1,)) == h(1)
    assert symfunc_bridge((2,)) == 2 * h(2)
    assert symfunc_bridge((2, 1)) == 2 * (h(2) * h(1))
    assert symfunc_bridge((3,)) == 6 * h(3)


def test_bridge_is_algebra_morphism():
    for lam, mu in (((2,), (1,)), ((2, 1), (3,)), ((1, 1), (2, 2))):
        merged = tuple(sorted(lam + mu, reverse=True))
        assert symfunc_bridge(merged) == symfunc_bridge(lam) * symfunc_bridge(mu)


def _partition_structure_of_shape(lam):
    blocks = []
    start = 0
    for part in lam:
        blocks.append(frozenset(range(start, start + part)))
        start += part
    return SetPartition(frozenset(range(start)), tuple(blocks))


def _tensor_monomial(pairs):
    out = {}
    for (left, right), c in pairs.items():
        lm = SymFunc("h", {left: 1}).to_monomial()
        rm = SymFunc("h", {right: 1}).to_monomial()
        for lk, lv in lm.terms.items():
            for rk, rv in rm.terms.items():
                key = (lk, rk)
                out[key] = out.get(key, Fraction(0)) + c * lv * rv
    return {k: v for k, v in out.items() if v}


def _bridge_coalgebra_sides(lam, scale):
    """Tensor monomial expansions of both routes around the square."""
    x = _partition_structure_of_shape(lam)
    oc = orbit_canonicalize(PARTITIONS, x)
    # through the quotient coproduct, then the bridge on both legs
    via_quotient = {}
    for (a, b), c in fock_coproduct(PARTITIONS, oc).items():
        la = integer_partition_of(a.rep)
        lb = integer_partition_of(b.rep)
        fa = scale(la)
        fb = scale(lb)
        for lk, lv in fa.terms.items():
            for rk, rv in fb.terms.items():
                key = (lk, rk)
                via_quotient[key] = via_quotient.get(key, Fraction(0)) + c * lv * rv
    via_quotient = _tensor_monomial(via_quotient)
    # bridge first, then the h coproduct
    via_bridge = _tensor_monomial(h_coproduct(scale(lam)))
    return via_quotient, via_bridge


def test_bridge_is_coalgebra_morphism_up_to_degree_4():
    shapes = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
              (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for lam in shapes:
        lhs, rhs = _bridge_coalgebra_sides(lam, symfunc_bridge)
        assert lhs == rhs, lam


def test_inverse_bridge_scaling_fails_in_degree_2():
    inverse = lambda lam: SymFunc(
        "h", {tuple(sorted(lam, reverse=True)):
              Fraction(1, int(_prod_factorials(lam)))})
    lhs, rhs = _bridge_coalgebra_sides((2,), inverse)
    assert lhs != rhs


def _prod_factorials(lam):
    out = 1
    for part in lam:
        out *= factorial(part)
    return out


# ---------------------------------------------------------------------------
# power sums and the characteristic polynomial


def test_power_sum_identity_scalars():
    for n, scalar in ((1, 1), (2, 1), (3, 2), (4, 6)):
        report = power_sum_identity_check(n)
        assert report.proportional
        assert report.scalar == scalar == factorial(n - 1)


def test_power_sum_frozen_images():
    r2 = power_sum_identity_check(2)
    assert r2.image_h == SymFunc("h", {(2,): 2, (1, 1): -1})
    r3 = power_sum_identity_check(3)
    assert r3.image_h == SymFunc("h", {(3,): 6, (2, 1): -6, (1, 1, 1): 2})
    assert r3.image_monomial == SymFunc("m", {(3,): 2})


def test_power_sum_and_char_poly_one_label_larger():
    for n in (5, 6, 7):
        assert power_sum_identity_check(n).scalar == factorial(n - 1)
        assert ("upper", "blocks") in partition_char_poly_check(n).matches


def test_power_sum_printed_expression_statuses():
    assert power_sum_identity_check(1).printed_expression_status == "exact"
    assert power_sum_identity_check(2).printed_expression_status == "neither"
    assert power_sum_identity_check(3).printed_expression_status == "neither"


def test_both_fock_checks_refuse_degree_zero():
    # the char poly check used to raise a bare ValueError from a list lookup
    for check in (power_sum_identity_check, partition_char_poly_check):
        with pytest.raises(EngineError, match="^degree must be positive$"):
            check(0)


def test_partition_char_poly_small():
    for n in range(1, 5):
        report = partition_char_poly_check(n)
        assert report.ok
        assert ("upper", "blocks") in report.matches
        assert report.polynomials[("upper", "blocks")].evaluate(-1) == (
            (-1) ** n * factorial(n))


def test_partition_char_poly_lower_side_never_matches_beyond_degree_1():
    for n in (2, 3, 4):
        report = partition_char_poly_check(n)
        assert not any(side == "lower" for side, _ in report.matches)
    # frozen degree-2 values: the lower/block-count evaluation is the
    # negative of the printed polynomial there
    r2 = partition_char_poly_check(2)
    assert r2.polynomials[("lower", "blocks")].terms == {1: 1, 2: -1}
    assert r2.falling.terms == {1: -1, 2: 1}

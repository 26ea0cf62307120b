"""Exact engine for order-compatible merge/split structure families:
Möbius inversion, zeta duality, antipodes by independent methods, and the
symmetric-function bridge, all in exact rational arithmetic."""

from .errors import (AmbientMismatch, CarrierOverflow, DEFAULT_BUDGET,
                     EngineError, LabelMismatch, LabelOverlap,
                     NonUniqueFactorization, NotAFlat, NotComparable,
                     NotSelfAdjoint, ParseError)
from .posets import (FinitePoset, IntPolynomial, check_galois, interval,
                     mobius, rota_transfer_check)
from .species import Family, bell, fubini
from .vectors import FreeVector, inverted_basis
from .families import (FAMILIES, GRAPHS, HYPERGRAPHS, PARTITIONS, SIMPLICIAL,
                       Graph, Hypergraph, SetPartition, SimplicialComplex,
                       acyclic_orientation_count, chromatic_polynomial,
                       closed_form_antipode_graphs,
                       closed_form_antipode_partitions, closed_form_antipode_sc,
                       contract, graph_flats, graph_free_product,
                       hypergraph_free_product, parse_structure,
                       sc_gamma_of_flat, sc_one_skeleton)
from .antipode import (Adjunction, antipode_axiom_check,
                       antipode_on_inverted_check, box_indecomposables,
                       closed_form_antipode, declared_adjunctions,
                       primitives_basis, reassembly_poset, takeuchi_antipode)

__version__ = "0.1.0"

# The axiom sweep and the symmetric-function modules load on first use of
# their names: only `hsl verify` and `hsl fock` read them, and every other
# cold command skips their import.
_LAZY = {"verify_axioms": "axioms",
         **dict.fromkeys(("OrbitClass", "fock_coproduct", "fock_primitive_check",
                          "orbit_canonicalize", "partition_char_poly_check",
                          "power_sum_identity_check", "symfunc_bridge"), "fock"),
         **dict.fromkeys(("SymFunc", "newton_p_in_h"), "symfunc")}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

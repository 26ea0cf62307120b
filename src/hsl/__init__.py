"""Exact engine for order-compatible merge/split structure families:
Möbius inversion, zeta duality, antipodes by independent methods, and the
symmetric-function bridge, all in exact rational arithmetic."""

from .errors import (AdjunctionUnverified, AmbientMismatch, CarrierOverflow,
                     DEFAULT_BUDGET, EngineError, LabelMismatch, LabelOverlap,
                     NonUniqueFactorization, NotAFlat, NotComparable,
                     NotSelfAdjoint, ParseError)
from .posets import (FinitePoset, IntPolynomial, check_galois,
                     graded_char_eval, graded_char_poly, interval, mobius,
                     rota_transfer_check)
from .species import (Family, bell, compose_comult, compose_mult, fubini,
                      verify_axioms, verify_delta_after_mult_identity)
from .vectors import (FreeVector, TensorVector, delta_on_inverted_check,
                      duality_pairing_check, inverted_basis,
                      product_of_inverted_check, tensor, zeta_pairing)
from .families import (FAMILIES, GRAPHS, HYPERGRAPHS, PARTITIONS, SIMPLICIAL,
                       Graph, Hypergraph, SetPartition, SimplicialComplex,
                       acyclic_orientation_count, chromatic_polynomial,
                       closed_form_antipode_graphs,
                       closed_form_antipode_partitions, closed_form_antipode_sc,
                       contract, graph_flats, graph_free_product,
                       hypergraph_free_product, parse_structure,
                       sc_gamma_of_flat, sc_one_skeleton)
from .antipode import (Adjunction, Factorization, antipode_axiom_check,
                       antipode_on_inverted_check, box_indecomposables,
                       closed_form_antipode, declared_adjunctions, factorize,
                       grading, primitives_basis, reassembly_poset,
                       reassembly_upset, takeuchi_antipode)
from .fock import (OrbitClass, fock_coproduct, fock_primitive_check,
                   orbit_canonicalize, partition_char_poly_check,
                   power_sum_identity_check, symfunc_bridge)
from .symfunc import SymFunc, newton_p_in_h

__version__ = "0.1.0"

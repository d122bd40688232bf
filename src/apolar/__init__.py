"""Exact presentation matrices and Pfaffian generators for grade-three
Gorenstein ideals given by Macaulay inverse systems in k[x, y, z]."""

from .scalars import (DEFAULT_PRIME, FieldMismatchError, FpElement, PrimeField,
                      QQ, RationalField, binomial, field_from_tag, multinomial)
from .poly import (Basis, DUAL_U, DUAL_U0, DualElement, Monomial, Polynomial,
                   SYM_U, SYM_U0, contract, evaluate, format_terms,
                   monomials_of_degree, parse_linear_form, parse_polynomial,
                   random_dual_element, substitute)
from .linalg import (FieldMatrix, InversionResult, PolyMatrix, as_poly_matrix,
                     assert_alternating, block, congruence_pfaffian_check,
                     denominator_lcm, det, hstack, invert, is_alternating,
                     kernel, pfaffian, rank, signed_maximal_pfaffians,
                     times_variable, vstack)
from .resolution import (LinearPresentation, ProportionalityError,
                         QuadraticPresentation, build_linear_presentation,
                         build_p_r, build_quadratic_presentation,
                         claim_factorization_check, explicit_generators,
                         linear_betti, proportionality_unit, quadratic_betti,
                         reduced_inverse_system, resolution_report,
                         theta_conjugation_check, theta_matrices)
from .oracle import (DegreeVerdict, GradedIdealSummary, LefschetzReport,
                     annihilator_degree, family_phi, ideal_equality_check,
                     summarize_ideal, wlp_test)

__version__ = "0.1.0"

"""Exact presentation matrices and Pfaffian generators for grade-three
Gorenstein ideals given by Macaulay inverse systems in k[x, y, z]."""

from .scalars import (DEFAULT_PRIME, FieldMismatchError, FpElement, PrimeField,
                      QQ, RationalField, field_from_tag)
from .poly import (DualElement, Monomial, Polynomial, catalecticant, contract,
                   format_terms, monomials_of_degree, parse_linear_form,
                   parse_polynomial, random_dual_element)
from .linalg import (InversionResult, Matrix, assert_alternating, det, invert,
                     is_alternating, kernel, pfaffian, rank, solve)
from .resolution import (LinearPresentation, QuadraticPresentation,
                         build_linear_presentation, build_p_r,
                         build_quadratic_presentation, explicit_generators,
                         linear_betti, quadratic_betti, reduced_inverse_system,
                         reduced_presentation, resolution_report,
                         theta_conjugation_check)
from .oracle import (DegreeVerdict, GradedIdealSummary, LefschetzReport,
                     annihilator_degree, family_phi, ideal_equality_check,
                     summarize_ideal, wlp_test)

__version__ = "0.1.0"

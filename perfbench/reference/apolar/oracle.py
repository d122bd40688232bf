"""Ground truth by brute force: graded annihilators, Hilbert functions,
minimal generator counts, ideal-equality certificates, and the determinant
test for weak Lefschetz elements.

Everything here is degree-by-degree exact linear algebra.  Nothing uses the
structured presentation machinery, so these routines serve as an independent
check of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from . import linalg
from .linalg import FieldMatrix
from .poly import (Basis, DualElement, Monomial, Polynomial, SYM_U,
                   contract, evaluate, monomials_of_degree)
from .scalars import QQ, Field, RationalField, Scalar


def annihilator_degree(phi: DualElement, d: int) -> List[Polynomial]:
    """Basis of the degree-d piece of ann(phi): the kernel of the evaluation
    map from degree-d polynomials to degree-(s-d) duals.  Above the socle
    degree the whole space annihilates."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    fld = phi.field
    cols = Basis(SYM_U, d)
    s = phi.degree
    if d > s:
        return [Polynomial.monomial(fld, m) for m in cols]
    rows = Basis(SYM_U, s - d)
    matrix = FieldMatrix(fld, [[phi.coefficient(mr * mc) for mc in cols]
                               for mr in rows])
    return [Polynomial.from_coords(fld, cols, v) for v in linalg.kernel(matrix)]


@dataclass
class GradedIdealSummary:
    """Per-degree data of ann(phi) up to the reported bound."""

    socle_degree: int
    max_degree: int
    ideal_dims: List[int]
    quotient_dims: List[int]
    generator_counts: List[int]
    kernels: List[List[Polynomial]]

    @property
    def hilbert_function(self) -> List[int]:
        return self.quotient_dims[: self.socle_degree + 1]

    @property
    def gorenstein_symmetric(self) -> bool:
        h = self.hilbert_function
        s = self.socle_degree
        return all(h[i] == h[s - i] for i in range(s + 1))

    def to_json_dict(self, include_kernels: bool = False) -> dict:
        out = {
            "socle_degree": self.socle_degree,
            "max_degree": self.max_degree,
            "hilbert_function": self.hilbert_function,
            "ideal_dims": self.ideal_dims,
            "quotient_dims": self.quotient_dims,
            "generator_counts": self.generator_counts,
            "gorenstein_symmetric": self.gorenstein_symmetric,
        }
        if include_kernels:
            out["kernels"] = [[str(p) for p in ker] for ker in self.kernels]
        return out


def summarize_ideal(phi: DualElement,
                    max_degree: Optional[int] = None) -> GradedIdealSummary:
    """Dimensions, Hilbert function and minimal-generator counts of ann(phi),
    degree by degree up to max_degree (default: socle degree + 1).

    The number of minimal generators in degree d is dim I_d minus the rank of
    the span of x*f, y*f, z*f over a basis f of I_{d-1}.
    """
    if phi.is_zero:
        raise ValueError("the zero functional has no annihilator summary")
    fld = phi.field
    s = phi.degree
    if max_degree is None:
        max_degree = s + 1
    variables = [Polynomial.variable(fld, v) for v in ("x", "y", "z")]
    ideal_dims: List[int] = []
    quotient_dims: List[int] = []
    generator_counts: List[int] = []
    kernels: List[List[Polynomial]] = []
    for d in range(max_degree + 1):
        ker = annihilator_degree(phi, d)
        total = len(Basis(SYM_U, d))
        kernels.append(ker)
        ideal_dims.append(len(ker))
        quotient_dims.append(total - len(ker))
        if d == 0 or not kernels[d - 1]:
            generator_counts.append(len(ker))
            continue
        basis = Basis(SYM_U, d)
        stacked = [(v * f).to_coords(basis)
                   for f in kernels[d - 1] for v in variables]
        old_rank = linalg.rank(FieldMatrix(fld, stacked))
        generator_counts.append(len(ker) - old_rank)
    return GradedIdealSummary(s, max_degree, ideal_dims, quotient_dims,
                              generator_counts, kernels)


@dataclass
class DegreeVerdict:
    degree: int
    dim_span: int
    dim_annihilator: int
    contained: bool
    equal: bool


def ideal_equality_check(gens: List[Polynomial], phi: DualElement,
                         max_degree: Optional[int] = None) -> List[DegreeVerdict]:
    """Compare the ideal generated by gens with ann(phi) degree by degree.

    For each degree d the span of all monomial multiples of the generators is
    ranked against dim ann(phi)_d, and containment is checked by contracting
    each generator against phi once (a multiple m*g then annihilates too,
    because (m*g)(phi) = m(g(phi))).

    The default bound is socle degree + 1.  That bound certifies equality of
    the two ideals outright for generator degrees <= socle degree + 1: both
    ideals contain every form of degree > s (the annihilator because
    contraction lands below degree zero, the span because at degree s + 1 it
    already equals the full space whenever the verdict there is "equal"), and
    neither acquires new generators above s + 1.
    """
    fld = phi.field
    s = phi.degree
    if max_degree is None:
        max_degree = s + 1
    for g in gens:
        if not isinstance(g, Polynomial):
            raise ValueError("generators must be homogeneous polynomials")
        if g.field != fld:
            raise ValueError("generator field does not match phi")
    annihilates = [g.degree > s or contract(g, phi).is_zero for g in gens]
    verdicts: List[DegreeVerdict] = []
    for d in range(max_degree + 1):
        basis = Basis(SYM_U, d)
        stacked = []
        contained = True
        for g, ok in zip(gens, annihilates):
            if g.degree > d:
                continue
            if not ok:
                contained = False
            for m in monomials_of_degree(d - g.degree):
                stacked.append((Polynomial.monomial(fld, m) * g).to_coords(basis))
        dim_span = linalg.rank(FieldMatrix(fld, stacked)) if stacked else 0
        dim_ann = len(annihilator_degree(phi, d))
        verdicts.append(DegreeVerdict(d, dim_span, dim_ann, contained,
                                      contained and dim_span == dim_ann))
    return verdicts


@dataclass
class LefschetzReport:
    """The multiplication-pairing determinant test for a linear form."""

    ell: Polynomial
    matrix: FieldMatrix
    determinant: Scalar
    verdict: bool
    note: str = ("a nonzero determinant also certifies that the annihilator "
                 "vanishes in degree (s-1)/2, so the monomial basis used for "
                 "the pairing is a genuine basis of the quotient there")

    def to_json_dict(self) -> dict:
        return {
            "ell": str(self.ell),
            "matrix": self.matrix.to_strings(),
            "determinant": self.matrix.field.format(self.determinant),
            "verdict": self.verdict,
            "note": self.note,
        }


def wlp_test(phi: DualElement, ell: Polynomial) -> LefschetzReport:
    """Whether ell is a weak Lefschetz element for the quotient by ann(phi),
    for odd socle degree s: build the matrix phi(mu_i * ell * mu_j) over the
    degree-(s-1)/2 monomial basis and test its determinant."""
    if ell.is_zero or ell.degree != 1:
        raise ValueError("ell must be a nonzero linear form")
    if ell.field != phi.field:
        raise ValueError("ell and phi live in different fields")
    s = phi.degree
    if s % 2 == 0:
        raise ValueError(f"socle degree must be odd, got {s}")
    basis = Basis(SYM_U, (s - 1) // 2)
    mus = [Polynomial.monomial(phi.field, m) for m in basis]
    half = [mu * ell for mu in mus]
    matrix = FieldMatrix(phi.field,
                         [[evaluate(phi, hi * mj) for mj in mus] for hi in half])
    d = linalg.det(matrix)
    return LefschetzReport(ell, matrix, d, d != phi.field.zero)


def family_phi(n: int, field: Field = QQ) -> DualElement:
    """The degree-(2n-1) inverse system of the colon ideal
    (x^{n+1}, y^{n+1}, z^{n+1}) : (x+y+z)^{n+1}: contract (x+y+z)^{n+1}
    against the dual of x^n y^n z^n.  Rational coefficients only; intended
    for even n (odd n still builds, but the quadratic path will refuse)."""
    if not isinstance(field, RationalField):
        raise ValueError("the colon-ideal family is defined over the rationals")
    if n < 1:
        raise ValueError("n must be a positive integer")
    ell = Polynomial(field, 1, {Monomial(1, 0, 0): field.one,
                                Monomial(0, 1, 0): field.one,
                                Monomial(0, 0, 1): field.one})
    top = DualElement.dual_monomial(field, Monomial(n, n, n))
    return contract(ell ** (n + 1), top)

"""Presentation matrices for grade-three Gorenstein ideals from an inverse
system.

Given a dual element ``phi`` of odd degree 2n-1, the linear path resolves
R/I for I = ann(x(phi)): two catalecticant matrices p and r are filled from
coefficients of phi, and when p is invertible the alternating linear
presentation matrix

    b2 = [[ x*A' , x*B1 + B2 ],
          [ -(x*B1 + B2)^T , x*(D0 - D0^T) ]]

is assembled from exact blocks of r^T p^{-1} r, r^T p^{-1} and p^{-1}.  The
row of signed maximal-order Pfaffians of b2 generates I.

When n is even and A' is invertible, the quadratic path resolves
R/J for J = ann(phi): c2 = B^T (A')^{-1} B + x*D is an alternating matrix of
quadratic forms whose signed maximal-order Pfaffians generate J.

All index bookkeeping ("delete row n+1 and column 1", "rightmost n columns")
is kept in one place here and pinned by unit tests against the n = 2 worked
instance, since off-by-one deletions are the dominant bug risk.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import linalg
from .linalg import FieldMatrix, PolyMatrix, block, hstack, times_variable
from .poly import (Basis, DUAL_U, DUAL_U0, DualElement, Monomial, Polynomial,
                   SYM_U, SYM_U0, X, contract)
from .scalars import Field, Scalar


class ProportionalityError(ValueError):
    """Two generator rows that must agree up to one global unit do not."""


def _infer_n(phi: DualElement) -> int:
    if phi.degree % 2 == 0 or phi.degree < 1:
        raise ValueError(
            f"inverse system must have odd degree 2n-1, got degree {phi.degree}")
    return (phi.degree + 1) // 2


def build_p_r(phi: DualElement, n: int) -> Tuple[FieldMatrix, FieldMatrix]:
    """The two catalecticant matrices of a degree-(2n-1) dual element:
    p[i][j] = phi(x * m_i * m_j) over the degree-(n-1) monomial basis, and
    r[i][j] = phi(m_i * m0_j) with m0_j running over the degree-n monomials
    in y, z alone."""
    if phi.degree != 2 * n - 1:
        raise ValueError(f"expected degree {2 * n - 1}, got {phi.degree}")
    mid = Basis(SYM_U, n - 1)
    outer = Basis(SYM_U0, n)
    p = [[phi.coefficient(X * mi * mj) for mj in mid] for mi in mid]
    r = [[phi.coefficient(mi * mo) for mo in outer] for mi in mid]
    return FieldMatrix(phi.field, p), FieldMatrix(phi.field, r)


@dataclass
class LinearPresentation:
    """Everything the linear path produces: catalecticants, the exact blocks,
    the alternating presentation matrix b2 and its Pfaffian row b1."""

    n: int
    field: Field
    phi: DualElement
    p: FieldMatrix
    r: FieldMatrix
    p_rank: int
    linearly_presented: bool
    p_inv: Optional[FieldMatrix] = None
    A0: Optional[FieldMatrix] = None
    A_prime: Optional[FieldMatrix] = None
    B0: Optional[FieldMatrix] = None
    B1: Optional[FieldMatrix] = None
    B2: Optional[PolyMatrix] = None
    D0: Optional[FieldMatrix] = None
    A: Optional[PolyMatrix] = None
    B: Optional[PolyMatrix] = None
    D: Optional[PolyMatrix] = None
    b2: Optional[PolyMatrix] = None
    b1: Optional[PolyMatrix] = None

    @functools.cached_property
    def generators(self) -> List[Polynomial]:
        """The explicit generator row, built on first use and then kept."""
        return explicit_generators(self.phi, self.p_inv)


def _b2_lower_shift(field: Field, n: int) -> PolyMatrix:
    """The n x (n+1) constant-free block [z I_n | 0] - [0 | y I_n]."""
    y = Polynomial.variable(field, "y")
    z = Polynomial.variable(field, "z")
    zero = Polynomial.zero(field, 1)
    rows = []
    for i in range(n):
        row = [zero] * (n + 1)
        row[i] = z
        row[i + 1] = row[i + 1] - y
        rows.append(row)
    return PolyMatrix(field, 1, rows)


def build_linear_presentation(phi: DualElement, n: Optional[int] = None,
                              with_pfaffian_row: bool = True) -> LinearPresentation:
    """Assemble the linear presentation of ann(x(phi)) when p is invertible;
    otherwise report the rank of p and stop (that outcome means the ideal is
    not linearly presented)."""
    inferred = _infer_n(phi)
    if n is not None and n != inferred:
        raise ValueError(f"degree {phi.degree} dual element needs n = {inferred}")
    n = inferred
    fld = phi.field
    p, r = build_p_r(phi, n)
    res = linalg.invert(p)
    if not res.invertible:
        return LinearPresentation(n, fld, phi, p, r, res.rank, False)
    p_inv = res.inverse
    N = p.rows
    rtp = r.transpose() @ p_inv
    rtpr = rtp @ r
    A0 = rtpr.deleted(rows=[n], cols=[0])
    A_prime = A0 - A0.transpose()
    B0 = rtp.take_cols(range(N - n, N))
    zero_col = FieldMatrix.zeros(fld, n, 1)
    B1 = hstack(zero_col, B0.deleted(rows=[n])) - hstack(B0.deleted(rows=[0]), zero_col)
    corner = p_inv.take_rows(range(N - n, N)).take_cols(range(N - n, N))
    D0 = block([
        [FieldMatrix.zeros(fld, n, 1), corner],
        [FieldMatrix.zeros(fld, 1, 1), FieldMatrix.zeros(fld, 1, n)],
    ])
    A = times_variable(A_prime)
    B2 = _b2_lower_shift(fld, n)
    B = times_variable(B1) + B2
    D = times_variable(D0 - D0.transpose())
    b2 = block([[A, B], [-B.transpose(), D]])
    b1 = None
    if with_pfaffian_row:
        b1 = PolyMatrix(fld, n, [linalg.signed_maximal_pfaffians(b2)])
    return LinearPresentation(n, fld, phi, p, r, N, True, p_inv, A0, A_prime,
                              B0, B1, B2, D0, A, B, D, b2, b1)


def explicit_generators(phi: DualElement,
                        p_inv: Optional[FieldMatrix] = None) -> List[Polynomial]:
    """The 2n+1 degree-n generators of ann(x(phi)) written directly, without
    Pfaffians: first x * p^{-1}(nu) for nu running over the dual basis of the
    degree-(n-1) monomials in y, z; then mu - x * p^{-1}(mu(phi)) for mu
    running over the degree-n monomials in y, z.

    The matrix p^{-1} acts through the coordinate identification of the
    degree-(n-1) dual with degree-(n-1) polynomials given by the shared
    monomial order, so the first n images are columns of p^{-1} and the rest
    are one matrix product.  ``LinearPresentation.generators`` keeps this row.
    """
    n = _infer_n(phi)
    fld = phi.field
    if p_inv is None:
        p, _ = build_p_r(phi, n)
        res = linalg.invert(p)
        if not res.invertible:
            raise ValueError(f"p is singular (rank {res.rank}); "
                             "explicit generators need an invertible p")
        p_inv = res.inverse
    mid = Basis(SYM_U, n - 1)
    x = Polynomial.variable(fld, "x")
    nus = p_inv.take_cols([mid.position[m] for m in Basis(DUAL_U0, n - 1)])
    mus = [Polynomial.monomial(fld, m) for m in Basis(SYM_U0, n)]
    dual = Basis(DUAL_U, n - 1)
    w = FieldMatrix(fld, [contract(mu, phi).to_coords(dual) for mu in mus])
    images = p_inv @ w.transpose()
    gens = [x * Polynomial.from_coords(fld, mid, col)
            for col in nus.transpose().entries]
    gens += [mu - x * Polynomial.from_coords(fld, mid, col)
             for mu, col in zip(mus, images.transpose().entries)]
    return gens


def reduced_inverse_system(phi: DualElement) -> DualElement:
    """Drop every coefficient on a pure y,z dual monomial.  The result pairs
    to zero with all of Sym(y,z) in top degree and has the same contraction
    by x, hence the same linear-path ideal."""
    return DualElement(phi.field, phi.degree,
                       {m: c for m, c in phi.coeffs.items() if m.a > 0})


def theta_matrices(phi: DualElement) -> Tuple[FieldMatrix, FieldMatrix]:
    """The constant unipotent change-of-basis pair linking the presentations
    built from phi and from its reduction.  The off-diagonal block is the
    catalecticant of the dropped pure y,z part of phi."""
    n = _infer_n(phi)
    fld = phi.field
    rows_mid = Basis(SYM_U0, n - 1)
    cols_outer = Basis(SYM_U0, n)
    T = FieldMatrix(fld, [[phi.coefficient(mi * mo) for mo in cols_outer]
                          for mi in rows_mid])
    eye_n = FieldMatrix.identity(fld, n)
    eye_n1 = FieldMatrix.identity(fld, n + 1)
    theta1 = block([[eye_n, -T],
                    [FieldMatrix.zeros(fld, n + 1, n), eye_n1]])
    theta2 = block([[eye_n, FieldMatrix.zeros(fld, n, n + 1)],
                    [T.transpose(), eye_n1]])
    return theta1, theta2


def theta_conjugation_check(lin_phi: LinearPresentation,
                            lin_phitilde: LinearPresentation,
                            phi: DualElement) -> bool:
    """Verify that the two presentations built from phi and from its
    reduction are conjugate: Theta1 . b2 = b2~ . Theta2, and the explicit
    generator row of phi equals the reduced row composed with Theta1.
    Raises ValueError unless the presentations were built from phi and from
    its reduction."""
    if lin_phi.phi != phi or lin_phitilde.phi != reduced_inverse_system(phi):
        raise ValueError("presentations were not built from phi and its reduction")
    if not (lin_phi.linearly_presented and lin_phitilde.linearly_presented):
        raise ValueError("both presentations must have invertible p")
    theta1, theta2 = theta_matrices(phi)
    if theta1 @ lin_phi.b2 != lin_phitilde.b2 @ theta2:
        return False
    fld, n = lin_phi.field, lin_phi.n
    return (PolyMatrix(fld, n, [lin_phitilde.generators]) @ theta1
            == PolyMatrix(fld, n, [lin_phi.generators]))


@dataclass
class QuadraticPresentation:
    """Outcome of the quadratic path.  When the constant alternating block is
    singular (always for odd n) nothing is assembled and the rank diagnosis
    is carried instead."""

    n: int
    field: Field
    quadratically_presented: bool
    a_prime_rank: int
    note: str = ""
    c2: Optional[PolyMatrix] = None
    c1: Optional[PolyMatrix] = None
    generators: Optional[List[Polynomial]] = None
    unit: Optional[Scalar] = None
    a_prime_pfaffian: Optional[Scalar] = None


def build_quadratic_presentation(lin: LinearPresentation) -> QuadraticPresentation:
    """c2 = B^T (A')^{-1} B + x D when A' is invertible (n even); the signed
    maximal-order Pfaffians of c2 and the last n+1 explicit generators are
    two generator rows of ann(phi), matched by one reported unit."""
    if not lin.linearly_presented:
        raise ValueError("quadratic path needs a linearly presented input "
                         f"(p has rank {lin.p_rank})")
    n = lin.n
    fld = lin.field
    if n % 2 == 1:
        return QuadraticPresentation(
            n, fld, False, linalg.rank(lin.A_prime),
            note="n is odd: an odd-size alternating matrix of constants is "
                 "necessarily singular, so the quadratic path does not apply")
    res = linalg.invert(lin.A_prime)
    if not res.invertible:
        return QuadraticPresentation(
            n, fld, False, res.rank,
            note="A' is singular: not quadratically presented provided the "
                 "socle-degree and Lefschetz hypotheses hold (not checked here)")
    c2 = (lin.B.transpose() @ res.inverse @ lin.B) \
        + lin.D.times_monomial(Monomial(1, 0, 0))
    c1 = PolyMatrix(fld, n, [linalg.signed_maximal_pfaffians(c2)])
    gens = lin.generators[n:]
    unit = proportionality_unit(c1.entries[0], gens)
    return QuadraticPresentation(n, fld, True, n, "", c2, c1, gens, unit,
                                 linalg.pfaffian(lin.A_prime))


def proportionality_unit(row: List[Polynomial], base: List[Polynomial]) -> Scalar:
    """The unit u with row = u * base, found from the first nonzero entry and
    verified on every coordinate; inconsistency is a hard error since it
    signals a sign-convention bug."""
    if len(row) != len(base):
        raise ValueError("rows have different lengths")
    unit = None
    for rj, bj in zip(row, base):
        if not bj.is_zero:
            m, c = bj.sorted_terms()[0]
            unit = rj.coefficient(m) / c
            break
    if unit is None:
        raise ProportionalityError("base row is identically zero")
    for k, (rj, bj) in enumerate(zip(row, base)):
        if rj != bj.scaled(unit):
            raise ProportionalityError(
                f"rows are not proportional: entry {k} breaks the unit {unit}")
    return unit


def claim_factorization_check(lin: LinearPresentation,
                              quad: QuadraticPresentation) -> bool:
    """For each i, the Pfaffian of b2 with row/column n+i removed must equal
    Pf(A') times the Pfaffian of c2 with row/column i removed, as an identity
    of degree-n forms.  The signs (-1)^(n+i) and (-1)^i of the Pfaffian rows
    agree because n is even, so this reads b1[n+i] = Pf(A') * c1[i] off the
    rows already built; no Pfaffian is recomputed."""
    if quad.c2 is None:
        raise ValueError("quadratic presentation was not assembled")
    if lin.b1 is None:
        raise ValueError("linear presentation was built without its Pfaffian row")
    n = lin.n
    b1, c1 = lin.b1.entries[0], quad.c1.entries[0]
    return all(b1[n + i] == c1[i].scaled(quad.a_prime_pfaffian)
               for i in range(n + 1))


def linear_betti(n: int) -> List[List[int]]:
    """(degree, rank) pairs of the resolution shape in the linear case."""
    return [[0, 1], [n, 2 * n + 1], [n + 1, 2 * n + 1], [2 * n + 1, 1]]


def quadratic_betti(n: int) -> List[List[int]]:
    """(degree, rank) pairs of the resolution shape in the quadratic case."""
    return [[0, 1], [n, n + 1], [n + 2, n + 1], [2 * n + 2, 1]]


def resolution_report(lin: LinearPresentation,
                      quad: Optional[QuadraticPresentation] = None) -> dict:
    """A JSON-ready record of one run: all named blocks, flags, the
    proportionality units and the graded Betti shapes."""
    out: dict = {
        "field": lin.field.tag,
        "n": lin.n,
        "inverse_system_degree": lin.phi.degree,
        "linearly_presented": lin.linearly_presented,
        "p_rank": lin.p_rank,
        "blocks": {
            "p": lin.p.to_strings(),
            "r": lin.r.to_strings(),
        },
    }
    if not lin.linearly_presented:
        return out
    blocks = out["blocks"]
    blocks["p_inv"] = lin.p_inv.to_strings()
    blocks["A0"] = lin.A0.to_strings()
    blocks["A_prime"] = lin.A_prime.to_strings()
    blocks["B0"] = lin.B0.to_strings()
    blocks["B1"] = lin.B1.to_strings()
    blocks["B2"] = lin.B2.to_strings()
    blocks["D0"] = lin.D0.to_strings()
    blocks["A"] = lin.A.to_strings()
    blocks["B"] = lin.B.to_strings()
    blocks["D"] = lin.D.to_strings()
    blocks["b2"] = lin.b2.to_strings()
    if lin.b1 is not None:
        blocks["b1"] = lin.b1.to_strings()
    explicit = lin.generators
    out["generators"] = {"explicit": [str(g) for g in explicit]}
    if lin.b1 is not None:
        out["units"] = {
            "explicit_vs_pfaffian_row":
                lin.field.format(proportionality_unit(explicit, lin.b1.entries[0])),
        }
    out["betti"] = {"linear": linear_betti(lin.n)}
    if quad is not None:
        out["quadratically_presented"] = quad.quadratically_presented
        out["a_prime_rank"] = quad.a_prime_rank
        if quad.note:
            out["quadratic_note"] = quad.note
        if quad.quadratically_presented:
            blocks["c2"] = quad.c2.to_strings()
            blocks["c1"] = quad.c1.to_strings()
            out["generators"]["quadratic"] = [str(g) for g in quad.generators]
            out.setdefault("units", {})["pfaffian_row_vs_generators"] = \
                lin.field.format(quad.unit)
            out["units"]["a_prime_pfaffian"] = lin.field.format(quad.a_prime_pfaffian)
            out["betti"]["quadratic"] = quadratic_betti(lin.n)
    return out

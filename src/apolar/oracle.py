"""Ground truth by brute force: graded annihilators, Hilbert functions,
minimal generator counts, ideal-equality certificates, and the determinant
test for weak Lefschetz elements.

Everything here is degree-by-degree linear algebra.  Nothing uses the
structured presentation machinery, so these routines serve as an independent
check of it.

Every matrix is built on plain ints, from one int form per polynomial or
dual element (``_int_form``, on ``Field.to_ints``): the residues over GF(p),
and over Q the coefficients times their common denominator.  Each row is
read off one form, so it is the boxed row times a nonzero factor, which
keeps the rank and the kernel.  That one form feeds the containment
products (the coefficient rows of the generators of one degree times the
catalecticant of phi), the rows mod ``CERTIFICATE_PRIME`` and the exact
rows, which ``linalg.rank`` takes as they are (``Matrix._from_ints``).
The annihilator kernels and the ``wlp_test`` matrix are catalecticants
from ``linalg.catalecticants``, which keeps the denominator.

Over Q, the ideal-equality certificate first ranks its matrices modulo one
prime, ``CERTIFICATE_PRIME``: reducing an integer matrix mod a prime can
only lose rank.  So a modular rank is a lower bound for the rational
one, and where the bounds meet, the degree is proven.  Any prime is sound; an
unlucky one only sends that degree to the exact rational path.  The prime
is ``residues.LIFT_PRIMES[0]`` = 268435399, the largest below 2^28, so that
a slot of ``residues.rref_mod`` is one 64-bit word for fewer than 128 rows.

``verify`` calls the certificate on int forms (``ideal_equality_check_ints``):
the columns of its generator row read off the slices (``row_forms``), and
phi or x(phi) read off the int form of phi (``contracted_form``), so
neither is boxed.  It also passes a proven head: p, which it has
eliminated exactly and found invertible, is cat_{n-1} of x(phi) on the
linear path and a row-submatrix of cat_{n-1} of phi on the quadratic one,
so J_{n-1} = 0 and the head takes no rank.  That is a rank fact about
cat_{n-1}, not a presentation formula, so the certificate stays
independent of what it checks.  Catalecticant rows and the rows of
monomial multiples are written by index in the fixed monomial order
(``poly.catalecticant``, ``_multiple_rows``).

The tail lemma (any field).  Let J = ann(phi), s = deg phi and a the
least degree with J_a != 0.  Then J_d = R_1 J_{d-1} for every
d >= s + 3 - a, and the Hilbert function is h(d) = C(s - d + 2, 2) for
s + 3 - a <= d <= s (0 above s).

Proof.  Take psi of degree d with v(psi) in J_{d-1}^perp = R_e(phi) for each
variable v, e = s - d + 1, say v(psi) = f_v(phi).  Then (w f_v - v f_w)(phi)
= w(v(psi)) - v(w(psi)) = 0, and e + 1 < a gives J_{e+1} = 0, so
w f_v = v f_w in R.  Koszul exactness gives f_v = v g for one g, so
psi - g(phi) is killed by x, y and z, hence zero (d > 0), and psi = g(phi)
lies in J_d^perp.  So (R_1 J_{d-1})^perp is inside J_d^perp, and J_d lies
in R_1 J_{d-1}.  For h: cat_d is the transpose of cat_{s-d}, and J_{s-d} = 0
because s - d < a.  So J has no minimal generator above s + 2 - a.

The head lemma (any field).  Let a0 >= 1 and suppose J_{a0-1} = 0, that
is, cat_{a0-1} has full column rank.  Then J_d = 0 for every d < a0, so
a >= a0, and dim J_d = C(d + 2, 2) - C(s - d + 2, 2) for every d > s - a0
(C(d + 2, 2) above s).

Proof.  If f != 0 lies in J_d with d < a0, then x^(a0-1-d) f != 0 lies in
J_{a0-1}, since J is an ideal and R a domain.  For d > s - a0, s - d < a0,
so J_{s-d} = 0 and cat_{s-d} is injective; cat_d is its transpose, so
cat_d has full row rank C(s - d + 2, 2), and J_d, its kernel, has the
dimension above.  Above s, cat_d has no rows and J_d is everything.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .linalg import Matrix, catalecticants
from .poly import (DualElement, Monomial, Polynomial, catalecticant, contract,
                   dense, monomials_of_degree, position)
from .residues import LIFT_PRIMES, product
from .scalars import QQ, Field, RationalField, Scalar

# The prime of the modular ranks over Q (the module docstring says why).
CERTIFICATE_PRIME = LIFT_PRIMES[0]


# A form on plain ints: (degree, {monomial: int coefficient}).
IntForm = Tuple[int, Dict[Monomial, int]]

# d -> the int rows of cat_d of one int form phi (``_cat_rows``).
CatRows = Callable[[int], List[List[int]]]

# d -> a rank of cat_d, mod q or exact (``_cat_ranks``).
CatRank = Callable[[int], int]


def _int_form(f: Polynomial | DualElement) -> IntForm:
    """The int form of a polynomial or a dual element: its coefficients
    on the field's encoding (``Field.to_ints``), without the factor L."""
    _, ints = f.field.to_ints(list(f.coeffs.values()))
    return f.degree, dict(zip(f.coeffs, ints))


def _multiple_rows(gens: Sequence[IntForm], D: int) -> List[List[int]]:
    """Coordinates on the monomials of degree D of every monomial multiple
    m * g, for each int form g of degree at most D: rows g by g, m in the
    fixed monomial order, where the multipliers with b' + c' = k come in
    one run, c' = 0, ..., k.  By index (``poly.position``): u = x^a y^b z^c
    times m sits at T(b + c + k) + c + c'."""
    size = (D + 1) * (D + 2) // 2
    rows = []
    for deg, coeffs in gens:
        for k in range(D - deg + 1):
            starts = [(position((0, b + k, c)), x)
                      for (_, b, c), x in coeffs.items()]
            for j in range(k + 1):
                row = [0] * size
                for o, x in starts:
                    row[o + j] = x
                rows.append(row)
    return rows


def _annihilates(gens: Sequence[IntForm], s: int, cat_rows: CatRows,
                 p: Optional[int]) -> List[bool]:
    """Whether g(phi) = 0, for each int form g, phi of degree s with
    ``cat_rows(e)`` the int rows of its cat_e: g(phi) is the coefficient
    row of g times cat_{s-d}, whose rows have degree d = deg g, one product
    per d, each row tested for zero: mod p over GF(p), where the forms hold
    residues, and exactly over Q (p None), where they hold g and phi each
    times its denominator LCM, a nonzero factor.  A generator of degree
    above s annihilates phi."""
    out = [deg > s for deg, _ in gens]
    for d in {deg for deg, _ in gens if deg <= s}:
        idx = [i for i, (deg, _) in enumerate(gens) if deg == d]
        images = product({1: _multiple_rows([gens[i] for i in idx], d)},
                         {1: cat_rows(s - d)}, math.comb(s - d + 2, 2),
                         p or 0)[1]
        for i, image in zip(idx, images):
            out[i] = not any(image)
    return out


def _exact_rank(fld: Field, rows: List[List[int]]) -> int:
    """The rank over ``fld`` of int rows read off int forms."""
    if not rows:
        return 0
    return linalg.rank(Matrix._from_ints(fld, rows, len(rows[0])))


def _cat_rows(phi: List[int], s: int, d: int) -> List[List[int]]:
    """The int rows of cat_d of phi of degree s, given by its dense int
    coefficients (``poly.dense``): one row per monomial of degree s - d,
    one column per monomial of degree d.  Above s it has no rows."""
    rows = monomials_of_degree(s - d) if d <= s else []
    return catalecticant(phi, rows, d)


def _cat_ranks(cat_rows: CatRows, fld: Field) -> Tuple[CatRank, CatRank]:
    """(rank mod q, exact rank) of cat_d, each taken at most once per d,
    q = p over GF(p), where both are the one rank mod p, and
    ``CERTIFICATE_PRIME`` over Q."""
    cache = functools.lru_cache(maxsize=None)
    p = getattr(fld, "p", None)
    q = p or CERTIFICATE_PRIME
    rank_q = cache(lambda d: linalg._rank_mod(cat_rows(d), q))
    return rank_q, rank_q if p else cache(
        lambda d: _exact_rank(fld, cat_rows(d)))


def _top_quotient_dim(s: int, d: int) -> int:
    """h(d) = C(s - d + 2, 2), 0 above s, for ann(phi), phi of degree s, at
    a degree d where J_{s-d} = 0: cat_d is the transpose of cat_{s-d}, which
    is then injective, so cat_d has full row rank."""
    return math.comb(max(s - d + 2, 0), 2)


def _tail_quotient_dim(s: int, a: Optional[int], d: int) -> Optional[int]:
    """h(d) for ann(phi), phi of degree s and a the least degree of the
    ideal, when d >= s + 3 - a: there the ideal is R_1 times its degree
    d - 1 and h(d) = C(s - d + 2, 2), 0 above s (the tail lemma in the
    module docstring).  None below that degree, or while a is not yet
    known."""
    if a is None or d < s + 3 - a:
        return None
    return _top_quotient_dim(s, d)


def _head_degree(rank_q: CatRank, rank: CatRank, gens: Sequence[IntForm],
                 zero_degree: Optional[int] = None) -> Optional[int]:
    """a0, the least degree of the int forms ``gens``, exactly when
    J_{a0-1} = 0 for J = ann(phi).  With a proven J_k = 0 at
    k = ``zero_degree`` >= a0 - 1 that holds with no rank, since J is an
    ideal of a domain: x^(k-a0+1) f != 0 would lie in J_k for f != 0 in
    J_{a0-1}.  Otherwise it holds when cat_{a0-1} of phi has full column
    rank, by the ranks of ``_cat_ranks``.  Over GF(p) its rank mod p is
    exact.  Over Q its rank mod q, a lower bound for the rational rank that
    the column count bounds above, proves it when full, and the exact rank
    decides when it falls short.  None when there is no generator, when
    a0 = 0, or when J_{a0-1} != 0 (the head lemma in the module
    docstring)."""
    a0 = min((deg for deg, _ in gens), default=0)
    if a0 == 0:
        return None
    if zero_degree is not None and a0 - 1 <= zero_degree:
        return a0
    cols = math.comb(a0 + 1, 2)
    full = rank_q(a0 - 1) == cols or rank(a0 - 1) == cols
    return a0 if full else None


def annihilator_degree(phi: DualElement, d: int) -> List[Polynomial]:
    """A basis of the degree-d piece of ann(phi): the kernel of the map
    g -> g(phi) from degree-d polynomials to degree-(s-d) duals, the
    catalecticant.  Above the socle degree the whole space annihilates."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    fld = phi.field
    cols = monomials_of_degree(d)
    if d > phi.degree:
        return [Polynomial.monomial(fld, m) for m in cols]
    matrix, = catalecticants(phi, (monomials_of_degree(phi.degree - d), d,
                                   False))
    return [Polynomial._trusted(fld, d, {u: c for u, c in zip(cols, v) if c})
            for v in linalg.kernel(matrix)]


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
    the span of x*f, y*f, z*f over a basis f of I_{d-1}.  With a the least
    degree where I is nonzero, the count is 0, with no rank taken, for every
    d >= s + 3 - a, because there I_d = R_1 I_{d-1} (the tail lemma in the
    module docstring).
    """
    if phi.is_zero:
        raise ValueError("the zero functional has no annihilator summary")
    fld = phi.field
    s = phi.degree
    if max_degree is None:
        max_degree = s + 1
    if max_degree < s:
        raise ValueError(f"the summary needs degrees up to the socle degree "
                         f"{s}, got a bound of {max_degree}")
    ideal_dims: List[int] = []
    quotient_dims: List[int] = []
    generator_counts: List[int] = []
    kernels: List[List[Polynomial]] = []
    a = None
    for d in range(max_degree + 1):
        ker = annihilator_degree(phi, d)
        kernels.append(ker)
        ideal_dims.append(len(ker))
        quotient_dims.append(math.comb(d + 2, 2) - len(ker))
        prev = kernels[d - 1] if d else []
        if not prev:
            count = len(ker)
        elif _tail_quotient_dim(s, a, d) is not None:
            count = 0
        else:
            count = len(ker) - _exact_rank(
                fld, _multiple_rows([_int_form(f) for f in prev], d))
        generator_counts.append(count)
        if a is None and ker:
            a = d
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

    At each degree d the span of all monomial multiples of the generators is
    compared with J_d, J = ann(phi), of dimension dim_ann = N - rank(cat_d),
    N the number of degree-d monomials.  Containment is checked once per
    generator g by the integer test of ``_annihilates``, exact over Q (a
    multiple m*g then annihilates too, because (m*g)(phi) = m(g(phi))); no
    modular rank ever decides it, since a zero mod q is not a proof.

    One rank first proves the head: head = a0, the least generator degree,
    exactly when J_{a0-1} = 0 (``_head_degree``).  Each degree then reads
    head alone:

    - d < head: dim_span = dim_ann = 0, since no generator reaches d and
      J_d = 0 (the head lemma in the module docstring);
    - d > s - head: dim_ann = N - C(s - d + 2, 2), with no rank (head
      lemma); and if moreover d >= s + 3 - head, the generators of degree
      <= d are all contained and degree d - 1 is "equal", then dim_span =
      dim_ann: the span contains R_1 J_{d-1}, which is J_d by the tail
      lemma (sound with a0 for a, since the head gives a >= a0);
    - over Q, under containment, each number still open is ranked mod
      q = ``CERTIFICATE_PRIME``: rank_q(span) <= rank_Q(span) <= dim ann_Q
      <= N - rank_q(cat), so when the two ends meet the degree is "equal"
      and both numbers are exact;
    - every number still open takes its exact rank.

    head is None without a generator, with a0 = 0, or when J_{a0-1} != 0
    (then degree a0 - 1, which no generator reaches, fails); no lemma
    applies, and every degree takes the ranks.  So a failing degree is
    never skipped, and the verdicts do not depend on q.

    The default bound is socle degree + 1.  That bound certifies equality of
    the two ideals outright for generator degrees <= socle degree + 1: both
    ideals contain every form of degree > s (the annihilator because
    contraction lands below degree zero, the span because at degree s + 1 it
    already equals the full space whenever the verdict there is "equal"), and
    neither acquires new generators above s + 1.

    The check runs on the int forms of gens and phi
    (``ideal_equality_check_ints``).
    """
    fld = phi.field
    for g in gens:
        if not isinstance(g, Polynomial):
            raise ValueError("generators must be homogeneous polynomials")
        if g.field != fld:
            raise ValueError("generator field does not match phi")
    return ideal_equality_check_ints(fld, [_int_form(g) for g in gens],
                                     _int_form(phi), max_degree)


def row_forms(row: Matrix) -> List[IntForm]:
    """The int forms of the entries of a 1 x m matrix of forms, column by
    column, read off its slices: each entry times the matrix's L."""
    forms: List[Dict[Monomial, int]] = [{} for _ in range(row.cols)]
    for u, (ints,) in row.slices.items():
        for form, c in zip(forms, ints):
            if c:
                form[u] = c
    return [(row.degree, form) for form in forms]


def contracted_form(u: Monomial, phi: DualElement) -> IntForm:
    """The int form of u(phi) for a monomial u, read off that of phi: the
    coefficient of m in u(phi) is phi's coefficient of u * m."""
    s, coeffs = _int_form(phi)
    return s - u.degree, {m.quotient(u): c for m, c in coeffs.items()
                          if u.divides(m)}


def ideal_equality_check_ints(fld: Field, gens: Sequence[IntForm],
                              phi: IntForm, max_degree: Optional[int] = None,
                              zero_degree: Optional[int] = None
                              ) -> List[DegreeVerdict]:
    """``ideal_equality_check`` on int forms over fld (``_int_form``,
    ``row_forms``, ``contracted_form``): over GF(p) the residues in [0, p),
    over Q each form times any nonzero integer, which keeps every verdict,
    since a row read off one form is the boxed row times that factor.

    ``zero_degree``, when given, is a degree k at which the caller has
    proven J_k = 0: a rank fact about cat_k of phi (full column rank), not
    a presentation formula, so the certificate stays independent of what
    it checks.  The head then takes no rank when a0 - 1 <= k
    (``_head_degree``); otherwise it is ranked as without the fact."""
    s, phi_int = phi
    if max_degree is None:
        max_degree = s + 1
    p = getattr(fld, "p", None)
    # each cat_d is built once, for the containment products and the ranks,
    # which copy its rows before they eliminate; each of its ranks is taken
    # once, for the head and the loop
    cat_rows = functools.lru_cache(maxsize=None)(
        functools.partial(_cat_rows, dense(phi_int, s), s))
    cat_rank_q, cat_rank = _cat_ranks(cat_rows, fld)
    annihilates = _annihilates(gens, s, cat_rows, p)
    q = CERTIFICATE_PRIME
    head = _head_degree(cat_rank_q, cat_rank, gens, zero_degree)
    verdicts: List[DegreeVerdict] = []
    for d in range(max_degree + 1):
        total = math.comb(d + 2, 2)
        contained = all(ok for (deg, _), ok in zip(gens, annihilates)
                        if deg <= d)
        dim_span = dim_ann = None
        if head is not None and d < head:
            dim_span = dim_ann = 0
        elif head is not None and d > s - head:
            dim_ann = total - _top_quotient_dim(s, d)
            if d >= s + 3 - head and contained and verdicts[-1].equal:
                dim_span = dim_ann
        if dim_span is None and p is None and contained:
            span_q = linalg._rank_mod(_multiple_rows(gens, d), q)
            ann_q = dim_ann
            if ann_q is None:
                ann_q = total - cat_rank_q(d)
            if span_q == ann_q:
                dim_span = dim_ann = span_q
        if dim_span is None:
            dim_span = _exact_rank(fld, _multiple_rows(gens, d))
        if dim_ann is None:
            dim_ann = total - cat_rank(d)
        verdicts.append(DegreeVerdict(d, dim_span, dim_ann, contained,
                                      contained and dim_span == dim_ann))
    return verdicts


@dataclass
class LefschetzReport:
    """The multiplication-pairing determinant test for a linear form."""

    ell: Polynomial
    matrix: Matrix
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
    degree-(s-1)/2 monomial basis and test its determinant.  That matrix is
    the degree-(s-1)/2 catalecticant of ell(phi), because
    (mu_i * ell * mu_j)(phi) = (ell(phi))(mu_i * mu_j)."""
    if ell.is_zero or ell.degree != 1:
        raise ValueError("ell must be a nonzero linear form")
    if ell.field != phi.field:
        raise ValueError("ell and phi live in different fields")
    s = phi.degree
    if s % 2 == 0:
        raise ValueError(f"socle degree must be odd, got {s}")
    k = (s - 1) // 2
    matrix, = catalecticants(contract(ell, phi),
                             (monomials_of_degree(k), k, False))
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

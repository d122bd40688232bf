"""The exact rational loops the oracle's certificate and generator counts
ran before their ranks were first taken modulo a prime: every degree builds
the annihilator kernel and ranks the span of multiples over the field of
phi.  Kept only as a reference for tests; nothing here is modular.
"""

from apolar import linalg
from apolar.linalg import Matrix
from apolar.oracle import DegreeVerdict
from apolar.poly import Polynomial, contract, monomials_of_degree

from pairing_reference import from_coords, to_coords


def annihilator_degree(phi, d):
    """Kernel basis of the degree-d catalecticant of phi."""
    fld = phi.field
    cols = monomials_of_degree(d)
    s = phi.degree
    if d > s:
        return [Polynomial.monomial(fld, m) for m in cols]
    rows = monomials_of_degree(s - d)
    matrix = Matrix(fld, [[phi.coefficient(mr * mc) for mc in cols]
                               for mr in rows])
    return [from_coords(fld, cols, v) for v in linalg.kernel(matrix)]


def ideal_equality_check(gens, phi, max_degree=None):
    fld = phi.field
    s = phi.degree
    if max_degree is None:
        max_degree = s + 1
    annihilates = [g.degree > s or contract(g, phi).is_zero for g in gens]
    verdicts = []
    for d in range(max_degree + 1):
        basis = monomials_of_degree(d)
        stacked = []
        contained = True
        for g, ok in zip(gens, annihilates):
            if g.degree > d:
                continue
            if not ok:
                contained = False
            for m in monomials_of_degree(d - g.degree):
                stacked.append(to_coords(Polynomial.monomial(fld, m) * g, basis))
        dim_span = linalg.rank(Matrix(fld, stacked)) if stacked else 0
        dim_ann = len(annihilator_degree(phi, d))
        verdicts.append(DegreeVerdict(d, dim_span, dim_ann, contained,
                                      contained and dim_span == dim_ann))
    return verdicts


def generator_counts(phi, max_degree=None):
    """Minimal generators of ann(phi) by degree: dim I_d minus the rank of
    x, y and z times a basis of I_{d-1}."""
    fld = phi.field
    if max_degree is None:
        max_degree = phi.degree + 1
    variables = [Polynomial.variable(fld, v) for v in ("x", "y", "z")]
    kernels = []
    counts = []
    for d in range(max_degree + 1):
        ker = annihilator_degree(phi, d)
        kernels.append(ker)
        if d == 0 or not kernels[d - 1]:
            counts.append(len(ker))
            continue
        basis = monomials_of_degree(d)
        stacked = [to_coords(v * f, basis)
                   for f in kernels[d - 1] for v in variables]
        counts.append(len(ker) - linalg.rank(Matrix(fld, stacked)))
    return counts

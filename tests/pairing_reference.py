"""The pairing w(u) of a dual element w and a polynomial u of the same
degree, the sum of the products of matching coefficients.  The package
reads pairings off catalecticants; the tests check those entries, and the
contraction, against this direct sum.  Also the coefficient vectors of
forms on a list of monomials, and back, for the tests that build
matrices entry by entry, and the catalecticants p, r, T, r~ and the
``wlp_test`` matrix built as the package first built them: boxed
coefficients, checked one by one by the ``Matrix`` constructor.  And the
int catalecticant as the package built it before it read rows by index:
one dict lookup per entry (``catalecticant_by_lookup``)."""

from apolar import (Matrix, Polynomial, contract, monomials_of_degree,
                    reduced_inverse_system)


def evaluate(w, u):
    if u.degree != w.degree:
        raise ValueError(f"cannot evaluate a degree-{w.degree} dual on a "
                         f"degree-{u.degree} polynomial")
    return sum((c * w.coefficient(m) for m, c in u.coeffs.items()),
               w.field.zero)


def to_coords(form, monos):
    """The coefficients of a polynomial or dual element on a list of
    monomials."""
    return [form.coefficient(m) for m in monos]


def from_coords(field, monos, coords):
    """The polynomial with these coefficients on a nonempty list of
    monomials of one degree."""
    coords = list(coords)
    if len(coords) != len(monos):
        raise ValueError("coordinate vector has wrong length")
    return Polynomial(field, monos[0].degree, dict(zip(monos, coords)))


def catalecticant_by_lookup(coeffs, rows, cols):
    """The int rows of the catalecticant of the functional with the int
    coefficients ``coeffs`` ({monomial: int}, 0 where one is missing): the
    entry (mr, mc) is the coefficient of mr * mc, looked up as an exponent
    tuple, which hashes and compares equal to the Monomial key."""
    return [[coeffs.get((a + x, b + y, c + z), 0) for x, y, z in cols]
            for a, b, c in rows]


def boxed_catalecticant(w, rows, cols):
    """The matrix of the coefficients of w on the products rows x cols."""
    return Matrix(w.field, [[w.coefficient(a * b) for b in cols]
                                 for a in rows], len(cols))


def boxed_catalecticants(phi):
    """p, r, T and r~ of a degree-(2n-1) phi: p that of x(phi) on the
    degree-(n-1) monomials, r that of phi on those rows and the x-free
    degree-n columns, T its x-free rows, r~ the r of the reduction."""
    n = (phi.degree + 1) // 2
    mid = monomials_of_degree(n - 1)
    outer = monomials_of_degree(n, x_free=True)
    xphi = contract(Polynomial.variable(phi.field, "x"), phi)
    return (boxed_catalecticant(xphi, mid, mid),
            boxed_catalecticant(phi, mid, outer),
            boxed_catalecticant(phi, monomials_of_degree(n - 1, x_free=True),
                                outer),
            boxed_catalecticant(reduced_inverse_system(phi), mid, outer))


def boxed_wlp_matrix(phi, ell):
    """The catalecticant of ell(phi) on the degree-(s-1)/2 monomials."""
    mid = monomials_of_degree((phi.degree - 1) // 2)
    return boxed_catalecticant(contract(ell, phi), mid, mid)

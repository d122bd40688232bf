"""The pairing w(u) of a dual element w and a polynomial u of the same
degree, the sum of the products of matching coefficients.  The package
reads pairings off catalecticants; the tests check those entries, and the
contraction, against this direct sum.  Also the coefficient vectors of
forms on a list of monomials, and back, for the tests that build
matrices entry by entry."""

from apolar import Polynomial


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

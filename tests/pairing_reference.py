"""The pairing w(u) of a dual element w and a polynomial u of the same
degree, the sum of the products of matching coefficients.  The package
reads pairings off catalecticants; the tests check those entries, and the
contraction, against this direct sum."""


def evaluate(w, u):
    if u.degree != w.degree:
        raise ValueError(f"cannot evaluate a degree-{w.degree} dual on a "
                         f"degree-{u.degree} polynomial")
    return sum((c * w.coefficient(m) for m, c in u.coeffs.items()),
               w.field.zero)

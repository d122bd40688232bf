"""The conjugation check by full products, the reference that
``resolution.theta_conjugation_check`` must agree with.

It takes two presentations, that of phi and one of its reduction, writes
Theta1 = [[I_n, -T], [0, I_(n+1)]] and Theta2 = [[I_n, 0], [T^T, I_(n+1)]]
from the boxed entries of T, the last n rows of r, and compares
Theta1 b2 with b2~ Theta2 and g~ Theta1 with g as whole matrices of forms.
"""

from apolar import Matrix


def thetas(lin):
    """Theta1 and Theta2 from the boxed entries of T, the last n rows of
    ``lin.r``."""
    n, fld = lin.n, lin.field
    T = lin.r.entries[lin.r.rows - n:]
    m = 2 * n + 1

    def one(i, j):
        return fld.one if i == j else fld.zero
    theta1 = [[-T[i][j - n] if i < n <= j else one(i, j) for j in range(m)]
              for i in range(m)]
    theta2 = [[T[j][i - n] if j < n <= i else one(i, j) for j in range(m)]
              for i in range(m)]
    return Matrix(fld, theta1), Matrix(fld, theta2)


def theta_conjugation_reference(lin, lin_tilde) -> bool:
    """Theta1 b2 = b2~ Theta2 and g~ Theta1 = g, b2 and g of ``lin``, b2~
    and g~ of ``lin_tilde``, Theta read off ``lin``.  Raises ValueError
    unless both presentations have an invertible p."""
    if not (lin.linearly_presented and lin_tilde.linearly_presented):
        raise ValueError("both presentations must have invertible p")
    theta1, theta2 = thetas(lin)
    if theta1 @ lin.b2 != lin_tilde.b2 @ theta2:
        return False
    return lin_tilde.generator_row @ theta1 == lin.generator_row

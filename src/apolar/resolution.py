"""Presentation matrices for grade-three Gorenstein ideals from an inverse
system.

Given a dual element ``phi`` of odd degree 2n-1, the linear path resolves
R/I for I = ann(x(phi)): two catalecticant matrices are read off the int
form of phi by ``linalg.catalecticants``, p of x(phi) and r of phi, and when
p is invertible the alternating linear presentation matrix

    b2 = [[ x*A' , x*B1 + B2 ],
          [ -(x*B1 + B2)^T , x*(D0 - D0^T) ]]

is written by index (``_assemble``).  It reads p^{-1} only through
p^{-1} [r | E], E the last n columns of I_N, N = n(n+1)/2: A0, A', B0, B1
and D0 are slices of the int rows of r^T p^{-1} r and p^{-1} [r | E] over
one common L (r^T p^{-1} is (p^{-1} r)^T, p being symmetric), the slice of
b2 at x is [[A', B1], [-B1^T, D0 - D0^T]], and those at y and z hold the
constant shift B2, so no polynomial is boxed and no block operation runs.
``verify`` takes p^{-1} [r | E] from one elimination of [p | r | E]
(``linalg.solve``), which also gives the rank of p, and never inverts p;
``resolve``, whose report writes p^{-1}, reads it off p^{-1}.  Every
matrix here is a ``linalg.Matrix`` of forms of one degree: p, r, p^{-1}
and the exact blocks have degree 0, b2 degree 1 and c2 degree 2.  The row
of signed maximal-order Pfaffians of b2 generates I, and so does the
explicit row read off p^{-1} [r | E].  Dropping the pure y,z part of phi
keeps p and sets T, the last n rows of r, to zero, so the reduction's
p^{-1} r~ = p^{-1} r - (p^{-1} E) T needs no elimination (``_reduction``);
the two presentations are conjugate by a constant unipotent pair Theta
whose off-diagonal block is T, which ``theta_conjugation_check`` proves
slice by slice on int rows.  No matrix in this module is stacked from
blocks: each is written by index into int rows.

When n is even and A' is invertible, the quadratic path resolves
R/J for J = ann(phi): c2 = B^T (A')^{-1} B + x*D is an alternating matrix of
quadratic forms whose signed maximal-order Pfaffians generate J.

No Pfaffian of forms is computed: both Pfaffian rows are read off the
explicit row g, proven by the one product g b2.  Let m = 2n + 1, b1 the row
of the (-1)^j Pf(b2 without row and column j), c1 that of c2, and
eps_n = (-1)^(n(n-1)/2).

Lemma (any field).  If g b2 = 0, then b1 = eps_n g.  If moreover n is even
and A' is invertible, then c1 = (eps_n / Pf(A')) g[n:], the last n + 1
entries.

Proof.  b1 b2 = 0, an identity of odd alternating matrices.  At the point
(0, 1, 0) the blocks x A', x B1 and x (D0 - D0^T) vanish and
B2 = [z I_n | 0] - [0 | y I_n] is [0 | -I_n], whatever phi is, so b2 is
[[0, B2], [-B2^T, 0]], of rank m - 1.  A specialization cannot raise the
rank, and an odd alternating matrix has rank at most m - 1, so b2 has rank
m - 1 over K = k(x, y, z): its left kernel is a line, and g, nonzero, spans
it.  So b1 = rho g for some rho in K.  The entries of g are coprime.  Those at
mu = y^n and z^n are y^n - x h and z^n - x h'; a common factor f of degree
>= 1 restricts at x = 0 to a common divisor of y^n and z^n, a constant,
which is 0 as f is homogeneous; so x divides f, but x does not divide
y^n - x h.  With rho = a / b in lowest terms, b divides every a g_j, so
every g_j, and b is a unit: rho is a polynomial, and a constant, as b1 and
g are forms of degree n.  At (0, 1, 0), g is e_n (y^n comes first among
the mu), and b1_n = (-1)^n Pf([[0, -I_n], [I_n, 0]])
= (-1)^n (-1)^(n(n-1)/2) det(-I_n) = eps_n.  So rho = eps_n.

For c1, let D = x (D0 - D0^T), the lower right block of b2.  Then
c2 / x = D + B^T (x A')^{-1} B is the Schur complement of x A' in b2, and
(c2 / x) without row and column i is that of x A' in b2 without n + i.
Pf([[P, Q], [-Q^T, S]]) = Pf(P) Pf(S + Q^T P^{-1} Q) gives
Pf(b2 without n + i) = Pf(x A') Pf((c2 / x) without i)
= Pf(A') Pf(c2 without i), and the signs (-1)^(n+i) and (-1)^i agree as n
is even.  So b1[n:] = Pf(A') c1, and c1 = (eps_n / Pf(A')) g[n:].

So no row that the product has not proven is output: when g b2 != 0, b1
stays None and the quadratic path refuses to assemble.  When g b2 = 0, the
lemma gives g = eps_n b1, the report's unit explicit_vs_pfaffian_row, and
b1[n:] = Pf(A') c1, so ``verify`` recomputes neither; the oracle's ideal
certificate stays the independent check.

All index bookkeeping ("delete row n+1 and column 1", "rightmost n columns")
is kept in one place here and pinned by unit tests against the n = 2 worked
instance, since off-by-one deletions are the dominant bug risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import add, sub
from typing import List, Optional, Tuple

from . import linalg
from .linalg import Matrix, catalecticants
from .poly import ONE, DualElement, X, Y, Z, monomials_of_degree
from .residues import product
from .scalars import Field, Scalar

Rows = List[List[int]]


def _infer_n(phi: DualElement) -> int:
    if phi.degree % 2 == 0 or phi.degree < 1:
        raise ValueError(
            f"inverse system must have odd degree 2n-1, got degree {phi.degree}")
    return (phi.degree + 1) // 2


def build_p_r(phi: DualElement, n: int) -> Tuple[Matrix, Matrix]:
    """The two catalecticant matrices of a degree-(2n-1) dual element:
    p[i][j] = phi(x * m_i * m_j) over the degree-(n-1) monomial basis, the
    catalecticant of phi on the rows x * m_i, which is the degree-(n-1)
    catalecticant of x(phi); and r[i][j] = phi(m_i * m0_j) with m0_j
    running over the degree-n monomials in y, z alone."""
    if phi.degree != 2 * n - 1:
        raise ValueError(f"expected degree {2 * n - 1}, got {phi.degree}")
    mid = monomials_of_degree(n - 1)
    return tuple(catalecticants(phi, ([X * m for m in mid], n - 1, False),
                                (mid, n, True)))


@dataclass
class LinearPresentation:
    """Everything the linear path produces: catalecticants, p^{-1} r and
    p^{-1} E (and p^{-1} itself only when asked for), the exact blocks,
    the alternating presentation matrix b2, its Pfaffian row b1 and the
    explicit generator row, a 1 x (2n+1) matrix.  b1 is None unless it was
    asked for and proven by g b2 = 0 (see the module docstring)."""

    n: int
    field: Field
    phi: DualElement
    p: Matrix
    r: Matrix
    p_rank: int
    linearly_presented: bool
    p_inv: Optional[Matrix] = None
    p_inv_r: Optional[Matrix] = None
    p_inv_e: Optional[Matrix] = None
    A0: Optional[Matrix] = None
    A_prime: Optional[Matrix] = None
    B0: Optional[Matrix] = None
    B1: Optional[Matrix] = None
    B2: Optional[Matrix] = None
    D0: Optional[Matrix] = None
    A: Optional[Matrix] = None
    B: Optional[Matrix] = None
    D: Optional[Matrix] = None
    b2: Optional[Matrix] = None
    b1: Optional[Matrix] = None
    generator_row: Optional[Matrix] = None


def _eps(n: int) -> int:
    """The sign eps_n = (-1)^(n(n-1)/2) of b1 = eps_n g."""
    return -1 if n * (n - 1) // 2 % 2 else 1


def build_linear_presentation(phi: DualElement, with_pfaffian_row: bool = True,
                              with_inverse: bool = False) -> LinearPresentation:
    """Assemble the linear presentation of ann(x(phi)) when p is invertible;
    otherwise report the rank of p and stop (that outcome means the ideal is
    not linearly presented).  n is read off the degree 2n-1 of phi.  The
    blocks read p^{-1} only through p^{-1} r and p^{-1} E: one
    ``linalg.solve`` against [r | E], or ``with_inverse``, for a report that
    writes p^{-1}, read off p^{-1}."""
    n = _infer_n(phi)
    p, r = build_p_r(phi, n)
    N, L, p_inv = p.rows, r.L, None
    if with_inverse:
        res = linalg.invert(p)
        rank, p_inv = res.rank, res.inverse
    else:
        rank, solved = linalg.solve(p, Matrix._from_ints(phi.field, [
            row + [L * (i - N + n == j) for j in range(n)]
            for i, row in enumerate(_rows_over(r, L))], 2 * n + 1, L))
    if rank < N:
        return LinearPresentation(n, phi.field, phi, p, r, rank, False)
    if p_inv is None:
        p_inv_r = solved.take_cols(range(n + 1))
        p_inv_e = solved.take_cols(range(n + 1, 2 * n + 1))
    else:
        # p^{-1} r is the transpose of r^T p^{-1}, p being symmetric
        p_inv_r = (r.transpose() @ p_inv).transpose()
        p_inv_e = p_inv.take_cols(range(N - n, N))
    return _assemble(phi, n, p, r, p_inv_r, p_inv_e, p_inv, with_pfaffian_row)


def reduced_presentation(lin: LinearPresentation) -> LinearPresentation:
    """The linear presentation of ``reduced_inverse_system(lin.phi)``,
    without its Pfaffian row, from p, r, p^{-1} r and p^{-1} E of ``lin``:
    every entry phi(x * m_i * m_j) of p is a coefficient on a monomial
    containing x, and the reduction keeps those, so both presentations have
    the same p, and r~ and p^{-1} r~ are read off ``_reduction``.  Raises
    ValueError when p is singular."""
    q, Lr, r_tilde, T, L, R, W, WT = _reduction(lin)
    fld, n = lin.field, lin.n
    return _assemble(reduced_inverse_system(lin.phi), n, lin.p,
                     Matrix._from_ints(fld, r_tilde, n + 1, Lr),
                     Matrix._from_ints(fld, R, n + 1, L), lin.p_inv_e,
                     lin.p_inv, False)


def _reduction(lin: LinearPresentation) -> tuple:
    """(q, L_r, r~, T, L, R~, W, W T), the reduction of ``lin`` as int
    rows, q the field's modulus (0 over Q), R~ and W residues over GF(q).
    r~, r with its x-free last n rows T set to zero, and T are over L_r,
    r's L.  W T, of W = p^{-1} E over the common L_0 of p^{-1} r and
    p^{-1} E, is over L = L_0 L_r, and so are W and R~, the rows of
    p^{-1} r~ = p^{-1} r - (p^{-1} E) T.  Raises ValueError when p is
    singular."""
    if not lin.linearly_presented:
        raise ValueError(f"p is singular (rank {lin.p_rank}); "
                         "the reduction needs an invertible p")
    n, r, q = lin.n, lin.r, getattr(lin.field, "p", 0)
    L0 = math.lcm(lin.p_inv_r.L, lin.p_inv_e.L)
    L, rows = L0 * r.L, _rows_over(r, r.L)
    T = rows[len(rows) - n:]
    WT = product({ONE: _rows_over(lin.p_inv_e, L0)}, {ONE: T}, n + 1, q)[ONE]
    R = [[(a - b) % q if q else a - b for a, b in zip(y, w)]
         for y, w in zip(_rows_over(lin.p_inv_r, L), WT)]
    return (q, r.L, rows[:len(rows) - n] + [[0] * (n + 1)] * n, T, L, R,
            _rows_over(lin.p_inv_e, L), WT)


def _rows_over(m: Matrix, L: int) -> Rows:
    """The int rows of L m, for a matrix m of scalars whose L divides L:
    zero rows where m has no slice."""
    s = m.slices.get(ONE)
    if s is None:
        return [[0] * m.cols for _ in range(m.rows)]
    f = L // m.L
    return s if f == 1 else [[x * f for x in r] for r in s]


def _alternating(P: Rows, Q: Rows, S: Rows) -> Rows:
    """The int rows of [[P, Q], [-Q^T, S]]."""
    return ([a + b for a, b in zip(P, Q)]
            + [[-x for x in c] + d for c, d in zip(zip(*Q), S)])


def _minus_transpose(M: Rows) -> Rows:
    return [list(map(sub, r, c)) for r, c in zip(M, zip(*M))]


def _blocks(q: int, n: int, r: Rows, Lr: int, R: Rows, W: Rows,
            L: int) -> tuple:
    """(L', A0, A', B0, B1, D0, D0 - D0^T, shift, b2): the exact blocks and
    b2's slices as int rows over L' = L_r L, from those of r over L_r and
    of R = p^{-1} r and W = p^{-1} E over L, all residues over GF(q), q > 0
    (q = 0 over Q): A0, B0 and D0 stay residues, the other blocks may hold
    negatives.

    A0 is r^T p^{-1} r without row n and column 0, A' = A0 - A0^T, B0 the
    last n columns of r^T p^{-1}, the transpose of the last n rows of
    p^{-1} r, B1 = [0 | B0 without row n] - [B0 without row 0 | 0], and
    D0 = [[0, the last n x n corner of p^{-1}], [0, 0]], that corner being
    the last n rows of p^{-1} E.  The slice of b2 at x is
    [[A', B1], [-B1^T, D0 - D0^T]], and those at z and y hold the constant
    shift B2 = z [I_n | 0] - y [0 | I_n] and -B2^T."""
    N = len(R)
    P = product({ONE: [list(c) for c in zip(*r)]}, {ONE: R}, n + 1, q)[ONE]
    if Lr != 1:
        R, W = ([[x * Lr for x in row] for row in M] for M in (R, W))
        L *= Lr
    A0 = [row[1:] for row in P[:n]]
    Ap = _minus_transpose(A0)
    B0 = [list(c) for c in zip(*R[N - n:])]
    B1 = [list(map(sub, [0] + lo, hi + [0])) for lo, hi in zip(B0, B0[1:])]
    D0 = [[0] + row for row in W[N - n:]] + [[0] * (n + 1)]
    Dx = _minus_transpose(D0)
    shift = {Z: [[L * (j == i) for j in range(n + 1)] for i in range(n)],
             Y: [[-L * (j == i + 1) for j in range(n + 1)] for i in range(n)]}
    b2 = {X: _alternating(Ap, B1, Dx), **{
        u: _alternating([[0] * n] * n, s, [[0] * (n + 1)] * (n + 1))
        for u, s in shift.items()}}
    return L, A0, Ap, B0, B1, D0, Dx, shift, b2


def _assemble(phi: DualElement, n: int, p: Matrix, r: Matrix,
              p_inv_r: Matrix, p_inv_e: Matrix, p_inv: Optional[Matrix],
              with_pfaffian_row: bool) -> LinearPresentation:
    """The exact blocks, b2, the explicit generator row g and (if asked) b1
    from p, r, p^{-1} r and p^{-1} E: b1 = eps_n g once g b2 = 0, else None.

    Every block is written by index into int rows over one common L
    (``_blocks``) and made canonical once (A0, B0 and D0 copy canonical
    entries, so only the blocks with a difference or a sign are reduced
    mod p)."""
    L0 = math.lcm(p_inv_r.L, p_inv_e.L)
    L, A0, Ap, B0, B1, D0, Dx, shift, b2 = _blocks(
        getattr(phi.field, "p", 0), n, _rows_over(r, r.L), r.L,
        _rows_over(p_inv_r, L0), _rows_over(p_inv_e, L0), L0)

    def made(degree: int, rows: int, cols: int, slices,
             reduce: bool = True) -> Matrix:
        return Matrix._result(phi.field, degree, rows, cols, L, slices, reduce)
    A_prime = made(0, n, n, {ONE: Ap})
    b2 = made(1, 2 * n + 1, 2 * n + 1, b2)
    row = explicit_generators(p_inv_r, p_inv_e)
    b1 = None
    if with_pfaffian_row and (row @ b2).is_zero():
        b1 = row if _eps(n) == 1 else row.scaled(-1)
    return LinearPresentation(
        n, phi.field, phi, p, r, p.rows, True, p_inv, p_inv_r, p_inv_e,
        A0=made(0, n, n, {ONE: A0}, False), A_prime=A_prime,
        B0=made(0, n + 1, n, {ONE: B0}, False),
        B1=made(0, n, n + 1, {ONE: B1}), B2=made(1, n, n + 1, shift),
        D0=made(0, n + 1, n + 1, {ONE: D0}, False),
        A=A_prime.times_monomial(X), B=made(1, n, n + 1, {X: B1, **shift}),
        D=made(1, n + 1, n + 1, {X: Dx}), b2=b2, b1=b1, generator_row=row)


def explicit_generators(p_inv_r: Matrix, p_inv_e: Matrix) -> Matrix:
    """The 2n+1 degree-n generators of ann(x(phi)) written directly, without
    Pfaffians, as a 1 x (2n+1) matrix: first x * p^{-1}(nu) for nu running
    over the dual basis of the degree-(n-1) monomials in y, z; then
    mu - x * p^{-1}(mu(phi)) for mu running over the degree-n monomials in
    y, z.  On coordinates in the fixed monomial order, where x-free
    monomials come last, the p^{-1}(nu) are the columns of p^{-1} E, E the
    last n columns of I, and mu(phi) is the column phi(m_i * mu) of r, so
    the p^{-1}(mu(phi)) are the columns of p^{-1} r.  So the row is
    sum_i u_i c_i, u_i the i-th of x m_1, ..., x m_N, mu_1, ..., mu_{n+1},
    and c_i its slice (``_explicit_row``).
    ``LinearPresentation.generator_row`` keeps this row."""
    L = math.lcm(p_inv_r.L, p_inv_e.L)
    return _explicit_row(p_inv_r.field, p_inv_e.cols, _rows_over(p_inv_r, L),
                         _rows_over(p_inv_e, L), L)


def _explicit_row(field: Field, n: int, R: Rows, W: Rows, L: int) -> Matrix:
    """The explicit row from the int rows R of p^{-1} r and W of p^{-1} E
    over L, made canonical once: its slice at the i-th monomial is
    c_i = W[i] + [-x for x in R[i]] for i < N, and
    c_{N+k} = [0] * n + L e_k."""
    monos = ([X * m for m in monomials_of_degree(n - 1)]
             + monomials_of_degree(n, x_free=True))
    return Matrix._result(field, n, 1, 2 * n + 1, L, {u: [c] for u, c in zip(
        monos, [w + [-x for x in v] for v, w in zip(R, W)]
        + [[0] * n + [L * (j == k) for j in range(n + 1)]
           for k in range(n + 1)])}, reduce=True)


def reduced_inverse_system(phi: DualElement) -> DualElement:
    """Drop every coefficient on a pure y,z dual monomial.  The result pairs
    to zero with all of Sym(y,z) in top degree and has the same contraction
    by x, hence the same linear-path ideal."""
    return DualElement(phi.field, phi.degree,
                       {m: c for m, c in phi.coeffs.items() if m.a > 0})


def theta_conjugation_check(lin: LinearPresentation) -> bool:
    """Verify that the presentations of phi and of its reduction are
    conjugate, Theta1 b2 = b2~ Theta2 and g~ Theta1 = g: b2 and the explicit
    row g are read off ``lin``, b2~ and g~ written from its ``_reduction``.
    Raises ValueError when p is singular.

    Theta1 = I - [[0, T], [0, 0]] and Theta2 = I + [[0, 0], [T^T, 0]], T
    the last n rows of r, are constant, so the slice at u of Theta1 b2 is
    Theta1 b2_u: the identities hold exactly when, for every slice u,

        b2_u - [T b2_u[n:]; 0] = b2~_u + [b2~_u[:, n:] T^T | 0]  and
        g~_u - [0 | g~_u[:n] T] = g_u,

    the slices of the full products term by term, so this is the same
    check, made on int rows with no Theta, no second presentation and no
    product of forms.  b2~ is alternating by construction, so the right
    side is the transpose of -(b2~_u + [T b2~_u[n:]; 0]): T b2_u[n:] and
    T b2~_u[n:] for all u are one product of T with the slices side by
    side, exact as b2~ holds negatives.  g~_u[:n] is the row of W = p^{-1} E
    at an x monomial u and zero at the others, so g~[:n] T is the
    reduction's W T.  Each side is made canonical once, which reduces it
    mod q over GF(q), and compared as a matrix."""
    q, Lr, r_tilde, T, L, R, W, WT = _reduction(lin)
    n, m, fld = lin.n, 2 * lin.n + 1, lin.field
    Lt, *_, tilde = _blocks(q, n, r_tilde, Lr, R, W, L)
    zero = [[0] * m] * m
    S = ([lin.b2.slices.get(u, zero) for u in (X, Y, Z)]
         + [tilde[u] for u in (X, Y, Z)])
    TS = product({ONE: T}, {ONE: [
        list(chain.from_iterable(s[n + i] for s in S)) for i in range(n + 1)]},
        6 * m)[ONE]
    # Lr b2_u - [T b2_u[n:]; 0], and -Lr b2~_u - [T b2~_u[n:]; 0], the
    # transpose of the other side
    left, right = {}, {}
    for k, s in enumerate(S):
        a, side = (Lr, left) if k < 3 else (-Lr, right)
        t = [row[k * m:(k + 1) * m] for row in TS] + zero
        side[(X, Y, Z)[k % 3]] = [[a * x - y for x, y in zip(*rows)]
                                  for rows in zip(s, t)]
    if (Matrix._result(fld, 1, m, m, Lr * lin.b2.L, left, True)
            != Matrix._result(fld, 1, m, m, Lr * Lt, right, True).transpose()):
        return False
    # g~_u - [0 | g~_u[:n] T] is [W[i] | -R~[i] - (W T)[i]] at the i-th x
    # monomial u, the explicit slice of R~ + W T, and g~_u at the others
    return lin.generator_row == _explicit_row(
        fld, n, [list(map(add, a, b)) for a, b in zip(R, WT)], W, L)


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
    c2: Optional[Matrix] = None
    c1: Optional[Matrix] = None
    generators: Optional[Matrix] = None
    unit: Optional[Scalar] = None
    a_prime_pfaffian: Optional[Scalar] = None


def build_quadratic_presentation(lin: LinearPresentation) -> QuadraticPresentation:
    """c2 = B^T (A')^{-1} B + x D when A' is invertible (n even); its row of
    signed maximal-order Pfaffians c1 = u g[n:], with the unit
    u = eps_n / Pf(A') (see the module docstring), and the last n+1 explicit
    generators g[n:] are two generator rows of ann(phi).  Raises ValueError
    when c2 is assembled but ``lin`` has no proven b1."""
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
    if lin.b1 is None:
        raise ValueError("c1 is read off b1, which was not built or not "
                         "proven: g b2 != 0")
    c2 = _c2(lin, res.inverse)
    pf = linalg.pfaffian(lin.A_prime)
    unit = fld.of(_eps(n)) / pf
    gens = lin.generator_row.take_cols(range(n, 2 * n + 1))
    return QuadraticPresentation(n, fld, True, n, "", c2, gens.scaled(unit),
                                 gens, unit, pf)


def _c2(lin: LinearPresentation, inv: Matrix) -> Matrix:
    """c2 = B^T M B + x D, M = A'^{-1}, from the two products K = M B1 and
    B1^T K, written by index.  B = x B1 + y S_y + z S_z with the shift
    blocks S_y = -[0 | I_n] and S_z = [I_n | 0] of ``_assemble``, and M is
    alternating, as A' is.  So the slice at x^2 is B1^T K + D0 - D0^T,
    that at xv is S_v^T K - (S_v^T K)^T, those at y^2 and z^2 are M moved
    one row and column down or not, and that at yz is
    S_y^T M S_z + S_z^T M S_y = P^T - P, P = -S_y^T M S_z being M moved
    one row down."""
    n = lin.n
    K = inv @ lin.B1
    BtK = lin.B1.transpose() @ K
    L = math.lcm(K.L, BtK.L, inv.L, lin.D0.L)
    M, Kr = _rows_over(inv, L), _rows_over(K, L)
    zero = [[0] * (n + 1)]
    slices = {
        X * X: [list(map(add, r, d)) for r, d in zip(
            _rows_over(BtK, L), _minus_transpose(_rows_over(lin.D0, L)))],
        X * Y: _minus_transpose(list(zip(*zero + Kr))),
        X * Z: _minus_transpose(Kr + zero),
        Y * Y: zero + [[0] + r for r in M],
        Y * Z: _minus_transpose(list(zip(*zero + [r + [0] for r in M]))),
        Z * Z: [r + [0] for r in M] + zero}
    return Matrix._result(lin.field, 2, n + 1, n + 1, L, slices, reduce=True)


def linear_betti(n: int) -> List[List[int]]:
    """(degree, rank) pairs of the resolution shape in the linear case."""
    return [[0, 1], [n, 2 * n + 1], [n + 1, 2 * n + 1], [2 * n + 1, 1]]


def quadratic_betti(n: int) -> List[List[int]]:
    """(degree, rank) pairs of the resolution shape in the quadratic case."""
    return [[0, 1], [n, n + 1], [n + 2, n + 1], [2 * n + 2, 1]]


# The report's blocks in JSON order; one that was not built is left out.
_REPORT_BLOCKS = ("p", "r", "p_inv", "A0", "A_prime", "B0", "B1", "B2", "D0",
                  "A", "B", "D", "b2", "b1")


def resolution_report(lin: LinearPresentation,
                      quad: Optional[QuadraticPresentation] = None) -> dict:
    """A JSON-ready record of one run: all named blocks, flags, the units
    of the lemma (eps_n, eps_n / Pf(A') and Pf(A')) and the graded Betti
    shapes.  An entry's text depends on no other (``Matrix.to_strings``),
    so A, B and D are cut from the texts of b2 = [[A, B], [-B^T, D]], and
    b1's are g's when b1 is g: each text is written once."""
    cut: dict = {}
    if lin.linearly_presented:
        n, b2, g = lin.n, lin.b2.to_strings(), lin.generator_row.to_strings()
        cut = {"A": [r[:n] for r in b2[:n]], "B": [r[n:] for r in b2[:n]],
               "D": [r[n:] for r in b2[n:]], "b2": b2,
               "b1": g if lin.b1 is lin.generator_row else None}
    blocks = {name: cut.get(name) or getattr(lin, name).to_strings()
              for name in _REPORT_BLOCKS if getattr(lin, name) is not None}
    out: dict = {
        "field": lin.field.tag,
        "n": lin.n,
        "inverse_system_degree": lin.phi.degree,
        "linearly_presented": lin.linearly_presented,
        "p_rank": lin.p_rank,
        "blocks": blocks,
    }
    if not lin.linearly_presented:
        return out
    out["generators"] = {"explicit": g[0]}
    if lin.b1 is not None:
        out["units"] = {
            "explicit_vs_pfaffian_row": lin.field.format(
                lin.field.of(_eps(lin.n))),
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
            # the last n + 1 explicit generators
            out["generators"]["quadratic"] = g[0][lin.n:]
            out.setdefault("units", {})["pfaffian_row_vs_generators"] = \
                lin.field.format(quad.unit)
            out["units"]["a_prime_pfaffian"] = lin.field.format(quad.a_prime_pfaffian)
            out["betti"]["quadratic"] = quadratic_betti(lin.n)
    return out

"""Kernels on plain residues mod a prime q, with no matrix type: the
Gauss-Jordan elimination of ``linalg`` over GF(p) and for the modular
ranks (``rref_mod``, on rows packed into ints), and the interpolation of
ternary forms from their values at the lattice points, the last step of
the modular Pfaffian kernel (``interpolate_mod``).
"""

from __future__ import annotations

import struct
from itertools import islice
from operator import mul
from typing import List, Tuple

from .poly import monomials_of_degree

_WORD = (1 << 64) - 1


def rref_mod(rows: List[List[int]], q: int, full: bool = True
             ) -> Tuple[List[List[int]], List[int], int]:
    """Gauss-Jordan on plain residues mod q, in place: (rows, pivot
    columns, d mod q), d the product of the pivots times the sign of the
    row swaps.  With ``full`` false only the rows below each pivot are
    cleared, which leaves a row echelon form: enough for the rank.

    A row stays a list until its first update; from then on it is one int
    with column j in the w-bit slot j, packed and unpacked as little-endian
    64-bit words by ``struct`` and ``int.from_bytes``/``to_bytes``, all in
    C.  Each update adds (q - f) t, t the scaled pivot row packed once per
    step, so a slot only grows: from below q by at most (q - 1)^2 per
    pivot, which w, whole 64-bit words, holds with a bit to spare
    (J.-G. Dumas, P. Giorgi, C. Pernet, ACM TOMS 35, 2008, delay the
    reduction the same way).  Reduction waits until a row is read whole:
    as the next pivot row, which goes back to a list, or at the end."""
    n, m = len(rows), len(rows[0]) if rows else 0
    bound = min(n, m) * (q - 1) ** 2 + q
    words = bound.bit_length() // 64 + 1
    w = 64 * words
    mask = (1 << w) - 1
    assert bound >> (w - 1) == 0
    spread = ((q - 1).bit_length() + 63) // 64  # words per residue

    def pack(vals: List[int]) -> int:
        if words > 1:
            vals, spaced = [0] * (words * m), vals
            for k in range(spread):
                vals[k::words] = (spaced if spread == 1 else
                                  [v >> 64 * k & _WORD for v in spaced])
        return int.from_bytes(struct.pack(f"<{words * m}Q", *vals), "little")

    def unpack(x: int, c: int = 0) -> List[int]:
        """The raw slots c.. of x."""
        n_words = words * (m - c)
        a = struct.unpack(f"<{n_words}Q", (x >> c * w).to_bytes(8 * n_words,
                                                                 "little"))
        vals = list(a[words - 1::words])
        for k in range(words - 2, -1, -1):
            vals = [v << 64 | y for v, y in zip(vals, a[k::words])]
        return vals

    pivots: List[int] = []
    d = 1
    for c in range(m):
        r, s = len(pivots), c * w
        if r == n:
            break
        for i in range(r, n):
            x = rows[i]
            p = x[c] if type(x) is list else (x >> s & mask) % q
            if p:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = x, rows[r]
            d = -d
        d = d * p % q
        inv = pow(p, -1, q)
        # the pivot row is zero left of c
        rows[r] = row = [0] * c + [e * inv % q for e in (
            x[c:] if type(x) is list else unpack(x, c))]
        t = None
        for i in range(0 if full else r + 1, n):
            x = rows[i]
            f = x[c] if type(x) is list else (x >> s & mask) % q
            if f and i != r:
                t = pack(row) if t is None else t
                rows[i] = (pack(x) if type(x) is list else x) + (q - f) * t
        pivots.append(c)
    rows[:] = [x if type(x) is list else [v % q for v in unpack(x)]
               for x in rows]
    return rows, pivots, d % q


def interpolate_mod(values: List[List[int]], degree: int, q: int
                    ) -> List[List[int]]:
    """The coefficient vectors, on the degree-D monomials in the fixed
    order, of the forms of degree D = ``degree`` whose values at the points
    (1, a, b), a + b <= D, taken by b and then by a, are the lists in
    ``values``, one form per position of those lists; q > D.

    With f(y, z) the form at x = 1, forward differences along y in each row
    b, then along z, leave the Newton coefficients Delta_y^i Delta_z^j f(0, 0)
    of f = sum_(i+j<=D) Delta^(i,j) f(0, 0) C(y, i) C(z, j); row b needs
    only its D - b + 1 points, since Delta_y^i f(0, b) uses a = 0, ..., i.
    Each C(y, i) is y's falling factorial of order i over i!, and the table
    of falling-factorial coefficients turns the result into monomial
    coefficients: O(D^3) vector operations in all."""
    D = degree
    it = iter(values)
    grid = [list(islice(it, D + 1 - b)) for b in range(D + 1)]

    def differences(seq: list) -> list:
        for level in range(1, len(seq)):
            for t in range(len(seq) - 1, level - 1, -1):
                seq[t] = [(x - y) % q for x, y in zip(seq[t], seq[t - 1])]
        return seq

    def combine(weights: List[int], vectors: List[List[int]]) -> List[int]:
        return [sum(map(mul, weights, c)) % q for c in zip(*vectors)]

    for row in grid:
        differences(row)
    inv_fact = [1]
    falling = [[1]]
    for i in range(1, D + 1):
        inv_fact.append(inv_fact[-1] * pow(i, -1, q) % q)
        prev = falling[-1] + [0]
        falling.append([((prev[k - 1] if k else 0) - (i - 1) * prev[k]) % q
                        for k in range(i + 1)])
    # newton[i][j] = Delta_y^i Delta_z^j f(0, 0) / (i! j!)
    newton = [[[x * inv_fact[i] * inv_fact[j] % q for x in v]
               for j, v in enumerate(differences(
                   [grid[b][i] for b in range(D + 1 - i)]))]
              for i in range(D + 1)]
    # by_y[k][j]: the coefficient of y^k times z's falling factorial of order j
    by_y = [[combine([falling[i][k] for i in range(k, D + 1 - j)],
                     [newton[i][j] for i in range(k, D + 1 - j)])
             for j in range(D + 1 - k)] for k in range(D + 1)]
    coeffs = {(k, l): combine([falling[j][l] for j in range(l, D + 1 - k)],
                              [by_y[k][j] for j in range(l, D + 1 - k)])
              for k in range(D + 1) for l in range(D + 1 - k)}
    monos = monomials_of_degree(D)
    return [[coeffs[t.b, t.c][r] for t in monos]
            for r in range(len(grid[0][0]))]

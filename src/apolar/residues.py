"""The kernel on plain residues mod a prime q, with no matrix type: the
Gauss-Jordan elimination of ``linalg`` over GF(p) and for the modular
ranks (``rref_mod``, on rows packed into ints).
"""

from __future__ import annotations

import struct
from typing import List, Tuple

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

"""The kernels on plain ints, with no matrix type: the Gauss-Jordan
elimination of ``linalg`` over GF(p) and for the modular ranks
(``rref_mod``), the product of int slices over GF(p) and Q (``product``),
and the RREF over Q lifted from residues (``rref_lift``).  The first two
work on rows packed into ints: column j of a row sits in the w-bit slot j
of one int, w a whole number of 64-bit words (``slot_words``), laid out as
bytes by ``pack`` and read back by ``unpack``, so that a row update or a
row times a scalar is one int operation, and reduction waits until a row
is read whole (J.-G. Dumas, P. Giorgi, C. Pernet, ACM TOMS 35, 2008, delay
the reduction the same way; J.-G. Dumas, L. Fousse, B. Salvy, J. Symb.
Comput. 46, 2011, pack several residues per machine word).

The lift.  ``rref_lift`` runs ``rref_mod`` on an int matrix A modulo the
``LIFT_PRIMES`` in turn, combines the entries of the reduced rows at the
non-pivot columns by CRT, and rational-reconstructs them over one common
denominator D (P. S. Wang, SYMSAC 1981; M. Monagan, ISSAC 2004).  A
candidate counts only once one exact product proves it: the vector of
each non-pivot column f, D at f and minus the candidate at the pivot
columns before f, must lie in the kernel of A.  Then every non-pivot
column is a rational combination of earlier pivot columns, which are
independent over Q because they are modulo q; so the pivots are those of
the rational RREF, and the candidate, as the unique such combination, is
its entries.  The lift answers None when the pivots differ between two
primes or no candidate passes within the primes; ``linalg`` then takes the
fraction-free path.
"""

from __future__ import annotations

import math
import struct
from functools import partial
from itertools import chain, compress
from operator import mul
from typing import Dict, List, Optional, Tuple

# The primes of ``rref_lift``, the largest below 2^28: a slot of ``rref_mod``
# holds min(rows, cols) (q - 1)^2 + q in one 64-bit word for fewer than 128
# rows.  Past the last one the lift gives up.
LIFT_PRIMES = (268435399, 268435367, 268435361, 268435337, 268435331,
               268435313)


def slot_words(bound: int) -> int:
    """The 64-bit words of a slot that holds every value of magnitude below
    ``bound`` with a bit to spare, the sign bit of a signed sum."""
    return bound.bit_length() // 64 + 1


def pack(vals: List[int], words: int) -> bytes:
    """The values as little-endian slots of ``words`` 64-bit words each, in
    two's complement, so |v| < 2^(64 words - 1); ``int.from_bytes`` of the
    slots of a row is one int with value j in slot j, a value v below 0
    reading as v + 2^(64 words).  Built in C: by ``struct`` for one word,
    or for values that all fit in the lowest word of their slot, and else
    by ``int.to_bytes``."""
    if words == 1:
        return struct.pack(f"<{len(vals)}q", *vals)
    if min(vals) >= 0 and not max(vals) >> 64:
        spaced = [0] * (words * len(vals))
        spaced[::words] = vals
        return struct.pack(f"<{len(spaced)}Q", *spaced)
    return b"".join(map(partial(int.to_bytes, length=8 * words,
                                byteorder="little", signed=True), vals))


def unpack(raw: bytes, words: int) -> List[int]:
    """The values in the slots of ``words`` words of raw, read as two's
    complement: the inverse of ``pack``."""
    count = len(raw) // (8 * words)
    a = struct.unpack(
        f"<{count}q" if words == 1 else "<" + ("Q" * (words - 1) + "q") * count,
        raw)
    vals = list(a[words - 1::words])
    for k in range(words - 2, -1, -1):
        vals = [v << 64 | y for v, y in zip(vals, a[k::words])]
    return vals


def rref_mod(rows: List[List[int]], q: int, full: bool = True
             ) -> Tuple[List[List[int]], List[int], int]:
    """Gauss-Jordan on plain residues mod q, in place: (rows, pivot
    columns, d mod q), d the product of the pivots times the sign of the
    row swaps.  With ``full`` false only the rows below each pivot are
    cleared, which leaves a row echelon form: enough for the rank.

    A row stays a list until its first update; from then on it is one
    packed int.  Each update adds (q - f) t, t the scaled pivot row packed
    once per step, so a slot only grows: from below q by at most (q - 1)^2
    per pivot.  Reduction waits until a row is read whole: as the next
    pivot row, which goes back to a list, or at the end."""
    n, m = len(rows), len(rows[0]) if rows else 0
    bound = min(n, m) * (q - 1) ** 2 + q
    words = slot_words(bound)
    w = 64 * words
    mask = (1 << w) - 1
    assert bound >> (w - 1) == 0

    def to_int(vals: List[int]) -> int:
        return int.from_bytes(pack(vals, words), "little")

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
            x[c:] if type(x) is list else unpack((x >> s).to_bytes(
                8 * words * (m - c), "little"), words))]
        t = None
        for i in range(0 if full else r + 1, n):
            x = rows[i]
            f = x[c] if type(x) is list else (x >> s & mask) % q
            if f and i != r:
                t = to_int(row) if t is None else t
                rows[i] = (to_int(x) if type(x) is list else x) + (q - f) * t
        pivots.append(c)
    rows[:] = [x if type(x) is list else [v % q for v in unpack(
        x.to_bytes(8 * words * m, "little"), words)] for x in rows]
    return rows, pivots, d % q


def _magnitude(slices: Dict) -> int:
    return max(map(abs, chain.from_iterable(chain.from_iterable(
        slices.values()))))


def product(a: Dict, b: Dict, cols: int, q: int = 0) -> Dict:
    """sum_(u,v) uv A_u B_v for the int slices a = {u: A_u} and
    b = {v: B_v}, B_v with ``cols`` columns: residues mod q, or exact
    integers when q is 0.  The keys multiply with ``*``.

    Each row k of each B_v is packed once into P_(v,k); row i of the slice
    at uv gathers sum_k A_u[i][k] P_(v,k) over the nonzero A_u[i][k] only,
    and over every pair (u, v) with that product, before all rows are
    unpacked and reduced at once.  A slot then holds a sum of at most
    k * pairs terms, each of magnitude at most max|A| max|B|, with the sign
    bit spare.  Over GF(q) every value is at least 0, and max|A| max|B| is
    (q - 1)^2.  Over Q, bias holds h = 2^(w-1) in every slot: flipping the
    sign bits of a row packed in two's complement adds h to each slot, so
    the signed row sum_j B[k][j] 2^(w j) is (x ^ bias) - bias, and a sum s
    goes back to two's complement as (s + bias) ^ bias."""
    groups: Dict = {}
    for u, s in a.items():
        for v in b:
            groups.setdefault(u * v, []).append((s, v))
    if not groups:
        return {}
    k = len(next(iter(b.values())))
    bound = k * max(map(len, groups.values())) * (
        (q - 1) ** 2 if q else _magnitude(a) * _magnitude(b))
    words = slot_words(bound)
    assert bound >> (64 * words - 1) == 0
    h = 0 if q else 1 << (64 * words - 1)
    bias = int.from_bytes(h.to_bytes(8 * words, "little") * cols, "little")
    n = 8 * words * cols  # bytes of a packed row
    packed = {}
    for v, s in b.items():
        raw = pack(list(chain.from_iterable(s)), words)
        packed[v] = [(int.from_bytes(raw[i:i + n], "little") ^ bias) - bias
                     for i in range(0, len(raw), n)]
    sums: List[int] = []
    for pairs in groups.values():
        # row i of each A_u times the packed rows of its B_v, zeros skipped
        sums += map(sum, zip(*[
            [sum(map(mul, compress(r, r), compress(packed[v], r))) for r in s]
            for s, v in pairs]))
    flat = unpack(b"".join([((x + bias) ^ bias).to_bytes(n, "little")
                            for x in sums]), words)
    if q:
        flat = [v % q for v in flat]
    rows = [flat[i:i + cols] for i in range(0, len(flat), cols)]
    r = len(rows) // len(groups)
    return {uv: rows[i * r:(i + 1) * r] for i, uv in enumerate(groups)}


def _rational(y: int, M: int, N: int) -> Optional[Tuple[int, int]]:
    """(a, b) with a = b y mod M, |a| <= N and 0 < b <= N, by the
    half-extended Euclid on (M, y), stopped at the first remainder within
    N; None when its cofactor is not.  With 2 N^2 < M there is at most one
    such a / b in lowest terms."""
    r0, r1, t0, t1 = M, y % M, 0, 1
    while r1 > N:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if not 0 < abs(t1) <= N:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(U: List[List[int]], M: int
                 ) -> Optional[Tuple[List[List[int]], int]]:
    """(F, D), D > 0, with F = D U mod M, or None.  An entry u whose
    y = u D mod M lies within N = isqrt(M / 2) of 0 is taken as it is; any
    other is reconstructed as a / b with |a|, b <= N, and b then multiplies
    D and every entry so far."""
    N = math.isqrt(M // 2)
    D = 1
    out: List[List[int]] = []
    for row in U:
        new: List[int] = []
        out.append(new)
        for u in row:
            y = u * D % M
            if N < y < M - N:
                ab = _rational(y, M, N)
                if ab is None:
                    return None
                y, b = ab
                D *= b
                for r in out:
                    r[:] = [x * b for x in r]
            elif y > N:
                y -= M
            new.append(y)
    return out, D


def rref_lift(rows: List[List[int]]
              ) -> Optional[Tuple[List[List[int]], List[int], int]]:
    """(D R, pivot columns, D) for R the RREF over Q of the int rows, or
    None: the lift of the module docstring.  The rows are not changed."""
    if not rows or not rows[0]:
        return rows, [], 1
    cols = len(rows[0])
    M = 1
    for q in LIFT_PRIMES:
        red, piv, _ = rref_mod([[x % q for x in r] for r in rows], q)
        if M == 1:
            pivots, taken = piv, set(piv)
            free = [j for j in range(cols) if j not in taken]
            U = [[r[j] for j in free] for r in red[:len(pivots)]]
        elif piv != pivots:
            return None
        else:
            inv = pow(M, -1, q)
            U = [[u + M * ((r[j] - u) * inv % q) for u, j in zip(ur, free)]
                 for ur, r in zip(U, red)]
        M *= q
        candidate = _reconstruct(U, M)
        if candidate is None:
            continue
        F, D = candidate
        # with no free column the rank mod q, a lower bound, is full
        if free:
            V = [[0] * len(free) for _ in range(cols)]
            for j, f in enumerate(free):
                V[f][j] = D
            for c, x in zip(pivots, F):
                V[c] = [-v for v in x]
            if any(map(any, product({1: rows}, {1: V}, len(free))[1])):
                continue
        out = [[0] * cols for _ in rows]
        for row, c, x in zip(out, pivots, F):
            row[c] = D
            for f, v in zip(free, x):
                row[f] = v
        return out, pivots, D
    return None

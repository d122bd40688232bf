"""The kernels on plain ints, with no matrix type: the Gauss-Jordan
elimination of ``linalg`` over GF(p) and for the modular ranks
(``rref_mod``), the inverse by Gauss-Jordan in place (``invert_mod``), the
product of int slices over GF(p) and Q (``product``), and the RREF and the
inverse over Q lifted from residues (``rref_lift``, ``invert_lift``).  The
first three
work on vectors packed into ints: entry j sits in the w-bit slot j of one
int, w a whole number of 64-bit words (``slot_words``), laid out as bytes
by ``pack`` and read back by ``unpack``, so that a row update or a vector
times a scalar is one int operation, and reduction waits until a vector is
read whole (J.-G. Dumas, P. Giorgi, C. Pernet, ACM TOMS 35, 2008, delay
the reduction the same way; J.-G. Dumas, L. Fousse, B. Salvy, J. Symb.
Comput. 46, 2011, pack several residues per machine word).

The product packs one of two ways.  Along the rows of each right slice,
it takes one multiply-add per nonzero entry of the left slices and right
slice; along the monomials of the result, a slot per product uv of keys,
one per nonzero entry of the right slices and left row.  It counts both
from the nonzero entries and takes the one with fewer (``product``).  On
GF(32003) at n = 8, the explicit row times b2 takes the monomials, 304
against 1863 multiply-adds, and r^T p^{-1} the rows, 324 against 11664:
by each packing called alone, 0.44 against 0.58 ms and 0.14 against
0.93 ms, the minimum of 60 interleaved calls on a 2-core VM.

The inverse.  ``invert_mod`` works at width N, where ``rref_mod`` on
[m | I] works at 2N: each cleared column c stores column c of the inverse.
With p the pivot, inv = p^{-1} mod q and f the entry of another row at c,
a row update is that of ``rref_mod``, x + (q - f) t, t the pivot row
scaled by inv, so the slot bound stays N (q - 1)^2 + q; only slot c of t
holds (1 + inv) mod q, and f + (q - f)(1 + inv) = q + (q - f) inv leaves
-f inv mod q there, the entry of the inverse.  The stored pivot row holds
inv at c.  On GF(32003), the 36 x 36 p at n = 8 takes 0.86 ms against
1.39 ms for ``rref_mod`` on [p | I], and the family's 78 x 78 p at n = 12
4.1 against 7.2 ms per lift prime (the minimum of 20-60 calls on a 2-core
VM).

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
fraction-free path.  ``invert_lift`` runs the same loop (``_lift``) on the
residues of ``invert_mod``, times L for the int rows of L m, so that it
reconstructs the entries of m^{-1}, as ``rref_lift`` does on [L m | L I]:
a candidate F over D counts only once (L m) F = D L I holds exactly,
which makes F / D the inverse of m; a matrix singular modulo a prime
answers None at once.
"""

from __future__ import annotations

import math
import struct
from functools import partial
from itertools import chain, compress, repeat
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
    """The largest |entry|, and at least 1: a slot holds the entries too."""
    return max(map(abs, chain.from_iterable(chain.from_iterable(
        slices.values()))), default=0) or 1


def product(a: Dict, b: Dict, cols: int, q: int = 0) -> Dict:
    """sum_(u,v) uv A_u B_v for the int slices a = {u: A_u} and
    b = {v: B_v}, B_v with ``cols`` columns: residues mod q, or exact
    integers when q is 0.  The keys multiply with ``*``.

    Two packings, each one multiply-add per nonzero entry of one operand.
    Along the rows of B (``_by_rows``) each row k of each B_v is one int,
    and row i of the slice at uv is sum_k A_u[i][k] P_(v,k) over the
    nonzero A_u[i][k] of every pair (u, v) with that product: sum_u nnz(A_u)
    times the number of slices of b multiply-adds.  Along the monomials of
    the result (``_by_monomials``) each left row i and column k of each
    right slice v is one int G_(v,i,k), slot idx(uv) holding A_u[i][k],
    idx the order of the products uv, and entry (i, j) of every slice at
    once is sum_v sum_k B_v[k][j] G_(v,i,k) over the nonzero B_v[k][j]:
    the rows of A times nnz(B) multiply-adds.  The product takes the one
    with fewer, rows on a tie (the module docstring has the measurement).

    Either way the sums are unpacked and reduced at once, and a slot holds
    a sum of at most k * pairs terms, each of magnitude at most
    max|A| max|B|, with the sign bit spare.  Over GF(q) every value is at
    least 0, and max|A| max|B| is (q - 1)^2.  Over Q, bias holds
    h = 2^(w-1) in every slot: flipping the sign bits of a row packed in
    two's complement adds h to each slot, so the signed row
    sum_j B[k][j] 2^(w j) is (x ^ bias) - bias, and a sum s goes back to
    two's complement as (s + bias) ^ bias."""
    if not a or not b:
        return {}
    rows, k = len(next(iter(a.values()))), len(next(iter(b.values())))
    left = list(chain.from_iterable(a.values()))
    # the multiply-adds along rows, A taken as dense, less those along
    # monomials: the nonzero entries of B counted only until the rows win
    # even so, and then the zeros of A
    spare = len(b) * k * len(left)
    for r in chain.from_iterable(b.values()):
        if spare <= 0:
            return _by_rows(a, b, cols, q)
        spare -= rows * (cols - r.count(0))
    spare -= len(b) * sum(map(list.count, left, repeat(0)))
    return (_by_monomials if spare > 0 else _by_rows)(a, b, cols, q)


def _layout(a: Dict, b: Dict, q: int) -> Tuple[Dict, int, int]:
    """({uv: [(A_u, v), ...]}, words of a slot, h) for both packings of
    ``product``: the slot holds every entry of A and B and every sum."""
    groups: Dict = {}
    for u, s in a.items():
        for v in b:
            groups.setdefault(u * v, []).append((s, v))
    k = len(next(iter(b.values())))
    bound = k * max(map(len, groups.values())) * (
        (q - 1) ** 2 if q else _magnitude(a) * _magnitude(b))
    words = slot_words(bound)
    assert bound >> (64 * words - 1) == 0
    return groups, words, 0 if q else 1 << (64 * words - 1)


def _bias(h: int, slots: int, words: int) -> int:
    return int.from_bytes(h.to_bytes(8 * words, "little") * slots, "little")


def _packed(vals: List[int], slots: int, words: int, h: int) -> List[int]:
    """The values, ``slots`` to an int, as signed packed ints."""
    bias, n = _bias(h, slots, words), 8 * words * slots
    raw = pack(vals, words)
    return [(int.from_bytes(raw[i:i + n], "little") ^ bias) - bias
            for i in range(0, len(raw), n)]


def _unpacked(sums: List[int], slots: int, words: int, h: int,
              q: int) -> List[int]:
    """The slots of the signed packed sums, in order, reduced mod q."""
    bias, n = _bias(h, slots, words), 8 * words * slots
    flat = unpack(b"".join([((x + bias) ^ bias).to_bytes(n, "little")
                            for x in sums]), words)
    return [v % q for v in flat] if q else flat


def _by_rows(a: Dict, b: Dict, cols: int, q: int) -> Dict:
    """``product`` along the rows of each B_v."""
    groups, words, h = _layout(a, b, q)
    packed = {v: _packed(list(chain.from_iterable(s)), cols, words, h)
              for v, s in b.items()}
    sums: List[int] = []
    for pairs in groups.values():
        # row i of each A_u times the packed rows of its B_v, zeros skipped
        sums += map(sum, zip(*[
            [sum(map(mul, compress(r, r), compress(packed[v], r))) for r in s]
            for s, v in pairs]))
    flat = _unpacked(sums, cols, words, h, q)
    rows = [flat[i:i + cols] for i in range(0, len(flat), cols)]
    r = len(rows) // len(groups)
    return {uv: rows[i * r:(i + 1) * r] for i, uv in enumerate(groups)}


def _by_monomials(a: Dict, b: Dict, cols: int, q: int) -> Dict:
    """``product`` along the monomials of the result."""
    groups, words, h = _layout(a, b, q)
    m, rows = len(groups), len(next(iter(a.values())))
    k = len(next(iter(b.values())))
    # slot g of int i k + c of v holds A_u[i][c], uv the g-th product
    zero = [0] * (rows * k)
    slots = {v: [zero] * m for v in b}
    for g, pairs in enumerate(groups.values()):
        for s, v in pairs:
            slots[v][g] = list(chain.from_iterable(s))
    columns = []
    for v, s in b.items():
        p = _packed(list(chain.from_iterable(zip(*slots[v]))), m, words, h)
        columns.append((list(zip(*s)), [p[i:i + k] for i in range(0, len(p), k)]))
    sums: List[int] = []
    for i in range(rows):
        # column j of each B_v times the packed row i, zeros skipped
        sums += map(sum, zip(*[
            [sum(map(mul, compress(c, c), compress(p[i], c))) for c in cs]
            for cs, p in columns]))
    flat = _unpacked(sums, m, words, h, q)
    return {uv: [flat[g + m * j:g + m * (j + cols):m]
                 for j in range(0, rows * cols, cols)]
            for g, uv in enumerate(groups)}


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


def invert_mod(rows: List[List[int]], q: int) -> Optional[List[List[int]]]:
    """The inverse mod q of the square matrix of residues ``rows``, in
    place, or None when a column has no pivot mod q: Gauss-Jordan at width
    N, column c once cleared holding column c of the inverse (the module
    docstring).  A row stays a list until its first update, as in
    ``rref_mod``.  The row swaps, composed, are undone on the columns at
    the end."""
    n = len(rows)
    bound = n * (q - 1) ** 2 + q
    words = slot_words(bound)
    w, size = 64 * words, 8 * words * n
    assert bound >> (w - 1) == 0
    mask = (1 << w) - 1
    order = list(range(n))
    for c in range(n):
        s = c * w
        for i in range(c, n):
            x = rows[i]
            p = x[c] if type(x) is list else (x >> s & mask) % q
            if p:
                break
        else:
            return None
        if i != c:
            rows[c], rows[i] = x, rows[c]
            order[c], order[i] = order[i], order[c]
        inv = pow(p, -1, q)
        row = [e * inv % q for e in (x if type(x) is list else unpack(
            x.to_bytes(size, "little"), words))]
        row[c] = (1 + inv) % q
        t = None
        for i in range(n):
            x = rows[i]
            f = x[c] if type(x) is list else (x >> s & mask) % q
            if f and i != c:
                if t is None:
                    t = int.from_bytes(pack(row, words), "little")
                rows[i] = (int.from_bytes(pack(x, words), "little")
                           if type(x) is list else x) + (q - f) * t
        row[c] = inv
        rows[c] = row
    rows[:] = [x if type(x) is list else [v % q for v in unpack(
        x.to_bytes(size, "little"), words)] for x in rows]
    if order != sorted(order):
        # row k was row order[k]: column order[k] of the inverse is column k
        back = sorted(range(n), key=order.__getitem__)
        rows[:] = [[r[k] for k in back] for r in rows]
    return rows


def _lift(reduced, proven):
    """The loop of the lift: for each of the ``LIFT_PRIMES`` q in turn,
    ``reduced(q)``, rows of residues mod q or None to give up, combined by
    CRT with those of the primes before and reconstructed over one common
    denominator; the first candidate (F, D) that ``proven(F, D)`` accepts,
    or None."""
    M = 1
    for q in LIFT_PRIMES:
        V = reduced(q)
        if V is None:
            return None
        if M == 1:
            U = V
        else:
            inv = pow(M, -1, q)
            U = [[u + M * ((v - u) * inv % q) for u, v in zip(ur, vr)]
                 for ur, vr in zip(U, V)]
        M *= q
        candidate = _reconstruct(U, M)
        if candidate is not None and proven(*candidate):
            return candidate
    return None


def rref_lift(rows: List[List[int]]
              ) -> Optional[Tuple[List[List[int]], List[int], int]]:
    """(D R, pivot columns, D) for R the RREF over Q of the int rows, or
    None: the lift of the module docstring, on the entries of the reduced
    rows at the non-pivot columns.  The rows are not changed."""
    if not rows or not rows[0]:
        return rows, [], 1
    cols = len(rows[0])
    pivots: List[int] = []
    free: List[int] = []

    def reduced(q: int) -> Optional[List[List[int]]]:
        red, piv, _ = rref_mod([[x % q for x in r] for r in rows], q)
        if q == LIFT_PRIMES[0]:
            pivots[:], taken = piv, set(piv)
            free[:] = [j for j in range(cols) if j not in taken]
        elif piv != pivots:
            return None
        return [[r[j] for j in free] for r in red[:len(pivots)]]

    def proven(F: List[List[int]], D: int) -> bool:
        # with no free column the rank mod q, a lower bound, is full
        if not free:
            return True
        V = [[0] * len(free) for _ in range(cols)]
        for j, f in enumerate(free):
            V[f][j] = D
        for c, x in zip(pivots, F):
            V[c] = [-v for v in x]
        return not any(map(any, product({1: rows}, {1: V}, len(free))[1]))

    lifted = _lift(reduced, proven)
    if lifted is None:
        return None
    F, D = lifted
    out = [[0] * cols for _ in rows]
    for row, c, x in zip(out, pivots, F):
        row[c] = D
        for f, v in zip(free, x):
            row[f] = v
    return out, pivots, D


def invert_lift(rows: List[List[int]], L: int
                ) -> Optional[Tuple[List[List[int]], int]]:
    """(F, D), D > 0, with rows F = D L I, so that F / D is the inverse over
    Q of m when the square int rows are L m, or None: ``invert_mod`` lifted
    as ``rref_lift`` lifts ``rref_mod``, on the entries of m^{-1} that
    ``rref_lift`` reads off [L m | L I], and None at once for rows singular
    modulo a prime.  The rows are not changed."""
    n = len(rows)

    def reduced(q: int) -> Optional[List[List[int]]]:
        F = invert_mod([[x % q for x in r] for r in rows], q)
        if F is None or L == 1:
            return F
        return [[x * L % q for x in r] for r in F]
    return _lift(reduced, lambda F, D: product({1: rows}, {1: F}, n)[1] == [
        [D * L * (i == j) for j in range(n)] for i in range(n)])

"""Exact linear algebra: rank, nullspace, solve, inverse.

One elimination kernel per field.  Over Q (Fraction/int scalars) matrices
come in two flavours: sparse rows (dict column -> value) for the exact
boundary-matrix ranks and the sheaf solves, and small dense lists-of-lists
for sheaf stalk maps.  Over GF(2), `rank_mod2` takes rows as int bitmasks;
homology uses it as a certificate only (a GF(2) rank of an integer matrix
is at most its Q rank, so it may prove a sphere or an acyclic interval but
never refute one), and every other answer is decided over Q.  No floating
point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _normalize_row(row):
    """Clear denominators and divide out the content of a sparse row."""
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = denom * v.denominator // gcd(denom, v.denominator)
    g = 0
    out = {}
    for k, v in row.items():
        iv = int(v * denom) if isinstance(v, Fraction) else v * denom
        if iv:
            out[k] = iv
            g = gcd(g, abs(iv))
    if g > 1:
        for k in out:
            out[k] //= g
    return out


def sparse_rank(rows):
    """Rank over Q of a matrix given as an iterable of sparse rows.

    Fraction-free elimination: rows are kept integral, pivots are chosen
    with the smallest absolute value on the shortest row, and rows are
    re-normalized by their gcd after each update so entries stay small.
    """
    work = [r for r in (_normalize_row(dict(row)) for row in rows) if r]
    rank = 0
    while work:
        pi = min(range(len(work)), key=lambda i: len(work[i]))
        pivot = work.pop(pi)
        pc, pv = min(pivot.items(), key=lambda kv: (abs(kv[1]), kv[0]))
        rank += 1
        nxt = []
        for row in work:
            w = row.get(pc)
            if w is None:
                nxt.append(row)
                continue
            out = {k: pv * v for k, v in row.items()}
            for k, v in pivot.items():
                nv = out.get(k, 0) - w * v
                if nv:
                    out[k] = nv
                elif k in out:
                    del out[k]
            if out:
                nxt.append(_normalize_row(out))
        work = nxt
    return rank


def rank_mod2(rows):
    """Rank over GF(2) of a matrix whose rows are int bitmasks (bit k set
    when column k holds a 1): XOR elimination against pivot rows keyed on
    their highest set bit.  `int.bit_length` finds that bit in constant
    time, and on order-complex boundary matrices (faces in chain preorder)
    this pivot order also produces far less fill than the lowest bit."""
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


def betti_from_ranks(dims, ranks):
    """(Co)homology dimensions of a complex V_0 - V_1 - ... - V_m of vector
    spaces: dims[k] = dim V_k, and ranks[k] (k < m) is the rank of the map
    between V_k and V_(k+1), whichever way it points."""
    r = [0, *ranks, 0]
    return [d - r[k] - r[k + 1] for k, d in enumerate(dims)]


def _reduce_row(cur, pivots):
    """Reduce `cur` (dict, mutated) against normalized pivot rows until its
    smallest column is pivot-free; returns that column or None when the row
    vanishes.  Entries introduced by a reduction sit strictly to the right
    of the reduced column, so the minimum climbs and the loop terminates.
    """
    while cur:
        col = min(cur)
        row = pivots.get(col)
        if row is None:
            return col
        coef = cur[col]
        for k, v in row.items():
            nv = cur.get(k, Fraction(0)) - coef * v
            if nv:
                cur[k] = nv
            elif k in cur:
                del cur[k]
    return None


def sparse_nullspace(rows, ncols):
    """Basis of the nullspace of the matrix over Q.

    `rows` is a list of sparse rows over columns 0..ncols-1; the result is
    a list of sparse vectors (dict col -> Fraction) spanning {x | Ax = 0}.
    """
    pivots = {}  # col -> reduced row (Fraction values, pivot coefficient 1)
    for row in rows:
        cur = {k: Fraction(v) for k, v in row.items() if v}
        col = _reduce_row(cur, pivots)
        if col is None:
            continue
        inv = 1 / cur[col]
        pivots[col] = {k: v * inv for k, v in cur.items()}
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        # pivot rows only reference columns right of their pivot, so a
        # single descending pass back-substitutes correctly
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            s = sum((row[k] * vec[k] for k in row if k != col and k in vec),
                    Fraction(0))
            if s:
                vec[col] = -s
        basis.append({k: v for k, v in vec.items() if v})
    return basis


def solve_in_span(basis, target):
    """Coefficients expressing sparse vector `target` in `basis`, or None.

    `basis` is a list of sparse vectors.  Returns a list of Fractions c with
    sum(c_i * basis_i) == target, or None when target is outside the span.
    """
    cols = len(basis)
    support = set(target)
    for b in basis:
        support.update(b)
    pivots = {}
    for coord in sorted(support):
        cur = {j: Fraction(b[coord]) for j, b in enumerate(basis)
               if b.get(coord)}
        if target.get(coord):
            cur[cols] = Fraction(target[coord])
        col = _reduce_row(cur, pivots)
        if col is None:
            continue
        if col == cols:
            return None  # inconsistent
        inv = 1 / cur[col]
        pivots[col] = {k: v * inv for k, v in cur.items()}
    out = [Fraction(0)] * cols
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        s = row.get(cols, Fraction(0))
        for k, v in row.items():
            if k != col and k != cols:
                s -= v * out[k]
        out[col] = s
    return out


# -- small dense helpers (lists of lists, Fraction entries) ----------------


def mat_mul(a, b):
    ra, ca = len(a), len(a[0]) if a else 0
    cb = len(b[0]) if b else 0
    out = [[Fraction(0)] * cb for _ in range(ra)]
    for i in range(ra):
        ai = a[i]
        for k in range(ca):
            v = ai[k]
            if v:
                bk = b[k]
                oi = out[i]
                for j in range(cb):
                    if bk[j]:
                        oi[j] += v * bk[j]
    return out


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_rank(a):
    return sparse_rank([{j: v for j, v in enumerate(row) if v} for row in a])


def mat_inverse(a):
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                coef = aug[r][col]
                aug[r] = [x - coef * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def mat_nullspace(a, ncols):
    """Dense nullspace: returns list of column vectors (lists of Fractions)."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in a]
    sparse = sparse_nullspace(rows, ncols)
    return [[vec.get(i, Fraction(0)) for i in range(ncols)] for vec in sparse]

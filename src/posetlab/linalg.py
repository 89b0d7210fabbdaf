"""Exact linear algebra: rank, nullspace and solve over Q, rank over GF(2).

One elimination kernel over Q.  `_echelon` reduces sparse rows (dict
column -> int or Fraction) to an integral row echelon form; `sparse_rank`,
`sparse_nullspace` and `solve_in_span` are built on it.  Sheaf restriction
maps are stored in the same format, one sparse row per target coordinate,
and `mat_mul` composes them.  `mat_rank` / `mat_nullspace` adapt dense
lists-of-lists to the kernel; no library module calls them or `solve_in_span`.
Pivots are keyed on each row's smallest column, so they are the leftmost
independent columns whatever the row order.  That keeps every basis
canonical: a nullspace vector is the unique integral one with content 1, a
positive entry at its own non-pivot column and 0 on the others, and a
solution puts 0 on every basis vector that depends on earlier ones.

Back-substitution is fraction-free (`_kernel_vector`): the partial vector
is scaled just enough for each pivot division to be exact.  It only
reaches pivot columns left of the free one, so a nullspace vector's
largest column is its own free column, and coordinates in a nullspace
basis are read there (`nullspace_coords`) by one exact division, not
solved for.  A coordinate is an int when that division is exact and a
Fraction otherwise; so is every `solve_in_span` coefficient.

Over GF(2), `rank_mod2` takes rows as int bitmasks.  Homology uses it as a
certificate only: a GF(2) rank of an integer matrix is at most its Q rank,
so it may prove a sphere or an acyclic interval but never refute one, and
every other answer is decided over Q.  No floating point anywhere.
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


def _echelon(rows):
    """Row echelon form over Q of the sparse rows, kept integral.

    Each row is normalized, then reduced against the pivot rows (keyed on
    their smallest column) until its smallest column is pivot-free or it
    vanishes; an update cross-multiplies by the two leading coefficients
    with their gcd divided out and divides out the content again.  The
    pivots are therefore the leftmost independent columns.  Returns
    {pivot column: integral row}; a row only has columns >= its pivot.
    """
    pivots = {}
    for row in rows:
        row = _normalize_row(row)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            out = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                nv = out.get(k, 0) - b * v
                if nv:
                    out[k] = nv
                else:
                    del out[k]
            g = gcd(*out.values())
            row = {k: v // g for k, v in out.items()} if g > 1 else out
    return pivots


def _kernel_vector(pivots, order, f):
    """The integral kernel vector with content 1, a positive entry at the
    free column f and 0 at every other free column.  One descending
    fraction-free pass over the pivot columns `order` left of f (a pivot
    row only reaches columns right of its pivot): before each pivot value
    is divided out exactly, the partial vector is scaled by m = |p| // g
    for the pivot p, the row sum s and g = gcd(s, p).  The new entry
    -s * m // p is s // g up to sign, which is coprime to m, so the content
    stays 1 from the start {f: 1}."""
    x = {f: 1}
    for col in order:
        if col >= f:
            continue
        row = pivots[col]
        s = sum(v * x[k] for k, v in row.items() if k in x)
        if s:
            p = row[col]
            m = abs(p) // gcd(s, p)
            if m > 1:
                for k in x:
                    x[k] *= m
            x[col] = -s * m // p
    return x


def _exact_div(a, b):
    """a / b for an int or Fraction a and a nonzero int b: an int when the
    division is exact, a Fraction otherwise."""
    if isinstance(a, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def sparse_rank(rows):
    """Rank over Q of a matrix given as an iterable of sparse rows."""
    return len(_echelon(rows))


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


def sparse_nullspace(rows, ncols):
    """Basis of the nullspace of the matrix over Q.

    `rows` is a list of sparse rows over columns 0..ncols-1; the result is
    a list of integral sparse vectors (dict col -> int) spanning
    {x | Ax = 0}, one per non-pivot column f, with content 1, a positive
    entry at f and 0 at the other non-pivot columns.
    """
    pivots = _echelon(rows)
    order = sorted(pivots, reverse=True)
    return [_kernel_vector(pivots, order, f)
            for f in range(ncols) if f not in pivots]


def nullspace_coords(basis, target):
    """Coefficients of sparse `target` in a `sparse_nullspace` basis (keys
    relabelled in column order are fine), or None: each is target's entry
    at its vector's largest key divided by the vector's entry there (an int
    when exact, else a Fraction), kept only if they rebuild target exactly."""
    coeffs = []
    for b in basis:
        f = max(b)
        coeffs.append(_exact_div(target.get(f, 0), b[f]))
    rest = dict(target)
    for c, b in zip(coeffs, basis):
        if c:
            for k, v in b.items():
                rest[k] = rest.get(k, 0) - c * v
    return None if any(rest.values()) else coeffs


def solve_in_span(basis, target):
    """Coefficients expressing sparse vector `target` in `basis`, or None.

    `basis` is a list of sparse vectors.  Returns a list c of ints and
    Fractions with sum(c_i * basis_i) == target, or None when target is
    outside the span; a basis vector dependent on earlier ones gets
    coefficient 0.  The vectors and target are the columns of one system,
    target last: its kernel vector at the target column x gives
    c_i = -x_i / x_target.
    """
    cols = len(basis)
    support = set(target)
    for b in basis:
        support.update(b)
    rows = []
    for coord in sorted(support):
        row = {j: b[coord] for j, b in enumerate(basis) if b.get(coord)}
        if target.get(coord):
            row[cols] = target[coord]
        rows.append(row)
    pivots = _echelon(rows)
    if cols in pivots:
        return None
    x = _kernel_vector(pivots, sorted(pivots, reverse=True), cols)
    return [_exact_div(-x.get(j, 0), x[cols]) for j in range(cols)]


# -- sheaf maps, and dense adapters (lists of lists) ------------------------


def mat_mul(a, b):
    """Product of two matrices stored as lists of sparse rows: row i of the
    product sums a[i][k] times row k of b; zero sums are dropped."""
    out = []
    for row in a:
        acc = {}
        for k, v in row.items():
            for j, w in b[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: v for j, v in acc.items() if v})
    return out


def _dense_rows(a):
    return [{j: v for j, v in enumerate(row) if v} for row in a]


def mat_rank(a):
    return sparse_rank(_dense_rows(a))


def mat_nullspace(a, ncols):
    """Dense nullspace: returns list of column vectors (lists of ints)."""
    return [[vec.get(i, 0) for i in range(ncols)]
            for vec in sparse_nullspace(_dense_rows(a), ncols)]

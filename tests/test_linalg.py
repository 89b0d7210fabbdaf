"""The exact Q kernel of `linalg` against an independent dense oracle."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from posetlab.linalg import (mat_nullspace, mat_rank, nullspace_coords,
                             rank_mod2, solve_in_span, sparse_nullspace,
                             sparse_rank)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

SCALARS = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def oracle_pivots(matrix, ncols):
    """Pivot columns of the reduced row echelon form, by dense Fraction
    Gauss-Jordan elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def oracle_rank(matrix, ncols):
    return len(oracle_pivots(matrix, ncols))


def sparse(row):
    return {j: v for j, v in enumerate(row) if v}


@st.composite
def matrices(draw, max_rows=8, max_cols=8):
    """A dense matrix, often with rows that are combinations of others."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(SCALARS, min_size=ncols, max_size=ncols),
                         max_size=max_rows))
    for _ in range(draw(st.integers(0, max_rows - len(rows)))):
        coeffs = draw(st.lists(SCALARS, min_size=len(rows), max_size=len(rows)))
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), 0)
                     for j in range(ncols)])
    return rows, ncols


@SETTINGS
@given(matrices())
def test_rank_matches_oracle(case):
    rows, ncols = case
    rank = oracle_rank(rows, ncols)
    assert sparse_rank([sparse(row) for row in rows]) == rank
    assert mat_rank(rows) == rank


@SETTINGS
@given(matrices())
def test_nullspace_is_the_canonical_basis(case):
    rows, ncols = case
    free = [c for c in range(ncols) if c not in oracle_pivots(rows, ncols)]
    basis = sparse_nullspace([sparse(row) for row in rows], ncols)
    assert len(basis) == ncols - oracle_rank(rows, ncols) == len(free)
    for f, vec in zip(free, basis):
        assert all(isinstance(v, Fraction) and v for v in vec.values())
        assert all(sum(row[k] * v for k, v in vec.items()) == 0 for row in rows)
        assert {c: vec.get(c, 0) for c in free} == {c: int(c == f) for c in free}
        # back-substitution stops at the free column: it is the largest
        assert max(vec) == f
    if rows:
        assert mat_nullspace(rows, ncols) == [
            [vec.get(c, Fraction(0)) for c in range(ncols)] for vec in basis]


@SETTINGS
@given(matrices(), st.data())
def test_solve_in_span_reconstructs_or_refuses(case, data):
    vectors, ncols = case
    if vectors and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(SCALARS, min_size=len(vectors),
                                    max_size=len(vectors)))
        target = [sum((c * vec[j] for c, vec in zip(coeffs, vectors)), 0)
                  for j in range(ncols)]
    else:
        target = data.draw(st.lists(SCALARS, min_size=ncols, max_size=ncols))
    got = solve_in_span([sparse(vec) for vec in vectors], sparse(target))
    outside = (oracle_rank(vectors + [target], ncols)
               > oracle_rank(vectors, ncols))
    if outside:
        assert got is None
        return
    assert len(got) == len(vectors)
    assert all(isinstance(c, Fraction) for c in got)
    assert [sum((c * vec[j] for c, vec in zip(got, vectors)), 0)
            for j in range(ncols)] == target
    for i, vec in enumerate(vectors):
        # the columns of this system are the vectors, so a vector that
        # depends on earlier ones is a non-pivot column and gets 0
        if oracle_rank(vectors[:i + 1], ncols) == oracle_rank(vectors[:i], ncols):
            assert got[i] == 0


@SETTINGS
@given(matrices(), st.data())
def test_nullspace_coords_agree_with_solve_in_span(case, data):
    rows, ncols = case
    basis = sparse_nullspace([sparse(row) for row in rows], ncols)
    inside = bool(basis) and data.draw(st.booleans())
    if inside:
        coeffs = data.draw(st.lists(SCALARS, min_size=len(basis),
                                    max_size=len(basis)))
        target = {}
        for c, vec in zip(coeffs, basis):
            for k, v in vec.items():
                target[k] = target.get(k, 0) + c * v
        target = {k: v for k, v in target.items() if v}
    else:
        target = sparse(data.draw(st.lists(SCALARS, min_size=ncols,
                                           max_size=ncols)))
    got = nullspace_coords(basis, target)
    assert got == solve_in_span(basis, target)
    if inside:
        assert got == [Fraction(c) for c in coeffs]
        assert all(isinstance(c, Fraction) for c in got)


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=8)))
def test_rank_mod2_bounds_the_rational_rank(rows):
    masks = [sum(bit << k for k, bit in enumerate(row)) for row in rows]
    assert rank_mod2(masks) <= sparse_rank([sparse(row) for row in rows])


def test_canonical_vectors_on_a_fixed_matrix():
    # columns 0 and 2 pivot; column 1 = -2 * column 0, column 3 = 3 * column 2 - column 0
    rows = [{0: 1, 1: -2, 3: -1}, {0: 2, 1: -4, 2: 1, 3: 1}]
    assert sparse_nullspace(rows, 4) == [{1: Fraction(1), 0: Fraction(2)},
                                         {3: Fraction(1), 2: Fraction(-3),
                                          0: Fraction(1)}]
    basis = [{0: 1, 1: 2}, {0: -2, 1: -4}, {1: 1}]
    assert solve_in_span(basis, {0: 3, 1: 7}) == [Fraction(3), Fraction(0),
                                                  Fraction(1)]
    assert solve_in_span(basis[:2], {0: 3, 1: 7}) is None

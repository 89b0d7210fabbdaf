"""The exact Q kernel of `linalg` against an independent dense oracle."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from posetlab.linalg import (mat_nullspace, mat_rank, nullspace_coords,
                             rank_mod2, solve_in_span, sparse_nullspace,
                             sparse_rank)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

SCALARS = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def oracle_rref(matrix, ncols):
    """The reduced row echelon form and its pivot columns, by dense
    Fraction Gauss-Jordan elimination."""
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
    return a[:r], pivots


def oracle_pivots(matrix, ncols):
    return oracle_rref(matrix, ncols)[1]


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


def exact(value):
    """An int or a Fraction, never a float (nor a bool)."""
    return type(value) in (int, Fraction)


@SETTINGS
@given(matrices())
def test_nullspace_is_the_canonical_basis(case):
    rows, ncols = case
    rref, pivots = oracle_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = sparse_nullspace([sparse(row) for row in rows], ncols)
    assert len(basis) == ncols - len(pivots) == len(free)
    for f, vec in zip(free, basis):
        # integral, content 1, a positive entry at its own free column
        assert all(type(v) is int and v for v in vec.values())
        assert gcd(*vec.values()) == 1
        assert vec[f] > 0
        assert all(sum(row[k] * v for k, v in vec.items()) == 0 for row in rows)
        assert not any(vec.get(c) for c in free if c != f)
        # back-substitution stops at the free column: it is the largest
        assert max(vec) == f
        # divided by its free entry it is the reduced echelon form's vector
        # with 1 at f
        canonical = {f: Fraction(1)}
        canonical.update({c: -row[f] for c, row in zip(pivots, rref) if row[f]})
        assert {k: Fraction(v, vec[f]) for k, v in vec.items()} == canonical
    if rows:
        assert mat_nullspace(rows, ncols) == [
            [vec.get(c, 0) for c in range(ncols)] for vec in basis]


@SETTINGS
@given(matrices(), st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4,
                                         max_denominator=5),
                            min_size=8, max_size=8))
def test_positive_row_scaling_leaves_the_nullspace_basis(case, scales):
    # op_D scales its random combination alpha by one positive integer; a
    # basis normalised to content 1 and a positive free entry depends on
    # the kernel alone
    rows, ncols = case
    scaled = [[c * x for x in row] for c, row in zip(scales, rows)]
    assert (sparse_nullspace([sparse(row) for row in scaled], ncols)
            == sparse_nullspace([sparse(row) for row in rows], ncols))


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
    assert all(exact(c) for c in got)
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
        assert all(exact(c) for c in got)
        # an int exactly when the coefficient is a whole number
        assert [type(c) is int for c in got] == [
            Fraction(c).denominator == 1 for c in coeffs]


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=8)))
def test_rank_mod2_bounds_the_rational_rank(rows):
    masks = [sum(bit << k for k, bit in enumerate(row)) for row in rows]
    assert rank_mod2(masks) <= sparse_rank([sparse(row) for row in rows])


def test_canonical_vectors_on_a_fixed_matrix():
    # columns 0 and 2 pivot; column 1 = -2 * column 0, column 3 = 3 * column 2 - column 0
    rows = [{0: 1, 1: -2, 3: -1}, {0: 2, 1: -4, 2: 1, 3: 1}]
    assert sparse_nullspace(rows, 4) == [{1: 1, 0: 2}, {3: 1, 2: -3, 0: 1}]
    basis = [{0: 1, 1: 2}, {0: -2, 1: -4}, {1: 1}]
    assert solve_in_span(basis, {0: 3, 1: 7}) == [3, 0, 1]
    assert solve_in_span(basis[:2], {0: 3, 1: 7}) is None
    # a pivot of 2: the free entry holds the denominator, coordinates divide
    # exactly there and stay ints when they can
    basis = sparse_nullspace([{0: 2, 1: 1, 2: 1}], 3)
    assert basis == [{1: 2, 0: -1}, {2: 2, 0: -1}]
    assert nullspace_coords(basis, {0: -1, 1: 2}) == [1, 0]
    assert nullspace_coords(basis, {0: -1, 1: 1, 2: 1}) == [Fraction(1, 2),
                                                             Fraction(1, 2)]
    assert nullspace_coords(basis, {0: 1, 1: 2}) is None
    assert solve_in_span(basis, {0: -1, 1: 1, 2: 1}) == [Fraction(1, 2),
                                                         Fraction(1, 2)]

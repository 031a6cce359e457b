from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ndqc.linalg import dot, int_rank, nullspace, rows_to_int


small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6),
                 min_size=cols, max_size=cols),
        min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(rows=small_matrix)
def test_nullspace_vectors_annihilate(rows):
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    for _, vec in basis:
        for row in rows:
            assert dot(row, vec) == 0


@settings(max_examples=150, deadline=None)
@given(rows=small_matrix)
def test_rank_nullity(rows):
    ncols = len(rows[0])
    assert int_rank(rows, ncols) + len(nullspace(rows, ncols)) == ncols


def test_staircase_support():
    # basis vector for free column j only touches pivot columns left of j
    rows = [[1, 1, 0, 1], [0, 0, 1, 1]]
    basis = nullspace(rows, 4)
    for j, vec in basis:
        assert all(v == 0 for v in vec[j + 1:])


def test_known_rank():
    assert int_rank([[1, 2], [2, 4]], 2) == 1
    assert int_rank([[1, 0], [0, 1]], 2) == 2
    assert int_rank([], 3) == 0


@settings(max_examples=60, deadline=None)
@given(rows=small_matrix)
def test_rank_matches_sympy(rows):
    import sympy
    assert int_rank(rows, len(rows[0])) == sympy.Matrix(rows).rank()


def test_rational_rows_scaled():
    rows = rows_to_int([[Fraction(1, 2), Fraction(1, 3)]])
    assert rows == [[3, 2]]


def test_large_identity_early_stop():
    n = 40
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert int_rank(rows, n) == n

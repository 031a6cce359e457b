import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndqc import linalg
from ndqc.linalg import (_echelon_ff, _residual, dot, int_rank, nullspace,
                         rows_to_int, staircase_column)


def matrices(entries, max_rows=5, max_cols=5):
    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda cols: st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=1, max_size=max_rows))


small_matrix = matrices(st.integers(min_value=-6, max_value=6))
int_matrix = matrices(st.integers(min_value=-40, max_value=40), 7, 9)
zero_one_matrix = matrices(st.integers(min_value=0, max_value=1), 8, 10)
rational_matrix = matrices(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), 6, 8)


def reference_nullspace(rows, ncols):
    """Nullspace by Fraction elimination and the Fraction back-substitution
    that the integer-only version replaced: an independent oracle for its
    exact output (each free column's vector is fixed by the row space, so
    any elimination gives the same primitive vectors)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        for i in range(r + 1, len(m)):
            k = m[i][c] / m[r][c]
            m[i] = [a - k * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
    pivot_set = {pc for _, pc in pivots}
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for pr, pc in reversed(pivots):
            if pc > j:
                continue
            row = m[pr]
            s = sum((row[c] * vec[c] for c in range(pc + 1, ncols)),
                    Fraction(0))
            vec[pc] = -s / row[pc]
        den = lcm(*(v.denominator for v in vec))
        ints_vec = [int(v * den) for v in vec]
        g = gcd(*ints_vec)
        basis.append((j, tuple(v // g for v in ints_vec)))
    return basis


def reference_bareiss(rows, ncols):
    """Plain Bareiss: every row below the pivot is updated at every step."""
    m = [list(r) for r in rows]
    pivots, prev = [], 1
    for pc in range(ncols):
        pr = len(pivots)
        sel = next((r for r in range(pr, len(m)) if m[r][pc]), None)
        if sel is None:
            continue
        m[pr], m[sel] = m[sel], m[pr]
        piv = m[pr][pc]
        for r in range(pr + 1, len(m)):
            t = m[r][pc]
            m[r] = [0] * (pc + 1) + [(a * piv - t * b) // prev for a, b in
                                     zip(m[r][pc + 1:], m[pr][pc + 1:])]
        pivots.append((pr, pc))
        prev = piv
    return m, pivots


def assert_matches_reference(rows, ncols):
    basis = nullspace(rows, ncols)
    assert basis == reference_nullspace(rows, ncols)
    for j, vec in basis:
        assert vec[j] > 0 and gcd(*vec) == 1
        assert all(dot(row, vec) == 0 for row in rows)


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


@settings(max_examples=150, deadline=None)
@given(rows=st.one_of(int_matrix, zero_one_matrix))
def test_nullspace_matches_fraction_reference_integer(rows):
    assert_matches_reference(rows, len(rows[0]))


@settings(max_examples=100, deadline=None)
@given(rows=rational_matrix)
def test_nullspace_matches_fraction_reference_rational(rows):
    assert_matches_reference(rows, len(rows[0]))


def test_nullspace_matches_fraction_reference_wide_zero_one():
    rng = random.Random(12)
    rows = [[rng.randint(0, 1) for _ in range(24)] for _ in range(14)]
    assert_matches_reference(rows, 24)
    assert len(nullspace(rows, 24)) == 24 - int_rank(rows, 24)


def test_integer_paths_make_no_fraction(monkeypatch):
    rng = random.Random(3)
    rows = [[rng.randint(-3, 3) for _ in range(10)] for _ in range(6)]
    expect_rows, expect_basis = rows_to_int(rows), nullspace(rows, 10)

    def no_fraction(*args):
        raise AssertionError("Fraction built on an integer input")

    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    assert rows_to_int(rows) == expect_rows
    assert nullspace(rows, 10) == expect_basis


def first_nonorthogonal_free_column(rows, ncols, v):
    return next((j for j, vec in nullspace(rows, ncols) if dot(v, vec)),
                None)


@settings(max_examples=150, deadline=None)
@given(rows=st.one_of(small_matrix, zero_one_matrix), data=st.data())
def test_staircase_column_matches_nullspace(rows, data):
    ncols = len(rows[0])
    v = data.draw(st.lists(st.integers(min_value=-6, max_value=6),
                           min_size=ncols, max_size=ncols))
    assert staircase_column(rows, ncols, v) == \
        first_nonorthogonal_free_column(rows, ncols, v)


@settings(max_examples=100, deadline=None)
@given(rows=st.one_of(small_matrix, zero_one_matrix), data=st.data())
def test_staircase_column_none_on_row_space(rows, data):
    ncols = len(rows[0])
    lam = data.draw(st.lists(st.integers(min_value=-4, max_value=4),
                             min_size=len(rows), max_size=len(rows)))
    v = [sum(k * row[c] for k, row in zip(lam, rows)) for c in range(ncols)]
    assert staircase_column(rows, ncols, v) is None
    assert first_nonorthogonal_free_column(rows, ncols, v) is None


@settings(max_examples=150, deadline=None)
@given(rows=st.one_of(small_matrix, zero_one_matrix), data=st.data())
def test_residual_primitive_and_clear_on_pivots(rows, data):
    ncols = len(rows[0])
    v = data.draw(st.lists(st.integers(min_value=-6, max_value=6),
                           min_size=ncols, max_size=ncols))
    ech, pivots = _echelon_ff(rows_to_int(rows), ncols)
    r = _residual(ech, pivots, v)
    assert all(r[pc] == 0 for _, pc in pivots)
    assert gcd(*r) <= 1


@settings(max_examples=150, deadline=None)
@given(rows=st.one_of(int_matrix, zero_one_matrix))
def test_echelon_matches_plain_bareiss(rows):
    # deferred rescaling must leave every entry at plain Bareiss's value
    ncols = len(rows[0])
    assert _echelon_ff(rows, ncols) == reference_bareiss(rows, ncols)


# ---------------------------------------------------------------------------
# the full-rank certificate mod a prime, ahead of Bareiss in `nullspace`


def primal_rows(n, d, seed):
    """ndeg primal system of a random half-ones table: one row per 0-input,
    one column per monomial of degree <= d, entry 1 when the monomial's
    variables are all set in the input."""
    rng = random.Random(seed)
    zeros = sorted(rng.sample(range(1 << n), 1 << (n - 1)))
    cols = [m for m in range(1 << n) if m.bit_count() <= d]
    return [[1 if m & x == m else 0 for m in cols] for x in zeros]


def rank_mod_p(rows, ncols, p):
    """Rank mod p by plain Python Gaussian elimination."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(ncols):
        sel = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            k = m[i][c] * inv % p
            if k:
                m[i] = [(a - k * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.fixture
def certificate_calls(monkeypatch):
    """Record each verdict of the certificate and each Bareiss run."""
    calls = {"certificate": [], "bareiss": 0}
    cert, echelon = linalg._full_rank_mod_p, linalg._echelon_ff

    def spy_cert(ints, ncols):
        out = cert(ints, ncols)
        calls["certificate"].append(out)
        return out

    def spy_echelon(rows, ncols):
        calls["bareiss"] += 1
        return echelon(rows, ncols)

    monkeypatch.setattr(linalg, "_full_rank_mod_p", spy_cert)
    monkeypatch.setattr(linalg, "_echelon_ff", spy_echelon)
    return calls


@pytest.mark.parametrize("n,d,seed", [(8, 3, 1), (8, 3, 2), (8, 2, 3),
                                      (9, 2, 4)])
def test_certificate_full_rank_primal(n, d, seed, certificate_calls):
    rows = primal_rows(n, d, seed)
    ncols = len(rows[0])
    assert len(rows) * ncols >= 4096
    assert nullspace(rows, ncols) == []
    assert certificate_calls == {"certificate": [True], "bareiss": 0}
    assert int_rank(rows, ncols) == ncols


@pytest.mark.parametrize("n,d,seed,i,j,k", [(8, 2, 5, 0, 3, 20),
                                            (8, 2, 6, 36, 9, 10),
                                            (7, 3, 7, 63, 1, 40)])
def test_certificate_planted_dependency(n, d, seed, i, j, k,
                                        certificate_calls):
    # column i becomes the sum of columns j and k: nullity at least 1
    rows = primal_rows(n, d, seed)
    for row in rows:
        row[i] = row[j] + row[k]
    ncols = len(rows[0])
    assert len(rows) * ncols >= 4096
    basis = nullspace(rows, ncols)
    assert basis and basis == reference_nullspace(rows, ncols)
    assert certificate_calls == {"certificate": [False], "bareiss": 1}


def test_certificate_rank_drops_mod_p(certificate_calls):
    # full rank over Q, but the diagonal entry 32749 vanishes mod the prime
    rng = random.Random(8)
    size = 64
    rows = [[rng.randint(-3, 3) if c > r else 0 for c in range(size)]
            for r in range(size)]
    for r in range(size):
        rows[r][r] = 1
    rows[size // 2][size // 2] = 32749
    assert linalg._P == 32749
    assert nullspace(rows, size) == []
    assert certificate_calls == {"certificate": [False], "bareiss": 1}
    assert int_rank(rows, size) == size


@pytest.mark.parametrize("seed", range(6))
def test_certificate_matches_python_rank_mod_p(seed):
    # residues spread over [0, p) make every int32 product large, so an
    # overflowing prime or a wrong update shows as a different verdict
    p = linalg._P
    assert (p - 1) ** 2 < 1 << 31
    rng = random.Random(seed)
    nrows, ncols = rng.choice([(64, 64), (80, 60), (100, 41)])
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    if seed % 2:
        for row in rows:
            row[seed] = row[seed + 1] + 3 * row[seed + 2]
    full = rank_mod_p(rows, ncols, p) == ncols
    assert full != bool(seed % 2)
    assert linalg._full_rank_mod_p(rows_to_int(rows), ncols) == full
    assert len(nullspace(rows, ncols)) == ncols - int_rank(rows, ncols)


def test_certificate_skips_entries_beyond_int32(certificate_calls):
    rows = primal_rows(8, 2, 9)
    rows[-1][0] = 1 << 40    # a row with other ones, so it stays primitive
    assert nullspace(rows, len(rows[0])) == []
    assert certificate_calls == {"certificate": [False], "bareiss": 1}


@pytest.mark.parametrize("nrows,ncols,gated", [
    (64, 64, True),      # exactly at the cell threshold
    (65, 63, False),     # 4095 cells
    (63, 65, False),     # enough cells, fewer rows than columns
    (93, 128, False),    # the wide dual shape of an n = 8 table
    (128, 93, True)])
def test_certificate_gate(nrows, ncols, gated, certificate_calls):
    rng = random.Random(nrows * ncols)
    rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - int_rank(rows, ncols)
    assert (len(certificate_calls["certificate"]) == 1) == gated

import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndqc import linalg
from ndqc.linalg import (_echelon_ff, _residual, dot, full_column_rank_mod_p,
                         int_rank, nullspace, rows_to_int, staircase_column)

from helpers import spy_nullspace_paths


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
            if m[i][c]:
                k = m[i][c] / m[r][c]
                m[i] = [a - k * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
    pivot_set = {pc for _, pc in pivots}
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = {j: Fraction(1)}      # column -> value, set entries only
        for pr, pc in reversed(pivots):
            if pc > j:
                continue
            row = m[pr]
            s = sum((row[c] * v for c, v in vec.items()), Fraction(0))
            vec[pc] = -s / row[pc]
        den = lcm(*(v.denominator for v in vec.values()))
        ints_vec = [int(vec.get(c, 0) * den) for c in range(ncols)]
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
@given(rows=st.one_of(small_matrix, zero_one_matrix), data=st.data())
def test_watched_row_stops_at_first_residual_column(rows, data):
    # v as the watched last row is picked as a pivot exactly at the first
    # nonzero column of its residual, and never when v is in the row space
    ncols = len(rows[0])
    v = data.draw(st.lists(st.integers(min_value=-6, max_value=6),
                           min_size=ncols, max_size=ncols))
    lam = data.draw(st.lists(st.integers(min_value=-4, max_value=4),
                             min_size=len(rows), max_size=len(rows)))
    in_span = [sum(k * row[c] for k, row in zip(lam, rows))
               for c in range(ncols)]
    ech, pivots = _echelon_ff(rows, ncols)
    for u in (v, in_span):
        r = _residual(ech, pivots, u)
        first = next((c for c, a in enumerate(r) if a), None)
        stop, pc = _echelon_ff(rows + [u], ncols, watch=True)
        assert (pc if stop is None else None) == first
        if stop is not None:    # a full run, as without the watch
            assert (stop, pc) == _echelon_ff(rows + [u], ncols)
    assert first is None


@settings(max_examples=150, deadline=None)
@given(rows=st.one_of(int_matrix, zero_one_matrix))
def test_echelon_matches_plain_bareiss(rows):
    # deferred rescaling must leave every entry at plain Bareiss's value
    ncols = len(rows[0])
    assert _echelon_ff(rows, ncols) == reference_bareiss(rows, ncols)


# ---------------------------------------------------------------------------
# the int64 kernel behind `nullspace` for systems of _INT64_MIN_CELLS cells


def primal_rows(n, d, seed):
    """Coefficient-space ndeg system (`helpers.ndeg_primal_oracle`) of a
    random half-ones table: one row per 0-input,
    one column per monomial of degree <= d, entry 1 when the monomial's
    variables are all set in the input."""
    rng = random.Random(seed)
    zeros = sorted(rng.sample(range(1 << n), 1 << (n - 1)))
    cols = [m for m in range(1 << n) if m.bit_count() <= d]
    return [[1 if m & x == m else 0 for m in cols] for x in zeros]


@pytest.fixture
def paths(monkeypatch):
    return spy_nullspace_paths(monkeypatch)


INT64_ONLY = {"int64": 1, "handoff": [], "trip": 0, "bareiss": 0}


@pytest.mark.parametrize("n,d,seed", [(8, 3, 1), (8, 3, 2), (8, 2, 3),
                                      (9, 2, 4)])
def test_certificate_full_rank_primal(n, d, seed, paths):
    rows = primal_rows(n, d, seed)
    ncols = len(rows[0])
    assert len(rows) * ncols >= linalg._INT64_MIN_CELLS
    assert nullspace(rows, ncols) == []
    assert paths == INT64_ONLY
    assert int_rank(rows, ncols) == ncols


@pytest.mark.parametrize("n,d,seed,i,j,k", [(8, 2, 5, 0, 3, 20),
                                            (8, 2, 6, 36, 9, 10),
                                            (7, 3, 7, 63, 1, 40)])
def test_certificate_planted_dependency(n, d, seed, i, j, k, paths):
    # column i becomes the sum of columns j and k: nullity at least 1
    rows = primal_rows(n, d, seed)
    for row in rows:
        row[i] = row[j] + row[k]
    ncols = len(rows[0])
    assert len(rows) * ncols >= linalg._INT64_MIN_CELLS
    basis = nullspace(rows, ncols)
    assert basis and basis == reference_nullspace(rows, ncols)
    assert paths == INT64_ONLY


@pytest.mark.parametrize("nrows,ncols,gated", [
    (64, 64, True),      # exactly at the cell threshold
    (65, 63, False),     # 4095 cells
    (63, 65, False),     # 4095 cells
    (93, 128, True),     # the wide dual shape of an n = 8 table
    (128, 93, True)])
def test_certificate_gate(nrows, ncols, gated, paths):
    rng = random.Random(nrows * ncols)
    rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - int_rank(rows, ncols)
    assert paths["int64"] == gated


@settings(max_examples=25, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["zero-one", "small-int",
                                             "rational"]))
def test_int64_kernel_matches_fraction_reference(data, kind):
    """Random systems above the size gate.  The 0/1 kind is a primal-style
    system on n = 7 (a row per sampled input x, a column per monomial m,
    entry [m subset of x]); the other kinds are a random rank-r product of
    small integers or rationals, r <= 10 keeping the Fraction reference
    quick."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    if kind == "zero-one":
        nrows = data.draw(st.integers(min_value=32, max_value=40),
                          label="nrows")
        cols = sorted(range(128), key=lambda m: (m.bit_count(), m))
        rows = [[1 if m & x == m else 0 for m in cols]
                for x in rng.sample(range(128), nrows)]
        ncols = len(cols)
    else:
        nrows = data.draw(st.integers(min_value=8, max_value=64),
                          label="nrows")
        ncols = -(-linalg._INT64_MIN_CELLS // nrows)
        rank = data.draw(st.integers(min_value=1, max_value=10),
                         label="rank")

        def entry():
            v = rng.randint(-6, 6)
            return v if kind == "small-int" else Fraction(v,
                                                          rng.randint(1, 6))
        left = [[entry() for _ in range(rank)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum(a * right[k][c] for k, a in enumerate(row))
                 for c in range(ncols)] for row in left]
    assert len(rows) * ncols >= linalg._INT64_MIN_CELLS
    assert_matches_reference(rows, ncols)


def test_handoff_mid_elimination(paths, monkeypatch):
    # entries in [-3, 3] and eight columns that are combinations of the
    # others: Bareiss entries pass the int64 bound after about a dozen
    # pivots, well before the rank of 56
    rng = random.Random(5)
    nrows, ncols, rank = 64, 64, 56
    coeffs = [[rng.randint(-2, 2) for _ in range(rank)]
              for _ in range(ncols - rank)]
    rows = []
    for _ in range(nrows):
        row = [rng.randint(-3, 3) for _ in range(rank)]
        rows.append(row + [dot(k, row) for k in coeffs])
    resumed = []
    echelon = linalg._echelon_ff

    def keep(rows, ncols, start=None):
        resumed.append(echelon(rows, ncols, start))
        return resumed[-1]

    monkeypatch.setattr(linalg, "_echelon_ff", keep)
    basis = nullspace(rows, ncols)
    # the Python rows carry on plain Bareiss entry for entry
    [(tail, more)] = resumed
    ech, pivots = reference_bareiss(rows, ncols)
    done = nrows - len(tail)
    assert tail == ech[done:]
    assert [(done + r, c) for r, c in more] == pivots[done:]
    assert basis == reference_nullspace(rows, ncols)
    # column rank + t minus its combination of the first columns is null
    planted = []
    for t, k in enumerate(coeffs):
        tail = [0] * (ncols - rank)
        tail[t] = 1
        planted.append((rank + t, tuple(-c for c in k) + tuple(tail)))
    assert basis == planted
    assert paths["int64"] == 1 and paths["trip"] == 0
    [found] = paths["handoff"]
    assert 0 < found < rank


def test_handoff_before_first_update(paths):
    # an entry of 2^40 fits in int64, but its square does not
    rows = primal_rows(8, 2, 9)
    rows[-1][0] = 1 << 40
    assert nullspace(rows, len(rows[0])) == []
    assert paths["handoff"] == [0]


def test_back_substitution_trip(paths):
    # x_i = 2 x_(i+1): elimination keeps entries 1 and -2, but the basis
    # vector (2^64, ..., 2, 1) does not fit in int64
    size = 64
    rows, _ = bidiagonal(size, 1, -2)
    basis = nullspace(rows, size + 1)
    assert basis == [(size, tuple(2 ** (size - c) for c in range(size + 1)))]
    assert basis == reference_nullspace(rows, size + 1)
    assert paths == {"int64": 1, "handoff": [], "trip": 1, "bareiss": 0}


def bidiagonal(size, pivot, off):
    """Echelon rows pivot * x_r + off * x_(r+1) = 0 for r < size, with their
    pivots: the one free column is the last, and the basis vector has
    entries (-pivot / off)^c up to a scale."""
    rows = [[pivot if c == r else off if c == r + 1 else 0
             for c in range(size + 1)] for r in range(size)]
    return rows, [(r, r) for r in range(size)]


@pytest.mark.parametrize("pivot,off", [(1, -2), (3, -1)],
                         ids=["new-entries", "column-scaling"])
def test_int64_back_substitution_refuses_growth(pivot, off):
    # the vector grows through the entries each step sets (1, -2) or
    # through the scaling of the entries already set (3, -1); either way it
    # passes 2^63 within 64 rows, and the bound must refuse before it wraps
    rows, pivots = bidiagonal(64, pivot, off)
    [(_, vec)] = linalg._back_substitute(rows, pivots, 65)
    assert max(map(abs, vec)) >= 1 << 63
    assert linalg._back_substitute_int64(np.array(rows), pivots, 65) is None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_int64_back_substitution_matches_loop(data):
    # any echelon rows will do: nonzero pivots in increasing columns, random
    # entries right of them
    ncols = data.draw(st.integers(min_value=1, max_value=24))
    cols = sorted(data.draw(st.sets(st.integers(0, ncols - 1), min_size=1,
                                    max_size=12)))
    pivot = st.integers(-5, 5).filter(bool)
    rows = [[0] * c + [data.draw(pivot)]
            + data.draw(st.lists(st.integers(-5, 5), min_size=ncols - c - 1,
                                 max_size=ncols - c - 1)) for c in cols]
    pivots = list(enumerate(cols))
    got = linalg._back_substitute_int64(np.array(rows), pivots, ncols)
    assert got == linalg._back_substitute(rows, pivots, ncols)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, 1 << 63],
                         ids=["fraction", "float", "2^63"])
def test_int64_input_never_cast(bad):
    # numpy would turn Fraction(1, 2) into 0 and 2^63 into uint64; these
    # rows must be scaled exactly, or leave the int64 path
    rng = random.Random(11)
    rows = [[rng.randint(0, 1) for _ in range(64)] for _ in range(64)]
    rows[3][5] = bad
    assert_matches_reference(rows, 64)


# ---------------------------------------------------------------------------
# one kernel vector from the echelon rows


def reference_kernel_vector(rows, ncols, free_values):
    """Primitive integer multiple of sum_j free_values[j] * vec_j / vec_j[j]
    over the reference basis: the kernel vector taking those values on the
    free columns."""
    total = [Fraction(0)] * ncols
    for (j, vec), v in zip(reference_nullspace(rows, ncols), free_values):
        total = [t + Fraction(v * a, vec[j]) for t, a in zip(total, vec)]
    [ints] = rows_to_int([total])
    return tuple(ints)


@settings(max_examples=150, deadline=None)
@given(rows=int_matrix, data=st.data())
def test_kernel_vector_matches_reference(rows, data):
    ncols = len(rows[0])
    ech, pivots = linalg.echelon(rows, ncols)
    free_values = data.draw(st.lists(st.integers(1, 2 ** 12),
                                     min_size=ncols - len(pivots),
                                     max_size=ncols - len(pivots)))
    vec = linalg.kernel_vector(ech, pivots, ncols, free_values)
    assert vec == reference_kernel_vector(rows, ncols, free_values)
    assert all(dot(row, vec) == 0 for row in rows)


@pytest.mark.parametrize("n,d,seed", [(8, 3, 1), (8, 2, 5), (9, 2, 4)])
def test_echelon_of_an_array_matches_plain_bareiss(n, d, seed, paths):
    # the int64 path takes the Bareiss steps entry for entry, and an int64
    # array goes in as it is
    rows = primal_rows(n, d, seed)
    ech, pivots = linalg.echelon(np.array(rows), len(rows[0]))
    assert (ech, pivots) == reference_bareiss(rows, len(rows[0]))
    assert all(type(a) is int for row in ech for a in row)
    assert paths == INT64_ONLY


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_staircase_column_takes_int64_kernel(seed, paths):
    # a wide 0/1 system above the cell gate: staircase_column eliminates it
    # through `echelon` in int64, and finds the column that Python-int
    # Bareiss finds, for a random v and for a v in the row space
    rng = random.Random(seed)
    cols = sorted(range(128), key=lambda m: (m.bit_count(), m))
    rows = [[1 if m & x == m else 0 for m in cols]
            for x in rng.sample(range(128), 40)]
    ncols = len(cols)
    assert len(rows) * ncols >= linalg._INT64_MIN_CELLS
    v = [rng.randint(-6, 6) for _ in range(ncols)]
    in_span = [sum(row[c] for row in rows[::3]) for c in range(ncols)]
    got = [staircase_column(rows, ncols, u) for u in (v, in_span)]
    assert paths["int64"] == 2 and paths["bareiss"] == 0
    ech, pivots = _echelon_ff(rows_to_int(rows), ncols)
    want = [next((c for c, a in enumerate(_residual(ech, pivots, u)) if a),
                 None) for u in (v, in_span)]
    assert got == want
    assert got[0] is not None and got[1] is None


@st.composite
def products(draw):
    """A small-integer matrix A.B of rank at most r, tall or square as
    often as not."""
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(max(1, ncols - 2), 10))
    r = draw(st.integers(1, ncols))
    ints = st.integers(-5, 5)
    a = draw(st.lists(st.lists(ints, min_size=r, max_size=r),
                      min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                      min_size=r, max_size=r))
    return [[dot(row, col) for col in zip(*b)] for row in a], ncols


@settings(max_examples=200, deadline=None)
@given(system=st.one_of(products(), int_matrix.map(lambda m: (m, len(m[0])))),
       prime=st.sampled_from([linalg._PRIME, 2, 3]))
def test_full_column_rank_mod_p_true_is_a_proof(system, prime):
    # a True from any prime, the patched 2 and 3 included, is a full rank
    # over the integers; lists and int64 arrays get the same answer
    rows, ncols = system
    with mock.patch.object(linalg, "_PRIME", prime):
        full = full_column_rank_mod_p(rows, ncols)
        assert full_column_rank_mod_p(np.array(rows, dtype=np.int64),
                                      ncols) == full
    assert not full or int_rank(rows, ncols) == ncols
    if (prime == linalg._PRIME and ncols <= 3
            and max(abs(v) for row in rows for v in row) < 50):
        # a minor of three columns with entries below 50 is below p, so
        # no nonzero one vanishes mod p
        assert full == (int_rank(rows, ncols) == ncols)


P = linalg._PRIME


@pytest.mark.parametrize("rows,ncols,full", [
    ([[P, 0], [0, 1]], 2, False),                # diag(p, 1): 0 mod p
    ([[1 << 70, 1], [3, 1]], 2, True),           # reduced before int64
    ([[1 << 70, 1], [(1 << 70) % P, 1]], 2, False),  # rank 2 over Z only
    ([[1, 2, 3]], 3, False),                     # wide: no pivot in col 1
    ([[0, 1], [1, 0], [1, 1]], 2, True),         # a row swap
    ([[]], 0, True)])
def test_full_column_rank_mod_p_cases(rows, ncols, full):
    assert full_column_rank_mod_p(rows, ncols) == full
    if full:
        assert int_rank(rows, ncols) == ncols


def test_full_column_rank_mod_p_refuses_past_int64_bound(monkeypatch):
    # with p = 2^31 - 1 two columns already allow p + 2 p^2 > 2^62
    monkeypatch.setattr(linalg, "_PRIME", (1 << 31) - 1)
    assert not full_column_rank_mod_p([[1, 0], [0, 1]], 2)
    assert full_column_rank_mod_p([[1]], 1)


def test_full_column_rank_mod_p_on_reduced_systems():
    # the tall systems `polys.ndeg` certifies, against the exact rank
    from ndqc.boolfn import random_table
    from ndqc.polys import _ball_weights, _reduced_system
    rng = random.Random(36)
    answers = []
    for n in (6, 7, 8):
        for _ in range(4):
            f = random_table(n, rng)
            for d in range(n + 1):
                low, rows = _reduced_system(f, d, _ball_weights(n, d))
                if 0 < len(low) <= len(rows):
                    exact = int_rank(rows.tolist(), len(low)) == len(low)
                    assert full_column_rank_mod_p(rows, len(low)) == exact
                    answers.append(exact)
    assert sum(answers) > 10

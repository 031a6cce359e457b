"""Exact integer linear algebra: fraction-free elimination, rank, nullspaces.

All ground-truth computations here are over the integers/rationals with
arbitrary precision.  The one modular computation is one-sided: `nullspace`
may prove an empty nullspace by full column rank modulo a prime.
"""

from fractions import Fraction
from math import gcd, lcm

import numpy as np

# The largest prime below 2^15: residues are < _P, so every product of two
# residues is < 2^30 and elimination runs in int32 without overflow.
_P = 32749
# Below this many cells numpy's fixed cost exceeds the Bareiss time saved.
_CERT_MIN_CELLS = 4096


def rows_to_int(rows):
    """Scale each (possibly rational) row to a primitive integer row."""
    out = []
    for row in rows:
        if all(type(v) is int for v in row):
            ints = list(row)
        else:
            fr = [Fraction(v) for v in row]
            den = lcm(*(f.denominator for f in fr))
            ints = [int(f * den) for f in fr]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _echelon_ff(rows, ncols):
    """Fraction-free (Bareiss) row echelon with left-to-right column pivoting.

    Returns (echelon_rows, pivots) where pivots is a list of (row, col) with
    strictly increasing columns.  Input rows are consumed (copied first).
    A row with a zero in the pivot column is only rescaled by piv/prev, and
    those factors telescope, so the rescaling is deferred: row r's entries
    are current for the pivot value scaled[r], and the row is brought up to
    date by one exact multiply-divide when it is next used.  Rows still
    stale at the end are zero, so the result equals plain Bareiss entry for
    entry.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    scaled = [1] * nrows
    pivots = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        if pr >= nrows:
            break
        # locate a pivot in column pc at or below row pr
        sel = None
        for r in range(pr, nrows):
            if m[r][pc] != 0:
                sel = r
                break
        if sel is None:
            continue
        if sel != pr:
            m[pr], m[sel] = m[sel], m[pr]
            scaled[pr], scaled[sel] = scaled[sel], scaled[pr]
        mp = m[pr]
        if scaled[pr] != prev:
            mp[pc:] = [a * prev // scaled[pr] for a in mp[pc:]]
        piv = mp[pc]
        for r in range(pr + 1, nrows):
            mr = m[r]
            if mr[pc] == 0:
                continue
            if scaled[r] != prev:
                mr[pc:] = [a * prev // scaled[r] for a in mr[pc:]]
            t = mr[pc]
            for c in range(pc + 1, ncols):
                mr[c] = (mr[c] * piv - t * mp[c]) // prev
            mr[pc] = 0
            scaled[r] = piv
        pivots.append((pr, pc))
        prev = piv
        pr += 1
    return m, pivots


def int_rank(rows, ncols=None):
    """Exact rank of an integer (or rational) matrix."""
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    ints = rows_to_int(rows)
    _, pivots = _echelon_ff(ints, ncols)
    return len(pivots)


def nullspace(rows, ncols):
    """Primitive-integer basis of the right nullspace of an integer matrix.

    Columns are processed left to right, so the basis vector attached to a
    free column j is supported on pivot columns left of j plus j itself.
    The basis is returned as a list of (free_col, vector) pairs in ascending
    free-column order, each vector primitive with vector[j] > 0; with
    columns pre-sorted by degree this gives the degree staircase used by the
    nondeterministic-degree engine.  Back-substitution stays in the
    integers: before solving for a pivot variable the partial vector is
    scaled by just enough to make that entry integral.

    A tall system (at least ncols rows, at least _CERT_MIN_CELLS cells) is
    first eliminated modulo _P.  Rank ncols there proves rank ncols over
    the rationals, since a minor that is nonzero mod _P is a nonzero
    integer, so the empty basis is returned at once; any other outcome
    falls through to the exact elimination.
    """
    ints = rows_to_int(rows)
    if (len(ints) >= ncols and len(ints) * ncols >= _CERT_MIN_CELLS
            and _full_rank_mod_p(ints, ncols)):
        return []
    ech, pivots = _echelon_ff(ints, ncols)
    pivot_set = {pc for _, pc in pivots}
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [0] * ncols
        vec[j] = 1
        # bottom pivot row first; vec is zero right of j, so sums stop at j
        for pr, pc in reversed(pivots):
            if pc > j:
                continue
            row = ech[pr]
            s = dot(row[pc + 1:j + 1], vec[pc + 1:j + 1])
            if not s:
                continue
            p = row[pc]
            g = gcd(s, p)
            k = abs(p) // g
            if k > 1:
                vec[pc + 1:j + 1] = [v * k for v in vec[pc + 1:j + 1]]
            vec[pc] = -s // g if p > 0 else s // g
        g = gcd(*vec)
        if g > 1:
            vec = [v // g for v in vec]
        basis.append((j, tuple(vec)))
    return basis


def _full_rank_mod_p(ints, ncols):
    """True when the integer rows have rank ncols modulo _P.

    Gaussian elimination in one int32 array, updated in place through one
    preallocated scratch buffer.  Returns False at the first column without
    a pivot, and also when an entry does not fit in int32 (the exact path
    then decides).
    """
    try:
        a = np.array(ints, dtype=np.int32)
    except OverflowError:
        return False
    a %= _P
    buf = np.empty((len(ints) - 1) * (ncols - 1), dtype=np.int32)
    for c in range(ncols):
        nz = np.flatnonzero(a[c:, c])
        if not nz.size:
            return False
        r = c + int(nz[0])
        if r != c:
            a[[c, r]] = a[[r, c]]
        row = a[c, c + 1:]
        row *= pow(int(a[c, c]), -1, _P)
        row %= _P
        below = a[c + 1:, c + 1:]
        t = buf[:below.size].reshape(below.shape)
        np.multiply(a[c + 1:, c, None], row, out=t)
        below -= t
        below %= _P
    return True


def staircase_column(rows, ncols, v):
    """First free column j whose nullspace vector vec_j has dot(v, vec_j)
    != 0, or None when v lies in the row space of rows.

    Found without building the nullspace: reducing v against the echelon
    rows leaves a residual r that is zero on every pivot column, and since
    vec_j is supported on pivot columns left of j plus j itself,
    dot(r, vec_j) = r[j] * vec_j[j].  So j is r's first nonzero column.
    """
    ech, pivots = _echelon_ff(rows_to_int(rows), ncols)
    r = _residual(ech, pivots, v)
    return next((c for c, a in enumerate(r) if a), None)


def _residual(ech, pivots, v):
    """Primitive integer multiple of v reduced against the echelon rows.

    Each pivot entry is cleared by a fraction-free row step, and the row's
    content is divided out after every step so entries stay small.
    """
    [r] = rows_to_int([v])
    for pr, pc in pivots:
        t = r[pc]
        if not t:
            continue
        row = ech[pr]
        p = row[pc]
        r = [p * a - t * b for a, b in zip(r, row)]
        g = gcd(*r)
        if g > 1:
            r = [a // g for a in r]
    return r


def dot(u, v):
    return sum(a * b for a, b in zip(u, v) if a and b)

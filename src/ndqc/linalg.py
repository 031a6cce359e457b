"""Exact integer linear algebra: fraction-free elimination, rank, nullspaces.

All ground-truth computations here are over the integers/rationals with
arbitrary precision.
"""

from fractions import Fraction
from math import gcd, lcm


def rows_to_int(rows):
    """Scale each (possibly rational) row to a primitive integer row."""
    out = []
    for row in rows:
        fr = [Fraction(v) for v in row]
        den = lcm(*(f.denominator for f in fr)) if fr else 1
        ints = [int(f * den) for f in fr]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _echelon_ff(rows, ncols):
    """Fraction-free (Bareiss) row echelon with left-to-right column pivoting.

    Returns (echelon_rows, pivots) where pivots is a list of (row, col) with
    strictly increasing columns.  Input rows are consumed (copied first).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
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
        piv = m[pr][pc]
        for r in range(pr + 1, nrows):
            mr = m[r]
            t = mr[pc]
            if t == 0:
                # Bareiss still rescales untouched rows; dividing by prev keeps
                # entries at minor size
                for c in range(pc + 1, ncols):
                    if mr[c]:
                        mr[c] = mr[c] * piv // prev
                continue
            mp = m[pr]
            for c in range(pc + 1, ncols):
                mr[c] = (mr[c] * piv - t * mp[c]) // prev
            mr[pc] = 0
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
    free-column order; with columns pre-sorted by degree this gives the
    degree staircase used by the nondeterministic-degree engine.
    """
    if not rows:
        return [(j, tuple(1 if c == j else 0 for c in range(ncols)))
                for j in range(ncols)]
    ints = rows_to_int(rows)
    ech, pivots = _echelon_ff(ints, ncols)
    pivot_cols = [pc for _, pc in pivots]
    pivot_set = set(pivot_cols)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        # back-substitute pivot variables, bottom pivot row first
        for (pr, pc) in reversed(pivots):
            if pc > j:
                continue
            row = ech[pr]
            s = sum((Fraction(row[c]) * vec[c] for c in range(pc + 1, ncols)
                     if row[c] and vec[c]), Fraction(0))
            vec[pc] = -s / row[pc]
        den = lcm(*(v.denominator for v in vec))
        ints_vec = [int(v * den) for v in vec]
        g = 0
        for v in ints_vec:
            g = gcd(g, v)
        if g > 1:
            ints_vec = [v // g for v in ints_vec]
        basis.append((j, tuple(ints_vec)))
    return basis


def dot(u, v):
    return sum(a * b for a, b in zip(u, v) if a and b)

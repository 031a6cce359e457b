"""Exact integer linear algebra: fraction-free elimination, rank,
nullspaces and single kernel vectors.

All ground-truth computations here are over the integers/rationals and
exact.  One Bareiss elimination serves two callers: `nullspace`
back-substitutes every free column from its echelon rows, and
`kernel_vector` back-substitutes one vector with given free values from the
rows that `echelon` returns.  Large systems are eliminated in numpy int64
rather than Python ints: before every step a bound proves that no value can
wrap, and from the first step where it cannot, the work goes on in Python
ints, so the result is the same.
"""

from fractions import Fraction
from math import gcd, lcm

import numpy as np

# Below this many cells numpy's fixed cost exceeds the Bareiss time saved.
_INT64_MIN_CELLS = 4096
# An int64 step is run only when every value it forms is below this bound.
_INT64_SAFE = 1 << 62


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


def _echelon_ff(rows, ncols, start=None):
    """Fraction-free (Bareiss) row echelon with left-to-right column pivoting.

    Returns (echelon_rows, pivots) where pivots is a list of (row, col) with
    strictly increasing columns.  Input rows are consumed (copied first).
    A row with a zero in the pivot column is only rescaled by piv/prev, and
    those factors telescope, so the rescaling is deferred: row r's entries
    are current for the pivot value scaled[r], and the row is brought up to
    date by one exact multiply-divide when it is next used.  Rows still
    stale at the end are zero, so the result equals plain Bareiss entry for
    entry.

    start = (pc, prev) goes on with a plain Bareiss run that stopped before
    column pc: rows are the ones not yet used as pivot rows, zero left of
    pc, and current for the pivot value `prev`.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    first, prev = start or (0, 1)
    scaled = [prev] * nrows
    pivots = []
    pr = 0
    for pc in range(first, ncols):
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
    free-column order, each vector primitive with vector[j] > 0.
    Back-substitution stays in the integers: before solving for a pivot
    variable the partial vector is scaled by just enough to make that entry
    integral.

    A system of at least _INT64_MIN_CELLS cells whose entries fit in int64
    takes the same steps on numpy int64 arrays (`_echelon_int64`, then
    `_back_substitute_int64`), each step run only when a bound shows it
    cannot overflow; at the first step that fails the bound the work so far
    is handed to the Python-int loops.  Both paths return the same basis.
    """
    ech, pivots = _eliminate(rows, ncols)
    if len(pivots) == ncols:
        return []
    if isinstance(ech, np.ndarray):
        basis = _back_substitute_int64(ech, pivots, ncols)
        if basis is not None:
            return basis
        ech = ech.tolist()
    return _back_substitute(ech, pivots, ncols)


def echelon(rows, ncols):
    """(echelon_rows, pivots) of the Bareiss elimination that `nullspace`
    runs, the rows as lists of Python ints: the input of `kernel_vector`
    and `_residual`.  rows may be nested lists or a 2-D int array."""
    ech, pivots = _eliminate(rows, ncols)
    if isinstance(ech, np.ndarray):
        ech = ech.tolist()
    return ech, pivots


def _eliminate(rows, ncols):
    """Bareiss (ech, pivots) of rows: ech is the int64 array when the int64
    kernel ran to the end, else lists of Python ints."""
    if len(rows) * ncols >= _INT64_MIN_CELLS:
        # integer rows go in as they are, since scaling a row leaves the
        # nullspace alone; numpy would truncate a Fraction or keep a float,
        # so other rows are made integers first
        m = np.array(rows)
        if m.dtype.kind != "i":
            m = np.array(rows_to_int(rows))
        if m.dtype.kind == "i":     # else an entry is beyond int64
            return _echelon_int64(m.astype(np.int64, copy=False), ncols)
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    return _echelon_ff(rows_to_int(rows), ncols)


def kernel_vector(ech, pivots, ncols, free_values):
    """The primitive integer vector v with ech . v = 0 that is a positive
    multiple of the one taking free_values on the free columns, in
    ascending column order."""
    pivot_set = {pc for _, pc in pivots}
    vec = [0] * ncols
    free = [j for j in range(ncols) if j not in pivot_set]
    for j, v in zip(free, free_values, strict=True):
        vec[j] = v
    _solve_pivots(ech, pivots, vec, ncols)
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _back_substitute(ech, pivots, ncols):
    """`nullspace`'s basis from Bareiss echelon rows, one free column at a
    time in Python ints."""
    pivot_set = {pc for _, pc in pivots}
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [0] * ncols
        vec[j] = 1
        # vec is zero right of j, so the solve stops there
        _solve_pivots(ech, pivots, vec, j + 1)
        basis.append((j, tuple(vec)))
    return basis


def _solve_pivots(ech, pivots, vec, end):
    """Set vec's pivot entries left of `end`, bottom pivot row first, so
    that vec solves those pivot rows; vec must be zero from `end` on, and
    its other entries are scaled along.

    Each step keeps a primitive vector primitive: it maps v to k * v plus
    the entry -+s / g, with g = gcd(s, p) and k = |p| / g, and
    gcd(k * v, s / g) = gcd(k, s / g) = 1 when gcd(v) = 1.  The scaling
    starts at vec's first nonzero entry or right of the pivot, whichever
    comes first: the pivot entries set so far all lie right of it.
    """
    first = next((c for c, v in enumerate(vec) if v), end)
    for pr, pc in reversed(pivots):
        if pc >= end:
            continue
        row = ech[pr]
        s = dot(row[pc + 1:end], vec[pc + 1:end])
        if not s:
            continue
        p = row[pc]
        g = gcd(s, p)
        k = abs(p) // g
        if k > 1:
            lo = min(first, pc + 1)
            vec[lo:end] = [v * k for v in vec[lo:end]]
        vec[pc] = -s // g if p > 0 else s // g


def _echelon_int64(m, ncols):
    """Bareiss (ech, pivots) of an int64 matrix, which is eliminated in
    place: ech is m itself, or lists of Python ints after a hand-off.

    Plain Bareiss with one block update per pivot, taking the pivots that
    `_echelon_ff` takes.  The update (a * piv - t * b) // prev reads only
    entries of the active block, so no value it forms exceeds 2 * big^2,
    big being the block's largest magnitude.  numpy wraps int64 without a
    warning, so 2 * big^2 < _INT64_SAFE is checked before every update.
    When the check fails, the rows below the pivot rows go to `_echelon_ff`
    with the column and `prev`, and it goes on from there in Python ints.
    """
    nrows = len(m)
    pivots = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        if pr >= nrows:
            break
        nz = np.flatnonzero(m[pr:, pc])
        if not nz.size:
            continue
        active = m[pr:, pc:]
        big = max(int(active.max()), -int(active.min()))
        if 2 * big * big >= _INT64_SAFE:
            tail, more = _echelon_ff(m[pr:].tolist(), ncols, (pc, prev))
            pivots += [(pr + r, c) for r, c in more]
            return m[:pr].tolist() + tail, pivots
        sel = pr + int(nz[0])
        if sel != pr:
            m[[pr, sel]] = m[[sel, pr]]
        piv = int(m[pr, pc])
        below = m[pr + 1:, pc + 1:]
        below *= piv
        below -= np.multiply.outer(m[pr + 1:, pc], m[pr, pc + 1:])
        if prev != 1:
            below //= prev
        m[pr + 1:, pc] = 0
        pivots.append((pr, pc))
        prev = piv
        pr += 1
    return m, pivots


def _back_substitute_int64(ech, pivots, ncols):
    """`_back_substitute` for all free columns at once in int64, or None
    when a step could overflow.

    Column f of x holds the vector of free column free[f].  The step for a
    pivot row forms s = row . x for every column, then scales each column
    by |p| / gcd(s, p) and sets its pivot entry, as the per-column loop
    does (a column with s = 0 is scaled by 1 and gets 0 there).  No value
    formed exceeds the row's length times its largest magnitude times the
    largest magnitude in x, and that bound is checked before the step.
    """
    pivot_set = {pc for _, pc in pivots}
    free = [j for j in range(ncols) if j not in pivot_set]
    if not free:
        return []
    x = np.zeros((ncols, len(free)), dtype=np.int64)
    x[free, np.arange(len(free))] = 1
    col_max = np.ones(len(free), dtype=np.int64)
    for pr, pc in reversed(pivots):
        row = ech[pr, pc:]
        big = max(int(row.max()), -int(row.min()))
        if len(row) * big * int(col_max.max()) >= _INT64_SAFE:
            return None
        s = row[1:] @ x[pc + 1:]
        p = int(row[0])
        g = np.gcd(s, p)
        k = abs(p) // g
        x[pc + 1:] *= k
        x[pc] = s // g if p < 0 else -(s // g)
        col_max *= k
        np.maximum(col_max, np.abs(x[pc]), out=col_max)
    return list(zip(free, map(tuple, x.T.tolist())))


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

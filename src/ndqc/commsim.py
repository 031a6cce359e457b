"""Two-party functions and nondeterministic communication: matrices, the exact
rank-factorization protocol, the nonequality rotation protocol, rectangle
covers, and fooling sets.  Every matrix entry, amplitude and acceptance is
an exact integer or Fraction.

Qubit layout for protocols: Alice's private block, then the channel, then
Bob's private block; the output bit is the first channel qubit.  Messages
alternate starting with Alice and the cost is the total message qubits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .boolfn import CapExceeded
from .linalg import nullspace, rows_to_int
from .polys import MultilinearPoly, _resample, parse_rational
from .statevec import (DIM_CAP, FlipOnProjector, PrepState, ScaledMatrix,
                       Swap, Unitary, _all_rational, _check_qubits,
                       acceptance, apply_gate, basis_state)
# no caller here: kept as names the perfbench tracer requires to rebind
# (perfbench/tracer.py MUST_REBIND)
from .linalg import int_rank  # noqa: F401
from .statevec import apply_matrix_float, apply_scaled_matrix  # noqa: F401

PAIR_CAP = 10
COVER_CAP = 3

PAIR_FAMILIES = ("EQ", "NE", "DISJ", "INTERSECT_NOT_ONE")


class ZeroRow(ValueError):
    """The rank-factorization protocol's c_x is undefined on an all-zero row.

    Only possible when f(x, .) == 0; the standard workaround is one extra
    classical bit, which would break the cost formula, so we reject instead.
    """


class HypothesisViolated(ValueError):
    """The vector families do not satisfy the sum-zero-iff-f-zero premise."""


class RankBoundViolation(ValueError):
    """A collapsed matrix has rank above its family count."""


class PatternMismatch(ValueError):
    """Matrix entries are not nonzero exactly on the 1-inputs."""


@dataclass(frozen=True)
class Rectangle:
    """A product set S x T of row and column inputs, as bitmasks."""

    row_mask: int
    col_mask: int

    def rows(self):
        return [x for x in range(self.row_mask.bit_length())
                if (self.row_mask >> x) & 1]

    def cols(self):
        return [y for y in range(self.col_mask.bit_length())
                if (self.col_mask >> y) & 1]

    def cell_mask(self, size: int) -> int:
        cells = 0
        m = self.row_mask
        while m:
            x = (m & -m).bit_length() - 1
            cells |= self.col_mask << (x * size)
            m &= m - 1
        return cells


@dataclass(frozen=True)
class PairTable:
    """A function on input pairs (x, y), stored as 2^n row bitmasks."""

    n: int
    rows: tuple

    def __post_init__(self):
        _check_pair_arity(self.n)
        if len(self.rows) != 1 << self.n:
            raise ValueError("need 2^n rows")
        limit = 1 << self.size
        if not all(isinstance(r, int) and 0 <= r < limit for r in self.rows):
            raise ValueError("each row must be an int in 0..2^(2^n)-1")

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, x: int, y: int) -> int:
        return (self.rows[x] >> y) & 1

    def complement(self) -> "PairTable":
        full = (1 << self.size) - 1
        return PairTable(self.n, tuple(r ^ full for r in self.rows))

    def ones(self):
        return [(x, y) for x in range(self.size) for y in range(self.size)
                if self.value(x, y)]


def _check_pair_arity(n: int, what: str = "pair functions") -> None:
    if n < 1:
        raise CapExceeded(f"n={n} outside 1..{PAIR_CAP}")
    if n > PAIR_CAP:
        raise CapExceeded(f"{what} capped at n<={PAIR_CAP}")


def make_pair_function(family: str, n: int) -> PairTable:
    _check_pair_arity(n)
    size = 1 << n
    rows = []
    for x in range(size):
        row = 0
        for y in range(size):
            if family == "EQ":
                v = x == y
            elif family == "NE":
                v = x != y
            elif family == "DISJ":
                v = (x & y) == 0
            elif family == "INTERSECT_NOT_ONE":
                v = (x & y).bit_count() != 1
            else:
                raise ValueError(f"unknown family {family!r}")
            if v:
                row |= 1 << y
        rows.append(row)
    return PairTable(n, tuple(rows))


# ---------------------------------------------------------------------------
# nondeterministic matrices


@dataclass(frozen=True)
class NondetMatrix:
    """2^n x 2^n matrix of exact rationals whose nonzero pattern is exactly
    the 1-set of target.  The constructor stores each entry as an int when
    it is integral, else as a Fraction, and rejects any entry that is not a
    `numbers.Rational` (floats, complex numbers, numpy floats)."""

    n: int
    entries: tuple
    target: PairTable

    def __post_init__(self):
        size = 1 << self.n
        if self.target.n != self.n:
            raise ValueError("target arity mismatch")
        if len(self.entries) != size or any(len(r) != size
                                            for r in self.entries):
            raise ValueError("matrix shape mismatch")
        rows = []
        for x, row in enumerate(self.entries):
            if not _all_rational(row):
                raise ValueError(f"row {x}: entries must be exact rationals")
            row = tuple(v if type(v) is int else int(v) if v.denominator == 1
                        else Fraction(v) for v in row)
            pattern = sum(1 << y for y, v in enumerate(row) if v)
            wrong = pattern ^ self.target.rows[x]
            if wrong:
                y = (wrong & -wrong).bit_length() - 1
                raise PatternMismatch(
                    f"entry ({x},{y}) breaks the nonzero pattern")
            rows.append(row)
        object.__setattr__(self, "entries", tuple(rows))

    def rank(self) -> int:
        """The pivot count of the cached rank factorization."""
        return len(self._factors[0][0])

    @cached_property
    def _factors(self):
        """`_rank_factors(self)`, computed once per matrix for its rank, the
        protocol and its acceptance sweep."""
        return _rank_factors(self)


def matrix_from_poly(p: MultilinearPoly, f: PairTable) -> NondetMatrix:
    """M(x, y) = p(x & y); p must be nondeterministic for the induced
    single-argument function, i.e. the pattern check must pass."""
    if p.n != f.n:
        raise ValueError("arity mismatch")
    nums, den = p._int_values()
    vals = [v // den if v % den == 0 else Fraction(v, den) for v in nums]
    size = 1 << f.n
    return NondetMatrix(f.n, tuple(tuple(vals[x & y] for y in range(size))
                                   for x in range(size)), f)


# ---------------------------------------------------------------------------
# structural full-rank certificates


@dataclass(frozen=True)
class FullRankEvidence:
    kind: str                  # DIAGONAL | TRIANGULAR | NONE
    row_order: tuple | None
    col_order: tuple | None
    nrank: int | None          # 2^n when a certificate applies


def full_rank_check(f: PairTable) -> FullRankEvidence:
    """Structural proof that every nondeterministic matrix for f has full
    rank: DIAGONAL if the pattern is the identity, TRIANGULAR if some
    row/column ordering puts the pattern in triangular form with a nonzero
    diagonal (found by peeling the first live row with one live nonzero,
    which is complete: a triangularizable pattern always has such a row, its
    last, and peeling one keeps the rest triangularizable); NONE otherwise.
    """
    size = 1 << f.n
    if all(f.rows[x] == (1 << x) for x in range(size)):
        order = tuple(range(size))
        return FullRankEvidence("DIAGONAL", order, order, size)
    live_cols = (1 << size) - 1
    live_rows = list(range(size))
    rows_rev, cols_rev = [], []
    while live_rows:
        for x in live_rows:
            alive = f.rows[x] & live_cols
            if alive and alive & (alive - 1) == 0:
                break
        else:
            return FullRankEvidence("NONE", None, None, None)
        live_rows.remove(x)
        rows_rev.append(x)
        cols_rev.append(alive.bit_length() - 1)
        live_cols ^= alive
    return FullRankEvidence("TRIANGULAR", tuple(reversed(rows_rev)),
                            tuple(reversed(cols_rev)), size)


def nrank_lower_bound(f: PairTable) -> int:
    """Greedy triangular subpattern: a sequence of 1-cells (r_i, c_i) with
    f(r_i, c_j) = 0 for j < i forces rank >= length on every matrix with
    this pattern.  Heuristic (tries both row orders), always valid."""
    best = 1 if any(f.rows) else 0
    size = 1 << f.n
    for order in (range(size), reversed(range(size))):
        chosen_cols = 0
        count = 0
        for x in order:
            if f.rows[x] & chosen_cols:
                continue
            avail = f.rows[x] & ~chosen_cols
            if avail:
                chosen_cols |= avail & -avail
                count += 1
        best = max(best, count)
    return best


# ---------------------------------------------------------------------------
# protocols


@dataclass(frozen=True)
class Round:
    party: str            # "A" or "B"
    message_qubits: int
    ops: object           # callable: party input -> tuple of statevec gates


@dataclass(frozen=True)
class ProtocolSpec:
    alice_qubits: int
    channel_qubits: int
    bob_qubits: int
    rounds: tuple
    cost: int

    def __post_init__(self):
        if sum(r.message_qubits for r in self.rounds) != self.cost:
            raise ValueError("declared cost must equal summed message sizes")
        for i, r in enumerate(self.rounds):
            want = "A" if i % 2 == 0 else "B"
            if r.party != want:
                raise ValueError("rounds must alternate starting with Alice")
            if r.message_qubits > self.channel_qubits:
                raise ValueError("message larger than the channel")

    @property
    def num_qubits(self) -> int:
        return self.alice_qubits + self.channel_qubits + self.bob_qubits

    @property
    def output_qubit(self) -> int:
        return self.alice_qubits  # first channel qubit

    def party_qubits(self, party: str) -> tuple:
        a, c, b = self.alice_qubits, self.channel_qubits, self.bob_qubits
        if party == "A":
            return tuple(range(a + c))
        return tuple(range(a, a + c + b))


def run_protocol(spec: ProtocolSpec, x: int, y: int) -> Fraction:
    """Simulate the protocol on an ExactState; returns the acceptance as an
    exact Fraction."""
    if (1 << spec.num_qubits) > DIM_CAP:
        raise CapExceeded("protocol state dimension above 2^20")
    state = basis_state(spec.num_qubits)
    for rnd in spec.rounds:
        state = _run_round(spec, rnd, x if rnd.party == "A" else y, state)
    return acceptance(state, spec.output_qubit)


def _run_round(spec, rnd, v, state):
    """Apply the round's gates for party input v, on its party's qubits."""
    allowed = spec.party_qubits(rnd.party)
    for gate in rnd.ops(v):
        _check_qubits(gate, allowed)
        state = apply_gate(state, spec.num_qubits, gate)
    return state


# ---------------------------------------------------------------------------
# the rank-factorization protocol


def svd_protocol(M: NondetMatrix) -> ProtocolSpec:
    """One-round protocol from the rank factorization M = C R (kept under
    its historical name): Alice sends a_x/|a_x| on ceil(log2 r) qubits, a_x
    her row of C up to a positive scale; Bob swaps it into his register and
    flips the reply qubit by the projector onto b_y, his column of R up to a
    positive scale.  Acceptance is (a_x.b_y)^2 / (|a_x|^2 |b_y|^2) =
    c_x^2 d_y^2 M_xy^2 exactly, positive iff M_xy != 0; a zero column has
    b_y = 0 and no flip.
    """
    a, b = _protocol_factors(M)
    n = M.n
    msg = (len(a[0]) - 1).bit_length()  # ceil(log2 r)
    chan = max(msg, 1)
    chan_qubits = tuple(range(chan))
    bob_qubits = tuple(range(chan, chan + n))

    def alice_ops(x):
        return (PrepState(chan_qubits, a[x]),)

    def bob_ops(y):
        # r <= 2^n, so chan <= n: the message lands in Bob's low qubits
        ops = [Swap(j, chan + j) for j in range(chan)]
        if any(b[y]):
            ops.append(FlipOnProjector(0, bob_qubits, b[y]))
        return tuple(ops)

    return ProtocolSpec(alice_qubits=0, channel_qubits=chan, bob_qubits=n,
                        rounds=(Round("A", msg, alice_ops),
                                Round("B", 1, bob_ops)),
                        cost=msg + 1)


def _rank_factors(M: NondetMatrix):
    """Integer rank factors (a, b) of a rational M: a_x . b_y = k_x m_y M_xy
    with k_x, m_y > 0, every vector of length r = rank M.

    a_x is row x at the pivot columns, scaled as `rows_to_int` scales it.
    b_y is column y of M's reduced echelon form R (M = M[:, pivots] R) times
    vec_y[y] > 0, read off the nullspace basis: e_i at pivot i, and
    -vec_y[pivots] at a free column y, since R vec_y = 0 and R is the
    identity on the pivot columns.
    """
    size = 1 << M.n
    ints = rows_to_int(M.entries)
    free = dict(nullspace(ints, size))
    pivots = [y for y in range(size) if y not in free]
    a = [[row[p] for p in pivots] for row in ints]
    b = [[-free[y][p] for p in pivots] if y in free
         else [int(p == y) for p in pivots] for y in range(size)]
    return a, b


def _protocol_factors(M: NondetMatrix):
    """M's cached rank factors; ZeroRow where c_x ~ 1/|a_x| is undefined
    (a_x is zero exactly when row x of M is)."""
    a, b = M._factors
    for x, row in enumerate(a):
        if not any(row):
            raise ZeroRow(f"row {x} is zero; c_x undefined")
    return a, b


def svd_acceptance_sweep(M: NondetMatrix):
    """Exact acceptance over all 2^{2n} pairs, from the protocol's integer
    factors: [x][y] = (a_x.b_y)^2 / (|a_x|^2 |b_y|^2) as a Fraction."""
    a, b = _protocol_factors(M)
    b_norm2 = [sum(v * v for v in col) for col in b]
    b_rows = list(zip(*b))
    zero = Fraction(0)
    out = []
    for row in a:
        dots = [0] * len(b)
        for ai, b_row in zip(row, b_rows):
            if ai:
                dots = [s + ai * v for s, v in zip(dots, b_row)]
        a_norm2 = sum(v * v for v in row)
        out.append([Fraction(d * d, a_norm2 * nb) if d else zero
                    for d, nb in zip(dots, b_norm2)])
    return out


def svd_protocol_cost(rank: int) -> int:
    if rank < 1:
        raise ValueError("rank must be positive")
    return max((rank - 1).bit_length(), 0) + 1


# ---------------------------------------------------------------------------
# final-state vector families of a simulated two-round protocol


def final_state_families(spec: ProtocolSpec, n: int):
    """Read the final-state decomposition sum_i A_i(x) (x) B_i(y) off a
    simulated two-round protocol with no Alice private space.

    Histories i = (message basis w, reply bit b); returns the accepting
    (b = 1) families as (A_list, B_list): A_i(x) is the 1-dim vector of
    Alice's amplitude on |w>, B_i(y) is Bob's block of the final state fed
    with channel basis |w>.  The families are amplitude numerators: each
    state's scale depends only on its party's input, so the families differ
    from the amplitudes by positive per-party scales, which change neither
    the zero pattern of the tensor sum nor its rank.
    """
    if spec.alice_qubits != 0 or len(spec.rounds) != 2:
        raise ValueError("families are read off 0-private two-round protocols")
    size = 1 << n
    chan = spec.channel_qubits
    alice_round, bob_round = spec.rounds

    def real_amps(rnd, v, w):
        st = _run_round(spec, rnd, v, basis_state(spec.num_qubits, w))
        if st.im is not None and any(st.im):
            raise ValueError("complex amplitudes unexpected here")
        return st.re

    alice = [real_amps(alice_round, x, 0) for x in range(size)]
    a_fams, b_fams = [], []
    for w in range(1 << chan):
        a_fams.append({x: (amps[w],) for x, amps in enumerate(alice)})
        b_entry = {}
        for y in range(size):
            amps = real_amps(bob_round, y, w)
            # reply bit set, rest of the channel 0
            b_entry[y] = tuple(amps[(z << chan) | 1]
                               for z in range(1 << spec.bob_qubits))
        b_fams.append(b_entry)
    return a_fams, b_fams


# ---------------------------------------------------------------------------
# the nonequality rotation protocol


def _rotation_power(k: int):
    """(a, b) with a + ib = (3 + 4i)^k = 5^k (cos k theta + i sin k theta),
    cos theta = 3/5.  theta/pi is irrational (Niven), so b = 0 only at k = 0
    and the rotation by k theta is a rational unitary of infinite order."""
    a, b, pa, pb = 1, 0, 3, 4
    while k:
        if k & 1:
            a, b = a * pa - b * pb, a * pb + b * pa
        pa, pb = pa * pa - pb * pb, 2 * pa * pb
        k >>= 1
    return a, b


def ne_protocol(n: int, x: int, y: int) -> Fraction:
    """Acceptance of the rotation protocol: Alice rotates |0> by x theta,
    Bob rotates back by y theta and measures; sin^2((x - y) theta) =
    (b_x a_y - a_x b_y)^2 / 25^(x+y), zero iff x = y."""
    _check_pair_arity(n, "rotation protocol")
    if not (0 <= x < (1 << n) and 0 <= y < (1 << n)):
        raise ValueError("inputs out of range")
    ax, bx = _rotation_power(x)
    ay, by = _rotation_power(y)
    d = bx * ay - ax * by
    return Fraction(d * d, (ax * ax + bx * bx) * (ay * ay + by * by))


def ne_protocol_spec(n: int) -> ProtocolSpec:
    """The same protocol as a 2-message ProtocolSpec (cost 2 qubits)."""
    _check_pair_arity(n, "rotation protocol")

    def rotation(k, sign):
        a, b = _rotation_power(k)
        return (Unitary((0,), ScaledMatrix(((a, -sign * b), (sign * b, a)),
                                           None, a * a + b * b)),)

    return ProtocolSpec(alice_qubits=0, channel_qubits=1, bob_qubits=0,
                        rounds=(Round("A", 1, lambda x: rotation(x, 1)),
                                Round("B", 1, lambda y: rotation(y, -1))),
                        cost=2)


def ne_matrix(n: int) -> NondetMatrix:
    """The integer rank-2 matrix N_xy = b_x a_y - a_x b_y = 25^min(x,y) *
    sign(x - y) * b_|x-y|, nonzero exactly off the diagonal."""
    f = make_pair_function("NE", n)
    z = [_rotation_power(k) for k in range(f.size)]
    return NondetMatrix(n, tuple(tuple(bx * ay - ax * by for ay, by in z)
                                 for ax, bx in z), f)


# ---------------------------------------------------------------------------
# rectangle covers and fooling sets


def closed_one_rectangles(f: PairTable) -> list:
    """All Galois-closed 1-rectangles; every 1-rectangle extends to one, so
    minimum covers over this list equal minimum covers overall."""
    if f.n > COVER_CAP:
        raise CapExceeded(f"rectangle enumeration capped at n<={COVER_CAP}")
    size = 1 << f.n
    full_cols = (1 << size) - 1
    out = {}
    for smask in range(1, 1 << size):
        cols = full_cols
        m = smask
        while m:
            x = (m & -m).bit_length() - 1
            cols &= f.rows[x]
            m &= m - 1
        if not cols:
            continue
        rows_closed = 0
        for x in range(size):
            if f.rows[x] & cols == cols:
                rows_closed |= 1 << x
        out[(rows_closed, cols)] = Rectangle(rows_closed, cols)
    return list(out.values())


def cover_number(f: PairTable, b: int) -> int:
    """Minimum number of b-rectangles covering all b-inputs (0 if none).

    Enumerates closed rectangles through the Galois connection and solves
    the set cover exactly with `_min_cover`'s decision search, asking
    "do k rectangles suffice?" for k upward from the area bound.

    Two 1-cells (x1, y1), (x2, y2) are compatible iff f(x1, y2) = f(x2, y1)
    = 1, and a set of 1-cells lies in one 1-rectangle iff its cells are
    pairwise compatible.  So one rectangle covers cells R iff R is
    independent in the graph of incompatible pairs, and two cover R iff
    that graph is bipartite on R.  `_min_cover` gets each 1-cell's mask of
    incompatible 1-cells and decides k <= 2 by these tests.
    """
    if f.n > COVER_CAP:
        raise CapExceeded(f"cover search capped at n<={COVER_CAP}")
    if b == 0:
        return cover_number(f.complement(), 1)
    if b != 1:
        raise ValueError("b must be 0 or 1")
    size = 1 << f.n
    cells = 0  # bit (x*size + y)
    for x in range(size):
        cells |= f.rows[x] << (x * size)
    if not cells:
        return 0
    rect_cells = {r.cell_mask(size) for r in closed_one_rectangles(f)}
    rects = sorted(rect_cells, key=lambda c: -c.bit_count())
    return _min_cover(cells, rects, _incompatible_cells(f, cells))


def _incompatible_cells(f: PairTable, cells: int) -> list:
    """Entry x*size + y: the 1-cells incompatible with 1-cell (x, y), in the
    cell-bit layout of `cells` (0 for 0-cells)."""
    size = f.size
    out = [0] * (size * size)
    for x in range(size):
        for y in range(size):
            if f.value(x, y):
                out[x * size + y] = cells & ~sum(
                    f.rows[x] << (x2 * size) for x2 in range(size)
                    if f.value(x2, y))
    return out


def _neighbours(cells: int, incompatible: list) -> int:
    reach = 0
    while cells:
        bit = cells & -cells
        reach |= incompatible[bit.bit_length() - 1]
        cells ^= bit
    return reach


def _bipartite(remaining: int, incompatible: list) -> bool:
    """The incompatibility graph on `remaining` has no odd cycle, checked by
    a breadth-first search in bitmask layers: no edge may join two cells of
    one layer."""
    while remaining:
        layer = seen = remaining & -remaining
        while layer:
            reach = _neighbours(layer, incompatible)
            if reach & layer:
                return False
            layer = reach & remaining & ~seen
            seen |= layer
        remaining &= ~seen
    return True


def _min_cover(universe: int, sets: list, incompatible: list) -> int:
    """Least number of `sets` whose union is `universe` (nonzero): the first
    k = ceil(|universe| / largest set), k + 1, ... for which `fits` says k
    sets suffice. The loop ends because every cell lies in some set (each
    1-cell lies in the closed rectangle its row generates).

    A `fits` node fails when its uncovered cells outnumber k largest sets.
    At k = 1 it checks that no two uncovered cells are `incompatible`, and
    at k = 2 that their incompatibility graph is bipartite.  These tests
    are exact only because `sets` are the closed 1-rectangles of a
    `PairTable`: pairwise compatible cells span an all-ones rectangle, and
    its Galois closure is one of `sets`.  At k >= 3 a node branches on its
    least-covered uncovered cell (lowest bit on ties), trying that cell's
    sets in the order of `sets`. Cover counts do not depend on the node, so
    each cell's list is built once and the cells are sorted by (list
    length, bit).
    """
    max_size = max(s.bit_count() for s in sets)
    covering = {}
    for s in sets:
        m = s
        while m:
            bit = m & -m
            covering.setdefault(bit, []).append(s)
            m ^= bit
    order = sorted(covering.items(), key=lambda kv: (len(kv[1]), kv[0]))

    def fits(remaining: int, k: int) -> bool:
        if remaining.bit_count() > k * max_size:
            return False
        if k == 1:
            return not _neighbours(remaining, incompatible) & remaining
        if k == 2:
            return _bipartite(remaining, incompatible)
        for bit, options in order:
            if remaining & bit:
                break
        for s in options:
            rest = remaining & ~s
            if not rest or fits(rest, k - 1):
                return True
        return False

    k = -(-universe.bit_count() // max_size)
    while not fits(universe, k):
        k += 1
    return k


def ncc_from_cover(cov: int) -> int:
    """Ncc = ceil(log2 Cov^1) + 1."""
    if cov < 1:
        raise ValueError("need at least one rectangle")
    return (cov - 1).bit_length() + 1


def fooling_set_check(f: PairTable, pairs) -> tuple:
    """(is_fooling, bound): no two members fit one 1-rectangle, giving
    Cov^1(f) >= |S| and Ncc(f) >= ceil(log |S|) + 1."""
    pairs = list(pairs)
    for (x, y) in pairs:
        if not f.value(x, y):
            raise ValueError(f"({x},{y}) is not a 1-input")
    for i in range(len(pairs)):
        xi, yi = pairs[i]
        for j in range(i + 1, len(pairs)):
            xj, yj = pairs[j]
            if f.value(xi, yj) and f.value(xj, yi):
                return False, 0
    return True, len(pairs)


def intersect_complement_fooling_set(n: int):
    """{(x, y): x_1 = y_1 = 1, x_i = ~y_i for i > 1}: 2^{n-1} 1-inputs of the
    complement of the intersect-not-one function."""
    out = []
    top = (1 << n) - 2  # bits 2..n
    for u in range(1 << (n - 1)):
        x = 1 | (u << 1)
        y = 1 | ((~u << 1) & top)
        out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# collapsing vector families into a low-rank nondeterministic matrix


def matrix_from_vector_families(a_fams, b_fams, f: PairTable,
                                seed: int) -> NondetMatrix:
    """Collapse vector families with sum_i A_i(x) (x) B_i(y) = 0 iff f = 0
    into a rank-<=m nondeterministic matrix, via random integer functionals
    alpha, beta from {1..2^{2n+1}} (verified exactly, resampled on failure).

    a_fams/b_fams: per i, a mapping x -> tuple (the vectors); the two sides
    may have different dimensions (nothing below needs them padded to a
    common one).  Entries must be exact rationals (ints or Fractions).
    """
    m = len(a_fams)
    if len(b_fams) != m:
        raise ValueError("family sizes differ")
    size = 1 << f.n
    d_a = len(next(iter(a_fams[0].values())))
    d_b = len(next(iter(b_fams[0].values())))
    a_vecs = [[fam[x] for fam in a_fams] for x in range(size)]
    b_vecs = [[fam[y] for fam in b_fams] for y in range(size)]
    if not all(_all_rational(vec) for vecs in (a_vecs, b_vecs)
               for per_input in vecs for vec in per_input):
        raise ValueError("family entries must be exact rationals")
    # indices i with A_i(x) nonzero; zero summands never flip the pattern
    a_live = [[i for i in range(m) if any(a_vecs[x][i])]
              for x in range(size)]
    for x in range(size):
        live = a_live[x]
        for y in range(size):
            zero = all(
                sum(a_vecs[x][i][j] * b_vecs[y][i][k] for i in live) == 0
                for j in range(d_a) for k in range(d_b))
            if zero != (f.value(x, y) == 0):
                raise HypothesisViolated(
                    f"tensor sum zero-pattern breaks at ({x},{y})")
    rng = random.Random(seed)
    bound = 1 << (2 * f.n + 1)

    def attempt():
        alpha = [rng.randint(1, bound) for _ in range(d_a)]
        beta = [rng.randint(1, bound) for _ in range(d_b)]
        a_num = [[sum(alpha[j] * a_vecs[x][i][j] for j in range(d_a))
                  for i in range(m)] for x in range(size)]
        b_num = [[sum(beta[k] * b_vecs[y][i][k] for k in range(d_b))
                  for i in range(m)] for y in range(size)]
        entries = [[sum(a_num[x][i] * b_num[y][i] for i in a_live[x])
                    for y in range(size)] for x in range(size)]
        ok = all((entries[x][y] != 0) == (f.value(x, y) == 1)
                 for x in range(size) for y in range(size))
        return entries if ok else None

    mat = NondetMatrix(f.n, _resample(attempt, "family collapse")[0], f)
    if mat.rank() > m:
        raise RankBoundViolation(f"collapsed rank exceeds {m}")
    return mat


# ---------------------------------------------------------------------------
# matrix CSV and protocol structure files


def matrix_to_csv_lines(M: NondetMatrix) -> list:
    lines = [f"n,{M.n},mode,exact"]
    for row in M.entries:
        lines.append(",".join(map(str, row)))
    return lines


def matrix_from_csv_lines(lines) -> NondetMatrix:
    head = lines[0].strip().split(",") if lines else []
    if len(head) != 4 or head[0] != "n" or head[2] != "mode" \
            or head[3] != "exact":
        raise ValueError("bad matrix header")
    n = int(head[1])
    _check_pair_arity(n)
    size = 1 << n
    body = [line.strip().split(",") for line in lines[1:] if line.strip()]
    if len(body) != size or any(len(r) != size for r in body):
        raise ValueError("matrix body shape mismatch")
    entries = tuple(tuple(parse_rational(v) for v in row) for row in body)
    rows = tuple(sum((1 << y) for y in range(size) if entries[x][y])
                 for x in range(size))
    return NondetMatrix(n, entries, PairTable(n, rows))

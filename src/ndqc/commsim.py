"""Two-party functions and nondeterministic communication: matrices, the exact
rank-factorization protocol, the nonequality rotation protocol, rectangle
covers, and fooling sets.

Qubit layout for protocols: Alice's private block, then the channel, then
Bob's private block; the output bit is the first channel qubit.  Messages
alternate starting with Alice and the cost is the total message qubits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import CapExceeded
from .linalg import int_rank, nullspace, rows_to_int
from .polys import MultilinearPoly, _resample, parse_rational
from .statevec import ExactState, ScaledMatrix, apply_label_map, \
    apply_matrix_float, apply_scaled_matrix, register_values, \
    subset_index_maps

PAIR_CAP = 10
FULL_RANK_CAP = 8
COVER_CAP = 3
NE_CAP = 30
PROTOCOL_DIM_CAP = 1 << 20
FLOAT_RANK_TOL = 1e-9

PAIR_FAMILIES = ("EQ", "NE", "DISJ", "INTERSECT_NOT_ONE")


class ZeroRow(ValueError):
    """The rank-factorization protocol's c_x is undefined on an all-zero row.

    Only possible when f(x, .) == 0; the standard workaround is one extra
    classical bit, which would break the cost formula, so we reject instead.
    """


class FloatMatrix(ValueError):
    """The rank-factorization protocol needs rational entries."""


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

    def is_b_rectangle(self, f: "PairTable", b: int) -> bool:
        return all(f.value(x, y) == b for x in self.rows()
                   for y in self.cols())

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
        if not 1 <= self.n <= PAIR_CAP:
            raise CapExceeded(f"pair functions capped at n<={PAIR_CAP}")
        if len(self.rows) != 1 << self.n:
            raise ValueError("need 2^n rows")

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


def make_pair_function(family: str, n: int) -> PairTable:
    if not 1 <= n <= PAIR_CAP:
        raise CapExceeded(f"pair functions capped at n<={PAIR_CAP}")
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
    """2^n x 2^n matrix whose nonzero pattern is exactly the 1-set of target.

    Entries are exact rationals, or floats with is_float provenance (used for
    the irrational sine construction); the pattern check compares against
    literal zero in both cases.
    """

    n: int
    entries: tuple
    target: PairTable
    is_float: bool = False

    def __post_init__(self):
        size = 1 << self.n
        if self.target.n != self.n:
            raise ValueError("target arity mismatch")
        if len(self.entries) != size or any(len(r) != size
                                            for r in self.entries):
            raise ValueError("matrix shape mismatch")
        for x in range(size):
            for y in range(size):
                if bool(self.entries[x][y]) != bool(self.target.value(x, y)):
                    raise PatternMismatch(
                        f"entry ({x},{y}) breaks the nonzero pattern")

    def rank(self) -> int:
        if self.is_float:
            arr = np.array(self.entries, dtype=float)
            s = np.linalg.svd(arr, compute_uv=False)
            if s.size == 0 or s[0] == 0:
                return 0
            return int(np.sum(s > FLOAT_RANK_TOL * s[0]))
        return int_rank([list(r) for r in self.entries], 1 << self.n)


def exact_matrix(n, entries, target) -> NondetMatrix:
    """Rational entries, integral ones stored as ints."""
    return NondetMatrix(n, tuple(tuple(map(_exact_entry, row))
                                 for row in entries), target)


def _exact_entry(v):
    if type(v) is int:
        return v
    v = Fraction(v)
    return int(v.numerator) if v.denominator == 1 else v


def matrix_from_poly(p: MultilinearPoly, f: PairTable) -> NondetMatrix:
    """M(x, y) = p(x & y); p must be nondeterministic for the induced
    single-argument function, i.e. the pattern check must pass."""
    if p.n != f.n:
        raise ValueError("arity mismatch")
    vals = [_exact_entry(v) for v in p.values()]
    size = 1 << f.n
    entries = [[vals[x & y] for y in range(size)] for x in range(size)]
    return exact_matrix(f.n, entries, f)


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
    diagonal (plain column reversal is tried first, then a greedy peeling
    that is complete for this property); NONE otherwise.
    """
    if f.n > FULL_RANK_CAP:
        raise CapExceeded(f"full rank check capped at n<={FULL_RANK_CAP}")
    size = 1 << f.n
    if all(f.rows[x] == (1 << x) for x in range(size)):
        order = tuple(range(size))
        return FullRankEvidence("DIAGONAL", order, order, size)
    # cheap certificate first: reversing the column order triangularizes
    # disjointness-shaped patterns
    rev = tuple(size - 1 - y for y in range(size))
    if _is_upper_triangular(f, tuple(range(size)), rev):
        return FullRankEvidence("TRIANGULAR", tuple(range(size)), rev, size)
    peeled = _greedy_triangular(f)
    if peeled is not None:
        return FullRankEvidence("TRIANGULAR", peeled[0], peeled[1], size)
    return FullRankEvidence("NONE", None, None, None)


def _is_upper_triangular(f, row_order, col_order):
    m = len(row_order)
    for i in range(m):
        if not f.value(row_order[i], col_order[i]):
            return False
        for j in range(i):
            if f.value(row_order[i], col_order[j]):
                return False
    return True


def _greedy_triangular(f):
    """Repeatedly peel a live row with exactly one live nonzero; complete:
    a triangularizable pattern always has such a row (its last), and peeling
    any single-nonzero row preserves triangularizability."""
    size = 1 << f.n
    live_cols = (1 << size) - 1
    live_rows = set(range(size))
    rows_rev, cols_rev = [], []
    while live_rows:
        pick = None
        for x in sorted(live_rows):
            alive = f.rows[x] & live_cols
            if alive and alive & (alive - 1) == 0:
                pick = (x, alive.bit_length() - 1)
                break
        if pick is None:
            return None
        x, y = pick
        rows_rev.append(x)
        cols_rev.append(y)
        live_rows.remove(x)
        live_cols &= ~(1 << y)
    return tuple(reversed(rows_rev)), tuple(reversed(cols_rev))


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
    ops: object           # callable: party input -> tuple of op records


@dataclass(frozen=True)
class ProtocolSpec:
    alice_qubits: int
    channel_qubits: int
    bob_qubits: int
    rounds: tuple
    cost: int
    exact: bool = True

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


@dataclass(frozen=True)
class Transcript:
    rounds: tuple      # (party, message_qubits) per round
    cost: int


def run_protocol(spec: ProtocolSpec, x: int, y: int):
    """Simulate the protocol on (x, y): returns (acceptance, Transcript).

    Exact specs run on an ExactState and give a Fraction; specs with float
    rounds run on a complex vector and give a float.
    """
    if (1 << spec.num_qubits) > PROTOCOL_DIM_CAP:
        raise CapExceeded("protocol state dimension above 2^20")
    nq = spec.num_qubits
    state = _basis_state(spec, 0)
    for rnd in spec.rounds:
        allowed = set(spec.party_qubits(rnd.party))
        for op in rnd.ops(x if rnd.party == "A" else y):
            if any(q not in allowed for q in _op_qubits(op)):
                raise ValueError(f"{rnd.party} op touches foreign qubits")
            state = _apply_protocol_op(state, nq, op)
    tr = Transcript(tuple((r.party, r.message_qubits) for r in spec.rounds),
                    spec.cost)
    bit = 1 << spec.output_qubit
    labels = [i for i in range(1 << nq) if i & bit]
    if spec.exact:
        return state.probability(labels), tr
    return float(np.sum(np.abs(state[labels]) ** 2)), tr


def _op_qubits(op):
    kind = op[0]
    if kind in ("matrix", "prep_state"):
        return op[1]
    if kind == "swap":
        return (op[1], op[2])
    if kind == "flip_on_projector":
        return (op[1],) + tuple(op[2])
    raise ValueError(f"unknown op {kind!r}")


def _apply_protocol_op(state, nq, op):
    kind = op[0]
    exact = isinstance(state, ExactState)
    if kind == "matrix":
        _, qubits, mat = op
        if exact:
            if not isinstance(mat, ScaledMatrix):
                raise ValueError("exact protocols need ScaledMatrix rounds")
            if not mat.is_unitary():
                raise ValueError("non-unitary protocol round")
            apply_scaled_matrix(state, qubits, mat)
            return state
        arr = mat.to_ndarray() if isinstance(mat, ScaledMatrix) \
            else np.asarray(mat, dtype=complex)
        gram = arr.conj().T @ arr
        if np.max(np.abs(gram - np.eye(arr.shape[0]))) > 1e-9:
            raise ValueError("non-unitary protocol round")
        return apply_matrix_float(state, nq, qubits, arr)
    if kind == "swap":
        # a label permutation that is its own inverse
        _, q1, q2 = op
        reg = register_values(nq, (q1, q2))
        hit = (reg == 1) | (reg == 2)
        return apply_label_map(state, np.arange(1 << nq) ^ np.where(
            hit, (1 << q1) | (1 << q2), 0))
    if kind not in ("prep_state", "flip_on_projector"):
        raise ValueError(f"unknown op {kind!r}")
    if not exact or state.im is not None:
        raise ValueError(f"{kind} runs on real exact states only")
    qubits, vec = op[-2:]
    norm2 = sum(v * v for v in vec)
    if not 0 < len(vec) <= 1 << len(qubits) or not norm2:
        raise ValueError(f"{kind} needs a nonzero vector that fits")
    bases, offs = subset_index_maps(nq, qubits)
    if kind == "prep_state":
        _prep_state(state, bases, offs, vec)
        state.scale2 = state.scale2 * norm2
    else:
        if op[1] in qubits:
            raise ValueError(f"{kind} target inside its register")
        _flip_on_projector(state, bases, offs, vec, norm2, op[1])
        state.scale2 = state.scale2 * norm2 * norm2
    return state


def _prep_state(state, bases, offs, vec):
    """Take the register (zero at `bases`, value j at offset offs[j]) from
    |0> to vec/|vec|, times |vec|.  Defined on states whose register is
    |0>, where it is the restriction of a unitary."""
    re, zero_reg = state.re, set(bases)
    if any(a and i not in zero_reg for i, a in enumerate(re)):
        raise ValueError("prep_state needs the register in |0>")
    state.re = [0] * state.dim
    for base in bases:
        for o, v in zip(offs, vec):
            state.re[base | o] = re[base] * v


def _flip_on_projector(state, bases, offs, vec, norm2, target):
    """X on target controlled by P = vec vec^T / |vec|^2 on the register,
    times |vec|^2: U = (I - P) (x) I + P (x) X is a rational unitary, and
    |vec|^2 U maps the register blocks (u0, u1) at target 0 and 1 to
    (|vec|^2 u0 + vec d, |vec|^2 u1 - vec d) with d = vec.(u1 - u0), so the
    integer numerators update in O(dim * len(vec))."""
    re, tbit = state.re, 1 << target
    state.re = new = [a * norm2 for a in re]
    for b0 in bases:
        if not b0 & tbit:
            b1 = b0 | tbit
            d = sum(v * (re[b1 | o] - re[b0 | o]) for o, v in zip(offs, vec))
            for o, v in zip(offs, vec):
                new[b0 | o] += v * d
                new[b1 | o] -= v * d


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
    a, b = _rank_factors(M)
    n = M.n
    msg = (len(a[0]) - 1).bit_length()  # ceil(log2 r)
    chan = max(msg, 1)
    chan_qubits = tuple(range(chan))
    bob_qubits = tuple(range(chan, chan + n))

    def alice_ops(x):
        return (("prep_state", chan_qubits, a[x]),)

    def bob_ops(y):
        # r <= 2^n, so chan <= n: the message lands in Bob's low qubits
        ops = [("swap", j, chan + j) for j in range(chan)]
        if any(b[y]):
            ops.append(("flip_on_projector", 0, bob_qubits, b[y]))
        return tuple(ops)

    return ProtocolSpec(alice_qubits=0, channel_qubits=chan, bob_qubits=n,
                        rounds=(Round("A", msg, alice_ops),
                                Round("B", 1, bob_ops)),
                        cost=msg + 1, exact=True)


def _rank_factors(M: NondetMatrix):
    """Integer rank factors (a, b) of a rational M: a_x . b_y = k_x m_y M_xy
    with k_x, m_y > 0, every vector of length r = rank M.

    a_x is row x at the pivot columns, scaled as `rows_to_int` scales it.
    b_y is column y of M's reduced echelon form R (M = M[:, pivots] R) times
    vec_y[y] > 0, read off the nullspace basis: e_i at pivot i, and
    -vec_y[pivots] at a free column y, since R vec_y = 0 and R is the
    identity on the pivot columns.
    """
    if M.is_float:
        raise FloatMatrix("the exact protocol needs rational entries; the "
                          "float NE matrix has ne_protocol_spec")
    size = 1 << M.n
    ints = rows_to_int(M.entries)
    for x, row in enumerate(ints):
        if not any(row):
            raise ZeroRow(f"row {x} is zero; c_x undefined")
    free = dict(nullspace(ints, size))
    pivots = [y for y in range(size) if y not in free]
    a = [[row[p] for p in pivots] for row in ints]
    b = [[-free[y][p] for p in pivots] if y in free
         else [int(p == y) for p in pivots] for y in range(size)]
    return a, b


def svd_acceptance_sweep(M: NondetMatrix):
    """Exact acceptance over all 2^{2n} pairs, from the protocol's integer
    factors: [x][y] = (a_x.b_y)^2 / (|a_x|^2 |b_y|^2) as a Fraction."""
    a, b = _rank_factors(M)
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
    with channel basis |w>.  Exact protocols give amplitude numerators:
    each state's scale depends only on its party's input, so the families
    differ from the amplitudes by positive per-party scales, which change
    neither the zero pattern of the tensor sum nor its rank.
    """
    if spec.alice_qubits != 0 or len(spec.rounds) != 2:
        raise ValueError("families are read off 0-private two-round protocols")
    size = 1 << n
    chan = spec.channel_qubits
    bobq = spec.bob_qubits
    a_fams, b_fams = [], []
    alice_round, bob_round = spec.rounds
    for w in range(1 << chan):
        a_entry = {}
        for x in range(size):
            st = _basis_state(spec, 0)
            for op in alice_round.ops(x):
                st = _apply_protocol_op(st, spec.num_qubits, op)
            a_entry[x] = _amp_at(st, w)
        b_entry = {}
        for y in range(size):
            st = _basis_state(spec, w)
            for op in bob_round.ops(y):
                st = _apply_protocol_op(st, spec.num_qubits, op)
            vec = []
            for z in range(1 << bobq):
                label = (z << chan) | 1  # reply bit set, rest of channel 0
                vec.append(_amp_at(st, label))
            b_entry[y] = tuple(vec)
        a_fams.append({x: (a_entry[x],) for x in a_entry})
        b_fams.append(b_entry)
    return a_fams, b_fams


def _basis_state(spec, w):
    if spec.exact:
        st = ExactState.zero_state(spec.num_qubits)
        st.re[0] = 0
        st.re[w] = 1
        return st
    v = np.zeros(1 << spec.num_qubits, dtype=complex)
    v[w] = 1.0
    return v


def _amp_at(st, label):
    """The amplitude numerator of an exact state, the amplitude of a float
    one."""
    if isinstance(st, ExactState):
        re, im, _ = st.amplitude(label)
        if im:
            raise ValueError("complex amplitudes unexpected here")
        return re
    return complex(st[label])


# ---------------------------------------------------------------------------
# the nonequality rotation protocol


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def ne_protocol(n: int, x: int, y: int) -> float:
    """Acceptance of the rotation protocol: Alice rotates |0> by x*pi/2^n,
    Bob rotates back by y*pi/2^n and measures; sin^2((x-y)pi/2^n).

    The two rotations are composed in scalar float arithmetic: on x = y the
    |1> amplitude is sin(a)cos(a) - cos(a)sin(a) with identical factor
    pairs, which cancels to exactly 0.0 (fused multiply-add paths, as in
    numpy's dot, would leave ~1e-34 residue)."""
    if not 1 <= n <= NE_CAP:
        raise CapExceeded(f"rotation protocol capped at n<={NE_CAP}")
    if not (0 <= x < (1 << n) and 0 <= y < (1 << n)):
        raise ValueError("inputs out of range")
    theta = math.pi / (1 << n)
    sx, cx = math.sin(x * theta), math.cos(x * theta)
    sy, cy = math.sin(y * theta), math.cos(y * theta)
    amp1 = sx * cy - cx * sy
    return amp1 * amp1


def ne_protocol_spec(n: int) -> ProtocolSpec:
    """The same protocol as a 2-message ProtocolSpec (cost 2 qubits)."""
    if not 1 <= n <= NE_CAP:
        raise CapExceeded(f"rotation protocol capped at n<={NE_CAP}")
    theta = math.pi / (1 << n)

    def alice_ops(x):
        return (("matrix", (0,), _rotation(x * theta)),)

    def bob_ops(y):
        return (("matrix", (0,), _rotation(-y * theta)),)

    return ProtocolSpec(alice_qubits=0, channel_qubits=1, bob_qubits=0,
                        rounds=(Round("A", 1, alice_ops),
                                Round("B", 1, bob_ops)),
                        cost=2, exact=False)


def ne_matrix(n: int) -> NondetMatrix:
    """sin((x - y) pi / 2^n) as the sum of two rank-1 terms; NE pattern with
    an exactly zero diagonal."""
    if n > PAIR_CAP:
        raise CapExceeded(f"pair functions capped at n<={PAIR_CAP}")
    size = 1 << n
    theta = math.pi / size
    s = np.array([math.sin(x * theta) for x in range(size)])
    c = np.array([math.cos(x * theta) for x in range(size)])
    entries = np.outer(s, c) - np.outer(c, s)
    return NondetMatrix(n, tuple(tuple(float(v) for v in row)
                                 for row in entries),
                        make_pair_function("NE", n), is_float=True)


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
    the set cover exactly by branch and bound.
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
    return _min_cover(cells, rects)


def _min_cover(universe: int, sets: list) -> int:
    """Least number of `sets` whose union is `universe`, by branch and bound.

    Every node branches on its least-covered uncovered cell (lowest bit on
    ties) and tries that cell's covering sets in the order of `sets`. How
    many sets cover a cell does not depend on the node, so each cell's list
    is built once and the cells are sorted by (list length, bit): the first
    cell of that order still uncovered is the branching cell. Every cell of
    `universe` lies in some set (each 1-cell lies in the closed rectangle
    its row generates), so the scan always stops at a cell.
    """
    best = [len(sets)]
    max_size = max(s.bit_count() for s in sets)
    covering = {}
    for s in sets:
        m = s
        while m:
            bit = m & -m
            covering.setdefault(bit, []).append(s)
            m ^= bit
    order = sorted(covering.items(), key=lambda kv: (len(kv[1]), kv[0]))

    def search(remaining: int, used: int):
        if not remaining:
            best[0] = min(best[0], used)
            return
        if used + (remaining.bit_count() + max_size - 1) // max_size >= best[0]:
            return
        for bit, options in order:
            if remaining & bit:
                break
        for s in options:
            search(remaining & ~s, used + 1)

    search(universe, 0)
    return best[0]


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


def _to_fraction(v) -> Fraction:
    """Exact rational image of a family entry; floats convert exactly as
    stored, real-only complex values are unwrapped."""
    if isinstance(v, complex):
        if v.imag != 0:
            raise ValueError("complex family entries unsupported")
        v = v.real
    return Fraction(v)


def matrix_from_vector_families(a_fams, b_fams, f: PairTable,
                                seed: int) -> NondetMatrix:
    """Collapse vector families with sum_i A_i(x) (x) B_i(y) = 0 iff f = 0
    into a rank-<=m nondeterministic matrix, via random integer functionals
    alpha, beta from {1..2^{2n+1}} (verified exactly, resampled on failure).

    a_fams/b_fams: per i, a mapping x -> tuple (the vectors); the two sides
    may have different dimensions (nothing below needs them padded to a
    common one).  Float entries are converted to exact rationals as stored,
    so the pattern check stays exact with respect to the simulated values.
    """
    m = len(a_fams)
    if len(b_fams) != m:
        raise ValueError("family sizes differ")
    size = 1 << f.n
    d_a = len(next(iter(a_fams[0].values())))
    d_b = len(next(iter(b_fams[0].values())))
    a_vecs = [[tuple(_to_fraction(v) for v in fam[x]) for fam in a_fams]
              for x in range(size)]
    b_vecs = [[tuple(_to_fraction(v) for v in fam[y]) for fam in b_fams]
              for y in range(size)]
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

    mat = exact_matrix(f.n, _resample(attempt, "family collapse")[0], f)
    if mat.rank() > m:
        raise RankBoundViolation(f"collapsed rank exceeds {m}")
    return mat


# ---------------------------------------------------------------------------
# matrix CSV and protocol structure files


def matrix_to_csv_lines(M: NondetMatrix) -> list:
    mode = "float" if M.is_float else "exact"
    lines = [f"n,{M.n},mode,{mode}"]
    for row in M.entries:
        if M.is_float:
            lines.append(",".join(repr(float(v)) for v in row))
        else:
            lines.append(",".join(str(Fraction(v)) for v in row))
    return lines


def matrix_from_csv_lines(lines) -> NondetMatrix:
    head = lines[0].strip().split(",") if lines else []
    if len(head) != 4 or head[0] != "n" or head[2] != "mode" \
            or head[3] not in ("exact", "float"):
        raise ValueError("bad matrix header")
    n, mode = int(head[1]), head[3]
    if not 1 <= n <= PAIR_CAP:
        raise CapExceeded(f"pair functions capped at n<={PAIR_CAP}")
    size = 1 << n
    body = [line.strip().split(",") for line in lines[1:] if line.strip()]
    if len(body) != size or any(len(r) != size for r in body):
        raise ValueError("matrix body shape mismatch")
    if mode == "float":
        entries = [[float(v) for v in row] for row in body]
        if not all(math.isfinite(v) for row in entries for v in row):
            raise ValueError("non-finite matrix entry")
        rows = tuple(sum((1 << y) for y in range(size) if entries[x][y] != 0.0)
                     for x in range(size))
        return NondetMatrix(n, tuple(tuple(r) for r in entries),
                            PairTable(n, rows), is_float=True)
    entries = [[parse_rational(v) for v in row] for row in body]
    rows = tuple(sum((1 << y) for y in range(size) if entries[x][y])
                 for x in range(size))
    return NondetMatrix(n, tuple(tuple(r) for r in entries),
                        PairTable(n, rows))


def protocol_to_lines(spec: ProtocolSpec) -> list:
    """Structure and cost accounting only; round unitaries are per-input
    behaviors and are not serialized."""
    import json
    head = {"alice_qubits": spec.alice_qubits,
            "channel_qubits": spec.channel_qubits,
            "bob_qubits": spec.bob_qubits,
            "cost": spec.cost, "exact": spec.exact}
    lines = [json.dumps(head)]
    for r in spec.rounds:
        lines.append(json.dumps({"party": r.party,
                                 "message_qubits": r.message_qubits}))
    return lines


def protocol_summary_from_lines(lines) -> dict:
    import json
    try:
        head = json.loads(lines[0])
        head["rounds"] = [json.loads(line) for line in lines[1:]
                          if line.strip()]
        cost = sum(r["message_qubits"] for r in head["rounds"])
        if cost != head["cost"]:
            raise ValueError("cost does not match round messages")
    except (IndexError, KeyError, TypeError) as e:
        raise ValueError(f"malformed protocol file: {e!r}") from e
    return head

"""Exact and float statevector backends, and the one gate set shared by the
query and protocol simulators.

Exact states are rational numerator vectors with one positive rational scale
N, the state being v / sqrt(N); exact gates are rational matrices G with a
scale M, the gate being G / sqrt(M), unitary iff G^H G = M I (checked
exactly).  Composition only multiplies scales, so Hadamard-type gates and
rational state preparations stay exactly representable and every probability
is an exact Fraction.  An ExactState's numerators are Python ints and
Fractions in one numpy object array, a column per basis label and a row per
part, (re) or (re, im), laid out as the float and symbolic arrays are.

The gates that do not read an input (`Unitary`, `FlipOnZero`, `Swap`,
`PrepState`, `FlipOnProjector`) name every qubit they touch in `qubits` and
run through `apply_gate`; `acceptance` reads the probability of a qubit
being 1.  Gates that only move or negate amplitudes (the oracles, flag
flips and swaps) share one label-map kernel: `register_values` reads a qubit
register off every basis label in one vectorised pass, a gate built from it
is a label permutation (new amplitude i = old amplitude perm[i]), a sign
mask, or both, and `apply_label_map` applies that by numpy indexing.  A
dense gate combines label columns in place (`_unitary`, also the symbolic
simulator's kernel), and the projector gates and float matrices act on all
label blocks at once; all of them read local patterns via `_gate_view`.

A float state carries a leading input axis: shape (rows, 2^qubits), one row
per input, so each gate runs once over a block of inputs.  Its matrices act
on the last axis, a label permutation or sign mask may differ per row, and
`acceptance` gives one float per row.  The query simulator bounds the rows
of a block by a fixed amplitude budget.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import CapExceeded

# the largest exact state either simulator runs
DIM_CAP = 1 << 20


def _exact_rationals(values, message: str) -> tuple:
    """values as exact rationals, each an int when integral, else a Fraction
    of ints; ValueError(message) for anything that is not a
    `numbers.Rational`.  numpy integers become Python ints, so exact
    arithmetic on the result cannot wrap."""
    out = []
    for v in values:
        if type(v) is not int:
            if not isinstance(v, numbers.Rational):
                raise ValueError(message)
            num, den = int(v.numerator), int(v.denominator)
            v = num if den == 1 else Fraction(num, den)
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class ScaledMatrix:
    """matrix = (re + i*im) / sqrt(scale2); im may be None for real gates."""

    re: tuple
    im: tuple | None
    scale2: object  # positive int or Fraction

    def __post_init__(self):
        k = len(self.re)
        if any(len(row) != k for row in self.re):
            raise ValueError("matrix must be square")
        if self.im is not None and (len(self.im) != k or
                                    any(len(row) != k for row in self.im)):
            raise ValueError("imaginary part shape mismatch")
        msg = "matrix entries must be exact rationals"
        object.__setattr__(self, "re", tuple(
            _exact_rationals(row, msg) for row in self.re))
        if self.im is not None:
            object.__setattr__(self, "im", tuple(
                _exact_rationals(row, msg) for row in self.im))
        (scale2,) = _exact_rationals((self.scale2,), "scale2 must be a "
                                     "positive rational")
        if not scale2 > 0:
            raise ValueError("scale2 must be a positive rational")
        object.__setattr__(self, "scale2", scale2)

    @property
    def dim(self) -> int:
        return len(self.re)

    def entry(self, r, c):
        return (self.re[r][c], self.im[r][c] if self.im else 0)

    def is_unitary(self) -> bool:
        """Exact check of G^H G == scale2 * I."""
        k = self.dim
        for a in range(k):
            for b in range(a, k):
                re_s = 0
                im_s = 0
                for r in range(k):
                    ra, ia = self.entry(r, a)
                    rb, ib = self.entry(r, b)
                    re_s += ra * rb + ia * ib
                    im_s += ra * ib - ia * rb
                want = self.scale2 if a == b else 0
                if re_s != want or im_s != 0:
                    return False
        return True

    def to_ndarray(self) -> np.ndarray:
        m = np.array([[float(v) for v in row] for row in self.re],
                     dtype=complex)
        if self.im is not None:
            m += 1j * np.array([[float(v) for v in row] for row in self.im])
        return m / np.sqrt(float(self.scale2))


def scaled_real(rows, scale2=1) -> ScaledMatrix:
    return ScaledMatrix(tuple(tuple(r) for r in rows), None, scale2)


HADAMARD = scaled_real(((1, 1), (1, -1)), 2)


class ExactState:
    """Mutable exact statevector: amplitudes = (re + i*im) / sqrt(scale2),
    the numerators held in amps, a row per part; re and im read it as
    lists, and im is None for a real state."""

    __slots__ = ("amps", "scale2")

    def __init__(self, re, im, scale2):
        self.amps = np.array([re] if im is None else [re, im], dtype=object)
        self.scale2 = scale2

    @property
    def re(self) -> list:
        return self.amps[0].tolist()

    @property
    def im(self) -> list | None:
        return self.amps[1].tolist() if len(self.amps) > 1 else None

    @property
    def dim(self) -> int:
        return self.amps.shape[1]

    def norm2(self) -> Fraction:
        return Fraction((self.amps * self.amps).sum(), 1) / self.scale2

    def to_ndarray(self) -> np.ndarray:
        v = self.amps.astype(complex)
        return (v[0] + 1j * v[1:].sum(0)) / np.sqrt(float(self.scale2))


def basis_state(num_qubits: int, label: int = 0) -> ExactState:
    re = np.zeros(1 << num_qubits, dtype=object)
    re[label] = 1
    return ExactState(re, None, 1)


def acceptance(state, qubit: int):
    """Probability that the qubit reads 1: a Fraction for an ExactState,
    one float per row of a float state."""
    exact = isinstance(state, ExactState)
    amps = state.amps if exact else state
    hit = np.arange(amps.shape[-1]) >> qubit & 1 == 1
    if exact:
        part = amps[:, hit]
        return Fraction((part * part).sum(), 1) / state.scale2
    return np.sum(np.abs(amps[..., hit]) ** 2, axis=-1)


def register_values(num_qubits: int, qubits) -> np.ndarray:
    """Value of the register on the given qubits (tuple order =
    significance) at every basis label 0..2^num_qubits - 1."""
    labels = np.arange(1 << num_qubits)
    vals = np.zeros_like(labels)
    for j, q in enumerate(qubits):
        vals |= ((labels >> q) & 1) << j
    return vals


def apply_label_map(state, perm=None, neg=None):
    """New amplitude i = old amplitude perm[i], negated where neg[i] is set.

    perm (integer array) and neg (boolean array) may each be None.  An
    ExactState is updated in place and returned; an array with labels on
    its last axis (an ExactState's amps, a float state, or the symbolic
    simulator's coefficient array) is returned as a new array, and perm
    and neg may hold one row per array row, or one row for all of them.
    """
    if isinstance(state, ExactState):
        state.amps = apply_label_map(state.amps, perm, neg)
        return state
    if perm is not None:
        state = np.take_along_axis(state, np.broadcast_to(perm, state.shape),
                                   -1)
    if neg is not None:
        state = np.where(neg, -state, state)
    return state


def apply_scaled_matrix(state: ExactState, qubits, gate: ScaledMatrix) -> None:
    """Apply gate/sqrt(gate.scale2) on the given qubits (in-place); its
    dimension must be 2^len(qubits), which `Unitary` checks.  The
    numerators run through `_unitary` on state.amps, so they stay Python
    ints and Fractions: G_re acts on the rows (re, im), G_im on (-im, re);
    a complex gate gives a real state its zero im row first."""
    nq = _num_qubits(state.dim)
    amps = state.amps
    if gate.im is not None and len(amps) == 1:
        amps = np.concatenate([amps, np.zeros_like(amps)])
    state.amps = _unitary(amps.copy(), nq, qubits, gate.re)
    if gate.im is not None:
        state.amps += _unitary(amps[::-1] * [[-1], [1]], nq, qubits, gate.im)
    state.scale2 = state.scale2 * gate.scale2


def _gate_view(arr: np.ndarray, num_qubits: int, qubits) -> np.ndarray:
    """arr, shape (rows, 2^num_qubits), as a view with one axis per qubit and
    the given qubits last.  Bit q of a label is axis num_qubits - q, and the
    gate's local index has qubits[-1] as its most significant bit."""
    axes = [num_qubits - q for q in reversed(qubits)]
    rest = [a for a in range(num_qubits + 1) if a not in axes]
    return arr.reshape((len(arr),) + (2,) * num_qubits).transpose(rest + axes)


def _unitary(coef, num_qubits, qubits, rows):
    """New local pattern r of every label block = sum over c of
    rows[r][c] times old pattern c, in place on coef (rows, 2^num_qubits)
    and returned; entries 0 and +-1 cost no multiplication.  The one dense
    gate kernel for exact states and the symbolic coefficient array."""
    coef = np.ascontiguousarray(coef)  # so the view writes into coef
    view = _gate_view(coef, num_qubits, qubits)
    parts = [view[(...,) + bits]
             for bits in itertools.product((0, 1), repeat=len(qubits))]
    new = []
    for row in rows:
        acc = None
        for g, part in zip(row, parts):
            if not g:
                continue
            if acc is None:
                acc = part.copy() if g == 1 else -part if g == -1 \
                    else g * part
            elif g == 1:
                acc += part
            elif g == -1:
                acc -= part
            else:
                acc += g * part
        new.append(0 if acc is None else acc)
    for part, acc in zip(parts, new):
        part[...] = acc
    return coef


def apply_matrix_float(vec: np.ndarray, num_qubits: int, qubits,
                       mat: np.ndarray) -> np.ndarray:
    """Apply mat on the given qubits of every row of vec, shape (rows,
    2^num_qubits), into a new array.  mat is one (k, k) matrix for every
    row, or a (rows, k, k) stack of one per row, with k = 2^len(qubits)."""
    view = _gate_view(vec, num_qubits, qubits)
    out = np.empty(vec.shape, np.result_type(vec, mat))
    _gate_view(out, num_qubits, qubits)[...] = (
        view.reshape(len(vec), -1, 1 << len(qubits))
        @ np.swapaxes(mat, -1, -2)).reshape(view.shape)
    return out


def _num_qubits(dim: int) -> int:
    nq = dim.bit_length() - 1
    if 1 << nq != dim:
        raise ValueError("state dimension is not a power of two")
    return nq


# ---------------------------------------------------------------------------
# gates that do not read an input


@dataclass(frozen=True)
class Unitary:
    """Fixed unitary (dense scaled-rational matrix) on named qubits, checked
    exactly on construction."""

    qubits: tuple
    matrix: ScaledMatrix

    cost = 0

    def __post_init__(self):
        if not isinstance(self.matrix, ScaledMatrix):
            raise ValueError("gates need ScaledMatrix matrices")
        if len(self.qubits) > 12:
            raise CapExceeded("dense gate wider than 12 qubits")
        if self.matrix.dim != 1 << len(self.qubits):
            raise ValueError("gate dimension does not match qubit count")
        if not self.matrix.is_unitary():
            raise ValueError("non-unitary gate")


@dataclass(frozen=True)
class FlipOnZero:
    """Fixed unitary permutation: X on target iff all control qubits are 0."""

    controls: tuple
    target: int

    cost = 0

    @property
    def qubits(self):
        return tuple(self.controls) + (self.target,)


@dataclass(frozen=True)
class Swap:
    """Exchange qubits a and b."""

    a: int
    b: int

    cost = 0

    @property
    def qubits(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class PrepState:
    """Take the register from |0> to vec/|vec|, times |vec|.  Defined on
    states whose register is |0>, where it is the restriction of a unitary;
    exact real states only."""

    register: tuple
    vec: tuple

    cost = 0

    @property
    def qubits(self):
        return tuple(self.register)


@dataclass(frozen=True)
class FlipOnProjector:
    """X on target controlled by P = vec vec^T / |vec|^2 on the register,
    times |vec|^2: U = (I - P) (x) I + P (x) X is a rational unitary.
    Exact real states only."""

    target: int
    register: tuple
    vec: tuple

    cost = 0

    @property
    def qubits(self):
        return (self.target,) + tuple(self.register)


def _apply_unitary(state, num_qubits: int, qubits, matrix: ScaledMatrix):
    """Apply a matrix already known to be unitary (a `Unitary`'s, or an
    `InputGate`'s, checked when its algorithm was built) on the qubits."""
    if isinstance(state, ExactState):
        apply_scaled_matrix(state, qubits, matrix)
        return state
    return apply_matrix_float(state, num_qubits, qubits, matrix.to_ndarray())


def apply_gate(state, num_qubits: int, gate):
    """Apply one gate: an ExactState in place, or a float state into a new
    array; returns the state."""
    if isinstance(gate, Unitary):
        return _apply_unitary(state, num_qubits, gate.qubits, gate.matrix)
    if isinstance(gate, (FlipOnZero, Swap)):
        return apply_label_map(state, _fixed_flip(num_qubits, gate))
    if not isinstance(gate, (PrepState, FlipOnProjector)):
        raise TypeError(f"unknown gate {gate!r}")
    name = type(gate).__name__
    if not isinstance(state, ExactState) or len(state.amps) > 1:
        raise ValueError(f"{name} runs on exact real states only")
    vec = gate.vec
    norm2 = sum(v * v for v in vec)
    if not 0 < len(vec) <= 1 << len(gate.register) or not norm2:
        raise ValueError(f"{name} needs a nonzero vector that fits")
    vec = np.array(vec, dtype=object)
    # the local patterns of every label block, a row per block; for a
    # FlipOnProjector the target is bit 0 of the local index
    view = _gate_view(state.amps, num_qubits, gate.qubits)
    local = view.reshape(-1, 1 << len(gate.qubits))
    if isinstance(gate, PrepState):
        if np.any(local[:, 1:] != 0):
            raise ValueError(f"{name} needs the register in |0>")
        new = np.zeros_like(local)
        new[:, :len(vec)] = local[:, :1] * vec
        scale2 = norm2
    else:
        # |vec|^2 U maps the register blocks (u0, u1) at target 0 and 1 to
        # (|vec|^2 u0 + vec d, |vec|^2 u1 - vec d) with d = vec.(u1 - u0)
        u = local.reshape(len(local), -1, 2)[:, :len(vec)]
        vd = ((u[..., 1] - u[..., 0]) @ vec)[:, None] * vec
        new = local * norm2
        pairs = new.reshape(len(new), -1, 2)
        pairs[:, :len(vec), 0] += vd
        pairs[:, :len(vec), 1] -= vd
        scale2 = norm2 * norm2
    state.amps = np.empty(state.amps.shape, dtype=object)
    _gate_view(state.amps, num_qubits, gate.qubits)[...] = \
        new.reshape(view.shape)
    state.scale2 = state.scale2 * scale2
    return state


def _check_qubits(gate, allowed) -> None:
    """ValueError unless the gate's qubits are distinct members of allowed."""
    qubits = gate.qubits
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"gate {gate!r} repeats a qubit")
    if not all(q in allowed for q in qubits):
        raise ValueError(f"gate {gate!r} touches foreign qubits")


def _flip_labels(hit, mask: int) -> np.ndarray:
    """Label permutation flipping the bits of mask wherever hit is set; it
    is its own inverse when hit does not read those bits.  hit may hold one
    row per float state row; each row gives that row's permutation."""
    return np.arange(hit.shape[-1]) ^ np.where(hit, mask, 0)


def _fixed_flip(num_qubits: int, gate) -> np.ndarray:
    """The label permutation of a FlipOnZero or Swap gate."""
    if isinstance(gate, FlipOnZero):
        return _flip_labels(register_values(num_qubits, gate.controls) == 0,
                            1 << gate.target)
    reg = register_values(num_qubits, gate.qubits)
    return _flip_labels((reg == 1) | (reg == 2), (1 << gate.a) | (1 << gate.b))

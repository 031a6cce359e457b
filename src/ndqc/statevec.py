"""Exact and float statevector backends, and the one gate set shared by the
query and protocol simulators.

Exact states are rational numerator vectors with one positive rational scale
N, the state being v / sqrt(N); exact gates are rational matrices G with a
scale M, the gate being G / sqrt(M), unitary iff G^H G = M I (checked
exactly).  Composition only multiplies scales, so Hadamard-type gates and
rational state preparations stay exactly representable and every probability
is an exact Fraction.  Complex entries are carried as separate real and
imaginary parts; the imaginary part is None for real states, which keeps the
common all-real circuits on a fast integer path.

The gates that do not read an input (`Unitary`, `FlipOnZero`, `Swap`,
`PrepState`, `FlipOnProjector`) name every qubit they touch in `qubits` and
run through `apply_gate`; `acceptance` reads the probability of a qubit
being 1.  Gates that only move or negate amplitudes (the oracles, flag flips
and swaps) share one label-map kernel: `register_values` reads a qubit
register off every basis label in one vectorised pass, a gate built from it
is a label permutation (new amplitude i = old amplitude perm[i]), a sign
mask, or both, and `apply_label_map` applies that by list gather or fancy
indexing.  Only the labels go through numpy; exact amplitudes stay Python
ints or Fractions.

A float state carries a leading input axis: shape (rows, 2^qubits), one row
per input, so each gate runs once over a block of inputs.  Its matrices act
on the last axis, a label permutation or sign mask may differ per row, and
`acceptance` gives one float per row.  The query simulator bounds the rows
of a block by a fixed amplitude budget.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import CapExceeded

# the largest exact state either simulator runs
DIM_CAP = 1 << 20


def _all_rational(values) -> bool:
    """Every value is a `numbers.Rational`; the test runs once per type."""
    return all(issubclass(t, numbers.Rational) for t in set(map(type, values)))


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
        if not all(_all_rational(row) for part in (self.re, self.im or ())
                   for row in part):
            raise ValueError("matrix entries must be exact rationals")
        if not (isinstance(self.scale2, (int, Fraction)) and self.scale2 > 0):
            raise ValueError("scale2 must be a positive rational")

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
    """Mutable exact statevector: amplitudes = (re + i*im) / sqrt(scale2)."""

    __slots__ = ("re", "im", "scale2")

    def __init__(self, re, im, scale2):
        self.re = list(re)
        self.im = list(im) if im is not None else None
        self.scale2 = scale2

    @property
    def dim(self) -> int:
        return len(self.re)

    def norm2(self) -> Fraction:
        s = sum(v * v for part in (self.re, self.im or ()) for v in part)
        return Fraction(s, 1) / self.scale2

    def to_ndarray(self) -> np.ndarray:
        v = np.array([float(x) for x in self.re], dtype=complex)
        if self.im is not None:
            v += 1j * np.array([float(x) for x in self.im])
        return v / np.sqrt(float(self.scale2))


def basis_state(num_qubits: int, label: int = 0) -> ExactState:
    re = [0] * (1 << num_qubits)
    re[label] = 1
    return ExactState(re, None, 1)


def acceptance(state, qubit: int):
    """Probability that the qubit reads 1: a Fraction for an ExactState,
    one float per row of a float state."""
    if isinstance(state, ExactState):
        s = sum(v * v for part in (state.re, state.im or ())
                for i, v in enumerate(part) if i >> qubit & 1)
        return Fraction(s, 1) / state.scale2
    hit = np.arange(state.shape[-1]) >> qubit & 1 == 1
    return np.sum(np.abs(state[..., hit]) ** 2, axis=-1)


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
    ExactState is updated in place and returned; a float state is returned
    as a new array, and its perm and neg may hold one row per state row.
    """
    if isinstance(state, ExactState):
        for part in ("re", "im"):
            amps = getattr(state, part)
            if amps is None:
                continue
            if perm is not None:
                amps = list(map(amps.__getitem__, perm.tolist()))
            if neg is not None:
                amps = [-a if f else a for a, f in zip(amps, neg.tolist())]
            setattr(state, part, amps)
        return state
    if perm is not None:
        state = np.take_along_axis(state, np.broadcast_to(perm, state.shape),
                                   -1)
    if neg is not None:
        state = np.where(neg, -state, state)
    return state


def subset_index_maps(num_qubits: int, qubits) -> tuple:
    """(bases, offsets): labels with the given qubits zeroed, and the label
    offset of each local pattern on those qubits."""
    labels = np.arange(1 << num_qubits)
    mask = sum(1 << q for q in qubits)
    local = np.flatnonzero((labels & ~mask) == 0)
    offs = np.empty_like(local)
    offs[register_values(num_qubits, qubits)[local]] = local
    return np.flatnonzero((labels & mask) == 0).tolist(), offs.tolist()


def apply_scaled_matrix(state: ExactState, qubits, gate: ScaledMatrix) -> None:
    """Apply gate/sqrt(gate.scale2) on the given qubits (in-place); its
    dimension must be 2^len(qubits), which `Unitary` checks."""
    k = len(qubits)
    if k == 1 and gate.im is None and state.im is None:
        # tight loop for real single-qubit gates (Hadamards dominate)
        (g00, g01), (g10, g11) = gate.re
        bit = 1 << qubits[0]
        re = state.re
        for base in range(state.dim):
            if base & bit:
                continue
            hi = base | bit
            a, b = re[base], re[hi]
            re[base] = g00 * a + g01 * b
            re[hi] = g10 * a + g11 * b
        state.scale2 = state.scale2 * gate.scale2
        return
    bases, offs = subset_index_maps(_num_qubits(state.dim), qubits)
    complex_gate = gate.im is not None
    if complex_gate and state.im is None:
        state.im = [0] * state.dim
    re, im = state.re, state.im
    gre, gim = gate.re, gate.im
    dim_local = 1 << k
    for base in bases:
        idx = [base | o for o in offs]
        sub_re = [re[i] for i in idx]
        if im is not None:
            sub_im = [im[i] for i in idx]
        for r in range(dim_local):
            row = gre[r]
            acc_re = 0
            for c in range(dim_local):
                g = row[c]
                if g:
                    acc_re += g * sub_re[c]
            if im is None:
                re[idx[r]] = acc_re
                continue
            acc_im = 0
            for c in range(dim_local):
                g = row[c]
                if g:
                    acc_im += g * sub_im[c]
            if complex_gate:
                growi = gim[r]
                for c in range(dim_local):
                    g = growi[c]
                    if g:
                        acc_re -= g * sub_im[c]
                        acc_im += g * sub_re[c]
            re[idx[r]] = acc_re
            im[idx[r]] = acc_im
    state.scale2 = state.scale2 * gate.scale2


def apply_matrix_float(vec: np.ndarray, num_qubits: int, qubits,
                       mat: np.ndarray) -> np.ndarray:
    """Apply mat on the given qubits of every row of vec, shape (rows,
    2^num_qubits), into a new array.  mat is one (k, k) matrix for every
    row, or a (rows, k, k) stack of one per row, with k = 2^len(qubits)."""
    rows, k = len(vec), len(qubits)
    # bit q of a label is axis num_qubits - q of the tensor, and the gate's
    # local index has qubits[-1] as its most significant bit
    axes = [num_qubits - q for q in reversed(qubits)]
    ends = list(range(num_qubits - k + 1, num_qubits + 1))
    t = np.moveaxis(vec.reshape((rows,) + (2,) * num_qubits), axes, ends)
    shape = t.shape
    t = t.reshape(rows, -1, 1 << k) @ np.swapaxes(mat, -1, -2)
    return np.moveaxis(t.reshape(shape), ends, axes).reshape(rows, -1)


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
    exact = isinstance(state, ExactState)
    if isinstance(gate, Unitary):
        return _apply_unitary(state, num_qubits, gate.qubits, gate.matrix)
    if isinstance(gate, (FlipOnZero, Swap)):
        return apply_label_map(state, _fixed_flip(num_qubits, gate))
    if not isinstance(gate, (PrepState, FlipOnProjector)):
        raise TypeError(f"unknown gate {gate!r}")
    name = type(gate).__name__
    if not exact or state.im is not None:
        raise ValueError(f"{name} runs on exact real states only")
    vec = gate.vec
    norm2 = sum(v * v for v in vec)
    if not 0 < len(vec) <= 1 << len(gate.register) or not norm2:
        raise ValueError(f"{name} needs a nonzero vector that fits")
    bases, offs = subset_index_maps(num_qubits, gate.register)
    re = state.re
    if isinstance(gate, PrepState):
        zero_reg = set(bases)
        if any(a and i not in zero_reg for i, a in enumerate(re)):
            raise ValueError(f"{name} needs the register in |0>")
        state.re = new = [0] * state.dim
        for base in bases:
            for o, v in zip(offs, vec):
                new[base | o] = re[base] * v
        state.scale2 = state.scale2 * norm2
        return state
    # |vec|^2 U maps the register blocks (u0, u1) at target 0 and 1 to
    # (|vec|^2 u0 + vec d, |vec|^2 u1 - vec d) with d = vec.(u1 - u0), so
    # the integer numerators update in O(dim * len(vec))
    tbit = 1 << gate.target
    state.re = new = [a * norm2 for a in re]
    for b0 in bases:
        if not b0 & tbit:
            b1 = b0 | tbit
            d = sum(v * (re[b1 | o] - re[b0 | o]) for o, v in zip(offs, vec))
            for o, v in zip(offs, vec):
                new[b0 | o] += v * d
                new[b1 | o] -= v * d
    state.scale2 = state.scale2 * norm2 * norm2
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

"""Exact and float statevector backends shared by the simulators.

Exact states are rational numerator vectors with one positive rational scale
N, the state being v / sqrt(N); exact gates are rational matrices G with a
scale M, the gate being G / sqrt(M), unitary iff G^H G = M I (checked
exactly).  Composition only multiplies scales, so Hadamard-type gates and
rational state preparations stay exactly representable and every probability
is an exact Fraction.  Complex entries are carried as separate real and
imaginary parts; the imaginary part is None for real states, which keeps the
common all-real circuits on a fast integer path.

Gates that only move or negate amplitudes (oracles, flag flips, swaps,
sign diagonals) share one label-map kernel:
`register_values` reads the value of a qubit register off every basis label
in one vectorised pass, a gate built from it is a label permutation (new
amplitude i = old amplitude perm[i]), a sign mask, or both, and
`apply_label_map` applies that to an ExactState by list gather or to a float
vector by fancy indexing.  Only the labels go through numpy; exact
amplitudes stay Python ints or Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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


def rational_rotation(a, b) -> ScaledMatrix:
    """[[a, -b], [b, a]] for a rational point on the unit circle."""
    a, b = Fraction(a), Fraction(b)
    if a * a + b * b != 1:
        raise ValueError("(a, b) must satisfy a^2 + b^2 = 1")
    return scaled_real(((a, -b), (b, a)))


class ExactState:
    """Mutable exact statevector: amplitudes = (re + i*im) / sqrt(scale2)."""

    __slots__ = ("re", "im", "scale2")

    def __init__(self, re, im, scale2):
        self.re = list(re)
        self.im = list(im) if im is not None else None
        self.scale2 = scale2

    @classmethod
    def zero_state(cls, num_qubits: int) -> "ExactState":
        re = [0] * (1 << num_qubits)
        re[0] = 1
        return cls(re, None, 1)

    @property
    def dim(self) -> int:
        return len(self.re)

    def norm2(self) -> Fraction:
        s = sum(v * v for v in self.re)
        if self.im is not None:
            s += sum(v * v for v in self.im)
        return Fraction(s, 1) / self.scale2

    def amplitude(self, label: int):
        """(re, im, scale2) triple for one basis label."""
        return (self.re[label],
                self.im[label] if self.im is not None else 0,
                self.scale2)

    def probability(self, labels) -> Fraction:
        s = sum(self.re[i] * self.re[i] for i in labels)
        if self.im is not None:
            s += sum(self.im[i] * self.im[i] for i in labels)
        return Fraction(s, 1) / self.scale2

    def to_ndarray(self) -> np.ndarray:
        v = np.array([float(x) for x in self.re], dtype=complex)
        if self.im is not None:
            v += 1j * np.array([float(x) for x in self.im])
        return v / np.sqrt(float(self.scale2))


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
    ExactState is updated in place and returned; a float vector is returned
    as a new array.
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
        state = state[perm]
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
    """Apply gate/sqrt(gate.scale2) on the given qubits (in-place)."""
    k = len(qubits)
    if gate.dim != (1 << k):
        raise ValueError("gate dimension does not match qubit count")
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
    bases, offs = subset_index_maps(num_qubits, qubits)
    idx = np.array(bases)[:, None] | np.array(offs)[None, :]
    vec = vec.copy()
    vec[idx] = vec[idx] @ mat.T
    return vec


def _num_qubits(dim: int) -> int:
    nq = dim.bit_length() - 1
    if 1 << nq != dim:
        raise ValueError("state dimension is not a power of two")
    return nq

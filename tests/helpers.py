"""Shared fixtures for the test suite."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from ndqc import linalg, polys
from ndqc.boolfn import TruthTable
from ndqc.polys import MONOMIAL, MultilinearPoly, _combine
from ndqc.querysim import BitOracle, VerifierSpec, basis_prep
from ndqc.statevec import (FlipOnZero, PrepState, Swap, Unitary,
                           _fixed_flip, register_values, scaled_real)


def load_tracer():
    """perfbench's span tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def act_on_inputs(f, perm, mask):
    """f with its variables relabelled by `permute`, then read at x ^ mask:
    one element of the group of input permutations and negations."""
    g = f.permute(perm)
    return TruthTable(f.n, sum(g.value(x ^ mask) << x for x in range(f.size)))


def perm_matrix(perm):
    k = len(perm)
    return scaled_real(tuple(tuple(1 if r == perm[c] else 0
                                   for c in range(k)) for r in range(k)))


def or2_verifier():
    """Toy OR_2 verifier: certificates |01> and |10> point at the variable to
    query; acceptance is the left certificate qubit."""
    unitaries = {
        0b00: perm_matrix([2, 1, 0, 3]),   # both certificates rejected
        0b01: perm_matrix([1, 3, 0, 2]),   # x1 = 1: accept |01>, reject |10>
        0b10: perm_matrix([1, 0, 2, 3]),   # x2 = 1: accept |10>, reject |01>
        0b11: perm_matrix([0, 3, 2, 1]),   # both accepted
    }
    return VerifierSpec(n=2, m=2, query_cost=1, unitaries=unitaries,
                        certificates=(basis_prep(2, 1), basis_prep(2, 2)),
                        chosen={0b01: 0, 0b10: 1, 0b11: 0})


def sin2_table(size):
    """sin^2(d theta) for cos theta = 3/5 and d < size, from the Chebyshev
    recurrence s_(d+1) = 6 s_d - 25 s_(d-1) for s_d = 5^d sin(d theta): the
    nonequality protocol's acceptance at x - y = d, computed without the
    protocol's powers (3 + 4i)^k."""
    s, s_next, out = 0, 4, []
    for d in range(size):
        out.append(Fraction(s * s, 25 ** d))
        s, s_next = s_next, 6 * s_next - 25 * s
    return out


def dense_gate_reference(state, num_qubits, qubits, gate):
    """(re, im, scale2) of the ScaledMatrix `gate` on `qubits` of an
    ExactState, by one dense Fraction matrix-vector product over all
    2^num_qubits labels; im is None when the state and the gate are real.
    Entry (i, j) of the full matrix is gate[local i][local j] where labels
    i and j agree off the gate's qubits, else 0."""
    dim = 1 << num_qubits
    mask = sum(1 << q for q in qubits)
    local = register_values(num_qubits, qubits).tolist()
    zero = [[0] * gate.dim] * gate.dim
    g_re, g_im = gate.re, gate.im or zero
    s_re, s_im = state.re, state.im or [0] * dim
    re, im = [], []
    for i in range(dim):
        acc_re = acc_im = Fraction(0)
        for j in range(dim):
            if (i ^ j) & ~mask:
                continue
            a, b = g_re[local[i]][local[j]], g_im[local[i]][local[j]]
            acc_re += a * s_re[j] - b * s_im[j]
            acc_im += a * s_im[j] + b * s_re[j]
        re.append(acc_re)
        im.append(acc_im)
    real = gate.im is None and state.im is None
    return re, None if real else im, state.scale2 * gate.scale2


def subset_index_maps(num_qubits: int, qubits) -> tuple:
    """(bases, offsets): labels with the given qubits zeroed, and the label
    offset of each local pattern on those qubits (qubits[j] at bit j of the
    pattern)."""
    labels = np.arange(1 << num_qubits)
    mask = sum(1 << q for q in qubits)
    local = np.flatnonzero((labels & ~mask) == 0)
    offs = np.empty_like(local)
    offs[register_values(num_qubits, qubits)[local]] = local
    return np.flatnonzero((labels & mask) == 0).tolist(), offs.tolist()


def projector_gate_reference(state, num_qubits, gate):
    """(re, scale2) of a PrepState or FlipOnProjector on a real ExactState,
    by plain list loops over the labels with the register zeroed and the
    register patterns that vec covers."""
    vec = gate.vec
    norm2 = sum(v * v for v in vec)
    bases, offs = subset_index_maps(num_qubits, gate.register)
    re = state.re
    if isinstance(gate, PrepState):
        new = [0] * state.dim
        for base in bases:
            for o, v in zip(offs, vec):
                new[base | o] = re[base] * v
        return new, state.scale2 * norm2
    # |vec|^2 U maps the register blocks (u0, u1) at target 0 and 1 to
    # (|vec|^2 u0 + vec d, |vec|^2 u1 - vec d) with d = vec.(u1 - u0)
    tbit = 1 << gate.target
    new = [a * norm2 for a in re]
    for b0 in bases:
        if not b0 & tbit:
            b1 = b0 | tbit
            d = sum(v * (re[b1 | o] - re[b0 | o]) for o, v in zip(offs, vec))
            for o, v in zip(offs, vec):
                new[b0 | o] += v * d
                new[b1 | o] -= v * d
    return new, state.scale2 * norm2 * norm2


def spy_nullspace_paths(monkeypatch):
    """Record which paths the elimination behind `linalg.nullspace` and
    `linalg.echelon` takes.

    "int64": calls of the int64 elimination; "handoff": for each one it
    handed to Python ints, the column it stopped at; "trip": int64
    back-substitutions refused by their overflow bound; "bareiss": Python
    eliminations from the first column.
    """
    paths = {"int64": 0, "handoff": [], "trip": 0, "bareiss": 0}
    kernel, echelon = linalg._echelon_int64, linalg._echelon_ff
    back = linalg._back_substitute_int64

    def spy_kernel(m, ncols):
        paths["int64"] += 1
        return kernel(m, ncols)

    def spy_echelon(rows, ncols, start=None, watch=False):
        if start is None:
            paths["bareiss"] += 1
        else:
            paths["handoff"].append(start[0])
        return echelon(rows, ncols, start, watch)

    def spy_back(ech, pivots, ncols):
        out = back(ech, pivots, ncols)
        paths["trip"] += out is None
        return out

    monkeypatch.setattr(linalg, "_echelon_int64", spy_kernel)
    monkeypatch.setattr(linalg, "_echelon_ff", spy_echelon)
    monkeypatch.setattr(linalg, "_back_substitute_int64", spy_back)
    return paths


def spy_certificates(monkeypatch):
    """The answer of every `full_column_rank_mod_p` call `polys.ndeg`
    makes, in order."""
    shown = []
    real = polys.full_column_rank_mod_p

    def spy(rows, ncols):
        shown.append(real(rows, ncols))
        return shown[-1]

    monkeypatch.setattr(polys, "full_column_rank_mod_p", spy)
    return shown


# ---------------------------------------------------------------------------
# ndeg oracles: the coefficient-space and value-space systems that the
# reduced Hamming-ball system replaced, each solved for a whole basis of V_d


def ndeg_primal_oracle(f, d):
    """(dim V_d, evidence) from the coefficient-space system: a row per
    0-input x, a column per monomial m of degree <= d, entry [m subset of x].
    The evidence is the first 1-input at which every basis polynomial
    vanishes, or None."""
    cols = [m for m in range(f.size) if m.bit_count() <= d]
    rows = [[1 if m & x == m else 0 for m in cols] for x in f.zeros()]
    basis = [vec for _, vec in linalg.nullspace(rows, len(cols))]
    evidence = next((x for x in f.ones()
                     if not any(linalg.dot([int(m & x == m) for m in cols],
                                           vec) for vec in basis)), None)
    return len(basis), evidence


def ndeg_dual_oracle(f, d):
    """(dim V_d, evidence) from the value-space system: unknowns the values
    on the 1-inputs, a row per mask m of degree > d forcing the Möbius
    coefficient at m to zero, entry (-1)^(|m| - |x|) [x subset of m]."""
    ones = f.ones()
    rows = [[(-1) ** ((m ^ x).bit_count()) if x & m == x else 0
             for x in ones]
            for m in range(f.size) if m.bit_count() > d]
    basis = [vec for _, vec in linalg.nullspace(rows, len(ones))]
    evidence = next((x for j, x in enumerate(ones)
                     if not any(vec[j] for vec in basis)), None)
    return len(basis), evidence


def ndeg_scan_reference(f, seed=polys.DEFAULT_SEED):
    """`polys.ndeg` as it was before its full-rank shortcut: one probe per
    degree from the Nisan-Szegedy start d0 on, with one random stream."""
    rng = random.Random(seed)
    start = f.n + 1 - f.bits.bit_count().bit_length()
    for d in range(min(start, f.n), f.n + 1):
        cert = polys.ndeg_decide(f, d, rng=rng)
        if cert.feasible:
            return d, cert
    raise polys.EngineInvariantBroken("degree n is always feasible")


# ---------------------------------------------------------------------------
# symbolic simulation oracle: one MultilinearPoly per basis label, each gate
# applied label by label, as `symbolic_simulate` ran before it moved to one
# integer coefficient array


def symbolic_reference(algo):
    """(amplitudes, scale2) of `algo`: label -> nonzero MultilinearPoly
    numerator, all over 1/sqrt(scale2)."""
    n, nq = algo.n, algo.num_qubits
    amps = {label: MultilinearPoly.make(n, MONOMIAL, {0: v})
            for label, v in enumerate(algo.prep.re) if v}
    scale2 = algo.prep.scale2
    for gate in algo.gates:
        if isinstance(gate, Unitary):
            amps = _reference_unitary(amps, gate, nq, n)
            scale2 = scale2 * gate.matrix.scale2
        elif isinstance(gate, (FlipOnZero, Swap)):
            perm = _fixed_flip(nq, gate).tolist()
            amps = {perm[label]: poly for label, poly in amps.items()}
        elif isinstance(gate, BitOracle):
            amps = _reference_oracle(amps, gate, nq, n)
        else:
            amps = _reference_phase(amps, gate, nq, n)
    return amps, scale2


def _reference_unitary(amps, gate, num_qubits, n):
    _, offs = subset_index_maps(num_qubits, gate.qubits)
    mask = sum(1 << q for q in gate.qubits)
    out = {}
    for base in sorted({label & ~mask for label in amps}):
        sub = [amps.get(base | o) for o in offs]
        for r, row in enumerate(gate.matrix.re):
            acc = _combine(n, MONOMIAL, ((g, s) for g, s in zip(row, sub)
                                         if s is not None))
            if not acc.is_zero():
                out[base | offs[r]] = acc
    return out


def _reference_oracle(amps, gate, num_qubits, n):
    zero = MultilinearPoly.make(n, MONOMIAL, {})
    out = {}
    tbit = 1 << gate.target
    index = register_values(num_qubits, gate.index_qubits)
    for label in sorted({label & ~tbit for label in amps}):
        i = int(index[label])
        a0 = amps.get(label, zero)
        a1 = amps.get(label | tbit, zero)
        if i < n:
            xi = MultilinearPoly.make(n, MONOMIAL, {1 << i: 1})
            omx = MultilinearPoly.make(n, MONOMIAL, {0: 1, 1 << i: -1})
            a0, a1 = omx * a0 + xi * a1, omx * a1 + xi * a0
        if not a0.is_zero():
            out[label] = a0
        if not a1.is_zero():
            out[label | tbit] = a1
    return out


def _reference_phase(amps, gate, num_qubits, n):
    subsets = register_values(num_qubits, gate.qubits)
    out = {}
    for label, poly in amps.items():
        s = int(subsets[label])
        for i in range(n):
            if s >> i & 1:
                poly = poly * MultilinearPoly.make(n, MONOMIAL,
                                                   {0: 1, 1 << i: -2})
        out[label] = poly
    return out

"""Query-model quantum algorithms: numeric and symbolic simulation, the
polynomial-to-algorithm compiler, algorithm-to-polynomial extraction, and the
certificate-verifier transform.

Register conventions: an algorithm on w qubits uses basis labels 0..2^w-1
with qubit q at bit q of the label; written as a ket the leftmost qubit is
the highest index.  The declared output qubit follows the leftmost-qubit
convention: acceptance is the squared norm of the output-qubit = 1 component.
"""

from __future__ import annotations

import itertools
import json
import numbers
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .boolfn import CapExceeded, TruthTable
from .linalg import _INT64_SAFE
from .polys import (MONOMIAL, IdenticallyZero, InvalidWitness,
                    MultilinearPoly, _canonical, _combine, _resample,
                    parse_rational, to_fourier, verify_ndet)
from .statevec import (DIM_CAP, HADAMARD, ExactState, FlipOnZero,
                       ScaledMatrix, Swap, Unitary, _apply_unitary,
                       _check_qubits, _exact_rationals, _fixed_flip,
                       _flip_labels, _unitary, acceptance, apply_gate,
                       apply_label_map, apply_matrix_float, basis_state,
                       register_values)
# no caller here: kept as a name the perfbench tracer requires to rebind
# (perfbench/tracer.py MUST_REBIND)
from .statevec import apply_scaled_matrix  # noqa: F401

SYMBOLIC_DIM_CAP = 1 << 14
SYMBOLIC_CELL_CAP = 1 << 24   # monomial rows times basis labels
FLOAT_NORM_TOL = 1e-12
VERIFIER_N_CAP = 4
VERIFIER_M_CAP = 6


class NotNondeterministic(ValueError):
    """Acceptance is zero on some 1-input or positive on some 0-input."""


class EmptyOneSet(ValueError):
    """The verifier transform needs at least one 1-input."""


class VerifierClauseViolation(ValueError):
    """A verifier broke clause (1) or (2) of the certificate definition."""


class NormNotPreserved(ValueError):
    """A simulated state left unit norm."""


class DegreeBoundViolation(ValueError):
    """An amplitude or extracted polynomial has degree above the queries."""


# ---------------------------------------------------------------------------
# gates


# gates that read the input; Unitary and FlipOnZero come from statevec


@dataclass(frozen=True)
class BitOracle:
    """|i, b, z> -> |i, b ^ x_i, z>; index value i (from the index qubits,
    tuple order = significance) addresses variable x_{i+1}; out-of-range
    index values act as identity."""

    index_qubits: tuple
    target: int

    cost = 1

    @property
    def qubits(self):
        return tuple(self.index_qubits) + (self.target,)


@dataclass(frozen=True)
class PhaseOracle:
    """|S> -> (-1)^{x . S} |S> on the subset register, with certified query
    cost equal to the degree bound; qubit j of the register is membership of
    variable x_{j+1}.  Application checks the state is supported on
    |S| <= degree_bound."""

    qubits: tuple
    degree_bound: int

    @property
    def cost(self):
        return self.degree_bound


@dataclass(frozen=True)
class InputGate:
    """Input-indexed family of unitaries with a certified query cost.

    The same accounting device the phase gate uses: the cost is declared by
    construction rather than expanded into oracle calls.  Used by the
    certificate-verifier transform at toy scale.
    """

    qubits: tuple
    matrices: dict
    cost: int


@dataclass(frozen=True)
class StatePrep:
    """Initial state: amplitudes (re + i*im) / sqrt(scale2), unit norm, all
    exact rationals, stored as ints and Fractions."""

    re: tuple
    im: tuple | None
    scale2: object

    def __post_init__(self):
        msg = "initial state must be exact rationals"
        object.__setattr__(self, "re", _exact_rationals(self.re, msg))
        if self.im is not None:
            object.__setattr__(self, "im", _exact_rationals(self.im, msg))
            if len(self.im) != len(self.re):
                raise ValueError("initial state parts differ in length")
        (scale2,) = _exact_rationals((self.scale2,), msg)
        object.__setattr__(self, "scale2", scale2)
        if not self.scale2 > 0 or self.to_exact().norm2() != 1:
            raise ValueError("initial state must have unit norm")

    @property
    def dim(self):
        return len(self.re)

    def to_exact(self) -> ExactState:
        return ExactState(self.re, self.im, self.scale2)


def basis_prep(num_qubits: int, label: int = 0) -> StatePrep:
    return StatePrep(tuple(basis_state(num_qubits, label).re), None, 1)


@dataclass(frozen=True)
class QueryAlgorithm:
    n: int
    num_qubits: int
    prep: StatePrep
    gates: tuple
    query_cost: int
    output_qubit: int

    def __post_init__(self):
        if (1 << self.num_qubits) > DIM_CAP:
            raise CapExceeded("state dimension above 2^20")
        if self.prep.dim != 1 << self.num_qubits:
            raise ValueError("initial state dimension mismatch")
        if not 0 <= self.output_qubit < self.num_qubits:
            raise ValueError("output qubit out of range")
        total = 0
        for g in self.gates:
            _check_qubits(g, range(self.num_qubits))
            if isinstance(g, PhaseOracle) and len(g.qubits) > self.n:
                raise ValueError("phase oracle register wider than n")
            if isinstance(g, InputGate):
                for x in range(1 << self.n):
                    if x not in g.matrices:
                        raise ValueError(f"input gate has no matrix for {x}")
                    Unitary(g.qubits, g.matrices[x])
            total += g.cost
        if total != self.query_cost:
            raise ValueError("declared query cost must equal summed gate costs")


# ---------------------------------------------------------------------------
# numeric simulation


def _apply_gate(state, algo, gate, x):
    """Apply one gate on input x: an int for an ExactState, or for a float
    state a sequence of ints, one per row.  The gates that read x are resolved
    here, every other gate goes to statevec.apply_gate."""
    nq, n = algo.num_qubits, algo.n
    exact = isinstance(state, ExactState)
    xs = [x] if exact else x
    if isinstance(gate, InputGate):
        # QueryAlgorithm checked every gate.matrices[x] unitary when built
        if exact:
            return _apply_unitary(state, nq, gate.qubits, gate.matrices[x])
        return apply_matrix_float(state, nq, gate.qubits, np.stack(
            [gate.matrices[v].to_ndarray() for v in xs]))
    if isinstance(gate, BitOracle):
        # row r, column i: x_{i+1} of input xs[r]; index values >= n read 0
        # (identity), and a table lookup keeps x out of numpy shifts
        table = np.zeros((len(xs), 1 << len(gate.index_qubits)), np.int64)
        m = min(n, table.shape[1])
        table[:, :m] = [[(v >> i) & 1 for i in range(m)] for v in xs]
        hit = table[:, register_values(nq, gate.index_qubits)]
        return apply_label_map(state, _flip_labels(hit, 1 << gate.target))
    if not isinstance(gate, PhaseOracle):
        return apply_gate(state, nq, gate)
    s = register_values(nq, gate.qubits)
    amps = state.amps if exact else state
    if np.any(amps[:, np.bitwise_count(s) > gate.degree_bound] != 0):
        raise ValueError("phase gate support above its degree bound")
    # register bit j holds x_{j+1}
    low = np.array([v & ((1 << len(gate.qubits)) - 1) for v in xs])
    neg = (np.bitwise_count(s & low[:, None]) & 1).astype(bool)
    return apply_label_map(state, neg=neg)


# amplitudes in one block of float simulation: bounds its memory
_FLOAT_BLOCK = 1 << 13


def _float_blocks(algo: QueryAlgorithm, xs):
    """Final float states on the inputs xs, in order, one block of rows at a
    time; each row's norm is checked after every gate."""
    prep = algo.prep.to_exact().to_ndarray()
    step = max(1, _FLOAT_BLOCK >> algo.num_qubits)
    for start in range(0, len(xs), step):
        block = xs[start:start + step]
        state = np.tile(prep, (len(block), 1))
        for gate in algo.gates:
            state = _apply_gate(state, algo, gate, block)
            drift = np.max(np.abs((state * state.conj()).real.sum(-1) - 1.0))
            if drift > FLOAT_NORM_TOL:
                raise NormNotPreserved(f"norm drift {drift:.2e} in float mode")
        yield state


def float_acceptances(algo: QueryAlgorithm) -> np.ndarray:
    """Float acceptance on every input 0..2^n - 1, in one pass over blocks
    of inputs."""
    return np.concatenate([acceptance(state, algo.output_qubit) for state
                           in _float_blocks(algo, range(1 << algo.n))])


def simulate(algo: QueryAlgorithm, x: int):
    """Run the algorithm exactly on input x, an int (not a bool) in
    0..2^n - 1.

    Returns (final ExactState, acceptance probability as a Fraction).
    Unit norm is checked after every gate up to 10-qubit states, else at
    the end.  For float acceptance on all inputs use `float_acceptances`;
    for exact acceptance on all inputs, symbolic_simulate's acceptance
    polynomial.
    """
    if (isinstance(x, bool) or not isinstance(x, numbers.Integral)
            or not 0 <= x < (1 << algo.n)):
        raise ValueError(f"input must be an int in 0..2^n - 1, not {x!r}")
    x = int(x)
    state = algo.prep.to_exact()
    for gate in algo.gates:
        state = _apply_gate(state, algo, gate, x)
        if algo.num_qubits <= 10 and state.norm2() != 1:
            raise NormNotPreserved("norm must be preserved exactly")
    if state.norm2() != 1:
        raise NormNotPreserved("norm must be preserved exactly")
    return state, acceptance(state, algo.output_qubit)


# ---------------------------------------------------------------------------
# compiler: nondeterministic polynomial -> 1-sided query algorithm


def compile_from_ndet_poly(p: MultilinearPoly, f: TruthTable) -> QueryAlgorithm:
    """Compile a Fourier-basis nondeterministic polynomial into an algorithm
    of query cost deg(p): prepare c * sum_S c_S |S>, apply the phase-query
    gate, apply Hadamards, and flip the output flag exactly on index |0^n>.
    Simulated acceptance is c^2 p(x)^2 / 2^n, positive iff f(x) = 1.
    """
    if not f.bits:
        raise IdenticallyZero("no nondeterministic polynomial for f == 0")
    if p.basis == MONOMIAL:
        p = to_fourier(p)
    if p.n != f.n or not verify_ndet(p, f):
        raise InvalidWitness("not a nondeterministic polynomial for f")
    n = f.n
    d = p.degree
    nums = [0] * (1 << (n + 1))
    for mask, c in p.nums.items():
        nums[mask] = c
    scale2 = sum(v * v for v in nums)
    prep = StatePrep(tuple(nums), None, scale2)
    gates = [PhaseOracle(tuple(range(n)), d)]
    gates.extend(Unitary((q,), HADAMARD) for q in range(n))
    gates.append(FlipOnZero(tuple(range(n)), n))
    return QueryAlgorithm(n=n, num_qubits=n + 1, prep=prep,
                          gates=tuple(gates), query_cost=d, output_qubit=n)


# ---------------------------------------------------------------------------
# symbolic simulation


@dataclass
class SymbolicState:
    """Statevector whose amplitudes are multilinear polynomials in x.

    coef[k, label] / den is the coefficient of the monomial masks[k] in the
    amplitude numerator of the label, over a common 1/sqrt(scale2).  coef
    is the array `symbolic_simulate` ran on: numpy int64, or Python ints in
    an object array after its hand-off.  Polynomials are built only for
    the labels that are read.
    """

    n: int
    num_qubits: int
    coef: np.ndarray
    masks: tuple
    den: int
    scale2: object
    output_qubit: int

    def amplitude(self, label: int) -> MultilinearPoly:
        col = self.coef[:, label].tolist()
        return _canonical(self.n, MONOMIAL, {
            m: c for m, c in zip(self.masks, col) if c}, self.den)

    @property
    def amplitudes(self) -> dict:
        """Label -> amplitude numerator, for every nonzero amplitude."""
        live = np.flatnonzero((self.coef != 0).any(0))
        return {label: self.amplitude(label) for label in live.tolist()}

    def _accepting(self) -> list:
        """The nonzero amplitudes of labels whose output qubit is 1."""
        labels = np.flatnonzero(
            np.arange(self.coef.shape[1]) >> self.output_qubit & 1)
        labels = labels[(self.coef[:, labels] != 0).any(0)]
        return [self.amplitude(label) for label in labels.tolist()]

    def acceptance_polynomial(self) -> MultilinearPoly:
        k = Fraction(1, self.scale2)
        return _combine(self.n, MONOMIAL,
                        ((k, poly * poly) for poly in self._accepting()))

    def norm2(self, x: int) -> Fraction:
        """Squared norm of the whole state on input x."""
        rows = [k for k, m in enumerate(self.masks) if m & x == m]
        vals = self.coef[rows].astype(object).sum(0).tolist()
        return Fraction(sum(v * v for v in vals),
                        self.den * self.den) / self.scale2


def symbolic_simulate(algo: QueryAlgorithm) -> SymbolicState:
    """Propagate polynomial amplitudes through the circuit.

    The state is one integer array (see SymbolicState): a row per monomial
    of weight at most the query cost, lightest first, and a column per
    basis label.  A real Unitary is an integer combination of label
    columns, its entries' denominators moving into den; FlipOnZero and
    Swap permute columns (`apply_label_map`); an oracle multiplies the
    columns it selects by x_i, one gather over the monomial rows per
    variable.  The array is numpy int64 while its largest magnitude times
    the next step's growth stays below linalg._INT64_SAFE, checked before
    every step that can grow values; from the first step that fails the
    check, the same code runs on Python ints.

    Requires real rational gates; input-indexed gates have no polynomial
    form and are rejected.  Amplitude degrees are checked against the
    running query count after every gate, and a product that would leave
    the array raises DegreeBoundViolation.  Above SYMBOLIC_DIM_CAP labels
    or SYMBOLIC_CELL_CAP cells it raises CapExceeded before allocating.
    """
    n, nq = algo.n, algo.num_qubits
    if (1 << nq) > SYMBOLIC_DIM_CAP:
        raise CapExceeded("symbolic state dimension above 2^14")
    rows = sum(comb(n, w) for w in range(algo.query_cost + 1))
    if rows << nq > SYMBOLIC_CELL_CAP:
        raise CapExceeded(f"{rows} x 2^{nq} symbolic state cells above 2^24")
    if algo.prep.im is not None:
        raise ValueError("complex initial state unsupported symbolically")
    masks = sorted((sum(1 << i for i in c)
                    for w in range(algo.query_cost + 1)
                    for c in itertools.combinations(range(n), w)),
                   key=lambda m: (m.bit_count(), m))
    weights = [m.bit_count() for m in masks]
    den = lcm(*(v.denominator for v in algo.prep.re))
    top = [int(v * den) for v in algo.prep.re]
    coef = np.zeros((len(masks), 1 << nq),
                    np.int64 if max(map(abs, top)) < _INT64_SAFE else object)
    coef[0] = top
    scale2 = algo.prep.scale2
    queries = 0
    for gate in algo.gates:
        if isinstance(gate, Unitary):
            if gate.matrix.im is not None:
                raise ValueError("irrational/complex gate in symbolic mode")
            d = lcm(*(v.denominator for row in gate.matrix.re for v in row))
            rows = [[int(v * d) for v in row] for row in gate.matrix.re]
            coef = _fit(coef, max(sum(map(abs, row)) for row in rows))
            coef = _unitary(coef, nq, gate.qubits, rows)
            den *= d
            scale2 = scale2 * gate.matrix.scale2
        elif isinstance(gate, (FlipOnZero, Swap)):
            coef = apply_label_map(coef, _fixed_flip(nq, gate))
        elif isinstance(gate, BitOracle):
            coef = _oracle(_fit(coef, 5), gate, nq, n, masks)
            queries += 1
        elif isinstance(gate, PhaseOracle):
            coef = _phase(coef, gate, nq, masks)
            queries += gate.degree_bound
        else:
            raise ValueError(f"gate {gate!r} has no symbolic form")
        if np.any(coef[bisect_right(weights, queries):] != 0):
            raise DegreeBoundViolation(
                "amplitude degree exceeded the query count")
    return SymbolicState(n, nq, coef, tuple(masks), den, scale2,
                         algo.output_qubit)


def _fit(coef, growth):
    """coef, as Python ints unless it is int64 and a step that grows
    magnitudes at most growth-fold forms only values below _INT64_SAFE."""
    if coef.dtype == object:
        return coef
    big = max(int(coef.max()), -int(coef.min()))
    return coef if big * growth < _INT64_SAFE else coef.astype(object)


def _times_var(block, i, masks):
    """(rows, values): x_{i+1} times the polynomials in the columns of
    block, whose row k holds the monomial masks[k], is values[j] at the
    monomial masks[rows[j]] and zero elsewhere.  Only the rows of block
    that hold a nonzero value are read; DegreeBoundViolation if a product
    leaves masks."""
    bit = 1 << i
    pos = {m: k for k, m in enumerate(masks)}
    live = [masks[k] | bit for k in np.flatnonzero((block != 0).any(1))]
    if not all(m in pos for m in live):
        raise DegreeBoundViolation("an amplitude's degree would exceed the "
                                   "query cost")
    rows = sorted({pos[m] for m in live})
    return rows, block[rows] + block[[pos[masks[k] ^ bit] for k in rows]]


def _oracle(coef, gate, num_qubits, n, masks):
    """BitOracle: labels a0, a1 that differ in the target and index x_i
    become a0 + x_i d and a1 - x_i d, d = a1 - a0; in place."""
    index = register_values(num_qubits, gate.index_qubits)
    low = np.flatnonzero(register_values(num_qubits, (gate.target,)) == 0)
    for i in range(min(n, 1 << len(gate.index_qubits))):
        l0 = low[index[low] == i]
        l1 = l0 | 1 << gate.target
        rows, xd = _times_var(coef[:, l1] - coef[:, l0], i, masks)
        coef[np.ix_(rows, l0)] += xd
        coef[np.ix_(rows, l1)] -= xd
    return coef


def _phase(coef, gate, num_qubits, masks):
    """PhaseOracle: the amplitude of |S> times prod over i in S of
    (1 - 2 x_i), one variable at a time, in place."""
    s = register_values(num_qubits, gate.qubits)
    if np.any(coef[:, np.bitwise_count(s) > gate.degree_bound] != 0):
        raise ValueError("phase gate support above its degree bound")
    for j in range(len(gate.qubits)):
        sel = np.flatnonzero(s >> j & 1)
        coef = _fit(coef, 5)
        rows, xq = _times_var(coef[:, sel], j, masks)
        coef[np.ix_(rows, sel)] -= 2 * xq
    return coef


# ---------------------------------------------------------------------------
# extraction: algorithm -> nondeterministic polynomial


def extract_ndet_poly(algo: QueryAlgorithm, f: TruthTable,
                      seed: int) -> MultilinearPoly:
    """Random integer combination of the accepting amplitudes, resampled
    until it verifies as a nondeterministic polynomial for f; the result has
    degree <= the algorithm's query cost."""
    poly, _ = extract_ndet_poly_stats(algo, f, seed)
    return poly


def extract_ndet_poly_stats(algo: QueryAlgorithm, f: TruthTable, seed: int):
    if algo.n != f.n:
        raise ValueError("algorithm arity does not match the function")
    if not f.bits:
        raise IdenticallyZero("no nondeterministic polynomial for f == 0")
    sym = symbolic_simulate(algo)
    for x, acc in enumerate(sym.acceptance_polynomial()._int_values()[0]):
        if bool(acc) != bool(f.value(x)):
            raise NotNondeterministic(
                f"acceptance pattern breaks at input {x}")
    parts = sym._accepting()
    rng = random.Random(seed)
    bound = 1 << (f.n + 1)

    def attempt():
        lam = [rng.randint(1, bound) for _ in parts]
        p = _combine(f.n, MONOMIAL, zip(lam, parts))
        return p if verify_ndet(p, f) else None

    p, retries = _resample(attempt, "extraction")
    if p.degree > algo.query_cost:
        raise DegreeBoundViolation("extracted degree exceeds the query cost")
    return p, retries


# ---------------------------------------------------------------------------
# certificate verifiers (appendix transform)


@dataclass(frozen=True)
class VerifierSpec:
    """Toy-scale certificate verifier: per-input unitaries on m qubits with a
    certified query cost, an explicit finite certificate set, and the chosen
    certificate for each 1-input.  All certificate states must share one
    scale so their superposition stays rational."""

    n: int
    m: int
    query_cost: int
    unitaries: dict
    certificates: tuple
    chosen: dict

    def __post_init__(self):
        if self.n > VERIFIER_N_CAP or self.m > VERIFIER_M_CAP:
            raise CapExceeded(
                f"verifier transform capped at n<={VERIFIER_N_CAP}, "
                f"m<={VERIFIER_M_CAP}")
        scales = {c.scale2 for c in self.certificates}
        if len(scales) > 1:
            raise ValueError("certificate states must share one scale")
        for c in self.certificates:
            if c.dim != 1 << self.m:
                raise ValueError("certificate dimension mismatch")

    def run_on(self, x: int, cert: StatePrep):
        """Acceptance probability of V_x applied to a certificate state."""
        state = apply_gate(cert.to_exact(), self.m,
                           Unitary(tuple(range(self.m)), self.unitaries[x]))
        return acceptance(state, self.m - 1)


def verifier_to_ndet(v: VerifierSpec, f: TruthTable) -> QueryAlgorithm:
    """Turn a verifier into a nondeterministic algorithm of the same cost:
    prepare the uniform superposition of chosen certificates tagged by their
    1-inputs, then run V_x on the certificate register.  Acceptance is
    positive iff f(x) = 1, and at least 1/|X1| on 1-inputs whose chosen
    certificate accepts with probability 1."""
    if v.n != f.n:
        raise ValueError("verifier arity does not match the function")
    x_one = f.ones()
    if not x_one:
        raise EmptyOneSet("f has no 1-inputs")
    for x in range(f.size):
        if x not in v.unitaries:
            raise ValueError(f"verifier has no unitary for input {x}")
    for x in f.zeros():
        for cert in v.certificates:
            if v.run_on(x, cert) != 0:
                raise VerifierClauseViolation(
                    f"0-input {x} accepts some certificate")
    for z in x_one:
        if z not in v.chosen:
            raise VerifierClauseViolation(f"no chosen certificate for {z}")
        if v.run_on(z, v.certificates[v.chosen[z]]) == 0:
            raise VerifierClauseViolation(
                f"chosen certificate for {z} is rejected")
    n, m = v.n, v.m
    cert_scale = v.certificates[0].scale2
    re = [0] * (1 << (n + m))
    im = None
    if any(c.im is not None for c in v.certificates):
        im = [0] * (1 << (n + m))
    for z in x_one:
        cert = v.certificates[v.chosen[z]]
        for cl in range(cert.dim):
            re[(cl << n) | z] = cert.re[cl]
            if im is not None and cert.im is not None:
                im[(cl << n) | z] = cert.im[cl]
    prep = StatePrep(tuple(re), tuple(im) if im else None,
                     Fraction(len(x_one)) * cert_scale)
    gate = InputGate(qubits=tuple(range(n, n + m)), matrices=dict(v.unitaries),
                     cost=v.query_cost)
    return QueryAlgorithm(n=n, num_qubits=n + m, prep=prep, gates=(gate,),
                          query_cost=v.query_cost, output_qubit=n + m - 1)


# ---------------------------------------------------------------------------
# circuit description file (one JSON record per line)


def _frac_str(v):
    return str(Fraction(v))


def circuit_to_lines(algo: QueryAlgorithm) -> list:
    """Line records {gate: PREP|UNITARY|ORACLE|PHASE_F, qubits, data};
    input-indexed gates are behavioral and cannot be serialized."""
    lines = [json.dumps({
        "gate": "PREP", "qubits": list(range(algo.num_qubits)),
        "data": {"n": algo.n, "query_cost": algo.query_cost,
                 "output_qubit": algo.output_qubit,
                 "re": [_frac_str(v) for v in algo.prep.re],
                 "im": ([_frac_str(v) for v in algo.prep.im]
                        if algo.prep.im is not None else None),
                 "scale2": _frac_str(algo.prep.scale2)}})]
    for g in algo.gates:
        if isinstance(g, Unitary):
            rec = {"gate": "UNITARY", "qubits": list(g.qubits),
                   "data": {"re": [[_frac_str(v) for v in row]
                                   for row in g.matrix.re],
                            "im": ([[_frac_str(v) for v in row]
                                    for row in g.matrix.im]
                                   if g.matrix.im is not None else None),
                            "scale2": _frac_str(g.matrix.scale2)}}
        elif isinstance(g, FlipOnZero):
            rec = {"gate": "UNITARY", "qubits": list(g.qubits),
                   "data": {"flip_on_zero": {"controls": list(g.controls),
                                             "target": g.target}}}
        elif isinstance(g, BitOracle):
            rec = {"gate": "ORACLE", "qubits": list(g.qubits),
                   "data": {"index_qubits": list(g.index_qubits),
                            "target": g.target}}
        elif isinstance(g, PhaseOracle):
            rec = {"gate": "PHASE_F", "qubits": list(g.qubits),
                   "data": {"degree_bound": g.degree_bound}}
        else:
            raise ValueError(f"gate {g!r} cannot be serialized")
        lines.append(json.dumps(rec))
    return lines


def _int_field(v):
    """An integer field of a circuit record.  JSON true and false are not
    integers here, nor is 1.0, which reads as a Fraction."""
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _qubit_list(v):
    if type(v) is not list:
        raise ValueError(f"expected a list of qubits, got {v!r}")
    return tuple(map(_int_field, v))


def circuit_from_lines(lines) -> QueryAlgorithm:
    try:
        records = [json.loads(line, parse_float=parse_rational)
                   for line in lines if line.strip()]
        if not records or records[0]["gate"] != "PREP":
            raise ValueError("circuit file must start with a PREP record")
        head = records[0]["data"]
        prep = StatePrep(tuple(parse_rational(v) for v in head["re"]),
                         tuple(parse_rational(v) for v in head["im"])
                         if head["im"] is not None else None,
                         parse_rational(head["scale2"]))
        gates = []
        for rec in records[1:]:
            kind, data = rec["gate"], rec["data"]
            if kind == "UNITARY" and "flip_on_zero" in data:
                fz = data["flip_on_zero"]
                gates.append(FlipOnZero(_qubit_list(fz["controls"]),
                                        _int_field(fz["target"])))
            elif kind == "UNITARY":
                mat = ScaledMatrix(
                    tuple(tuple(parse_rational(v) for v in row)
                          for row in data["re"]),
                    tuple(tuple(parse_rational(v) for v in row)
                          for row in data["im"])
                    if data["im"] is not None else None,
                    parse_rational(data["scale2"]))
                gates.append(Unitary(_qubit_list(rec["qubits"]), mat))
            elif kind == "ORACLE":
                gates.append(BitOracle(_qubit_list(data["index_qubits"]),
                                       _int_field(data["target"])))
            elif kind == "PHASE_F":
                gates.append(PhaseOracle(_qubit_list(rec["qubits"]),
                                         _int_field(data["degree_bound"])))
            else:
                raise ValueError(f"unknown record {kind!r}")
        num_qubits = len(_qubit_list(records[0]["qubits"]))
        return QueryAlgorithm(n=_int_field(head["n"]), num_qubits=num_qubits,
                              prep=prep, gates=tuple(gates),
                              query_cost=_int_field(head["query_cost"]),
                              output_qubit=_int_field(head["output_qubit"]))
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed circuit record: {e!r}") from e

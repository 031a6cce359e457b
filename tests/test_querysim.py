import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ndqc
from ndqc import linalg, querysim, statevec
from ndqc.boolfn import CapExceeded, TruthTable, make_named, random_table
from ndqc.polys import (MONOMIAL, IdenticallyZero, InvalidWitness,
                        MultilinearPoly,
                        RetryCapExceeded, format_poly, ndeg, to_fourier, verify_ndet,
                        weight_offset_poly)
from ndqc.querysim import (BitOracle, DegreeBoundViolation, EmptyOneSet,
                           FlipOnZero, InputGate,
                           NormNotPreserved, NotNondeterministic,
                           PhaseOracle, QueryAlgorithm, StatePrep,
                           Unitary, VerifierClauseViolation, VerifierSpec,
                           basis_prep, circuit_from_lines, circuit_to_lines,
                           compile_from_ndet_poly, extract_ndet_poly,
                           extract_ndet_poly_stats, simulate,
                           symbolic_simulate, verifier_to_ndet)
from ndqc.statevec import HADAMARD, PrepState, ScaledMatrix, Swap, \
    scaled_real

F = Fraction


def hadamard_algo():
    return QueryAlgorithm(n=1, num_qubits=1, prep=basis_prep(1),
                          gates=(Unitary((0,), HADAMARD),),
                          query_cost=0, output_qubit=0)


def _max_degree(sym):
    return max((p.degree for p in sym.amplitudes.values()), default=-1)


def _random_circuit(rng):
    """Seeded circuit with n <= 5, up to 4 queries (bit and phase oracles),
    flag flips, Hadamards and rational rotations."""
    rotations = [(F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)),
                 (F(8, 17), F(15, 17))]
    n = rng.randint(1, 5)
    nq = rng.randint(2, 4)
    idx_width = min(max(1, (n - 1).bit_length() or 1), nq - 1) or 1
    gates = []
    t = 0
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.35 and t < 4:
            idx = tuple(rng.sample(range(nq), idx_width))
            tgt = rng.choice([q for q in range(nq) if q not in idx])
            gates.append(BitOracle(idx, tgt))
            t += 1
        elif kind < 0.45 and t < 4:
            width = rng.randint(1, min(n, nq, 4 - t))
            gates.append(PhaseOracle(
                tuple(rng.sample(range(nq), width)), width))
            t += width
        elif kind < 0.55:
            ctl = tuple(rng.sample(range(nq), rng.randrange(nq)))
            tgt = rng.choice([q for q in range(nq) if q not in ctl])
            gates.append(FlipOnZero(ctl, tgt))
        elif kind < 0.8:
            a, b = rotations[rng.randrange(3)]
            if rng.random() < 0.5:
                b = -b
            gates.append(Unitary((rng.randrange(nq),),
                                 scaled_real(((a, -b), (b, a)))))
        else:
            gates.append(Unitary((rng.randrange(nq),), HADAMARD))
    return QueryAlgorithm(n=n, num_qubits=nq, prep=basis_prep(nq),
                          gates=tuple(gates), query_cost=t,
                          output_qubit=nq - 1)


class TestSimulate:
    def test_hadamard_half(self):
        _, acc = simulate(hadamard_algo(), 0)
        assert acc == F(1, 2)

    def test_float_mode_agrees(self):
        acc = querysim.float_acceptances(hadamard_algo())[0]
        assert abs(acc - 0.5) < 1e-9

    def test_non_unitary_rejected(self):
        bad = scaled_real(((1, 1), (0, 1)))
        with pytest.raises(ValueError, match="non-unitary"):
            QueryAlgorithm(n=1, num_qubits=1, prep=basis_prep(1),
                           gates=(Unitary((0,), bad),),
                           query_cost=0, output_qubit=0)

    def test_cost_accounting_enforced(self):
        with pytest.raises(ValueError, match="query cost"):
            QueryAlgorithm(n=2, num_qubits=2, prep=basis_prep(2),
                           gates=(BitOracle((0,), 1),),
                           query_cost=0, output_qubit=1)

    def test_oracle_flips_target(self):
        # index register value 0 reads x_1
        algo = QueryAlgorithm(n=1, num_qubits=2, prep=basis_prep(2),
                              gates=(BitOracle((0,), 1),),
                              query_cost=1, output_qubit=1)
        _, acc0 = simulate(algo, 0)
        _, acc1 = simulate(algo, 1)
        assert acc0 == 0 and acc1 == 1
        # index qubits (2, 0): value v = bit 2 + 2 * bit 0 reads x_{v+1},
        # and v = 3 >= n acts as the identity
        for v in range(4):
            label = ((v & 1) << 2) | (v >> 1)
            algo = QueryAlgorithm(n=3, num_qubits=3,
                                  prep=basis_prep(3, label),
                                  gates=(BitOracle((2, 0), 1),),
                                  query_cost=1, output_qubit=1)
            accfs = querysim.float_acceptances(algo)
            for x in range(8):
                want = (x >> v) & 1 if v < 3 else 0
                assert simulate(algo, x)[1] == want
                assert accfs[x] == want

    def test_complex_rational_gate_exact(self):
        # i*X then H: acceptance 1/2, norm preserved with imaginary parts
        ix = ScaledMatrix(((0, 0), (0, 0)), ((0, 1), (1, 0)), 1)
        assert ix.is_unitary()
        algo = QueryAlgorithm(n=1, num_qubits=1, prep=basis_prep(1),
                              gates=(Unitary((0,), ix),
                                     Unitary((0,), HADAMARD)),
                              query_cost=0, output_qubit=0)
        state, acc = simulate(algo, 0)
        assert acc == F(1, 2)
        assert state.im is not None
        accf = querysim.float_acceptances(algo)[0]
        assert abs(accf - 0.5) < 1e-9

    def test_wide_phase_oracle_rejected(self):
        # register qubit j reads x_{j+1}, so a register wider than n is
        # malformed rather than reading the missing variables as 0
        with pytest.raises(ValueError, match="wider than n"):
            QueryAlgorithm(n=2, num_qubits=4, prep=basis_prep(4),
                           gates=(PhaseOracle((0, 1, 2), 3),),
                           query_cost=3, output_qubit=3)

    def test_input_gate_float_mode(self):
        algo = verifier_to_ndet(or2_verifier(), make_named("OR", 2))
        accfs = querysim.float_acceptances(algo)
        for x in range(4):
            _, acc = simulate(algo, x)
            assert abs(accfs[x] - float(acc)) < 1e-9

    # float acceptance comes for all inputs at once and takes no input, so
    # only exact simulation has an input to reject
    @pytest.mark.parametrize("mode", ["exact"])
    @pytest.mark.parametrize("x", [2.0, 1.0, True, False, -1, 2, "1", None,
                                   F(1), np.float64(0)])
    def test_malformed_input_rejected(self, x, mode):
        with pytest.raises(ValueError, match="input must be an int"):
            simulate(hadamard_algo(), x)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_numpy_integer_input(self, mode):
        x = np.int64(1)
        acc = (simulate(hadamard_algo(), x)[1] if mode == "exact"
               else querysim.float_acceptances(hadamard_algo())[x])
        assert abs(acc - F(1, 2)) < 1e-12


class TestInputFreeGates:
    def test_swap_agrees_in_every_mode(self):
        # H on the index qubit, x_1 or x_2 into qubit 2, swapped onto the
        # output qubit 1: acceptance (x_1 + x_2) / 2
        algo = QueryAlgorithm(n=2, num_qubits=3, prep=basis_prep(3),
                              gates=(Unitary((0,), HADAMARD),
                                     BitOracle((0,), 2), Swap(2, 1)),
                              query_cost=1, output_qubit=1)
        accs = symbolic_simulate(algo).acceptance_polynomial().values()
        accfs = querysim.float_acceptances(algo)
        for x in range(4):
            want = F((x & 1) + (x >> 1), 2)
            assert simulate(algo, x)[1] == want == accs[x]
            assert abs(accfs[x] - want) < 1e-12

    def test_prep_state_has_no_symbolic_form(self):
        algo = QueryAlgorithm(n=1, num_qubits=1, prep=basis_prep(1),
                              gates=(PrepState((0,), (3, 4)),),
                              query_cost=0, output_qubit=0)
        assert simulate(algo, 1)[1] == F(16, 25)
        with pytest.raises(ValueError, match="has no symbolic form"):
            symbolic_simulate(algo)


class TestInputGateChecked:
    def _algo(self, matrices):
        return QueryAlgorithm(n=1, num_qubits=1, prep=basis_prep(1),
                              gates=(InputGate((0,), matrices, 1),),
                              query_cost=1, output_qubit=0)

    @pytest.mark.parametrize("matrices, message", [
        ({0: HADAMARD}, "no matrix for 1"),
        ({0: HADAMARD, 1: scaled_real(((1, 1), (0, 1)))}, "non-unitary"),
        ({0: HADAMARD, 1: scaled_real(((1, 0, 0, 0), (0, 1, 0, 0),
                                       (0, 0, 1, 0), (0, 0, 0, 1)))},
         "dimension"),
        ({0: HADAMARD, 1: np.eye(2)}, "ScaledMatrix"),
    ], ids=["missing-input", "non-unitary", "wrong-size", "ndarray"])
    def test_bad_matrices_rejected_when_built(self, matrices, message):
        with pytest.raises(ValueError, match=message):
            self._algo(matrices)


    def test_simulate_does_not_recheck_unitarity(self, monkeypatch):
        algo = verifier_to_ndet(or2_verifier(), make_named("OR", 2))
        calls = []
        check = ScaledMatrix.is_unitary

        def spy(self):
            calls.append(self)
            return check(self)

        monkeypatch.setattr(ScaledMatrix, "is_unitary", spy)
        accfs = querysim.float_acceptances(algo)
        for x in range(4):
            assert (simulate(algo, x)[1] > 0) == (x != 0)
            assert (accfs[x] > 1e-9) == (x != 0)
        assert calls == []


class TestExactNumbers:
    @pytest.mark.parametrize("v", [0.6, np.float64(0.6), 0.6 + 0j],
                             ids=["float", "np.float64", "complex"])
    def test_inexact_matrix_entries_rejected(self, v):
        with pytest.raises(ValueError, match="exact rationals"):
            Unitary((0,), ScaledMatrix(((v, -0.8), (0.8, v)), None, 1))
        with pytest.raises(ValueError, match="exact rationals"):
            ScaledMatrix(((F(3, 5), 0), (0, F(3, 5))), ((0, v), (v, 0)), 1)

    @pytest.mark.parametrize("re, im, scale2", [
        ((0.6, 0.8), None, 1),
        ((F(3, 5), np.float64(0.8)), None, 1),
        ((1, 0), (0.0, 0), 1),
        ((1, 0), None, 1.0),
    ], ids=["float", "np.float64", "float-im", "float-scale"])
    def test_inexact_prep_rejected(self, re, im, scale2):
        with pytest.raises(ValueError, match="exact rationals"):
            StatePrep(re, im, scale2)

    def _prep_line(self, re):
        return ('{"gate":"PREP","qubits":[0],"data":{"n":1,"query_cost":0,'
                f'"output_qubit":0,"re":{re},"im":null,"scale2":"1"}}}}')

    def test_json_decimals_read_exactly(self):
        rotation = ('{"gate":"UNITARY","qubits":[0],"data":{"re":'
                    '[[0.6,-0.8],[0.8,0.6]],"im":null,"scale2":1}}')
        algo = circuit_from_lines([self._prep_line("[0.6, 0.8]"), rotation])
        assert algo.prep.re == (F(3, 5), F(4, 5))
        # R(theta) (cos theta, sin theta) = (cos 2 theta, sin 2 theta)
        assert simulate(algo, 0)[1] == F(24, 25) ** 2

    @pytest.mark.parametrize("re", ["[1e5, 0]", "[1E0, 0]", "[0.6e0, 0.8]"])
    def test_json_exponent_rejected(self, re):
        with pytest.raises(ValueError, match="exponent"):
            circuit_from_lines([self._prep_line(re)])


class TestCompiler:
    def test_not_one_n2_closed_form(self):
        f = make_named("NOT_ONE", 2)
        algo = compile_from_ndet_poly(weight_offset_poly(2, 1), f)
        _, acc = simulate(algo, 0)
        assert acc == F(1, 2)  # c^2 p(0)^2 / 2^n = 2 * 1 / 4
        for x in (1, 2):
            assert simulate(algo, x)[1] == 0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_not_one_normalizer(self, n):
        f = make_named("NOT_ONE", n)
        p = weight_offset_poly(n, 1)
        algo = compile_from_ndet_poly(p, f)
        assert algo.query_cost == 1
        c2 = F(1, 1) / (F(n * n, 4) - F(3 * n, 4) + 1)
        for x in range(1 << n):
            _, acc = simulate(algo, x)
            assert acc == c2 * p.evaluate(x) ** 2 / (1 << n)
            assert (acc > 0) == (f.value(x) == 1)

    def test_or_one_query(self):
        f = make_named("OR", 3)
        algo = compile_from_ndet_poly(weight_offset_poly(3), f)
        assert algo.query_cost == 1
        for x in range(8):
            assert (simulate(algo, x)[1] > 0) == (x != 0)

    def test_const1_zero_queries(self):
        f = make_named("CONST1", 3)
        algo = compile_from_ndet_poly(MultilinearPoly.constant(3, 1), f)
        assert algo.query_cost == 0
        for x in range(8):
            assert simulate(algo, x)[1] == F(1, 8)

    def test_fourier_input_accepted(self):
        f = make_named("OR", 2)
        pf = to_fourier(weight_offset_poly(2))
        algo = compile_from_ndet_poly(pf, f)
        assert simulate(algo, 0)[1] == 0

    def test_invalid_witness_rejected(self):
        with pytest.raises(InvalidWitness):
            compile_from_ndet_poly(weight_offset_poly(2),
                                   make_named("AND", 2))

    def test_compiler_correctness_with_engine_witnesses(self):
        rng = random.Random(21)
        for n in (3, 4):
            for _ in range(8):
                f = random_table(n, rng)
                if f.bits == 0:
                    continue
                d, cert = ndeg(f)
                algo = compile_from_ndet_poly(cert.witness, f)
                pf = to_fourier(cert.witness)
                c2 = F(1) / sum(c * c for c in pf.coeffs.values())
                for x in range(f.size):
                    _, acc = simulate(algo, x)
                    assert acc == c2 * pf.evaluate(x) ** 2 / f.size
                    assert (acc > 0) == (f.value(x) == 1)

    def test_float_mode_cross_check(self):
        f = make_named("NOT_ONE", 3)
        algo = compile_from_ndet_poly(weight_offset_poly(3, 1), f)
        accfs = querysim.float_acceptances(algo)
        for x in range(8):
            _, acc = simulate(algo, x)
            assert abs(accfs[x] - float(acc)) < 1e-9


class TestSymbolic:
    def test_zero_query_constant_amplitudes(self):
        sym = symbolic_simulate(hadamard_algo())
        assert _max_degree(sym) == 0

    def test_single_oracle_degree_one(self):
        algo = QueryAlgorithm(
            n=2, num_qubits=2, prep=basis_prep(2),
            gates=(Unitary((0,), HADAMARD), BitOracle((0,), 1)),
            query_cost=1, output_qubit=1)
        sym = symbolic_simulate(algo)
        assert _max_degree(sym) == 1
        # oracle update rule: amp'(i, b) = (1-x_i) amp(i, b) + x_i amp(i, b^1)
        mk = lambda cs: MultilinearPoly.make(2, MONOMIAL, cs)
        assert sym.amplitude(0b00) == mk({0: 1, 1: -1})   # (1 - x_1)
        assert sym.amplitude(0b10) == mk({1: 1})          # x_1
        assert sym.amplitude(0b01) == mk({0: 1, 2: -1})   # (1 - x_2)
        assert sym.amplitude(0b11) == mk({2: 1})          # x_2
        accs = sym.acceptance_polynomial().values()
        assert accs == [simulate(algo, x)[1] for x in range(4)]

    def test_compiled_or2_acceptance_polynomial(self):
        f = make_named("OR", 2)
        p = weight_offset_poly(2)
        algo = compile_from_ndet_poly(p, f)
        sym = symbolic_simulate(algo)
        pf = to_fourier(p)
        c2 = F(1) / sum(c * c for c in pf.coeffs.values())
        assert sym.acceptance_polynomial() == (p * p).scale(c2 / 4)

    def test_amplitude_degree_le_queries_random_circuits(self):
        # 200 seeded circuits, n <= 5, T <= 4: deg(amp) <= T, deg(P) <= 2T;
        # symbolic, exact and float simulation agree on every input
        rng = random.Random(2024)
        for _ in range(200):
            algo = _random_circuit(rng)
            t = algo.query_cost
            sym = symbolic_simulate(algo)
            assert _max_degree(sym) <= t
            assert sym.acceptance_polynomial().degree <= 2 * t
            accs = sym.acceptance_polynomial().values()
            accfs = querysim.float_acceptances(algo)
            for x, acc in enumerate(accs):
                assert acc == simulate(algo, x)[1]
                assert abs(accfs[x] - acc) < 1e-12

    def test_norm_at_every_input(self):
        # sum of squared amplitudes is the constant scale2 as a polynomial
        f = make_named("NOT_ONE", 3)
        algo = compile_from_ndet_poly(weight_offset_poly(3, 1), f)
        sym = symbolic_simulate(algo)
        norm2 = MultilinearPoly.make(3, MONOMIAL, {})
        for poly in sym.amplitudes.values():
            norm2 = norm2 + poly * poly
        assert norm2 == MultilinearPoly.constant(3, sym.scale2)

    def test_acceptance_polynomial_is_itself_a_witness(self):
        # the acceptance probability of a nondeterministic algorithm is a
        # nondeterministic polynomial of degree <= 2T
        rng = random.Random(37)
        for n in (2, 3, 4):
            f = random_table(n, rng)
            if f.bits == 0:
                continue
            d, cert = ndeg(f)
            algo = compile_from_ndet_poly(cert.witness, f)
            acc_poly = symbolic_simulate(algo).acceptance_polynomial()
            assert acc_poly.degree <= 2 * algo.query_cost
            assert verify_ndet(acc_poly, f)


class TestExtraction:
    def test_round_trip_or3(self):
        f = make_named("OR", 3)
        algo = compile_from_ndet_poly(weight_offset_poly(3), f)
        q = extract_ndet_poly(algo, f, seed=7)
        assert verify_ndet(q, f) and q.degree <= 1

    def test_round_trip_not_one4(self):
        f = make_named("NOT_ONE", 4)
        algo = compile_from_ndet_poly(weight_offset_poly(4, 1), f)
        q, retries = extract_ndet_poly_stats(algo, f, seed=8)
        assert verify_ndet(q, f) and q.degree <= 1
        assert ndeg(f)[0] == 1
        assert retries <= 5

    def test_retry_cap(self, monkeypatch):
        f = make_named("OR", 3)
        algo = compile_from_ndet_poly(weight_offset_poly(3), f)
        monkeypatch.setattr(querysim, "verify_ndet", lambda p, g: False)
        with pytest.raises(RetryCapExceeded):
            extract_ndet_poly_stats(algo, f, seed=7)

    def test_gate_degree_check_catches_extra_variable(self, monkeypatch):
        # x1 multiplied into the phase gate's output lifts an amplitude
        # such as x1 * (1 - 2 x2) above the running query count of 1
        or3 = compile_from_ndet_poly(weight_offset_poly(3),
                                     make_named("OR", 3))
        # a second query after the phase gate, so degree 2 fits the array
        two = QueryAlgorithm(n=3, num_qubits=3, prep=basis_prep(3, 0b010),
                             gates=(PhaseOracle((0, 1, 2), 1),
                                    BitOracle((0,), 2)),
                             query_cost=2, output_qubit=2)
        for algo in (or3, two):
            symbolic_simulate(algo)
        real = querysim._phase

        def phase_times_x1(coef, gate, num_qubits, masks):
            coef = real(coef, gate, num_qubits, masks)
            rows, x1c = querysim._times_var(coef, 0, masks)
            out = np.zeros_like(coef)
            out[rows] = x1c
            return out

        monkeypatch.setattr(querysim, "_phase", phase_times_x1)
        # query cost 1: the product leaves the array's monomials
        with pytest.raises(DegreeBoundViolation, match="query cost"):
            symbolic_simulate(or3)
        # query cost 2: the check after the phase gate sees degree 2 above
        # the running count of 1
        with pytest.raises(DegreeBoundViolation, match="query count"):
            symbolic_simulate(two)

    def test_extracted_degree_check(self, monkeypatch):
        # every amplitude times 1 + x1 x2, which is positive on all inputs:
        # the acceptance pattern and the witness check still pass, but the
        # extracted polynomial's degree exceeds the query cost of 1
        real = querysim.symbolic_simulate

        def padded(algo):
            sym = real(algo)
            masks = tuple(dict.fromkeys(
                sym.masks + tuple(m | 0b11 for m in sym.masks)))
            coef = np.zeros((len(masks), sym.coef.shape[1]), object)
            for row, m in zip(sym.coef, sym.masks):
                coef[masks.index(m)] += row
                coef[masks.index(m | 0b11)] += row
            return dataclasses.replace(sym, coef=coef, masks=masks)

        monkeypatch.setattr(querysim, "symbolic_simulate", padded)
        f = make_named("OR", 3)
        algo = compile_from_ndet_poly(weight_offset_poly(3), f)
        with pytest.raises(DegreeBoundViolation):
            extract_ndet_poly_stats(algo, f, seed=7)

    def test_input_gate_has_no_symbolic_form(self):
        f = make_named("OR", 2)
        algo = verifier_to_ndet(or2_verifier(), f)
        with pytest.raises(ValueError, match="no symbolic form"):
            extract_ndet_poly(algo, f, seed=3)

    def test_cell_cap_before_allocation(self):
        # 2^8 labels pass the dimension cap, but four queries at n = 40
        # need C(40, <=4) = 102,091 monomial rows: 26 M cells, 209 MB
        algo = QueryAlgorithm(
            n=40, num_qubits=8, prep=basis_prep(8),
            gates=(BitOracle(tuple(range(6)), 6),) * 4, query_cost=4,
            output_qubit=7)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="102091 x 2\\^8"):
                symbolic_simulate(algo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_not_nondeterministic(self):
        f = make_named("OR", 2)
        algo = compile_from_ndet_poly(weight_offset_poly(2), f)
        with pytest.raises(NotNondeterministic):
            extract_ndet_poly(algo, make_named("AND", 2), seed=3)

    def test_degree_never_exceeds_cost_random(self):
        rng = random.Random(31)
        for n in (2, 3, 4):
            for _ in range(6):
                f = random_table(n, rng)
                if f.bits == 0:
                    continue
                d, cert = ndeg(f)
                algo = compile_from_ndet_poly(cert.witness, f)
                q = extract_ndet_poly(algo, f, seed=rng.randrange(1 << 20))
                assert q.degree <= d and verify_ndet(q, f)



def _pinned_compiled():
    """(f, compiled algorithm): NOT_ONE at n = 3-9 from |x| - 1, and the
    ndeg witnesses of 20 seeded random tables with n = 3-6."""
    out = []
    for n in range(3, 10):
        f = make_named("NOT_ONE", n)
        out.append((f, compile_from_ndet_poly(weight_offset_poly(n, 1), f)))
    rng = random.Random(53)
    for i in range(20):
        f = random_table(3 + i % 4, rng)
        if f.bits:
            out.append((f, compile_from_ndet_poly(ndeg(f)[1].witness, f)))
    return out


def _symbolic_record(algo):
    sym = symbolic_simulate(algo)
    return ([(label, format_poly(a)) for label, a
             in sorted(sym.amplitudes.items())],
            str(sym.scale2), format_poly(sym.acceptance_polynomial()))


# sha256 pins recorded before polynomials moved to integer numerators over
# one denominator: every symbolic amplitude, scale and acceptance
# polynomial, every extraction, and every compiled circuit file.  The
# "symbolic", "extract" and "circuit" pins read the ndeg witnesses of
# `_pinned_compiled`, and were re-recorded when the witness became one
# kernel vector of the reduced system.
@pytest.mark.parametrize("which,digest", [
    ("symbolic", "221498bc7b2b2005feb6d2efe0a865cf"
                "c7b278cd4a187166f5bf6687feb2858d"),
    ("symbolic random circuits", "21142f0f030a6235a2d9584c245d9aae"
                                "572dfe41d5bfb39aafd3c0108ceaaed3"),
    ("extract", "022dc893ef9fd217faa58188396f9fda"
               "246c07af3472c07b93e6cc72134fa701"),
    ("circuit", "c2ee65efb900adc106e8f93126226777"
                "ced0178bbb533cd11f5f55548469687d")])
def test_outputs_pinned_across_integer_numerators(which, digest):
    h = hashlib.sha256()
    if which == "symbolic random circuits":
        rng = random.Random(2024)
        records = [_symbolic_record(_random_circuit(rng)) for _ in range(200)]
    else:
        compiled = _pinned_compiled()
        if which == "symbolic":
            records = [_symbolic_record(algo) for _, algo in compiled]
        elif which == "extract":
            records = [(format_poly(p), retries) for p, retries in
                       (extract_ndet_poly_stats(algo, f, 1)
                        for f, algo in compiled)]
        else:
            records = [circuit_to_lines(algo) for _, algo in compiled]
    for rec in records:
        h.update(repr(rec).encode())
    assert h.hexdigest() == digest


from helpers import (or2_verifier, perm_matrix,  # noqa: E402  (fixtures)
                     symbolic_reference)


def _half_ones(n, rng):
    return TruthTable(n, sum(1 << x for x in
                             rng.sample(range(1 << n), 1 << (n - 1))))


# sha256 of str(extract_ndet_poly(algo, f, 1)) for the compiled ndeg
# witness (seed 1) of each table, recorded before symbolic simulation moved
# to one integer coefficient array
@pytest.mark.parametrize("table, digest", [
    ("NOT_ONE n=9", "e3110ab8a4fe8f84c76550b8fe12f4f2"
                    "7cd6f48f11088bf9cbee6ea7784e15ba"),
    ("random n=5", "a03f7e2eea9952f9d41679d381bd0bbd"
                   "d7983ff44056955d3da172dc7ffd33c2"),
    ("random n=6", "bc0d1f1e9a1d1880dae176356412ca10"
                   "839c1044b4d17661dfeef3a6e301a75c"),
    ("half-ones n=8", "573cf9765569ea22989133a0eac33f57"
                      "73ef57e4a78961806f7160cdd381a276")])
def test_extracted_polynomials_pinned(table, digest):
    f = {"NOT_ONE n=9": lambda: make_named("NOT_ONE", 9),
         "random n=5": lambda: random_table(5, random.Random(5)),
         "random n=6": lambda: random_table(6, random.Random(6)),
         "half-ones n=8": lambda: _half_ones(8, random.Random(8))}[table]()
    algo = compile_from_ndet_poly(ndeg(f, seed=1)[1].witness, f)
    p = extract_ndet_poly(algo, f, seed=1)
    assert hashlib.sha256(str(p).encode()).hexdigest() == digest


def _matches_reference(algo):
    """symbolic_simulate's amplitudes and scale equal the label-by-label
    reference's; its array holds integers, never floats."""
    sym = symbolic_simulate(algo)
    amps, scale2 = symbolic_reference(algo)
    assert sym.coef.dtype in (np.int64, object)
    assert sym.amplitudes == amps and sym.scale2 == scale2
    return sym


def _spy_fit(monkeypatch):
    """[(largest magnitude times growth, dtype in, dtype out)] of every
    int64 bound check of symbolic_simulate."""
    calls = []
    real = querysim._fit

    def spy(coef, growth):
        out = real(coef, growth)
        calls.append((int(np.abs(coef).max()) * growth, coef.dtype,
                      out.dtype))
        return out

    monkeypatch.setattr(querysim, "_fit", spy)
    return calls


class TestSymbolicMatchesReference:
    def test_random_circuits(self):
        rng = random.Random(2024)
        for _ in range(200):
            _matches_reference(_random_circuit(rng))

    def test_compiled_witnesses_every_table_n_le_3(self):
        for n in (1, 2, 3):
            for bits in range(1, 1 << (1 << n)):
                f = TruthTable(n, bits)
                _matches_reference(
                    compile_from_ndet_poly(ndeg(f)[1].witness, f))

    def test_compiled_witnesses_seeded_n4_to_8(self):
        rng = random.Random(32)
        for n in range(4, 9):
            for f in (random_table(n, rng), _half_ones(n, rng)):
                _matches_reference(
                    compile_from_ndet_poly(ndeg(f)[1].witness, f))

    @pytest.mark.parametrize("family, k", [("OR", 0), ("NOT_ONE", 1)])
    def test_families_n_le_10(self, family, k):
        for n in range(1, 11):
            f = make_named(family, n)
            sym = _matches_reference(
                compile_from_ndet_poly(weight_offset_poly(n, k), f))
            assert sym.coef.dtype == np.int64

    def test_python_int_hand_off_anywhere(self, monkeypatch):
        # with the bound set to the check value of step j (above every
        # earlier one), steps before j run in int64 and j hands off
        calls = _spy_fit(monkeypatch)
        rng = random.Random(2024)
        algos = [_random_circuit(rng) for _ in range(40)]
        f = random_table(6, random.Random(6))
        algos.append(compile_from_ndet_poly(ndeg(f)[1].witness, f))
        where = set()
        for algo in algos:
            monkeypatch.setattr(querysim, "_INT64_SAFE", linalg._INT64_SAFE)
            calls.clear()
            symbolic_simulate(algo)
            needs = [need for need, _, _ in calls]
            records = [j for j, v in enumerate(needs)
                       if all(v > u for u in needs[:j])]
            for j in {records[0], records[len(records) // 2], records[-1]}:
                monkeypatch.setattr(querysim, "_INT64_SAFE", needs[j])
                calls.clear()
                assert _matches_reference(algo).coef.dtype == object
                dtypes = [(a, b) for _, a, b in calls]
                assert dtypes[:j] == [(np.int64, np.int64)] * j
                assert dtypes[j] == (np.int64, object)
                assert all(d == (object, object) for d in dtypes[j + 1:])
                where.add("last" if j == len(needs) - 1 else
                          "first" if j == 0 else "middle")
        assert where == {"first", "middle", "last"}

    def test_python_ints_from_the_start(self, monkeypatch):
        monkeypatch.setattr(querysim, "_INT64_SAFE", 1)
        f = make_named("NOT_ONE", 5)
        sym = _matches_reference(
            compile_from_ndet_poly(weight_offset_poly(5, 1), f))
        assert sym.coef.dtype == object


class TestZeroFunction:
    def test_extraction_rejects_before_simulating(self, monkeypatch):
        # this algorithm never accepts, which the zero function would pass
        algo = QueryAlgorithm(n=2, num_qubits=1, prep=basis_prep(1),
                              gates=(), query_cost=0, output_qubit=0)
        monkeypatch.setattr(querysim, "symbolic_simulate",
                            lambda algo: pytest.fail("simulated"))
        with pytest.raises(IdenticallyZero):
            extract_ndet_poly_stats(algo, TruthTable(2, 0), 1)

    def test_compile_rejects(self):
        with pytest.raises(IdenticallyZero):
            compile_from_ndet_poly(MultilinearPoly.make(2, MONOMIAL, {}),
                                   TruthTable(2, 0))


class TestVerifierTransform:
    def test_or2_acceptances(self):
        f = make_named("OR", 2)
        algo = verifier_to_ndet(or2_verifier(), f)
        assert algo.query_cost == 1
        assert simulate(algo, 0)[1] == 0
        for x in (1, 2, 3):
            assert simulate(algo, x)[1] >= F(1, 3)
        assert simulate(algo, 3)[1] == 1

    def test_empty_one_set(self):
        with pytest.raises(EmptyOneSet):
            verifier_to_ndet(or2_verifier(), make_named("CONST0", 2))

    def test_clause_violation_detected(self):
        v = or2_verifier()
        # choose the wrong certificate for input 01: rejected -> violation
        bad = VerifierSpec(n=2, m=2, query_cost=1, unitaries=v.unitaries,
                           certificates=v.certificates,
                           chosen={0b01: 1, 0b10: 1, 0b11: 0})
        with pytest.raises(VerifierClauseViolation):
            verifier_to_ndet(bad, make_named("OR", 2))

    def test_zero_input_leak_detected(self):
        v = or2_verifier()
        bad_unitaries = dict(v.unitaries)
        # on 00, send certificate |01> to an accepting label
        bad_unitaries[0b00] = scaled_real(
            ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))
        bad = VerifierSpec(n=2, m=2, query_cost=1, unitaries=bad_unitaries,
                           certificates=v.certificates, chosen=v.chosen)
        with pytest.raises(VerifierClauseViolation):
            verifier_to_ndet(bad, make_named("OR", 2))


def _duplicate_label_0(real):
    # every label reads label 0's amplitude: the norm grows to the dimension
    return lambda st, perm=None, neg=None: real(st, np.zeros_like(perm), neg)


def _flip_algo():
    return QueryAlgorithm(n=1, num_qubits=2, prep=basis_prep(2),
                          gates=(FlipOnZero((0,), 1),), query_cost=0,
                          output_qubit=1)


def _scale_row_of(real, target):
    # in a float block, the row of input target leaves unit norm by 2e-9
    def fault(state, algo, gate, x):
        state = real(state, algo, gate, x)
        if not isinstance(x, int) and target in x:
            state[x.index(target)] *= 1 + 1e-9
        return state
    return fault


def _support_algo():
    # input 3 alone moves |000> to |111>, above the phase gate's bound 1
    swap07 = [7, 1, 2, 3, 4, 5, 6, 0]
    mats = {x: perm_matrix(swap07 if x == 3 else range(8)) for x in range(8)}
    return QueryAlgorithm(n=3, num_qubits=3, prep=basis_prep(3),
                          gates=(InputGate((0, 1, 2), mats, 1),
                                 PhaseOracle((0, 1, 2), 1)),
                          query_cost=2, output_qubit=2)


def _not_one_algo(n):
    return compile_from_ndet_poly(weight_offset_poly(n, 1),
                                  make_named("NOT_ONE", n))


def _row_faults(set_attr):
    """Break input 3 alone, the second row of the second block of two
    rows: its phase support, then its norm.  Returns the checks that
    fired."""
    fired = []
    support = _support_algo()
    set_attr(querysim, "_FLOAT_BLOCK", 2 << support.num_qubits)
    try:
        querysim.float_acceptances(support)
    except ValueError as e:
        fired += ["support"] if "support above" in str(e) else []
    drift = _not_one_algo(3)
    set_attr(querysim, "_FLOAT_BLOCK", 2 << drift.num_qubits)
    set_attr(querysim, "_apply_gate", _scale_row_of(querysim._apply_gate, 3))
    try:
        querysim.float_acceptances(drift)
    except NormNotPreserved:
        fired.append("norm")
    return fired


_FAULT_UNDER_O = """
from ndqc import linalg, querysim, statevec
from test_querysim import _duplicate_label_0, _flip_algo, _row_faults
real = statevec.apply_label_map
statevec.apply_label_map = _duplicate_label_0(real)
try:
    querysim.simulate(_flip_algo(), 0)
except querysim.NormNotPreserved:
    print("caught")
statevec.apply_label_map = real
print(*_row_faults(setattr))
"""


def test_norm_check_catches_duplicated_label(monkeypatch):
    # FlipOnZero reads no input, so statevec.apply_gate applies it
    monkeypatch.setattr(statevec, "apply_label_map",
                        _duplicate_label_0(statevec.apply_label_map))
    with pytest.raises(NormNotPreserved):
        simulate(_flip_algo(), 0)
    # the same fault under python -O, which strips assert statements
    path = os.pathsep.join([str(Path(ndqc.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    proc = subprocess.run([sys.executable, "-O", "-c", _FAULT_UNDER_O],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout == "caught\nsupport norm\n", proc.stderr


def test_row_checks_fire_on_one_row_of_a_later_block(monkeypatch):
    # without the faults, every other input of both algorithms runs clean;
    # the support algorithm's input 3 raises wherever its block falls
    list(querysim._float_blocks(_support_algo(), [0, 1, 2, 4, 5, 6, 7]))
    with pytest.raises(ValueError, match="support above"):
        querysim.float_acceptances(_support_algo())
    querysim.float_acceptances(_not_one_algo(3))
    assert _row_faults(monkeypatch.setattr) == ["support", "norm"]


class TestFloatBlocks:
    """Float acceptance from blocks of inputs equals exact simulation on
    every input.  Three rows a block: 2^n is never a multiple of 3, so each
    run with n >= 2 spans several blocks and ends in a partial one, and a
    row mix-up in an input-reading gate moves some input's acceptance."""

    @staticmethod
    def _agrees(algo, monkeypatch):
        monkeypatch.setattr(querysim, "_FLOAT_BLOCK", 3 << algo.num_qubits)
        accs = querysim.float_acceptances(algo)
        assert accs.shape == (1 << algo.n,)
        for x, acc in enumerate(accs):
            assert abs(acc - float(simulate(algo, x)[1])) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("name", ["NOT_ONE", "OR"])
    def test_compiled(self, name, n, monkeypatch):
        f = make_named(name, n)
        p = weight_offset_poly(n, 1 if name == "NOT_ONE" else 0)
        self._agrees(compile_from_ndet_poly(p, f), monkeypatch)

    def test_seeded_oracle_circuits(self, monkeypatch):
        rng = random.Random(2024)
        for _ in range(200):
            self._agrees(_random_circuit(rng), monkeypatch)

    def test_input_gates(self, monkeypatch):
        self._agrees(verifier_to_ndet(or2_verifier(), make_named("OR", 2)),
                     monkeypatch)
        # a rotation per input with eight distinct acceptances (b/c)^2
        triples = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
                   (20, 21, 29), (12, 35, 37), (9, 40, 41), (28, 45, 53)]
        mats = {x: scaled_real(((a, -b), (b, a)), c * c)
                for x, (a, b, c) in enumerate(triples)}
        algo = QueryAlgorithm(n=3, num_qubits=2, prep=basis_prep(2),
                              gates=(Unitary((1,), HADAMARD),
                                     InputGate((0,), mats, 1)),
                              query_cost=1, output_qubit=0)
        self._agrees(algo, monkeypatch)


class TestCircuitFile:
    def test_round_trip_compiled(self):
        f = make_named("NOT_ONE", 2)
        algo = compile_from_ndet_poly(weight_offset_poly(2, 1), f)
        algo2 = circuit_from_lines(circuit_to_lines(algo))
        for x in range(4):
            assert simulate(algo, x)[1] == simulate(algo2, x)[1]

    def test_round_trip_oracle_circuit(self):
        algo = QueryAlgorithm(
            n=2, num_qubits=2, prep=basis_prep(2),
            gates=(Unitary((0,), HADAMARD), BitOracle((0,), 1)),
            query_cost=1, output_qubit=1)
        algo2 = circuit_from_lines(circuit_to_lines(algo))
        assert algo2.query_cost == 1
        for x in range(4):
            assert simulate(algo, x)[1] == simulate(algo2, x)[1]

    @pytest.mark.parametrize("lines", [
        [],
        ['{"gate":"PREP"}'],
        ['{"gate":"PREP","data":{}}'],
        ['[1]'],
        ['{"gate":"PREP","qubits":[0],"data":{"n":1,"query_cost":0,'
         '"output_qubit":0,"re":["1","0"],"im":null,"scale2":"1"}}',
         '{"gate":"ORACLE","qubits":[0]}'],
        # a phase register of 2 qubits on n = 1 variable
        ['{"gate":"PREP","qubits":[0,1],"data":{"n":1,"query_cost":2,'
         '"output_qubit":1,"re":["1","0","0","0"],"im":null,"scale2":"1"}}',
         '{"gate":"PHASE_F","qubits":[0,1],"data":{"degree_bound":2}}'],
        ['{"gate":"PREP","qubits":[0],"data":{"n":1,"query_cost":0,'
         '"output_qubit":0,"re":["1","0"],"im":null,"scale2":"1/0"}}'],
        ['{"gate":"PREP","qubits":[0],"data":{"n":1,"query_cost":0,'
         '"output_qubit":0,"re":["1","0"],"im":null,"scale2":Infinity}}'],
        ['{"gate":"PREP","qubits":[0],"data":{"n":1,"query_cost":0,'
         '"output_qubit":0,"re":["1e999999999","0"],"im":null,'
         '"scale2":"1"}}'],
    ])
    def test_malformed_input_raises_value_error(self, lines):
        with pytest.raises(ValueError):
            circuit_from_lines(lines)

    # (record, key path) of every integer field, on a circuit holding one
    # gate of each serialized kind
    INTEGER_FIELDS = [(0, ("data", "n")), (0, ("data", "query_cost")),
                      (0, ("data", "output_qubit")), (0, ("qubits", 0)),
                      (1, ("qubits", 0)), (2, ("data", "target")),
                      (2, ("data", "index_qubits", 0)),
                      (3, ("data", "flip_on_zero", "target")),
                      (3, ("data", "flip_on_zero", "controls", 0)),
                      (4, ("data", "degree_bound")), (4, ("qubits", 1))]

    @pytest.mark.parametrize("record, path", INTEGER_FIELDS,
                             ids=lambda v: "-".join(map(str, v))
                             if isinstance(v, tuple) else str(v))
    @pytest.mark.parametrize("spell", [str, float, bool])
    def test_integer_fields_type_checked(self, record, path, spell):
        algo = QueryAlgorithm(n=2, num_qubits=3, prep=basis_prep(3),
                              gates=(Unitary((0,), HADAMARD),
                                     BitOracle((0,), 2), FlipOnZero((0,), 1),
                                     PhaseOracle((0, 1), 2)),
                              query_cost=3, output_qubit=1)
        records = [json.loads(line) for line in circuit_to_lines(algo)]
        assert circuit_from_lines(map(json.dumps, records)) == algo
        *keys, last = path
        owner = records[record]
        for key in keys:
            owner = owner[key]
        # the same value as a string, a float or a JSON boolean
        owner[last] = spell(owner[last])
        with pytest.raises(ValueError, match="expected an integer"):
            circuit_from_lines(map(json.dumps, records))

    @pytest.mark.parametrize("qubits", [1, "01", None, {"0": 0}])
    def test_qubit_lists_type_checked(self, qubits):
        line = ('{"gate":"PREP","qubits":%s,"data":{"n":1,"query_cost":0,'
                '"output_qubit":0,"re":["1","0"],"im":null,"scale2":"1"}}')
        assert circuit_from_lines([line % "[0]"]).num_qubits == 1
        with pytest.raises(ValueError, match="expected a list of qubits"):
            circuit_from_lines([line % json.dumps(qubits)])

    def test_input_gate_not_serializable(self):
        algo = verifier_to_ndet(or2_verifier(), make_named("OR", 2))
        with pytest.raises(ValueError, match="serialized"):
            circuit_to_lines(algo)


def test_circuit_prep_parts_of_different_lengths_rejected():
    # an im part shorter than re used to build, and the exact and float
    # simulations then disagreed on it
    line = ('{"gate":"PREP","qubits":[0],"data":{"n":1,"query_cost":0,'
            '"output_qubit":0,"re":["0","0"],"im":["1"],"scale2":"1"}}')
    with pytest.raises(ValueError, match="differ in length"):
        circuit_from_lines([line])

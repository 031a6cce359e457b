"""The exact gates against plain references: the dense-gate kernel
against a dense Fraction matrix-vector product, the projector gates against
list loops, and the label maps against direct label arithmetic."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from ndqc.querysim import StatePrep
from ndqc.statevec import (ExactState, FlipOnProjector, FlipOnZero,
                           PrepState, ScaledMatrix, Swap, Unitary, apply_gate)

from helpers import dense_gate_reference, projector_gate_reference

F = Fraction

# one-qubit exact unitaries: (rows of (re, im) pairs, scale2)
_REAL_BLOCKS = tuple(([[(v, 0) for v in row] for row in rows], scale2)
                     for rows, scale2 in (
    (((1, 1), (1, -1)), 2),                                  # Hadamard
    (((0, 1), (1, 0)), 1),                                   # X
    (((F(3, 5), F(-4, 5)), (F(4, 5), F(3, 5))), 1),          # rotation
    (((F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2))), F(1, 2)),    # H / 2
))
_COMPLEX_BLOCKS = (
    ([[(1, 0), (0, 0)], [(0, 0), (0, 1)]], 1),               # S
    ([[(3, 0), (0, 4)], [(0, 4), (3, 0)]], 25),              # 3 I + 4i X
)


def _mul(a, b):
    k = len(b)
    return [[(sum(a[r][t][0] * b[t][c][0] - a[r][t][1] * b[t][c][1]
                  for t in range(k)),
              sum(a[r][t][0] * b[t][c][1] + a[r][t][1] * b[t][c][0]
                  for t in range(k)))
             for c in range(len(b[0]))] for r in range(len(a))]


def _kron(a, b):
    return [[(x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
             for x in ra for y in rb] for ra in a for rb in b]


def _phased_permutation(rng, dim, complex_gate):
    phases = ((1, 0), (-1, 0), (0, 1), (0, -1))[:4 if complex_gate else 2]
    perm = rng.sample(range(dim), dim)
    return [[rng.choice(phases) if perm[c] == r else (0, 0)
             for c in range(dim)] for r in range(dim)]


def _tensor(blocks, k):
    mat, scale2 = [[(1, 0)]], 1
    for _ in range(k):
        block, s = next(blocks)
        mat, scale2 = _kron(mat, block), scale2 * s
    return mat, scale2


def _random_gate(rng, blocks, k, complex_gate, form):
    """A k-qubit exact unitary: a phased permutation ("sparse", one nonzero
    entry a row), a tensor product of one-qubit blocks times one
    ("tensor"), or tensor * permutation * tensor ("dense")."""
    mat = _phased_permutation(rng, 1 << k, complex_gate)
    scale2 = 1
    if form in ("tensor", "dense"):
        left, s = _tensor(blocks, k)
        mat, scale2 = _mul(left, mat), scale2 * s
    if form == "dense":
        right, s = _tensor(blocks, k)
        mat, scale2 = _mul(mat, right), scale2 * s
    re = tuple(tuple(v for v, _ in row) for row in mat)
    im = tuple(tuple(v for _, v in row) for row in mat)
    return ScaledMatrix(re, im if complex_gate else None, scale2)


def _random_state(rng, num_qubits, complex_state):
    def amps():
        return [rng.choice((0, rng.randint(-9, 9),
                            F(rng.randint(-9, 9), rng.randint(1, 7))))
                for _ in range(1 << num_qubits)]
    return ExactState(amps(), amps() if complex_state else None,
                      rng.randint(1, 50))


def _exact_types(values):
    return {type(v) for v in values} <= {int, Fraction}


@pytest.mark.parametrize("qubits", [(0,), (3,), (1, 0), (0, 3), (3, 1),
                                    (0, 2, 4), (4, 1, 2), (2, 1, 0)],
                         ids=str)
@pytest.mark.parametrize("complex_gate", [False, True],
                         ids=["real-gate", "complex-gate"])
@pytest.mark.parametrize("complex_state", [False, True],
                         ids=["real-state", "complex-state"])
def test_dense_gate_matches_reference(qubits, complex_gate, complex_state):
    rng = random.Random(f"{qubits} {complex_gate} {complex_state}")
    # every block comes up before any repeats
    pool = _REAL_BLOCKS + (_COMPLEX_BLOCKS if complex_gate else ())
    blocks = itertools.cycle(rng.sample(pool, len(pool)))
    num_qubits = 5
    seen = set()
    for form in ("sparse", "tensor", "dense") * 3:
        gate = _random_gate(rng, blocks, len(qubits), complex_gate, form)
        state = _random_state(rng, num_qubits, complex_state)
        want = dense_gate_reference(state, num_qubits, qubits, gate)
        out = apply_gate(state, num_qubits, Unitary(qubits, gate))
        assert (out.re, out.im, out.scale2) == want
        assert _exact_types(out.re) and _exact_types(out.im or ())
        entries = [v for part in (gate.re, gate.im or ()) for row in part
                   for v in row]
        seen |= {"zero" for v in entries if v == 0}
        seen |= {"fraction" for v in entries if type(v) is Fraction}
    # the gates held zero entries and Fraction entries
    assert seen == {"zero", "fraction"}


def _exact_parts(state):
    """re and im are lists of ints and Fractions (im None when real)."""
    return (type(state.re) is list
            and (state.im is None or type(state.im) is list)
            and _exact_types(state.re) and _exact_types(state.im or ()))


def _random_vec(rng, register):
    vec = [0]
    while not any(vec):
        vec = [rng.randint(-4, 4)
               for _ in range(rng.randint(1, 1 << len(register)))]
    return vec


@pytest.mark.parametrize("register", [(0, 1), (1, 0), (0, 3), (3, 1),
                                      (4, 2, 0), (2,)], ids=str)
def test_prep_state_matches_reference(register):
    rng = random.Random(f"prep {register}")
    num_qubits = 5
    mask = sum(1 << q for q in register)
    for _ in range(12):
        state = _random_state(rng, num_qubits, False)
        # the register must read |0>
        state = ExactState([0 if i & mask else a
                            for i, a in enumerate(state.re)], None,
                           F(rng.randint(1, 50), rng.randint(1, 7)))
        gate = PrepState(register, _random_vec(rng, register))
        want = projector_gate_reference(state, num_qubits, gate)
        out = apply_gate(state, num_qubits, gate)
        assert (out.re, out.im, out.scale2) == (want[0], None, want[1])
        assert _exact_parts(out)


@pytest.mark.parametrize("target, register", [
    (0, (1, 3)), (2, (1, 3)), (4, (1, 3)),      # below, between, above
    (0, (3, 1)), (2, (3, 1)), (4, (3, 1)),      # the register reversed
    (3, (0, 1)), (0, (2, 1)), (2, (0, 1, 4)), (1, (4,))], ids=str)
def test_flip_on_projector_matches_reference(target, register):
    rng = random.Random(f"flip {target} {register}")
    num_qubits = 5
    for _ in range(12):
        state = _random_state(rng, num_qubits, False)
        state.scale2 = F(rng.randint(1, 50), rng.randint(1, 7))
        gate = FlipOnProjector(target, register, _random_vec(rng, register))
        want = projector_gate_reference(state, num_qubits, gate)
        out = apply_gate(state, num_qubits, gate)
        assert (out.re, out.im, out.scale2) == (want[0], None, want[1])
        assert _exact_parts(out)


def _swap_label(i, a, b):
    return i ^ ((1 << a) | (1 << b)) if (i >> a ^ i >> b) & 1 else i


@pytest.mark.parametrize("gate", [Swap(0, 3), Swap(4, 1), FlipOnZero((), 2),
                                  FlipOnZero((0, 4), 2), FlipOnZero((3,), 0)],
                         ids=repr)
@pytest.mark.parametrize("complex_state", [False, True],
                         ids=["real-state", "complex-state"])
def test_label_maps_match_reference(gate, complex_state):
    rng = random.Random(f"{gate!r} {complex_state}")
    num_qubits = 5
    for _ in range(6):
        state = _random_state(rng, num_qubits, complex_state)
        if isinstance(gate, Swap):
            src = [_swap_label(i, gate.a, gate.b) for i in range(32)]
        else:
            src = [i ^ 1 << gate.target
                   if not any(i >> c & 1 for c in gate.controls) else i
                   for i in range(32)]
        want = tuple(None if part is None else [part[j] for j in src]
                     for part in (state.re, state.im))
        scale2 = state.scale2
        out = apply_gate(state, num_qubits, gate)
        assert (out.re, out.im, out.scale2) == want + (scale2,)
        assert _exact_parts(out)


def test_numpy_integers_stored_as_python_ints():
    # a^2 + b^2 is beyond int64: kept as numpy integers, the exact checks
    # would wrap
    a, b = np.int64(9 * 10 ** 9), np.int64(12 * 10 ** 9)
    scale2 = int(a) ** 2 + int(b) ** 2
    mat = ScaledMatrix(((a, -b), (b, a)), ((0, F(a, 7)), (F(b), 0)), scale2)
    assert ScaledMatrix(((a, -b), (b, a)), None, scale2).is_unitary()
    prep = StatePrep((a, b), None, scale2)
    # Fractions of numpy integers become Fractions of ints
    prep_c = StatePrep((np.int64(3), 0), (0, F(np.int64(4))),
                       F(np.int64(25)))
    stored = [v for part in (mat.re, mat.im) for row in part for v in row]
    stored += [*prep.re, *prep_c.re, *prep_c.im, prep.scale2, prep_c.scale2,
               mat.scale2]
    assert {type(v) for v in stored} == {int, F}
    assert all(type(v.numerator) is int and type(v.denominator) is int
               for v in stored)


def test_prep_parts_of_different_lengths_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        StatePrep((0, 0), (1,), 1)

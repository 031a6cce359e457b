"""The dense-gate kernel on exact states, against a plain dense Fraction
matrix-vector product."""

import itertools
import random
from fractions import Fraction

import pytest

from ndqc.statevec import ExactState, ScaledMatrix, Unitary, apply_gate

from helpers import dense_gate_reference

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

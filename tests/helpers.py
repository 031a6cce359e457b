"""Shared fixtures for the test suite."""

from fractions import Fraction

from ndqc.querysim import VerifierSpec, basis_prep
from ndqc.statevec import scaled_real


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

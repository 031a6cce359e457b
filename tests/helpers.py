"""Shared fixtures for the test suite."""

from fractions import Fraction

from ndqc import linalg
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

    def spy_echelon(rows, ncols, start=None):
        if start is None:
            paths["bareiss"] += 1
        else:
            paths["handoff"].append(start[0])
        return echelon(rows, ncols, start)

    def spy_back(ech, pivots, ncols):
        out = back(ech, pivots, ncols)
        paths["trip"] += out is None
        return out

    monkeypatch.setattr(linalg, "_echelon_int64", spy_kernel)
    monkeypatch.setattr(linalg, "_echelon_ff", spy_echelon)
    monkeypatch.setattr(linalg, "_back_substitute_int64", spy_back)
    return paths


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

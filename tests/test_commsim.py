import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ndqc import commsim
from ndqc.boolfn import CapExceeded, make_named
from ndqc.linalg import int_rank, rows_to_int
from ndqc.polys import (MONOMIAL, MultilinearPoly, RetryCapExceeded,
                        weight_offset_poly)
from ndqc.statevec import (ExactState, FlipOnProjector, PrepState,
                           ScaledMatrix, Swap, Unitary, apply_gate)
from ndqc.commsim import (PAIR_FAMILIES, HypothesisViolated, NondetMatrix,
                          PairTable, PatternMismatch,
                          ProtocolSpec,
                          RankBoundViolation, Rectangle,
                          Round, ZeroRow, closed_one_rectangles, cover_number,
                          fooling_set_check, full_rank_check,
                          intersect_complement_fooling_set, final_state_families,
                          make_pair_function, matrix_from_csv_lines,
                          matrix_from_poly, matrix_from_vector_families,
                          matrix_to_csv_lines, ncc_from_cover, ne_matrix,
                          ne_protocol, ne_protocol_spec, nrank_lower_bound,
                          protocol_summary_from_lines, protocol_to_lines,
                          run_protocol, svd_acceptance_sweep, svd_protocol,
                          svd_protocol_cost)

from helpers import sin2_table

F = Fraction


def identity_matrix(n):
    f = make_pair_function("EQ", n)
    size = 1 << n
    return NondetMatrix(n, [[1 if x == y else 0 for y in range(size)]
                            for x in range(size)], f)


def reference_acceptance(m):
    """c_x^2 d_y^2 M_xy^2 from a plain Fraction reduced echelon form R of M,
    with c_x = 1/|row x of M at R's pivot columns| and d_y = 1/|column y
    of R| (0 on a zero column); returns (rank, acceptance matrix)."""
    size = len(m.entries)
    rows = [[F(v) for v in row] for row in m.entries]
    pivots = []
    for c in range(size):
        k = len(pivots)
        p = next((i for i in range(k, size) if rows[i][c]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [v / rows[k][c] for v in rows[k]]
        for i in range(size):
            if i != k and rows[i][c]:
                t = rows[i][c]
                rows[i] = [a - t * b for a, b in zip(rows[i], rows[k])]
        pivots.append(c)
    c2 = [sum(F(row[p]) ** 2 for p in pivots) for row in m.entries]
    d2 = [sum(rows[i][y] ** 2 for i in range(len(pivots)))
          for y in range(size)]
    return len(pivots), [[F(m.entries[x][y]) ** 2 / (c2[x] * d2[y])
                          if d2[y] else F(0) for y in range(size)]
                         for x in range(size)]


class TestPairFunctions:
    def test_eq1_identity(self):
        f = make_pair_function("EQ", 1)
        assert [[f.value(x, y) for y in range(2)] for x in range(2)] == \
            [[1, 0], [0, 1]]

    def test_disj1(self):
        f = make_pair_function("DISJ", 1)
        assert f.value(0, 0) and f.value(0, 1) and f.value(1, 0)
        assert not f.value(1, 1)

    def test_intersect_not_one(self):
        f = make_pair_function("INTERSECT_NOT_ONE", 2)
        for x in range(4):
            for y in range(4):
                assert f.value(x, y) == int((x & y).bit_count() != 1)

    def test_ne_is_eq_complement(self):
        assert make_pair_function("NE", 2) == \
            make_pair_function("EQ", 2).complement()


class TestNondetMatrix:
    def test_pattern_enforced(self):
        f = make_pair_function("EQ", 1)
        with pytest.raises(PatternMismatch):
            NondetMatrix(1, [[1, 1], [0, 1]], f)

    @pytest.mark.parametrize("entry", [0.5, 1.0, 1 + 0j, np.float64(1.0)],
                             ids=["float", "integral-float", "complex",
                                  "np.float64"])
    def test_inexact_entries_rejected(self, entry):
        f = PairTable(1, (3, 3))
        with pytest.raises(ValueError, match="exact rationals"):
            NondetMatrix(1, [[1, 2], [3, entry]], f)

    def test_entries_stored_canonically(self):
        # one exact form: int when integral, else a reduced Fraction
        f = PairTable(1, (3, 3))
        m = NondetMatrix(1, [[F(4, 2), np.int64(-3)], [True, F(2, 6)]], f)
        assert m.entries == ((2, -3), (1, F(1, 3)))
        assert [type(v) for row in m.entries for v in row] == \
            [int, int, int, F]

    def test_rank_with_zero_row_is_int_rank(self):
        # the rank reads the cached factors; only c_x needs a nonzero row
        rng = random.Random(41)
        for n in (1, 2, 3):
            size = 1 << n
            for _ in range(5):
                entries = [[rng.choice([0, 1, -2, F(1, 3)])
                            for _ in range(size)] for _ in range(size)]
                entries[rng.randrange(size)] = [0] * size
                f = PairTable(n, tuple(sum(1 << y for y, v in enumerate(row)
                                           if v) for row in entries))
                m = NondetMatrix(n, entries, f)
                assert m.rank() == int_rank(rows_to_int(m.entries), size)
                with pytest.raises(ZeroRow):
                    svd_protocol(m)
        zero = NondetMatrix(1, [[0, 0], [0, 0]], PairTable(1, (0, 0)))
        assert zero.rank() == 0

    def test_eq1_matrix_rank(self):
        m = identity_matrix(1)
        assert m.rank() == 2

    def test_from_poly_intersect(self):
        for n in (2, 3, 4):
            f = make_pair_function("INTERSECT_NOT_ONE", n)
            m = matrix_from_poly(weight_offset_poly(n, 1), f)
            assert m.rank() <= n + 1

    def test_from_poly_sum_rank_le_n(self):
        n = 3
        rows = tuple(sum(1 << y for y in range(8) if x & y)
                     for x in range(8))
        f = PairTable(n, rows)
        m = matrix_from_poly(weight_offset_poly(n), f)
        assert m.rank() <= n

    def test_all_ones_rank1(self):
        f = PairTable(2, (15, 15, 15, 15))
        m = matrix_from_poly(MultilinearPoly.constant(2, 1), f)
        assert m.rank() == 1

    def test_from_poly_pattern_mismatch(self):
        with pytest.raises(PatternMismatch):
            matrix_from_poly(weight_offset_poly(2),
                             make_pair_function("EQ", 2))

    def test_from_poly_rank_le_monomial_count(self):
        # M(x,y) = p(x & y) = sum_S a_S X_S(x) X_S(y): one rank-1 term per
        # monomial
        import random as _random
        from ndqc.polys import exact_poly
        from ndqc.boolfn import random_table
        rng = _random.Random(33)
        for n in (2, 3):
            for _ in range(6):
                g = random_table(n, rng)
                p = exact_poly(g)
                if p.is_zero():
                    continue
                size = 1 << n
                rows = tuple(
                    sum((1 << y) for y in range(size) if g.value(x & y))
                    for x in range(size))
                m = matrix_from_poly(p, PairTable(n, rows))
                assert m.rank() <= len(p.coeffs)


def brute_force_triangularizable(f):
    size = 1 << f.n
    for rows in itertools.permutations(range(size)):
        for cols in itertools.permutations(range(size)):
            ok = True
            for i in range(size):
                if not f.value(rows[i], cols[i]):
                    ok = False
                    break
                for j in range(i):
                    if f.value(rows[i], cols[j]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def assert_triangular_form(f, ev):
    """ev's orders are permutations putting f's pattern in upper triangular
    form with a nonzero diagonal."""
    size = 1 << f.n
    assert ev.kind in ("DIAGONAL", "TRIANGULAR") and ev.nrank == size
    rows, cols = ev.row_order, ev.col_order
    assert sorted(rows) == sorted(cols) == list(range(size))
    for i in range(size):
        assert f.value(rows[i], cols[i])
        assert not any(f.value(rows[i], cols[j]) for j in range(i))


class TestFullRank:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_eq_diagonal(self, n):
        ev = full_rank_check(make_pair_function("EQ", n))
        assert ev.kind == "DIAGONAL" and ev.nrank == 1 << n

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_disj_triangular(self, n):
        ev = full_rank_check(make_pair_function("DISJ", n))
        assert ev.kind == "TRIANGULAR" and ev.nrank == 1 << n

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_disj_orders_triangularize(self, n):
        f = make_pair_function("DISJ", n)
        assert_triangular_form(f, full_rank_check(f))

    def test_random_orders_triangularize(self):
        # a random triangular pattern with a nonzero diagonal, its rows and
        # columns shuffled: peeling must find some triangular order
        rng = random.Random(43)
        for n in (1, 2, 3, 4, 5):
            size = 1 << n
            for _ in range(8):
                rows, cols = list(range(size)), list(range(size))
                rng.shuffle(rows)
                rng.shuffle(cols)
                table = [0] * size
                for i in range(size):
                    table[rows[i]] = 1 << cols[i]
                    for j in range(i + 1, size):
                        if rng.random() < 0.5:
                            table[rows[i]] |= 1 << cols[j]
                f = PairTable(n, tuple(table))
                assert_triangular_form(f, full_rank_check(f))

    def test_all_ones_none(self):
        ev = full_rank_check(PairTable(1, (3, 3)))
        assert ev.kind == "NONE" and ev.nrank is None

    def test_greedy_matches_brute_force_n1(self):
        for rows in itertools.product(range(4), repeat=2):
            f = PairTable(1, rows)
            ev = full_rank_check(f)
            assert (ev.kind in ("DIAGONAL", "TRIANGULAR")) == \
                brute_force_triangularizable(f), rows

    def test_greedy_matches_brute_force_n2_sampled(self):
        rng = random.Random(17)
        for _ in range(40):
            f = PairTable(2, tuple(rng.randrange(16) for _ in range(4)))
            ev = full_rank_check(f)
            assert (ev.kind in ("DIAGONAL", "TRIANGULAR")) == \
                brute_force_triangularizable(f)

    def test_certificate_is_sound(self):
        # a certified pattern forces full rank on the 0/1 matrix itself
        rng = random.Random(18)
        for _ in range(30):
            f = PairTable(2, tuple(rng.randrange(16) for _ in range(4)))
            ev = full_rank_check(f)
            if ev.kind != "NONE":
                m = NondetMatrix(2, [[f.value(x, y) for y in range(4)]
                                     for x in range(4)], f)
                assert m.rank() == 4


class TestSvdProtocol:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_exact(self, n):
        # diagonal 1, -2, 3, -4, ...: the signs ride on Alice's message
        size = 1 << n
        signed = NondetMatrix(n, [[(-1) ** x * (x + 1) if x == y else 0
                                   for y in range(size)]
                                  for x in range(size)],
                              make_pair_function("EQ", n))
        for m in (identity_matrix(n), signed):
            spec = svd_protocol(m)
            assert spec.cost == n + 1
            assert [(r.party, r.message_qubits) for r in spec.rounds] \
                == [("A", n), ("B", 1)]
            for x in range(size):
                for y in range(size):
                    acc = run_protocol(spec, x, y)
                    assert acc == (F(1) if x == y else F(0))
        # a_x = sign(M_xx) e_x, so Alice's amplitude on |x> carries the sign
        a_f, _ = final_state_families(svd_protocol(signed), n)
        assert all(a_f[w][x] == ((-1) ** x if w == x else 0,)
                   for w in range(size) for x in range(size))

    def test_identity_sweep_exact(self):
        m = identity_matrix(3)
        sweep = svd_acceptance_sweep(m)
        for x in range(8):
            for y in range(8):
                assert sweep[x][y] == (1 if x == y else 0)

    def test_zero_row(self):
        f = PairTable(1, (0, 3))
        m = NondetMatrix(1, ((F(0), F(0)), (F(1), F(1))), f)
        with pytest.raises(ZeroRow):
            svd_protocol(m)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ne_matrix_protocol_cost_2(self, n):
        # the integer rank-2 NE matrix gets the exact protocol of cost 2,
        # and its sweep is what the simulator measures on every pair
        m = ne_matrix(n)
        spec = svd_protocol(m)
        assert spec.cost == 2
        sweep = svd_acceptance_sweep(m)
        size = 1 << n
        assert all(run_protocol(spec, x, y) == sweep[x][y]
                   for x in range(size) for y in range(size))

    def test_factors_computed_once_per_matrix(self, monkeypatch):
        # the rank, the protocol and its sweep share one elimination
        calls, eliminations = [], []
        real = commsim._rank_factors
        monkeypatch.setattr(commsim, "_rank_factors",
                            lambda M: calls.append(M) or real(M))

        def counted(fn):
            return lambda *args: eliminations.append(fn) or fn(*args)
        for name in ("nullspace", "int_rank"):
            monkeypatch.setattr(commsim, name, counted(getattr(commsim, name)))
        m = matrix_from_poly(weight_offset_poly(3, 1),
                             make_pair_function("INTERSECT_NOT_ONE", 3))
        assert m.rank() == 4
        svd_protocol(m)
        svd_acceptance_sweep(m)
        assert calls == [m] and len(eliminations) == 1

    def test_cost_formula(self):
        assert svd_protocol_cost(1) == 1
        assert svd_protocol_cost(2) == 2
        assert svd_protocol_cost(5) == 4  # ceil(log2 5) + 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_intersect_protocol_exact(self, n):
        f = make_pair_function("INTERSECT_NOT_ONE", n)
        m = matrix_from_poly(weight_offset_poly(n, 1), f)
        r, want = reference_acceptance(m)
        assert r == m.rank()
        spec = svd_protocol(m)
        assert spec.cost == svd_protocol_cost(r)
        for x in range(1 << n):
            for y in range(1 << n):
                acc = run_protocol(spec, x, y)
                assert acc == want[x][y]
                assert (acc > 0) == (f.value(x, y) == 1)

    def test_sweep_matches_protocol_runs(self):
        n = 2
        f = make_pair_function("INTERSECT_NOT_ONE", n)
        m = matrix_from_poly(weight_offset_poly(n, 1), f)
        spec = svd_protocol(m)
        sweep = svd_acceptance_sweep(m)
        for x in range(4):
            for y in range(4):
                acc = run_protocol(spec, x, y)
                assert acc == sweep[x][y]

    def test_random_matrices_protocol_correctness(self):
        # seeded rational products of rank <= k, some with a zero row or a
        # zero column: the factor rank is int_rank, a_x . b_y is a positive
        # multiple of M_xy, the sweep equals c_x^2 d_y^2 M_xy^2 from a
        # Fraction reduced echelon form, and simulating the protocol gives
        # the sweep on every pair
        rng = random.Random(29)
        values = [F(k, d) for k in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 5)]
        seen = {"zero row": 0, "zero column": 0, "nonzero free column": 0}
        for n in (2, 3):
            size = 1 << n
            for trial in range(12):
                k = rng.randint(1, size)
                left = [[rng.choice(values) for _ in range(k)]
                        for _ in range(size)]
                right = [[rng.choice(values + [0]) for _ in range(size)]
                         for _ in range(k)]
                entries = [[sum(p * q for p, q in zip(row, col))
                            for col in zip(*right)] for row in left]
                zero = rng.randrange(size)
                if trial % 3 == 1:
                    entries[zero] = [F(0)] * size
                elif trial % 3 == 2:
                    for row in entries:
                        row[zero] = F(0)
                f = PairTable(n, tuple(sum(1 << y for y, v in enumerate(row)
                                           if v) for row in entries))
                m = NondetMatrix(n, tuple(map(tuple, entries)), f)
                if not all(f.rows):
                    seen["zero row"] += 1
                    with pytest.raises(ZeroRow):
                        svd_protocol(m)
                    with pytest.raises(ZeroRow):
                        svd_acceptance_sweep(m)
                    continue
                r = int_rank([list(row) for row in m.entries], size)
                a, b = commsim._rank_factors(m)
                assert len(a[0]) == len(b[0]) == r
                seen["zero column"] += not all(map(any, zip(*entries)))
                seen["nonzero free column"] += sum(map(any, b)) > r
                for x in range(size):
                    for y in range(size):
                        d = sum(p * q for p, q in zip(a[x], b[y]))
                        assert d * m.entries[x][y] > 0 if f.value(x, y) \
                            else d == 0
                spec = svd_protocol(m)
                assert spec.cost == svd_protocol_cost(r)
                sweep = svd_acceptance_sweep(m)
                assert reference_acceptance(m) == (r, sweep)
                for x in range(size):
                    for y in range(size):
                        assert (sweep[x][y] > 0) == bool(f.value(x, y))
                        assert run_protocol(spec, x, y) == sweep[x][y]
        assert min(seen.values()) >= 3, seen

    def test_all_ones_cost_1(self):
        f = PairTable(1, (3, 3))
        m = NondetMatrix(1, [[1, 1], [1, 1]], f)
        spec = svd_protocol(m)
        assert spec.cost == 1
        for x in range(2):
            for y in range(2):
                acc = run_protocol(spec, x, y)
                assert acc == 1


class TestProtocolModel:
    def test_alternation_enforced(self):
        with pytest.raises(ValueError, match="alternate"):
            ProtocolSpec(alice_qubits=0, channel_qubits=1, bob_qubits=0,
                         rounds=(Round("B", 1, lambda v: ()),), cost=1)

    def test_cost_must_match(self):
        with pytest.raises(ValueError, match="cost"):
            ProtocolSpec(alice_qubits=0, channel_qubits=1, bob_qubits=0,
                         rounds=(Round("A", 1, lambda v: ()),), cost=2)

    def test_party_qubit_restriction(self):
        # Bob touching Alice's private qubit must be rejected
        spec = ProtocolSpec(
            alice_qubits=1, channel_qubits=1, bob_qubits=0,
            rounds=(Round("A", 1, lambda v: ()),
                    Round("B", 1, lambda v: (Swap(0, 1),))),
            cost=2)
        with pytest.raises(ValueError, match="foreign"):
            run_protocol(spec, 0, 0)

    def test_exact_spec_rejects_float_round(self):
        rotate = Round("A", 1, lambda v: (Unitary((0,), np.eye(2)),))
        spec = ProtocolSpec(alice_qubits=0, channel_qubits=1, bob_qubits=0,
                            rounds=(rotate,), cost=1)
        with pytest.raises(ValueError, match="ScaledMatrix"):
            run_protocol(spec, 1, 0)

    def test_flip_on_projector_is_an_exact_involution(self):
        # U = (I - P) (x) I + P (x) X squares to I and keeps the norm
        rng = random.Random(31)
        for _ in range(20):
            re = [rng.randint(-5, 5) for _ in range(16)]
            vec = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            if not any(vec) or not any(re):
                continue
            norm2 = sum(v * v for v in vec)
            st = ExactState(re, None, 1)
            gate = FlipOnProjector(3, (1, 0), vec)
            st = apply_gate(st, 4, gate)
            assert st.norm2() == sum(v * v for v in re)
            st = apply_gate(st, 4, gate)
            assert st.re == [v * norm2 * norm2 for v in re]
            assert st.scale2 == norm2 ** 4

    @pytest.mark.parametrize("ops, match", [
        ((PrepState((0,), [1, 1]), PrepState((0,), [1, 1])), "register in"),
        ((PrepState((0,), [1, 1, 1]),), "fits"),
        ((FlipOnProjector(0, (1,), [1, 1, 1]),), "fits"),
        ((FlipOnProjector(0, (1,), [0, 0]),), "nonzero"),
    ])
    def test_projector_ops_reject_bad_input(self, ops, match):
        spec = ProtocolSpec(alice_qubits=0, channel_qubits=2, bob_qubits=0,
                            rounds=(Round("A", 2, lambda v: ops),), cost=2)
        with pytest.raises(ValueError, match=match):
            run_protocol(spec, 0, 0)
        # the projector ops need a real state: a complex round first
        identity = ScaledMatrix(((1, 0), (0, 1)), ((0, 0), (0, 0)), 1)
        complex_spec = dataclasses.replace(spec, rounds=(Round(
            "A", 2, lambda v: (Unitary((0,), identity),) + ops),))
        with pytest.raises(ValueError, match="real states only"):
            run_protocol(complex_spec, 0, 0)

    def test_non_unitary_float_round_rejected(self):
        # a float round is rejected as such; an exact one needs G^T G = M I
        for mat, match in (
                (np.array([[1.0, 1.0], [0.0, 1.0]]), "ScaledMatrix"),
                (ScaledMatrix(((1, 1), (0, 1)), None, 1), "non-unitary")):
            spec = ProtocolSpec(
                alice_qubits=0, channel_qubits=1, bob_qubits=0,
                rounds=(Round("A", 1, lambda v, m=mat: (Unitary((0,), m),)),),
                cost=1)
            with pytest.raises(ValueError, match=match):
                run_protocol(spec, 0, 0)

    @pytest.mark.parametrize("gate", [
        Unitary((0, 0), ScaledMatrix(tuple(tuple(int(r == c) for c in range(4))
                                           for r in range(4)), None, 1)),
        Swap(0, 0),
        PrepState((0, 0), [1, 1, 1]),
        FlipOnProjector(1, (0, 0), [1, 1]),
        FlipOnProjector(0, (0, 1), [1]),
    ], ids=["unitary", "swap", "prep-state", "flip-on-projector",
            "flip-target-in-register"])
    def test_repeated_qubit_rejected(self, gate):
        # every protocol gate is checked through its `qubits`, before it
        # reads the state
        spec = ProtocolSpec(alice_qubits=0, channel_qubits=2, bob_qubits=0,
                            rounds=(Round("A", 2, lambda v: (gate,)),), cost=2)
        with pytest.raises(ValueError, match="repeats a qubit"):
            run_protocol(spec, 0, 0)


class TestNeProtocol:
    def test_zero_iff_equal(self):
        for n in (1, 3, 6, 10):
            for x in (0, 1, (1 << n) - 1):
                assert ne_protocol(n, x, x) == 0
        assert ne_protocol(3, 1, 2) > 0

    def test_matches_formula(self):
        for n in (3, 5):
            sin2 = sin2_table(1 << n)
            for x in range(0, 1 << n, 3):
                for y in range(0, 1 << n, 5):
                    assert ne_protocol(n, x, y) == sin2[abs(x - y)]

    def test_depends_only_on_difference(self):
        # z_x conj(z_y) = 25^y z_(x-y) for z_k = (3+4i)^k
        n = 4
        for x in range(1 << n):
            for y in range(1 << n):
                assert ne_protocol(n, x, y) == ne_protocol(n, abs(x - y), 0)

    def test_rational_point(self):
        assert ne_protocol(1, 1, 0) == F(16, 25)    # sin^2 theta
        assert ne_protocol(2, 2, 0) == F(576, 625)  # sin^2 2 theta

    def test_range_errors(self):
        with pytest.raises(ValueError):
            ne_protocol(2, 4, 0)
        for n in (0, commsim.PAIR_CAP + 1):
            with pytest.raises(CapExceeded):
                ne_protocol(n, 0, 0)
            with pytest.raises(CapExceeded):
                ne_protocol_spec(n)

    def test_spec_embedding_cost_2(self):
        spec = ne_protocol_spec(4)
        assert spec.cost == 2
        for x in (0, 3, 9):
            for y in (0, 5, 15):
                assert run_protocol(spec, x, y) == ne_protocol(4, x, y)

    def test_ne_matrix_rank_2_and_pattern(self):
        for n in (2, 3, 4):
            m = ne_matrix(n)
            assert m.rank() == 2
            assert all(type(v) is int for row in m.entries for v in row)
            for x in range(1 << n):
                assert m.entries[x][x] == 0
                for y in range(1 << n):
                    assert F(m.entries[x][y]) ** 2 / 25 ** (x + y) \
                        == ne_protocol(n, x, y)


class TestRectangles:
    def test_closed_rectangles_are_one_rectangles(self):
        for fam in ("EQ", "DISJ", "INTERSECT_NOT_ONE"):
            f = make_pair_function(fam, 2)
            rects = closed_one_rectangles(f)
            assert rects
            assert all(r.is_b_rectangle(f, 1) for r in rects)

    def test_closed_rectangles_cover_all_ones(self):
        # the cover search branches on a static cell order that assumes
        # every 1-cell lies in some closed rectangle
        tables = [make_pair_function(fam, n) for fam in PAIR_FAMILIES
                  for n in (1, 2, 3)]
        rng = random.Random(41)
        for n in (1, 2, 3):
            size = 1 << n
            tables += [PairTable(n, tuple(rng.randrange(1 << size)
                                          for _ in range(size)))
                       for _ in range(40)]
        for f in tables:
            covered = set()
            for r in closed_one_rectangles(f):
                covered.update((x, y) for x in r.rows() for y in r.cols())
            assert covered == set(f.ones()), (f.n, f.rows)

    def test_rectangle_accessors(self):
        r = Rectangle(0b011, 0b101)
        assert r.rows() == [0, 1] and r.cols() == [0, 2]
        assert r.cell_mask(4) == (0b101) | (0b101 << 4)


def brute_force_cover(f, b):
    """Oracle: minimum over all subsets of all b-rectangles (tiny n only)."""
    g = f if b == 1 else f.complement()
    size = 1 << g.n
    cells = {(x, y) for x in range(size) for y in range(size)
             if g.value(x, y)}
    if not cells:
        return 0
    rects = []
    for smask in range(1, 1 << size):
        srows = [x for x in range(size) if (smask >> x) & 1]
        for tmask in range(1, 1 << size):
            tcols = [y for y in range(size) if (tmask >> y) & 1]
            if all(g.value(x, y) for x in srows for y in tcols):
                rects.append({(x, y) for x in srows for y in tcols})
    for k in range(1, len(cells) + 1):
        for combo in itertools.combinations(rects, k):
            if set().union(*combo) >= cells:
                return k
    raise AssertionError


def reference_min_cover(universe: int, sets: list) -> int:
    """Reference cover search: recounts, at every node, how many sets cover
    each uncovered cell and branches on the least-covered one."""
    best = [len(sets)]
    max_size = max(s.bit_count() for s in sets)

    def search(remaining: int, used: int):
        if not remaining:
            best[0] = min(best[0], used)
            return
        if used + (remaining.bit_count() + max_size - 1) // max_size >= best[0]:
            return
        # branch on the least-covered uncovered cell
        cell_bit = None
        cell_count = None
        m = remaining
        while m:
            bit = m & -m
            cnt = sum(1 for s in sets if s & bit)
            if cell_count is None or cnt < cell_count:
                cell_bit, cell_count = bit, cnt
                if cnt <= 1:
                    break
            m &= m - 1
        if not cell_count:
            return  # uncoverable cell (cannot happen for b-cells)
        for s in sets:
            if s & cell_bit:
                search(remaining & ~s, used + 1)

    search(universe, 0)
    return best[0]


def reference_cover_number(f):
    size = 1 << f.n
    cells = 0
    for x in range(size):
        cells |= f.rows[x] << (x * size)
    if not cells:
        return 0
    return reference_min_cover(
        cells, [r.cell_mask(size) for r in closed_one_rectangles(f)])


class TestCovers:
    def test_constant_one(self):
        for n in (1, 2, 3):
            f = PairTable(n, tuple((1 << (1 << n)) - 1
                                   for _ in range(1 << n)))
            assert cover_number(f, 1) == 1

    def test_eq1(self):
        assert cover_number(make_pair_function("EQ", 1), 1) == 2

    def test_constant_zero(self):
        f = PairTable(2, (0, 0, 0, 0))
        assert cover_number(f, 1) == 0

    def test_eq_needs_2n_rectangles(self):
        for n in (1, 2):
            assert cover_number(make_pair_function("EQ", n), 1) == 1 << n

    def test_zero_cover_via_complement(self):
        assert cover_number(make_pair_function("EQ", 1), 0) == 2

    def test_brute_force_agreement_n1(self):
        for rows in itertools.product(range(4), repeat=2):
            f = PairTable(1, rows)
            assert cover_number(f, 1) == brute_force_cover(f, 1), rows

    def test_matches_reference(self):
        rng = random.Random(43)
        tables = [PairTable(2, tuple(rng.randrange(16) for _ in range(4)))
                  for _ in range(300)]
        tables += [PairTable(3, tuple(rng.randrange(256) & rng.randrange(256)
                                      & rng.randrange(256)
                                      for _ in range(8)))
                   for _ in range(40)]
        tables += [PairTable(3, tuple(rng.randrange(256) | rng.randrange(256)
                                      for _ in range(8)))
                   for _ in range(20)]
        # NE at k = 3 is left to the Sperner test: the reference takes ~8 s
        tables += [make_pair_function(fam, k) for fam in PAIR_FAMILIES
                   for k in (1, 2, 3) if (fam, k) != ("NE", 3)]
        for f in tables:
            assert cover_number(f, 1) == reference_cover_number(f), \
                (f.n, f.rows)

    def test_matches_reference_all_n2(self):
        for packed in range(1, 1 << 16):
            f = PairTable(2, tuple((packed >> (4 * x)) & 15
                                   for x in range(4)))
            assert cover_number(f, 1) == reference_cover_number(f), f.rows

    def test_matches_reference_dense_n3(self):
        # dense tables have many small closed rectangles, so the area bound
        # starts below the answer and deepening has to refute several k
        rng = random.Random(47)
        gaps = []
        for _ in range(80):
            density = rng.uniform(0.6, 0.97)
            f = PairTable(3, tuple(sum(1 << y for y in range(8)
                                       if rng.random() < density)
                                   for _ in range(8)))
            want = reference_cover_number(f)
            assert cover_number(f, 1) == want, f.rows
            cells = sum(row.bit_count() for row in f.rows)
            largest = max(r.cell_mask(8).bit_count()
                          for r in closed_one_rectangles(f))
            gaps.append(want - -(-cells // largest))
        assert max(gaps) >= 3

    def test_deepening_refutes_several_k(self):
        # one 8-cell set and four singletons: the area bound is 2, and
        # k = 2, 3, 4 must all be refuted before k = 5 fits
        big = (1 << 8) - 1
        sets = [big] + [1 << b for b in range(8, 12)]
        universe = (1 << 12) - 1
        assert -(-universe.bit_count() // big.bit_count()) == 2
        assert commsim._min_cover(universe, sets) == 5
        assert reference_min_cover(universe, sets) == 5

    def test_ne_matches_sperner_bound(self):
        # the maximal 1-rectangles of NE are S x S^c, so a 1-cover by m
        # rectangles gives every x the set of rectangles whose S holds x,
        # and these 2^k sets form an antichain in 2^[m] (Sperner)
        for k, want in ((1, 2), (2, 4), (3, 5)):
            m = 1
            while math.comb(m, m // 2) < 1 << k:
                m += 1
            assert m == want
            assert cover_number(make_pair_function("NE", k), 1) == m

    def test_ncc_formula(self):
        assert ncc_from_cover(1) == 1
        assert ncc_from_cover(2) == 2
        assert ncc_from_cover(5) == 4


class TestFoolingSets:
    def test_eq_diagonal(self):
        f = make_pair_function("EQ", 3)
        ok, bound = fooling_set_check(f, [(x, x) for x in range(8)])
        assert ok and bound == 8

    def test_intersect_complement(self):
        for n in (2, 3, 5):
            fbar = make_pair_function("INTERSECT_NOT_ONE", n).complement()
            s = intersect_complement_fooling_set(n)
            assert len(s) == 1 << (n - 1)
            ok, bound = fooling_set_check(fbar, s)
            assert ok and bound == 1 << (n - 1)

    def test_singleton(self):
        f = make_pair_function("DISJ", 2)
        ok, bound = fooling_set_check(f, [(0, 0)])
        assert ok and bound == 1

    def test_not_fooling(self):
        f = PairTable(1, (3, 3))
        ok, bound = fooling_set_check(f, [(0, 0), (1, 1)])
        assert not ok and bound == 0

    def test_rejects_non_one_inputs(self):
        with pytest.raises(ValueError):
            fooling_set_check(make_pair_function("EQ", 2), [(0, 1)])

    def test_fooling_bound_le_cover_exhaustive_n1(self):
        for rows in itertools.product(range(4), repeat=2):
            f = PairTable(1, rows)
            ones = f.ones()
            cov = cover_number(f, 1)
            # every maximal-by-greedy fooling set bound must be <= Cov^1
            for start in range(len(ones)):
                s = []
                for cand in ones[start:] + ones[:start]:
                    trial = s + [cand]
                    if fooling_set_check(f, trial)[0]:
                        s = trial
                if s:
                    assert len(s) <= cov


class TestVectorFamilies:
    def test_rank1_all_ones(self):
        f = PairTable(1, (3, 3))
        a = [{0: (F(1),), 1: (F(1),)}]
        b = [{0: (F(2),), 1: (F(3),)}]
        m = matrix_from_vector_families(a, b, f, seed=5)
        assert m.rank() == 1

    def test_retry_cap(self, monkeypatch):
        # with every functional coefficient 1, alpha . (1, -1) = 0 makes
        # every collapsed entry 0 although f is all ones
        stub = SimpleNamespace(randint=lambda lo, hi: lo)
        monkeypatch.setattr(commsim, "random",
                            SimpleNamespace(Random=lambda seed: stub))
        f = PairTable(1, (3, 3))
        a = [{0: (F(1), F(-1)), 1: (F(1), F(-1))}]
        b = [{0: (F(1),), 1: (F(1),)}]
        with pytest.raises(RetryCapExceeded):
            matrix_from_vector_families(a, b, f, seed=5)

    def test_rank_bound_fault(self, monkeypatch):
        # a rank that overshoots the family count m = 1
        monkeypatch.setattr(commsim.NondetMatrix, "rank", lambda self: 2)
        f = PairTable(1, (3, 3))
        a = [{0: (F(1),), 1: (F(1),)}]
        b = [{0: (F(2),), 1: (F(3),)}]
        with pytest.raises(RankBoundViolation):
            matrix_from_vector_families(a, b, f, seed=5)

    @pytest.mark.parametrize("entry", [1.0, 1 + 0j, np.float64(1.0)])
    def test_inexact_entries_rejected(self, entry):
        f = PairTable(1, (3, 3))
        a = [{0: (F(1),), 1: (entry,)}]
        b = [{0: (F(2),), 1: (F(3),)}]
        with pytest.raises(ValueError, match="exact rationals"):
            matrix_from_vector_families(a, b, f, seed=5)

    def test_hypothesis_violated(self):
        f = PairTable(1, (3, 3))
        a = [{0: (F(1),), 1: (F(1),)}]
        b = [{0: (F(0),), 1: (F(3),)}]
        with pytest.raises(HypothesisViolated):
            matrix_from_vector_families(a, b, f, seed=5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_svd_eq_families(self, n):
        f = make_pair_function("EQ", n)
        spec = svd_protocol(identity_matrix(n))
        a_f, b_f = final_state_families(spec, n)
        assert len(a_f) == 1 << (spec.cost - 1)
        m = matrix_from_vector_families(a_f, b_f, f, seed=9)
        assert m.rank() <= len(a_f)

    @pytest.mark.parametrize("n", [2, 3])
    def test_svd_intersect_families(self, n):
        # a non-diagonal M: the families are amplitude numerators, off by
        # positive per-party scales, and still collapse exactly
        f = make_pair_function("INTERSECT_NOT_ONE", n)
        spec = svd_protocol(matrix_from_poly(weight_offset_poly(n, 1), f))
        a_f, b_f = final_state_families(spec, n)
        assert len(a_f) == 1 << (spec.cost - 1)
        m = matrix_from_vector_families(a_f, b_f, f, seed=9)
        assert m.target == f and m.rank() <= len(a_f)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ne_protocol_families_rank_2(self, n):
        # the 2-qubit rotation protocol collapses to a rank <= 2^(l-1) = 2
        # nondeterministic matrix for NE
        f = make_pair_function("NE", n)
        spec = ne_protocol_spec(n)
        a_f, b_f = final_state_families(spec, n)
        assert len(a_f) == 2
        m = matrix_from_vector_families(a_f, b_f, f, seed=23)
        assert m.rank() <= 2

    def test_families_reproduce_final_state(self):
        # sum_i A_i(x) (x) B_i(y) must be zero exactly on 0-inputs
        n = 2
        spec = svd_protocol(identity_matrix(n))
        a_f, b_f = final_state_families(spec, n)
        f = make_pair_function("EQ", n)
        for x in range(4):
            for y in range(4):
                total = [F(0)] * (1 << spec.bob_qubits)
                for i in range(len(a_f)):
                    coef = a_f[i][x][0]
                    for k, v in enumerate(b_f[i][y]):
                        total[k] += coef * v
                assert (all(v == 0 for v in total)) == (f.value(x, y) == 0)

    def test_complex_amplitudes_rejected(self):
        # families are real numerators; a round that leaves an imaginary
        # part must not be read through its real part alone
        i_gate = ScaledMatrix(((0, 0), (0, 0)), ((1, 0), (0, 1)), 1)
        spec = dataclasses.replace(ne_protocol_spec(1), rounds=(
            Round("A", 1, lambda x: (Unitary((0,), i_gate),)),
            ne_protocol_spec(1).rounds[1]))
        with pytest.raises(ValueError, match="complex"):
            final_state_families(spec, 1)


class TestMatrixFiles:
    def test_exact_round_trip(self):
        m = identity_matrix(2)
        m2 = matrix_from_csv_lines(matrix_to_csv_lines(m))
        assert m2.entries == m.entries

    def test_ne_matrix_round_trip(self):
        m = ne_matrix(2)
        lines = matrix_to_csv_lines(m)
        assert lines[0] == "n,2,mode,exact"
        assert matrix_from_csv_lines(lines).entries == m.entries

    @pytest.mark.parametrize("lines", [
        [],
        ["n,1"],
        ["n,1,mode"],
        ["n,1,mode,bogus", "1,0", "0,1"],
        ["n,1,mode,float", "1.0,0.0", "0.0,1.0"],
        ["n,x,mode,exact", "1,0", "0,1"],
        ["n,1,mode,exact", "1,0"],
        ["n,1,mode,exact", "1/0,0", "0,1"],
        ["n,1,mode,exact", "1e999999999,0", "0,1"],
        ["n,1000000000000,mode,exact", "1"],
    ])
    def test_malformed_input_raises_value_error(self, lines):
        with pytest.raises(ValueError):
            matrix_from_csv_lines(lines)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_float_non_finite_rejected(self, entry):
        # entries are p/q rationals: float literals never reach the pattern
        with pytest.raises(ValueError):
            matrix_from_csv_lines(["n,1,mode,exact", f"{entry},0", "0,1"])

    def test_integral_entries_read_as_ints(self):
        m = matrix_from_csv_lines(["n,1,mode,exact", "2,4/2", "1/3,0.5"])
        assert m.entries == ((2, 2), (F(1, 3), F(1, 2)))
        assert type(m.entries[0][0]) is int and type(m.entries[0][1]) is int

    def test_rational_entries_preserved(self):
        f = PairTable(1, (3, 3))
        m = NondetMatrix(1, [[F(1, 3), F(-2, 7)], [F(5), F(1)]], f)
        m2 = matrix_from_csv_lines(matrix_to_csv_lines(m))
        assert m2.entries == m.entries


class TestProtocolFiles:
    def test_summary_round_trip(self):
        spec = svd_protocol(identity_matrix(2))
        summary = protocol_summary_from_lines(protocol_to_lines(spec))
        assert summary["cost"] == 3
        assert summary["rounds"] == [
            {"party": "A", "message_qubits": 2},
            {"party": "B", "message_qubits": 1}]

    @pytest.mark.parametrize("lines", [
        [],
        ["{}"],
        ["[]"],
        ['{"cost":1}', '{"party":"A"}'],
    ])
    def test_malformed_input_raises_value_error(self, lines):
        with pytest.raises(ValueError):
            protocol_summary_from_lines(lines)

    def test_cost_mismatch_rejected(self):
        lines = ['{"alice_qubits":0,"channel_qubits":1,"bob_qubits":0,'
                 '"cost":5,"exact":true}',
                 '{"party":"A","message_qubits":1}']
        with pytest.raises(ValueError):
            protocol_summary_from_lines(lines)


def test_nrank_lower_bound_eq_full():
    assert nrank_lower_bound(make_pair_function("EQ", 3)) == 8


def test_nrank_lower_bound_valid():
    # the subpattern bound holds for every matrix with the pattern, so in
    # particular for the 0/1 matrix itself
    rng = random.Random(19)
    for _ in range(20):
        f = PairTable(2, tuple(rng.randrange(16) for _ in range(4)))
        if not any(f.rows):
            continue
        lb = nrank_lower_bound(f)
        m = NondetMatrix(2, [[f.value(x, y) for y in range(4)]
                             for x in range(4)], f)
        assert lb <= m.rank()


# sha256 of the CSV lines, recorded before polynomial values became integer
# numerators over one denominator
def test_poly_matrix_csv_pinned():
    h = hashlib.sha256()
    for n in (3, 4, 5):
        m = matrix_from_poly(weight_offset_poly(n, 1),
                             make_pair_function("INTERSECT_NOT_ONE", n))
        h.update("\n".join(matrix_to_csv_lines(m)).encode())
    assert h.hexdigest() == ("a4a3bb022b0fd4aea8eca62a6131543d"
                             "644fe54e26a1094895f29179064947ff")

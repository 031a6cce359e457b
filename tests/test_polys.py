import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ndqc
from ndqc import linalg, polys
from ndqc.boolfn import SymmetricProfile, TruthTable, make_named, \
    random_table, symmetric_profile
from ndqc.polys import (FOURIER, MONOMIAL, ConstantPolynomial,
                        EngineInvariantBroken, IdenticallyZero,
                        InvalidWitness, MultilinearPoly, NdegCertificate,
                        RetryCapExceeded,
                        exact_poly, from_fourier, ndeg, ndeg_decide,
                        nisan_smolensky_procedure, parse_poly,
                        parse_rational, format_poly,
                        schwartz_stats, symmetric_ndeg, symmetric_ndet_poly,
                        to_fourier, verify_ndet, weight_offset_poly,
                        _ndeg_decide_dual, _ndeg_decide_primal,
                        _masks_by_degree, _sample_combination)

from helpers import spy_nullspace_paths

F = Fraction


class TestExactPoly:
    def test_or2(self):
        p = exact_poly(make_named("OR", 2))
        assert p.coeffs == {1: F(1), 2: F(1), 3: F(-1)}
        assert p.degree == 2

    def test_const1(self):
        p = exact_poly(make_named("CONST1", 2))
        assert p.coeffs == {0: F(1)}

    def test_parity2_mobius(self):
        p = exact_poly(make_named("PARITY", 2))
        assert p.coeffs == {1: F(1), 2: F(1), 3: F(-2)}

    def test_pointwise_agreement_random(self):
        rng = random.Random(9)
        for _ in range(20):
            f = random_table(4, rng)
            p = exact_poly(f)
            assert all(p.evaluate(x) == f.value(x) for x in range(16))


class TestFourier:
    def test_or2_coefficients(self):
        pf = to_fourier(exact_poly(make_named("OR", 2)))
        assert pf.coeffs == {0: F(3, 4), 1: F(-1, 4), 2: F(-1, 4),
                             3: F(-1, 4)}

    def test_constant(self):
        pf = to_fourier(MultilinearPoly.constant(3, F(5, 7)))
        assert pf.coeffs == {0: F(5, 7)}

    def test_degrees_agree(self):
        rng = random.Random(10)
        for _ in range(20):
            f = random_table(3, rng)
            p = exact_poly(f)
            assert to_fourier(p).degree == p.degree

    def test_eq1_fourier_value_at_zero(self):
        # n/2 - 1 - n/2 = -1
        for n in (2, 3, 5):
            pf = to_fourier(weight_offset_poly(n, 1))
            assert pf.coeffs.get(0, F(0)) == F(n, 2) - 1
            assert all(pf.coeffs[1 << i] == F(-1, 2) for i in range(n))
            assert pf.evaluate(0) == -1


def test_fourier_round_trip_n10():
    rng = random.Random(41)
    for _ in range(5):
        coeffs = {rng.randrange(1 << 10): F(rng.randint(-9, 9),
                                            rng.randint(1, 9))
                  for _ in range(8)}
        p = MultilinearPoly.make(10, MONOMIAL, coeffs)
        assert from_fourier(to_fourier(p)) == p


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=5), data=st.data())
def test_fourier_round_trip_random_rational(n, data):
    coeffs = {}
    masks = data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6))
    for m in masks:
        num = data.draw(st.integers(min_value=-9, max_value=9))
        den = data.draw(st.integers(min_value=1, max_value=9))
        coeffs[m] = coeffs.get(m, F(0)) + F(num, den)
    p = MultilinearPoly.make(n, MONOMIAL, coeffs)
    assert from_fourier(to_fourier(p)) == p


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_mul_evaluates_pointwise(n, data):
    def draw_poly():
        cs = {}
        for m in data.draw(st.lists(
                st.integers(min_value=0, max_value=(1 << n) - 1), max_size=4)):
            cs[m] = data.draw(st.integers(min_value=-4, max_value=4))
        return MultilinearPoly.make(n, MONOMIAL, cs)
    p, q = draw_poly(), draw_poly()
    prod = p * q
    for x in range(1 << n):
        assert prod.evaluate(x) == p.evaluate(x) * q.evaluate(x)


def _ref_values(n, basis, coeffs):
    """Value at every point, summed term by term in Fractions."""
    out = []
    for x in range(1 << n):
        v = F(0)
        for m, c in coeffs.items():
            if basis == FOURIER:
                v += -c if (m & x).bit_count() & 1 else c
            elif m & x == m:
                v += c
        out.append(v)
    return out


def _ref_collect(pairs):
    out = {}
    for m, c in pairs:
        out[m] = out.get(m, F(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(basis, a, b):
    combine = (lambda x, y: x | y) if basis == MONOMIAL else \
        (lambda x, y: x ^ y)
    return _ref_collect((combine(ma, mb), ca * cb)
                        for ma, ca in a.items() for mb, cb in b.items())


def _ref_to_fourier(n, coeffs):
    vals = _ref_values(n, MONOMIAL, coeffs)
    return _ref_collect((s, (-v if (x & s).bit_count() & 1 else v)
                         / (1 << n))
                        for s in range(1 << n) for x, v in enumerate(vals))


def _ref_from_fourier(n, coeffs):
    vals = _ref_values(n, FOURIER, coeffs)
    return _ref_collect((s, -vals[t] if (s ^ t).bit_count() & 1
                         else vals[t])
                        for s in range(1 << n) for t in range(1 << n)
                        if t & s == t)


def _draw_coeffs(data, n):
    coeffs = {}
    for m in data.draw(st.lists(
            st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6)):
        num = data.draw(st.integers(min_value=-12, max_value=12))
        den = data.draw(st.integers(min_value=1, max_value=12))
        coeffs[m] = coeffs.get(m, F(0)) + F(num, den)
    return coeffs


def _assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1


@settings(max_examples=120, deadline=None)
@given(n=st.integers(min_value=1, max_value=5),
       basis=st.sampled_from([MONOMIAL, FOURIER]), data=st.data())
def test_integer_numerators_match_fraction_reference(n, basis, data):
    ca, cb = _draw_coeffs(data, n), _draw_coeffs(data, n)
    p = MultilinearPoly.make(n, basis, ca)
    q = MultilinearPoly.make(n, basis, cb)
    k = data.draw(st.sampled_from([0, 1, -1, 3, F(2, 3), F(-5, 4)]))
    ca, cb = _ref_collect(ca.items()), _ref_collect(cb.items())
    cases = [(p, ca), (p + q, _ref_collect([*ca.items(), *cb.items()])),
             (p - q, _ref_collect([*ca.items(),
                                   *((m, -c) for m, c in cb.items())])),
             (p * q, _ref_mul(basis, ca, cb)),
             (p.scale(k), _ref_collect((m, k * c) for m, c in ca.items())),
             (p * k, _ref_collect((m, k * c) for m, c in ca.items()))]
    if basis == MONOMIAL:
        cases.append((to_fourier(p), _ref_to_fourier(n, ca)))
    else:
        cases.append((from_fourier(p), _ref_from_fourier(n, ca)))
    for r, want in cases:
        _assert_canonical(r)
        assert r.coeffs == want
        vals = _ref_values(n, r.basis, want)
        assert r.values() == vals
        assert [r.evaluate(x) for x in range(1 << n)] == vals


@pytest.mark.parametrize("basis", [MONOMIAL, FOURIER])
def test_equal_polynomials_are_equal_dataclasses(basis):
    half = MultilinearPoly.make(3, basis, {1: F(1, 2)})
    assert MultilinearPoly.make(3, basis, {1: F(2, 4)}) == half
    assert MultilinearPoly.make(3, basis, {1: 1}).scale(F(1, 2)) == half
    assert half.scale(2) == MultilinearPoly.make(3, basis, {1: 1})
    assert (half + half).den == 1 and (half - half).is_zero()
    assert (half - half) == MultilinearPoly.make(3, basis, {})


class TestEq1Polynomial:
    def test_vanishes_on_weight_one(self):
        for n in (2, 4, 6):
            p = weight_offset_poly(n, 1)
            for x in range(1 << n):
                v = p.evaluate(x)
                assert v == x.bit_count() - 1
                if x.bit_count() == 1:
                    assert v == 0

    def test_at_zero(self):
        assert weight_offset_poly(5, 1).evaluate(0) == -1


class TestNdeg:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_or_and(self, n):
        d, cert = ndeg(make_named("OR", n))
        assert d == 1 and verify_ndet(cert.witness, make_named("OR", n))
        d, cert = ndeg(make_named("AND", n))
        assert d == n and verify_ndet(cert.witness, make_named("AND", n))

    def test_parity2_degree1(self):
        d, cert = ndeg(make_named("PARITY", 2))
        assert d == 1
        w = MultilinearPoly.make(2, MONOMIAL, {1: 1, 2: -1})
        assert verify_ndet(w, make_named("PARITY", 2))

    def test_parity3(self):
        assert ndeg(make_named("PARITY", 3))[0] == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_not_one(self, n):
        assert ndeg(make_named("NOT_ONE", n))[0] == 1

    def test_not_one_complement_n2(self):
        f = make_named("NOT_ONE", 2).complement()
        d, cert = ndeg(f)
        assert d == 1
        assert verify_ndet(MultilinearPoly.make(2, MONOMIAL, {1: 1, 2: -1}), f)

    def test_complement_lower_bound(self):
        for n in (2, 3, 4, 5):
            f = make_named("NOT_ONE", n).complement()
            assert ndeg(f)[0] >= n - 1

    def test_and_infeasible_evidence(self):
        cert = ndeg_decide(make_named("AND", 3), 2)
        assert not cert.feasible
        assert cert.evidence == 7  # the all-ones input

    def test_identically_zero(self):
        with pytest.raises(IdenticallyZero):
            ndeg(make_named("CONST0", 3))
        with pytest.raises(IdenticallyZero):
            ndeg_decide(make_named("CONST0", 3), 1)

    def test_const1(self):
        d, cert = ndeg(make_named("CONST1", 4))
        assert d == 0 and cert.witness.degree == 0

    def test_primal_dual_agree_exhaustive_n3(self):
        rng = random.Random(0)
        for bits in range(1, 256):
            f = TruthTable(3, bits)
            ones, zeros = f.ones(), f.zeros()
            for d in range(4):
                low = _masks_by_degree(3, 0, d)
                high = _masks_by_degree(3, d + 1, 3)
                a = _ndeg_decide_primal(f, d, low, zeros, ones,
                                        random.Random(1))
                b = _ndeg_decide_dual(f, d, high, ones, random.Random(1))
                assert a.feasible == b.feasible, (bits, d)

    def test_feasibility_matches_rank_oracle_n3(self):
        # independent oracle: V_d misses the evaluation functional at a
        # 1-input x iff stacking e_x on the 0-input evaluation rows raises
        # the rank; ranks computed by sympy, not our elimination
        import sympy
        for bits in range(1, 256):
            f = TruthTable(3, bits)
            zeros, ones = f.zeros(), f.ones()
            masks = _masks_by_degree(3, 0, 3)
            for d in range(4):
                cols = [m for m in masks if m.bit_count() <= d]
                base = [[1 if (m & x) == m else 0 for m in cols]
                        for x in zeros]
                rank0 = sympy.Matrix(base).rank() if base else 0
                feas = True
                for x in ones:
                    row = [1 if (m & x) == m else 0 for m in cols]
                    if sympy.Matrix(base + [row]).rank() == rank0:
                        feas = False
                        break
                assert ndeg_decide(f, d).feasible == feas, (bits, d)

    def test_witnesses_always_verify_sampled(self):
        rng = random.Random(12)
        total_resamples = 0
        runs = 0
        for n in (3, 4):
            for _ in range(30):
                f = random_table(n, rng)
                if f.bits == 0:
                    continue
                d, cert = ndeg(f, seed=rng.randrange(1 << 30))
                assert verify_ndet(cert.witness, f)
                assert cert.witness.degree <= d
                total_resamples += cert.resamples
                runs += 1
        # union bound: expected resamples < 2 per run
        assert total_resamples < 2 * runs

    def test_unverified_witness_raises_invalid_witness(self, monkeypatch):
        # both engine paths re-verify their sampled witness
        monkeypatch.setattr(polys, "verify_ndet", lambda p, f: False)
        f = make_named("OR", 3)
        with pytest.raises(InvalidWitness):
            _ndeg_decide_primal(f, 1, _masks_by_degree(3, 0, 1), f.zeros(),
                                f.ones(), random.Random(1))
        with pytest.raises(InvalidWitness):
            _ndeg_decide_dual(f, 1, _masks_by_degree(3, 2, 3), f.ones(),
                              random.Random(1))

    def test_broken_invariants_raise_typed_error(self, monkeypatch):
        # an engine that never finds a feasible degree is a bug, and says so
        # with a typed error that python -O keeps
        monkeypatch.setattr(polys, "ndeg_decide",
                            lambda f, d, rng: NdegCertificate(d, None, 0))
        with pytest.raises(EngineInvariantBroken):
            ndeg(make_named("OR", 3))
        monkeypatch.setattr(polys, "staircase_column", lambda *args: None)
        with pytest.raises(EngineInvariantBroken):
            symmetric_ndeg(symmetric_profile(make_named("NOT_ONE", 3)))

    def test_basis_outside_v_d_raises_invalid_witness(self, monkeypatch):
        # the witness is zero on f^-1(0) by construction, so only its
        # degree shows that one basis vector left V_d
        def perturbed(rows, ncols):
            basis = linalg.nullspace(rows, ncols)
            j, vec = basis[0]
            basis[0] = (j, (vec[0] + 1,) + vec[1:])
            return basis

        monkeypatch.setattr(polys, "nullspace", perturbed)
        f = make_named("OR", 3)
        with pytest.raises(InvalidWitness):
            _ndeg_decide_primal(f, 1, _masks_by_degree(3, 0, 1), f.zeros(),
                                f.ones(), random.Random(1))
        with pytest.raises(InvalidWitness):
            _ndeg_decide_dual(f, 1, _masks_by_degree(3, 2, 3), f.ones(),
                              random.Random(1))

    # sha256 over (d, evidence, resamples, witness text) from both engine
    # paths at every degree, recorded before the two paths shared one
    # witness tail
    @pytest.mark.parametrize("which,digest", [
        ("all nonzero n<=3", "2e659e35fb96e448a927ce41b59f8707"
                             "e35ab4f14213a3208c121808c45dae00"),
        ("seeded n=4-6", "b762ae8fa859255f95e47f34deea4431"
                         "423698497afb2cd4f657237ac9d7232a")])
    def test_both_paths_pinned_at_every_degree(self, which, digest):
        if which == "seeded n=4-6":
            rng = random.Random(46)
            tables = [random_table(n, rng) for n in (4, 5, 6)
                      for _ in range(10)]
        else:
            tables = [TruthTable(n, bits) for n in (1, 2, 3)
                      for bits in range(1 << (1 << n))]
        h = hashlib.sha256()
        for f in (f for f in tables if f.bits):
            ones, zeros = f.ones(), f.zeros()
            for d in range(f.n + 1):
                low = _masks_by_degree(f.n, 0, d)
                high = _masks_by_degree(f.n, d + 1, f.n)
                for cert in (_ndeg_decide_primal(f, d, low, zeros, ones,
                                                 random.Random(d)),
                             _ndeg_decide_dual(f, d, high, ones,
                                               random.Random(d))):
                    text = cert.witness and format_poly(cert.witness)
                    h.update(repr((d, cert.evidence, cert.resamples,
                                   text)).encode())
        assert h.hexdigest() == digest

    def test_retry_cap(self):
        # no combination is nonzero at a point where every basis vector is 0
        with pytest.raises(RetryCapExceeded):
            _sample_combination(random.Random(1), [[1]], [[0]], 4)

    def test_ndeg_le_c1_and_permutation_invariant(self):
        from ndqc.boolfn import c_one
        rng = random.Random(13)
        for _ in range(15):
            f = random_table(3, rng)
            if f.bits == 0:
                continue
            d, _ = ndeg(f)
            assert d <= c_one(f)
            for perm in itertools.permutations((1, 2, 3)):
                assert ndeg(f.permute(perm))[0] == d
                assert exact_poly(f.permute(perm)).degree == \
                    exact_poly(f).degree

    # Degree and sha256 of format_poly(witness), recorded before `nullspace`
    # had an int64 path.  The first three tables have probes above its size
    # gate, and one probe of the n = 9 half-ones table hands its elimination
    # to Python ints after 216 pivots.  The 7/8 table's primal systems have
    # 64 rows, so only its degree-3 probe (64 x 130) reaches the gate.
    @pytest.mark.parametrize("n,eighths,seed,degree,digest,int64,handoffs", [
        (8, 4, 81, 4, "04d13697837357b668d862dd85ff9523"
                      "e06dfb9469935d824d43b112dccd5a80", 3, []),
        (9, 1, 91, 6, "ff5dba3bccb3e2a138248e3dd83db0b4"
                      "a8ff8c67e5a2423b8c062c819ecd7a94", 5, []),
        (9, 4, 94, 5, "c9727b84b50a40831bc11ea9a4b5e7f4"
                      "9431c02926e7fbd62a1ee4f30ba154d7", 4, [216]),
        (9, 7, 97, 3, "e458839e1b1a05cc51320711e6470537"
                      "da162e1769d2290fe523e0474c5298fd", 1, [])])
    def test_outputs_pinned_across_certificate_gate(
            self, n, eighths, seed, degree, digest, int64, handoffs,
            monkeypatch):
        paths = spy_nullspace_paths(monkeypatch)
        rng = random.Random(seed)
        size = 1 << n
        f = TruthTable(n, sum(1 << x for x in
                              rng.sample(range(size), size * eighths // 8)))
        d, cert = ndeg(f, seed=seed)
        text = format_poly(cert.witness)
        assert d == degree
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert (paths["int64"], paths["handoff"], paths["trip"]) == \
            (int64, handoffs, 0)


class TestVerifyNdet:
    def test_or_sum(self):
        assert verify_ndet(weight_offset_poly(4), make_named("OR", 4))

    def test_const_one_vs_const0(self):
        assert not verify_ndet(MultilinearPoly.constant(3, 1),
                               make_named("CONST0", 3))

    def test_eq1_vs_not_one(self):
        for n in (2, 3, 5):
            assert verify_ndet(weight_offset_poly(n, 1),
                               make_named("NOT_ONE", n))


class TestSymmetric:
    def test_or_profile_poly(self):
        prof = symmetric_profile(make_named("OR", 3))
        p = symmetric_ndet_poly(prof)
        assert p == weight_offset_poly(3)
        assert p.degree == 1

    def test_and_profile_poly(self):
        prof = symmetric_profile(make_named("AND", 3))
        p = symmetric_ndet_poly(prof)
        assert p.degree == 3
        assert verify_ndet(p, make_named("AND", 3))

    def test_parity2_profile_poly_valid_not_optimal(self):
        prof = symmetric_profile(make_named("PARITY", 2))
        p = symmetric_ndet_poly(prof)
        assert p.degree == 2
        assert verify_ndet(p, make_named("PARITY", 2))
        assert ndeg(make_named("PARITY", 2))[0] == 1

    def test_identically_zero(self):
        with pytest.raises(IdenticallyZero):
            symmetric_ndet_poly(SymmetricProfile(2, (0, 0, 0)))
        with pytest.raises(IdenticallyZero):
            symmetric_ndeg(SymmetricProfile(2, (0, 0, 0)))

    def test_fast_path_matches_generic_n_le_7(self):
        for n in range(1, 8):
            for vals in itertools.product((0, 1), repeat=n + 1):
                if not any(vals):
                    continue
                prof = SymmetricProfile(n, vals)
                assert symmetric_ndeg(prof) == ndeg(prof.to_table())[0], vals

    def test_z_bounds_n_le_6(self):
        for n in range(1, 7):
            for vals in itertools.product((0, 1), repeat=n + 1):
                if not any(vals):
                    continue
                prof = SymmetricProfile(n, vals)
                d = symmetric_ndeg(prof)
                assert 2 * d >= prof.z and d <= prof.z


class TestMinimalBlockLemma:
    def test_block_size_le_ndeg(self):
        from ndqc.boolfn import minimal_sensitive_blocks
        rng = random.Random(14)
        cases = [make_named("OR", 5), make_named("NOT_ONE", 5),
                 make_named("PARITY", 4)]
        cases += [random_table(4, rng) for _ in range(15)]
        for f in cases:
            if f.bits == 0:
                continue
            d, _ = ndeg(f)
            for x in f.zeros():
                for block in minimal_sensitive_blocks(f, x):
                    assert block.bit_count() <= d


class TestSchwartz:
    def test_single_variable_tight(self):
        pr, bound = schwartz_stats(MultilinearPoly.make(1, MONOMIAL, {1: 1}))
        assert pr == bound == F(1, 2)

    def test_x1_plus_x2_minus_1(self):
        pr, bound = schwartz_stats(weight_offset_poly(2, 1))
        assert pr == F(1, 2) and bound == F(1, 2)

    def test_full_monomial_tight(self):
        for n in (2, 4):
            pr, bound = schwartz_stats(
                MultilinearPoly.make(n, MONOMIAL, {(1 << n) - 1: 3}))
            assert pr == bound == F(1, 1 << n)

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            schwartz_stats(MultilinearPoly.constant(3, 5))


class TestNisanSmolensky:
    def test_or3(self):
        f = make_named("OR", 3)
        oracle, worst = nisan_smolensky_procedure(f, weight_offset_poly(3))
        assert worst <= 3  # C0 * ndeg = 3 * 1
        for x in range(8):
            value, used = oracle(x)
            assert value == f.value(x) and used <= 3

    def test_const1_zero_queries(self):
        _, worst = nisan_smolensky_procedure(
            make_named("CONST1", 3), MultilinearPoly.constant(3, 1))
        assert worst == 0

    def test_not_one3(self):
        f = make_named("NOT_ONE", 3)
        oracle, worst = nisan_smolensky_procedure(f, weight_offset_poly(3, 1))
        assert worst <= 3
        for x in range(8):
            assert oracle(x)[0] == f.value(x)

    def test_invalid_witness(self):
        with pytest.raises(InvalidWitness):
            nisan_smolensky_procedure(make_named("AND", 2),
                                      weight_offset_poly(2))

    def test_bound_on_random_functions(self):
        from ndqc.boolfn import c_zero
        rng = random.Random(15)
        for _ in range(10):
            f = random_table(4, rng)
            if f.bits == 0:
                continue
            d, cert = ndeg(f)
            _, worst = nisan_smolensky_procedure(f, cert.witness)
            assert worst <= c_zero(f) * cert.witness.degree or worst == 0


class TestPolyFormat:
    def test_round_trip(self):
        p = exact_poly(make_named("PARITY", 2))
        assert parse_poly(format_poly(p), 2) == p

    def test_zero(self):
        z = MultilinearPoly.make(2, MONOMIAL, {})
        assert parse_poly(format_poly(z), 2) == z

    def test_fourier_tagged(self):
        pf = to_fourier(weight_offset_poly(2, 1))
        s = format_poly(pf)
        assert s.startswith("basis=FOURIER; terms=")
        assert parse_poly(s, 2) == pf

    def test_rational_coefficients(self):
        p = MultilinearPoly.make(2, MONOMIAL, {0: F(-3, 7), 3: F(22, 5)})
        assert parse_poly(format_poly(p), 2) == p

    @pytest.mark.parametrize("text", [
        "", "basis=MONOMIAL", "basis=MONOMIAL; terms=1*x{3}",
        "basis=BOGUS; terms=1*x{1}", "basis=MONOMIAL; terms=x*x{1}",
        "basis=MONOMIAL; terms=1/0*x{1}",
        # Fraction would expand the exponent: 10**999999999
        "basis=MONOMIAL; terms=1e999999999*x{1}",
    ])
    def test_malformed_input_raises_value_error(self, text):
        with pytest.raises(ValueError):
            parse_poly(text, 2)

    def test_parse_rational(self):
        for v, want in (("-3/7", F(-3, 7)), ("0.25", F(1, 4)), ("5", F(5)),
                        (2, F(2)), (0.5, F(1, 2))):
            assert parse_rational(v) == want
        for bad in ("1e5", "2.5E-3", "1/0", "inf", "nan", float("inf"),
                    float("nan")):
            with pytest.raises(ValueError):
                parse_rational(bad)


# verification faults: (owner, attribute, fault, call) per typed error
_FAULTS = {
    "InterpolationMismatch": (
        polys, "_mobius_inplace", lambda arr, n: None,
        lambda: exact_poly(make_named("OR", 2))),
    "NonzeroBoundViolation": (
        MultilinearPoly, "_int_values",
        lambda self: ([0] * (1 << self.n), self.den),
        lambda: schwartz_stats(weight_offset_poly(2, 1))),
    "RoundInvariantViolation": (
        polys, "_restrict_coeffs", lambda coeffs, bit, value: coeffs,
        lambda: nisan_smolensky_procedure(make_named("OR", 3),
                                          weight_offset_poly(3))),
}


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_fault_raises_typed_error(name, monkeypatch):
    owner, attr, fault, call = _FAULTS[name]
    monkeypatch.setattr(owner, attr, fault)
    with pytest.raises(getattr(polys, name)):
        call()


_FAULTS_UNDER_O = """
from ndqc import polys
from test_polys import _FAULTS
for name, (owner, attr, fault, call) in sorted(_FAULTS.items()):
    real = getattr(owner, attr)
    setattr(owner, attr, fault)
    try:
        call()
    except getattr(polys, name):
        print(name)
    finally:
        setattr(owner, attr, real)
"""


def test_faults_caught_under_python_O():
    # python -O strips assert statements; the typed errors must remain
    path = os.pathsep.join([str(Path(ndqc.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    proc = subprocess.run([sys.executable, "-O", "-c", _FAULTS_UNDER_O],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.split() == sorted(_FAULTS), proc.stderr

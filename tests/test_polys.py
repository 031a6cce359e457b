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
                        _ball_weights, _reduced_system, _resample)

from helpers import ndeg_dual_oracle, ndeg_primal_oracle, spy_nullspace_paths

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


def _oracle_mismatches(tables, make_rng=None):
    """([(n, bits, d)] of the probes where the engine's dim V_d, feasibility
    or evidence differs from either full-basis oracle, total resamples).
    make_rng(d) gives the probe's random stream, the engine default if
    None."""
    out, resamples = [], 0
    for f in tables:
        for d in range(f.n + 1):
            low, rows = _reduced_system(f, d, _ball_weights(f.n, d))
            dim = len(low) - len(linalg.echelon(rows, len(low))[1])
            cert = ndeg_decide(f, d, rng=make_rng and make_rng(d))
            resamples += cert.resamples
            if (cert.feasible == (cert.evidence is not None)
                    or not ((dim, cert.evidence) == ndeg_primal_oracle(f, d)
                            == ndeg_dual_oracle(f, d))):
                out.append((f.n, f.bits, d))
    return out, resamples


class _SmallRandom(random.Random):
    """A stream whose randint draws only 1 or 2: the engine's free values
    with their bound 2^(n+1) patched down to 2."""

    def randint(self, a, b):
        return super().randint(1, 2)


def _small_free_value_run():
    """`_oracle_mismatches` with free values in {1, 2} on every nonzero
    table with n <= 3 and seeded tables with n = 4.  With two values an
    attempt no longer succeeds with probability > 1/2, and on tables with
    a few dozen 1-inputs all 64 attempts can fail, so the sample stops at
    n = 4."""
    rng = random.Random(45)
    tables = [TruthTable(n, bits) for n in (1, 2, 3)
              for bits in range(1, 1 << (1 << n))]
    tables += [random_table(4, rng) for _ in range(10)]
    return _oracle_mismatches((f for f in tables if f.bits), _SmallRandom)


def _outside_kernel(ech, pivots, ncols, free_values):
    """`kernel_vector` with 1 added to its first entry."""
    vec = linalg.kernel_vector(ech, pivots, ncols, free_values)
    return (vec[0] + 1,) + vec[1:]


def _outside_kernel_probe():
    # exactly-one at n = 3 and degree 2: the one high zero 111 gives the
    # row (-1, -1, -1) on the low ones, so no unit vector is in V_d
    return ndeg_decide(make_named("NOT_ONE", 3).complement(), 2)


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
        # the reduced system against both full-basis oracles on every
        # nonzero table with n <= 3
        tables = [TruthTable(n, bits) for n in (1, 2, 3)
                  for bits in range(1, 1 << (1 << n))]
        assert _oracle_mismatches(tables)[0] == []

    def test_engine_matches_oracles_sampled_n8(self):
        rng = random.Random(48)
        tables = [random_table(n, rng) for n in (4, 5, 6) for _ in range(6)]
        for n in (7, 8):
            size = 1 << n
            tables += [TruthTable(n, sum(1 << x for x in rng.sample(
                range(size), size * eighths // 8))) for eighths in (1, 4, 7)]
        for n in (4, 6, 8):
            for family in ("OR", "AND", "PARITY", "NOT_ONE"):
                f = make_named(family, n)
                tables += [f, f.complement()]
        assert _oracle_mismatches(t for t in tables if t.bits)[0] == []

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_hamming_ball_identity(self, n, data):
        # p(y) = sum over x subset of y with |x| <= d of K_d(|y|, |x|) p(x)
        # for every multilinear p of degree <= d and every |y| > d
        d = data.draw(st.integers(0, n), label="d")
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        p = MultilinearPoly.make(n, MONOMIAL, {
            m: rng.randint(-9, 9) for m in range(1 << n)
            if m.bit_count() <= d and rng.random() < 0.7})
        vals = p.values()
        weights = _ball_weights(n, d)
        for y in range(1 << n):
            if y.bit_count() > d:
                row = weights[y.bit_count()]
                assert vals[y] == sum(row[x.bit_count()] * vals[x]
                                      for x in range(1 << n)
                                      if x & y == x and x.bit_count() <= d)

    def test_feasibility_matches_rank_oracle_n3(self):
        # independent oracle: V_d misses the evaluation functional at a
        # 1-input x iff stacking e_x on the 0-input evaluation rows raises
        # the rank; ranks computed by sympy, not our elimination
        import sympy
        for bits in range(1, 256):
            f = TruthTable(3, bits)
            zeros, ones = f.zeros(), f.ones()
            masks = sorted(range(8), key=lambda m: (m.bit_count(), m))
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
        # the engine re-verifies its sampled witness
        monkeypatch.setattr(polys, "verify_ndet", lambda p, f: False)
        with pytest.raises(InvalidWitness):
            ndeg_decide(make_named("OR", 3), 1)

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
        # the witness has degree <= d by construction, so only its nonzero
        # value at a high zero shows a kernel vector outside V_d
        monkeypatch.setattr(polys, "kernel_vector", _outside_kernel)
        with pytest.raises(InvalidWitness):
            _outside_kernel_probe()

    def test_small_free_values_resample(self):
        # free values in {1, 2} make the kernel vector vanish at some
        # 1-input far more often, so the resample path runs; the answers
        # must not move
        mismatches, resamples = _small_free_value_run()
        assert mismatches == [] and resamples > 0

    def test_retry_cap(self):
        # an attempt that never succeeds stops at the cap with a typed error
        calls = []
        with pytest.raises(RetryCapExceeded):
            _resample(lambda: calls.append(1), "never")
        assert len(calls) == 64

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

    # Degree and sha256 of format_poly(witness), recorded when the witness
    # became one kernel vector of the reduced system.  The path counts are
    # of the reduced eliminations: every system of the n = 8 table stays
    # below the int64 size gate, and one probe of the n = 9 half-ones table
    # hands its elimination to Python ints after 90 pivots.
    @pytest.mark.parametrize("n,eighths,seed,degree,digest,int64,handoffs", [
        (8, 4, 81, 4, "25988d87a705c49fc36bc9149a6d1e4f"
                      "5fafb51c94fffdce9a3466f3810cd654", 0, []),
        (9, 1, 91, 6, "f5221bbe415264d3409c917fea5361d6"
                      "0298bb7f03ae62d6e6b5f137611c2d8e", 2, []),
        (9, 4, 94, 5, "f1ad2c601c209449265732e0709bc676"
                      "406f0314ce2900433329cbce63c44b4f", 4, [90]),
        (9, 7, 97, 3, "c8299c9b21c1d4c055dc21977c8c4d8b"
                      "78a6807fde75ee8c7edd4b507b404df9", 1, [])])
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
    "InvalidWitness": (
        polys, "kernel_vector", _outside_kernel, _outside_kernel_probe),
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


def _run_under_O(source):
    path = os.pathsep.join([str(Path(ndqc.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    return subprocess.run([sys.executable, "-O", "-c", source],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_faults_caught_under_python_O():
    # python -O strips assert statements; the typed errors must remain
    proc = _run_under_O(_FAULTS_UNDER_O)
    assert proc.stdout.split() == sorted(_FAULTS), proc.stderr


def test_small_free_values_resample_under_python_O():
    proc = _run_under_O("from test_polys import _small_free_value_run\n"
                        "print(repr(_small_free_value_run()))")
    assert proc.stdout.strip() == repr(([], _small_free_value_run()[1])), \
        proc.stderr

"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run as `pytest tests/test_acceptance.py -v -s`.  Every comparison is exact
(==), with runtime budgets asserted where stated.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ndqc import boolfn, commsim, polys, querysim
from ndqc.boolfn import SymmetricProfile, TruthTable, make_named, \
    random_table, symmetric_profile
from ndqc.polys import DEFAULT_SEED, MultilinearPoly, MONOMIAL

F = Fraction


def _line(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_ndeg_or_and():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 11):
        d_or, cert_or = polys.ndeg(make_named("OR", n))
        d_and, cert_and = polys.ndeg(make_named("AND", n))
        ok = ok and d_or == 1 and d_and == n
        ok = ok and polys.verify_ndet(cert_or.witness, make_named("OR", n))
        ok = ok and polys.verify_ndet(cert_and.witness, make_named("AND", n))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _line(1, f"ndeg(OR_n)=1, ndeg(AND_n)=n, n<=10 ({elapsed:.1f}s)", ok)


def test_criterion_02_query_separation():
    ok = True
    for n in range(2, 11):
        f = make_named("NOT_ONE", n)
        p = polys.weight_offset_poly(n, 1)
        ok = ok and polys.ndeg(f)[0] == 1
        algo = querysim.compile_from_ndet_poly(p, f)
        ok = ok and algo.query_cost == 1
        c2 = F(1) / (F(n * n, 4) - F(3 * n, 4) + 1)
        for x in range(f.size):
            _, acc = querysim.simulate(algo, x)
            ok = ok and acc == c2 * p.evaluate(x) ** 2 / f.size
            ok = ok and (acc > 0) == (x.bit_count() != 1)
        ok = ok and boolfn.n_query(f) == n
    for n in range(2, 6):
        fb = make_named("NOT_ONE", n).complement()
        dc, _ = polys.ndeg(fb)
        ok = ok and dc >= n - 1
        if n == 2:
            w = MultilinearPoly.make(2, MONOMIAL, {1: 1, 2: -1})
            ok = ok and dc == 1 and polys.verify_ndet(w, fb)
    _line(2, "NQ(NOT_ONE)=1 vs N=n; complement >= n-1", ok)


def test_criterion_03_round_trip():
    rng = random.Random(DEFAULT_SEED)
    ok = True
    over_five = 0
    done = 0
    while done < 50:
        n = rng.randint(2, 6)
        f = random_table(n, rng)
        if f.bits == 0:
            continue
        d, cert = polys.ndeg(f, seed=rng.randrange(1 << 30))
        algo = querysim.compile_from_ndet_poly(cert.witness, f)
        q, retries = querysim.extract_ndet_poly_stats(
            algo, f, seed=rng.randrange(1 << 30))
        ok = ok and polys.verify_ndet(q, f)
        ok = ok and q.degree <= cert.witness.degree
        if retries > 5:
            over_five += 1
        done += 1
    ok = ok and over_five == 0
    _line(3, f"compile/symbolic/extract round trip x50 "
             f"(extractions over 5 retries: {over_five})", ok)


def _inequalities_hold(f):
    if f.bits == 0:
        return True
    nd, _ = polys.ndeg(f)
    c0, c1 = boolfn.c_zero(f), boolfn.c_one(f)
    b0 = boolfn.bs_zero(f)
    depth = boolfn.decision_tree_depth(f)
    ones = len(f.ones())
    full = f.bits == (1 << f.size) - 1
    if nd > c1:
        return False
    if not full and c0 > b0 * nd:
        return False
    if not f.is_constant() and depth > c0 * nd:
        return False
    if not f.is_constant() and depth > b0 * nd * nd:
        return False
    if (1 << nd) * ones < f.size:
        return False
    return True


def test_criterion_04_inequality_suite():
    t0 = time.monotonic()
    violations = 0
    for bits in range(256):
        if not _inequalities_hold(TruthTable(3, bits)):
            violations += 1
    rng = random.Random(DEFAULT_SEED)
    for n in (4, 5):
        for _ in range(500):
            if not _inequalities_hold(random_table(n, rng)):
                violations += 1
    for n in range(1, 11):
        for vals in itertools.product((0, 1), repeat=n + 1):
            if not any(vals):
                continue
            prof = SymmetricProfile(n, vals)
            nd = polys.symmetric_ndeg(prof)
            if not (2 * nd >= prof.z and nd <= prof.z):
                violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 300
    _line(4, f"inequality suite, 256+1000 functions + symmetric z-bounds "
             f"n<=10, {violations} violations ({elapsed:.0f}s)", ok)


def test_criterion_05_schwartz():
    rng = random.Random(DEFAULT_SEED)
    violations = 0
    done = 0
    while done < 1000:
        n = rng.randint(1, 10)
        coeffs = {}
        for _ in range(rng.randint(1, 8)):
            mask = rng.randrange(1 << n)
            coeffs[mask] = F(rng.randint(-9, 9), rng.randint(1, 9))
        p = MultilinearPoly.make(n, MONOMIAL, coeffs)
        if p.degree <= 0:
            continue
        pr, bound = polys.schwartz_stats(p)  # raises if pr < bound itself
        if pr < bound:
            violations += 1
        done += 1
    _line(5, f"nonzero-probability bound on 1000 polynomials "
             f"({violations} violations)", violations == 0)


def test_criterion_06_eq_disj_characterization():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 9):
        ev = commsim.full_rank_check(commsim.make_pair_function("EQ", n))
        ok = ok and ev.kind == "DIAGONAL" and ev.nrank == 1 << n
        ev = commsim.full_rank_check(commsim.make_pair_function("DISJ", n))
        ok = ok and ev.kind == "TRIANGULAR" and ev.nrank == 1 << n
        # NQcc = ceil(log nrank) + 1 = n + 1
        ok = ok and commsim.svd_protocol_cost(1 << n) == n + 1
    for n in range(1, 9):
        f = commsim.make_pair_function("EQ", n)
        size = 1 << n
        m = commsim.exact_matrix(
            n, [[1 if x == y else 0 for y in range(size)]
                for x in range(size)], f)
        spec = commsim.svd_protocol(m)
        ok = ok and spec.cost == n + 1
        sweep = commsim.svd_acceptance_sweep(m)
        for x in range(size):
            for y in range(size):
                expect = F(1) if x == y else F(0)  # c_x^2 |M_xy|^2
                ok = ok and sweep[x][y] == expect
        if n <= 3:  # full tensor simulation cross-check
            for x in range(size):
                for y in range(size):
                    acc = commsim.run_protocol(spec, x, y)
                    ok = ok and acc == sweep[x][y]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    _line(6, f"EQ/DISJ nrank=2^n, SVD-EQ exact over all pairs n<=8 "
             f"({elapsed:.0f}s)", ok)


def test_criterion_07_comm_separation():
    ok = True
    for n in range(2, 9):
        f = commsim.make_pair_function("INTERSECT_NOT_ONE", n)
        m = commsim.matrix_from_poly(polys.weight_offset_poly(n, 1), f)
        r = m.rank()
        ok = ok and r <= n + 1
        spec = commsim.svd_protocol(m)
        ok = ok and spec.cost == commsim.svd_protocol_cost(r)
        ok = ok and spec.cost <= n.bit_length() + 1  # ceil(log(n+1)) + 1
        sweep = commsim.svd_acceptance_sweep(m)
        size = 1 << n
        # acceptance = c_x^2 d_y^2 M_xy^2 with c, d > 0, exactly: f(x, 0) =
        # f(0, y) = 1, so c_x^2 d_0^2 and c_0^2 d_y^2 are read off row and
        # column 0
        u = [sweep[x][0] / F(m.entries[x][0]) ** 2 for x in range(size)]
        v = [sweep[0][y] / F(m.entries[0][y]) ** 2 / u[0]
             for y in range(size)]
        ok = ok and all(c > 0 for c in u + v)
        for x in range(size):
            for y in range(size):
                ok = ok and sweep[x][y] == u[x] * v[y] * m.entries[x][y] ** 2
                ok = ok and (sweep[x][y] > 0) == (f.value(x, y) == 1)
    for n in range(2, 11):
        fbar = commsim.make_pair_function(
            "INTERSECT_NOT_ONE", n).complement()
        s = commsim.intersect_complement_fooling_set(n)
        fool, bound = commsim.fooling_set_check(fbar, s)
        ok = ok and fool and bound == 1 << (n - 1)
    _line(7, "intersect-not-one: rank<=n+1 protocol vs 2^(n-1) fooling set",
          ok)


def test_criterion_08_ne_protocol():
    # the rotation by theta, cos theta = 3/5, accepts with probability
    # sin^2((x - y) theta)
    from helpers import sin2_table
    sin2 = sin2_table(1 << 10)
    ok = all((a == 0) == (d == 0) for d, a in enumerate(sin2))
    rng = random.Random(DEFAULT_SEED)
    for n in range(1, 11):
        size = 1 << n
        if n <= 7:
            pairs = list(itertools.product(range(size), repeat=2))
        else:
            # acceptance depends only on x - y (z_x conj(z_y) = 25^y z_(x-y)):
            # every difference from y = 0, plus sampled pairs for the identity
            pairs = [(d, 0) for d in range(size)] + [
                (rng.randrange(size), rng.randrange(size)) for _ in range(256)]
        ok = ok and all(commsim.ne_protocol(n, x, y) == sin2[abs(x - y)]
                        for x, y in pairs)
        spec = commsim.ne_protocol_spec(n)
        for x, y in [(0, 0), (0, size - 1), (size - 1, size - 1),
                     (size // 2, size // 3)] + pairs[-8:]:
            a = commsim.run_protocol(spec, x, y)
            ok = ok and a == sin2[abs(x - y)] and spec.cost == 2
    try:
        commsim.ne_protocol_spec(11)
        ok = False
    except boolfn.CapExceeded:
        pass
    _line(8, "rotation protocol: exact sin^2, zero iff equal, cost 2", ok)


def test_criterion_09_lemma_extraction():
    ok = True
    for n in (2, 3, 4):
        f = commsim.make_pair_function("EQ", n)
        size = 1 << n
        m = commsim.exact_matrix(
            n, [[1 if x == y else 0 for y in range(size)]
                for x in range(size)], f)
        spec = commsim.svd_protocol(m)
        ell = spec.cost
        ok = ok and ell == n + 1
        a_f, b_f = commsim.final_state_families(spec, n)
        m2 = commsim.matrix_from_vector_families(a_f, b_f, f,
                                                 seed=DEFAULT_SEED)
        ok = ok and m2.rank() <= 1 << (ell - 1)
    _line(9, "simulated SVD-EQ -> nondeterministic matrix, rank <= 2^(l-1)",
          ok)


def test_criterion_10_verifier_transform():
    from helpers import or2_verifier
    f = make_named("OR", 2)
    algo = querysim.verifier_to_ndet(or2_verifier(), f)
    _, acc0 = querysim.simulate(algo, 0)
    ok = acc0 == 0
    for x in (1, 2, 3):
        _, acc = querysim.simulate(algo, x)
        ok = ok and acc >= F(1, 3)
    _line(10, "OR_2 verifier transform: >=1/3 on 1-inputs, 0 on 00", ok)


def test_criterion_11_cover_consistency():
    ok = True

    def greedy_fooling_bound(f):
        s = []
        for cand in f.ones():
            if commsim.fooling_set_check(f, s + [cand])[0]:
                s.append(cand)
        return len(s)

    for n in (1, 2):
        size = 1 << n
        for bits in range(1 << (size * size)):
            rows = tuple((bits >> (x * size)) & ((1 << size) - 1)
                         for x in range(size))
            f = commsim.PairTable(n, rows)
            cov = commsim.cover_number(f, 1)
            ok = ok and greedy_fooling_bound(f) <= cov
            if cov:
                ok = ok and commsim.ncc_from_cover(cov) == \
                    (cov - 1).bit_length() + 1
    rng = random.Random(DEFAULT_SEED)
    for _ in range(200):
        f = commsim.PairTable(3, tuple(rng.randrange(256) for _ in range(8)))
        ok = ok and greedy_fooling_bound(f) <= commsim.cover_number(f, 1)
    _line(11, "fooling bounds <= exact Cov^1 (n<=2 exhaustive, n=3 sampled)",
          ok)

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndqc.boolfn import (CLASS_CAP, CapExceeded, NotSymmetric, SubcubeTable,
                         SymmetricProfile, TruthTable, block_sensitivity,
                         bs_one, bs_zero, c_one, c_zero, canonical_tables,
                         certificate_complexity, decision_tree_depth,
                         format_table, make_named, minimal_sensitive_blocks,
                         n_query, parse_table, random_table,
                         symmetric_profile, _pack)
from ndqc.polys import MONOMIAL, MultilinearPoly, nisan_smolensky_procedure

from helpers import act_on_inputs


def all_tables(n):
    return [TruthTable(n, bits) for bits in range(1 << (1 << n))]


# ---------------------------------------------------------------------------
# reference implementations the subcube table is checked against: the
# restriction minimax for D, the per-input subset search for C and the
# per-input submask scan for minimal sensitive blocks


def restrict_var(f, i, b):
    """f with variable i (1-based) fixed to b; later variables move down one.
    Fixing the last variable leaves a constant on one dummy variable."""
    if f.n == 1:
        return TruthTable(1, 0b11 if f.value(b) else 0)
    low = (1 << (i - 1)) - 1
    bits = 0
    for y in range(1 << (f.n - 1)):
        bits |= f.value((y & low) | (b << (i - 1)) | ((y & ~low) << 1)) << y
    return TruthTable(f.n - 1, bits)


def reference_depth(f):
    memo = {}

    def depth(g):
        if g.is_constant():
            return 0
        if (g.n, g.bits) not in memo:
            memo[g.n, g.bits] = min(
                1 + max(depth(restrict_var(g, i, 0)),
                        depth(restrict_var(g, i, 1)))
                for i in range(1, g.n + 1))
        return memo[g.n, g.bits]

    return depth(f)


def constant_on(f, smask, vals):
    """f's value if f is constant on {y : y & smask == vals}, else None."""
    seen = {f.value(y) for y in range(f.size) if y & smask == vals}
    return seen.pop() if len(seen) == 1 else None


def reference_certificate(f, x):
    for k in range(f.n + 1):
        for combo in itertools.combinations(range(f.n), k):
            smask = sum(1 << i for i in combo)
            if constant_on(f, smask, x & smask) == f.value(x):
                return k
    raise AssertionError("the full assignment always certifies")


def reference_minimal_blocks(f, x):
    fx = f.value(x)
    sens = set()
    for block in range(1, f.size):
        if f.value(x ^ block) != fx:
            sens.add(block)
    minimal = []
    for block in sorted(sens, key=lambda b: (b.bit_count(), b)):
        sub = (block - 1) & block
        found = False
        while sub:
            if sub in sens:
                found = True
                break
            sub = (sub - 1) & block
        if not found:
            minimal.append(block)
    return minimal


def reference_packing(blocks):
    """Most pairwise disjoint blocks, taking or skipping each in turn."""
    memo = {}

    def best(i, used):
        if i == len(blocks):
            return 0
        if (i, used) not in memo:
            take = 0 if blocks[i] & used else \
                1 + best(i + 1, used | blocks[i])
            memo[i, used] = max(take, best(i + 1, used))
        return memo[i, used]

    return best(0, 0)


def density_tables(n, count, seed):
    """`count` seeded tables each with about 1/8, 1/2 and 7/8 ones."""
    rng = random.Random(seed)
    return [TruthTable(n, sum(1 << x for x in range(1 << n)
                              if rng.random() < p))
            for p in (0.125, 0.5, 0.875) for _ in range(count)]


class TestNamedFamilies:
    def test_or2_pointwise(self):
        f = make_named("OR", 2)
        assert [f.value(x) for x in range(4)] == [0, 1, 1, 1]

    def test_const0(self):
        f = make_named("CONST0", 3)
        assert f.bits == 0

    def test_not_one_2(self):
        f = make_named("NOT_ONE", 2)
        assert [f.value(x) for x in range(4)] == [1, 0, 0, 1]

    @pytest.mark.parametrize("family", ["OR", "AND", "PARITY", "NOT_ONE"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_definitions(self, family, n):
        f = make_named(family, n)
        for x in range(f.size):
            w = x.bit_count()
            expect = {"OR": w >= 1, "AND": w == n, "PARITY": w % 2 == 1,
                      "NOT_ONE": w != 1}[family]
            assert f.value(x) == int(expect)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_weight_tables_match_comprehension(self, n):
        size = 1 << n
        assert make_named("PARITY", n).bits == sum(
            1 << x for x in range(size) if x.bit_count() % 2)
        assert make_named("NOT_ONE", n).bits == sum(
            1 << x for x in range(size) if x.bit_count() != 1)

    def test_weight_tables_n20_counts(self):
        n = 20
        assert make_named("PARITY", n).bits.bit_count() == 1 << (n - 1)
        not_one = make_named("NOT_ONE", n).bits
        assert not_one.bit_count() == (1 << n) - n
        assert all(not (not_one >> (1 << i)) & 1 for i in range(n))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_named("XOR3", 2)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            make_named("OR", 25)


class TestCertificates:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_or(self, n):
        f = make_named("OR", n)
        assert c_one(f) == 1
        assert c_zero(f) == n

    def test_constant_all_zero_certificates(self):
        f = make_named("CONST1", 3)
        for x in range(8):
            assert certificate_complexity(f, x) == 0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_not_one(self, n):
        f = make_named("NOT_ONE", n)
        assert c_one(f) == n
        assert c_zero(f) == n
        assert n_query(f) == n

    def test_n_query_or(self):
        assert n_query(make_named("OR", 5)) == 1

    def test_n_query_const1(self):
        assert n_query(make_named("CONST1", 3)) == 0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_not_one_complement_also_n(self, n):
        # the separation function satisfies N(f) = N(~f) = n
        assert n_query(make_named("NOT_ONE", n).complement()) == n

    def test_or_complement_certificates(self):
        g = make_named("OR", 5).complement()
        assert c_one(g) == 5 and c_zero(g) == 1

    def test_brute_force_agreement(self):
        # oracle: direct definition, all subsets, all consistent inputs
        rng = random.Random(4)
        for _ in range(30):
            f = random_table(3, rng)
            for x in range(8):
                best = 3
                for k in range(4):
                    hit = False
                    for combo in itertools.combinations(range(3), k):
                        smask = sum(1 << i for i in combo)
                        vals = [f.value(y) for y in range(8)
                                if y & smask == x & smask]
                        if all(v == f.value(x) for v in vals):
                            hit = True
                            break
                    if hit:
                        best = k
                        break
                assert certificate_complexity(f, x) == best


def _nondet_tree_accepts(tree, x, f_n):
    kind = tree[0]
    if kind == "leaf":
        return tree[1]
    _, var, t0, t1 = tree
    return _nondet_tree_accepts(t1 if (x >> var) & 1 else t0, x, f_n)


def _all_trees(n, depth):
    if depth == 0:
        return [("leaf", 0), ("leaf", 1)]
    smaller = _all_trees(n, depth - 1)
    trees = [("leaf", 0), ("leaf", 1)]
    for var in range(n):
        for t0 in smaller:
            for t1 in smaller:
                trees.append(("node", var, t0, t1))
    return trees


def literal_nondet_queries(f):
    """Oracle for N(f): least depth T such that every 1-input is accepted by
    some depth-<=T tree that never accepts a 0-input."""
    ones = f.ones()
    if not ones:
        return 0
    for depth in range(f.n + 1):
        sound = []
        for tree in _all_trees(f.n, depth):
            if all(not _nondet_tree_accepts(tree, x, f.n)
                   for x in f.zeros()):
                sound.append(tree)
        if all(any(_nondet_tree_accepts(t, x, f.n) for t in sound)
               for x in ones):
            return depth
    raise AssertionError


class TestNQueryOracle:
    def test_literal_tree_search_n1_n2(self):
        for n in (1, 2):
            for f in all_tables(n):
                assert n_query(f) == literal_nondet_queries(f)


class TestBlockSensitivity:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_or_at_zero(self, n):
        # singleton blocks {i} are all sensitive and disjoint
        f = make_named("OR", n)
        assert block_sensitivity(f, 0) == n

    def test_constant(self):
        f = make_named("CONST0", 3)
        for x in range(8):
            assert block_sensitivity(f, x) == 0

    def test_and2_bs_zero(self):
        assert bs_zero(make_named("AND", 2)) == 1

    def test_minimality(self):
        f = make_named("PARITY", 3)
        for x in range(8):
            blocks = minimal_sensitive_blocks(f, x)
            assert all(b.bit_count() == 1 for b in blocks)

    def test_brute_force_packing(self):
        rng = random.Random(11)
        for _ in range(20):
            f = random_table(3, rng)
            for x in range(8):
                blocks = minimal_sensitive_blocks(f, x)
                best = 0
                for r in range(len(blocks), 0, -1):
                    for combo in itertools.combinations(blocks, r):
                        used = 0
                        ok = True
                        for b in combo:
                            if used & b:
                                ok = False
                                break
                            used |= b
                        if ok:
                            best = r
                            break
                    if best:
                        break
                assert block_sensitivity(f, x) == best


class TestDepth:
    def test_or3(self):
        assert decision_tree_depth(make_named("OR", 3)) == 3

    def test_constant(self):
        assert decision_tree_depth(make_named("CONST1", 4)) == 0

    def test_dictator(self):
        # f(x) = x1 on two variables
        f = TruthTable(2, 0b1010)
        assert decision_tree_depth(f) == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            decision_tree_depth(make_named("OR", 6))


class TestRestrict:
    """Hand-worked cases of `restrict_var`, under the reference depth."""

    def test_or2_fix_one(self):
        r = restrict_var(make_named("OR", 2), 1, 1)
        assert r.n == 1 and r.bits == 0b11

    def test_or2_fix_zero(self):
        r = restrict_var(make_named("OR", 2), 1, 0)
        assert r.n == 1 and r.bits == 0b10  # identity on x2

    def test_not_one3(self):
        r = restrict_var(make_named("NOT_ONE", 3), 3, 1)
        assert r.bits == make_named("OR", 2).bits

    def test_all_fixed_gives_constant(self):
        r = restrict_var(restrict_var(make_named("PARITY", 2), 1, 1), 1, 0)
        assert r.is_constant() and r.value(0) == 1


class TestSubcubeTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_reference(self, n):
        # every table for n <= 3; sparse, half and dense samples above
        tables = all_tables(n) if n <= 3 else density_tables(n, 10, n)
        for f in tables:
            cubes = SubcubeTable(f)
            certs = [reference_certificate(f, x) for x in range(f.size)]
            assert [cubes.certificate(x) for x in range(f.size)] == certs
            for b in (0, 1):
                assert cubes.c_max(b) == max(
                    (c for x, c in enumerate(certs) if f.value(x) == b),
                    default=0)
            assert cubes.depth() == reference_depth(f)
            for smask in range(f.size):
                for vals in range(f.size):
                    if vals & ~smask == 0:
                        assert cubes.const(smask, vals) == \
                            constant_on(f, smask, vals)

    @pytest.mark.parametrize("n", [10, 12])
    @pytest.mark.parametrize("family", ["OR", "AND", "PARITY", "NOT_ONE"])
    def test_named_families(self, n, family):
        expect = {"OR": (n, 1), "AND": (1, n), "PARITY": (n, n),
                  "NOT_ONE": (n, n)}[family]
        f = make_named(family, n)
        assert (c_zero(f), c_one(f)) == expect

    def test_measure_chain(self):
        # bs_b <= C_b <= D <= C0 * C1 on sampled tables
        rng = random.Random(9)
        for n in range(1, 6):
            for f in [random_table(n, rng) for _ in range(12)] + \
                    density_tables(n, 2, 100 + n):
                cubes = SubcubeTable(f)
                c0, c1, d = cubes.c_max(0), cubes.c_max(1), cubes.depth()
                assert bs_zero(f) <= c0 <= d and bs_one(f) <= c1 <= d
                assert d <= c0 * c1

    def test_caps(self):
        f = make_named("OR", 13)
        with pytest.raises(CapExceeded):
            certificate_complexity(f, 0)
        with pytest.raises(CapExceeded):
            nisan_smolensky_procedure(
                f, MultilinearPoly.make(13, MONOMIAL, {1: 1}))


class TestTableBlockSensitivity:
    """Minimal blocks read off the subcube table against the submask scan."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_reference(self, n):
        # every table for n <= 3; sparse, half and dense samples above
        tables = all_tables(n) if n <= 3 else density_tables(n, 10, 20 + n)
        for f in tables:
            blocks = [reference_minimal_blocks(f, x) for x in range(f.size)]
            bs = [reference_packing(b) for b in blocks]
            for x in range(f.size):
                assert minimal_sensitive_blocks(f, x) == blocks[x]
                assert block_sensitivity(f, x) == bs[x]
            assert bs_zero(f) == max(
                (v for x, v in enumerate(bs) if not f.value(x)), default=0)
            assert bs_one(f) == max(
                (v for x, v in enumerate(bs) if f.value(x)), default=0)

    def test_every_input_n10(self):
        # 1,024 inputs of 1,023 blocks: 64 passes, so chunk edges are read
        f = random_table(10, random.Random(10))
        got = list(SubcubeTable(f).minimal_blocks(range(f.size)))
        assert got == [reference_minimal_blocks(f, x) for x in range(f.size)]

    def test_pruned_max_equals_full_scan(self):
        # bs_max stops once C_x <= the best packing; the full scan packs
        # every b-input.  On 0xe8818117 (n = 5) every 0-input has
        # bs_x = 3 < C_x = 4, so no 0-input can end the scan early.
        tables = [TruthTable(5, 0xe8818117)]
        tables += [f for n in range(4, 10) for f in density_tables(n, 1, n)]
        for f in tables:
            cubes = SubcubeTable(f)
            for b in (0, 1):
                xs = [x for x in range(f.size) if f.value(x) == b]
                full = max((_pack(blocks, f.n) for blocks
                            in cubes.minimal_blocks(xs)), default=0)
                assert cubes.bs_max(b) == full
        cubes = SubcubeTable(tables[0])
        assert cubes.bs_max(0) == 3 and cubes.c_max(0) == 4

    @pytest.mark.parametrize("n", [8, 10])
    @pytest.mark.parametrize("family", ["OR", "AND", "PARITY", "NOT_ONE"])
    def test_named_families(self, n, family):
        expect = {"OR": (n, 1), "AND": (1, n), "PARITY": (n, n),
                  "NOT_ONE": (n, n)}[family]
        f = make_named(family, n)
        assert (bs_zero(f), bs_one(f)) == expect

    def test_caps(self):
        f = make_named("OR", 13)
        for fn in (bs_zero, bs_one):
            with pytest.raises(CapExceeded, match=r"^block sensitivity "
                               r"maxima capped at n<=12$"):
                fn(f)
        for fn in (minimal_sensitive_blocks, block_sensitivity):
            with pytest.raises(CapExceeded, match=r"^block sensitivity "
                               r"capped at n<=12$"):
                fn(f, 0)


class TestSymmetricProfile:
    def test_and3(self):
        prof = symmetric_profile(make_named("AND", 3))
        assert prof.zero_weights == (0, 1, 2) and prof.z == 3

    def test_parity2(self):
        prof = symmetric_profile(make_named("PARITY", 2))
        assert prof.zero_weights == (0, 2) and prof.z == 2

    def test_or2(self):
        assert symmetric_profile(make_named("OR", 2)).zero_weights == (0,)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_profile(TruthTable(2, 0b1010))

    def test_round_trip(self):
        for n in (1, 2, 3):
            for vals in itertools.product((0, 1), repeat=n + 1):
                prof = SymmetricProfile(n, vals)
                assert symmetric_profile(prof.to_table()).values == vals


def reference_symmetric_profile(f):
    """The per-input shift scan `symmetric_profile` replaced."""
    values = [None] * (f.n + 1)
    for x in range(f.size):
        w = x.bit_count()
        v = f.value(x)
        if values[w] is None:
            values[w] = v
        elif values[w] != v:
            raise NotSymmetric(f"inputs of weight {w} disagree")
    return SymmetricProfile(f.n, tuple(values))


class TestTableScans:
    """ones, zeros and symmetric_profile against the per-input shift scans
    they replaced, on seeded, constant and symmetric tables."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_match_shift_scans(self, n):
        rng = random.Random(n)
        full = (1 << (1 << n)) - 1
        profile = tuple(rng.randrange(2) for _ in range(n + 1))
        tables = [random_table(n, rng), TruthTable(n, 0), TruthTable(n, full),
                  SymmetricProfile(n, profile).to_table()]
        for f in tables:
            assert f.ones() == [x for x in range(f.size) if (f.bits >> x) & 1]
            assert f.zeros() == [x for x in range(f.size)
                                 if not (f.bits >> x) & 1]
            try:
                expect = reference_symmetric_profile(f)
            except NotSymmetric as e:
                with pytest.raises(NotSymmetric, match=f"^{e}$"):
                    symmetric_profile(f)
            else:
                assert symmetric_profile(f) == expect
        assert symmetric_profile(tables[-1]).values == profile


class TestCanonicalTables:
    @pytest.mark.parametrize("n,classes", [(1, 3), (2, 6), (3, 22), (4, 402)])
    def test_class_counts_and_idempotent(self, n, classes):
        canon = canonical_tables(n)
        assert len(canon) == 1 << (1 << n)
        assert len(np.unique(canon)) == classes
        assert np.array_equal(canon[canon], canon)
        assert (canon <= np.arange(len(canon))).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_least_in_brute_force_orbit(self, n):
        canon = canonical_tables(n).tolist()
        seen = set()
        for f in all_tables(n):
            if f.bits in seen:
                continue
            orbit = {act_on_inputs(f, perm, mask).bits
                     for perm in itertools.permutations(range(1, n + 1))
                     for mask in range(f.size)}
            seen |= orbit
            assert {canon[b] for b in orbit} == {min(orbit)}
        assert len(seen) == len(canon)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            canonical_tables(CLASS_CAP + 1)

    def test_permute_matches_variable_loop(self):
        rng = random.Random(11)
        for n in range(1, 9):
            f = random_table(n, rng)
            perm = rng.sample(range(1, n + 1), n)
            bits = 0
            for x in range(f.size):
                old = sum(1 << (perm[i] - 1) for i in range(n) if (x >> i) & 1)
                bits |= f.value(old) << x
            assert f.permute(perm) == TruthTable(n, bits)

    def test_permute_rejects_non_permutations(self):
        f = make_named("AND", 3)
        for perm in ((1, 2), (1, 1, 2), (0, 1, 2), (1, 2, 4)):
            with pytest.raises(ValueError, match="not a permutation"):
                f.permute(perm)
        assert f.permute((3, 1, 2)) == f


class TestInvariants:
    def test_bs_le_cert_le_n(self):
        for f in all_tables(3):
            for x in range(8):
                bs = block_sensitivity(f, x)
                cx = certificate_complexity(f, x)
                assert bs <= cx <= 3

    def test_depth_ge_certificates_sampled_n4(self):
        rng = random.Random(2)
        for _ in range(40):
            f = random_table(4, rng)
            d = decision_tree_depth(f)
            assert d >= max(c_zero(f), c_one(f))

    def test_complement_swaps(self):
        rng = random.Random(3)
        for _ in range(25):
            f = random_table(3, rng)
            g = f.complement()
            assert c_zero(g) == c_one(f) and c_one(g) == c_zero(f)
            assert bs_zero(g) == bs_one(f) and bs_one(g) == bs_zero(f)
            assert decision_tree_depth(g) == decision_tree_depth(f)

    def test_permutation_invariance(self):
        rng = random.Random(5)
        perms = list(itertools.permutations(range(1, 4)))
        for _ in range(10):
            f = random_table(3, rng)
            for perm in perms:
                g = f.permute(perm)
                assert decision_tree_depth(g) == decision_tree_depth(f)
                assert c_one(g) == c_one(f) and c_zero(g) == c_zero(f)
                assert bs_zero(g) == bs_zero(f)

    def test_double_complement(self):
        rng = random.Random(6)
        for _ in range(20):
            f = random_table(4, rng)
            assert f.complement().complement() == f


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(min_value=0, max_value=255),
       var=st.integers(min_value=1, max_value=3),
       val=st.integers(min_value=0, max_value=1))
def test_restrict_commutes_with_complement(bits, var, val):
    f = TruthTable(3, bits)
    assert restrict_var(f.complement(), var, val) == \
        restrict_var(f, var, val).complement()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_format_round_trip(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    f = TruthTable(n, bits)
    assert parse_table(format_table(f)) == f


def test_format_round_trip_n20():
    f = random_table(20, random.Random(20))
    text = format_table(f)
    assert len(text) == len("n=20;hex=") + (1 << 18)
    assert parse_table(text) == f


@pytest.mark.parametrize("text", ["n=4;hex=1_23", "n=3;hex= 1", "n=3;hex=+1",
                                  "n=3;hex=-1"])
def test_parse_table_rejects_what_int_accepts(text):
    # int(..., 16) takes "_", a sign and surrounding spaces
    with pytest.raises(ValueError, match="digits must be"):
        parse_table(text)


def test_parse_table_rejects_garbage():
    for bad in ("", "n=2;hex=", "hex=6;n=2", "n=2;hex=666", "n=a;hex=6",
                "n=0;hex=0", "n=1000000000000;hex=0"):
        with pytest.raises(ValueError):
            parse_table(bad)

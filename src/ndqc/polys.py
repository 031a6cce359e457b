"""Exact multilinear polynomial arithmetic and the nondeterministic degree engine.

Polynomials live over the rationals in one of two bases:

* MONOMIAL: p(x) = sum_S a_S * prod_{i in S} x_i
* FOURIER:  p(x) = sum_S c_S * (-1)^{|x & S|}

A variable-index set S is packed as a bitmask with x_1 at bit 0, matching the
truth-table encoding.  Multiplication reduces multilinearly (x_i^2 = x_i),
which is sound because polynomials are only ever evaluated on {0,1}^n.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from numbers import Rational

import numpy as np

from .boolfn import (CERT_MAX_CAP, CapExceeded, SubcubeTable, SymmetricProfile,
                     TruthTable)
from .linalg import (_residual, echelon, full_column_rank_mod_p,
                     kernel_vector, staircase_column)
# no caller here: kept as a name the perfbench tracer requires to rebind
# (perfbench/tracer.py MUST_REBIND)
from .linalg import nullspace  # noqa: F401

MONOMIAL = "MONOMIAL"
FOURIER = "FOURIER"

POLY_TABLE_CAP = 16   # operations that touch all 2^n points
NDEG_CAP = 11
# Below this many cells the exact Bareiss rank is quicker than numpy's
# per-pivot cost in `full_column_rank_mod_p`.
_MOD_P_MIN_CELLS = 256
DEFAULT_SEED = 20030  # all randomized constructions default to this stream


class EngineInvariantBroken(RuntimeError):
    """An exact engine reached a state its invariants rule out: a bug."""


class IdenticallyZero(ValueError):
    """No nondeterministic polynomial exists for the all-zero function."""


class ConstantPolynomial(ValueError):
    """The nonzero-probability bound needs a nonconstant polynomial."""


class InvalidWitness(ValueError):
    """A polynomial failed its nonzero-pattern check against the function."""


class RetryCapExceeded(CapExceeded):
    """A randomized construction failed 64 attempts in a row."""


class InterpolationMismatch(ValueError):
    """An interpolated polynomial disagrees with its truth table."""


class NonzeroBoundViolation(ValueError):
    """A polynomial is nonzero on fewer than 2^-deg of the Boolean points."""


class RoundInvariantViolation(ValueError):
    """The Nisan-Smolensky procedure broke one of its round invariants."""


@dataclass(frozen=True, eq=True)
class MultilinearPoly:
    """Coefficients nums[S] / den: nums maps mask -> nonzero int, den > 0
    and gcd(den, *nums) = 1, so equal polynomials are equal dataclasses."""

    n: int
    basis: str
    nums: dict
    den: int = 1

    @staticmethod
    def make(n: int, basis: str, coeffs) -> "MultilinearPoly":
        """From rational (int or Fraction) coefficients, mask -> value."""
        if basis not in (MONOMIAL, FOURIER):
            raise ValueError(f"unknown basis {basis!r}")
        coeffs = dict(coeffs)
        for mask, c in coeffs.items():
            if not 0 <= mask < (1 << n):
                raise ValueError(f"monomial mask {mask} out of range for n={n}")
            if not isinstance(c, Rational):
                raise TypeError(f"coefficient {c!r} is not rational")
        den = lcm(*(c.denominator for c in coeffs.values()))
        return _canonical(n, basis, {
            int(m): int(c.numerator) * (den // c.denominator)
            for m, c in coeffs.items() if c}, den)

    @staticmethod
    def constant(n: int, value, basis: str = MONOMIAL) -> "MultilinearPoly":
        return MultilinearPoly.make(n, basis, {0: value})

    @property
    def coeffs(self) -> dict:
        """Read-only rational view, mask -> Fraction."""
        return dict(zip(self.nums, _over(self.nums.values(), self.den)))

    @property
    def degree(self) -> int:
        """Max |S| with nonzero coefficient; -1 for the zero polynomial."""
        return max((m.bit_count() for m in self.nums), default=-1)

    def is_zero(self) -> bool:
        return not self.nums

    def _num_at(self, x: int) -> int:
        """den * p(x), an integer."""
        if self.basis == MONOMIAL:
            return sum(c for m, c in self.nums.items() if m & x == m)
        return sum(-c if (m & x).bit_count() & 1 else c
                   for m, c in self.nums.items())

    def evaluate(self, x: int) -> Fraction:
        return Fraction(self._num_at(x), self.den)

    def _int_values(self):
        """(vals, den): den * p(x) at every point of {0,1}^n, as ints."""
        if self.n > POLY_TABLE_CAP:
            raise CapExceeded(f"full evaluation capped at n<={POLY_TABLE_CAP}")
        arr = [0] * (1 << self.n)
        for m, c in self.nums.items():
            arr[m] = c
        if self.basis == MONOMIAL:
            _zeta_inplace(arr, self.n)
        else:
            _wht_inplace(arr, self.n)
        return arr, self.den

    def values(self) -> list:
        """Value at every point of {0,1}^n, indexed by input mask."""
        return _over(*self._int_values())

    # -- arithmetic ---------------------------------------------------------

    def _binop(self, other, sign):
        if not isinstance(other, MultilinearPoly):
            other = MultilinearPoly.constant(self.n, other, self.basis)
        if other.n != self.n or other.basis != self.basis:
            raise ValueError("operands must share n and basis")
        return _combine(self.n, self.basis, ((1, self), (sign, other)))

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k) -> "MultilinearPoly":
        """k * p for a rational (int or Fraction) k."""
        return _combine(self.n, self.basis, ((k, self),))

    def __mul__(self, other):
        if not isinstance(other, MultilinearPoly):
            return self.scale(other)
        if other.n != self.n or other.basis != self.basis:
            raise ValueError("operands must share n and basis")
        union = self.basis == MONOMIAL
        out = {}
        for ma, ca in self.nums.items():
            for mb, cb in other.nums.items():
                m = ma | mb if union else ma ^ mb
                out[m] = out.get(m, 0) + ca * cb
        return _canonical(self.n, self.basis,
                          {m: c for m, c in out.items() if c},
                          self.den * other.den)

    __rmul__ = __mul__

    def __str__(self):
        return format_poly(self)


def _canonical(n, basis, nums, den):
    """The polynomial nums / den (nonzero ints, den > 0), with the common
    factor of den and every numerator divided out."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    return MultilinearPoly(n, basis, nums, den)


def _combine(n, basis, terms):
    """sum of k * p over (k, p) in terms, for rational k, over one common
    denominator."""
    terms = [(k, p) for k, p in terms if k and p.nums]
    den = lcm(*(k.denominator * p.den for k, p in terms))
    out = {}
    for k, p in terms:
        f = k.numerator * (den // (k.denominator * p.den))
        if not out:   # the first term; every term here is nonzero
            out = {m: f * c for m, c in p.nums.items()}
            continue
        for m, c in p.nums.items():
            out[m] = out.get(m, 0) + f * c
    return _canonical(n, basis, {m: c for m, c in out.items() if c}, den)


def _over(nums, den):
    """Each integer numerator over den, as a Fraction."""
    return [Fraction(c, den) for c in nums]


# ---------------------------------------------------------------------------
# exact transforms on full value tables


def _zeta_inplace(arr, n):
    """Subset sums: arr[x] <- sum_{S subseteq x} arr[S]."""
    for i in range(n):
        bit = 1 << i
        for x in range(len(arr)):
            if x & bit:
                arr[x] += arr[x ^ bit]


def _mobius_inplace(arr, n):
    """Inverse of the subset-sum transform."""
    for i in range(n):
        bit = 1 << i
        for x in range(len(arr)):
            if x & bit:
                arr[x] -= arr[x ^ bit]


def _wht_inplace(arr, n):
    """Walsh-Hadamard butterfly: arr[x] <- sum_S arr[S] * (-1)^{|x & S|}."""
    for i in range(n):
        bit = 1 << i
        for x in range(len(arr)):
            if not x & bit:
                a, b = arr[x], arr[x | bit]
                arr[x] = a + b
                arr[x | bit] = a - b


def exact_poly(f: TruthTable) -> MultilinearPoly:
    """The unique multilinear polynomial agreeing with f on {0,1}^n."""
    if f.n > POLY_TABLE_CAP:
        raise CapExceeded(f"interpolation capped at n<={POLY_TABLE_CAP}")
    table = list(map(int, f._bit_string()))
    arr = table.copy()
    _mobius_inplace(arr, f.n)
    p = MultilinearPoly(f.n, MONOMIAL, {m: c for m, c in enumerate(arr) if c})
    vals, _ = p._int_values()
    if vals != table:
        raise InterpolationMismatch("interpolant disagrees with the table")
    return p


def to_fourier(p: MultilinearPoly) -> MultilinearPoly:
    """Rewrite a monomial-basis polynomial in the Fourier basis (exact)."""
    if p.basis != MONOMIAL:
        raise ValueError("expected monomial basis")
    vals, den = p._int_values()
    _wht_inplace(vals, p.n)  # self-inverse up to 2^n
    return _canonical(p.n, FOURIER, {m: v for m, v in enumerate(vals) if v},
                      den << p.n)


def from_fourier(p: MultilinearPoly) -> MultilinearPoly:
    """Rewrite a Fourier-basis polynomial in the monomial basis (exact)."""
    if p.basis != FOURIER:
        raise ValueError("expected Fourier basis")
    vals, den = p._int_values()
    _mobius_inplace(vals, p.n)
    return _canonical(p.n, MONOMIAL, {m: v for m, v in enumerate(vals) if v},
                      den)


def verify_ndet(p: MultilinearPoly, f: TruthTable) -> bool:
    """Exact pointwise check: p(x) != 0 iff f(x) = 1, over all 2^n inputs."""
    if p.n != f.n:
        return False
    vals, _ = p._int_values()
    return all(bool(v) == (c == "1") for v, c in zip(vals, f._bit_string()))


def weight_offset_poly(n: int, k: int = 0) -> MultilinearPoly:
    """(sum_i x_i) - k in the monomial basis."""
    coeffs = {1 << i: 1 for i in range(n)}
    if k:
        coeffs[0] = -k
    return MultilinearPoly.make(n, MONOMIAL, coeffs)


# ---------------------------------------------------------------------------
# nondeterministic degree


@dataclass(frozen=True)
class NdegCertificate:
    """Outcome of a single degree-feasibility decision.

    Exactly one of witness/evidence is set: a verified nondeterministic
    polynomial of the probed degree, or a 1-input at which every degree-d
    polynomial vanishing on f^{-1}(0) vanishes too.
    """

    degree: int
    witness: MultilinearPoly | None
    evidence: int | None
    resamples: int = 0

    @property
    def feasible(self) -> bool:
        return self.witness is not None


def _resample(attempt, what):
    """(result, failed attempts) for the first attempt() that is not None.

    Callers' attempts each succeed with probability > 1/2, so 64 failures in
    a row (odds below 2^-64) mean a fault, not bad luck.
    """
    for failed in range(64):
        out = attempt()
        if out is not None:
            return out, failed
    raise RetryCapExceeded(f"{what}: 64 random attempts in a row failed")


def _ball_weights(n, d):
    """K[a][b] = (-1)^(d-b) * C(a-b-1, d-b) for d < a <= n and b <= d: the
    weight of p(x) in p(y) for x subseteq y, |x| = b, |y| = a, when p has
    degree <= d (see `ndeg_decide`); rows a <= d are zero."""
    return [[(-1) ** (d - b) * comb(a - b - 1, d - b) if a > d else 0
             for b in range(d + 1)] for a in range(n + 1)]


def _reduced_system(f, d, weights):
    """(low ones, rows) of `ndeg_decide`'s reduced system as an int64
    array: a row per high zero y, a column per low one x, entry
    weights[|y|][|x|] * [x subseteq y].  Rows go by weight, the sparse ones
    first, which keeps the Bareiss entries in int64 for more pivots."""
    low = [x for x in f.ones() if x.bit_count() <= d]
    cols = np.array(low, dtype=np.int64)
    ys = np.array(sorted((y for y in f.zeros() if y.bit_count() > d),
                         key=int.bit_count), dtype=np.int64)
    k = np.array(weights, dtype=np.int64)
    rows = np.where((ys[:, None] & cols) == cols,
                    k[np.bitwise_count(ys)[:, None], np.bitwise_count(cols)],
                    0)
    return low, rows


def ndeg_decide(f: TruthTable, d: int, seed: int = DEFAULT_SEED,
                rng: random.Random | None = None) -> NdegCertificate:
    """Decide whether f admits a nondeterministic polynomial of degree <= d.

    Feasibility criterion: with V_d the space of degree-<=d multilinear
    polynomials vanishing on f^{-1}(0), f has a witness iff no 1-input's
    evaluation functional vanishes on all of V_d.

    A polynomial p of degree <= d is fixed by its values on the Hamming
    ball L = {x : |x| <= d}: by Möbius inversion (Rota) and
    sum_{k<=m} (-1)^k C(N, k) = (-1)^m C(N-1, m), for |y| > d

        p(y) = sum_{x subseteq y, |x| <= d} K_d(|y|, |x|) * p(x),
        K_d(a, b) = (-1)^(d-b) * C(a-b-1, d-b).

    So V_d is the kernel of the reduced system: its unknowns are p on the
    low ones (the 1-inputs in L; p is 0 on the low zeros), and it has one
    row per high zero y (|y| > d, f(y) = 0) with entries
    K_d(|y|, |x|) * [x subseteq y].  A 1-input's functional is a unit
    vector if the input is low and its K-row if it is high.

    One elimination gives the echelon rows.  An empty kernel gives the
    evidence ones[0] with no random draw.  Otherwise each attempt solves one
    kernel vector with free values in {1..2^(n+1)}, puts it on L, keeps the
    Möbius coefficients of degree <= d and evaluates them.  If the result
    vanishes at some 1-inputs, the first of them (in `ones` order) whose
    functional reduces to zero against the echelon rows is the evidence:
    every vector of V_d vanishes there, so it is the first such 1-input.
    If none does, the vector is redrawn.  A vector nonzero on all of
    f^{-1}(1) is the witness, checked by `verify_ndet`.
    """
    if f.n > NDEG_CAP:
        raise CapExceeded(f"ndeg capped at n<={NDEG_CAP}")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    ones = f.ones()
    if not ones:
        raise IdenticallyZero("no nondeterministic polynomial for f == 0")
    n = f.n
    weights = _ball_weights(n, d)
    low, rows = _reduced_system(f, d, weights)
    ech, pivots = echelon(rows, len(low))
    nfree = len(low) - len(pivots)
    if not nfree:
        return NdegCertificate(d, None, ones[0])
    rng = rng or random.Random(seed)
    bound = 1 << (n + 1)

    def functional(x):
        if x.bit_count() <= d:
            return [int(t == x) for t in low]
        row = weights[x.bit_count()]
        return [row[t.bit_count()] if t & x == t else 0 for t in low]

    def attempt():
        vec = kernel_vector(ech, pivots, len(low),
                            [rng.randint(1, bound) for _ in range(nfree)])
        arr = [0] * f.size
        for x, v in zip(low, vec):
            arr[x] = v
        _mobius_inplace(arr, n)
        witness = MultilinearPoly(n, MONOMIAL, {
            m: c for m, c in enumerate(arr) if c and m.bit_count() <= d})
        vals, _ = witness._int_values()
        missed = [x for x in ones if not vals[x]]
        if not missed:
            return witness
        return next((x for x in missed
                     if not any(_residual(ech, pivots, functional(x)))),
                    None)

    out, resamples = _resample(attempt, "kernel vector")
    if isinstance(out, int):
        return NdegCertificate(d, None, out)
    if not verify_ndet(out, f):
        raise InvalidWitness("sampled witness failed exact verification")
    return NdegCertificate(d, out, None, resamples)


def ndeg(f: TruthTable, seed: int = DEFAULT_SEED):
    """Smallest degree admitting a nondeterministic polynomial, with certificate.

    Scans d upward; raises IdenticallyZero for f == 0.  The probes it skips
    have V_d = {0}: they would return ones[0] with no random draw, so the
    probes it runs see the same random stream.  Below d0 = n - floor(log2
    |f^{-1}(1)|), V_d = {0} (Nisan-Szegedy: a nonzero p of degree <= d is
    nonzero on 2^(n-d) > |f^{-1}(1)| inputs or more).  The reduced system
    (see `ndeg_decide`) has no more low ones than high zeros exactly for
    d <= t, as the first count rises with d and the second falls.  If
    t > d0 and the system at t has full column rank, V_t = {0}, and V_d
    lies in V_(d+1), so the scan starts at t + 1.  A large system's rank is
    shown by `full_column_rank_mod_p`, whose True is a proof; on False the
    scan starts at d0.
    """
    if f.n > NDEG_CAP:
        raise CapExceeded(f"ndeg capped at n<={NDEG_CAP}")
    rng = random.Random(seed)
    n = f.n
    ones = f.ones()
    start = n + 1 - len(ones).bit_length()
    ones_at = [0] * (n + 1)
    for x in ones:
        ones_at[x.bit_count()] += 1
    t, low, high = -1, 0, f.size - len(ones)
    for d in range(n + 1):
        low += ones_at[d]
        high -= comb(n, d) - ones_at[d]
        if low > high:
            break
        t = d
    if t > start:
        cols, rows = _reduced_system(f, t, _ball_weights(n, t))
        if rows.size >= _MOD_P_MIN_CELLS:
            full = full_column_rank_mod_p(rows, len(cols))
        else:
            full = len(echelon(rows, len(cols))[1]) == len(cols)
        if full:
            start = t + 1
    # f == 0 gives start = n + 1; probing d = n raises its typed error
    for d in range(min(start, n), n + 1):
        cert = ndeg_decide(f, d, rng=rng)
        if cert.feasible:
            return d, cert
    raise EngineInvariantBroken("degree n is always feasible for f != 0")


# ---------------------------------------------------------------------------
# symmetric functions: product witness and a fast exact ndeg


def symmetric_ndet_poly(prof: SymmetricProfile) -> MultilinearPoly:
    """(|x| - k_1)...(|x| - k_z), multilinearized; degree <= z."""
    if all(v == 0 for v in prof.values):
        raise IdenticallyZero("no nondeterministic polynomial for f == 0")
    p = MultilinearPoly.constant(prof.n, 1)
    for k in prof.zero_weights:
        p = p * weight_offset_poly(prof.n, k)
    return p


def symmetric_ndeg(prof: SymmetricProfile) -> int:
    """Exact ndeg of a symmetric function, by per-weight-level collapse.

    For a level-w 1-input, the evaluation functional vanishes on V_d iff it
    vanishes on the subspace invariant under permutations fixing that input
    blockwise; invariant polynomials are spanned by the monomial orbit sums
    with a variables from the first w and b from the rest, so each level
    reduces to an exact integer system on (a, b) pairs.  Columns are ordered
    by total degree, so one staircase elimination answers every d at once.

    ndeg is the max over 1-levels of that level's least degree dmin(w), and
    `_level_bound` gives ub = z >= dmin(w) without an elimination, once its
    product is checked: degree ub, a factor vanishing on each zero diagonal
    s + t = k, and none at (w, 0) for a 1-level w.  So each level is
    eliminated only on its columns of degree below ub, and the scan stops
    at the first level that reaches ub.
    """
    zeros = prof.zero_weights
    one_levels = [w for w in range(prof.n + 1) if w not in zeros]
    if not one_levels:
        raise IdenticallyZero("no nondeterministic polynomial for f == 0")
    ub, factors = _level_bound(zeros)
    diagonals = {k // a for a, b, k in factors if a == b != 0 and not k % a}
    if (len(factors) != ub or not diagonals.issuperset(zeros)
            or any(a * w == k for a, _, k in factors for w in one_levels)):
        raise EngineInvariantBroken(f"level bound {ub} not certified")
    best = 0
    for w in one_levels:
        best = max(best, _level_dmin(prof.n, zeros, w, ub))
        if best == ub:
            break
    return best


def _level_bound(zero_weights):
    """(ub, factors): ub = z bounds every level's dmin(w), by the product
    prod_{k in Z} (s + t - k) over the zero weights Z, with factors its
    linear forms, (a, b, k) standing for a * s + b * t - k.  It vanishes
    on the zero points of every box and not at (w, 0) for a 1-level w, and
    lies in the span of the columns C(s, a) * C(t, b) with a + b <= z.
    Trading the factors below w for prod_{i<=c} (s - i), or those above
    for prod_{r<=j<=n-w} (t - j), never lowers the degree.
    """
    return len(zero_weights), [(1, 1, k) for k in zero_weights]


@lru_cache(maxsize=32)     # every box of one n <= 24
def _level_box(w, m):
    """The columns (a, b), a <= w, b <= m, by total degree; below[d], the
    number of columns of degree below d; and grid[s][t], the row
    C(s, a) * C(t, b) of the grid point (s, t) on those columns."""
    cols = sorted(((a, b) for a in range(w + 1) for b in range(m + 1)),
                  key=lambda ab: (ab[0] + ab[1], ab[0], ab[1]))
    below = [sum(a + b < d for a, b in cols) for d in range(w + m + 2)]
    k = max(w, m)
    binom = [[comb(s, a) for a in range(k + 1)] for s in range(k + 1)]
    grid = [[[binom[s][a] * binom[t][b] for a, b in cols]
             for t in range(m + 1)] for s in range(w + 1)]
    return cols, below, grid


def _level_dmin(n, zeros, w, ub=None):
    """dmin(w): the least degree of a combination of the level's columns
    that vanishes on the zero points of its box and not at (w, 0).

    Given a proven ub >= dmin(w), only the columns of degree e < ub are
    eliminated, and no independent one means dmin = ub.  Each zero
    diagonal s + t = k keeps e + 1 points, since on those columns it
    carries a polynomial of degree <= e in s.  No ub: all columns and
    points."""
    if not zeros:
        return 0
    m = n - w
    cols, below, grid = _level_box(w, m)
    e = n if ub is None else ub - 1     # the highest column degree kept
    width = below[e + 1]
    rows = []
    for k in zeros:
        lo = max(0, k - m)
        rows += [grid[s][k - s][:width]
                 for s in range(lo, min(w, k, lo + e) + 1)]
    j = staircase_column(rows, width, grid[w][0][:width])
    if j is not None:
        a, b = cols[j]
        return a + b
    if ub is None:
        raise EngineInvariantBroken("level is always feasible at degree n")
    return ub


# ---------------------------------------------------------------------------


def schwartz_stats(p: MultilinearPoly):
    """(Pr[p != 0 on a random Boolean point], 2^-deg(p)); raises
    NonzeroBoundViolation unless pr >= bound."""
    if p.degree <= 0:
        raise ConstantPolynomial("nonzero-probability bound needs deg >= 1")
    if p.n > POLY_TABLE_CAP:
        raise CapExceeded(
            f"exhaustive evaluation capped at n<={POLY_TABLE_CAP}")
    vals, _ = p._int_values()
    pr = Fraction(sum(1 for v in vals if v), len(vals))
    bound = Fraction(1, 1 << p.degree)
    if pr < bound:
        raise NonzeroBoundViolation("nonzero-probability bound violated")
    return pr, bound


def _restrict_coeffs(coeffs, var_bit, value):
    out = {}
    for m, c in coeffs.items():
        if m & var_bit and not value:
            continue
        key = m & ~var_bit
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def nisan_smolensky_procedure(f: TruthTable, p: MultilinearPoly):
    """Query procedure from a nondeterministic polynomial.

    Repeatedly takes a minimal 0-certificate of the current restriction,
    queries its variables, and restricts the polynomial by the answers; every
    round strictly reduces deg(p), so the worst case is at most
    C^(0)(f) * deg(p) queries.  Returns (value_oracle, worst_case_queries),
    the oracle mapping an input to (value, queries_used); the worst case is
    taken over all 2^n inputs, checking correctness on each.  A broken round
    invariant raises RoundInvariantViolation.
    """
    if f.n > CERT_MAX_CAP:
        raise CapExceeded(
            f"Nisan-Smolensky procedure capped at n<={CERT_MAX_CAP}")
    if p.basis != MONOMIAL:
        p = from_fourier(p)
    if not verify_ndet(p, f):
        raise InvalidWitness("polynomial does not match the function pattern")
    cubes = SubcubeTable(f)

    def min_zero_certificate(amask, avals):
        free = [i for i in range(f.n) if not (amask >> i) & 1]
        for k in range(len(free) + 1):
            for combo in itertools.combinations(free, k):
                smask = sum(1 << i for i in combo)
                for pattern in range(1 << k):
                    vbits = sum(1 << i for j, i in enumerate(combo)
                                if (pattern >> j) & 1)
                    if cubes.const(amask | smask, avals | vbits) == 0:
                        return smask
        return None

    def oracle(x):
        coeffs = dict(p.nums)
        amask = avals = queries = 0
        while True:
            deg = max((m.bit_count() for m in coeffs), default=-1)
            if deg <= 0:
                return (1 if coeffs else 0), queries
            forced = cubes.const(amask, avals)
            if forced is not None:
                return forced, queries
            smask = min_zero_certificate(amask, avals)
            if smask is None:
                raise RoundInvariantViolation("no 0-certificate found")
            queries += smask.bit_count()
            amask |= smask
            avals |= x & smask
            for i in range(f.n):
                if (smask >> i) & 1:
                    coeffs = _restrict_coeffs(coeffs, 1 << i, (x >> i) & 1)
            new_deg = max((m.bit_count() for m in coeffs), default=-1)
            if new_deg >= deg:
                raise RoundInvariantViolation("round kept the degree")

    worst = 0
    for x, c in enumerate(f._bit_string()):
        value, used = oracle(x)
        if value != int(c):
            raise RoundInvariantViolation(f"wrong value at input {x}")
        worst = max(worst, used)
    return oracle, worst


# ---------------------------------------------------------------------------
# text format: basis=MONOMIAL|FOURIER; terms=<coef>*x{S as comma list}


def format_poly(p: MultilinearPoly) -> str:
    if not p.nums:
        terms = "0"
    else:
        parts = []
        coeffs = p.coeffs
        for m in sorted(coeffs, key=lambda m: (m.bit_count(), m)):
            idxs = ",".join(str(i + 1) for i in range(p.n) if (m >> i) & 1)
            parts.append(f"{coeffs[m]}*x{{{idxs}}}")
        terms = " + ".join(parts)
    return f"basis={p.basis}; terms={terms}"


def parse_rational(v) -> Fraction:
    """Exact rational from a `p/q` or decimal literal, or a JSON number; no
    exponents, which Fraction expands (1e999999999 would stall)."""
    if isinstance(v, str) and "e" in v.lower():
        raise ValueError(f"exponent in rational literal {v!r}")
    try:
        return Fraction(v)
    except (ZeroDivisionError, OverflowError) as e:
        raise ValueError(f"bad rational literal {v!r}") from e


def parse_poly(text: str, n: int) -> MultilinearPoly:
    try:
        basis_part, terms_part = text.strip().split("; ", 1)
        basis = basis_part.removeprefix("basis=")
        body = terms_part.removeprefix("terms=")
    except ValueError as e:
        raise ValueError(f"bad polynomial format {text!r}") from e
    if not basis_part.startswith("basis=") or not terms_part.startswith("terms="):
        raise ValueError(f"bad polynomial format {text!r}")
    coeffs = {}
    if body.strip() != "0":
        for term in body.split(" + "):
            coef_s, mono = term.rsplit("*x{", 1)
            if not mono.endswith("}"):
                raise ValueError(f"bad term {term!r}")
            mask = 0
            inner = mono[:-1]
            if inner:
                for tok in inner.split(","):
                    i = int(tok)
                    if not 1 <= i <= n:
                        raise ValueError(f"variable x{i} out of range")
                    mask |= 1 << (i - 1)
            coeffs[mask] = coeffs.get(mask, 0) + parse_rational(coef_s)
    return MultilinearPoly.make(n, basis, coeffs)

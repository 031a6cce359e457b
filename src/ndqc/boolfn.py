"""Total Boolean functions as packed truth tables, with exact classical measures.

Encoding convention (fixed for all file formats): the table index of an input
x is sum_i x_i * 2**(i-1), i.e. x_1 is the least significant bit.  A function
on n variables is a 2**n-bit integer whose bit at an input's index is f(x).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

STORAGE_CAP = 24
CERT_INPUT_CAP = 16   # per-input certificate search
CERT_MAX_CAP = 12     # C0/C1 maxima
BS_CAP = 12           # block sensitivity maxima
DEPTH_CAP = 5         # decision tree depth

FAMILIES = ("OR", "AND", "PARITY", "NOT_ONE", "CONST0", "CONST1")


class CapExceeded(ValueError):
    """An exhaustive procedure was asked to run above its configured cap."""


class NotSymmetric(ValueError):
    """Two same-weight inputs disagree."""


@dataclass(frozen=True)
class TruthTable:
    """A total Boolean function on n variables, packed into one integer."""

    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= STORAGE_CAP:
            raise CapExceeded(f"n={self.n} outside 1..{STORAGE_CAP}")
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError("bit vector does not fit 2^n entries")

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, x: int) -> int:
        return (self.bits >> x) & 1

    def complement(self) -> "TruthTable":
        return TruthTable(self.n, self.bits ^ ((1 << self.size) - 1))

    def ones(self):
        return [x for x in range(self.size) if (self.bits >> x) & 1]

    def zeros(self):
        return [x for x in range(self.size) if not (self.bits >> x) & 1]

    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == (1 << self.size) - 1

    def permute(self, perm) -> "TruthTable":
        """Relabel variables: new variable i reads old variable perm[i-1]."""
        if sorted(perm) != list(range(1, self.n + 1)):
            raise ValueError("not a permutation of 1..n")
        bits = 0
        for x in range(self.size):
            old = 0
            for i in range(self.n):
                if (x >> i) & 1:
                    old |= 1 << (perm[i] - 1)
            bits |= self.value(old) << x
        return TruthTable(self.n, bits)

    def __str__(self):
        return format_table(self)


@dataclass(frozen=True)
class PartialAssignment:
    """Assignment of bits to distinct variable indices (1-based)."""

    pairs: tuple

    def __post_init__(self):
        idxs = [i for i, _ in self.pairs]
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate variable index")
        for i, b in self.pairs:
            if i < 1 or b not in (0, 1):
                raise ValueError(f"bad assignment pair ({i}, {b})")

    @property
    def size(self) -> int:
        return len(self.pairs)

    def mask(self) -> int:
        m = 0
        for i, _ in self.pairs:
            m |= 1 << (i - 1)
        return m

    def values(self) -> int:
        v = 0
        for i, b in self.pairs:
            if b:
                v |= 1 << (i - 1)
        return v


@dataclass(frozen=True)
class SymmetricProfile:
    """Value of a symmetric function per Hamming weight 0..n."""

    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise ValueError("profile needs n+1 entries")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("profile entries must be bits")

    @property
    def zero_weights(self) -> tuple:
        return tuple(k for k, v in enumerate(self.values) if v == 0)

    @property
    def z(self) -> int:
        return len(self.zero_weights)

    def to_table(self) -> TruthTable:
        bits = 0
        for x in range(1 << self.n):
            if self.values[x.bit_count()]:
                bits |= 1 << x
        return TruthTable(self.n, bits)


def random_table(n: int, rng) -> TruthTable:
    """Uniformly random truth table from a seeded random.Random stream."""
    return TruthTable(n, rng.getrandbits(1 << n))


def make_named(family: str, n: int) -> TruthTable:
    """Truth table of a named function family on n variables."""
    if n < 1 or n > STORAGE_CAP:
        raise CapExceeded(f"n={n} outside 1..{STORAGE_CAP}")
    size = 1 << n
    if family == "OR":
        bits = ((1 << size) - 1) ^ 1
    elif family == "AND":
        bits = 1 << (size - 1)
    elif family == "PARITY":
        bits = sum(1 << x for x in range(size) if x.bit_count() % 2)
    elif family == "NOT_ONE":
        bits = sum(1 << x for x in range(size) if x.bit_count() != 1)
    elif family == "CONST0":
        bits = 0
    elif family == "CONST1":
        bits = (1 << size) - 1
    else:
        raise ValueError(f"unknown family {family!r}")
    return TruthTable(n, bits)


# ---------------------------------------------------------------------------
# subcube classifier: is f constant on {y : y & smask == vals}?


class _CubeClassifier:
    """Memoized constant-on-subcube classification for one function."""

    def __init__(self, f: TruthTable):
        self.f = f
        self.full = (1 << f.n) - 1
        self.memo = {}

    def const(self, smask: int, vals: int):
        """Return 0/1 if f is that constant on the subcube, else None."""
        if smask == self.full:
            return self.f.value(vals)
        key = (smask, vals)
        hit = self.memo.get(key, -1)
        if hit != -1:
            return hit
        free = (~smask) & self.full
        low = free & -free
        c0 = self.const(smask | low, vals)
        res = None
        if c0 is not None:
            c1 = self.const(smask | low, vals | low)
            if c0 == c1:
                res = c0
        self.memo[key] = res
        return res


def certificate_complexity(f: TruthTable, x: int) -> int:
    """Minimum size of an f(x)-certificate consistent with x.

    Subsets are scanned by increasing size then lexicographically, so the
    returned size (and the first witnessing subset) is deterministic.
    """
    if f.n > CERT_INPUT_CAP:
        raise CapExceeded(f"certificate search capped at n<={CERT_INPUT_CAP}")
    return _certificate_size(_CubeClassifier(f), x)


def _certificate_size(cc: _CubeClassifier, x: int) -> int:
    """certificate_complexity(cc.f, x), sharing cc's memo across inputs."""
    target = cc.f.value(x)
    idx = list(range(cc.f.n))
    for k in range(cc.f.n + 1):
        for combo in itertools.combinations(idx, k):
            smask = 0
            for i in combo:
                smask |= 1 << i
            if cc.const(smask, x & smask) == target:
                return k
    raise AssertionError("full assignment always certifies")


def _cert_max(f: TruthTable, b: int) -> int:
    if f.n > CERT_MAX_CAP:
        raise CapExceeded(f"certificate maxima capped at n<={CERT_MAX_CAP}")
    cc = _CubeClassifier(f)
    best = 0
    for x in range(f.size):
        if f.value(x) == b:
            best = max(best, _certificate_size(cc, x))
    return best


def c_one(f: TruthTable) -> int:
    """C^(1)(f): max certificate complexity over 1-inputs (0 if none)."""
    return _cert_max(f, 1)


def c_zero(f: TruthTable) -> int:
    """C^(0)(f): max certificate complexity over 0-inputs (0 if none)."""
    return _cert_max(f, 0)


def n_query(f: TruthTable) -> int:
    """Nondeterministic classical query complexity N(f) = C^(1)(f)."""
    return c_one(f)


# ---------------------------------------------------------------------------
# block sensitivity


def minimal_sensitive_blocks(f: TruthTable, x: int):
    """All minimal sensitive blocks (as variable masks) of f at x."""
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


def block_sensitivity(f: TruthTable, x: int) -> int:
    """bs_x(f): maximum number of disjoint minimal sensitive blocks at x."""
    if f.n > BS_CAP:
        raise CapExceeded(f"block sensitivity capped at n<={BS_CAP}")
    blocks = minimal_sensitive_blocks(f, x)
    if not blocks:
        return 0
    full = (1 << f.n) - 1

    memo = {}

    def pack(free: int) -> int:
        if free in memo:
            return memo[free]
        avail = [b for b in blocks if b & free == b]
        if not avail:
            memo[free] = 0
            return 0
        v = 0
        for b in avail:
            v |= b
        low = v & -v  # lowest variable appearing in any available block
        best = pack(free & ~low)  # leave that variable uncovered
        for b in avail:
            if b & low:
                best = max(best, 1 + pack(free & ~b))
        memo[free] = best
        return best

    return pack(full)


def _bs_max(f: TruthTable, b: int) -> int:
    if f.n > BS_CAP:
        raise CapExceeded(f"block sensitivity maxima capped at n<={BS_CAP}")
    best = 0
    for x in range(f.size):
        if f.value(x) == b:
            best = max(best, block_sensitivity(f, x))
    return best


def bs_zero(f: TruthTable) -> int:
    return _bs_max(f, 0)


def bs_one(f: TruthTable) -> int:
    return _bs_max(f, 1)


# ---------------------------------------------------------------------------
# deterministic decision tree depth


@lru_cache(maxsize=None)
def _depth(n: int, bits: int) -> int:
    if bits == 0 or bits == (1 << (1 << n)) - 1:
        return 0
    if n == 1:
        return 1
    table = TruthTable(n, bits)
    best = n
    for i in range(1, n + 1):
        a0 = restrict(table, PartialAssignment(((i, 0),)))
        a1 = restrict(table, PartialAssignment(((i, 1),)))
        best = min(best, 1 + max(_depth(a0.n, a0.bits), _depth(a1.n, a1.bits)))
    return best


def decision_tree_depth(f: TruthTable) -> int:
    """Exact D(f) by memoized minimax over variable restrictions."""
    if f.n > DEPTH_CAP:
        raise CapExceeded(f"decision tree depth capped at n<={DEPTH_CAP}")
    return _depth(f.n, f.bits)


# ---------------------------------------------------------------------------


def restrict(f: TruthTable, a: PartialAssignment) -> TruthTable:
    """Fix the assigned variables; remaining variables keep their order."""
    amask = a.mask()
    if amask >= (1 << f.n):
        raise ValueError("assignment index out of range")
    avals = a.values()
    free = [i for i in range(f.n) if not (amask >> i) & 1]
    if not free:
        # restriction to zero free variables is the constant f(avals),
        # represented on one dummy variable
        v = f.value(avals)
        return TruthTable(1, 0b11 if v else 0b00)
    bits = 0
    for y in range(1 << len(free)):
        x = avals
        for j, i in enumerate(free):
            if (y >> j) & 1:
                x |= 1 << i
        bits |= f.value(x) << y
    return TruthTable(len(free), bits)


def symmetric_profile(f: TruthTable) -> SymmetricProfile:
    """Weight profile of a symmetric function; NotSymmetric otherwise."""
    values = [None] * (f.n + 1)
    for x in range(f.size):
        w = x.bit_count()
        v = f.value(x)
        if values[w] is None:
            values[w] = v
        elif values[w] != v:
            raise NotSymmetric(f"inputs of weight {w} disagree")
    return SymmetricProfile(f.n, tuple(values))


# ---------------------------------------------------------------------------
# text format: n=<k>;hex=<2^n bits, little-endian nibbles>


def format_table(f: TruthTable) -> str:
    nibbles = max(1, (f.size + 3) // 4)
    digits = []
    bits = f.bits
    for _ in range(nibbles):
        digits.append(format(bits & 0xF, "x"))
        bits >>= 4
    return f"n={f.n};hex={''.join(digits)}"


def parse_table(text: str) -> TruthTable:
    try:
        npart, hexpart = text.strip().split(";")
        n = int(npart.removeprefix("n="))
        hexs = hexpart.removeprefix("hex=")
    except (ValueError, AttributeError) as e:
        raise ValueError(f"bad table format {text!r}") from e
    if not npart.startswith("n=") or not hexpart.startswith("hex="):
        raise ValueError(f"bad table format {text!r}")
    expect = max(1, ((1 << n) + 3) // 4)
    if len(hexs) != expect:
        raise ValueError(f"expected {expect} hex digits for n={n}")
    bits = 0
    for i, ch in enumerate(hexs):
        bits |= int(ch, 16) << (4 * i)
    return TruthTable(n, bits)

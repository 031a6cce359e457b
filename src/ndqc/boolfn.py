"""Total Boolean functions as packed truth tables, with exact classical measures.

Encoding convention (fixed for all file formats): the table index of an input
x is sum_i x_i * 2**(i-1), i.e. x_1 is the least significant bit.  A function
on n variables is a 2**n-bit integer whose bit at an input's index is f(x).

C and D come from one table over the 3^n subcubes Q (each variable 0, 1 or
free): const(Q) from the halves of a free variable, U(Q) = least codimension
of a constant superset of Q, C_x = U({x}), D(Q) = min_i 1 + max(halves on i).
Minimal sensitive blocks are the nonconstant subcubes with constant faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

STORAGE_CAP = 24
CERT_MAX_CAP = 12     # certificates and block sensitivity: the subcube table
DEPTH_CAP = 5         # decision tree depth
CLASS_CAP = 4         # canonical tables: one entry per table, 2^(2^n)

FAMILIES = ("OR", "AND", "PARITY", "NOT_ONE", "CONST0", "CONST1")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_FIXED = np.array([1, 1, 0], np.int8)   # codimension per ternary digit


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

    def _bit_string(self) -> str:
        """f(0) f(1) ... as one '0'/'1' string, in one pass over the table."""
        return format(self.bits, f"0{self.size}b")[::-1]

    def ones(self):
        return [x for x, v in enumerate(self._bit_string()) if v == "1"]

    def zeros(self):
        return [x for x, v in enumerate(self._bit_string()) if v == "0"]

    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == (1 << self.size) - 1

    def permute(self, perm) -> "TruthTable":
        """Relabel variables: new variable i reads old variable perm[i-1]."""
        if sorted(perm) != list(range(1, self.n + 1)):
            raise ValueError("not a permutation of 1..n")
        values = _values(self)[_input_map(self.n, perm)]
        raw = np.packbits(values, bitorder="little").tobytes()
        return TruthTable(self.n, int.from_bytes(raw, "little"))

    def __str__(self):
        return format_table(self)


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


def _values(f: TruthTable) -> np.ndarray:
    """f(x) for every input x, as a uint8 array."""
    raw = f.bits.to_bytes((f.size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8),
                         bitorder="little")[:f.size]


def _input_map(n: int, perm, mask: int = 0) -> np.ndarray:
    """g(x) = f(map[x]) for one input permutation and negation: new variable
    i reads old variable perm[i-1], then the variables in mask are negated."""
    x = np.arange(1 << n)
    return sum(((x >> i) & 1) << (p - 1) for i, p in enumerate(perm)) ^ mask


def canonical_tables(n: int) -> np.ndarray:
    """The least table in the orbit of every table bits < 2^(2^n) under
    input permutations and negations, indexed by bits.  Each group element
    moves table bit y to bit map[y] (the group holds every inverse), by one
    256-entry lookup per table byte; a running minimum keeps the least."""
    if not 1 <= n <= CLASS_CAP:
        raise CapExceeded(f"canonical tables capped at n<={CLASS_CAP}")
    size = 1 << n
    width = min(size, 8)
    tables = np.arange(1 << size, dtype=np.uint16)
    byte_bits = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
    best = tables.copy()
    for perm, mask in itertools.product(
            itertools.permutations(range(1, n + 1)), range(size)):
        dest = _input_map(n, perm, mask)
        image = np.zeros_like(tables)
        for j in range(0, size, width):
            lookup = (byte_bits @ (1 << dest[j:j + width])).astype(np.uint16)
            image |= lookup[(tables >> j) & 0xFF]
        np.minimum(best, image, out=best)
    return best


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
        # the table on i + 1 variables is the table on i, then its negation
        bits = 0
        for i in range(n):
            half = 1 << i
            bits |= (bits ^ ((1 << half) - 1)) << half
    elif family == "NOT_ONE":
        bits = ((1 << size) - 1) ^ sum(1 << (1 << i) for i in range(n))
    elif family == "CONST0":
        bits = 0
    elif family == "CONST1":
        bits = (1 << size) - 1
    else:
        raise ValueError(f"unknown family {family!r}")
    return TruthTable(n, bits)


# ---------------------------------------------------------------------------
# the subcube table: certificates, block sensitivity and decision tree depth


class SubcubeTable:
    """const(Q) and U(Q) over the 3^n subcubes Q of one function.

    Subcube Q gives variable i the ternary digit d_i in {0, 1, 2 = free} and
    has index sum_i d_i * 3**i.  Above CERT_MAX_CAP nothing is built and
    every measure read raises CapExceeded.
    """

    def __init__(self, f: TruthTable):
        self.f = f
        if f.n > CERT_MAX_CAP:
            return
        n = f.n
        self.values = _values(f)
        # cube code: 1 if f is 0 on Q, 2 if f is 1 on Q, 0 if not constant;
        # a free digit's code is the AND of its two halves' codes
        cube = self.values.view(np.int8) + np.int8(1)
        codim = np.zeros(1, np.int8)
        for i in range(n):
            half = cube.reshape(-1, 2, 3 ** i)
            cube = np.empty((half.shape[0], 3, 3 ** i), np.int8)
            cube[:, :2] = half
            np.bitwise_and(half[:, 0], half[:, 1], out=cube[:, 2])
            cube = cube.reshape(-1)
            codim = np.add.outer(_FIXED, codim).reshape(-1)
        self.cube = cube
        # U(Q): least codimension of a constant subcube containing Q, by a
        # superset minimum: digit 0 or 1 may become free, one axis at a time
        up = np.where(cube != 0, codim, np.int8(n + 1))
        for i in range(n):
            axis = up.reshape(-1, 3, 3 ** i)
            np.minimum(axis[:, :2], axis[:, 2:], out=axis[:, :2])
        self.cert = up.reshape((3,) * n)[(slice(0, 2),) * n].reshape(-1)

    def const(self, smask: int, vals: int):
        """0 or 1 if f is that constant on {y : y & smask == vals}, else None."""
        idx = 0
        for i in reversed(range(self.f.n)):
            idx = 3 * idx + ((vals >> i) & 1 if (smask >> i) & 1 else 2)
        return (None, 0, 1)[self.cube[idx]]

    def certificate(self, x: int) -> int:
        """C_x(f) = U at the corner subcube {x}."""
        if self.f.n > CERT_MAX_CAP:
            raise CapExceeded(f"certificate search capped at n<={CERT_MAX_CAP}")
        return int(self.cert[x])

    def c_max(self, b: int) -> int:
        """C^(b)(f): max certificate complexity over b-inputs (0 if none)."""
        if self.f.n > CERT_MAX_CAP:
            raise CapExceeded(f"certificate maxima capped at n<={CERT_MAX_CAP}")
        return int(self.cert[self.values == b].max(initial=0))

    def minimal_blocks(self, xs):
        """Yield the minimal sensitive blocks (variable masks) at each input
        in xs, in (size, mask) order: the B whose subcube through x, of index
        tern[x] + 2*tern[B] - tern[x & B] with tern[m] = sum_{i in m} 3**i,
        is not constant while each face B - {i} (x_i put back) is."""
        n = self.f.n
        if n > CERT_MAX_CAP:
            raise CapExceeded(
                f"block sensitivity capped at n<={CERT_MAX_CAP}")
        masks = np.arange(1 << n)
        tern = np.array([int(f"{m:b}", 3) for m in range(1 << n)])
        order = np.array(sorted(range(1, 1 << n),
                                key=lambda b: (b.bit_count(), b)))
        xs = np.asarray(xs, np.intp).reshape(-1, 1)
        step = max(1, (1 << 14) >> n)   # (input, block) pairs per pass
        for start in range(0, len(xs), step):
            x = xs[start:start + step]
            const = self.cube[tern[x] + 2 * tern - tern[x & masks]] != 0
            minimal = ~const
            for i in range(n):   # axis 2 of `half` is bit i of the block
                half = (len(x), -1, 2, 1 << i)
                minimal.reshape(half)[:, :, 1] &= const.reshape(half)[:, :, 0]
            for row in minimal[:, order]:
                yield order[row].tolist()

    def bs_max(self, b: int) -> int:
        """bs^(b)(f): max block sensitivity over b-inputs (0 if none).

        bs_x <= C_x, so the b-inputs are packed in decreasing C_x order
        until no remaining C_x exceeds the best packing found.
        """
        if self.f.n > CERT_MAX_CAP:
            raise CapExceeded(
                f"block sensitivity maxima capped at n<={CERT_MAX_CAP}")
        xs = np.flatnonzero(self.values == b)
        xs = xs[np.argsort(-self.cert[xs], kind="stable")]
        best = 0
        for c, blocks in zip(self.cert[xs].tolist(), self.minimal_blocks(xs)):
            if c <= best:
                break
            best = max(best, _pack(blocks, self.f.n))
        return best

    def depth(self) -> int:
        """D(f): D(Q) = 0 if Q is constant, else the minimum over free i of
        1 + max(D(Q, x_i = 0), D(Q, x_i = 1)).

        Each round lowers D toward that recurrence in place; after round k
        every subcube with at most k free variables holds its final value.
        """
        n = self.f.n
        if n > DEPTH_CAP:
            raise CapExceeded(f"decision tree depth capped at n<={DEPTH_CAP}")
        d = np.where(self.cube != 0, np.int8(0), np.int8(n + 1))
        axes = [d.reshape(-1, 3, 3 ** i) for i in range(n)]
        halves = [(a[:, 0], a[:, 1], a[:, 2]) for a in axes]
        for _ in range(n):
            for lo, hi, free in halves:
                split = np.maximum(lo, hi)
                split += 1
                np.minimum(free, split, out=free)
        return int(d[-1])


def certificate_complexity(f: TruthTable, x: int) -> int:
    """Minimum size of an f(x)-certificate consistent with x."""
    return SubcubeTable(f).certificate(x)


def c_one(f: TruthTable) -> int:
    """C^(1)(f): max certificate complexity over 1-inputs (0 if none)."""
    return SubcubeTable(f).c_max(1)


def c_zero(f: TruthTable) -> int:
    """C^(0)(f): max certificate complexity over 0-inputs (0 if none)."""
    return SubcubeTable(f).c_max(0)


def n_query(f: TruthTable) -> int:
    """Nondeterministic classical query complexity N(f) = C^(1)(f)."""
    return c_one(f)


def decision_tree_depth(f: TruthTable) -> int:
    """Exact D(f), read off the subcube table."""
    return SubcubeTable(f).depth()


# ---------------------------------------------------------------------------
# block sensitivity


def minimal_sensitive_blocks(f: TruthTable, x: int):
    """All minimal sensitive blocks (as variable masks) of f at x."""
    return next(SubcubeTable(f).minimal_blocks([x]))


def _pack(blocks, n: int) -> int:
    """Maximum number of disjoint blocks among `blocks` on n variables."""
    if not blocks:
        return 0
    full = (1 << n) - 1

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


def block_sensitivity(f: TruthTable, x: int) -> int:
    """bs_x(f): maximum number of disjoint minimal sensitive blocks at x."""
    return _pack(minimal_sensitive_blocks(f, x), f.n)


def bs_zero(f: TruthTable) -> int:
    return SubcubeTable(f).bs_max(0)


def bs_one(f: TruthTable) -> int:
    return SubcubeTable(f).bs_max(1)


# ---------------------------------------------------------------------------


def symmetric_profile(f: TruthTable) -> SymmetricProfile:
    """Weight profile of a symmetric function; NotSymmetric otherwise."""
    values = [None] * (f.n + 1)
    for x, v in enumerate(f._bit_string()):
        w = x.bit_count()
        if values[w] is None:
            values[w] = v
        elif values[w] != v:
            raise NotSymmetric(f"inputs of weight {w} disagree")
    return SymmetricProfile(f.n, tuple(map(int, values)))


# ---------------------------------------------------------------------------
# text format: n=<k>;hex=<2^n bits, little-endian nibbles>


def format_table(f: TruthTable) -> str:
    nibbles = max(1, (f.size + 3) // 4)
    return f"n={f.n};hex={format(f.bits, f'0{nibbles}x')[::-1]}"


def parse_table(text: str) -> TruthTable:
    try:
        npart, hexpart = text.strip().split(";")
        n = int(npart.removeprefix("n="))
        hexs = hexpart.removeprefix("hex=")
    except (ValueError, AttributeError) as e:
        raise ValueError(f"bad table format {text!r}") from e
    if not npart.startswith("n=") or not hexpart.startswith("hex="):
        raise ValueError(f"bad table format {text!r}")
    if not 1 <= n <= STORAGE_CAP:
        raise CapExceeded(f"n={n} outside 1..{STORAGE_CAP}")
    expect = max(1, ((1 << n) + 3) // 4)
    if len(hexs) != expect:
        raise ValueError(f"expected {expect} hex digits for n={n}")
    # int(..., 16) also takes a sign, "_" and spaces: only digits pass here
    if not _HEX_DIGITS.issuperset(hexs):
        raise ValueError("table digits must be 0-9, a-f or A-F")
    return TruthTable(n, int(hexs[::-1], 16))

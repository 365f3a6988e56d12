"""Linear codes over Z_{2^m} with a unique canonical generator matrix.

Z_{2^m} is a chain ring, so every submodule of Z_{2^m}^n has a unique
Howell-style generator matrix: staircase rows, each pivot an exact power
of two, entries above a pivot reduced below it, and the row set closed
under the multiplications that annihilate a pivot.  Two codes are equal
exactly when these matrices are equal, which turns every set-level claim
in the package (duality, intersections, containments) into a finite
matrix comparison.  No floating point, no column permutations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadPosition,
    BudgetExceeded,
    NoNonzeroWords,
    ShapeMismatch,
)
from .modring import Modulus
from .polyring import ZPoly, _byte_lanes, _ones, _pack, _unpack, mu_map

DEFAULT_BUDGET = 1 << 20


def _lane_width(n: int, m: int) -> int:
    """Lane width for Z_{2^m}^n: the narrowest byte-aligned lane (8 * 2^j
    bits) with room for a sum of 2n products below 4^m."""
    return _byte_lanes(2 * m + n.bit_length() + 1)


def _reduce(
    r: int, piv: dict[int, tuple[int, int]], width: int, mod: int, low: int
) -> int:
    """Clear r's leading entry while the pivot of its column (in piv, as
    _howell keeps them) has no larger valuation.  Against a Howell form the
    remainder is 0 exactly when r lies in the code."""
    while r:
        bit = (r & -r).bit_length() - 1
        incumbent = piv.get(bit // width)
        if incumbent is None or incumbent[0] > bit:
            break
        shift, prow = incumbent
        r = (r + (mod - ((r >> shift) & (mod - 1))) * prow) & low
    return r


def _howell(rows: Iterable[int], n: int, m: int, width: int) -> list[int]:
    """Reduce a generating set of lane-packed rows to the unique Howell form.

    Rows are vectors of Z_{2^m}^n packed by _pack into lanes of
    width >= 2m + 1 bits with every entry below 2^m.  Every lane update
    below, a + (2^m - f)*b, a*u and a << (m - v), stays below 2^(2m+1)
    before the mask, so no carry crosses a lane and each step is one
    big-int multiply, add and mask.  The lowest set bit of a row gives its
    leading column (bit // width) and that entry's valuation (bit % width).

    Worklist echelonization: reduce each incoming row (_reduce), normalize
    its leading entry to a power of two, install it as the pivot of its
    column (a displaced incumbent is requeued), and queue 2^(m-v) times
    it so the span stays closed under pivot annihilation.  A final pass
    reduces the entries above each pivot below it.  Returns the packed
    rows in leading-column order.
    """
    mod = 1 << m
    low = (mod - 1) * _ones(n, width)
    piv: dict[int, tuple[int, int]] = {}  # column -> (lowest set bit, row)
    queue = [r for r in rows if r]
    while queue:
        r = _reduce(queue.pop(), piv, width, mod, low)
        if not r:
            continue
        bit = (r & -r).bit_length() - 1
        lead = bit // width
        v = bit - width * lead
        r = r * pow((r >> bit) & (mod - 1), -1, mod) & low
        incumbent = piv.get(lead)
        piv[lead] = (bit, r)
        if incumbent is not None:
            queue.append(incumbent[1])
        ann = (r << (m - v)) & low
        if ann:
            queue.append(ann)
    cols = sorted(piv)
    for i, c in enumerate(cols):
        shift, prow = piv[c]
        mask = (mod - 1) >> (shift - width * c)
        for c2 in cols[:i]:
            r = piv[c2][1]
            f = (r >> shift) & mask
            if f:
                piv[c2] = (piv[c2][0], (r + (mod - f) * prow) & low)
    return [piv[c][1] for c in cols]


@dataclass(frozen=True)
class LinearCode:
    """A submodule of Z_{2^m}^n held by its canonical (Howell) rows, each
    lane-packed in lanes of _lane_width(n, m) bits; gen is the tuple view."""

    n: int
    m: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        Modulus(self.m)
        if any(row & ~self._low for row in self.rows):
            raise ValueError("generator row has an entry outside 0..2^m - 1")

    @cached_property
    def _width(self) -> int:
        return _lane_width(self.n, self.m)

    @cached_property
    def _low(self) -> int:
        return ((1 << self.m) - 1) * _ones(self.n, self._width)

    @cached_property
    def _pivots(self) -> dict[int, tuple[int, int]]:
        """Leading column -> (lowest set bit, row), as _howell keeps them."""
        bits = [(r & -r).bit_length() - 1 for r in self.rows]
        return {b // self._width: (b, r) for b, r in zip(bits, self.rows)}

    @cached_property
    def log2_size(self) -> int:
        m, width = self.m, self._width
        return sum(m - bit % width for bit, _ in self._pivots.values())

    @cached_property
    def gen(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self._entries, self.rows))

    @cached_property
    def _cols(self) -> list[int]:
        """Column j of the canonical rows, packed with row i's entry in lane i."""
        cols = zip(*self.gen) if self.rows else [()] * self.n
        return [_pack(col, self._width) for col in cols]

    def cardinality(self) -> int:
        return 1 << self.log2_size

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def _entries(self, r: int) -> tuple[int, ...]:
        return _unpack(r, self.n, self._width, (1 << self.m) - 1)

    def _remainder(self, r: int) -> int:
        return _reduce(r, self._pivots, self._width, 1 << self.m, self._low)

    def contains(self, vec: Sequence[int]) -> bool:
        """Membership: vec reduces to 0 against the canonical rows."""
        if len(vec) != self.n:
            raise ShapeMismatch(f"vector length {len(vec)} in a length-{self.n} code")
        mod = 1 << self.m
        return not self._remainder(_pack([c % mod for c in vec], self._width))

    def contains_code(self, other: "LinearCode") -> bool:
        if other.n != self.n or other.m != self.m:
            raise ShapeMismatch("codes live in different ambient rings")
        return not any(map(self._remainder, other.rows))

    def _words(self) -> Iterator[int]:
        """Every codeword once, lane-packed: an odometer over the multiples
        0..2^(m-v) - 1 of each row with pivot 2^v, one add and mask a step
        (a wrap takes back 2^(m-v) - 1 times the row)."""
        m, width, low = self.m, self._width, self._low
        top = (1 << m) * _ones(self.n, width)
        steps = []
        for bit, row in self._pivots.values():
            cap = 1 << (m - bit % width)
            steps.append((cap, row, top - ((cap - 1) * row & low)))
        digits = [0] * len(steps)
        word = 0
        while True:
            yield word
            for i, (cap, row, back) in enumerate(steps):
                digits[i] += 1
                if digits[i] < cap:
                    word = (word + row) & low
                    break
                digits[i] = 0
                word = (word + back) & low
            else:
                return

    def codewords(self) -> Iterator[tuple[int, ...]]:
        return map(self._entries, self._words())


def canonical_form(rows: Iterable[Sequence[int]], n: int, m: int) -> LinearCode:
    """Canonicalize any generating set into a LinearCode."""
    mod = 1 << m
    width = _lane_width(n, m)
    packed = []
    for r in rows:
        if len(r) != n:
            raise ShapeMismatch(f"row length {len(r)} in a length-{n} code")
        packed.append(_pack([c % mod for c in r], width))
    return LinearCode(n, m, tuple(_howell(packed, n, m, width)))


def code_from_polynomial(g: ZPoly) -> LinearCode:
    """The cyclic ideal generated by g, as the Howell form of its n rotations.

    g is packed once; each next rotation x*row is one shift of the packed
    word, its top lane wrapped around to lane 0 and masked off above.
    """
    n, m = g.n, g.m
    width = _lane_width(n, m)
    low = ((1 << m) - 1) * _ones(n, width)
    top = width * (n - 1)
    row = _pack(g.coeffs, width)
    rows = []
    for _ in range(n):
        rows.append(row)
        row = (row << width) & low | row >> top
    return LinearCode(n, m, tuple(_howell(rows, n, m, width)))


def code_from_divisor(g: Sequence[int], n: int, m: int) -> LinearCode:
    """The ideal (g) of Z_{2^m}[x]/(x^n - 1) for a monic divisor g of x^n - 1.

    g is given by its coefficients, constant first, and may have degree
    up to n.  Write g = t(x) + x^(n-k).  The ideal is free of rank k, and
    x^k*g = 1 + x^k*t(x) mod x^n - 1 is its word with a 1 at coordinate 0
    and zeros at 1..k-1.  Row i is x*row(i-1) minus its wrapped
    coordinate-0 entry times row 0, so the rows are [I_k | A], the unique
    canonical form of (g), after k packed row operations and no reduction.
    That g divides x^n - 1 is not checked; code_from_polynomial is the
    oracle.
    """
    if not g or g[-1] != 1:
        raise ValueError("the generator must be monic")
    mod = 1 << m
    k = n + 1 - len(g)
    width = _lane_width(n, m)
    low = (mod - 1) * _ones(n, width)
    top = width * (n - 1)
    tail = _pack(g[:-1], width) << (width * k)  # x^k * t(x)
    row = 1 + tail
    rows = []
    for _ in range(k):
        rows.append(row)
        row = ((row << width) + (mod - (row >> top)) * tail) & low
    return LinearCode(n, m, tuple(rows))


def _gf2_dependencies(
    pivots: dict[int, tuple[int, int]], columns: Iterable[tuple[int, int]]
) -> list[int]:
    """Gaussian elimination over GF(2) on columns held as bit-vector ints.

    columns yields (column, tag) pairs, where the tag names the unknown of
    that column by one bit.  pivots maps the lowest set bit of each
    independent column seen so far to (reduced column, XOR of the tags it
    was built from); it grows in place, so a caller can keep the pivots of
    columns shared by several systems.  Every column that is a sum of
    earlier ones gives one kernel vector: its tag XOR the tags of those
    earlier independent columns.  These are the free-column basis of the
    null space, the vector with a 1 at one free unknown, 0 at the others.
    """
    found = []
    for col, tag in columns:
        while col:
            bit = (col & -col).bit_length()
            if bit not in pivots:
                pivots[bit] = (col, tag)
                break
            pcol, ptag = pivots[bit]
            col ^= pcol
            tag ^= ptag
        else:
            found.append(tag)
    return found


def _kernel(cols: Sequence[int], height: int, m: int, width: int) -> list[int]:
    """Howell rows of {u : sum_j u_j * cols[j] = 0 mod 2^m}, packed in width.

    cols[j] is column j of a matrix with height rows, row i's entry in
    lane i, so the matrix times u is one multiply-add per nonzero u_j and
    bit l of each lane is a GF(2) column.  Digit lifting: mod 2 the kernel
    is the GF(2) null space.  Given generators of the kernel mod 2^l, a
    word sum(eps_t g_t) + 2^l w (eps, w over GF(2)) is in the kernel mod
    2^(l+1) exactly when sum(eps_t s_t) + (matrix mod 2) . w = 0 over
    GF(2), where s_t is the obstruction (matrix . g_t mod 2^(l+1)) >> l.
    Each level solves that system and Howell-reduces its solutions with
    the doubles of the old generators, which always lift and keep the set
    complete; the last level is Howell at 2^m, the canonical form.
    """
    n = len(cols)
    lanes = _ones(n, width)
    row_bits = _ones(height, width)
    # unknown w_j is tagged by bit 0 of lane j, so a solution's w part is
    # already a packed 0/1 vector; eps_t is tagged by bit width*n + t
    pivots: dict[int, tuple[int, int]] = {}
    free = _gf2_dependencies(
        pivots, ((c & row_bits, 1 << (width * j)) for j, c in enumerate(cols))
    )
    gens = _howell(free, n, 1, width)
    for level in range(1, m):
        obstructions = []
        for g in gens:
            entries = _unpack(g, n, width, (1 << level) - 1)
            acc = sum(x * col for x, col in zip(entries, cols) if x)
            obstructions.append((acc >> level) & row_bits)
        found = _gf2_dependencies(
            dict(pivots),
            ((s, 1 << (width * n + t)) for t, s in enumerate(obstructions)),
        )
        low = ((2 << level) - 1) * lanes
        new_gens = [w << level for w in free]
        for tag in found:
            cand = (tag & lanes) << level
            eps = tag >> (width * n)
            while eps:
                bit = eps & -eps
                cand += gens[bit.bit_length() - 1]
                eps ^= bit
            new_gens.append(cand & low)
        new_gens.extend(g << 1 for g in gens)
        gens = _howell(new_gens, n, level + 1, width)
    return gens


def dual(c: LinearCode) -> LinearCode:
    """The annihilator code under the standard inner product."""
    return LinearCode(c.n, c.m, tuple(_kernel(c._cols, len(c.rows), c.m, c._width)))


def sum_codes(a: LinearCode, b: LinearCode) -> LinearCode:
    if a.n != b.n or a.m != b.m:
        raise ShapeMismatch("codes live in different ambient rings")
    return LinearCode(a.n, a.m, tuple(_howell(a.rows + b.rows, a.n, a.m, a._width)))


def intersect(a: LinearCode, b: LinearCode) -> LinearCode:
    """Pullback construction: the rows of A and B are the columns of
    s.A + t.B = 0, and each kernel vector (s, t) gives the common word s.A."""
    if a.n != b.n or a.m != b.m:
        raise ShapeMismatch("codes live in different ambient rings")
    n, m, width = a.n, a.m, a._width
    words = []
    for x in _kernel(a.rows + b.rows, n, m, width):
        s = _unpack(x, len(a.rows), width, (1 << m) - 1)
        words.append(sum(f * row for f, row in zip(s, a.rows) if f) & a._low)
    return LinearCode(n, m, tuple(_howell(words, n, m, width)))


def orthogonal(a: LinearCode, b: LinearCode) -> bool:
    """Whether every word of a pairs to 0 with every word of b.

    With b's columns packed, entry i in lane i, the products of one row of
    a with all rows of b are one multiply-add per nonzero entry of that
    row, and the row is orthogonal to b exactly when every lane vanishes
    mod 2^m.
    """
    if a.n != b.n or a.m != b.m:
        raise ShapeMismatch("codes live in different ambient rings")
    cols = b._cols
    low = ((1 << a.m) - 1) * _ones(len(b.rows), a._width)
    return not any(
        sum(x * col for x, col in zip(row, cols) if x) & low for row in a.gen
    )


def is_self_orthogonal(c: LinearCode) -> bool:
    return orthogonal(c, c)


@dataclass(frozen=True)
class WeightReport:
    """Minimum Hamming weight data for one code."""

    min_weight: int
    min_weight_count: int
    all_min_odd_like: bool | None
    enumerated: bool

    def as_dict(self) -> dict:
        return {
            "min_weight": self.min_weight,
            "min_weight_count": self.min_weight_count,
            "all_min_odd_like": self.all_min_odd_like,
            "enumerated": self.enumerated,
        }


def is_even_like(v: Sequence[int], m: int) -> bool:
    """Coordinate sum divisible by 2^m."""
    return sum(v) % Modulus(m).value == 0


def _coordinate_code(n: int, m: int, support: Iterable[int], scale: int) -> LinearCode:
    """The span of scale * e_i over the coordinates i in support, a set.

    For scale a power of two below 2^m, the rows scale * e_i in column
    order are already the canonical form: each pivot is a power of two
    with nothing above it, and 2^m / scale times it is 0.
    """
    width = _lane_width(n, m)
    return LinearCode(n, m, tuple(scale << (width * i) for i in sorted(support)))


def _is_cyclic(c: LinearCode) -> bool:
    """Whether c is closed under the cyclic shift: every canonical row,
    rotated by one lane, reduces to 0."""
    width, low = c._width, c._low
    top = width * (c.n - 1)
    return not any(
        c._remainder((row << width) & low | row >> top) for row in c.rows
    )


# The scan holds n columns of 2^L bits; L keeps them near 2^23 bits, 1 MB.
_SLICE_BITS = 1 << 23


def _slice_rows(k: int, n: int) -> int:
    """L, the number of socle rows one block of the bit-sliced scan spans:
    at most 16, at most k, and with n * 2^L <= _SLICE_BITS when n allows."""
    return max(0, min(16, k, (_SLICE_BITS // n).bit_length() - 1))


def _gray_rank(g: int) -> int:
    """The index i with i ^ (i >> 1) == g: each bit is the XOR of g's bits
    at and above it."""
    shift = 1
    while g >> shift:
        g ^= g >> shift
        shift <<= 1
    return g


def _bit_sliced_sum(columns: Sequence[int]) -> list[int]:
    """Planes of the lane-wise sum of 0/1 lanes: bit x of plane t is bit t
    of the number of columns with bit x set.

    A carry-save tree: full adders take three ints of one weight to their
    sum at that weight and their carry at the next, five operations that
    remove one int, until one int, the plane, is left at each weight.
    """
    planes = []
    bits = list(columns)
    while bits:
        carries = []
        while len(bits) > 1:
            a, b = bits.pop(), bits.pop()
            u = a ^ b
            if bits:
                c = bits.pop()
                bits.append(u ^ c)
                carries.append(a & b | u & c)
            else:
                bits.append(u)
                carries.append(a & b)
        planes.append(bits[0])
        bits = carries
    return planes


def _lightest_socle_words(rows: Sequence[int], n: int) -> tuple[int, list[int]]:
    """The least nonzero weight of the GF(2) span of rows (independent n-bit
    masks) and its words of that weight, in the order a Gray code meets
    them: word g, the XOR of the rows at the set bits of g, has Gray rank
    _gray_rank(g).

    Bit slicing: the 2^L words of the low L rows, L = _slice_rows, are
    indexed by x and held as n column ints, bit x of column i being
    coordinate i of word x, each built in L doubling steps.  A Gray code
    over the high rows walks 2^(k-L) blocks; a step XORs full, the 2^L
    ones, into the columns where the flipped high row has a 1, so block H
    holds the words x ^ H.  The columns add into weight planes
    (_bit_sliced_sum), and the planes, read from the top, narrow a lane
    mask to the words of least weight: a plane's zeros among the remaining
    lanes win when there are any.  The mask starts without x = 0 in the
    block H = 0, the zero word, and ends as the equality mask of the
    block's least nonzero weight.  The supports of those words are read
    from two half-tables of the low rows.  Big ints here see only shifts,
    XOR, AND and OR: no division, and no ~ (a complement is an XOR with
    full).
    """
    size = _slice_rows(len(rows), n)
    low, high = rows[:size], rows[size:]
    full = (1 << (1 << size)) - 1
    cols = [0] * n
    for t, row in enumerate(low):
        half = 1 << t
        ones = (1 << half) - 1
        for i in range(n):
            col = cols[i]
            cols[i] = col | (col ^ ones if row >> i & 1 else col) << half
    split = size // 2
    below = (1 << split) - 1
    tables = []
    for part in (low[:split], low[split:]):
        table = [0]
        for row in part:
            table += [w ^ row for w in table]
        tables.append(table)
    lo, hi = tables
    flips = [[i for i in range(n) if row >> i & 1] for row in high]
    best = n + 1
    found = []  # (Gray rank, word)
    word = 0
    for j in range(1 << len(high)):
        if j:
            t = (j & -j).bit_length() - 1
            word ^= high[t]
            for i in flips[t]:
                cols[i] ^= full
        planes = _bit_sliced_sum(cols)
        lanes = full ^ 1 if j == 0 else full  # x = 0 in block 0 is the zero word
        w = 0
        for t in reversed(range(len(planes))):
            zeros = lanes ^ (lanes & planes[t])
            if zeros:
                lanes = zeros
            else:
                w |= 1 << t
        if not lanes or w > best:
            continue
        if w < best:
            best, found = w, []
        base = (j ^ (j >> 1)) << size
        bits = format(lanes, "b")
        top = len(bits) - 1
        at = bits.find("1")
        while at >= 0:
            x = top - at
            found.append((_gray_rank(base | x), lo[x & below] ^ hi[x >> split] ^ word))
            at = bits.find("1", at + 1)
    found.sort()
    return best, [s for _, s in found]


def min_weight(c: LinearCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Exact minimum nonzero Hamming weight, its word count and parity.

    For a nonzero word w, the last nonzero 2^j * w lies in the socle
    C[2] = C intersect 2^(m-1) * Z^n and its support lies inside supp(w).
    So the lightest socle words carry exactly the supports S of the
    minimum-weight words of C, and those words are the nonzero words of
    the shortened code C_S = C intersect span{e_i : i in S}.  Let d = |S|
    be the minimum weight and s the socle word on S.  Three facts give
    the count and parity without enumerating C_S:

    1. Every nonzero word of C_S has support inside S and weight at least
       d, so its support is exactly S: C_S adds |C_S| - 1 minimum-weight
       words.
    2. A socle word is 2^(m-1) times a 0/1 vector, so its support fixes
       it, and the socle of C_S is {0, s}.  A finite Z/2^m-module meets
       the kernel of the coordinate sum trivially exactly when its socle
       does, and the coordinate sum of s is 2^(m-1) * d.  So every
       minimum-weight word is odd-like exactly when d is odd.
    3. C_S is the kernel of the projection of C onto the coordinates
       outside S, so log2 |C_S| is log2 |C| minus log2 of the size of
       the Howell form of C's rows with the lanes of S masked off.

    The socle is a GF(2) space: each canonical row, read as the n-bit mask
    of its 2^(m-1) lanes, is a basis vector, and _lightest_socle_words
    weighs all 2^k socle words bit-sliced, up to 2^16 of them in a few
    hundred big-int operations, returning the lightest in Gray-code order.
    When c is cyclic, C_S shifted by one is C_(S+1), of the same size, so
    one shortened code is sized per rotation orbit of lightest supports,
    at the orbit's first lightest word, and its count is multiplied by
    the orbit's size, the number of distinct rotations of that word;
    otherwise every orbit is one support.  budget bounds the socle words
    plus the words of every C_S the count covers, orbit members included,
    and is checked as each orbit is sized.
    """
    if c.is_zero:
        raise NoNonzeroWords("the zero code has no nonzero words")
    n, m, width, low = c.n, c.m, c._width, c._low
    socle = intersect(c, _coordinate_code(n, m, range(n), 1 << (m - 1)))
    spent = 1 << socle.log2_size
    if spent > budget:
        raise BudgetExceeded(
            f"2^{socle.log2_size} socle words exceed the budget of {budget}"
        )
    best, lightest = _lightest_socle_words(
        [
            sum(1 << i for i in range(n) if row >> (width * i + m - 1) & 1)
            for row in socle.rows
        ],
        n,
    )
    if _is_cyclic(c):
        full = (1 << n) - 1
        orbits = {}
        seen: set[int] = set()
        for s in lightest:
            if s not in seen:
                turns = {((s << t) | (s >> (n - t))) & full for t in range(n)}
                seen |= turns
                orbits[s] = len(turns)
    else:
        orbits = Counter(lightest)
    count = 0
    for rep, size in orbits.items():
        lanes = sum(1 << (width * i) for i in range(n) if rep >> i & 1)
        keep = low ^ ((1 << m) - 1) * lanes
        outside = _howell([row & keep for row in c.rows], n, m, width)
        short = c.log2_size - sum(
            m - ((r & -r).bit_length() - 1) % width for r in outside
        )
        spent += size << short
        if spent > budget:
            raise BudgetExceeded(
                f"{spent} socle and shortened-code words exceed the budget of {budget}"
            )
        count += size * ((1 << short) - 1)
    return WeightReport(best, count, best % 2 == 1, enumerated=True)


def extend(c: LinearCode) -> LinearCode:
    """Append the negated coordinate sum to every generator."""
    mod = 1 << c.m
    rows = [list(row) + [(-sum(row)) % mod] for row in c.gen]
    return canonical_form(rows, c.n + 1, c.m)


def puncture(c: LinearCode, pos: int) -> LinearCode:
    """Delete one coordinate."""
    if not 0 <= pos < c.n:
        raise BadPosition(f"position {pos} outside 0..{c.n - 1}")
    rows = [list(row[:pos]) + list(row[pos + 1:]) for row in c.gen]
    return canonical_form(rows, c.n - 1, c.m)


def mu_image(c: LinearCode, u: int) -> LinearCode:
    """The code under the coordinate relabeling i -> u*i mod n; u a unit."""
    rows = [mu_map(ZPoly(c.n, c.m, row), u).coeffs for row in c.gen]
    return canonical_form(rows, c.n, c.m)


def equivalent_under_mu(a: LinearCode, b: LinearCode) -> int | None:
    """Smallest unit u with the coordinate relabeling i -> u*i mapping a to b."""
    if a.n != b.n or a.m != b.m:
        raise ShapeMismatch("codes live in different ambient rings")
    if a.log2_size != b.log2_size:
        return None
    for u in range(1, a.n):
        if gcd(u, a.n) == 1 and mu_image(a, u) == b:
            return u
    return None

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

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadPosition,
    BudgetExceeded,
    NoNonzeroWords,
    ShapeMismatch,
)
from .modring import Modulus
from .polyring import ZPoly, _ones, _pack, _unpack, mu_map

DEFAULT_BUDGET = 1 << 20


def _lane_width(n: int, m: int) -> int:
    """Lane width for Z_{2^m}^n: room for a sum of 2n products below 4^m."""
    return 2 * m + n.bit_length() + 1


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
        return tuple(_unpack(r, self.n, self._width, (1 << self.m) - 1))

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


def _scan_words(words: Iterable[int], c: LinearCode) -> WeightReport:
    """Weight report over packed words shaped like c.  Adding 2^m - 1 to each
    lane sets bit m of the nonzero ones; mod 2^W - 1 a word is its lane sum."""
    n, m, width, fill = c.n, c.m, c._width, c._low
    flags = _ones(n, width) << m
    fold = (1 << width) - 1
    mask = (1 << m) - 1
    best = n + 1
    count = 0
    all_odd = True
    for word in words:
        w = ((word + fill) & flags).bit_count()
        if w == 0 or w > best:
            continue
        odd = (word % fold) & mask != 0
        if w < best:
            best, count, all_odd = w, 1, odd
        else:
            count += 1
            all_odd = all_odd and odd
    if best > n:
        raise NoNonzeroWords("the zero code has no nonzero words")
    return WeightReport(best, count, all_odd, enumerated=True)


def _coordinate_code(n: int, m: int, support: Iterable[int], scale: int) -> LinearCode:
    """The span of scale * e_i over the coordinates i in support."""
    return canonical_form(
        [[scale if j == i else 0 for j in range(n)] for i in support], n, m
    )


def min_weight(c: LinearCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Exact minimum nonzero Hamming weight, its word count and parity.

    For a nonzero word w, the last nonzero 2^j * w lies in the socle
    C[2] = C intersect 2^(m-1) * Z^n and its support lies inside supp(w).
    So the lightest socle words carry exactly the supports S of the
    minimum-weight words of C, and those words are the nonzero words of
    the shortened code C_S = C intersect span{e_i : i in S}.  The socle is
    enumerated once, then every C_S; budget bounds the total number of
    words enumerated, checked before each enumeration.
    """
    if c.is_zero:
        raise NoNonzeroWords("the zero code has no nonzero words")
    n, m = c.n, c.m
    socle = intersect(c, _coordinate_code(n, m, range(n), 1 << (m - 1)))
    spent = 1 << socle.log2_size
    if spent > budget:
        raise BudgetExceeded(
            f"2^{socle.log2_size} socle words exceed the budget of {budget}"
        )
    # socle entries are 0 or 2^(m-1): popcount is weight, bit m-1 is support
    best = n + 1
    lightest = []
    for word in socle._words():
        w = word.bit_count()
        if w == 0 or w > best:
            continue
        if w < best:
            best = w
            lightest = []
        lightest.append(word)
    shortened = []
    for word in lightest:
        support = [i for i in range(n) if word >> (c._width * i + m - 1) & 1]
        short = intersect(c, _coordinate_code(n, m, support, 1))
        spent += 1 << short.log2_size
        if spent > budget:
            raise BudgetExceeded(
                f"{spent} socle and shortened-code words exceed the budget of {budget}"
            )
        shortened.append(short)
    return _scan_words(chain.from_iterable(s._words() for s in shortened), c)


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

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
from typing import Iterable, Sequence

from .errors import (
    BadPosition,
    BudgetExceeded,
    NoNonzeroWords,
    ShapeMismatch,
)
from .modring import Modulus
from .polyring import ZPoly, _ones, _pack, _unpack, mu_map

DEFAULT_BUDGET = 1 << 20


def _val2(x: int, m: int) -> int:
    """2-adic valuation of x mod 2^m, with v(0) = m."""
    if x == 0:
        return m
    return (x & -x).bit_length() - 1


def _howell(rows: Iterable[int], n: int, m: int, width: int) -> list[int]:
    """Reduce a generating set of lane-packed rows to the unique Howell form.

    Rows are vectors of Z_{2^m}^n packed by _pack into lanes of
    width >= 2m + 1 bits with every entry below 2^m.  Every lane update
    below, a + (2^m - f)*b, a*u and a << (m - v), stays below 2^(2m+1)
    before the mask, so no carry crosses a lane and each step is one
    big-int multiply, add and mask.  The lowest set bit of a row gives its
    leading column (bit // width) and that entry's valuation (bit % width).

    Worklist echelonization: normalize each incoming row so its leading
    entry is a power of two, install it as the pivot for its leading
    column or reduce it by the incumbent (the smaller valuation wins),
    and queue 2^(m-v) times every installed row so the span stays closed
    under pivot annihilation.  A final left-to-right pass reduces the
    entries above each pivot below the pivot's power of two.  Returns the
    packed rows in leading-column order.
    """
    mod = 1 << m
    low = (mod - 1) * _ones(n, width)
    piv: dict[int, tuple[int, int]] = {}  # column -> (lowest set bit, row)
    queue = [r for r in rows if r]
    while queue:
        r = queue.pop()
        while True:
            bit = (r & -r).bit_length() - 1
            lead = bit // width
            incumbent = piv.get(lead)
            if incumbent is None or incumbent[0] > bit:
                break
            shift, prow = incumbent
            r = (r + (mod - ((r >> shift) & (mod - 1))) * prow) & low
            if not r:
                break
        if not r:
            continue
        v = bit - width * lead
        r = r * pow((r >> bit) & (mod - 1), -1, mod) & low
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
    """A submodule of Z_{2^m}^n held by its canonical generator matrix."""

    n: int
    m: int
    gen: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        Modulus(self.m)
        mod = 1 << self.m
        for row in self.gen:
            if len(row) != self.n:
                raise ShapeMismatch("generator row length differs from n")
            if any(not 0 <= c < mod for c in row):
                raise ValueError("generator entries out of range")

    @cached_property
    def log2_size(self) -> int:
        m = self.m
        return sum(m - _val2(row[self._lead(i)], m) for i, row in enumerate(self.gen))

    def _lead(self, i: int) -> int:
        row = self.gen[i]
        return next(c for c in range(self.n) if row[c])

    def cardinality(self) -> int:
        return 1 << self.log2_size

    @property
    def is_zero(self) -> bool:
        return not self.gen

    def contains(self, vec: Sequence[int]) -> bool:
        """Membership by reduction against the canonical rows."""
        if len(vec) != self.n:
            raise ShapeMismatch(f"vector length {len(vec)} in a length-{self.n} code")
        mod = 1 << self.m
        work = [c % mod for c in vec]
        for i, row in enumerate(self.gen):
            lead = self._lead(i)
            if work[lead]:
                v = _val2(row[lead], self.m)
                if _val2(work[lead], self.m) < v:
                    return False
                f = work[lead] >> v
                work = [(a - f * b) % mod for a, b in zip(work, row)]
        return not any(work)

    def contains_code(self, other: "LinearCode") -> bool:
        return all(self.contains(row) for row in other.gen)

    def codewords(self):
        """Yield every codeword exactly once, as tuples (coefficient odometer)."""
        if not self.gen:
            yield (0,) * self.n
            return
        mod = 1 << self.m
        caps = [
            1 << (self.m - _val2(row[self._lead(i)], self.m))
            for i, row in enumerate(self.gen)
        ]
        wrapfix = [
            [(-cap * c) % mod for c in row] for cap, row in zip(caps, self.gen)
        ]
        word = [0] * self.n
        digits = [0] * len(self.gen)
        while True:
            yield tuple(word)
            i = 0
            while i < len(digits):
                row = self.gen[i]
                word = [(a + b) % mod for a, b in zip(word, row)]
                digits[i] += 1
                if digits[i] < caps[i]:
                    break
                digits[i] = 0
                word = [(a + b) % mod for a, b in zip(word, wrapfix[i])]
                i += 1
            else:
                return


def canonical_form(rows: Iterable[Sequence[int]], n: int, m: int) -> LinearCode:
    """Canonicalize any generating set into a LinearCode."""
    mod = 1 << m
    width = 2 * m + 1
    packed = []
    for r in rows:
        if len(r) != n:
            raise ShapeMismatch(f"row length {len(r)} in a length-{n} code")
        packed.append(_pack([c % mod for c in r], width))
    reduced = _howell(packed, n, m, width)
    return LinearCode(
        n=n, m=m, gen=tuple(tuple(_unpack(r, n, width, mod - 1)) for r in reduced)
    )


def code_from_polynomial(g: ZPoly) -> LinearCode:
    """The cyclic ideal generated by g, as spans of its n rotations."""
    rows = []
    c = list(g.coeffs)
    for _ in range(g.n):
        rows.append(tuple(c))
        c = [c[-1]] + c[:-1]
    return canonical_form(rows, g.n, g.m)


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
    width = 2 * m + 1
    low = (mod - 1) * _ones(n, width)
    top = width * (n - 1)
    tail = _pack(g[:-1], width) << (width * k)  # x^k * t(x)
    row = 1 + tail
    rows = []
    for _ in range(k):
        rows.append(tuple(_unpack(row, n, width, mod - 1)))
        row = ((row << width) + (mod - (row >> top)) * tail) & low
    return LinearCode(n=n, m=m, gen=tuple(rows))


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


def _kernel(rows: Sequence[Sequence[int]], n: int, m: int) -> list[list[int]]:
    """Howell-form generators of {u in Z_{2^m}^n : rows . u = 0 mod 2^m}.

    Digit lifting.  Mod 2 the kernel is the GF(2) null space of the rows.
    Given generators of the kernel mod 2^l, a word sum(eps_t g_t) + 2^l w
    (eps, w over GF(2)) is in the kernel mod 2^(l+1) exactly when
    sum(eps_t s_t) + (rows mod 2) . w = 0 over GF(2), where s_t is the
    obstruction (rows . g_t mod 2^(l+1)) >> l.  Each level solves that
    system and Howell-reduces its solutions together with the doubles of
    the old generators, which always lift and keep the set complete.

    Vectors are lane-packed (see _howell) with lane width
    W = 2m + n.bit_length() + 1, which holds a whole inner product
    rows[i] . g.  Column j of the rows is packed too, entry i in lane i,
    so all of rows . g is one multiply-add per nonzero entry of g, and
    bit l of each lane is the obstruction, already a GF(2) column.
    """
    width = 2 * m + n.bit_length() + 1
    lanes = _ones(n, width)
    row_bits = _ones(len(rows), width)
    cols = [_pack([row[j] for row in rows], width) for j in range(n)]
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
            acc = 0
            for x, col in zip(_unpack(g, n, width, (1 << level) - 1), cols):
                if x:
                    acc += x * col
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
    return [_unpack(g, n, width, (1 << m) - 1) for g in gens]


def dual(c: LinearCode) -> LinearCode:
    """The annihilator code under the standard inner product."""
    return canonical_form(_kernel(c.gen, c.n, c.m), c.n, c.m)


def sum_codes(a: LinearCode, b: LinearCode) -> LinearCode:
    if a.n != b.n or a.m != b.m:
        raise ShapeMismatch("codes live in different ambient rings")
    return canonical_form(list(a.gen) + list(b.gen), a.n, a.m)


def intersect(a: LinearCode, b: LinearCode) -> LinearCode:
    """Pullback construction: solve s.A = t.B, return the common words."""
    if a.n != b.n or a.m != b.m:
        raise ShapeMismatch("codes live in different ambient rings")
    ra, rb = len(a.gen), len(b.gen)
    if ra == 0 or rb == 0:
        return canonical_form([], a.n, a.m)
    stacked = list(a.gen) + list(b.gen)
    transposed = [[stacked[i][j] for i in range(ra + rb)] for j in range(a.n)]
    mod = 1 << a.m
    words = []
    for x in _kernel(transposed, ra + rb, a.m):
        word = [0] * a.n
        for i in range(ra):
            if x[i]:
                word = [(w + x[i] * g) % mod for w, g in zip(word, a.gen[i])]
        words.append(word)
    return canonical_form(words, a.n, a.m)


def orthogonal(a: LinearCode, b: LinearCode) -> bool:
    """Whether every word of a pairs to 0 with every word of b.

    Column j of b is packed as in _kernel, entry i in lane i of width
    2m + n.bit_length() + 1, which holds a whole inner product.  So the
    products of one row of a with all rows of b are one multiply-add per
    nonzero entry of that row, and the row is orthogonal to b exactly
    when every lane vanishes mod 2^m.
    """
    if a.n != b.n or a.m != b.m:
        raise ShapeMismatch("codes live in different ambient rings")
    n, m = a.n, a.m
    width = 2 * m + n.bit_length() + 1
    cols = [_pack([row[j] for row in b.gen], width) for j in range(n)]
    low = ((1 << m) - 1) * _ones(len(b.gen), width)
    for row in a.gen:
        acc = 0
        for x, col in zip(row, cols):
            if x:
                acc += x * col
        if acc & low:
            return False
    return True


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


def _scan_words(words, n: int, m: int) -> WeightReport:
    mod = 1 << m
    best = n + 1
    count = 0
    all_odd = True
    seen_any = False
    for word in words:
        w = sum(1 for x in word if x)
        if w == 0:
            continue
        seen_any = True
        if w < best:
            best = w
            count = 1
            all_odd = sum(word) % mod != 0
        elif w == best:
            count += 1
            if sum(word) % mod == 0:
                all_odd = False
    if not seen_any:
        raise NoNonzeroWords("the zero code has no nonzero words")
    return WeightReport(
        min_weight=best,
        min_weight_count=count,
        all_min_odd_like=all_odd,
        enumerated=True,
    )


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
    best = n + 1
    lightest = []
    for word in socle.codewords():
        w = n - word.count(0)
        if w == 0 or w > best:
            continue
        if w < best:
            best = w
            lightest = []
        lightest.append(word)
    shortened = []
    for word in lightest:
        support = [i for i in range(n) if word[i]]
        short = intersect(c, _coordinate_code(n, m, support, 1))
        spent += 1 << short.log2_size
        if spent > budget:
            raise BudgetExceeded(
                f"{spent} socle and shortened-code words exceed the budget of {budget}"
            )
        shortened.append(short)
    return _scan_words(chain.from_iterable(s.codewords() for s in shortened), n, m)


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

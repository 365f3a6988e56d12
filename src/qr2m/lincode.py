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
from .polyring import ZPoly, mu_map

DEFAULT_BUDGET = 1 << 20


def _val2(x: int, m: int) -> int:
    """2-adic valuation of x mod 2^m, with v(0) = m."""
    if x == 0:
        return m
    return (x & -x).bit_length() - 1


def _howell(rows: Iterable[Sequence[int]], n: int, m: int) -> list[list[int]]:
    """Reduce a generating set to the unique Howell form.

    Worklist echelonization: normalize each incoming row so its leading
    entry is a power of two, install it as the pivot for its leading
    column or reduce it by the incumbent (the smaller valuation wins),
    and queue 2^(m-v) times every installed row so the span stays closed
    under pivot annihilation.  A final left-to-right pass reduces the
    entries above each pivot below the pivot's power of two.
    """
    mod = 1 << m
    piv: dict[int, list[int]] = {}
    queue = []
    for r in rows:
        if len(r) != n:
            raise ShapeMismatch(f"row length {len(r)} in a length-{n} code")
        rr = [c % mod for c in r]
        if any(rr):
            queue.append(rr)
    while queue:
        r = queue.pop()
        lead = next((c for c in range(n) if r[c]), None)
        if lead is None:
            continue
        v = _val2(r[lead], m)
        incumbent = piv.get(lead)
        if incumbent is not None and _val2(incumbent[lead], m) <= v:
            f = r[lead] >> _val2(incumbent[lead], m)
            queue.append([(a - f * b) % mod for a, b in zip(r, incumbent)])
            continue
        unit_inv = pow(r[lead] >> v, -1, mod)
        r = [c * unit_inv % mod for c in r]
        piv[lead] = r
        if incumbent is not None:
            queue.append(incumbent)
        if v < m:
            ann = [(c << (m - v)) % mod for c in r]
            if any(ann):
                queue.append(ann)
    cols = sorted(piv)
    for c in cols:
        v = _val2(piv[c][c], m)
        for c2 in cols:
            if c2 >= c:
                break
            row2 = piv[c2]
            if row2[c]:
                f = row2[c] >> v
                piv[c2] = [(a - f * b) % mod for a, b in zip(row2, piv[c][:])]
    return [piv[c] for c in cols]


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

    @property
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
    reduced = _howell(rows, n, m)
    return LinearCode(n=n, m=m, gen=tuple(tuple(r) for r in reduced))


def code_from_polynomial(g: ZPoly) -> LinearCode:
    """The cyclic ideal generated by g, as spans of its n rotations."""
    rows = []
    c = list(g.coeffs)
    for _ in range(g.n):
        rows.append(tuple(c))
        c = [c[-1]] + c[:-1]
    return canonical_form(rows, g.n, g.m)


def _kernel(rows: Sequence[Sequence[int]], n: int, m: int) -> list[list[int]]:
    """Generators of {u in Z_{2^m}^n : rows . u = 0 mod 2^m}.

    Digit lifting: solve the system mod 2 by GF(2) elimination, then for
    each extra bit solve, again over GF(2), which combinations of the
    current generators extend (their obstruction vector must land in the
    image of the mod-2 matrix) and rebuild the generating set one modulus
    doubling ... one digit at a time.  Doubles of old generators always
    survive, which keeps the set complete at every level.
    """
    k = len(rows)
    a_bar = [[rows[i][j] & 1 for j in range(n)] for i in range(k)]

    def solve_gf2(mat: list[list[int]], cols: int) -> list[list[int]]:
        """Kernel basis of mat (list of rows) over GF(2)."""
        work = [row[:] for row in mat]
        pivots: dict[int, list[int]] = {}
        for row in work:
            for c in range(cols):
                if row[c]:
                    if c in pivots:
                        prow = pivots[c]
                        row[:] = [(x ^ y) for x, y in zip(row, prow)]
                    else:
                        pivots[c] = row
                        break
        basis = []
        free = [c for c in range(cols) if c not in pivots]
        for fc in free:
            vec = [0] * cols
            vec[fc] = 1
            for c in sorted(pivots, reverse=True):
                s = sum(pivots[c][j] & vec[j] for j in range(c + 1, cols)) & 1
                vec[c] = s
            basis.append(vec)
        return basis

    gens = solve_gf2(a_bar, n)
    for level in range(1, m):
        mod_next = 1 << (level + 1)
        obstructions = []
        for g in gens:
            sg = [
                (sum(rows[i][j] * g[j] for j in range(n)) % mod_next) >> level
                for i in range(k)
            ]
            obstructions.append(sg)
        # unknowns: w (n bits) then eps (len(gens) bits)
        combined = [
            [a_bar[i][j] for j in range(n)] + [obstructions[t][i] for t in range(len(gens))]
            for i in range(k)
        ]
        sol = solve_gf2(combined, n + len(gens))
        new_gens = []
        for vec in sol:
            w, eps = vec[:n], vec[n:]
            cand = [0] * n
            for t, e in enumerate(eps):
                if e:
                    cand = [x + y for x, y in zip(cand, gens[t])]
            cand = [(x + (wj << level)) % mod_next for x, wj in zip(cand, w)]
            if any(cand):
                new_gens.append(cand)
        for g in gens:
            doubled = [(2 * x) % mod_next for x in g]
            if any(doubled):
                new_gens.append(doubled)
        gens = _howell(new_gens, n, level + 1)
    return _howell(gens, n, m)


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


def is_self_orthogonal(c: LinearCode) -> bool:
    mod = 1 << c.m
    for r1 in c.gen:
        for r2 in c.gen:
            if sum(x * y for x, y in zip(r1, r2)) % mod != 0:
                return False
    return True


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

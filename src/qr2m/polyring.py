"""Dense arithmetic in Z_{2^m}[x]/(x^n - 1) and factor lifting.

Coefficients are plain Python integers (constant term first), so the
arithmetic stays exact for every m up to the 62-bit cap.  Every product
is one big-int multiply of operands packed into bit lanes (Kronecker
substitution), wide enough that no coefficient sum spills into the next
lane; the cyclic product folds at x^n = 1 inside the packed word.  A lane
is 8 * 2^j bits, the narrowest such width that holds the sums, so packing
and unpacking are one struct call over little-endian bytes each.  The
lane format (_byte_lanes, _ones, _pack, _unpack) is shared with lincode's
packed rows.
Alongside the cyclic ring ZPoly this module carries the non-cyclic
helpers needed to factor x^p - 1 over GF(2) and to lift that
factorization to 2^m.  The lift is Graeffe root-squaring: a factor F of
x^p - 1 whose roots are closed under squaring has F(x^2) = +-F(x) F(-x),
so each bit of the modulus is one packed product per factor, with no
division.  Division over Z/2^m, which idempotent_from_generator uses to
find the cofactor of a generator, goes through a Newton inverse of the
reversed divisor, so it too is a few packed products; the idempotent is
then one cyclic product, read off the derivative of f * cofactor =
x^n - 1.  GF(2)[x] polynomials are ints, bit i the coefficient of x^i, so
the gcds behind the binary factorization are shifts and XORs.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from math import gcd
from typing import Sequence

from .errors import (
    NotAUnit,
    NotCoprime,
    NotCoprimeCofactor,
    ShapeMismatch,
)
from .modring import Modulus, Record, quad_partition


class ZPoly(Record):
    """Element of Z_{2^m}[x]/(x^n - 1) as n coefficients, constant first.

    The constructor checks the shape and reduces the coefficients mod 2^m.
    """

    def __init__(self, n: int, m: int, coeffs: tuple[int, ...]) -> None:
        Modulus(m)
        if n < 1:
            raise ValueError(f"ring length must be positive, got {n}")
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        modulus = 1 << m
        if min(coeffs) < 0 or max(coeffs) >= modulus:
            coeffs = tuple(c % modulus for c in coeffs)
        self.__dict__.update(n=n, m=m, coeffs=coeffs)

    @classmethod
    def zero(cls, n: int, m: int) -> "ZPoly":
        return cls(n, m, (0,) * n)

    @classmethod
    def one(cls, n: int, m: int) -> "ZPoly":
        return cls(n, m, (1,) + (0,) * (n - 1))

    @classmethod
    def constant(cls, c: int, n: int, m: int) -> "ZPoly":
        return cls(n, m, (c % (1 << m),) + (0,) * (n - 1))

    @classmethod
    def x_power(cls, k: int, n: int, m: int) -> "ZPoly":
        coeffs = [0] * n
        coeffs[k % n] = 1
        return cls(n, m, tuple(coeffs))

    @classmethod
    def from_support(cls, indices, n: int, m: int) -> "ZPoly":
        """Sum of x^i over the given indices."""
        coeffs = [0] * n
        for i in indices:
            coeffs[i % n] += 1
        return cls(n, m, tuple(c % (1 << m) for c in coeffs))

    @classmethod
    def from_text(cls, text: str, n: int, m: int) -> "ZPoly":
        """Parse comma-separated coefficients, constant term first."""
        parts = [int(t) for t in text.split(",") if t.strip()]
        if len(parts) > n:
            raise ShapeMismatch(f"{len(parts)} coefficients exceed ring length {n}")
        parts += [0] * (n - len(parts))
        return cls(n, m, tuple(parts))

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def _check_shape(self, other: "ZPoly") -> None:
        if self.n != other.n or self.m != other.m:
            raise ShapeMismatch(
                f"({self.n}, 2^{self.m}) vs ({other.n}, 2^{other.m})"
            )

    def __add__(self, other: "ZPoly") -> "ZPoly":
        self._check_shape(other)
        mod = 1 << self.m
        return ZPoly(
            self.n, self.m,
            tuple((a + b) % mod for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        self._check_shape(other)
        mod = 1 << self.m
        return ZPoly(
            self.n, self.m,
            tuple((a - b) % mod for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "ZPoly":
        mod = 1 << self.m
        return ZPoly(self.n, self.m, tuple((-a) % mod for a in self.coeffs))

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        return ring_mul(self, other)

    def scale(self, c: int) -> "ZPoly":
        mod = 1 << self.m
        return ZPoly(self.n, self.m, tuple(a * c % mod for a in self.coeffs))

    def reduce_mod(self, m2: int) -> "ZPoly":
        """Reduce coefficients to the smaller modulus 2^m2."""
        if m2 > self.m:
            raise ShapeMismatch(f"cannot widen modulus 2^{self.m} to 2^{m2}")
        mod = 1 << m2
        return ZPoly(self.n, m2, tuple(c % mod for c in self.coeffs))

    def degree(self) -> int:
        """Largest index with a nonzero coefficient, -1 for zero."""
        for i in range(self.n - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def ring_mul(a: ZPoly, b: ZPoly) -> ZPoly:
    """Cyclic product by one multiply of packed operands (a square if a is b).

    Lane k of the linear product plus lane k + n is the sum over
    i + j = k mod n of a_i * b_j: exactly n products below 4^m, which lanes
    of 2m + bit_length(n) bits hold, so the fold at x^n = 1 is one shift
    and add of the packed product with no carry out of lanes 0..n-1.
    """
    a._check_shape(b)
    n, m = a.n, a.m
    width = _byte_lanes(2 * m + n.bit_length())
    x = _pack(a.coeffs, width)
    prod = x * x if a is b else x * _pack(b.coeffs, width)
    return ZPoly(n, m, _unpack(prod + (prod >> (width * n)), n, width, (1 << m) - 1))


def mu_map(f: ZPoly, a: int) -> ZPoly:
    """Coordinate permutation i -> a*i mod n; a must be a unit mod n."""
    if gcd(a, f.n) != 1:
        raise NotAUnit(f"{a} is not a unit modulo {f.n}")
    out = [0] * f.n
    for i, c in enumerate(f.coeffs):
        out[a * i % f.n] = c
    return ZPoly(f.n, f.m, tuple(out))


# ----------------------------------------------------------------------
# Lane-packed vectors: one int per vector, entry j in its own bit lane.

def _byte_lanes(bits: int) -> int:
    """The narrowest lane width of 8 * 2^j bits that holds the given bits."""
    return max(8, 1 << (bits - 1).bit_length())


_LANE_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _lane_format(count: int, width: int) -> str:
    """struct format of count little-endian lanes of a _byte_lanes width;
    a lane wider than 64 bits is its low 64 bits and zero padding."""
    code = _LANE_CODES.get(width)
    if code is None:
        return "<" + f"Q{width // 8 - 8}x" * count
    return f"<{count}{code}"


def _ones(count: int, width: int) -> int:
    """The int with a 1 at the bottom of each of count lanes of the given width."""
    return int.from_bytes((1).to_bytes(width // 8, "little") * count, "little")


def _pack(row: Sequence[int], width: int) -> int:
    """One int per vector: entry j sits in bits [width*j, width*(j+1)).

    width comes from _byte_lanes and every entry lies in [0, 2^min(width, 64)).
    """
    return int.from_bytes(struct.pack(_lane_format(len(row), width), *row), "little")


def _unpack(x: int, n: int, width: int, mask: int) -> tuple[int, ...]:
    """Lanes 0..n-1 of x, each ANDed with mask (below 2^64); x may hold
    more lanes, which are ignored."""
    data = (x & mask * _ones(n, width)).to_bytes(width // 8 * n, "little")
    return struct.unpack(_lane_format(n, width), data)


# ----------------------------------------------------------------------
# Non-cyclic polynomial helpers (dense lists, constant term first).

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul_raw(a: Sequence[int], b: Sequence[int], mod: int) -> list[int]:
    """Linear product mod a power of two, by one multiply of packed operands.

    Coefficients must lie in [0, mod).  Lane k of the packed product is
    the sum of at most min(len a, len b) products below mod^2, so lanes of
    _byte_lanes(2*log2(mod) + bit_length(min(len a, len b))) bits hold it
    exactly and no carry crosses into the next lane.
    """
    if not a or not b:
        return []
    width = _byte_lanes(2 * (mod.bit_length() - 1) + min(len(a), len(b)).bit_length())
    prod = _pack(a, width) * _pack(b, width)
    return _trim(list(_unpack(prod, len(a) + len(b) - 1, width, mod - 1)))


def _pad(a: list[int], k: int) -> list[int]:
    """The first k coefficients of a, zeros filled in."""
    return a[:k] + [0] * (k - len(a))


def _reversed_inverse(b: list[int], k: int, mod: int) -> list[int]:
    """The first k coefficients of 1 / rev(b), where rev(b) = x^deg(b) b(1/x).

    b is trimmed with an odd leading coefficient, the constant term of
    rev(b).  Newton's step g <- g (2 - rev(b) g) doubles the precision
    each time; it is taken as g - g (rev(b) g - 1), where rev(b) g - 1
    vanishes below the old precision, so only its next block is multiplied.
    The result has exactly k entries.
    """
    rev = b[::-1]
    g = [pow(rev[0], -1, mod)]
    while len(g) < k:
        lo, hi = len(g), min(2 * len(g), k)
        err = _mul_raw(rev[:hi], g, mod)[lo:hi]
        corr = _mul_raw(g[:hi - lo], err, mod)
        g += [-c % mod for c in _pad(corr, hi - lo)]
    return g


def _divmod_raw(a: list[int], b: list[int], mod: int) -> tuple[list[int], list[int]]:
    """Division by b with odd leading coefficient, through a Newton inverse.

    With k = deg a - deg b + 1, rev(q) = rev(a) * rev(b)^-1 mod x^k and
    r = a - b q, so the division is two products.  A zero b raises
    ZeroDivisionError, an even leading coefficient the ValueError of
    pow(lead, -1, mod).
    """
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    pow(b[-1], -1, mod)  # an even leading coefficient raises ValueError here
    b = [c % mod for c in b]
    a = _trim([c % mod for c in a])
    k = len(a) - len(b) + 1
    if k <= 0:
        return [], a
    rev_q = _mul_raw(a[:-k - 1:-1], _reversed_inverse(b, k, mod), mod)
    q = _trim(_pad(rev_q, k)[::-1])
    low = len(b) - 1
    bq = _pad(_mul_raw(b[:low], q[:low], mod), low)
    return q, _trim([(x - y) % mod for x, y in zip(a[:low], bq)])


def _x_pow_minus_one(n: int, mod: int) -> list[int]:
    out = [0] * (n + 1)
    out[0] = (-1) % mod
    out[n] = 1
    return out


def _to_zpoly(raw: list[int], n: int, m: int) -> ZPoly:
    if len(raw) > n:
        raise ShapeMismatch(f"degree {len(raw) - 1} polynomial exceeds ring length {n}")
    return ZPoly(n, m, tuple(raw) + (0,) * (n - len(raw)))


def _from_zpoly(f: ZPoly) -> list[int]:
    return _trim(list(f.coeffs))


# ----------------------------------------------------------------------
# GF(2)[x] as ints: bit i is the coefficient of x^i, so addition is XOR.

def _gf2_list(a: int) -> list[int]:
    """Coefficient list of a GF(2) polynomial, constant first, trimmed."""
    return [int(c) for c in reversed(bin(a)[2:])] if a else []


def _gf2_divmod(a: int, b: int) -> tuple[int, int]:
    """Division by a nonzero b: shift b under the top bit of a and XOR."""
    db = b.bit_length()
    if not db:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    while (shift := a.bit_length() - db) >= 0:
        q |= 1 << shift
        a ^= b << shift
    return q, a


def _gcd_gf2(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_divmod(a, b)[1]
    return a


# ----------------------------------------------------------------------
# Factorization of x^p - 1 and its lift.

class FactorSet(Record):
    """The triple x^p - 1 = f_unit * f_q * f_n over Z_{2^m}."""

    def __init__(self, p: int, m: int, f_unit: ZPoly, f_q: ZPoly, f_n: ZPoly) -> None:
        self.__dict__.update(p=p, m=m, f_unit=f_unit, f_q=f_q, f_n=f_n)

    def verify_product(self) -> bool:
        """Multiply out at full degree before reduction and compare."""
        mod = 1 << self.m
        prod = _mul_raw(
            _mul_raw(_from_zpoly(self.f_unit), _from_zpoly(self.f_q), mod),
            _from_zpoly(self.f_n),
            mod,
        )
        return prod == _trim([c % mod for c in _x_pow_minus_one(self.p, mod)])


def cyclotomic_cosets(p: int) -> list[tuple[int, ...]]:
    """Cosets of multiplication by 2 on {1..p-1}, each sorted, reps ascending."""
    seen = [False] * p
    cosets = []
    for start in range(1, p):
        if seen[start]:
            continue
        coset = []
        i = start
        while not seen[i]:
            seen[i] = True
            coset.append(i)
            i = 2 * i % p
        cosets.append(tuple(sorted(coset)))
    return cosets


@lru_cache(maxsize=None)
def binary_qr_factors(p: int) -> FactorSet:
    """Factor x^p - 1 = (x - 1) f_q f_n over GF(2).

    Each cyclotomic coset of 2 lies wholly inside Q or N because 2 is a
    residue, so the residue and nonresidue support polynomials are
    idempotent mod 2 and their gcds with x^p - 1 pick out exactly the
    factors rooted at residue and at nonresidue exponents.  No root of
    unity is ever represented explicitly.  The supports are the partition's
    bit masks and the gcds run on GF(2)[x] as ints, with the cofactor
    (x^p - 1) / (x - 1) = 1 + x + ... + x^(p-1) as the mask of p ones.
    """
    part = quad_partition(p)
    qset, nset = set(part.q), set(part.n)
    for coset in cyclotomic_cosets(p):
        inside_q = sum(1 for i in coset if i in qset)
        if inside_q not in (0, len(coset)):
            raise NotCoprime(f"coset {coset} straddles the partition for p={p}")
    cofactor = (1 << p) - 1
    f_q = _gcd_gf2(part.q_mask, cofactor)
    f_n = _gcd_gf2(part.n_mask, cofactor)
    half = (p - 1) // 2
    if f_q.bit_length() != half + 1 or f_n.bit_length() != half + 1:
        raise NotCoprime(f"unexpected factor degrees for p={p}")
    fs = FactorSet(
        p=p,
        m=1,
        f_unit=_to_zpoly([1, 1], p, 1),
        f_q=_to_zpoly(_gf2_list(f_q), p, 1),
        f_n=_to_zpoly(_gf2_list(f_n), p, 1),
    )
    if not fs.verify_product():
        raise NotCoprime(f"binary factor product check failed for p={p}")
    return fs


def _graeffe_lift(f: list[int], m: int) -> list[int]:
    """The monic factor of x^p - 1 over Z/2^m that reduces to f mod 2.

    f is a factor of x^p - 1 over GF(2), p odd, so the roots of its lift F
    are p-th roots of unity closed under squaring, and Graeffe's identity
    F(x^2) = (-1)^d F(x) F(-x), d = deg F, holds.  If g = F + 2^k e, then
    g(x) g(-x) differs from F(x) F(-x) by a multiple of 2^(2k) plus
    2^k (u(x) + u(-x)) with u = e(x) F(-x), and u(x) + u(-x) is twice the
    even part of u; so (-1)^d g(x) g(-x) is F(x^2) mod 2^(k+1).  Each bit
    is therefore one product of g with (-1)^d g(-x), whose even-index
    coefficients are those of F mod 2^(k+1).
    """
    d = len(f) - 1
    g = f
    for k in range(2, m + 1):
        mod = 1 << k
        reflected = [(-c if (d - i) & 1 else c) % mod for i, c in enumerate(g)]
        g = _mul_raw(g, reflected, mod)[::2]
    return g


def hensel_lift_factors(seed: FactorSet, m_target: int) -> FactorSet:
    """Lift the binary factorization to Z_{2^m_target}.

    The unit factor x - 1 divides x^p - 1 exactly over the integers; f_q
    and f_n are lifted one bit at a time by Graeffe root-squaring
    (_graeffe_lift), one product per factor and bit.  The result is the
    Hensel lift, the unique monic factorization over Z/2^m_target that
    reduces to the seed.  Multiplying it back out is the check, and a
    seed whose factors are not coprime mod 2 fails it.
    """
    p = seed.p
    Modulus(m_target)
    if m_target < seed.m:
        raise ShapeMismatch(f"cannot lift downward from 2^{seed.m} to 2^{m_target}")
    f_q, f_n = (
        _to_zpoly(_graeffe_lift(_from_zpoly(f.reduce_mod(1)), m_target), p, m_target)
        for f in (seed.f_q, seed.f_n)
    )
    fs = FactorSet(
        p=p,
        m=m_target,
        f_unit=_to_zpoly([(1 << m_target) - 1, 1], p, m_target),
        f_q=f_q,
        f_n=f_n,
    )
    if not fs.verify_product():
        raise NotCoprime("lifted factor product check failed")
    return fs


def idempotent_from_generator(f: ZPoly) -> ZPoly:
    """The unique idempotent generating the same ideal as f.

    Requires n odd and f to divide x^n - 1 over Z_{2^m}; f is first made
    monic.  With f * c = x^n - 1, the derivative gives
    x f' c + x f c' = n x^n, which is n in R_n.  So e = n^-1 x f c' and
    1 - e = n^-1 x f' c, and e (1 - e) is a multiple of f c = 0: e is
    idempotent.  e is a multiple of f, and f = f e because f (1 - e) is a
    multiple of f c, so (e) = (f).  The idempotent is one product of f
    with n^-1 x c' mod x^n - 1.  An even n has no inverse mod 2^m.
    """
    n, m = f.n, f.m
    mod = 1 << m
    if n % 2 == 0:
        raise NotCoprimeCofactor(f"ring length {n} is even, so it has no inverse mod 2^{m}")
    raw = _from_zpoly(f)
    if not raw:
        raise NotCoprimeCofactor("zero polynomial generates the zero ideal")
    lead = raw[-1]
    if lead % 2 == 0:
        raise NotCoprimeCofactor(f"leading coefficient {lead} is not a unit")
    monic = [c * pow(lead, -1, mod) % mod for c in raw]
    cof, rem = _divmod_raw(_x_pow_minus_one(n, mod), monic, mod)
    if rem:
        raise NotCoprimeCofactor("generator does not divide x^n - 1")
    # n^-1 x c'(x); only a constant f has a cofactor of degree n, folded to x^0
    n_inv = pow(n, -1, mod)
    xc_prime = [0] * n
    for i, c in enumerate(cof):
        xc_prime[i % n] += i * c * n_inv
    return ring_mul(_to_zpoly(monic, n, m), ZPoly(n, m, tuple(xc_prime)))

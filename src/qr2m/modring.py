"""Quadratic residue partitions and family parameters modulo 2^m.

For an odd prime p congruent to +1 or -1 modulo 8, the nonzero residues
split into the set Q of quadratic residues and its complement N.  The
counting functions here (zero sums, residue class counts) classify one
sum at a time; they are the element-wise reference for the cyclotomic
numbers of order 2 that the verifier reads off the basis products in
`qr`.  A partition also holds each class as a p-bit mask (bit j set for j
in the class), which the binary factorization of x^p - 1 reads.
`family_params` locates p relative to 2^m as p = +-(8k - 1), which is the
congruence every construction case keys on.  `Record` is the base of the
package's value classes, here and in the modules that import this one.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable

from .errors import (
    BadModulus,
    BadResidueClass,
    NoValidK,
    NotPrime,
    OutOfFamilyRange,
    PrimeTooLarge,
)

MAX_M = 62
# largest p accepted; the partition, its tables and masks and every ring
# element over it are p-sized, and at p near 2^20 a partition alone takes
# seconds and about 150 MB
MAX_P = 1 << 20


class Record:
    """An immutable value named by its fields.

    A subclass's fields are the parameters of its own __init__, which
    stores them into __dict__ (functools.cached_property also fills it).
    Records of the same class are equal when their fields are, and hash
    and print by them; assigning or deleting an attribute raises.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        d, e = self.__dict__, other.__dict__
        for f in self._fields:
            if d[f] != e[f]:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Modulus(Record):
    """Exponent m of a power-of-two modulus, 1 <= m <= 62."""

    def __init__(self, m: int) -> None:
        if not isinstance(m, int) or not 1 <= m <= MAX_M:
            raise BadModulus(f"modulus exponent must be in 1..{MAX_M}, got {m!r}")
        self.__dict__["m"] = m

    @property
    def value(self) -> int:
        return 1 << self.m


def is_odd_prime(p: int) -> bool:
    """Trial-division primality test, adequate for desk-scale p."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class QuadPartition(Record):
    """The partition of {1..p-1} into residues q and nonresidues n."""

    def __init__(self, p: int, q: tuple[int, ...], n: tuple[int, ...]) -> None:
        self.__dict__.update(p=p, q=q, n=n)

    def classify(self, i: int) -> int:
        """Return 0 for i = 0 mod p, 1 for a residue, 2 for a nonresidue."""
        return self._table[i % self.p]

    def is_residue(self, i: int) -> bool:
        return self._table[i % self.p] == 1

    @cached_property
    def _table(self) -> tuple[int, ...]:
        table = [2] * self.p
        table[0] = 0
        for i in self.q:
            table[i] = 1
        return tuple(table)

    @cached_property
    def q_mask(self) -> int:
        """Bit j set exactly for the residues j."""
        return sum(1 << j for j in self.q)

    @cached_property
    def n_mask(self) -> int:
        """Bit j set exactly for the nonresidues j."""
        return sum(1 << j for j in self.n)


def require_qr_prime(p: int) -> None:
    """Raise what quad_partition raises for p: PrimeTooLarge, NotPrime or
    BadResidueClass, unless p is an odd prime = +-1 mod 8 and p <= MAX_P.
    PrimeTooLarge comes before any trial division."""
    if isinstance(p, int) and p > MAX_P:
        raise PrimeTooLarge(f"p = {p} exceeds the bound MAX_P = {MAX_P}")
    if not is_odd_prime(p):
        raise NotPrime(f"{p} is not an odd prime")
    if p % 8 not in (1, 7):
        raise BadResidueClass(f"{p} is not +-1 mod 8 (p mod 8 = {p % 8})")


@lru_cache(maxsize=None)
def quad_partition(p: int) -> QuadPartition:
    """Split {1..p-1} by squaring; requires prime p = +-1 mod 8, p <= MAX_P."""
    require_qr_prime(p)
    squares = sorted({i * i % p for i in range(1, p)})
    q = tuple(squares)
    qset = set(squares)
    n = tuple(i for i in range(1, p) if i not in qset)
    return QuadPartition(p=p, q=q, n=n)


def count_zero_sums(s1: Iterable[int], s2: Iterable[int], p: int) -> int:
    """Count pairs (i, j) in s1 x s2 with i + j = 0 mod p."""
    s2set = {j % p for j in s2}
    return sum(1 for i in s1 if (-i) % p in s2set)


def residue_class_counts(i: int, s: Iterable[int], p: int) -> tuple[int, int, int]:
    """Classify i + j mod p over j in s into (residues, nonresidues, zeros)."""
    part = quad_partition(p)
    counts = [0, 0, 0]
    for j in s:
        counts[part.classify(i + j)] += 1
    # classify() codes zero as 0, residue as 1, nonresidue as 2
    return counts[1], counts[2], counts[0]


class FamilyParams(Record):
    """Location of p relative to 2^m: p = sign * (8k - 1) mod 2^m."""

    def __init__(self, p: int, m: int, k: int, sign: int) -> None:
        self.__dict__.update(p=p, m=m, k=k, sign=sign)

    @property
    def h_multiplier(self) -> int:
        """The scalar 8k - 1 used in every shift along the all-ones vector."""
        return 8 * self.k - 1


def family_params(p: int, m: int) -> FamilyParams:
    """The unique (k, sign) with p = sign*(8k - 1) mod 2^m, in closed form.

    With r = p mod 2^m: r = 7 mod 8 gives sign +1 and k = (r + 1)/8;
    r = 1 mod 8 gives sign -1 and k = (2^m - r + 1)/8.  Requires m >= 4,
    which puts k in 1..2^(m-3) - 1.  Residues 1 and -1 mod 2^m are
    excluded from the family and raise OutOfFamilyRange.
    """
    require_qr_prime(p)
    if m < 4:
        raise NoValidK(f"family parameters need m >= 4, got m={m}")
    modulus = Modulus(m).value
    r = p % modulus
    if r in (1, modulus - 1):
        raise OutOfFamilyRange(f"p mod 2^{m} = {'1' if r == 1 else '-1'} has no (k, sign)")
    if r % 8 == 7:
        return FamilyParams(p=p, m=m, k=(r + 1) // 8, sign=1)
    return FamilyParams(p=p, m=m, k=(modulus - r + 1) // 8, sign=-1)

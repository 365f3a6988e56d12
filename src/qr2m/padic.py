"""Binary digit expansions of p, -p, 1/p and -1/p modulo 2^m.

Each expansion is produced the slow way, one digit at a time from the
defining congruence, and then cross-checked against direct modular
arithmetic.  The digit route and the direct route are independent, so a
bug in either one trips the comparison loudly instead of propagating.
"""

from __future__ import annotations

import enum

from .errors import Qr2mError, TemplateNeedsM4
from .modring import Modulus, Record


class Target(enum.Enum):
    """Which value to expand; the congruence solved is f(x) = 0 mod 2^m."""

    P = "p"
    NEG_P = "neg_p"
    INV_P = "inv_p"
    NEG_INV_P = "neg_inv_p"


class Template(enum.Enum):
    """Low-order digit patterns: d0 d1 d2 = 1 1 1 or 1 0 0."""

    LOW111 = (1, 1, 1)
    LOW100 = (1, 0, 0)


class PadicExpansion(Record):
    """m binary digits, least significant first."""

    def __init__(self, m: int, digits: tuple[int, ...]) -> None:
        Modulus(m)
        if len(digits) != m or any(d not in (0, 1) for d in digits):
            raise ValueError("digits must be m values in {0, 1}")
        self.__dict__.update(m=m, digits=digits)

    @property
    def value(self) -> int:
        return sum(d << i for i, d in enumerate(self.digits))


def _congruence(target: Target, p: int) -> tuple[int, int]:
    """Coefficients (a, b) of the defining congruence a*x + b = 0 mod 2^m."""
    return {
        Target.P: (1, -p),
        Target.NEG_P: (1, p),
        Target.INV_P: (p, -1),
        Target.NEG_INV_P: (p, 1),
    }[target]


def direct_value(target: Target, p: int, m: int) -> int:
    """The expanded value by ordinary modular arithmetic."""
    modulus = Modulus(m).value
    if target is Target.P:
        return p % modulus
    if target is Target.NEG_P:
        return (-p) % modulus
    inv = pow(p, -1, modulus)
    return inv if target is Target.INV_P else (-inv) % modulus


def expand(target: Target, p: int, m: int) -> PadicExpansion:
    """Solve the defining congruence digit by digit."""
    if p < 3 or p % 2 == 0:
        raise Qr2mError(f"expansions are defined for odd p >= 3, got {p}")
    Modulus(m)
    a, b = _congruence(target, p)
    digits = []
    x = 0
    for j in range(m):
        # a is odd, so the digit is the parity of the current residual / 2^j
        residual = (a * x + b) >> j
        d = residual & 1
        digits.append(d)
        x += d << j
    if (a * x + b) % (1 << m) != 0:
        raise AssertionError("digit recursion failed to solve its congruence")
    result = PadicExpansion(m=m, digits=tuple(digits))
    if result.value != direct_value(target, p, m):
        raise AssertionError("digit expansion disagrees with direct arithmetic")
    return result


def matches_template(e: PadicExpansion, template: Template) -> bool:
    """Check the three low-order digits; needs m >= 4."""
    if e.m < 4:
        raise TemplateNeedsM4(f"templates need m >= 4, got m={e.m}")
    return e.digits[:3] == template.value


def expected_template(target: Target, sign: int) -> Template:
    """The low-digit pattern implied by p = sign*(8k - 1) mod 2^m.

    For sign +1 both p and 1/p are -1 mod 8 (digits 1 1 1) while -p and
    -1/p are +1 mod 8 (digits 1 0 0); sign -1 swaps the two groups.
    """
    positive_group = target in (Target.P, Target.INV_P)
    if sign == 1:
        return Template.LOW111 if positive_group else Template.LOW100
    if sign == -1:
        return Template.LOW100 if positive_group else Template.LOW111
    raise ValueError(f"sign must be +1 or -1, got {sign}")


def inverse_equals_self(p: int, m: int) -> bool:
    """True when p is its own inverse mod 2^m, i.e. p^2 = 1 mod 2^m."""
    return p * p % Modulus(m).value == 1

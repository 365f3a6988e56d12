"""Exception types shared across the package."""


class Qr2mError(Exception):
    """Base class for all errors raised by qr2m."""


class BadModulus(Qr2mError, ValueError):
    """The modulus exponent m lies outside 1..MAX_M."""


class NotPrime(Qr2mError):
    """The argument must be an odd prime."""


class PrimeTooLarge(Qr2mError):
    """p exceeds MAX_P, so its p-sized tables and products are refused."""


class BadResidueClass(Qr2mError):
    """The prime is not congruent to +1 or -1 modulo 8."""


class OutOfFamilyRange(Qr2mError):
    """p mod 2^m is 1 or -1, so no family parameters exist."""


class NoValidK(Qr2mError):
    """Family parameters need m >= 4."""


class TemplateNeedsM4(Qr2mError):
    """Digit templates are only defined for expansions with m >= 4."""


class ShapeMismatch(Qr2mError):
    """Operands live in different rings (length or modulus differ)."""


class NotAUnit(Qr2mError):
    """The multiplier must be invertible modulo the ring length."""


class NotCoprime(Qr2mError):
    """Seed factors are not pairwise coprime modulo 2."""


class NotCoprimeCofactor(Qr2mError):
    """The generator does not divide x^n - 1 with a coprime cofactor."""


class PreconditionSignMismatch(Qr2mError):
    """The shift direction disagrees with the sign of beta + gamma."""


class NoCaseApplies(Qr2mError):
    """No construction case matches p and m."""


class AmbiguousCase(Qr2mError):
    """More than one construction case matched; cannot proceed."""


class BadPosition(Qr2mError):
    """Coordinate index out of range."""


class BudgetExceeded(Qr2mError):
    """The exact minimum-weight route would cover more words than the budget."""


class NoNonzeroWords(Qr2mError):
    """The zero code has no nonzero words to report on."""

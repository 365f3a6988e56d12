"""Residue-support idempotents and the quadratic residue code family.

Everything here lives in the span of 1, e1, e2 inside R_p, where e1 is
supported on the quadratic residues mod p and e2 on the nonresidues.
The span is closed under multiplication, carries exactly eight
idempotents, and the four with distinct e1/e2 coefficients generate the
quadratic residue codes.  Independent routes compute the same facts:
exact cyclic convolution of support vectors, closed-form coefficient
systems in k where p = 8k -/+ 1, and the values of a span element on the
blocks u, q, n of R_p, read off the Gauss periods.  None of them trusts
the others; the verifier and the test suite compare them.  A span
element is held as its coordinates (alpha, beta, gamma) on 1, e1, e2;
the family assembles a p-length vector only where it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iter_product

from .errors import (
    AmbiguousCase,
    NoCaseApplies,
    PreconditionSignMismatch,
    ShapeMismatch,
)
from .lincode import LinearCode, code_from_divisor
from .modring import FamilyParams, Modulus, family_params, quad_partition
from .polyring import (
    FactorSet,
    ZPoly,
    _from_zpoly,
    _mul_raw,
    binary_qr_factors,
    hensel_lift_factors,
    ring_mul,
)


@lru_cache(maxsize=None)
def basis_vectors(p: int, m: int) -> tuple[ZPoly, ZPoly, ZPoly]:
    """The residue vector e1, nonresidue vector e2, and all-ones h."""
    part = quad_partition(p)
    Modulus(m)
    e1 = ZPoly.from_support(part.q, p, m)
    e2 = ZPoly.from_support(part.n, p, m)
    return e1, e2, ZPoly(p, m, (1,) * p)


def split_parameter(p: int) -> tuple[int, int]:
    """(k, eps) with p = 8k + eps over the integers, eps in {-1, +1}."""
    quad_partition(p)
    if p % 8 == 7:
        return (p + 1) // 8, -1
    return (p - 1) // 8, 1


def decompose_basis(f: ZPoly) -> tuple[int, int, int] | None:
    """Write f as alpha + beta*e1 + gamma*e2, or None if f is not in the span."""
    part = quad_partition(f.n)
    alpha = f.coeffs[0]
    beta = f.coeffs[part.q[0]]
    gamma = f.coeffs[part.n[0]]
    if any(f.coeffs[i] != beta for i in part.q):
        return None
    if any(f.coeffs[i] != gamma for i in part.n):
        return None
    return alpha, beta, gamma


def assemble_basis(p: int, m: int, alpha: int, beta: int, gamma: int) -> ZPoly:
    """alpha + beta*e1 + gamma*e2, read off the partition's class table."""
    part = quad_partition(p)
    mod = Modulus(m).value
    # the class table codes zero as 0, residue as 1, nonresidue as 2
    by_class = (alpha % mod, beta % mod, gamma % mod)
    return ZPoly(p, m, tuple(by_class[t] for t in part._table))


@lru_cache(maxsize=None)
def _span_products(p: int) -> tuple[tuple[int, int, int], ...]:
    """Integer span coordinates of e1*e1, e2*e2, e1*e2 and h*h.

    Their coefficients are the cyclotomic numbers of order 2, counts of
    index pairs, so at most p < 2^bit_length(p): a convolution at that
    modulus is exact for every m.  Only e1*e1 and h*h are convolved;
    h*f = (sum of f)*h and e2 = h - 1 - e1 give e1*e2 = |Q|h - e1 - e1*e1
    and e2*e2 = |N|h - e2 - e1*e2.  h*h derived from the counts would leave
    the product_h_h row nothing computed.
    """
    part = quad_partition(p)
    bits = p.bit_length()
    e1 = ZPoly.from_support(part.q, p, bits)
    h = ZPoly(p, bits, (1,) * p)
    e11 = decompose_basis(ring_mul(e1, e1))
    hh = decompose_basis(ring_mul(h, h))
    if e11 is None or hh is None:
        raise AssertionError("basis product left the span of 1, e1, e2")
    half = (p - 1) // 2
    e12 = (half - e11[0], half - 1 - e11[1], half - e11[2])
    e22 = (half - e12[0], half - e12[1], half - 1 - e12[2])
    return e11, e22, e12, hh


def closed_form_products(p: int, m: int) -> dict[str, tuple[int, int, int]]:
    """The k-parameterized span coordinates of e1*e1, e2*e2, e1*e2, h*h."""
    k, eps = split_parameter(p)
    mod = Modulus(m).value
    if eps < 0:
        forms = {
            "e1_e1": (0, 2 * k - 1, 2 * k),
            "e2_e2": (0, 2 * k, 2 * k - 1),
            "e1_e2": (4 * k - 1, 2 * k - 1, 2 * k - 1),
        }
    else:
        forms = {
            "e1_e1": (4 * k, 2 * k - 1, 2 * k),
            "e2_e2": (4 * k, 2 * k, 2 * k - 1),
            "e1_e2": (0, 2 * k, 2 * k),
        }
    forms["h_h"] = (p, p, p)
    return {name: tuple(c % mod for c in trip) for name, trip in forms.items()}


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    holds: bool
    computed: tuple[int, int, int]
    expected: tuple[int, int, int]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "computed": list(self.computed),
            "expected": list(self.expected),
        }


@dataclass(frozen=True)
class IdentityReport:
    """Computed span coordinates versus closed form for the four basis products."""

    p: int
    m: int
    k: int
    eps: int
    checks: tuple[IdentityCheck, ...]
    printed_divergences: tuple[IdentityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "k": self.k,
            "eps": self.eps,
            "all_hold": self.all_hold,
            "checks": [c.as_dict() for c in self.checks],
            "printed_divergences": [c.as_dict() for c in self.printed_divergences],
        }


def product_identities_report(p: int, m: int) -> IdentityReport:
    """Check e1*e1, e2*e2, e1*e2, h*h against their closed forms.

    The e1*e2 closed form for p = 8k+1 circulates in print with
    coefficient 2k-1 on e1+e2; the correct coefficient is 2k (each
    residue class is hit 2k times and a mixed pair never sums to zero).
    The corrected form is what must hold; the printed variant is
    reported as a divergence when it differs.
    """
    k, eps = split_parameter(p)
    mod = Modulus(m).value
    names = ("e1_e1", "e2_e2", "e1_e2", "h_h")
    computed = {
        name: tuple(c % mod for c in trip) for name, trip in zip(names, _span_products(p))
    }
    expected = closed_form_products(p, m)
    checks = tuple(
        IdentityCheck(name, computed[name] == expected[name], computed[name], expected[name])
        for name in names
    )
    divergences = ()
    if eps > 0:
        printed = tuple(c % mod for c in (0, 2 * k - 1, 2 * k - 1))
        divergences = (
            IdentityCheck("e1_e2", computed["e1_e2"] == printed, computed["e1_e2"], printed),
        )
    return IdentityReport(
        p=p, m=m, k=k, eps=eps, checks=checks, printed_divergences=divergences
    )


def coefficient_system_holds(p: int, m: int, alpha: int, beta: int, gamma: int) -> bool:
    """The three-congruence system a triple must satisfy to be idempotent.

    Stated in the split parameter k and deliberately not derived from
    the convolution route, so agreement between the two is evidence.
    """
    k, eps = split_parameter(p)
    mod = Modulus(m).value
    a, b, c = alpha % mod, beta % mod, gamma % mod
    if eps < 0:
        r0 = a * a + 2 * b * c * (4 * k - 1) - a
        r1 = b * b * (2 * k - 1) + 2 * k * c * c + 2 * a * b + 2 * b * c * (2 * k - 1) - b
        r2 = c * c * (2 * k - 1) + 2 * k * b * b + 2 * a * c + 2 * b * c * (2 * k - 1) - c
    else:
        r0 = a * a + 4 * k * b * b + 4 * k * c * c - a
        r1 = b * b * (2 * k - 1) + 2 * k * c * c + 2 * a * b + 4 * k * b * c - b
        r2 = c * c * (2 * k - 1) + 2 * k * b * b + 2 * a * c + 4 * k * b * c - c
    return r0 % mod == 0 and r1 % mod == 0 and r2 % mod == 0


def _span_mul(
    p: int, s: tuple[int, int, int], t: tuple[int, int, int], mod: int
) -> tuple[int, int, int]:
    """Span coordinates of (a + b*e1 + c*e2)(x + y*e1 + z*e2) mod `mod`."""
    a, b, c = s
    x, y, z = t
    (a11, b11, c11), (a22, b22, c22), (a12, b12, c12), _ = _span_products(p)
    bb, cc, bc = b * y, c * z, b * z + c * y
    return (
        (a * x + bb * a11 + cc * a22 + bc * a12) % mod,
        (a * y + b * x + bb * b11 + cc * b22 + bc * b12) % mod,
        (a * z + c * x + bb * c11 + cc * c22 + bc * c12) % mod,
    )


def _scan_span(p: int, m: int) -> list[tuple[int, int, int]]:
    """All span idempotents by exhaustive 2^(3m) triple scan.

    Not used by the library: the tests keep it as the independent oracle
    that `span_idempotents` (one squaring per bit) is checked against.
    """
    mod = 1 << m
    found = []
    for a in range(mod):
        for b in range(mod):
            for c in range(mod):
                if _span_mul(p, (a, b, c), (a, b, c), mod) == (a, b, c):
                    found.append((a, b, c))
    return found


def _lift_span(p: int, m: int) -> list[tuple[int, int, int]]:
    """All span idempotents mod 2^m: a scan mod 2, then one squaring per bit.

    The eight triples mod 2 are scanned.  Each idempotent s mod 2^j, j >= 1,
    has exactly one idempotent lift mod 2^(j+1), namely s^2.  Any lift
    s + 2^j e squares to s^2 mod 2^(j+1), so an idempotent lift equals s^2;
    and s^2 is an idempotent lift, since s^2 = s + 2^j t gives
    s^4 = s^2 mod 2^(j+1).  So every idempotent mod 2^m comes from exactly
    one idempotent mod 2, and the lift costs 8m products.
    """
    sols = [t for t in iter_product(range(2), repeat=3) if _span_mul(p, t, t, 2) == t]
    for j in range(1, m):
        sols = [_span_mul(p, s, s, 1 << (j + 1)) for s in sols]
    return sols


@lru_cache(maxsize=None)
def span_idempotents(p: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """Every (alpha, beta, gamma) making alpha + beta*e1 + gamma*e2 idempotent.

    The idempotents mod 2 are found by scan and lifted one bit at a time by
    squaring, which gives each its unique idempotent lift, so the set is
    complete.  Each triple is re-verified on the blocks, where an
    idempotent is 0 or 1, before being returned.
    """
    Modulus(m)
    triples = _lift_span(p, m)
    if any(block_set(p, m, t) is None for t in triples):
        raise AssertionError("lifting by squaring produced a non-idempotent triple")
    return tuple(sorted(triples))


@dataclass(frozen=True, order=True)
class IdempotentCoeffs:
    """A nondegenerate idempotent alpha + beta*e1 + gamma*e2 in R_p.

    Nondegenerate means beta != gamma; the degenerate idempotents
    (scalar multiples of h plus constants) generate no residue/nonresidue
    asymmetry and are excluded here.  Idempotency is validated at
    construction by membership in span_idempotents, whose members are
    complete (each idempotent mod 2 lifted by squaring) and each checked
    on the blocks there.
    """

    p: int
    m: int
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self) -> None:
        mod = Modulus(self.m).value
        for c in (self.alpha, self.beta, self.gamma):
            if not 0 <= c < mod:
                raise ValueError("coefficient out of range")
        if self.beta == self.gamma:
            raise ValueError("degenerate coefficients: beta equals gamma")
        if self.triple not in span_idempotents(self.p, self.m):
            raise ValueError("triple does not define an idempotent")

    @property
    def triple(self) -> tuple[int, int, int]:
        return self.alpha, self.beta, self.gamma

    @property
    def conjugate_sum(self) -> int:
        return (self.beta + self.gamma) % (1 << self.m)

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "conjugate_sum": self.conjugate_sum,
        }


@lru_cache(maxsize=None)
def solve_idempotent_system(p: int, m: int) -> tuple[IdempotentCoeffs, ...]:
    """All nondegenerate idempotent triples, sorted lexicographically."""
    return tuple(
        IdempotentCoeffs(p, m, a, b, c)
        for a, b, c in span_idempotents(p, m)
        if b != c
    )


def swap_conjugate(c: IdempotentCoeffs) -> IdempotentCoeffs:
    """Exchange the e1 and e2 coefficients."""
    return IdempotentCoeffs(c.p, c.m, c.alpha, c.gamma, c.beta)


def shift_by_h(c: IdempotentCoeffs, direction: int, params: FamilyParams) -> IdempotentCoeffs:
    """Add direction*(8k-1)*h to an idempotent and land on another one.

    h = 1 + e1 + e2, so the shift adds direction*(8k-1) to each coordinate,
    mod 2^m.  Legal only when the conjugate sum beta+gamma sits in the class
    that the shift cancels: direction -1 needs beta+gamma = (8k-1), direction
    +1 needs beta+gamma = -(8k-1), both mod 2^m.  The result is checked to
    be idempotent when it is constructed.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if c.p != params.p or c.m != params.m:
        raise ShapeMismatch("idempotent does not live in the family's ring")
    mod = 1 << params.m
    mult = params.h_multiplier % mod
    required = (-direction * mult) % mod
    if c.conjugate_sum != required:
        raise PreconditionSignMismatch(
            f"conjugate sum {c.conjugate_sum} is not {required} mod {mod}"
        )
    return IdempotentCoeffs(c.p, c.m, *((t + direction * mult) % mod for t in c.triple))


@lru_cache(maxsize=None)
def lifted_factors(p: int, m: int) -> FactorSet:
    """x^p - 1 = (x - 1) f_q f_n over Z/2^m: the Hensel lift of the binary split."""
    return hensel_lift_factors(binary_qr_factors(p), m)


@lru_cache(maxsize=None)
def lifted_residue_code(p: int, m: int) -> LinearCode:
    """The cyclic code generated by the lifted residue-side factor of x^p-1,
    a monic divisor of x^p - 1, so code_from_divisor reads the code off it."""
    return code_from_divisor(_from_zpoly(lifted_factors(p, m).f_q), p, m)


# The blocks of R_p = R/(x - 1) x R/(f_q) x R/(f_n), in lifted-factor order.
BLOCKS = ("u", "q", "n")


@lru_cache(maxsize=None)
def gauss_periods(p: int, m: int) -> tuple[int, int]:
    """(eta_q, eta_n): the values of e1 on the blocks q and n, mod 2^m.

    They are the Gauss periods, the roots of x^2 + x + (1 - p*)/4 with
    p* = +-p = 1 mod 4, whose constant term is even.  eta_q is the even
    root, lifted one bit at a time (the derivative 2x + 1 is odd, so bit j
    of the quadratic at a root mod 2^j is the next bit of the root), and
    eta_n = -1 - eta_q.  e2 takes the swapped values; both are (p - 1)/2 on u.
    """
    quad_partition(p)
    mod = Modulus(m).value
    const = (1 - p) // 4 if p % 4 == 1 else (1 + p) // 4
    eta = 0
    for j in range(1, m):
        eta |= (eta * eta + eta + const) & (1 << j)
    return eta, (-1 - eta) % mod


def block_set(p: int, m: int, trip: tuple[int, int, int]) -> frozenset[str] | None:
    """The blocks on which alpha + beta*e1 + gamma*e2 is 1, or None if a value is not 0 or 1.

    The block values are read off the Gauss periods.  A span idempotent is
    0 or 1 on each block, and its ideal is the product of the blocks in its
    set: log2 of its size is m times the sum of their degrees, 1 for u and
    (p - 1)/2 for q and n.
    """
    a, b, c = trip
    eta_q, eta_n = gauss_periods(p, m)
    values = (a + (b + c) * (p - 1) // 2, a + b * eta_q + c * eta_n, a + b * eta_n + c * eta_q)
    values = [v % (1 << m) for v in values]
    if max(values) > 1:
        return None
    return frozenset(blk for blk, v in zip(BLOCKS, values) if v)


def _log2_size(blocks, p: int, m: int):
    """log2 of the size of the ideal with these blocks: m times their degrees."""
    if blocks is None:
        return None
    return m * sum(1 if b == "u" else (p - 1) // 2 for b in blocks)


def _ideal_code(p: int, m: int, trip: tuple[int, int, int]) -> LinearCode:
    """The ideal generated by the span idempotent with coordinates trip.

    The ideal is the product of the blocks in its block set, which is the
    ideal of the monic product g of the lifted factors of the other blocks;
    code_from_divisor reads the code off g.
    """
    blocks = block_set(p, m, trip)
    if blocks is None:
        raise AssertionError("the idempotent is not 0 or 1 on every block")
    lifted = lifted_factors(p, m)
    mod = 1 << m
    g = [1]
    for b, f in zip(BLOCKS, (lifted.f_unit, lifted.f_q, lifted.f_n)):
        if b not in blocks:
            g = _mul_raw(g, _from_zpoly(f), mod)
    return code_from_divisor(g, p, m)


def _shift_direction(case_tag: str) -> int:
    """+1 where the bare idempotents are shifted by +(8k-1)h (C12, C22), else -1."""
    return 1 if case_tag in ("C12", "C22") else -1


@dataclass(frozen=True)
class QrFamily:
    """The four codes q, q', n, n' of (p, m), held as their idempotents' span triples.

    Each triple is (alpha, beta, gamma) mod 2^m, the coordinates of the
    idempotent on 1, e1, e2.  The p-length idempotent and the code of each
    are built from its triple on first access and cached on the instance;
    the verify sweep reads the triples, and the vectors only where a row
    reads them.
    """

    params: FamilyParams
    case_tag: str
    coeffs_q: IdempotentCoeffs
    triple_q: tuple[int, int, int]
    triple_q_prime: tuple[int, int, int]
    triple_n: tuple[int, int, int]
    triple_n_prime: tuple[int, int, int]

    @cached_property
    def idem_q(self) -> ZPoly:
        return assemble_basis(self.params.p, self.params.m, *self.triple_q)

    @cached_property
    def idem_q_prime(self) -> ZPoly:
        return assemble_basis(self.params.p, self.params.m, *self.triple_q_prime)

    @cached_property
    def idem_n(self) -> ZPoly:
        return assemble_basis(self.params.p, self.params.m, *self.triple_n)

    @cached_property
    def idem_n_prime(self) -> ZPoly:
        return assemble_basis(self.params.p, self.params.m, *self.triple_n_prime)

    @cached_property
    def q(self) -> LinearCode:
        return _ideal_code(self.params.p, self.params.m, self.triple_q)

    @cached_property
    def q_prime(self) -> LinearCode:
        return _ideal_code(self.params.p, self.params.m, self.triple_q_prime)

    @cached_property
    def n(self) -> LinearCode:
        return _ideal_code(self.params.p, self.params.m, self.triple_n)

    @cached_property
    def n_prime(self) -> LinearCode:
        return _ideal_code(self.params.p, self.params.m, self.triple_n_prime)

    @property
    def shift_direction(self) -> int:
        return _shift_direction(self.case_tag)

    @property
    def shift_triple(self) -> tuple[int, int, int]:
        """Span triple of the multiple of h that carries each code to its primed partner."""
        c = self.shift_direction * self.params.h_multiplier % (1 << self.params.m)
        return c, c, c

    def shift_generator(self) -> ZPoly:
        """shift_triple as a p-length vector."""
        return assemble_basis(self.params.p, self.params.m, *self.shift_triple)

    def as_dict(self) -> dict:
        p, m = self.params.p, self.params.m
        names = ("q", "qprime", "n", "nprime")
        triples = (self.triple_q, self.triple_q_prime, self.triple_n, self.triple_n_prime)
        idems = (self.idem_q, self.idem_q_prime, self.idem_n, self.idem_n_prime)
        return {
            "p": p,
            "m": m,
            "k": self.params.k,
            "sign": self.params.sign,
            "case": self.case_tag,
            "coeffs_q": self.coeffs_q.as_dict(),
            "log2_sizes": {
                name: _log2_size(block_set(p, m, t), p, m) for name, t in zip(names, triples)
            },
            "idempotents": {name: list(e.coeffs) for name, e in zip(names, idems)},
        }


def build_family(p: int, m: int) -> QrFamily:
    """Construct the four-code family for (p, m).

    The sign of p mod 2^m fixes the outer branch; within it, exactly one
    sub-case must be satisfiable, pairing a conjugate-sum class for the
    bare idempotent with a sign requirement on p^2 mod 2^m.  The bare
    generator on the q side is the candidate in the required class whose
    ideal is comparable (as a set) with the lifted residue-factor ideal,
    taking the lexicographically smallest triple if several qualify.  The
    ideal of e lies in the lift ideal L = (f_q) exactly when e is 0 on the
    block q, and contains L exactly when e is 1 on the blocks u and n.  The
    bare pair d, swap(d) and their h-shifts are held as span triples; no
    vector or code is built here, only on first access.
    """
    params = family_params(p, m)
    mod = 1 << m
    p_res = p % mod
    psq = p * p % mod
    sols = solve_idempotent_system(p, m)
    classes = {s.conjugate_sum for s in sols}
    if params.sign > 0:
        subcases = [
            ("C11", p_res, mod - 1),
            ("C12", (-p_res) % mod, 1),
        ]
    else:
        subcases = [
            ("C21", (-p_res) % mod, 1),
            ("C22", p_res, mod - 1),
        ]
    viable = [
        (tag, cls)
        for tag, cls, psq_need in subcases
        if psq == psq_need and cls in classes
    ]
    if not viable:
        raise NoCaseApplies(
            f"p^2 = {psq} mod {mod} and conjugate sums {sorted(classes)} "
            "fit no constructible sub-case"
        )
    if len(viable) > 1:
        raise AmbiguousCase(f"sub-cases {[t for t, _ in viable]} both satisfiable")
    tag, bare_class = viable[0]
    candidates = [s for s in sols if s.conjugate_sum == bare_class]
    blocks = [block_set(p, m, cand.triple) for cand in candidates]
    comparable = (c for c, s in zip(candidates, blocks) if "q" not in s or {"u", "n"} <= s)
    chosen = next(comparable, None)
    if chosen is None:
        raise AssertionError(
            "no candidate ideal is comparable with the lifted residue factor ideal"
        )
    d, d_n = chosen, swap_conjugate(chosen)
    direction = _shift_direction(tag)
    d_shift, d_n_shift = shift_by_h(d, direction, params), shift_by_h(d_n, direction, params)
    if tag in ("C12", "C21"):
        held = (d, d_shift, d_n, d_n_shift)
    else:
        held = (d_shift, d, d_n_shift, d_n)
    return QrFamily(params, tag, chosen, *(c.triple for c in held))

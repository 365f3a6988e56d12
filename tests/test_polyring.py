import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qr2m.polyring as polyring
from qr2m.errors import NotAUnit, NotCoprimeCofactor, ShapeMismatch
from qr2m.lincode import _lane_width, code_from_polynomial
from qr2m.modring import is_odd_prime
from qr2m.polyring import (
    ZPoly,
    _byte_lanes,
    _divmod_raw,
    _gcd_gf2,
    _gf2_divmod,
    _gf2_list,
    _mul_raw,
    _ones,
    _pack,
    _trim,
    _unpack,
    binary_qr_factors,
    cyclotomic_cosets,
    hensel_lift_factors,
    idempotent_from_generator,
    mu_map,
    ring_mul,
)


def naive_cyclic_mul(a, b, n, mod):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % n] = (out[(i + j) % n] + x * y) % mod
    return out


def test_zpoly_construction_and_text():
    f = ZPoly.from_support((1, 2, 4), 7, 4)
    assert f.coeffs == (0, 1, 1, 0, 1, 0, 0)
    assert ZPoly.from_text(f.to_text(), 7, 4) == f
    assert ZPoly.x_power(9, 7, 4) == ZPoly.x_power(2, 7, 4)



def test_zpoly_reduces_out_of_range_coefficients():
    assert ZPoly(3, 2, (-1, 4, 9)).coeffs == (3, 0, 1)
    assert ZPoly(2, 5, (1 << 5, 1)).coeffs == (0, 1)
    assert ZPoly(2, 62, ((1 << 62) + 1, 0)).coeffs == (1, 0)
    kept = (0, 5, (1 << 8) - 1)
    f = ZPoly(3, 8, kept)
    assert f.coeffs == kept and f.coeffs is kept

def test_zpoly_arithmetic_basics():
    one = ZPoly.one(5, 3)
    x = ZPoly.x_power(1, 5, 3)
    f = one + x
    assert (f - f).is_zero()
    assert (-f + f).is_zero()
    assert f.scale(3).coeffs == (3, 3, 0, 0, 0)
    g = ZPoly.x_power(4, 5, 3)
    assert (x * g) == one  # x^5 wraps to 1


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ZPoly.one(5, 3) + ZPoly.one(7, 3)
    with pytest.raises(ShapeMismatch):
        ZPoly.one(5, 3) + ZPoly.one(5, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=70),
    st.sampled_from([1, 2, 8, 31, 62]),
    st.data(),
)
def test_ring_mul_matches_naive(n, m, data):
    mod = 1 << m
    coeff = st.integers(min_value=0, max_value=mod - 1)
    a = data.draw(st.lists(coeff, min_size=n, max_size=n))
    b = data.draw(st.lists(coeff, min_size=n, max_size=n))
    fa = ZPoly(n=n, m=m, coeffs=tuple(a))
    fb = ZPoly(n=n, m=m, coeffs=tuple(b))
    assert ring_mul(fa, fb).coeffs == tuple(naive_cyclic_mul(a, b, n, mod))
    assert ring_mul(fa, fa).coeffs == tuple(naive_cyclic_mul(a, a, n, mod))


@pytest.mark.parametrize("m", [1, 2, 8, 31, 62])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
def test_ring_mul_all_top_coefficients(n, m):
    # every coefficient 2^m - 1 makes each lane sum as large as it can be
    top = [(1 << m) - 1] * n
    f = ZPoly(n=n, m=m, coeffs=tuple(top))
    assert ring_mul(f, f).coeffs == tuple(naive_cyclic_mul(top, top, n, 1 << m))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 8, 31, 62]),
    st.integers(min_value=1, max_value=300),
    st.booleans(),
    st.data(),
)
def test_lane_round_trip_at_every_width(m, n, for_lincode, data):
    # ring_mul's lanes and lincode's one bit wider: 8 to 256 bits here
    width = _lane_width(n, m) if for_lincode else _byte_lanes(2 * m + n.bit_length())
    needed = 2 * m + n.bit_length() + for_lincode
    assert width in (8, 16, 32, 64, 128, 256)
    assert needed <= width and (width == 8 or width // 2 < needed)
    mask = (1 << m) - 1
    row = data.draw(st.lists(st.integers(0, mask), min_size=n, max_size=n))
    x = _pack(row, width)
    assert x == sum(c << (width * j) for j, c in enumerate(row))
    assert _ones(n, width) == sum(1 << (width * j) for j in range(n))
    assert _unpack(x, n, width, mask) == tuple(row)
    # lanes above n - 1 and bits above the mask are ignored
    extra = data.draw(st.integers(min_value=1, max_value=n))
    junk = data.draw(st.integers(min_value=1, max_value=(1 << (width * extra)) - 1))
    high = ((1 << width) - 1 - mask) * _ones(n, width)
    assert _unpack(x | high | junk << (width * n), n, width, mask) == tuple(row)


def test_mul_raw_matches_schoolbook():
    def schoolbook(a, b, mod):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        out = [c % mod for c in out]
        while out and out[-1] == 0:
            out.pop()
        return out

    rng = random.Random(5)
    for mod in (2, 1 << 8, 1 << 62):
        top = mod - 1
        assert _mul_raw([top] * 63, [top] * 200, mod) == schoolbook([top] * 63, [top] * 200, mod)
        assert _mul_raw([top] * 65, [top] * 9, mod) == schoolbook([top] * 65, [top] * 9, mod)
        for _ in range(20):
            a = [rng.randrange(mod) for _ in range(rng.randint(1, 40))]
            b = [rng.randrange(mod) for _ in range(rng.randint(1, 90))]
            assert _mul_raw(a, b, mod) == schoolbook(a, b, mod)
    assert _mul_raw([], [1, 1], 2) == []


def schoolbook_divmod(a, b, mod):
    """Long division by b with invertible leading coefficient: the oracle."""
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = pow(b[-1], -1, mod)
    rem = _trim([c % mod for c in a])
    quo = [0] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] * lead_inv % mod
        quo[shift] = factor
        for i, cb in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * cb) % mod
        _trim(rem)
    return _trim(quo), rem


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 2, 8, 31, 62]),
    st.integers(min_value=-1, max_value=300),
    st.integers(min_value=0, max_value=80),
    st.data(),
)
def test_newton_division_matches_schoolbook(m, deg_a, deg_b, data):
    mod = 1 << m
    coeff = st.integers(min_value=0, max_value=mod - 1)
    a = data.draw(st.lists(coeff, min_size=deg_a + 1, max_size=deg_a + 1))
    # an odd leading coefficient other than 1 where the modulus allows one
    odd = st.integers(min_value=0, max_value=mod // 2 - 1).map(lambda c: 2 * c + 1)
    lead = data.draw(odd.filter(lambda c: c != 1) if m > 1 else odd)
    b = data.draw(st.lists(coeff, min_size=deg_b, max_size=deg_b)) + [lead]
    assert _divmod_raw(a, b, mod) == schoolbook_divmod(a, b, mod)


def test_newton_division_edge_cases():
    assert _divmod_raw([], [3, 5], 8) == ([], [])
    assert _divmod_raw([1, 2], [0, 0, 3], 8) == ([], [1, 2])
    assert _divmod_raw([7, 9], [3], 8) == schoolbook_divmod([7, 9], [3], 8)
    # coefficients outside [0, mod) are reduced first, as in long division
    assert _divmod_raw([-1, 0, 9], [-3, 5], 8) == schoolbook_divmod([-1, 0, 9], [-3, 5], 8)
    with pytest.raises(ZeroDivisionError):
        _divmod_raw([1, 1], [], 8)
    with pytest.raises(ZeroDivisionError):
        _divmod_raw([1, 1], [0, 0], 8)
    with pytest.raises(ValueError, match="not invertible"):
        _divmod_raw([1, 1, 1], [1, 2], 8)
    with pytest.raises(ValueError, match="not invertible"):
        _divmod_raw([1, 1, 1], [1, 8], 8)


def _gf2_int(a):
    """The GF(2) polynomial of a coefficient sequence, each taken mod 2."""
    return int("".join(str(c & 1) for c in reversed(a)) or "0", 2)


def _gf2_mul(a, b):
    """Carry-less product: b shifted by each set bit of a, XORed together."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _xgcd_gf2(a, b):
    """Return (g, s, t) over GF(2) with s*a + t*b = g = gcd(a, b)."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q, r = _gf2_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _gf2_mul(q, s1)
        t0, t1 = t1, t0 ^ _gf2_mul(q, t1)
    return r0, s0, t0


def _gf2_list_mul(a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= x & y
    return _trim(out)


def _gf2_list_add(a, b):
    width = max(len(a), len(b))
    return _trim([x ^ y for x, y in zip(a + [0] * (width - len(a)), b + [0] * (width - len(b)))])


def _gf2_list_gcd(a, b):
    while b:
        a, b = b, schoolbook_divmod(a, b, 2)[1]
    return a


gf2_poly = st.lists(st.integers(0, 1), max_size=200).map(_trim)


@settings(max_examples=150, deadline=None)
@given(gf2_poly, gf2_poly)
def test_gf2_int_helpers_match_list_oracle(a, b):
    x, y = _gf2_int(a), _gf2_int(b)
    assert _gf2_list(x) == a and _gf2_int([c + 2 for c in a]) == x
    assert _gf2_list(_gf2_mul(x, y)) == _gf2_list_mul(a, b)
    assert _gf2_list(_gcd_gf2(x, y)) == _gf2_list_gcd(a, b)
    if b:
        q, r = _gf2_divmod(x, y)
        assert [_gf2_list(q), _gf2_list(r)] == list(schoolbook_divmod(a, b, 2))
    g, s, t = _xgcd_gf2(x, y)
    assert _gf2_list(g) == _gf2_list_gcd(a, b)
    bezout = _gf2_list_add(_gf2_list_mul(_gf2_list(s), a), _gf2_list_mul(_gf2_list(t), b))
    assert bezout == _gf2_list(g)


def test_gf2_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        _gf2_divmod(0b101, 0)


def _add(a, b, mod):
    return _trim([(x + y) % mod for x, y in zip_longest(a, b, fillvalue=0)])


def _sub(a, b, mod):
    return _trim([(x - y) % mod for x, y in zip_longest(a, b, fillvalue=0)])


def modulus_doubling_lift(seed, m):
    """(f_q, f_n) lifted to 2^m by modulus-doubling Hensel steps: the oracle.

    Each step carries f = g*h and the Bezout identity s*g + t*h = 1, from
    one extended Euclid mod 2, to the doubled modulus, with long division
    by the monic factors.
    """
    g = _trim(list(seed.f_q.reduce_mod(1).coeffs))
    h = _trim(list(seed.f_n.reduce_mod(1).coeffs))
    one, s, t = _xgcd_gf2(_gf2_int(g), _gf2_int(h))
    assert one == 1
    s, t = _gf2_list(s), _gf2_list(t)
    f = [1] * seed.p
    k = 1
    while k < m:
        k = min(2 * k, m)
        mod = 1 << k
        e = _sub(f, _mul_raw(g, h, mod), mod)
        r = schoolbook_divmod(_mul_raw(s, e, mod), h, mod)[1]
        dg, rem = schoolbook_divmod(_sub(e, _mul_raw(g, r, mod), mod), h, mod)
        assert rem == []
        g, h = _add(g, dg, mod), _add(h, r, mod)
        b = _sub(_add(_mul_raw(s, g, mod), _mul_raw(t, h, mod), mod), [1], mod)
        s = _sub(s, schoolbook_divmod(_mul_raw(s, b, mod), h, mod)[1], mod)
        t, rem = schoolbook_divmod(_sub([1], _mul_raw(s, g, mod), mod), h, mod)
        assert rem == []
    return g, h


def test_graeffe_lift_matches_hensel_steps():
    points = [
        (p, m)
        for p in range(3, 200)
        if is_odd_prime(p) and p % 8 in (1, 7)
        for m in range(1, 9)
    ]
    points += [(p, 62) for p in (7, 17, 23)]
    for p, m in points:
        seed = binary_qr_factors(p)
        lifted = hensel_lift_factors(seed, m)
        got = (_trim(list(lifted.f_q.coeffs)), _trim(list(lifted.f_n.coeffs)))
        assert got == modulus_doubling_lift(seed, m), (p, m)


def test_graeffe_lift_takes_one_product_per_factor_and_bit(monkeypatch):
    seed = binary_qr_factors(23)
    moduli = []

    def spy(a, b, mod):
        moduli.append(mod)
        return _mul_raw(a, b, mod)

    def refuse(*args):
        raise AssertionError("the lift divided or took a Bezout pair")

    monkeypatch.setattr(polyring, "_mul_raw", spy)
    monkeypatch.setattr(polyring, "_divmod_raw", refuse)
    monkeypatch.setattr(polyring, "_reversed_inverse", refuse)
    lifted = hensel_lift_factors(seed, 8)
    in_lift = list(moduli)
    moduli.clear()
    assert lifted.verify_product()
    assert moduli == [256, 256]
    # f_q then f_n, one product at each modulus 2^2..2^8, then the check
    assert in_lift == [1 << k for k in range(2, 9)] * 2 + moduli


def test_ring_mul_commutes_and_distributes():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(2, 9), rng.randint(1, 3)
        mk = lambda: ZPoly(n=n, m=m, coeffs=tuple(rng.randrange(1 << m) for _ in range(n)))
        a, b, c = mk(), mk(), mk()
        assert ring_mul(a, b) == ring_mul(b, a)
        assert ring_mul(a, b + c) == ring_mul(a, b) + ring_mul(a, c)


def test_mu_map_composition():
    f = ZPoly.from_support((1, 2, 4), 7, 3)
    assert mu_map(f, 1) == f
    assert mu_map(mu_map(f, 2), 4) == mu_map(f, 1)  # 2 * 4 = 1 mod 7
    g = mu_map(f, 3)
    assert g.coeffs[3] == 1 and g.coeffs[6] == 1 and g.coeffs[5] == 1
    with pytest.raises(NotAUnit):
        mu_map(ZPoly.one(6, 2), 2)


def test_mu_map_is_ring_morphism():
    rng = random.Random(11)
    for _ in range(10):
        m = rng.randint(1, 3)
        a = ZPoly(n=7, m=m, coeffs=tuple(rng.randrange(1 << m) for _ in range(7)))
        b = ZPoly(n=7, m=m, coeffs=tuple(rng.randrange(1 << m) for _ in range(7)))
        for u in (2, 3, 5):
            assert mu_map(ring_mul(a, b), u) == ring_mul(mu_map(a, u), mu_map(b, u))


def test_cyclotomic_cosets():
    # cosets cover {1..p-1}; the zero orbit is left out
    assert cyclotomic_cosets(7) == [(1, 2, 4), (3, 5, 6)]
    cosets = cyclotomic_cosets(17)
    assert sum(len(c) for c in cosets) == 16
    # ord_2 mod 17 is 8, so both cosets have size 8
    assert sorted(len(c) for c in cosets) == [8, 8]


def test_binary_factors_split_by_residue_class():
    for p in (7, 17, 23, 31):
        fac = binary_qr_factors(p)
        assert fac.verify_product()
        half = (p - 1) // 2
        assert fac.f_q.degree() == half
        assert fac.f_n.degree() == half
        assert fac.f_unit.coeffs[:2] == (1, 1)
    fac7 = binary_qr_factors(7)
    assert fac7.f_q.coeffs == (1, 1, 0, 1, 0, 0, 0)  # 1 + x + x^3
    assert fac7.f_n.coeffs == (1, 0, 1, 1, 0, 0, 0)  # 1 + x^2 + x^3


def test_hensel_lift_known_value():
    lifted = hensel_lift_factors(binary_qr_factors(7), 2)
    # 3 + x + 2x^2 + x^3
    assert lifted.f_q.coeffs == (3, 1, 2, 1, 0, 0, 0)
    assert lifted.verify_product()


def test_hensel_product_many_parameters():
    for p in (7, 17, 23, 31, 41, 47):
        for m in (2, 5, 8):
            lifted = hensel_lift_factors(binary_qr_factors(p), m)
            assert lifted.verify_product()


def test_hensel_tower_consistency():
    for p in (7, 17, 23):
        seed = binary_qr_factors(p)
        top = hensel_lift_factors(seed, 8)
        for j in range(1, 8):
            lower = hensel_lift_factors(seed, j)
            assert top.f_q.reduce_mod(j) == lower.f_q
            assert top.f_n.reduce_mod(j) == lower.f_n
            assert top.f_unit.reduce_mod(j) == lower.f_unit


def test_hensel_reduces_to_seed():
    seed = binary_qr_factors(23)
    lifted = hensel_lift_factors(seed, 6)
    assert lifted.f_q.reduce_mod(1) == seed.f_q
    assert lifted.f_n.reduce_mod(1) == seed.f_n


def test_idempotent_from_generator():
    for p, m in ((7, 2), (7, 4), (17, 3), (23, 4)):
        lifted = hensel_lift_factors(binary_qr_factors(p), m)
        e = idempotent_from_generator(lifted.f_q)
        assert ring_mul(e, e) == e
        assert code_from_polynomial(e) == code_from_polynomial(lifted.f_q)


def bezout_newton_idempotent(f):
    """The idempotent of the ideal of f by a Bezout pair and a Newton lift: the oracle.

    f is made monic and divided into x^n - 1.  The Bezout identity
    s*f + t*c = 1 of f and its cofactor c, from one extended Euclid mod 2,
    makes s*f the idempotent mod 2, and e <- 3e^2 - 2e^3 doubles the
    modulus it holds at each step.
    """
    n, m = f.n, f.m
    mod = 1 << m
    raw = _trim(list(f.coeffs))
    monic = [c * pow(raw[-1], -1, mod) % mod for c in raw]
    cof, rem = _divmod_raw([mod - 1] + [0] * (n - 1) + [1], monic, mod)
    assert rem == []
    one, s, _ = _xgcd_gf2(_gf2_int(monic), _gf2_int(cof))
    assert one == 1
    e_bits = _gf2_divmod(_gf2_mul(s, _gf2_int(monic)), (1 << n) | 1)[1]
    e = ZPoly(n, m, tuple(_gf2_list(e_bits)) + (0,) * (n - e_bits.bit_length()))
    validity = 1
    while validity < m:
        e2 = ring_mul(e, e)
        e = e2.scale(3) - ring_mul(e2, e).scale(2)
        validity *= 2
    assert ring_mul(e, e) == e
    return e


def _lift_generators(p, m):
    lifted = hensel_lift_factors(binary_qr_factors(p), m)
    return (
        lifted.f_unit,
        lifted.f_q,
        lifted.f_n,
        ring_mul(lifted.f_unit, lifted.f_q),
    )


def _assert_routes_agree(points):
    for p, m in points:
        for f in _lift_generators(p, m):
            assert idempotent_from_generator(f) == bezout_newton_idempotent(f), (p, m)


def test_derivative_idempotent_matches_bezout_newton():
    points = [
        (p, m)
        for p in range(3, 200)
        if is_odd_prime(p) and p % 8 in (1, 7)
        for m in range(1, 9)
    ]
    points += [(p, 62) for p in (7, 17, 23)]
    _assert_routes_agree(points)
    for m in list(range(1, 9)) + [62]:
        for n in (9, 15, 21):
            # x^d - 1 for each proper divisor d of n, then the constants
            generators = [
                ZPoly(n, m, (-1,) + (0,) * (d - 1) + (1,) + (0,) * (n - d - 1))
                for d in range(1, n)
                if n % d == 0
            ]
            generators += [ZPoly.constant(1, n, m), ZPoly.constant(3, n, m)]
            for f in generators:
                assert idempotent_from_generator(f) == bezout_newton_idempotent(f), (n, m, f)


@pytest.mark.slow
def test_derivative_idempotent_matches_bezout_newton_200_1000():
    # 60 primes at four m, four generators each; the oracle's extended
    # Euclid and Newton steps take about 35 s, so it runs only in CI's
    # slow step (pytest -m slow)
    _assert_routes_agree(
        (p, m)
        for p in range(200, 1000)
        if is_odd_prime(p) and p % 8 in (1, 7)
        for m in (1, 4, 8, 62)
    )


def test_idempotent_from_generator_takes_one_product(monkeypatch):
    f = hensel_lift_factors(binary_qr_factors(127), 8).f_q
    products, divisions = [], []

    def spy_mul(a, b):
        products.append((a.n, a.m))
        return ring_mul(a, b)

    def spy_divmod(a, b, mod):
        divisions.append(mod)
        return _divmod_raw(a, b, mod)

    monkeypatch.setattr(polyring, "ring_mul", spy_mul)
    monkeypatch.setattr(polyring, "_divmod_raw", spy_divmod)
    e = idempotent_from_generator(f)
    assert products == [(127, 8)] and divisions == [256]
    assert ring_mul(e, e) == e


@pytest.mark.parametrize(
    "f",
    [
        ZPoly.zero(7, 4),
        ZPoly(7, 4, (1, 2, 0, 0, 0, 0, 0)),  # 2x + 1: even leading coefficient
        ZPoly(7, 4, (1, 0, 1, 0, 0, 0, 0)),  # x^2 + 1 does not divide x^7 - 1
        ZPoly(6, 4, (1, 1, 0, 0, 0, 0)),  # x + 1 at even n
        ZPoly.one(6, 4),  # 1 at even n: n has no inverse mod 2^m
    ],
)
def test_idempotent_from_generator_refuses(f):
    with pytest.raises(NotCoprimeCofactor):
        idempotent_from_generator(f)

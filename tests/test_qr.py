import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qr2m import qr
from qr2m.errors import (
    BadModulus,
    BadResidueClass,
    NoCaseApplies,
    NotPrime,
    OutOfFamilyRange,
    PreconditionSignMismatch,
    ShapeMismatch,
)
from qr2m.lincode import (
    code_from_divisor,
    code_from_polynomial,
    dual,
    intersect,
    is_self_orthogonal,
    sum_codes,
)
from qr2m.modring import family_params, is_odd_prime, quad_partition
from qr2m.polyring import (
    ZPoly,
    _from_zpoly,
    _mul_raw,
    _to_zpoly,
    binary_qr_factors,
    hensel_lift_factors,
    mu_map,
    ring_mul,
)
from qr2m.qr import (
    BLOCKS,
    IdempotentCoeffs,
    _lift_span,
    _span_mul,
    _span_products,
    assemble_basis,
    basis_vectors,
    block_set,
    build_family,
    coefficient_system_holds,
    decompose_basis,
    gauss_periods,
    lifted_factors,
    lifted_residue_code,
    product_identities_report,
    shift_by_h,
    solve_idempotent_system,
    span_idempotents,
    split_parameter,
    swap_conjugate,
)


def test_basis_vectors_shape():
    e1, e2, h = basis_vectors(7, 4)
    assert e1.coeffs == (0, 1, 1, 0, 1, 0, 0)
    assert e2.coeffs == (0, 0, 0, 1, 0, 1, 1)
    assert h.coeffs == (1,) * 7



def zpoly_sum_basis(p, m, alpha, beta, gamma):
    """alpha + beta*e1 + gamma*e2 as a sum of ZPoly terms (the oracle)."""
    e1, e2, _ = basis_vectors(p, m)
    return ZPoly.constant(alpha, p, m) + e1.scale(beta) + e2.scale(gamma)


coefficient = st.integers(min_value=-(1 << 64), max_value=1 << 64)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([7, 17, 23, 41]),
    st.sampled_from([1, 4, 8, 62]),
    coefficient,
    coefficient,
    coefficient,
)
def test_assemble_basis_matches_zpoly_sum(p, m, alpha, beta, gamma):
    got = assemble_basis(p, m, alpha, beta, gamma)
    assert got == zpoly_sum_basis(p, m, alpha, beta, gamma)
    assert decompose_basis(got) == tuple(c % (1 << m) for c in (alpha, beta, gamma))


def test_assemble_basis_error_precedence():
    with pytest.raises(NotPrime):
        assemble_basis(9, 4, 1, 2, 3)
    with pytest.raises(BadResidueClass):
        assemble_basis(11, 4, 1, 2, 3)
    # p is checked before m, so a bad pair reports the prime
    with pytest.raises(NotPrime):
        assemble_basis(9, 0, 1, 2, 3)
    for m in (0, 63):
        with pytest.raises(BadModulus):
            assemble_basis(7, m, 1, 2, 3)


def test_solve_idempotent_system_is_cached():
    first = solve_idempotent_system(17, 5)
    assert isinstance(first, tuple)
    assert solve_idempotent_system(17, 5) is first

def test_split_parameter():
    assert split_parameter(7) == (1, -1)
    assert split_parameter(23) == (3, -1)
    assert split_parameter(17) == (2, 1)
    assert split_parameter(41) == (5, 1)


def test_decompose_basis():
    f = assemble_basis(7, 4, 5, 6, 3)
    assert decompose_basis(f) == (5, 6, 3)
    bumped = f + ZPoly.x_power(1, 7, 4)
    assert decompose_basis(bumped) is None


def test_product_identities_hold_with_corrected_forms():
    for p in (7, 17, 23, 31, 41, 47):
        for m in (4, 5):
            report = product_identities_report(p, m)
            assert report.all_hold, (p, m)


def test_printed_cross_product_diverges_only_for_residue_one_class():
    rep = product_identities_report(17, 4)
    (div,) = rep.printed_divergences
    assert div.name == "e1_e2"
    assert not div.holds
    assert div.expected == (0, 3, 3)  # printed coefficient 2k-1 with k=2
    assert div.computed == (0, 4, 4)  # exact convolution gives 2k
    assert product_identities_report(7, 4).printed_divergences == ()


def convolved_span_products(p, m):
    """e1*e1, e2*e2, e1*e2 and h*h at modulus 2^m, from e1, e2 and h built
    as support vectors and their sum (the oracle)."""
    part = quad_partition(p)
    e1 = ZPoly.from_support(part.q, p, m)
    e2 = ZPoly.from_support(part.n, p, m)
    h = ZPoly.one(p, m) + e1 + e2
    return tuple(
        decompose_basis(ring_mul(a, b)) for a, b in ((e1, e1), (e2, e2), (e1, e2), (h, h))
    )


# bit-length edges: 7 = 2^3 - 1, 17 = 2^4 + 1, 127 = 2^7 - 1, 257 = 2^8 + 1,
# 8191 = 2^13 - 1
@pytest.mark.parametrize("p", [7, 17, 127, 257, 8191])
def test_span_products_are_integer_constants(p):
    # every coefficient is at most p < 2^bit_length(p), so the products
    # taken once at that modulus are the integer ones, and hold at every m
    consts = _span_products(p)
    assert consts == convolved_span_products(p, 62)
    for m in range(1, 9):
        reduced = tuple(tuple(c % (1 << m) for c in trip) for trip in consts)
        assert reduced == convolved_span_products(p, m), m


def test_h_square_is_p_times_h():
    for p, m in ((7, 4), (17, 5), (23, 6)):
        _, _, h = basis_vectors(p, m)
        assert ring_mul(h, h) == h.scale(p)


def test_span_idempotents_frozen_at_7_4():
    assert span_idempotents(7, 4) == (
        (0, 0, 0),
        (1, 0, 0),
        (5, 3, 6),
        (5, 6, 3),
        (7, 7, 7),
        (10, 9, 9),
        (12, 10, 13),
        (12, 13, 10),
    )


def test_solutions_frozen_at_7_4():
    sols = solve_idempotent_system(7, 4)
    assert [s.triple for s in sols] == [
        (5, 3, 6),
        (5, 6, 3),
        (12, 10, 13),
        (12, 13, 10),
    ]
    assert {s.conjugate_sum for s in sols} == {7, 9}


def test_solution_invariants():
    for p, m in ((7, 4), (17, 4), (23, 4), (17, 5), (23, 5)):
        mod = 1 << m
        sols = solve_idempotent_system(p, m)
        assert len(sols) == 4
        inv_p = pow(p, -1, mod)
        assert {s.conjugate_sum for s in sols} == {inv_p, (-inv_p) % mod}
        for s in sols:
            e = assemble_basis(p, m, *s.triple)
            assert ring_mul(e, e) == e
            assert (2 * s.alpha - s.beta - s.gamma) % mod == 1
            assert coefficient_system_holds(p, m, *s.triple)
            assert swap_conjugate(s).triple in {t.triple for t in sols}


def test_degenerate_idempotents_satisfy_printed_system():
    for p, m in ((7, 4), (17, 5)):
        for triple in span_idempotents(p, m):
            assert coefficient_system_holds(p, m, *triple)


def _scan_span(p, m):
    """All span idempotents by exhaustive 2^(3m) triple scan: the
    independent oracle that span_idempotents (one squaring per bit) is
    checked against."""
    mod = 1 << m
    found = []
    for a in range(mod):
        for b in range(mod):
            for c in range(mod):
                if _span_mul(p, (a, b, c), (a, b, c), mod) == (a, b, c):
                    found.append((a, b, c))
    return found


def test_digit_lifting_agrees_with_exhaustive_scan():
    for p, m in ((7, 4), (7, 6), (17, 5), (23, 5)):
        assert sorted(_lift_span(p, m)) == sorted(_scan_span(p, m))


@pytest.mark.parametrize("m", range(4, 9))
def test_lift_makes_one_square_per_idempotent_and_bit(monkeypatch, m):
    # eight products scan the triples mod 2, then each of the eight
    # idempotents is squared once per further bit
    calls = []
    span_mul = qr._span_mul

    def counted(*args):
        calls.append(args)
        return span_mul(*args)

    monkeypatch.setattr(qr, "_span_mul", counted)
    assert len(_lift_span(31, m)) == 8
    assert len(calls) == 8 * m


def test_solver_works_beyond_scan_range():
    sols = solve_idempotent_system(7, 10)
    assert len(sols) == 4
    mod = 1 << 10
    inv_p = pow(7, -1, mod)
    assert {s.conjugate_sum for s in sols} == {inv_p, (-inv_p) % mod}


def test_idempotent_coeffs_validation():
    with pytest.raises(ValueError):
        IdempotentCoeffs(7, 4, 5, 3, 3)  # degenerate
    with pytest.raises(ValueError):
        IdempotentCoeffs(7, 4, 1, 2, 3)  # not idempotent
    with pytest.raises(ValueError):
        IdempotentCoeffs(7, 4, 21, 3, 6)  # out of range


def test_shift_by_h_frozen_values():
    params = family_params(7, 4)
    d = IdempotentCoeffs(7, 4, 5, 6, 3)  # conjugate sum 9 = -7 mod 16
    shifted = shift_by_h(d, 1, params)
    assert shifted.triple == (12, 13, 10)
    # adding 7h = 7 + 7e1 + 7e2 to the vector lands on the shifted triple
    h7 = zpoly_sum_basis(7, 4, 7, 7, 7)
    assert assemble_basis(7, 4, *d.triple) + h7 == assemble_basis(7, 4, *shifted.triple)
    back = shift_by_h(shifted, -1, params)
    assert back == d


def test_shift_by_h_preconditions():
    params = family_params(7, 4)
    d = IdempotentCoeffs(7, 4, 5, 6, 3)
    with pytest.raises(PreconditionSignMismatch):
        shift_by_h(d, -1, params)  # conjugate sum is -(8k-1), not +(8k-1)
    with pytest.raises(ValueError):
        shift_by_h(d, 2, params)
    with pytest.raises(ShapeMismatch):
        shift_by_h(solve_idempotent_system(7, 5)[0], 1, params)


def test_family_7_4_frozen():
    fam = build_family(7, 4)
    assert fam.case_tag == "C12"
    assert fam.coeffs_q.triple == fam.triple_q == (5, 6, 3)
    assert fam.triple_n == (5, 3, 6)
    assert fam.triple_q_prime == (12, 13, 10)
    assert fam.triple_n_prime == (12, 10, 13)
    assert decompose_basis(fam.idem_n_prime) == fam.triple_n_prime
    assert fam.q.log2_size == 12
    assert fam.n.log2_size == 12
    assert fam.q_prime.log2_size == 16
    assert fam.n_prime.log2_size == 16


def test_family_7_4_clauses():
    fam = build_family(7, 4)
    shift_ideal = intersect(fam.q_prime, fam.n_prime)
    assert shift_ideal.log2_size == 4
    assert sum_codes(fam.q_prime, fam.n_prime).log2_size == 28
    assert sum_codes(fam.q, shift_ideal) == fam.q_prime
    assert is_self_orthogonal(fam.q)
    assert is_self_orthogonal(fam.n)
    assert dual(fam.q_prime) == fam.q
    assert dual(fam.n_prime) == fam.n
    assert dual(fam.q) == fam.q_prime
    assert fam.q_prime == lifted_residue_code(7, 4)


def test_family_17_5_frozen():
    fam = build_family(17, 5)
    assert fam.case_tag == "C21"
    assert fam.coeffs_q.alpha == 8
    assert fam.coeffs_q.conjugate_sum == 15  # -17 mod 32
    assert fam.q.log2_size == 40
    assert fam.n.log2_size == 40
    assert fam.q_prime.log2_size == 45
    assert fam.n_prime.log2_size == 45
    # inversion fixes the residue classes here, so duality crosses sides
    assert dual(fam.q) == fam.n_prime
    assert dual(fam.n) == fam.q_prime
    assert not is_self_orthogonal(fam.q)
    assert intersect(fam.q_prime, fam.n_prime).log2_size == 5
    assert sum_codes(fam.q_prime, fam.n_prime).log2_size == 85
    assert fam.q_prime == lifted_residue_code(17, 5)


def test_family_shift_generator_spans_h():
    fam = build_family(7, 4)
    gen = fam.shift_generator()
    assert decompose_basis(gen) == fam.shift_triple == (7, 7, 7)
    assert fam.shift_direction == 1


def test_family_q_and_n_swap_under_mu():
    from qr2m.modring import quad_partition

    for p, m in ((7, 4), (23, 4)):
        fam = build_family(p, m)
        for u in quad_partition(p).n:
            assert mu_map(fam.idem_q, u) == fam.idem_n
            assert mu_map(fam.idem_q_prime, u) == fam.idem_n_prime


def test_family_error_paths():
    with pytest.raises(OutOfFamilyRange):
        build_family(17, 4)
    with pytest.raises(NoCaseApplies):
        build_family(7, 5)
    with pytest.raises(NoCaseApplies):
        build_family(23, 5)


def test_family_codes_are_built_on_first_access():
    fam = build_family(7, 4)
    assert "q" not in vars(fam)
    assert fam.q == code_from_polynomial(fam.idem_q)
    assert vars(fam)["q"] is fam.q


def block_cofactors(p, m):
    """For each block b in BLOCKS, cof_b: the product of the other two lifted factors.

    The lifted factors x - 1, f_q, f_n of x^p - 1 are monic and pairwise
    coprime, so R_p is the product of the blocks R/(f_b), and cof_b is 0
    on every block but b, where it is a unit.
    """
    lifted = lifted_factors(p, m)
    mod = 1 << m
    factors = [_from_zpoly(f) for f in (lifted.f_unit, lifted.f_q, lifted.f_n)]
    cofactors = []
    for i in range(len(factors)):
        a, b = factors[:i] + factors[i + 1:]
        cofactors.append(_to_zpoly(_mul_raw(a, b, mod), p, m))
    return tuple(cofactors)


def cofactor_block_set(e, cofactors):
    """The blocks on which e is 1 by convolution with the cofactors (the oracle).

    e is 1 on block b exactly when e*cof_b = cof_b, and 0 there exactly
    when e*cof_b = 0; None if neither holds on some block.
    """
    blocks = set()
    for b, cof in zip(BLOCKS, cofactors):
        prod = ring_mul(e, cof)
        if prod == cof:
            blocks.add(b)
        elif not prod.is_zero():
            return None
    return frozenset(blocks)


BLOCK_POINTS = [(7, 1), (7, 3), (7, 4), (17, 4), (17, 5), (23, 6), (31, 5), (41, 2)]


@pytest.mark.parametrize("p,m", BLOCK_POINTS)
def test_block_cofactors_split_the_ring(p, m):
    cofactors = block_cofactors(p, m)
    assert len(cofactors) == len(BLOCKS)
    for a, b in itertools.combinations(cofactors, 2):
        assert ring_mul(a, b).is_zero()
    for e, want in ((ZPoly.one(p, m), set(BLOCKS)), (ZPoly.zero(p, m), set())):
        assert cofactor_block_set(e, cofactors) == want
        assert block_set(p, m, decompose_basis(e)) == want


def test_block_sets_match_the_cofactor_route():
    # the Gauss-period block values of every span idempotent, against
    # convolution with the lifted cofactors
    grid = [p for p in range(3, 400) if is_odd_prime(p) and p % 8 in (1, 7)]
    assert len(grid) == 35
    count = 0
    for p in grid:
        for m in range(1, 9):
            cofactors = block_cofactors(p, m)
            for triple in span_idempotents(p, m):
                e = assemble_basis(p, m, *triple)
                want = cofactor_block_set(e, cofactors)
                assert block_set(p, m, decompose_basis(e)) == want, (p, m, triple)
                count += 1
    assert count == 2240


@pytest.mark.parametrize("m", [1, 8, 62])
def test_gauss_periods_solve_their_quadratic(m):
    mod = 1 << m
    for p in (p for p in range(3, 200) if is_odd_prime(p) and p % 8 in (1, 7)):
        eta_q, eta_n = gauss_periods(p, m)
        p_star = p if p % 4 == 1 else -p
        assert eta_q % 2 == 0, p
        assert 0 <= eta_q < mod and (eta_q + eta_n + 1) % mod == 0, p
        for eta in (eta_q, eta_n):
            assert (4 * (eta * eta + eta) + 1 - p_star) % (4 * mod) == 0, (p, eta)


@pytest.mark.parametrize("p,m", BLOCK_POINTS)
def test_block_sets_name_the_span_ideals(p, m):
    # the eight span idempotents are 0 or 1 on each block, one for each
    # block set, and the block degrees give the size of the Howell form
    half = (p - 1) // 2
    seen = set()
    for triple in span_idempotents(p, m):
        e = assemble_basis(p, m, *triple)
        blocks = block_set(p, m, triple)
        assert blocks is not None
        seen.add(blocks)
        degrees = sum(1 if b == "u" else half for b in blocks)
        assert code_from_polynomial(e).log2_size == m * degrees
        if m > 1 and blocks:
            # 2e is 0 or 2 on each block, never 0 or 1 on all of them
            assert block_set(p, m, decompose_basis(e.scale(2))) is None
    assert len(seen) == 8


def test_family_q_side_comparable_with_lift():
    for p, m in ((7, 4), (23, 4), (17, 5)):
        fam = build_family(p, m)
        lift = lifted_residue_code(p, m)
        assert lift.contains_code(fam.q) or fam.q.contains_code(lift)


def test_span_idempotents_matches_scan_oracle():
    grid = [p for p in range(3, 200) if is_odd_prime(p) and p % 8 in (1, 7)]
    assert len(grid) == 20
    points = [(p, m) for p in grid for m in (4, 5)] + [(23, 6), (41, 6)]
    for p, m in points:
        assert span_idempotents(p, m) == tuple(sorted(_scan_span(p, m)))


DIVISOR_POINTS = [
    (p, m) for p in (7, 17, 23, 31, 41) for m in (1, 4, 8, 62)
] + [(127, 8)]


@pytest.mark.parametrize("p,m", DIVISOR_POINTS)
def test_divisor_codes_match_rotation_spans(p, m):
    # every monic divisor of x^p - 1 made of the lifted factors, from 1 to
    # x^p - 1 itself (the zero ideal)
    mod = 1 << m
    lifted = lifted_factors(p, m)
    factors = [_from_zpoly(f) for f in (lifted.f_unit, lifted.f_q, lifted.f_n)]
    for subset in itertools.product((False, True), repeat=3):
        g = [1]
        for keep, f in zip(subset, factors):
            if keep:
                g = _mul_raw(g, f, mod)
        folded = [0] * p
        for i, c in enumerate(g):
            folded[i % p] += c
        want = code_from_polynomial(ZPoly(p, m, tuple(folded)))
        assert code_from_divisor(g, p, m) == want


def test_divisor_code_needs_a_monic_generator():
    with pytest.raises(ValueError):
        code_from_divisor([1, 3], 7, 2)


def test_family_matches_the_rotation_span_route(families):
    for (p, m), fam in families.items():
        # the candidate choice and codes of the route by rotation spans
        lift = code_from_polynomial(hensel_lift_factors(binary_qr_factors(p), m).f_q)
        chosen = None
        for cand in solve_idempotent_system(p, m):
            if cand.conjugate_sum != fam.coeffs_q.conjugate_sum:
                continue
            code = code_from_polynomial(assemble_basis(p, m, *cand.triple))
            if lift.contains_code(code) or code.contains_code(lift):
                chosen = cand
                break
        assert chosen == fam.coeffs_q
        assert fam.q == code_from_polynomial(fam.idem_q)
        assert fam.q_prime == code_from_polynomial(fam.idem_q_prime)
        assert fam.n == code_from_polynomial(fam.idem_n)
        assert fam.n_prime == code_from_polynomial(fam.idem_n_prime)


def _dual_idempotent_code(e):
    return code_from_polynomial(ZPoly.one(e.n, e.m) - mu_map(e, e.n - 1))


def test_dual_idempotent_route_matches_kernel(families):
    # the ideal of an idempotent e has dual C(1 - e(x^-1)); dual() is the
    # generic kernel route
    for fam in families.values():
        for code, e in (
            (fam.q, fam.idem_q),
            (fam.q_prime, fam.idem_q_prime),
            (fam.n, fam.idem_n),
            (fam.n_prime, fam.idem_n_prime),
        ):
            assert dual(code) == _dual_idempotent_code(e)
    for p, m in ((7, 1), (7, 3), (17, 4), (23, 6), (41, 2), (31, 5)):
        triples = span_idempotents(p, m)
        assert (0, 0, 0) in triples and (1, 0, 0) in triples
        for triple in triples:
            e = assemble_basis(p, m, *triple)
            assert dual(code_from_polynomial(e)) == _dual_idempotent_code(e)

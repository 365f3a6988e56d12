import pytest

import qr2m.modring as modring
from qr2m.errors import BadResidueClass, NotPrime, NoValidK, OutOfFamilyRange, PrimeTooLarge
from qr2m.modring import (
    MAX_M,
    MAX_P,
    Modulus,
    count_zero_sums,
    family_params,
    is_odd_prime,
    quad_partition,
    residue_class_counts,
)
from qr2m.qr import _span_mul


def test_modulus_bounds():
    assert Modulus(1).value == 2
    assert Modulus(MAX_M).value == 1 << MAX_M
    for bad in (0, -3, MAX_M + 1):
        with pytest.raises(ValueError):
            Modulus(bad)


def test_is_odd_prime():
    assert is_odd_prime(7)
    assert is_odd_prime(97)
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(91)  # 7 * 13


def test_partition_small_primes():
    part = quad_partition(7)
    assert part.q == (1, 2, 4)
    assert part.n == (3, 5, 6)
    part = quad_partition(17)
    assert part.q == (1, 2, 4, 8, 9, 13, 15, 16)
    assert part.n == (3, 5, 6, 7, 10, 11, 12, 14)


def test_partition_classify():
    part = quad_partition(23)
    assert part.classify(0) == 0
    for i in part.q:
        assert part.classify(i) == 1
        assert part.is_residue(i)
    for i in part.n:
        assert part.classify(i) == 2
        assert not part.is_residue(i)
    # indices reduce mod p
    assert part.classify(23) == 0
    assert part.classify(24) == part.classify(1)


def test_partition_rejects():
    with pytest.raises(NotPrime):
        quad_partition(15)
    with pytest.raises(BadResidueClass):
        quad_partition(13)  # 13 = 5 mod 8


def test_residue_sets_are_complementary():
    for p in (7, 17, 23, 31, 41, 47):
        part = quad_partition(p)
        assert len(part.q) == len(part.n) == (p - 1) // 2
        assert sorted(part.q + part.n) == list(range(1, p))


def test_zero_sum_counts_by_class():
    # -1 is a nonresidue for p = 7 mod 8, a residue for p = 1 mod 8
    for p in (7, 23, 31, 47):
        part = quad_partition(p)
        assert count_zero_sums(part.q, part.q, p) == 0
        assert count_zero_sums(part.n, part.n, p) == 0
        assert count_zero_sums(part.q, part.n, p) == (p - 1) // 2
    for p in (17, 41):
        part = quad_partition(p)
        assert count_zero_sums(part.q, part.q, p) == (p - 1) // 2
        assert count_zero_sums(part.n, part.n, p) == (p - 1) // 2
        assert count_zero_sums(part.q, part.n, p) == 0


def test_shifted_class_counts_uniform():
    for p, k, eps in ((7, 1, -1), (17, 2, 1)):
        part = quad_partition(p)
        if eps < 0:
            same, cross = (2 * k - 1, 2 * k, 0), (2 * k - 1, 2 * k - 1, 1)
        else:
            same, cross = (2 * k - 1, 2 * k, 1), (2 * k, 2 * k, 0)
        for i in part.q:
            assert residue_class_counts(i, part.q, p) == same
            assert residue_class_counts(i, part.n, p) == cross
        swapped = (same[1], same[0], same[2])
        for i in part.n:
            assert residue_class_counts(i, part.n, p) == swapped
            assert residue_class_counts(i, part.q, p) == cross



def test_class_masks_split_the_nonzero_residues():
    for p in range(3, 400):
        if not is_odd_prime(p) or p % 8 not in (1, 7):
            continue
        part = quad_partition(p)
        assert part.q_mask & part.n_mask == 0
        assert part.q_mask | part.n_mask == (1 << p) - 2
        assert part.q_mask == sum(1 << j for j in range(1, p) if part.is_residue(j))


@pytest.mark.parametrize("p", [7, 17, 23, 41, 47, 71, 73, 127, 257])
def test_span_products_give_the_shifted_class_counts(p):
    # #{j in S : i + j in Q} is the coefficient at i of e_{-S}*e1, and the
    # same with N and e2; the span products give it as the coordinate of
    # the class of i.  -S is S when -1 is a residue (p = 1 mod 8), and the
    # other class when p = 7 mod 8, so both kinds of prime are covered.
    part = quad_partition(p)
    unit = {"q": (0, 1, 0), "n": (0, 0, 1)}
    neg = {"q": "q", "n": "n"} if part.is_residue(p - 1) else {"q": "n", "n": "q"}
    assert (p % 8 == 1) == (neg["q"] == "q")
    big = 1 << 62
    for s, cls in (("q", part.q), ("n", part.n)):
        by_q = _span_mul(p, unit[neg[s]], unit["q"], big)
        by_n = _span_mul(p, unit[neg[s]], unit["n"], big)
        for i in range(-p, 2 * p):
            at = part.classify(i)
            counts = (by_q[at], by_n[at], len(cls) - by_q[at] - by_n[at])
            assert counts == residue_class_counts(i, cls, p), (s, i)

def test_family_params_table():
    cases = {
        (7, 4): (1, 1),
        (23, 4): (1, 1),
        (41, 4): (1, -1),
        (17, 5): (2, -1),
        (47, 5): (2, 1),
        (31, 6): (4, 1),
    }
    for (p, m), (k, sign) in cases.items():
        params = family_params(p, m)
        assert (params.k, params.sign) == (k, sign)
        assert params.h_multiplier == 8 * k - 1
        assert (p - sign * (8 * k - 1)) % (1 << m) == 0


def test_family_params_out_of_range():
    # residues of 1 and -1 mod 2^m carry no (k, sign)
    with pytest.raises(OutOfFamilyRange):
        family_params(17, 4)
    with pytest.raises(OutOfFamilyRange):
        family_params(47, 4)
    with pytest.raises(OutOfFamilyRange):
        family_params(31, 5)  # 31 = -1 mod 32


def test_family_params_errors():
    with pytest.raises(NotPrime):
        family_params(9, 4)
    with pytest.raises(BadResidueClass):
        family_params(13, 4)
    with pytest.raises(NoValidK):
        family_params(7, 3)


def test_p_above_max_p_is_refused_before_trial_division(monkeypatch):
    def refuse(p):
        raise AssertionError(f"trial division of {p}")

    monkeypatch.setattr(modring, "is_odd_prime", refuse)
    for p in (MAX_P + 1, 1000000007, (1 << 61) - 1):
        with pytest.raises(PrimeTooLarge, match="MAX_P"):
            quad_partition(p)
        with pytest.raises(PrimeTooLarge, match="MAX_P"):
            family_params(p, 5)


def test_largest_family_prime_below_max_p_is_accepted():
    p = MAX_P - 17  # 1048559, prime and 7 mod 8
    assert family_params(p, 5) == modring.FamilyParams(p=p, m=5, k=2, sign=1)


FAMILY_PRIMES = [p for p in range(3, 200) if is_odd_prime(p) and p % 8 in (1, 7)]


def test_family_params_closed_form_matches_k_scan():
    for p in FAMILY_PRIMES:
        for m in range(4, 13):
            mod = 1 << m
            r = p % mod
            scan = [
                (k, sign)
                for k in range(1, 1 << (m - 3))
                for sign in (1, -1)
                if r == sign * (8 * k - 1) % mod
            ]
            if r in (1, mod - 1):
                assert scan == []
                with pytest.raises(OutOfFamilyRange):
                    family_params(p, m)
                continue
            assert len(scan) == 1
            params = family_params(p, m)
            assert [(params.k, params.sign)] == scan


def test_family_params_at_large_m():
    for p in FAMILY_PRIMES:
        for m in (30, 40, 62):
            params = family_params(p, m)
            assert (p - params.sign * (8 * params.k - 1)) % (1 << m) == 0
            assert 1 <= params.k <= (1 << (m - 3)) - 1

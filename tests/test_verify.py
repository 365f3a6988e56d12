import hashlib
import json
import sys

import pytest

from qr2m import lincode, polyring, qr, verify
from qr2m.lincode import (
    code_from_polynomial,
    is_self_orthogonal,
    orthogonal,
    sum_codes,
)
from qr2m.modring import is_odd_prime
from qr2m.polyring import ZPoly, mu_map
from qr2m.verify import SCHEMA_VERSION, run_verification

# sha256 of the canonical wide-grid report; re-freeze only with a change
# that alters the verify output on purpose, and record why
WIDE_GRID_SHA256 = "795637c71dce4517b8c19146bbd96d4efebac1e4ce042f8b96d08190d495db90"
# the same for the primes p < 400 and p < 1000
P400_GRID_SHA256 = "3487179babc71ee3a9f030ea28f89a7af8b0b457e474f11a74247433e52f036b"
P1000_GRID_SHA256 = "4c155a4021c2070ecc38f3c5df9ca64af201e14c15dffa1e44476fbf9dbaed29"
# the same for the primes 1000 < p < 2000, frozen before the lift became
# Graeffe root-squaring; that report has summary.failed == 0
P1000_2000_GRID_SHA256 = "fa542b2f23b9cfd56194c8150aab2a40afedf8f4fd1493fdf46580ec57a63ffc"
# the same for the primes 2000 < p < 4000, frozen before block sets were
# read off Gauss periods; that report has summary.failed == 0
P2000_4000_GRID_SHA256 = "f401b198cb1daaef5cafc8a95348a9503f3206d927afa5e29a86218c09883790"
# the same for the primes 8000 < p < 9000, frozen while the partition rows
# still counted shifted classes by mask rotation and the span products were
# four convolutions; that report has summary.failed == 0
P8000_9000_GRID_SHA256 = "96d4d3010855b4f57edca453ef7b81823754bf74c5b6f6a36c26f7580e9cc02d"


def desk_report():
    return run_verification([7, 17, 23], [4, 5])


def test_desk_sweep_passes():
    report = desk_report()
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["summary"]["failed"] == 0
    assert report["summary"]["ok"] is True
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed == []


def test_desk_sweep_skips_are_structural():
    report = desk_report()
    skips = {(c["p"], c["m"]) for c in report["checks"] if c["status"] == "skip"}
    assert skips == {(7, 5), (17, 4), (23, 5)}


def test_desk_errata_catalog():
    report = desk_report()
    found = {(e["kind"], e["p"], e["m"]) for e in report["errata"]}
    assert found == {
        ("nonresidue_pair_zero_sums", 17, None),
        ("cross_product_coefficient", 17, 4),
        ("cross_product_coefficient", 17, 5),
        ("conjugate_sum_vs_prime", 7, 5),
        ("conjugate_sum_vs_prime", 23, 5),
        ("self_reciprocal_prime", 7, 5),
        ("self_reciprocal_prime", 23, 5),
        ("primed_role_exchange", 17, 5),
        ("dual_pairing_crossed", 17, 5),
    }


def test_cross_product_erratum_detail():
    report = desk_report()
    entry = next(
        e
        for e in report["errata"]
        if e["kind"] == "cross_product_coefficient" and e["m"] == 4
    )
    assert entry["detail"]["printed"] == [0, 3, 3]
    assert entry["detail"]["computed"] == [0, 4, 4]


def test_dual_crossing_detail():
    report = desk_report()
    entry = next(e for e in report["errata"] if e["kind"] == "dual_pairing_crossed")
    assert entry["detail"]["computed"] == {
        "q": "nprime",
        "nprime": "q",
        "n": "qprime",
        "qprime": "n",
    }
    assert not any(entry["detail"]["self_orthogonal"].values())


def test_conjugate_sum_erratum_detail():
    report = desk_report()
    entry = next(
        e
        for e in report["errata"]
        if e["kind"] == "conjugate_sum_vs_prime" and e["p"] == 23
    )
    assert entry["detail"]["computed"] == [7, 25]
    assert entry["detail"]["printed"] == [9, 23]


def test_findings():
    report = desk_report()
    kinds = [(f["kind"], f["p"], f["m"]) for f in report["findings"]]
    assert ("vacuous_minus_one_cases", None, None) in kinds
    assert ("family_not_constructible", 7, 5) in kinds
    assert ("family_not_constructible", 17, 4) in kinds
    assert ("family_not_constructible", 23, 5) in kinds


def test_clean_pair_has_no_errata():
    report = run_verification([7], [4])
    assert report["errata"] == []
    assert report["summary"]["failed"] == 0
    assert report["summary"]["skipped"] == 0


def test_report_is_deterministic():
    assert desk_report() == desk_report()


def test_widest_family_point_passes():
    # m = 8 is the widest lane width on the benchmark grid
    report = run_verification([127], [8])
    assert report["summary"]["failed"] == 0
    family = [c for c in report["checks"] if c["name"] == "family_case"]
    assert [c["status"] for c in family] == ["pass"]


SPIED = ("ring_mul", "decompose_basis", "assemble_basis")


def _spied_calls(monkeypatch, p, ms) -> tuple[dict, dict[str, list]]:
    """Verify p over ms from cold caches, recording every call to SPIED.

    A ring_mul is recorded by the shape of its operands, a decomposition
    by the function that asked for it, an assembly by its (p, m, triple).
    """
    for cached in (
        qr._span_products,
        qr.span_idempotents,
        qr.solve_idempotent_system,
        qr.lifted_factors,
    ):
        cached.cache_clear()
    calls = {name: [] for name in SPIED}
    ring_mul, decompose, assemble = (getattr(qr, name) for name in SPIED)

    def ring_mul_spy(a, b):
        calls["ring_mul"].append((a.n, a.m))
        return ring_mul(a, b)

    def decompose_spy(f):
        calls["decompose_basis"].append(sys._getframe(1).f_code.co_name)
        return decompose(f)

    def assemble_spy(p, m, *trip):
        calls["assemble_basis"].append((p, m, tuple(c % (1 << m) for c in trip)))
        return assemble(p, m, *trip)

    spies = dict(zip(SPIED, (ring_mul_spy, decompose_spy, assemble_spy)))
    for module in (polyring, qr, verify):
        for name, spy in spies.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    report = run_verification([p], ms)
    assert report["summary"]["failed"] == 0
    return report, calls


def _family_ms(report) -> list[int]:
    return [c["m"] for c in report["checks"] if c["name"] == "family_case"]


def _family_triples(p, m) -> list[tuple]:
    fam = qr.build_family(p, m)
    triples = (fam.triple_q, fam.triple_q_prime, fam.triple_n, fam.triple_n_prime)
    return [(p, m, t) for t in triples]


def test_nonfamily_point_convolves_each_product_once(monkeypatch):
    # e1*e1 and h*h, once per prime at the modulus 2^bit_length(p) = 2^9;
    # e1*e2 and e2*e2 are derived from e1*e1, the partition rows read the
    # same products, and span idempotents are checked on the blocks
    report, calls = _spied_calls(monkeypatch, 257, range(4, 9))
    assert _family_ms(report) == []
    assert calls["ring_mul"] == [(257, 9)] * 2
    assert calls["decompose_basis"] == ["_span_products"] * 2
    assert calls["assemble_basis"] == []


def test_family_point_convolves_only_route_b_and_the_lift(monkeypatch):
    # block sets and route B are taken in span coordinates; what is left
    # is the two convolved basis products at 2^7 and, at 2^8, the three
    # lift_identification products and the lift_idempotent product
    report, calls = _spied_calls(monkeypatch, 127, [8])
    assert _family_ms(report) == [8]
    assert sorted(calls["ring_mul"]) == [(127, 7)] * 2 + [(127, 8)] * 4
    # the family is held as span triples: nothing is decomposed but the
    # basis products, and each idempotent is assembled once, for the rows
    # that read its vector
    assert calls["decompose_basis"] == ["_span_products"] * 2
    assert sorted(calls["assemble_basis"]) == sorted(_family_triples(127, 8))


def test_family_prime_convolves_the_lift_once_per_constructible_m(monkeypatch):
    # two convolved basis products for the prime, and four lift products
    # at each m where the family is built
    report, calls = _spied_calls(monkeypatch, 41, range(4, 9))
    ms = _family_ms(report)
    assert ms == [4]
    assert sorted(calls["ring_mul"]) == sorted([(41, 6)] * 2 + [(41, m) for m in ms] * 4)
    assert calls["decompose_basis"] == ["_span_products"] * 2
    assert sorted(calls["assemble_basis"]) == sorted(
        t for m in ms for t in _family_triples(41, m)
    )


def test_constructible_grid_points_verify_cleanly(constructible_points):
    for p, m in constructible_points:
        report = run_verification([p], [m])
        assert report["summary"]["failed"] == 0, (p, m)
        assert any(c["name"] == "family_case" for c in report["checks"]), (p, m)


def _howell_family_rows(fam) -> tuple[dict[str, bool], dict[str, str], dict]:
    """Each Howell-backed family row decided by generic linear algebra.

    Sizes, sums, containment and orthogonality of the built codes: the
    route the sweep used before it read block sets and idempotents.
    Returns the rows' booleans, the details the sweep prints from them,
    and the errata fields derived from them.
    """
    p, m = fam.params.p, fam.params.m
    _, eps = qr.split_parameter(p)
    codes = {"q": fam.q, "qprime": fam.q_prime, "n": fam.n, "nprime": fam.n_prime}
    if fam.case_tag in ("C12", "C21"):
        small_q, small_n, big_q, big_n = fam.q, fam.n, fam.q_prime, fam.n_prime
        idem_big_q, idem_big_n = fam.idem_q_prime, fam.idem_n_prime
    else:
        small_q, small_n, big_q, big_n = fam.q_prime, fam.n_prime, fam.q, fam.n
        idem_big_q, idem_big_n = fam.idem_q, fam.idem_n
    small, big = m * (p - 1) // 2, m * (p + 1) // 2
    rows, details, errata = {}, {}, {}
    rows["family_sizes"] = (
        small_q.log2_size == small
        and small_n.log2_size == small
        and big_q.log2_size == big
        and big_n.log2_size == big
    )
    details["family_sizes"] = (
        f"log2 sizes q={fam.q.log2_size} q'={fam.q_prime.log2_size} "
        f"n={fam.n.log2_size} n'={fam.n_prime.log2_size}"
    )
    errata["primed_role_exchange"] = (fam.q.log2_size, fam.q_prime.log2_size)
    shift_code = code_from_polynomial(fam.shift_generator())
    rows["shift_ideal_size"] = shift_code.log2_size == m
    rows["big_is_small_plus_shift"] = (
        big_q == sum_codes(small_q, shift_code)
        and big_n == sum_codes(small_n, shift_code)
    )
    big_span = sum_codes(big_q, big_n)
    meet_size = big_q.log2_size + big_n.log2_size - big_span.log2_size

    def is_big_meet(code) -> bool:
        # a common subcode of the size |A||B|/|A+B| is the whole of A meet B
        return (
            big_q.contains_code(code)
            and big_n.contains_code(code)
            and code.log2_size == meet_size
        )

    rows["big_pair_intersection"] = is_big_meet(shift_code)
    rows["big_pair_sum"] = big_span.log2_size == m * p
    rows["small_pair_intersection"] = (
        sum_codes(small_q, small_n).log2_size == small_q.log2_size + small_n.log2_size
    )
    pairing = {}
    for name, c in codes.items():
        # D is the dual of C exactly when they are orthogonal and |C||D| = 2^(mp)
        partners = (
            other
            for other, d in codes.items()
            if c.log2_size + d.log2_size == m * p and orthogonal(c, d)
        )
        pairing[name] = next(partners, None)
    if eps < 0:
        expected = {"q": "qprime", "qprime": "q", "n": "nprime", "nprime": "n"}
    else:
        expected = {"q": "nprime", "nprime": "q", "n": "qprime", "qprime": "n"}
    # the ideal of an idempotent e has dual C(1 - e(x^-1))
    dual_q = code_from_polynomial(ZPoly.one(p, m) - mu_map(fam.idem_q, p - 1))
    rows["dual_pairing"] = pairing == expected and dual_q == codes.get(pairing["q"])
    details["dual_pairing"] = f"pairing {pairing}"
    if eps < 0:
        rows["small_self_orthogonal"] = is_self_orthogonal(small_q) and is_self_orthogonal(
            small_n
        )
    else:
        self_orth = {name: is_self_orthogonal(c) for name, c in codes.items()}
        rows["no_self_orthogonal_member"] = not any(self_orth.values())
        errata["dual_pairing_crossed"] = {"computed": pairing, "self_orthogonal": self_orth}
    rows["lift_identification"] = big_q == qr.lifted_residue_code(p, m)
    prod = polyring.ring_mul(idem_big_q, idem_big_n)
    rows["intersection_idempotent_route"] = is_big_meet(code_from_polynomial(prod))
    rows["sum_idempotent_route"] = (
        code_from_polynomial(idem_big_q + idem_big_n - prod) == big_span
    )
    return rows, details, errata


def test_family_rows_match_the_howell_oracle(families):
    for (p, m), fam in families.items():
        rows, details, errata = _howell_family_rows(fam)
        assert all(rows.values()), (p, m)
        report = run_verification([p], [m])
        checks = {c["name"]: c for c in report["checks"] if c["m"] == m}
        for name, holds in rows.items():
            assert checks[name]["status"] == ("pass" if holds else "fail"), (p, m, name)
        for name, detail in details.items():
            assert checks[name]["detail"] == detail, (p, m, name)
        for name in ("family_case", "lift_idempotent", "mu_equivalence"):
            assert checks[name]["status"] == "pass", (p, m, name)
        found = {e["kind"]: e["detail"] for e in report["errata"] if e["m"] == m}
        if fam.case_tag == "C21":
            entry = found["primed_role_exchange"]
            sizes = (entry["computed_unprimed_log2"], entry["computed_primed_log2"])
            assert sizes == errata["primed_role_exchange"], (p, m)
        if "dual_pairing_crossed" in errata:
            entry = found["dual_pairing_crossed"]
            assert {
                "computed": entry["computed"],
                "self_orthogonal": entry["self_orthogonal"],
            } == errata["dual_pairing_crossed"], (p, m)


def _failed_rows(report) -> set[str]:
    return {c["name"] for c in report["checks"] if c["status"] == "fail"}


# the rows that read the small q-side idempotent idem_q (C12 and C21)
SMALL_Q_ROWS = {
    "big_is_small_plus_shift",
    "dual_pairing",
    "mu_equivalence",
    "small_pair_intersection",
}


# the self-orthogonality row reads the small codes when p = 7 mod 8 and
# all four codes when p = 1 mod 8
@pytest.mark.parametrize(
    "p,m,small_extra,big_extra",
    [
        (7, 4, {"small_self_orthogonal"}, set()),
        (17, 5, {"no_self_orthogonal_member"}, {"no_self_orthogonal_member"}),
    ],
)
def test_a_broken_family_fails_the_rows_that_read_it(monkeypatch, p, m, small_extra, big_extra):
    fam = qr.build_family(p, m)

    def twice(trip):
        return tuple(2 * c % (1 << m) for c in trip)

    def broken(triple_q=fam.triple_q, triple_q_prime=fam.triple_q_prime):
        return qr.QrFamily(
            params=fam.params,
            case_tag=fam.case_tag,
            coeffs_q=fam.coeffs_q,
            triple_q=triple_q,
            triple_q_prime=triple_q_prime,
            triple_n=fam.triple_n,
            triple_n_prime=fam.triple_n_prime,
        )

    doubled = broken(triple_q=twice(fam.triple_q))
    swapped = broken(triple_q=fam.triple_n)
    doubled_big = broken(triple_q_prime=twice(fam.triple_q_prime))
    assert qr.block_set(p, m, doubled.triple_q) is None
    assert qr.block_set(p, m, doubled_big.triple_q_prime) is None
    # the vectors are a view of the triples, so they break with them
    assert doubled.idem_q == fam.idem_q.scale(2)
    assert swapped.idem_q == fam.idem_n
    expect = {
        # 2e is no idempotent: no block set, so no size and no dual either
        doubled: SMALL_Q_ROWS | {"family_sizes"} | small_extra,
        # the triple of n has the right size and is self-orthogonal as q's would be
        swapped: SMALL_Q_ROWS,
        doubled_big: {
            "big_is_small_plus_shift",
            "big_pair_intersection",
            "big_pair_sum",
            "dual_pairing",
            "family_sizes",
            "intersection_idempotent_route",
            "lift_identification",
            "lift_idempotent",
            "mu_equivalence",
            "sum_idempotent_route",
        }
        | big_extra,
    }
    for broken, rows in expect.items():
        monkeypatch.setattr(verify, "build_family", lambda p, m: broken)
        report = run_verification([p], [m])
        assert _failed_rows(report) == rows
        assert report["summary"]["ok"] is False


# the rows whose route B multiplies span coordinates, and the subset that a
# product of zero fails: zero is the true product in small_pair_intersection
# and in e*e_u for a small e
PRODUCT_ROWS = {
    "big_is_small_plus_shift",
    "big_pair_intersection",
    "big_pair_sum",
    "intersection_idempotent_route",
    "shift_ideal_size",
    "small_pair_intersection",
    "sum_idempotent_route",
}
VANISHING_ROWS = PRODUCT_ROWS - {"big_is_small_plus_shift", "small_pair_intersection"}


# a small code is self-orthogonal when p = 7 mod 8, so its product with its
# inversion is zero; when p = 1 mod 8 no such product is
@pytest.mark.parametrize(
    "p,m,off_by_one_extra,vanishing_extra",
    [
        (7, 4, {"small_self_orthogonal"}, set()),
        (17, 5, set(), {"no_self_orthogonal_member"}),
    ],
)
def test_a_broken_route_b_product_fails_the_rows_that_use_it(
    monkeypatch, p, m, off_by_one_extra, vanishing_extra
):
    # only verify's coordinate product is broken: the block sets of route A
    # and the span idempotents, which qr multiplies itself, stay intact
    product = verify._span_mul

    def off_by_one(prime, s, t, mod):
        a, b, c = product(prime, s, t, mod)
        return (a + 1) % mod, b, c

    def vanishing(prime, s, t, mod):
        return 0, 0, 0

    for broken, rows in (
        (off_by_one, PRODUCT_ROWS | off_by_one_extra),
        (vanishing, VANISHING_ROWS | vanishing_extra),
    ):
        monkeypatch.setattr(verify, "_span_mul", broken)
        report = run_verification([p], [m])
        assert _failed_rows(report) == rows
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["family_sizes"] == "pass"
        assert status["span_count"] == "pass"


def test_the_sweep_builds_no_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep reached generic linear algebra")

    monkeypatch.setattr(lincode, "_howell", refuse)
    monkeypatch.setattr(lincode, "orthogonal", refuse)
    monkeypatch.setattr(qr, "code_from_divisor", refuse)
    report = run_verification([7, 17, 127], [4, 5, 8])
    assert report["summary"]["failed"] == 0
    assert len([c for c in report["checks"] if c["name"] == "family_case"]) == 3


def _grid_report_digest(bound: int, lower: int = 3) -> tuple[int, str]:
    primes = [p for p in range(lower, bound) if is_odd_prime(p) and p % 8 in (1, 7)]
    report = run_verification(primes, range(4, 9))
    text = json.dumps(report, sort_keys=True)
    return len(primes), hashlib.sha256(text.encode()).hexdigest()


def test_wide_grid_report_is_frozen():
    assert _grid_report_digest(200) == (20, WIDE_GRID_SHA256)


@pytest.mark.slow
def test_p400_grid_report_is_frozen():
    # reaches the constructible points with 200 < p < 400 that no other
    # test builds; it runs only in CI's slow step (pytest -m slow)
    assert _grid_report_digest(400) == (35, P400_GRID_SHA256)


@pytest.mark.slow
def test_p1000_grid_report_is_frozen():
    # 80 primes at m = 4..8, 400 points; about 1 s, in CI's slow step
    assert _grid_report_digest(1000) == (80, P1000_GRID_SHA256)


@pytest.mark.slow
def test_p1000_2000_grid_report_is_frozen():
    # 66 primes at m = 4..8, 330 points, each constructible one with a
    # lifted factorization of length p; about 2 s, in CI's slow step
    assert _grid_report_digest(2000, 1000) == (66, P1000_2000_GRID_SHA256)


@pytest.mark.slow
def test_p2000_4000_grid_report_is_frozen():
    # 122 primes at m = 4..8, 610 points; about 10 s, in CI's slow step
    assert _grid_report_digest(4000, 2000) == (122, P2000_4000_GRID_SHA256)


@pytest.mark.slow
def test_p8000_9000_grid_report_is_frozen():
    # 54 primes at m = 4..8, 270 points, where the per-prime p-length work
    # (the basis products and the partition rows) outweighs the rest;
    # about 10 to 20 s, in CI's slow step
    assert _grid_report_digest(9000, 8000) == (54, P8000_9000_GRID_SHA256)

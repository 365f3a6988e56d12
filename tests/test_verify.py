import hashlib
import json

import pytest

from qr2m import polyring, qr, verify
from qr2m.modring import is_odd_prime
from qr2m.verify import SCHEMA_VERSION, run_verification

# sha256 of the canonical wide-grid report; re-freeze only with a change
# that alters the verify output on purpose, and record why
WIDE_GRID_SHA256 = "795637c71dce4517b8c19146bbd96d4efebac1e4ce042f8b96d08190d495db90"
# the same for the primes p < 400
P400_GRID_SHA256 = "3487179babc71ee3a9f030ea28f89a7af8b0b457e474f11a74247433e52f036b"


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


def test_nonfamily_point_convolves_each_product_once(monkeypatch):
    # three basis products, h*h and one idempotence check per span
    # idempotent (eight); the four nondegenerate triples reuse those checks
    for cached in (qr._span_products, qr.span_idempotents, qr.solve_idempotent_system):
        cached.cache_clear()
    calls = []
    ring_mul = polyring.ring_mul

    def spy(a, b):
        calls.append((a.n, a.m))
        return ring_mul(a, b)

    for module in (polyring, qr, verify):
        monkeypatch.setattr(module, "ring_mul", spy)
    report = run_verification([41], [6])
    assert report["summary"]["failed"] == 0
    assert [c["status"] for c in report["checks"] if c["name"] == "family_construction"] == ["skip"]
    assert calls == [(41, 6)] * 12


def test_constructible_grid_points_verify_cleanly(constructible_points):
    for p, m in constructible_points:
        report = run_verification([p], [m])
        assert report["summary"]["failed"] == 0, (p, m)
        assert any(c["name"] == "family_case" for c in report["checks"]), (p, m)


def _grid_report_digest(bound: int) -> tuple[int, str]:
    primes = [p for p in range(3, bound) if is_odd_prime(p) and p % 8 in (1, 7)]
    report = run_verification(primes, range(4, 9))
    text = json.dumps(report, sort_keys=True)
    return len(primes), hashlib.sha256(text.encode()).hexdigest()


def test_wide_grid_report_is_frozen():
    assert _grid_report_digest(200) == (20, WIDE_GRID_SHA256)


@pytest.mark.slow
def test_p400_grid_report_is_frozen():
    # reaches the constructible points with 200 < p < 400 that no other
    # test builds; about 15 s, so CI runs it by name (pytest -m slow)
    assert _grid_report_digest(400) == (35, P400_GRID_SHA256)

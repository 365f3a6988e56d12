"""Acceptance gate: ten criteria, one recorded pass/fail line each.

Every numeric claim is exact; runtime limits are asserted where the
criterion states one.
"""

import itertools
import json
import random
import time

from _acceptance_log import record

from qr2m.cli import main as cli_main
from qr2m.lincode import (
    canonical_form,
    code_from_polynomial,
    dual,
    equivalent_under_mu,
    intersect,
    is_self_orthogonal,
    min_weight,
    sum_codes,
)
from qr2m.modring import (
    count_zero_sums,
    family_params,
    quad_partition,
    residue_class_counts,
)
from qr2m import padic
from qr2m.polyring import ZPoly, binary_qr_factors, hensel_lift_factors
from qr2m.qr import (
    build_family,
    lifted_residue_code,
    product_identities_report,
    solve_idempotent_system,
    split_parameter,
)
from qr2m.verify import run_verification

FAMILY_PRIMES_100 = [7, 17, 23, 31, 41, 47, 71, 73, 79, 89, 97]
FAMILY_PRIMES_200 = FAMILY_PRIMES_100 + [103, 113, 127, 137, 151, 167, 191, 193, 199]


def check(num: int, desc: str, ok: bool, elapsed: float | None = None) -> bool:
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    record(f"{status} criterion {num}: {desc}{timing}")
    return ok


def test_criterion_1_partition_structure():
    start = time.monotonic()
    ok = True
    for p in FAMILY_PRIMES_100:
        part = quad_partition(p)
        k, eps = split_parameter(p)
        half = (p - 1) // 2
        qq = count_zero_sums(part.q, part.q, p)
        nn = count_zero_sums(part.n, part.n, p)
        qn = count_zero_sums(part.q, part.n, p)
        if eps < 0:
            ok &= (qq, nn, qn) == (0, 0, half)
            same, cross = (2 * k - 1, 2 * k, 0), (2 * k - 1, 2 * k - 1, 1)
        else:
            ok &= (qq, nn, qn) == (half, half, 0)
            same, cross = (2 * k - 1, 2 * k, 1), (2 * k, 2 * k, 0)
        swapped = (same[1], same[0], same[2])
        ok &= all(residue_class_counts(i, part.q, p) == same for i in part.q)
        ok &= all(residue_class_counts(i, part.n, p) == cross for i in part.q)
        ok &= all(residue_class_counts(i, part.n, p) == swapped for i in part.n)
        ok &= all(residue_class_counts(i, part.q, p) == cross for i in part.n)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    assert check(1, "zero-sum and shifted-class counts, primes < 100", ok, elapsed)


def test_criterion_2_product_identities():
    start = time.monotonic()
    ok = True
    for p in (7, 17, 23, 31, 41, 47):
        for m in (4, 5):
            ok &= product_identities_report(p, m).all_hold
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    assert check(2, "basis product identities by exact convolution", ok, elapsed)


def test_criterion_3_idempotent_scan():
    start = time.monotonic()
    ok = True
    for p, m in ((7, 4), (23, 5)):
        mod = 1 << m
        sols = solve_idempotent_system(p, m)
        inv_p = pow(p, -1, mod)
        ok &= len(sols) == 4
        ok &= all((2 * s.alpha - s.beta - s.gamma) % mod == 1 for s in sols)
        ok &= {s.conjugate_sum for s in sols} == {inv_p, (-inv_p) % mod}
    ok &= {s.conjugate_sum for s in solve_idempotent_system(7, 4)} == {7, 9}
    report = run_verification([23], [5])
    entry = [e for e in report["errata"] if e["kind"] == "conjugate_sum_vs_prime"]
    ok &= len(entry) == 1 and entry[0]["detail"]["computed"] == [7, 25]
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    assert check(3, "exhaustive idempotent scan and conjugate-sum classes", ok, elapsed)


def test_criterion_4_family_clauses():
    fam = build_family(7, 4)
    shift = intersect(fam.q_prime, fam.n_prime)
    ok = shift.log2_size == 4
    ok &= shift == code_from_polynomial(fam.shift_generator())
    ok &= sum_codes(fam.q_prime, fam.n_prime).log2_size == 28
    ok &= fam.q_prime.log2_size == 16 and fam.q.log2_size == 12
    ok &= sum_codes(fam.q, shift) == fam.q_prime
    ok &= is_self_orthogonal(fam.q) and is_self_orthogonal(fam.n)
    ok &= dual(fam.q_prime) == fam.q and dual(fam.n_prime) == fam.n
    u = equivalent_under_mu(fam.q, fam.n)
    ok &= u is not None and not quad_partition(7).is_residue(u)
    fam17 = build_family(17, 5)
    ok &= fam17.q_prime.log2_size == 45 and fam17.q.log2_size == 40
    ok &= fam17.n_prime.log2_size == 45 and fam17.n.log2_size == 40
    shift17 = intersect(fam17.q_prime, fam17.n_prime)
    ok &= shift17.log2_size == 5
    ok &= shift17 == code_from_polynomial(fam17.shift_generator())
    ok &= sum_codes(fam17.q_prime, fam17.n_prime).log2_size == 85
    ok &= sum_codes(fam17.q, shift17) == fam17.q_prime
    ok &= dual(fam17.q) == fam17.n_prime and dual(fam17.n) == fam17.q_prime
    report = run_verification([17], [5])
    kinds = {e["kind"] for e in report["errata"]}
    ok &= "primed_role_exchange" in kinds and "dual_pairing_crossed" in kinds
    ok &= report["summary"]["failed"] == 0
    assert check(4, "four-code family clauses at (7,4) and (17,5)", ok)


def test_criterion_5_hensel_lift():
    lifted = hensel_lift_factors(binary_qr_factors(7), 2)
    ok = lifted.f_q.coeffs == (3, 1, 2, 1, 0, 0, 0)
    ok &= lifted.verify_product()
    for p in (7, 17, 23, 31, 41, 47):
        seed = binary_qr_factors(p)
        top = hensel_lift_factors(seed, 8)
        ok &= top.verify_product()
        for j in range(1, 8):
            lower = hensel_lift_factors(seed, j)
            ok &= top.f_q.reduce_mod(j) == lower.f_q
            ok &= top.f_n.reduce_mod(j) == lower.f_n
            ok &= lower.verify_product()
    assert check(5, "Hensel lift values, products, tower consistency", ok)


def binary_min_weight(p: int) -> int:
    """Independent GF(2) enumerator over the rotations of the residue factor."""
    f = binary_qr_factors(p).f_q.coeffs
    rows = [tuple(f[(i - r) % p] for i in range(p)) for r in range(p)]
    best = p + 1
    for combo in itertools.product((0, 1), repeat=p):
        word = [0] * p
        for c, row in zip(combo, rows):
            if c:
                word = [(a + b) % 2 for a, b in zip(word, row)]
        w = sum(word)
        if 0 < w < best:
            best = w
    return best


def test_criterion_6_minimum_weights():
    ok = True
    timings = []
    binary7 = binary_min_weight(7)
    ok &= binary7 == 3
    for m in (2, 3, 4):
        start = time.monotonic()
        report = min_weight(lifted_residue_code(7, m))
        timings.append(time.monotonic() - start)
        ok &= report.enumerated and report.min_weight == 3 == binary7
    start = time.monotonic()
    report17 = min_weight(lifted_residue_code(17, 2))
    timings.append(time.monotonic() - start)
    ok &= report17.enumerated and report17.min_weight == 5
    ok &= binary_min_weight(17) == 5
    ok &= all(t < 60.0 for t in timings)
    assert check(6, "lifted-code minimum weights match the binary values", ok, sum(timings))


def test_criterion_7_minimum_words_odd_like():
    start = time.monotonic()
    fam = build_family(7, 4)
    report = min_weight(fam.q_prime)
    ok = report.enumerated and report.min_weight == 3
    ok &= report.all_min_odd_like is True
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    assert check(7, "minimum-weight words of the larger code are odd-like", ok, elapsed)


def test_criterion_8_padic_suite():
    start = time.monotonic()
    ok = True
    covered = 0
    for p in FAMILY_PRIMES_200:
        for m in range(4, 9):
            try:
                params = family_params(p, m)
            except Exception:
                continue
            covered += 1
            mod = 1 << m
            for target in padic.Target:
                e = padic.expand(target, p, m)
                ok &= e.value == padic.direct_value(target, p, m)
                ok &= padic.matches_template(
                    e, padic.expected_template(target, params.sign)
                )
            ok &= p * pow(p, -1, mod) % mod == 1
    ok &= covered > 50
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    assert check(8, "2-adic digit templates and inverse oracle, primes < 200", ok, elapsed)


def test_criterion_9_vacuity():
    ok = all(
        p * p % (1 << m) != (1 << m) - 1
        for p in FAMILY_PRIMES_200
        for m in range(4, 9)
    )
    report = run_verification([7], [4])
    ok &= any(f["kind"] == "vacuous_minus_one_cases" for f in report["findings"])
    assert check(9, "cases needing p^2 = -1 mod 2^m never occur; finding emitted", ok)


def brute_span(rows, n, m):
    mod = 1 << m
    out = set()
    for coeffs in itertools.product(range(mod), repeat=len(rows)):
        word = [0] * n
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                word[i] = (word[i] + c * x) % mod
        out.add(tuple(word))
    return out


def test_criterion_10_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20260821)
    shapes = [(9, 1), (8, 1), (6, 2), (5, 2), (4, 3), (3, 3)]
    ok = True
    trials = 108
    for trial in range(trials):
        n, m = shapes[trial % len(shapes)]
        mod = 1 << m
        rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        other = [[rng.randrange(mod) for _ in range(n)] for _ in range(2)]
        code = canonical_form(rows, n, m)
        span = brute_span(rows, n, m)
        ok &= set(code.codewords()) == span
        ok &= set(intersect(code, canonical_form(other, n, m)).codewords()) == (
            span & brute_span(other, n, m)
        )
        brute_dual = {
            v
            for v in itertools.product(range(mod), repeat=n)
            if all(sum(a * b for a, b in zip(v, row)) % mod == 0 for row in rows)
        }
        ok &= set(dual(code).codewords()) == brute_dual
        nonzero = [w for w in span if any(w)]
        if nonzero:
            report = min_weight(code)
            weights = sorted(sum(1 for x in w if x) for w in nonzero)
            ok &= report.min_weight == weights[0]
            ok &= report.min_weight_count == weights.count(weights[0])
    elapsed = time.monotonic() - start
    assert check(10, f"brute-force oracle agreement on {trials} random codes", ok, elapsed)


def test_cli_gate_desk_verification(capsys):
    code = cli_main(
        [
            "verify",
            "--config",
            "fixtures/desk.toml",
            "--expect",
            "fixtures/desk_errata.json",
        ]
    )
    out = capsys.readouterr().out
    report = json.loads(out)
    ok = code == 0 and report["schema_version"] == 1
    ok &= report["summary"]["ok"] is True
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        record(f"{status} gate: CLI desk sweep matches the frozen errata catalog")
        assert ok

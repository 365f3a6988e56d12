"""Sweep verifier: recompute every checked claim over configured (p, m) pairs.

The report separates three kinds of outcome.  A check row records a
claim we expect to hold; any failed row means the library itself is
wrong and the run must not succeed.  An erratum records a printed claim
that exact computation contradicts, together with the computed truth;
errata are expected findings, not failures.  A finding records a
structural observation that is neither (a vacuous case, a skipped
construction).
"""

from __future__ import annotations

from . import padic
from .errors import NoCaseApplies, NoValidK, OutOfFamilyRange
from .lincode import (
    code_from_polynomial,
    dual,
    is_self_orthogonal,
    orthogonal,
    sum_codes,
)
from .modring import count_zero_sums, family_params, quad_partition
from .polyring import idempotent_from_generator, mu_map, ring_mul
from .qr import (
    build_family,
    coefficient_system_holds,
    decompose_basis,
    lifted_factors,
    lifted_residue_code,
    product_identities_report,
    shift_by_h,
    solve_idempotent_system,
    span_idempotents,
    split_parameter,
)

SCHEMA_VERSION = 1

_NOT_CONSTRUCTIBLE_REASONS = {
    OutOfFamilyRange: "out_of_family_range",
    NoValidK: "no_valid_k",
    NoCaseApplies: "no_case_applies",
}


class _Report:
    def __init__(self) -> None:
        self.checks: list[dict] = []
        self.errata: list[dict] = []
        self.findings: list[dict] = []

    def row(self, name: str, p, m, ok: bool, detail: str = "") -> bool:
        self.checks.append(
            {
                "name": name,
                "p": p,
                "m": m,
                "status": "pass" if ok else "fail",
                "detail": detail,
            }
        )
        return ok

    def skip(self, name: str, p, m, detail: str) -> None:
        self.checks.append(
            {"name": name, "p": p, "m": m, "status": "skip", "detail": detail}
        )

    def erratum(self, kind: str, p, m, detail: dict) -> None:
        self.errata.append({"kind": kind, "p": p, "m": m, "detail": detail})

    def finding(self, kind: str, p, m, detail) -> None:
        self.findings.append({"kind": kind, "p": p, "m": m, "detail": detail})


def _check_partition_structure(rep: _Report, p: int) -> None:
    part = quad_partition(p)
    k, eps = split_parameter(p)
    half = (p - 1) // 2
    qq = count_zero_sums(part.q, part.q, p)
    nn = count_zero_sums(part.n, part.n, p)
    qn = count_zero_sums(part.q, part.n, p)
    if eps < 0:
        ok = qq == 0 and nn == 0 and qn == half
        rep.row("zero_sum_structure", p, None, ok, f"qq={qq} nn={nn} qn={qn}")
    else:
        ok = qq == half and nn == half and qn == 0
        rep.row("zero_sum_structure", p, None, ok, f"qq={qq} nn={nn} qn={qn}")
        # the printed claim for this residue class denies the nn pairs
        rep.erratum(
            "nonresidue_pair_zero_sums",
            p,
            None,
            {
                "printed": "no two nonresidues sum to zero",
                "computed_nonresidue_pairs": nn,
                "computed_mixed_pairs": qn,
            },
        )
    if eps < 0:
        same = (2 * k - 1, 2 * k, 0)
        cross = (2 * k - 1, 2 * k - 1, 1)
    else:
        same = (2 * k - 1, 2 * k, 1)
        cross = (2 * k, 2 * k, 0)
    # basing the shift at a nonresidue swaps the residue/nonresidue tallies;
    # the cross tuple is symmetric in its first two entries either way
    swapped = (same[1], same[0], same[2])
    counts = part.shifted_counts
    q_mask, n_mask = part.q_mask, part.n_mask
    ok = all(counts(i, q_mask) == same for i in part.q)
    ok = ok and all(counts(i, n_mask) == cross for i in part.q)
    ok = ok and all(counts(i, n_mask) == swapped for i in part.n)
    ok = ok and all(counts(i, q_mask) == cross for i in part.n)
    rep.row("shifted_class_counts", p, None, ok, f"same={same} cross={cross}")


def _check_products(rep: _Report, p: int, m: int) -> None:
    report = product_identities_report(p, m)
    for chk in report.checks:
        rep.row(f"product_{chk.name}", p, m, chk.holds, f"span coords {chk.computed}")
    for div in report.printed_divergences:
        if not div.holds:
            rep.erratum(
                "cross_product_coefficient",
                p,
                m,
                {
                    "product": div.name,
                    "printed": list(div.expected),
                    "computed": list(div.computed),
                },
            )


def _check_idempotents(rep: _Report, p: int, m: int, params) -> None:
    mod = 1 << m
    span = span_idempotents(p, m)
    sols = solve_idempotent_system(p, m)
    rep.row("span_count", p, m, len(span) == 8, f"{len(span)} idempotents in span")
    rep.row("solution_count", p, m, len(sols) == 4, f"{len(sols)} nondegenerate")
    rep.row(
        "coefficient_system",
        p,
        m,
        all(coefficient_system_holds(p, m, *t) for t in span),
        "every span idempotent satisfies the k-form system",
    )
    rep.row(
        "alpha_relation",
        p,
        m,
        all((2 * s.alpha - s.beta - s.gamma) % mod == 1 for s in sols),
        "2*alpha - (beta+gamma) = 1",
    )
    triples = {s.triple for s in sols}
    rep.row(
        "swap_closure",
        p,
        m,
        all((a, c, b) in triples for a, b, c in triples),
        "solution set closed under conjugate swap",
    )
    inv_p = pow(p, -1, mod)
    classes = {s.conjugate_sum for s in sols}
    rep.row(
        "conjugate_sum_classes",
        p,
        m,
        classes == {inv_p, (-inv_p) % mod},
        f"classes {sorted(classes)} = +-1/p",
    )
    if params is not None:
        literal = classes == {p % mod, (-p) % mod}
        if literal:
            rep.row("conjugate_sum_matches_prime", p, m, True, "classes are +-p")
        else:
            rep.erratum(
                "conjugate_sum_vs_prime",
                p,
                m,
                {
                    "printed": sorted({p % mod, (-p) % mod}),
                    "computed": sorted(classes),
                    "inverse_of_p": inv_p,
                    "p_squared": p * p % mod,
                },
            )
        mult = params.h_multiplier % mod
        span_set = set(span)
        shiftable = [s for s in sols if s.conjugate_sum in (mult, (-mult) % mod)]
        ok = True
        for s in shiftable:
            direction = -1 if s.conjugate_sum == mult else 1
            image = decompose_basis(shift_by_h(s.as_poly(), direction, params))
            ok = ok and image in span_set
        detail = f"{len(shiftable)} shiftable triples" if shiftable else "vacuous"
        rep.row("shift_closure", p, m, ok, detail)


def _check_padic(rep: _Report, p: int, m: int, params) -> None:
    mod = 1 << m
    ok = all(
        padic.expand(t, p, m).value == padic.direct_value(t, p, m)
        for t in padic.Target
    )
    rep.row("digit_expansion_oracle", p, m, ok, "digits agree with direct inverses")
    inv = padic.direct_value(padic.Target.INV_P, p, m)
    rep.row("inverse_product", p, m, p * inv % mod == 1, f"p * {inv} = 1")
    if params is None:
        return
    ok = all(
        padic.matches_template(
            padic.expand(t, p, m), padic.expected_template(t, params.sign)
        )
        for t in padic.Target
    )
    rep.row("digit_templates", p, m, ok, "low digits follow the sign templates")
    if padic.inverse_equals_self(p, m):
        rep.row("self_reciprocal", p, m, True, "p equals 1/p at this modulus")
    else:
        rep.erratum(
            "self_reciprocal_prime",
            p,
            m,
            {
                "printed": "matching digit templates force p = 1/p",
                "p_mod": p % mod,
                "inv_p_mod": pow(p, -1, mod),
                "p_squared": p * p % mod,
            },
        )


def _check_family(rep: _Report, p: int, m: int) -> None:
    try:
        fam = build_family(p, m)
    except (OutOfFamilyRange, NoValidK, NoCaseApplies) as exc:
        rep.skip("family_construction", p, m, str(exc))
        reason = _NOT_CONSTRUCTIBLE_REASONS[type(exc)]
        rep.finding("family_not_constructible", p, m, {"reason": reason})
        return
    tag = fam.case_tag
    k, eps = split_parameter(p)
    rep.row("family_case", p, m, True, tag)
    small, big = m * (p - 1) // 2, m * (p + 1) // 2
    if tag in ("C12", "C21"):
        small_q, small_n = fam.q, fam.n
        big_q, big_n = fam.q_prime, fam.n_prime
        idem_big_q, idem_big_n = fam.idem_q_prime, fam.idem_n_prime
    else:
        small_q, small_n = fam.q_prime, fam.n_prime
        big_q, big_n = fam.q, fam.n
        idem_big_q, idem_big_n = fam.idem_q, fam.idem_n
    sizes_ok = (
        small_q.log2_size == small
        and small_n.log2_size == small
        and big_q.log2_size == big
        and big_n.log2_size == big
    )
    rep.row(
        "family_sizes",
        p,
        m,
        sizes_ok,
        f"log2 sizes q={fam.q.log2_size} q'={fam.q_prime.log2_size} "
        f"n={fam.n.log2_size} n'={fam.n_prime.log2_size}",
    )
    if tag == "C21":
        # the printed clauses for this case put the larger cardinality on
        # the unprimed pair; computation puts it on the primed pair
        rep.erratum(
            "primed_role_exchange",
            p,
            m,
            {
                "case": tag,
                "printed_unprimed_log2": big,
                "computed_unprimed_log2": fam.q.log2_size,
                "computed_primed_log2": fam.q_prime.log2_size,
            },
        )
    shift_code = code_from_polynomial(fam.shift_generator())
    rep.row("shift_ideal_size", p, m, shift_code.log2_size == m, "ideal(h) scale")
    rep.row(
        "big_is_small_plus_shift",
        p,
        m,
        big_q == sum_codes(small_q, shift_code)
        and big_n == sum_codes(small_n, shift_code),
        "primed pair adds the all-ones ideal",
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

    rep.row(
        "big_pair_intersection",
        p,
        m,
        is_big_meet(shift_code),
        "large pair meets in the all-ones ideal",
    )
    rep.row(
        "big_pair_sum",
        p,
        m,
        big_span.log2_size == m * p,
        "large pair spans the whole ring",
    )
    rep.row(
        "small_pair_intersection",
        p,
        m,
        sum_codes(small_q, small_n).log2_size
        == small_q.log2_size + small_n.log2_size,
        "small pair meets trivially",
    )
    codes = {
        "q": fam.q,
        "qprime": fam.q_prime,
        "n": fam.n,
        "nprime": fam.n_prime,
    }
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
    # the generic kernel stays in the sweep as the oracle for one partner
    oracle_ok = dual(fam.q) == codes.get(pairing["q"])
    rep.row(
        "dual_pairing", p, m, pairing == expected and oracle_ok, f"pairing {pairing}"
    )
    if eps < 0:
        rep.row(
            "small_self_orthogonal",
            p,
            m,
            is_self_orthogonal(small_q) and is_self_orthogonal(small_n),
            "small codes sit inside their duals",
        )
    else:
        self_orth = {name: is_self_orthogonal(c) for name, c in codes.items()}
        rep.row(
            "no_self_orthogonal_member",
            p,
            m,
            not any(self_orth.values()),
            "inversion fixes both residue classes",
        )
        rep.erratum(
            "dual_pairing_crossed",
            p,
            m,
            {
                "printed": {"q": "qprime", "n": "nprime"},
                "computed": pairing,
                "self_orthogonal": self_orth,
            },
        )
    lift_code = lifted_residue_code(p, m)
    rep.row(
        "lift_identification",
        p,
        m,
        big_q == lift_code,
        "large q-side code is the lifted residue factor ideal",
    )
    rep.row(
        "lift_idempotent",
        p,
        m,
        idempotent_from_generator(lifted_factors(p, m).f_q) == idem_big_q,
        "generating idempotent of the lifted factor ideal",
    )
    # mu_u maps the ideal of e onto the ideal of mu_u(e), and equal ideals
    # have equal idempotents
    found = None
    for u in quad_partition(p).n:
        if (
            mu_map(fam.idem_q, u) == fam.idem_n
            and mu_map(fam.idem_q_prime, u) == fam.idem_n_prime
        ):
            found = u
            break
    rep.row(
        "mu_equivalence",
        p,
        m,
        found is not None,
        f"relabeling by u={found}" if found is not None else "no unit found",
    )
    prod = ring_mul(idem_big_q, idem_big_n)
    rep.row(
        "intersection_idempotent_route",
        p,
        m,
        is_big_meet(code_from_polynomial(prod)),
        "product idempotent generates the intersection",
    )
    esum = idem_big_q + idem_big_n - prod
    rep.row(
        "sum_idempotent_route",
        p,
        m,
        code_from_polynomial(esum) == big_span,
        "e + f - ef generates the sum",
    )


def run_verification(p_list, m_list, budget: int = 1 << 16) -> dict:
    """Run every check over sorted(p_list) x sorted(m_list)."""
    ps = sorted(set(p_list))
    ms = sorted(set(m_list))
    rep = _Report()
    for p in ps:
        _check_partition_structure(rep, p)
    for p in ps:
        for m in ms:
            try:
                params = family_params(p, m)
            except (OutOfFamilyRange, NoValidK):
                params = None
            _check_products(rep, p, m)
            _check_idempotents(rep, p, m, params)
            _check_padic(rep, p, m, params)
            _check_family(rep, p, m)
    vac = all(p * p % (1 << m) != (1 << m) - 1 for p in ps for m in ms)
    rep.row(
        "square_never_minus_one",
        None,
        None,
        vac,
        "odd squares are 1 mod 8, so p^2 = -1 mod 2^m has no solution",
    )
    rep.finding(
        "vacuous_minus_one_cases",
        None,
        None,
        {
            "p_list": ps,
            "m_list": ms,
            "note": "sub-cases requiring p^2 = -1 mod 2^m are never constructible",
        },
    )
    rep.errata.sort(key=lambda e: (e["kind"], e["p"] or 0, e["m"] or 0))
    rep.findings.sort(key=lambda f: (f["kind"], f["p"] or 0, f["m"] or 0))
    counts = {
        "checks": len(rep.checks),
        "passed": sum(1 for c in rep.checks if c["status"] == "pass"),
        "failed": sum(1 for c in rep.checks if c["status"] == "fail"),
        "skipped": sum(1 for c in rep.checks if c["status"] == "skip"),
        "errata": len(rep.errata),
        "findings": len(rep.findings),
    }
    counts["ok"] = counts["failed"] == 0
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"p_list": ps, "m_list": ms, "budget": budget},
        "checks": rep.checks,
        "errata": rep.errata,
        "findings": rep.findings,
        "summary": counts,
    }

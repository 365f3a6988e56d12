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
from .modring import family_params, quad_partition
from .polyring import idempotent_from_generator, mu_map, ring_mul
from .qr import (
    BLOCKS,
    _log2_size,
    _span_mul,
    _span_products,
    block_set,
    build_family,
    coefficient_system_holds,
    lifted_factors,
    product_identities_report,
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
    # Every count here is a cyclotomic number of order 2, read off the span
    # products: the zero sums are coordinate 0 of e1*e1, e2*e2 and e1*e2.
    k, eps = split_parameter(p)
    half = (p - 1) // 2
    e11, e22, e12, _ = _span_products(p)
    qq, nn, qn = e11[0], e22[0], e12[0]
    ok = (qq, nn, qn) == ((0, 0, half) if eps < 0 else (half, half, 0))
    rep.row("zero_sum_structure", p, None, ok, f"qq={qq} nn={nn} qn={qn}")
    if eps > 0:
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
    # #{j in S : i + j in Q} is the coefficient at i of e_{-S}*e1, and
    # likewise for N; the zeros are the rest of the (p - 1)/2 sums.  x -> -x
    # fixes Q and N when p = 1 mod 8 and swaps them when p = 7 mod 8.  A
    # span element takes coordinate 1 at every residue i, 2 at every nonresidue.
    times = {"q": (e11, e12), "n": (e12, e22)}  # e_S*e1 and e_S*e2
    negated = {"q": "n", "n": "q"} if eps < 0 else {"q": "q", "n": "n"}

    def counts(at: int, s: str) -> tuple[int, int, int]:
        by_q, by_n = (prod[at] for prod in times[negated[s]])
        return by_q, by_n, half - by_q - by_n

    ok = counts(1, "q") == same and counts(1, "n") == cross
    ok = ok and counts(2, "n") == swapped and counts(2, "q") == cross
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
            # h = 1 + e1 + e2, so a shift by c*h adds c to each coordinate
            direction = -1 if s.conjugate_sum == mult else 1
            ok = ok and tuple((t + direction * mult) % mod for t in s.triple) in span_set
        detail = f"{len(shiftable)} shiftable triples" if shiftable else "vacuous"
        rep.row("shift_closure", p, m, ok, detail)


def _check_padic(rep: _Report, p: int, m: int, params) -> None:
    mod = 1 << m
    expansions = {t: padic.expand(t, p, m) for t in padic.Target}
    ok = all(e.value == padic.direct_value(t, p, m) for t, e in expansions.items())
    rep.row("digit_expansion_oracle", p, m, ok, "digits agree with direct inverses")
    inv = padic.direct_value(padic.Target.INV_P, p, m)
    rep.row("inverse_product", p, m, p * inv % mod == 1, f"p * {inv} = 1")
    if params is None:
        return
    ok = all(
        padic.matches_template(e, padic.expected_template(t, params.sign))
        for t, e in expansions.items()
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


_ALL_BLOCKS = frozenset(BLOCKS)
_SHIFT_BLOCKS = frozenset({"u"})


def _meet(a, b):
    return None if a is None or b is None else a & b


def _join(a, b):
    return None if a is None or b is None else a | b


def _same(a, b) -> bool:
    """Equal block sets; a missing set (an element not 0/1 on a block) never is."""
    return a is not None and a == b


def _check_family(rep: _Report, p: int, m: int) -> None:
    # Every row is decided twice without building a code: route A reads
    # the block sets of the idempotents (R_p = R_u x R_q x R_n), route B
    # multiplies their span coordinates by the structure constants of
    # e1*e1, e2*e2 and e1*e2.  A row passes only if both hold; a triple
    # that is not 0 or 1 on every block has no block set.
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
    coords = {
        "q": fam.triple_q,
        "qprime": fam.triple_q_prime,
        "n": fam.triple_n,
        "nprime": fam.triple_n_prime,
    }
    mod = 1 << m
    blocks = {name: block_set(p, m, t) for name, t in coords.items()}

    def mul(s, t):
        return _span_mul(p, s, t, mod)

    def sum_idempotent(s, t):  # s + t - st generates the sum of the two ideals
        return tuple((x + y - z) % mod for x, y, z in zip(s, t, mul(s, t)))

    sizes = {name: _log2_size(s, p, m) for name, s in blocks.items()}
    if tag in ("C12", "C21"):
        small_q, small_n, big_q, big_n = "q", "n", "qprime", "nprime"
    else:
        small_q, small_n, big_q, big_n = "qprime", "nprime", "q", "n"
    rep.row(
        "family_sizes",
        p,
        m,
        sizes == {small_q: small, small_n: small, big_q: big, big_n: big},
        f"log2 sizes q={sizes['q']} q'={sizes['qprime']} "
        f"n={sizes['n']} n'={sizes['nprime']}",
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
                "computed_unprimed_log2": sizes["q"],
                "computed_primed_log2": sizes["qprime"],
            },
        )
    # h*h = p*h, so e_u = h/p is the idempotent of the all-ones ideal, and
    # the shift generator must be an odd multiple of it
    e_u = (pow(p, -1, mod),) * 3
    shift = fam.shift_triple
    unit = shift[0] * p % mod
    rep.row(
        "shift_ideal_size",
        p,
        m,
        block_set(p, m, e_u) == _SHIFT_BLOCKS
        and mul(e_u, e_u) == e_u
        and unit % 2 == 1
        and tuple(unit * c % mod for c in e_u) == shift,
        "ideal(h) scale",
    )

    def adds_shift(small_name: str, big_name: str) -> bool:
        return _same(_join(blocks[small_name], _SHIFT_BLOCKS), blocks[big_name]) and (
            sum_idempotent(coords[small_name], e_u) == coords[big_name]
        )

    rep.row(
        "big_is_small_plus_shift",
        p,
        m,
        adds_shift(small_q, big_q) and adds_shift(small_n, big_n),
        "primed pair adds the all-ones ideal",
    )
    big_meet = _meet(blocks[big_q], blocks[big_n])
    big_union = _join(blocks[big_q], blocks[big_n])
    prod = mul(coords[big_q], coords[big_n])
    esum = sum_idempotent(coords[big_q], coords[big_n])
    rep.row(
        "big_pair_intersection",
        p,
        m,
        big_meet == _SHIFT_BLOCKS and prod == e_u,
        "large pair meets in the all-ones ideal",
    )
    rep.row(
        "big_pair_sum",
        p,
        m,
        _log2_size(big_union, p, m) == m * p and esum == (1, 0, 0),
        "large pair spans the whole ring",
    )
    rep.row(
        "small_pair_intersection",
        p,
        m,
        _meet(blocks[small_q], blocks[small_n]) == frozenset()
        and mul(coords[small_q], coords[small_n]) == (0, 0, 0),
        "small pair meets trivially",
    )
    # x -> x^-1 swaps the residue and nonresidue blocks exactly when -1 is
    # a nonresidue, p = 7 mod 8; the dual of C_S is the complement of the
    # image of S, and the dual idempotent of e is 1 - e(x^-1).  Route A
    # keys the swap on p mod 8, route B on the class of p - 1.
    inverse = {"u": "u", "q": "n", "n": "q"} if eps < 0 else {b: b for b in BLOCKS}
    swaps = not quad_partition(p).is_residue(p - 1)

    def inverted(s):
        return None if s is None else frozenset(inverse[b] for b in s)

    def inverted_coords(t):
        return (t[0], t[2], t[1]) if swaps else t

    def dual_idempotent(t):
        a, b, c = inverted_coords(t)
        return (1 - a) % mod, -b % mod, -c % mod

    pairing = {}
    for name, s in blocks.items():
        dual_blocks = None if s is None else _ALL_BLOCKS - inverted(s)
        partners = (other for other, t in blocks.items() if _same(dual_blocks, t))
        pairing[name] = next(partners, None)
    if eps < 0:
        expected = {"q": "qprime", "qprime": "q", "n": "nprime", "nprime": "n"}
    else:
        expected = {"q": "nprime", "nprime": "q", "n": "qprime", "qprime": "n"}
    idempotent_ok = all(
        partner is not None and dual_idempotent(coords[name]) == coords[partner]
        for name, partner in pairing.items()
    )
    rep.row(
        "dual_pairing",
        p,
        m,
        pairing == expected and idempotent_ok,
        f"pairing {pairing}",
    )

    def self_orthogonal_blocks(name: str) -> bool:
        s = blocks[name]
        return s is not None and not s & inverted(s)

    def self_orthogonal_idempotent(name: str) -> bool:
        return mul(coords[name], inverted_coords(coords[name])) == (0, 0, 0)

    if eps < 0:
        rep.row(
            "small_self_orthogonal",
            p,
            m,
            all(
                self_orthogonal_blocks(name) and self_orthogonal_idempotent(name)
                for name in (small_q, small_n)
            ),
            "small codes sit inside their duals",
        )
    else:
        self_orth = {name: self_orthogonal_blocks(name) for name in coords}
        rep.row(
            "no_self_orthogonal_member",
            p,
            m,
            None not in blocks.values()
            and not any(self_orth.values())
            and not any(self_orthogonal_idempotent(name) for name in coords),
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
    # (e) = (f_q) exactly when e*f_q = f_q and e is 0 on the block q (e*cof_q = 0)
    lifted = lifted_factors(p, m)
    f_q = lifted.f_q
    cof_q = ring_mul(lifted.f_unit, lifted.f_n)
    e_big_q = fam.idem_q_prime if big_q == "qprime" else fam.idem_q
    rep.row(
        "lift_identification",
        p,
        m,
        _same(blocks[big_q], frozenset({"u", "n"}))
        and ring_mul(e_big_q, f_q) == f_q
        and ring_mul(e_big_q, cof_q).is_zero(),
        "large q-side code is the lifted residue factor ideal",
    )
    rep.row(
        "lift_idempotent",
        p,
        m,
        idempotent_from_generator(f_q) == e_big_q,
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
    rep.row(
        "intersection_idempotent_route",
        p,
        m,
        _same(block_set(p, m, prod), big_meet),
        "product idempotent generates the intersection",
    )
    rep.row(
        "sum_idempotent_route",
        p,
        m,
        _same(block_set(p, m, esum), big_union),
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

import itertools
import random
import tracemalloc
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qr2m import lincode
from qr2m.errors import BadPosition, BudgetExceeded, NoNonzeroWords, ShapeMismatch
from qr2m.lincode import (
    LinearCode,
    _lane_width,
    canonical_form,
    code_from_polynomial,
    dual,
    equivalent_under_mu,
    extend,
    intersect,
    is_even_like,
    is_self_orthogonal,
    min_weight,
    mu_image,
    orthogonal,
    puncture,
    sum_codes,
)
from qr2m.polyring import ZPoly
from qr2m.qr import lifted_residue_code


def brute_span(rows, n, m):
    """Every Z/2^m combination of the rows, as a set of tuples."""
    mod = 1 << m
    out = set()
    for coeffs in itertools.product(range(mod), repeat=len(rows)):
        word = [0] * n
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                word[i] = (word[i] + c * x) % mod
        out.add(tuple(word))
    return out


def random_rows(rng, n, m, count):
    return [[rng.randrange(1 << m) for _ in range(n)] for _ in range(count)]


SHAPES = [(9, 1), (8, 1), (6, 2), (5, 2), (4, 3), (3, 3)]


def test_canonical_form_spans_same_module():
    rng = random.Random(2026)
    for trial in range(40):
        n, m = SHAPES[trial % len(SHAPES)]
        rows = random_rows(rng, n, m, rng.randint(1, 3))
        code = canonical_form(rows, n, m)
        want = brute_span(rows, n, m)
        assert set(code.codewords()) == want
        assert code.cardinality() == len(want)


def test_canonical_form_is_invariant_under_row_operations():
    rng = random.Random(5)
    for trial in range(40):
        n, m = SHAPES[trial % len(SHAPES)]
        mod = 1 << m
        rows = random_rows(rng, n, m, rng.randint(1, 3))
        code = canonical_form(rows, n, m)
        # scale by units, add row multiples, shuffle, append a combination
        mixed = [list(r) for r in rows]
        for _ in range(6):
            i = rng.randrange(len(mixed))
            u = rng.choice([1, 3, 5, 7][: 1 << (m - 1)] or [1])
            mixed[i] = [x * u % mod for x in mixed[i]]
            j = rng.randrange(len(mixed))
            if i != j:
                c = rng.randrange(mod)
                mixed[i] = [(x + c * y) % mod for x, y in zip(mixed[i], mixed[j])]
        rng.shuffle(mixed)
        mixed.append([sum(r[i] for r in mixed) % mod for i in range(n)])
        assert canonical_form(mixed, n, m) == code


def test_canonical_rows_have_power_of_two_pivots():
    rng = random.Random(77)
    for trial in range(20):
        n, m = SHAPES[trial % len(SHAPES)]
        code = canonical_form(random_rows(rng, n, m, 3), n, m)
        leads = []
        for row in code.gen:
            lead = next(i for i in range(n) if row[i])
            leads.append(lead)
            assert row[lead] & (row[lead] - 1) == 0  # power of two
        assert leads == sorted(leads)
        assert len(set(leads)) == len(leads)


def test_contains_matches_span():
    rng = random.Random(9)
    for trial in range(30):
        n, m = SHAPES[trial % len(SHAPES)]
        rows = random_rows(rng, n, m, 2)
        code = canonical_form(rows, n, m)
        span = brute_span(rows, n, m)
        for _ in range(20):
            probe = tuple(rng.randrange(1 << m) for _ in range(n))
            assert code.contains(probe) == (probe in span)
        for word in list(span)[:10]:
            assert code.contains(word)


def test_dual_matches_brute_force():
    rng = random.Random(13)
    for trial in range(40):
        n, m = SHAPES[trial % len(SHAPES)]
        mod = 1 << m
        rows = random_rows(rng, n, m, rng.randint(1, 3))
        code = canonical_form(rows, n, m)
        d = dual(code)
        brute = {
            v
            for v in itertools.product(range(mod), repeat=n)
            if all(sum(a * b for a, b in zip(v, row)) % mod == 0 for row in code.gen)
        }
        assert set(d.codewords()) == brute


def test_dual_of_dual_and_size():
    rng = random.Random(17)
    for trial in range(25):
        n, m = SHAPES[trial % len(SHAPES)]
        code = canonical_form(random_rows(rng, n, m, 2), n, m)
        d = dual(code)
        assert d.log2_size == n * m - code.log2_size
        assert dual(d) == code


def test_intersect_and_sum_match_brute_force():
    rng = random.Random(21)
    for trial in range(30):
        n, m = SHAPES[trial % len(SHAPES)]
        rows_a = random_rows(rng, n, m, 2)
        rows_b = random_rows(rng, n, m, 2)
        a = canonical_form(rows_a, n, m)
        b = canonical_form(rows_b, n, m)
        span_a = brute_span(rows_a, n, m)
        span_b = brute_span(rows_b, n, m)
        assert set(intersect(a, b).codewords()) == span_a & span_b
        assert set(sum_codes(a, b).codewords()) == brute_span(rows_a + rows_b, n, m)


def test_min_weight_matches_brute_force():
    rng = random.Random(29)
    for trial in range(60):
        n, m = SHAPES[trial % len(SHAPES)]
        # rows scaled by 2^j give non-free codes, whose socle is not
        # 2^(m-1) times their residue code
        rows = []
        for row in random_rows(rng, n, m, rng.randint(1, 3)):
            j = rng.randrange(m)
            rows.append([(x << j) % (1 << m) for x in row])
        code = canonical_form(rows, n, m)
        span = brute_span(rows, n, m)
        nonzero = [w for w in span if any(w)]
        if not nonzero:
            with pytest.raises(NoNonzeroWords):
                min_weight(code)
            continue
        report = min_weight(code)
        weights = [sum(1 for x in w if x) for w in nonzero]
        assert report.enumerated
        assert report.min_weight == min(weights)
        assert report.min_weight_count == weights.count(min(weights))
        minimal = [w for w in nonzero if sum(1 for x in w if x) == report.min_weight]
        assert report.all_min_odd_like == all(not is_even_like(w, m) for w in minimal)


def test_min_weight_budget_behavior():
    code = code_from_polynomial(ZPoly.one(7, 3))  # full ring, 2^21 words
    # the socle 4 * (Z/8)^7 alone has 2^7 words
    with pytest.raises(BudgetExceeded):
        min_weight(code, budget=(1 << 7) - 1)
    report = min_weight(code, budget=1 << 10)
    assert report.enumerated
    assert report.min_weight == 1
    assert report.min_weight_count == 49  # 7 positions times 7 nonzero values
    assert report.all_min_odd_like is True


def test_min_weight_parity_of_all_ones_ideal():
    ones = ZPoly.from_support(range(7), 7, 4)
    report = min_weight(code_from_polynomial(ones))
    assert report.enumerated
    assert report.min_weight == 7
    assert report.min_weight_count == 15
    # 7 is odd, so no nonzero scalar multiple has coordinate sum 0 mod 16
    assert report.all_min_odd_like is True


def gray_walk_lightest(rows, n):
    """The least nonzero weight of the GF(2) span of rows (n-bit masks) and
    its words of that weight, met by a Gray code: step i XORs in row t,
    where t is the number of trailing zeros of i."""
    basis = [0] + list(rows)
    best = n + 1
    lightest = []
    word = 0
    for i in range(1, 1 << len(rows)):
        word ^= basis[(i & -i).bit_length()]
        w = word.bit_count()
        if w > best:
            continue
        if w < best:
            best = w
            lightest = []
        lightest.append(word)
    return best, lightest


@st.composite
def independent_masks(draw):
    """(n, rows): 1..19 independent n-bit masks, n <= 40.  Distinct lowest
    set bits make the rows independent; row additions then mix them."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, min(n, 19)))
    rows = [
        1 << pivot | draw(st.integers(0, (1 << (n - pivot - 1)) - 1)) << (pivot + 1)
        for pivot in draw(st.permutations(range(n)))[:k]
    ]
    pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    for t, s in draw(st.lists(pairs, max_size=2 * k)):
        if s != t:
            rows[t] ^= rows[s]
    return n, rows


@settings(max_examples=40, deadline=None)
@given(independent_masks())
@example((19, [1 << i for i in range(19)]))
@example((40, [0b1011 << i for i in range(18)]))
def test_bit_sliced_scan_matches_the_gray_walk(case):
    n, rows = case
    assert lincode._lightest_socle_words(rows, n) == gray_walk_lightest(rows, n)


def test_bit_sliced_scan_of_the_41_21_qr_socle():
    # the binary [41, 21, 9] QR code is its own socle at m = 1: 2^21 words
    # in 32 blocks of 2^16, with 410 words of weight 9 in 10 rotation orbits
    code = lifted_residue_code(41, 1)
    rows = [sum(x << i for i, x in enumerate(row)) for row in code.gen]
    assert len(rows) == 21
    best, lightest = lincode._lightest_socle_words(rows, 41)
    assert best == 9
    assert len(lightest) == len(set(lightest)) == 410
    assert all(w.bit_count() == 9 for w in lightest)
    full = (1 << 41) - 1
    assert {(w << 1 | w >> 40) & full for w in lightest} == set(lightest)


def test_bit_sliced_scan_at_large_length_keeps_its_columns_small():
    # 4099 columns of 2^14 bits would be 8 MB; L shrinks to 10, 512 KB
    n, k = 4099, 14
    size = lincode._slice_rows(k, n)
    assert size == 10 and n << size <= lincode._SLICE_BITS
    rng = random.Random(53)
    rows = [1 << i | rng.getrandbits(n - i - 1) << (i + 1) for i in range(k)]
    tracemalloc.start()
    try:
        scanned = lincode._lightest_socle_words(rows, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # about 1.4 MB; 13 MB with L = 14
    assert scanned == gray_walk_lightest(rows, n)


def cyclotomic(d):
    """Phi_d over Z, constant first: x^d - 1 divided by every Phi_e, e | d, e < d."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            den = cyclotomic(e)
            quot = [0] * (len(num) - len(den) + 1)
            for i in reversed(range(len(quot))):
                quot[i] = num[i + len(den) - 1]
                for j, x in enumerate(den):
                    num[i + j] -= quot[i] * x
            assert not any(num)
            num = quot
    return num


def as_zpoly(coeffs, n, m):
    """The integer polynomial coeffs, constant first and at most n of them,
    as an element of Z/2^m[x]/(x^n - 1)."""
    return ZPoly(n, m, tuple(c % (1 << m) for c in coeffs) + (0,) * (n - len(coeffs)))


def rotation_closed(code):
    words = set(code.codewords())
    return all(w[-1:] + w[:-1] in words for w in words)


def test_coordinate_code_rows_are_canonical():
    rng = random.Random(37)
    for m in (1, 2, 4, 8):
        for scale in (1, 1 << (m - 1)):
            for _ in range(25):
                n = rng.randint(1, 12)
                support = rng.sample(range(n), rng.randint(0, n))
                rows = [[scale if j == i else 0 for j in range(n)] for i in support]
                code = lincode._coordinate_code(n, m, support, scale)
                assert code == canonical_form(rows, n, m)


def test_min_weight_orbit_route_matches_brute_force():
    # Every ideal of Z/2^m[x]/(x^n - 1) here is a multiple of a product of
    # cyclotomic factors Phi_d, d | n, which divide x^n - 1 over Z; their
    # choice keeps each code at most 2^12 words.  Composite n gives
    # lightest supports with short rotation orbits, such as {0, 3, 6} at 9.
    rng = random.Random(41)
    lengths = (7, 9, 15, 21)
    phi = {d: cyclotomic(d) for n in lengths for d in range(1, n + 1) if n % d == 0}
    short_orbits = 0
    cases = [(9, 2, as_zpoly(phi[9], 9, 2))]
    for trial in range(48):
        n = lengths[trial % len(lengths)]
        m = rng.choice((1, 2, 3))
        divisors = [d for d in phi if n % d == 0]
        while True:
            chosen = [d for d in divisors if rng.random() < 0.5]
            rank = n - sum(len(phi[d]) - 1 for d in chosen)
            if 1 <= rank <= 12 // m:
                break
        g = ZPoly.one(n, m)
        for d in chosen:
            g = g * as_zpoly(phi[d], n, m)
        a = as_zpoly([rng.randrange(1 << m) for _ in range(n)], n, m)
        cases.append((n, m, (g * a).scale(1 << rng.randrange(m))))
    for n, m, g in cases:
        code = code_from_polynomial(g)
        assert lincode._is_cyclic(code)
        nonzero = [w for w in code.codewords() if any(w)]
        if not nonzero:
            with pytest.raises(NoNonzeroWords):
                min_weight(code)
            continue
        report = min_weight(code)
        weights = [sum(1 for x in w if x) for w in nonzero]
        minimal = [w for w in nonzero if sum(1 for x in w if x) == min(weights)]
        assert report.min_weight == min(weights)
        assert report.min_weight_count == len(minimal)
        assert report.all_min_odd_like == all(not is_even_like(w, m) for w in minimal)
        for w in minimal:
            support = {i for i, x in enumerate(w) if x}
            orbit = {frozenset((i + t) % n for i in support) for t in range(n)}
            short_orbits += len(orbit) < n
    assert short_orbits > 0
    # Phi_9 = 1 + x^3 + x^6: one orbit of three weight-3 supports, 3 words each
    assert min_weight(code_from_polynomial(cases[0][2])).as_dict() == {
        "min_weight": 3,
        "min_weight_count": 9,
        "all_min_odd_like": True,
        "enumerated": True,
    }


def test_cyclicity_matches_rotation_closure():
    rng = random.Random(47)
    seen = set()
    for trial in range(40):
        n, m = SHAPES[trial % len(SHAPES)]
        rows = random_rows(rng, n, m, rng.randint(1, 2))
        if trial % 2:
            code = canonical_form(rows, n, m)
        else:
            code = code_from_polynomial(ZPoly(n, m, tuple(rows[0])))
        closed = rotation_closed(code)
        assert lincode._is_cyclic(code) == closed
        seen.add(closed)
    assert seen == {True, False}


def test_self_orthogonality():
    # the ideal generated by 2 in Z/4 of length 3 pairs to 0 with itself
    doubled = canonical_form([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 3, 2)
    assert is_self_orthogonal(doubled)
    full = canonical_form([[1, 0, 0]], 3, 2)
    assert not is_self_orthogonal(full)


def test_extend_then_puncture_round_trip():
    rng = random.Random(31)
    for trial in range(20):
        n, m = SHAPES[trial % len(SHAPES)]
        code = canonical_form(random_rows(rng, n, m, 2), n, m)
        ext = extend(code)
        assert ext.n == n + 1
        for word in itertools.islice(ext.codewords(), 200):
            assert is_even_like(word, m)
        assert puncture(ext, n) == code


def test_puncture_position_check():
    code = canonical_form([[1, 0, 0]], 3, 2)
    with pytest.raises(BadPosition):
        puncture(code, 3)
    with pytest.raises(BadPosition):
        puncture(code, -1)


def test_equivalence_under_mu():
    f = ZPoly.from_support((1, 2, 4), 7, 2)
    g = ZPoly.from_support((3, 5, 6), 7, 2)
    a = code_from_polynomial(f)
    b = code_from_polynomial(g)
    u = equivalent_under_mu(a, b)
    assert u is not None and u in (3, 5, 6)
    assert equivalent_under_mu(a, a) == 1
    tiny = canonical_form([[2, 0, 0, 0, 0, 0, 0]], 7, 2)
    assert equivalent_under_mu(a, tiny) is None


def test_shape_checks():
    a = canonical_form([[1, 0]], 2, 2)
    b = canonical_form([[1, 0, 0]], 3, 2)
    with pytest.raises(ShapeMismatch):
        intersect(a, b)
    with pytest.raises(ShapeMismatch):
        sum_codes(a, b)
    with pytest.raises(ShapeMismatch):
        equivalent_under_mu(a, b)


def test_codewords_stop_at_the_budget_before_the_first_word():
    # Z/4 x Z/4 x 2Z/4 in length 4: 2^5 words
    code = canonical_form([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0]], 4, 2)
    assert code.log2_size == 5
    words = list(code.codewords())
    assert len(words) == len(set(words)) == 32
    # the budget admits 2^20 words and refuses 2^21
    assert lincode.DEFAULT_BUDGET == 1 << 20
    for n, fits in ((20, True), (21, False)):
        full = LinearCode(n, 1, tuple(1 << (_lane_width(n, 1) * i) for i in range(n)))
        assert full.log2_size == n
        if fits:
            assert next(full.codewords()) == (0,) * n
        else:
            with pytest.raises(
                BudgetExceeded, match="2\\^21 codewords exceed the budget of 1048576"
            ):
                full.codewords()


def test_zero_code():
    z = canonical_form([], 4, 2)
    assert z.is_zero
    assert z.log2_size == 0
    assert list(z.codewords()) == [(0, 0, 0, 0)]
    assert dual(z).log2_size == 8
    with pytest.raises(NoNonzeroWords):
        min_weight(z)


def test_mu_image_relabels_every_codeword():
    rng = random.Random(29)
    for n, m in ((5, 2), (7, 1), (3, 3)):
        code = canonical_form(random_rows(rng, n, m, 2), n, m)
        for u in range(1, n):
            relabeled = set()
            for word in code.codewords():
                out = [0] * n
                for i, x in enumerate(word):
                    out[u * i % n] = x
                relabeled.add(tuple(out))
            assert set(mu_image(code, u).codewords()) == relabeled


# Lane-stress shapes for the packed rows: m = 62 puts a lane of the kernel
# (2m + n.bit_length() + 1 bits) past 128 bits, m = 1 leaves three bits.
LANE_MS = (1, 2, 5, 8, 16, 62)


@st.composite
def generating_sets(draw, m=None, n=None, min_rows=0):
    """(rows, n, m): up to 5 rows with entries up to 2^m - 1, some rows
    scaled by a power of two so that the codes need not be free."""
    if m is None:
        m = draw(st.sampled_from(LANE_MS))
    if n is None:
        n = draw(st.integers(min_value=1, max_value=12))
    mod = 1 << m
    entry = st.integers(min_value=0, max_value=mod - 1)
    rows = []
    for _ in range(draw(st.integers(min_value=min_rows, max_value=5))):
        row = draw(st.lists(entry, min_size=n, max_size=n))
        j = draw(st.integers(min_value=0, max_value=m - 1))
        rows.append([(x << j) % mod for x in row])
    return rows, n, m


@settings(max_examples=80, deadline=None)
@given(generating_sets(min_rows=1), st.data())
def test_canonical_form_invariant_at_lane_widths(gen_set, data):
    rows, n, m = gen_set
    mod = 1 << m
    code = canonical_form(rows, n, m)
    # contains is checked against a list-based oracle in
    # test_membership_matches_list_oracle
    assert all(code.contains(r) for r in rows)
    coeff = st.integers(min_value=0, max_value=mod - 1)
    index = st.integers(min_value=0, max_value=len(rows) - 1)
    mixed = [list(r) for r in rows]
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        i, j = data.draw(index), data.draw(index)
        u = data.draw(coeff) | 1
        mixed[i] = [x * u % mod for x in mixed[i]]
        if i != j:
            c = data.draw(coeff)
            mixed[i] = [(x + c * y) % mod for x, y in zip(mixed[i], mixed[j])]
    mixed = data.draw(st.permutations(mixed))
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        cs = data.draw(st.lists(coeff, min_size=len(mixed), max_size=len(mixed)))
        mixed.append([sum(map(mul, cs, col)) % mod for col in zip(*mixed)])
    assert canonical_form(mixed, n, m) == code


@settings(max_examples=60, deadline=None)
@given(generating_sets())
def test_dual_of_dual_and_size_at_lane_widths(gen_set):
    rows, n, m = gen_set
    mod = 1 << m
    code = canonical_form(rows, n, m)
    d = dual(code)
    assert all(sum(map(mul, u, r)) % mod == 0 for u in d.gen for r in code.gen)
    assert code.log2_size + d.log2_size == m * n
    assert dual(d) == code


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_intersection_and_sum_sizes_at_lane_widths(data):
    rows_a, n, m = data.draw(generating_sets())
    rows_b, _, _ = data.draw(generating_sets(m=m, n=n))
    a = canonical_form(rows_a, n, m)
    b = canonical_form(rows_b, n, m)
    both = intersect(a, b)
    assert a.contains_code(both) and b.contains_code(both)
    assert both.log2_size + sum_codes(a, b).log2_size == a.log2_size + b.log2_size


@settings(max_examples=60, deadline=None)
@given(generating_sets(), st.data())
def test_orthogonality_and_size_decide_the_dual(gen_set, data):
    rows, n, m = gen_set
    a = canonical_form(rows, n, m)
    if data.draw(st.booleans()):
        b = dual(a)
    else:
        b = canonical_form(data.draw(generating_sets(m=m, n=n))[0], n, m)
    criterion = orthogonal(a, b) and a.log2_size + b.log2_size == m * n
    assert (b == dual(a)) == criterion


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_size_criteria_for_meets_agree_with_intersect(data):
    rows_a, n, m = data.draw(generating_sets())
    rows_b, _, _ = data.draw(generating_sets(m=m, n=n))
    rows_c, _, _ = data.draw(generating_sets(m=m, n=n))
    mod = 1 << m
    a = canonical_form(rows_a, n, m)
    b = canonical_form(rows_b, n, m)
    both = intersect(a, b)
    span_size = sum_codes(a, b).log2_size
    assert both.is_zero == (span_size == a.log2_size + b.log2_size)
    # the meet, a proper subcode of it, the two codes and an unrelated code
    halved = canonical_form([[2 * x % mod for x in r] for r in both.gen], n, m)
    for cand in (both, halved, a, b, canonical_form(rows_c, n, m)):
        criterion = (
            a.contains_code(cand)
            and b.contains_code(cand)
            and cand.log2_size == a.log2_size + b.log2_size - span_size
        )
        assert criterion == (cand == both)


@settings(max_examples=60, deadline=None)
@given(generating_sets(), st.booleans())
def test_self_orthogonality_matches_pairwise_products(gen_set, meet_dual):
    rows, n, m = gen_set
    mod = 1 << m
    code = canonical_form(rows, n, m)
    if meet_dual:
        # C meet its dual is always self-orthogonal
        code = intersect(code, dual(code))
    pairwise = all(
        sum(x * y for x, y in zip(r1, r2)) % mod == 0
        for r1 in code.gen
        for r2 in code.gen
    )
    assert is_self_orthogonal(code) == pairwise


def list_contains(code, vec):
    """Membership by list-based reduction against the canonical rows."""
    mod = 1 << code.m
    work = [c % mod for c in vec]
    for row in code.gen:
        lead = next(c for c in range(code.n) if row[c])
        if work[lead]:
            v = (row[lead] & -row[lead]).bit_length() - 1
            if (work[lead] & -work[lead]).bit_length() - 1 < v:
                return False
            f = work[lead] >> v
            work = [(a - f * b) % mod for a, b in zip(work, row)]
    return not any(work)


@settings(max_examples=80, deadline=None)
@given(generating_sets(), st.data())
def test_membership_matches_list_oracle(gen_set, data):
    rows, n, m = gen_set
    mod = 1 << m
    code = canonical_form(rows, n, m)
    coeff = st.integers(min_value=0, max_value=mod - 1)
    vector = st.lists(coeff, min_size=n, max_size=n)
    probes = [data.draw(vector) for _ in range(4)]
    for _ in range(4):
        cs = data.draw(st.lists(coeff, min_size=len(rows), max_size=len(rows)))
        member = [sum(map(mul, cs, col)) % mod for col in zip(*rows)] or [0] * n
        assert code.contains(member) and list_contains(code, member)
        # one entry moved by a power of two: often just outside the code
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        j = data.draw(st.integers(min_value=0, max_value=m - 1))
        member[i] = (member[i] + (1 << j)) % mod
        probes.append(member)
    for probe in probes:
        assert code.contains(probe) == list_contains(code, probe)
    for sub in (probes[:2], probes[4:], probes):
        other = canonical_form(sub, n, m)
        oracle = all(list_contains(code, r) for r in other.gen)
        assert code.contains_code(other) == oracle


@settings(max_examples=60, deadline=None)
@given(generating_sets(min_rows=1), st.data())
def test_packed_rows_are_range_checked(gen_set, data):
    rows, n, m = gen_set
    code = canonical_form(rows, n, m)
    assert LinearCode(n, m, code.rows) == code
    width = _lane_width(n, m)
    row = code.rows[0] if code.rows else 0
    lane = data.draw(st.integers(min_value=0, max_value=n - 1))
    high = data.draw(st.integers(min_value=m, max_value=width - 1))
    for bad in (
        row | (1 << (width * lane + high)),  # an entry of 2^m or more
        row | (1 << (width * n)),  # a bit above lane n - 1
        -1 - row,  # a negative int
    ):
        with pytest.raises(ValueError):
            LinearCode(n, m, (bad,) + code.rows[1:])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_odometer_and_tuple_view_at_wide_lanes(data):
    m = data.draw(st.sampled_from((8, 16, 62)))
    n = data.draw(st.integers(min_value=1, max_value=6))
    k = data.draw(st.integers(min_value=1, max_value=3))
    # k rows of additive order at most 2^s span at most 2^(k*s) <= 2^10 words
    s = data.draw(st.integers(min_value=1, max_value=min(m, 10 // k)))
    entry = st.integers(min_value=0, max_value=(1 << m) - 1)
    vector = st.lists(entry, min_size=n, max_size=n)
    rows = [[(x << (m - s)) % (1 << m) for x in data.draw(vector)] for _ in range(k)]
    code = canonical_form(rows, n, m)
    assert code.log2_size <= 10
    span = set()
    for cs in itertools.product(range(1 << s), repeat=k):
        span.add(tuple(sum(map(mul, cs, col)) % (1 << m) for col in zip(*rows)))
    words = list(code.codewords())
    assert len(words) == len(set(words)) == code.cardinality()
    assert set(words) == span
    assert canonical_form(code.gen, n, m) == code
    d = dual(code)
    assert canonical_form(d.gen, n, m) == d


@pytest.mark.parametrize("m", (1, 8, 62))
@pytest.mark.parametrize("n", (7, 15, 31))
def test_pairings_near_the_lane_width(n, m):
    # with t = 2^m - 1 each pairing of u with a row of b sums to about
    # (n - 3) * 4^m before it vanishes mod 2^m: at n = 15 and 31, lanes
    # two bits narrower than _lane_width(n, m) carry into the next one
    mod = 1 << m
    t = mod - 1
    y = -(n - 2) % mod
    u = [1, 1] + [t] * (n - 3) + [1]
    rows = [[1, 0] + [t] * (n - 3) + [y], [0, 1] + [t] * (n - 3) + [y]]
    a = canonical_form([u], n, m)
    b = canonical_form(rows, n, m)
    assert b.gen == tuple(map(tuple, rows))
    assert orthogonal(a, b) and orthogonal(b, a)
    assert dual(a).contains_code(b) and dual(b).contains_code(a)
    assert intersect(b, dual(a)) == b


@st.composite
def cyclic_generators(draw):
    """(n, m, g): g scaled by 2^j, 0 <= j <= m, so the ideal need not be free."""
    m = draw(st.sampled_from((1, 2, 5, 8, 62)))
    n = draw(st.integers(min_value=1, max_value=40))
    mod = 1 << m
    coeffs = draw(st.lists(st.integers(0, mod - 1), min_size=n, max_size=n))
    j = draw(st.integers(min_value=0, max_value=m))
    return n, m, tuple((c << j) % mod for c in coeffs)


@settings(max_examples=80, deadline=None)
@given(cyclic_generators())
@example((1, 5, (3,)))
@example((1, 1, (0,)))
@example((9, 8, (0,) * 9))
@example((40, 62, (0,) * 39 + ((1 << 62) - 1,)))
def test_code_from_polynomial_matches_explicit_rotations(gen):
    n, m, g = gen
    # rotation i is x^i * g: coefficient t moves to (t + i) mod n
    rotations = [[g[(t - i) % n] for t in range(n)] for i in range(n)]
    want = canonical_form(rotations, n, m)
    assert code_from_polynomial(ZPoly(n, m, g)) == want


def test_rotations_reach_howell_packed_in_n_lanes(monkeypatch):
    # _howell wants every entry of every row below 2^m in lanes 0..n-1
    seen = []
    howell = lincode._howell

    def spy(rows, n, m, width):
        rows = list(rows)
        seen.append((rows, width))
        return howell(rows, n, m, width)

    monkeypatch.setattr(lincode, "_howell", spy)
    for n, m in ((1, 3), (7, 4), (23, 62)):
        g = ZPoly(n, m, tuple((5 * t + 3) % (1 << m) for t in range(n)))
        code_from_polynomial(g)
        rows, width = seen.pop()
        assert len(rows) == n
        low = ((1 << m) - 1) * sum(1 << (width * t) for t in range(n))
        assert all(row & ~low == 0 for row in rows)

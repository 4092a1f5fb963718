"""Acceptance suite: exhaustive verification of every advertised guarantee.

Each test prints one [PASS]/[FAIL] line (run with `pytest -s` to see them
all).

The palindrome-free rate table is checked against the values as published.
Six of its 36 entries contradict exact computation: (q, n) = (2, 8), (3, 256),
(4, 256) and the asymptotic entries for q = 2, 3, 5. They are kept as
printed and listed in an errata table with their exact values rounded to
3 decimals. Each correction is re-derived inside the test by a route that
shares no code with cpf_rate / cpf_lambda (brute-force enumeration, the
float closed form, or Richardson extrapolation of exact integer counts), and
the published value must still be a misprint. The errata and their routes
are recorded in docs/decisions.md.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from dupcodes import channel
from dupcodes.bounds import (
    deletion_histogram,
    exact_optimum,
    gsp_bound_tandem,
    redundancy_table,
    rll_weight_count,
    transversal_check,
)
from dupcodes.channel import (
    error_ball,
    error_sphere,
    pal_del,
    pal_dup,
    palindromic_duplicate,
    tandem_del,
    tandem_dup,
    tandem_duplicate,
)
from dupcodes.codes import (
    PalindromeFreeCode,
    PalindromicL2Code,
    TandemVTCode,
    c1_best_params,
    c1_decode,
    c1_size_lower_bound,
    c2_decode,
    cpf_count_closed,
    cpf_count_recursive,
    cpf_lambda,
    cpf_rate,
)
from dupcodes.formulas import (
    pal_del_sphere_size_l1,
    pal_del_sphere_size_l2_binary,
    pal_del_sphere_upper_bound,
    pal_dup_sphere_size_l1,
    pal_dup_sphere_size_l2,
    pal_dup_sphere_upper_bound,
    tandem_del_sphere_size,
    tandem_dup_sphere_size,
)
from dupcodes.words import Word, parse_word, run_profile
from dupcodes.wordspace import all_words

from conftest import (
    codebook_words,
    disjoint_ball_violation,
    max_zero_run,
    oracle_decode,
    reference_member,
    run_checksum,
    words_of,
)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}", flush=True)


# ---------------------------------------------------------------------------
# 1. sphere formulas are exact, bounds are valid
# ---------------------------------------------------------------------------


def test_criterion_01_sphere_formula_exactness():
    mismatches = []
    for q, max_n in ((2, 10), (3, 7)):
        for n in range(1, max_n + 1):
            for x in words_of(n, q):
                for ell in (1, 2, 3):
                    if n >= ell:
                        for t in (1, 2):
                            got = tandem_dup_sphere_size(x, ell, t)
                            ref = len(error_sphere(x, tandem_dup(ell), t))
                            if got != ref:
                                mismatches.append(("tandem-dup", x, ell, t, got, ref))
                            got = tandem_del_sphere_size(x, ell, t)
                            ref = len(error_sphere(x, tandem_del(ell), t))
                            if got != ref:
                                mismatches.append(("tandem-del", x, ell, t, got, ref))
                if pal_dup_sphere_size_l1(x) != len(error_sphere(x, pal_dup(1), 1)):
                    mismatches.append(("pal-dup-l1", x))
                if n >= 2 and pal_dup_sphere_size_l2(x) != len(error_sphere(x, pal_dup(2), 1)):
                    mismatches.append(("pal-dup-l2", x))
                if pal_del_sphere_size_l1(x) != len(error_sphere(x, pal_del(1), 1)):
                    mismatches.append(("pal-del-l1", x))
                if q == 2 and pal_del_sphere_size_l2_binary(x) != len(
                    error_sphere(x, pal_del(2), 1)
                ):
                    mismatches.append(("pal-del-l2", x))
                for ell in (2, 3, 4):
                    if n >= ell and pal_dup_sphere_upper_bound(x, ell) < len(
                        error_sphere(x, pal_dup(ell), 1)
                    ):
                        mismatches.append(("pal-dup-bound", x, ell))
                    if pal_del_sphere_upper_bound(x, ell) < len(error_sphere(x, pal_del(ell), 1)):
                        mismatches.append(("pal-del-bound", x, ell))
    _report("criterion 1: sphere formulas exact, bounds valid", not mismatches)
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# 2. tandem duplication <=> tandem deletion ball intersection
# ---------------------------------------------------------------------------


def test_criterion_02_tandem_dup_del_equivalence():
    violations = []
    for ell in (1, 2):
        for n in range(1, 9):
            words = list(words_of(n, 2))
            dup_balls = {x: error_ball(x, tandem_dup(ell), 1) for x in words}
            del_balls = {x: error_ball(x, tandem_del(ell), 1) for x in words}
            for x, y in combinations(words, 2):
                if bool(dup_balls[x] & dup_balls[y]) != bool(del_balls[x] & del_balls[y]):
                    violations.append((n, ell, x, y))
    _report("criterion 2: tandem dup/del ball-intersection equivalence (n<=8)", not violations)
    assert not violations, violations[:5]


# ---------------------------------------------------------------------------
# 3. the palindromic counterexample pairs reproduce exactly
# ---------------------------------------------------------------------------


def test_criterion_03_counterexample_sets():
    c1 = parse_word("010101", 2)
    c2 = parse_word("010011", 2)
    ok = error_ball(c1, pal_del(2), 1) == {c1}
    ok &= error_ball(c2, pal_del(2), 1) == {c2, parse_word("0101", 2)}
    inter = error_ball(c1, pal_dup(2), 1) & error_ball(c2, pal_dup(2), 1)
    ok &= inter == {parse_word("01001101", 2)}
    d1 = parse_word("011010", 2)
    d2 = parse_word("011110", 2)
    ok &= not (error_ball(d1, pal_dup(2), 1) & error_ball(d2, pal_dup(2), 1))
    ok &= error_ball(d1, pal_del(2), 1) & error_ball(d2, pal_del(2), 1) == {parse_word("0110", 2)}
    _report("criterion 3: palindromic counterexample sets reproduce", ok)
    assert ok


# ---------------------------------------------------------------------------
# 4. counting formulas match exhaustive oracles
# ---------------------------------------------------------------------------


def test_criterion_04_counting_formulas():
    bad = []
    for q in (2, 3):
        for n in range(0, 11):
            # tally (max zero run, weight) once, then read off every A(n, l', w)
            tally: dict[tuple[int, int], int] = {}
            for x in words_of(n, q):
                key = (max_zero_run(x.symbols), sum(1 for s in x.symbols if s != 0))
                tally[key] = tally.get(key, 0) + 1
            for ell_max in range(0, n + 1):
                for w in range(0, n + 1):
                    oracle = sum(
                        cnt for (mz, wt), cnt in tally.items() if mz <= ell_max and wt == w
                    )
                    if rll_weight_count(n, ell_max, w, q) != oracle:
                        bad.append(("A", q, n, ell_max, w))
            if n >= 1:
                for ell in (1, 2, 3):
                    hist = deletion_histogram(n, ell, q)
                    if sum(hist.values()) != q**n:
                        bad.append(("hist-total", q, n, ell))
                    brute: dict[int, int] = {}
                    for x in words_of(n, q):
                        i = len(error_sphere(x, tandem_del(ell), 1))
                        brute[i] = brute.get(i, 0) + 1
                    if hist != brute:
                        bad.append(("hist", q, n, ell))
    _report("criterion 4: RLL counts and deletion histograms match oracles", not bad)
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# 5. sphere-packing bound soundness and transversal feasibility
# ---------------------------------------------------------------------------


def test_criterion_05_gsp_soundness_and_transversal():
    bad = []
    for ell in (1, 2):
        for n in range(ell, 10):
            bound = gsp_bound_tandem(n, ell, 2)
            best = exact_optimum(n, ell, 1, 2, channel.TANDEM_DUP)
            if bound < best:
                bad.append(("unsound", n, ell, bound, best))
            ok, deficits = transversal_check(n, ell, 1, 2)
            if not ok:
                bad.append(("deficit", n, ell, deficits[:3]))
    _report("criterion 5: bound >= exact optimum, transversal feasible (n<=9)", not bad)
    assert not bad, bad


# ---------------------------------------------------------------------------
# 6. Construction 1 corrects exhaustively and meets its cardinality bound
# ---------------------------------------------------------------------------


def test_criterion_06_construction1():
    bad = []
    for ell in (1, 2):
        for n in range(ell, 11):
            a, cardinality = c1_best_params(n, ell, 2)
            code = TandemVTCode(n, 2, ell, a)
            book = codebook_words(code)
            assert len(book) == cardinality
            if cardinality < c1_size_lower_bound(n, ell, 2):
                bad.append(("cardinality", n, ell))
            if disjoint_ball_violation(book, tandem_dup(ell), 1) is not None:
                bad.append(("balls", n, ell))
                continue
            member = reference_member(code)
            for c in book:
                if c1_decode(c, code) != c:
                    bad.append(("identity", n, ell, c))
                for p in range(n - ell + 1):
                    y = tandem_duplicate(c, ell, p)
                    got = c1_decode(y, code)
                    ref = oracle_decode(y, n, tandem_dup(ell), member)
                    if got != c or ref != c:
                        bad.append(("decode", n, ell, c, p, got, ref))
    _report("criterion 6: VT tandem construction (n<=10, l in {1,2})", not bad)
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# 7. Construction 2 corrects exhaustively for every parameter pair
# ---------------------------------------------------------------------------


def test_criterion_07_construction2():
    bad = []
    for n in range(6, 13):
        modulus = 2 * n + 1
        groups: dict[tuple[int, int], list[Word]] = {}
        for x in words_of(n, 2):
            runs = run_profile(x)
            key = (runs.count(1) % 5, run_checksum(runs) % modulus)
            groups.setdefault(key, []).append(x)
        seen_pairs = 0
        best = 0
        for a in range(5):
            for b in range(modulus):
                seen_pairs += 1
                book = groups.get((a, b), [])
                best = max(best, len(book))
                if not book:
                    continue
                code = PalindromicL2Code(n, a, b)
                if disjoint_ball_violation(book, pal_dup(2), 1) is not None:
                    bad.append(("balls", n, a, b))
                    continue
                member = reference_member(code)
                for c in book:
                    if c2_decode(c, code) != c:
                        bad.append(("identity", n, a, b, c))
                    for p in range(n - 1):
                        y = palindromic_duplicate(c, 2, p)
                        got = c2_decode(y, code)
                        ref = oracle_decode(y, n, pal_dup(2), member)
                        if got != c or ref != c:
                            bad.append(("decode", n, a, b, c, p))
        assert seen_pairs == 5 * modulus
        need = math.ceil(Fraction(2**n, 5 * modulus))
        if best < need:
            bad.append(("cardinality", n, best, need))
        if n == 8 and best < 4:
            bad.append(("cardinality-n8", best))

    # the worked decoding example: case 4 (length-1 runs up by 2), run j = 3
    code = PalindromicL2Code(8, 4, 13)
    x = parse_word("01011001", 2)
    y = parse_word("0101101001", 2)
    lengths = run_profile(y)
    delta = (lengths.count(1) - code.a) % 5
    if delta != 2:
        bad.append(("example-case", delta))
    drift = (run_checksum(lengths) - code.b) % 17
    suffix = [0] * (len(lengths) + 2)
    for k in range(len(lengths), 0, -1):
        suffix[k] = suffix[k + 1] + lengths[k - 1]
    if (2 * 3 + 5 + 2 * suffix[3 + 4]) % 17 != drift:
        bad.append(("example-j3-checksum",))
    if c2_decode(y, code) != x:
        bad.append(("example-decode", c2_decode(y, code)))
    _report("criterion 7: palindromic l=2 construction (n in 6..12, all (a,b))", not bad)
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# 8. Construction 3: counting, closed form, decoder
# ---------------------------------------------------------------------------


def test_criterion_08_construction3_counting_and_decoder():
    bad = []
    for q, max_n in ((2, 14), (3, 8)):
        for n in range(0, max_n + 1):
            exhaustive = int(PalindromeFreeCode(n, q).member_rows(all_words(n, q)).sum())
            if cpf_count_recursive(n, q) != exhaustive:
                bad.append(("count", q, n))
    for q in (2, 3, 4, 5):
        for n in range(3, 21):
            rec = cpf_count_recursive(n, q)
            if abs(cpf_count_closed(n, q) - rec) > 1e-6 * max(1, rec):
                bad.append(("closed", q, n))
    for q in (2, 3):
        for n in range(1, 10):
            code = PalindromeFreeCode(n, q)
            book = codebook_words(code)
            for ell in range(2, n + 1):
                if disjoint_ball_violation(book, pal_dup(ell), 1) is not None:
                    bad.append(("balls", q, n, ell))
                    continue
                # the received words on the Word route, decoded in one call per (q, n, ell)
                sent = [(c, p) for c in book for p in range(n - ell + 1)]
                received = np.array([palindromic_duplicate(c, ell, p).symbols for c, p in sent], dtype=np.int8)
                for (c, p), got in zip(sent, code.decode_rows(received).tolist()):
                    if tuple(got) != c.symbols:
                        bad.append(("decode", q, n, ell, c, p))
    _report("criterion 8: palindrome-free counting and decoder (n<=9)", not bad)
    assert not bad, bad[:5]


# published rate table, as printed; tolerance: agreement to 3 printed decimals
_PUBLISHED_RATES = {
    2: {2: 1.0, 4: 0.896, 8: 0.792, 16: 0.639, 32: 0.595, 64: 0.573, 128: 0.562, 256: 0.557, None: 0.552},
    3: {2: 1.0, 4: 0.973, 8: 0.932, 16: 0.911, 32: 0.901, 64: 0.895, 128: 0.893, 256: 0.892, None: 0.892},
    4: {2: 1.0, 4: 0.988, 8: 0.971, 16: 0.962, 32: 0.957, 64: 0.955, 128: 0.954, 256: 0.954, None: 0.953},
    5: {2: 1.0, 4: 0.994, 8: 0.984, 16: 0.979, 32: 0.977, 64: 0.976, 128: 0.975, 256: 0.975, None: 0.975},
}

# entries of the published table that exact computation contradicts:
# (q, n) -> (published, exact value rounded to 3 decimals)
_RATE_ERRATA = {
    (2, 8): (0.792, 0.726),
    (2, None): (0.552, 0.551),
    (3, 256): (0.892, 0.891),
    (3, None): (0.892, 0.890),
    (4, 256): (0.954, 0.953),
    (5, None): (0.975, 0.974),
}
_LEDGER = "docs/decisions.md"


def _has_length4_palindrome(s) -> bool:
    """True iff s has an a b b a window (a = b allowed); written apart from PalindromeFreeCode.member."""
    return any(s[p : p + 4] == s[p : p + 4][::-1] for p in range(len(s) - 3))


def _richardson_log_lambda(q: int) -> float:
    """log_q lambda(q) from exact integer counts, without the cubic.

    The count is c * lambda^n + O(rho^n) with rho < lambda, so
    rate(n) = log_q lambda + log_q(c) / n + O((rho / lambda)^n), and
    2 rate(256) - rate(128) cancels the 1/n term.
    """
    rate = lambda n: math.log(cpf_count_recursive(n, q), q) / n
    return 2 * rate(256) - rate(128)


def _independent_rate(q: int, n) -> float:
    """Exact rate of an errata entry by a route that shares no code with cpf_rate:
    Richardson extrapolation for n = inf, brute-force enumeration while q^n is
    at most 2^16, and the float closed form (cpf_count_closed) beyond."""
    if n is None:
        return _richardson_log_lambda(q)
    if q**n > 2**16:
        return math.log(cpf_count_closed(n, q), q) / n
    count = sum(1 for x in words_of(n, q) if not _has_length4_palindrome(x.symbols))
    return math.log(count, q) / n


def test_criterion_08_rates_table_published_values():
    table = {(q, n): published for q, row in _PUBLISHED_RATES.items() for n, published in row.items()}
    assert _RATE_ERRATA.keys() <= table.keys()
    bad = []
    confirmed = 0
    for (q, n), published in table.items():
        label = n if n is not None else "inf"
        computed = cpf_rate(q, n)
        if (q, n) not in _RATE_ERRATA:
            confirmed += 1
            if abs(computed - published) >= 5e-4:
                bad.append(("published", q, label, published, round(computed, 6)))
            continue
        printed, corrected = _RATE_ERRATA[(q, n)]
        exact = _independent_rate(q, n)
        if printed != published:
            bad.append(("errata transcription", q, label, printed, published))
        if abs(computed - exact) > 1e-9:
            bad.append(("independent route", q, label, exact, computed))
        if abs(computed - corrected) >= 5e-4:
            bad.append(("corrected", q, label, corrected, round(computed, 6)))
        if abs(exact - published) < 5e-4:
            bad.append(("not a misprint", q, label, published, round(exact, 6)))
    if confirmed != 30:
        bad.append(("entries held to the published table", confirmed, 30))
    ok = not bad
    _report(
        "criterion 8: rate table: 30 published entries, 6 errata by independent routes",
        ok,
        "" if ok else f"{len(bad)} problems",
    )
    assert ok, (
        "rate table check failed at (check, q, n, expected, got): "
        f"{bad}. Published entries must agree to 3 decimals; each erratum's exact value is "
        "re-derived here (brute-force count for (2, 8), float closed form for n = 256, "
        f"Richardson extrapolation of exact counts for n = inf). Errata are listed in {_LEDGER}."
    )


# ---------------------------------------------------------------------------
# 9. the dominant-root closed form
# ---------------------------------------------------------------------------


def test_criterion_09_lambda_cardano_and_limit():
    import numpy as np

    bad = []
    for q in (2, 3, 4, 5, 7, 10):
        roots = np.roots([-1.0, q - 1.0, q - 2.0, q - 1.0])
        largest = max(r.real for r in roots if abs(r.imag) < 1e-9)
        if abs(cpf_lambda(q) - largest) > 1e-9:
            bad.append((q, cpf_lambda(q), largest))
    big = 10**6
    if abs(cpf_lambda(big) / big - 1.0) > 1e-3:
        bad.append(("limit", cpf_lambda(big) / big))
    _report("criterion 9: Cardano root matches numeric root; lambda(q)/q -> 1", not bad)
    assert not bad, bad


def test_criterion_09_lambda_published_log_values():
    # the published 0.552 / 0.892 are recorded errata, corrected to 0.551 / 0.890
    log2_lam2 = math.log2(cpf_lambda(2))
    log3_lam3 = math.log(cpf_lambda(3), 3)
    bad = []
    for q, computed in ((2, log2_lam2), (3, log3_lam3)):
        published, corrected = _RATE_ERRATA[(q, None)]
        exact = _richardson_log_lambda(q)
        if abs(computed - exact) > 1e-9:
            bad.append(("richardson", q, exact, computed))
        if abs(computed - corrected) >= 5e-4:
            bad.append(("corrected", q, corrected, computed))
        if abs(exact - published) < 5e-4:
            bad.append(("not a misprint", q, published, exact))
    ok = not bad
    _report(
        "criterion 9: log-rates 0.551 / 0.890 (published 0.552 / 0.892 are errata)",
        ok,
        f"computed {log2_lam2:.6f} / {log3_lam3:.6f}",
    )
    assert ok, (
        f"log2(lambda(2)) = {log2_lam2:.6f} and log3(lambda(3)) = {log3_lam3:.6f} disagree with "
        f"the Richardson extrapolation of exact counts or the corrected values: {bad}. "
        f"Errata are listed in {_LEDGER}."
    )


# ---------------------------------------------------------------------------
# 10. redundancy table consistency
# ---------------------------------------------------------------------------


def test_criterion_10_redundancy_table():
    bad = []
    for ell in (1, 2):
        n_values = list(range(max(2, ell), 11))
        rows = redundancy_table(n_values, ell, 2)
        for row in rows:
            if row.c2_redundancy != math.log2(row.n) + math.log2(10):
                bad.append(("c2", ell, row.n))
            if row.burst_redundancy != math.log2(row.n) + math.log2(math.log2(row.n)) + 1:
                bad.append(("burst", ell, row.n))
            if row.redundancy_lb_bits < 0:
                bad.append(("clamp", ell, row.n))
            if row.redundancy_lb_bits > row.c1_redundancy + 1e-12:
                bad.append(("consistency", ell, row.n, row.redundancy_lb_bits, row.c1_redundancy))
    _report("criterion 10: redundancy table columns and bound consistency", not bad)
    assert not bad, bad

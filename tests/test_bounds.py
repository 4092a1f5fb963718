import math
from fractions import Fraction

import pytest

from dupcodes import channel, codes
from dupcodes.bounds import (
    bound_report,
    deletion_histogram,
    exact_optimum,
    gsp_bound_tandem,
    irreducible_count,
    redundancy_table,
    rll_weight_count,
    transversal_check,
)
from dupcodes.channel import error_sphere, tandem_del
from dupcodes.wordspace import all_words

from conftest import balls_intersect, rll_weight_oracle, words_of


def test_rll_weight_count_examples():
    assert rll_weight_count(1, 1, 0, 2) == 1
    assert rll_weight_count(3, 1, 1, 2) == 1  # only (0,1,0)
    assert rll_weight_count(3, 1, 2, 2) == 3  # (0,1,1),(1,0,1),(1,1,0)


def test_rll_weight_count_against_oracle():
    for q in (2, 3):
        for n in range(0, 8):
            for ell_max in range(0, 4):
                for w in range(0, n + 1):
                    assert rll_weight_count(n, ell_max, w, q) == rll_weight_oracle(
                        n, ell_max, w, q
                    ), (q, n, ell_max, w)


def test_irreducible_count_examples():
    assert irreducible_count(2, 1, 2) == 2  # (01),(10)
    assert irreducible_count(3, 1, 2) == 2  # (010),(101)
    assert irreducible_count(3, 2, 2) == 8  # no length-2 tandem fits
    assert irreducible_count(1, 2, 2) == 2


def test_deletion_histogram_examples():
    assert deletion_histogram(2, 1, 2) == {0: 2, 1: 2}
    assert deletion_histogram(3, 2, 2) == {0: 8}
    hist = deletion_histogram(6, 2, 2)
    brute = {}
    for x in words_of(6, 2):
        i = len(error_sphere(x, tandem_del(2), 1))
        brute[i] = brute.get(i, 0) + 1
    assert hist == brute


def test_histogram_totality_and_oracle():
    for q in (2, 3):
        for ell in (1, 2, 3):
            for n in range(1, 8):
                hist = deletion_histogram(n, ell, q)
                assert sum(hist.values()) == q**n
                brute = {}
                for x in words_of(n, q):
                    i = len(error_sphere(x, tandem_del(ell), 1))
                    brute[i] = brute.get(i, 0) + 1
                assert hist == brute, (q, ell, n)


def test_gsp_bound_examples():
    # total transversal weight: irreducibles at lengths 2 and 1 (2 each),
    # no reducible length-1 words, so 4 (the brute-force transversal sum)
    assert gsp_bound_tandem(2, 1, 2) == Fraction(4)
    assert gsp_bound_tandem(2, 2, 2) == Fraction(4)  # q^ell at n = ell
    assert gsp_bound_tandem(3, 3, 2) == Fraction(8)
    assert gsp_bound_tandem(6, 2, 2) >= exact_optimum(6, 2, 1, 2, channel.TANDEM_DUP)


def test_gsp_bound_equals_brute_transversal_sum():
    # independent route: sum the explicit transversal weights over all vertices
    for n, ell, q in [(2, 1, 2), (4, 1, 2), (5, 1, 2), (4, 2, 2), (6, 2, 2), (4, 1, 3), (2, 2, 2), (3, 3, 2)]:
        kind = tandem_del(ell)
        vertices = set()
        for x in words_of(n, q):
            vertices.add(x)
            vertices |= error_sphere(x, kind, 1)
        total = Fraction(0)
        for v in vertices:
            size = len(error_sphere(v, kind, 1))
            if size == 0:
                total += 1
            elif len(v) == n - ell:
                total += Fraction(1, size)
        assert gsp_bound_tandem(n, ell, q) == total, (n, ell, q)


def test_gsp_bound_equals_the_bound_report_row():
    """The bound alone and the bound of the whole `bound` row agree."""
    for q in (2, 3, 4):
        for ell in (1, 2, 3):
            for n in range(ell, 25 if q == 2 else 13):
                assert gsp_bound_tandem(n, ell, q) == bound_report(n, ell, q).bound, (n, ell, q)


def test_gsp_bound_counts_no_c1_residues(monkeypatch):
    """The bound reads the gap table only: the c1 residue count that a
    `bound` row carries is never made."""

    def no_count(*_):
        raise AssertionError("gsp_bound_tandem counted c1 residues")

    expected = bound_report(12, 2, 2).bound
    monkeypatch.setattr(codes, "_c1_counts", no_count)
    assert gsp_bound_tandem(12, 2, 2) == expected
    with pytest.raises(AssertionError, match="counted c1 residues"):
        bound_report(12, 2, 2)


def test_transversal_check_examples():
    assert transversal_check(6, 2, 1, 2) == (True, [])
    assert transversal_check(8, 1, 1, 2) == (True, [])
    assert transversal_check(5, 2, 2, 2) == (True, [])


def test_exact_optimum_examples():
    assert exact_optimum(2, 1, 1, 2, channel.TANDEM_DUP) == 4
    assert exact_optimum(3, 1, 0, 2, channel.TANDEM_DUP) == 8
    dup = exact_optimum(6, 2, 1, 2, channel.TANDEM_DUP)
    dele = exact_optimum(6, 2, 1, 2, channel.TANDEM_DEL)
    assert dup == dele
    with pytest.raises(ValueError, match="guard"):
        exact_optimum(30, 1, 1, 4)


@pytest.mark.parametrize("family", [channel.TANDEM_DUP, channel.TANDEM_DEL, channel.PAL_DUP, channel.PAL_DEL])
def test_exact_optimum_corrects_no_error_with_the_whole_space(family):
    """At t = 0 no ball reaches past its centre, so the conflict graph has no
    edge and every word is a codeword; the guard refuses with its own text."""
    for q, n_max in ((2, 7), (3, 4)):
        for n in range(n_max + 1):
            for ell in (1, 2, 3):
                assert exact_optimum(n, ell, 0, q, family) == q**n, (family, q, n, ell)
    text = r"^instance too large: q\^n = 4\^30 = 1152921504606846976 words exceeds the guard 1048576$"
    with pytest.raises(ValueError, match=text):
        exact_optimum(30, 1, 0, 4, family)


@pytest.mark.parametrize("check", [exact_optimum, transversal_check])
def test_bound_checks_refuse_with_the_enumeration_guard_text(check):
    text = r"^instance too large: q\^n = 4\^30 = 1152921504606846976 words exceeds the guard 1048576$"
    with pytest.raises(ValueError, match=text):
        check(30, 1, 1, 4)
    with pytest.raises(ValueError, match=text):
        all_words(30, 4)


def test_exact_optimum_palindromic_kind():
    # the two-codeword palindromic-deletion example: optimum over Z_2^4 words
    val = exact_optimum(4, 2, 1, 2, channel.PAL_DUP)
    assert val >= 1
    # brute cross-check against a greedy-free exhaustive search on n=4
    from itertools import combinations

    words = list(words_of(4, 2))
    from dupcodes.channel import pal_dup

    best = 1
    for size in range(len(words), 0, -1):
        if size <= best:
            break
        for combo in combinations(words, size):
            if all(
                not balls_intersect(a, b, pal_dup(2), 1) for a, b in combinations(combo, 2)
            ):
                best = size
                break
        if best == size:
            break
    assert val == best


def test_redundancy_table_columns():
    import math

    rows = redundancy_table([4, 8, 16], 2, 2)
    for row in rows:
        assert row.c2_redundancy == math.log2(row.n) + math.log2(10)
        assert row.burst_redundancy == math.log2(row.n) + math.log2(math.log2(row.n)) + 1
        assert row.redundancy_lb_bits >= 0
        assert row.redundancy_lb_bits <= row.c1_redundancy
    assert rows[2].burst_redundancy == 7  # 4 + 2 + 1 at n = 16
    clamped = redundancy_table([2], 1, 2)[0]
    assert clamped.redundancy_lb_bits == 0
    assert clamped.redundancy_lb_bits_raw == 0  # bound 4 = 2^2 exactly


def test_the_c2_column_is_a_reference_formula_not_a_bound():
    """log2(n) + log2(10) lies below the exact redundancy n - log2|C| of
    c2's best (a, b) class from n = 40 on, so it bounds nothing; the
    pigeonhole value log2(5(2n+1)) stays at or above the exact redundancy.
    Both compared in integers: 10n |C| < 2^n and 2^n <= 5(2n+1) |C|."""
    for n in range(1, 65):
        _, size = codes.c2_best_params(n)
        assert 2**n <= 5 * (2 * n + 1) * size, n
        if n >= 40:
            assert 10 * n * size < 2**n, n

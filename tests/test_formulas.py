import numpy as np
import pytest

from dupcodes.channel import deletion_positions, error_ball, error_sphere, pal_del, pal_dup, tandem_del, tandem_dup
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
from dupcodes.words import parse_word, word

from conftest import words_of


def test_tandem_dup_sphere_size_examples():
    # wt_H(v) = 2 for this word, so the t=1 sphere has C(3,1) = 3 elements
    # and the t=2 sphere C(4,2) = 6; both frozen from enumeration
    x = parse_word("21010121", 3)
    assert tandem_dup_sphere_size(x, 2, 1) == 3
    assert len(error_sphere(x, tandem_dup(2), 1)) == 3
    assert tandem_dup_sphere_size(x, 2, 2) == 6
    assert len(error_sphere(x, tandem_dup(2), 2)) == 6
    assert tandem_dup_sphere_size(word((1, 1, 1), 2), 1, 1) == 1


def test_tandem_del_sphere_size_examples():
    x = parse_word("2121010121", 3)
    assert tandem_del_sphere_size(x, 2, 1) == 2
    assert tandem_del_sphere_size(word((0, 1, 0, 1), 2), 2, 1) == 1
    assert tandem_del_sphere_size(word((0, 1, 0, 1), 2), 1, 1) == 0  # signature all zero
    assert tandem_del_sphere_size(word((0, 0, 0, 0), 2), 1, 2) == 1


def test_pal_sphere_size_examples():
    assert pal_dup_sphere_size_l1(word((0, 0, 1), 2)) == 2
    assert pal_dup_sphere_size_l1(parse_word("11110220", 3)) == 4
    assert pal_dup_sphere_size_l1(word((1, 1, 1), 2)) == 1
    assert pal_dup_sphere_size_l2(parse_word("11110220", 3)) == 5
    assert pal_dup_sphere_size_l2(word((0, 1), 2)) == 1
    assert pal_dup_sphere_size_l2(word((0,) * 5, 2)) == 1
    assert pal_del_sphere_size_l1(word((0, 0, 1), 2)) == 1
    assert pal_del_sphere_size_l1(word((0, 1, 0, 1), 2)) == 0
    assert pal_del_sphere_size_l1(parse_word("11110220", 3)) == 2


def test_pal_del_l2_binary_examples():
    assert pal_del_sphere_size_l2_binary(parse_word("01100001", 2)) == 2
    assert pal_del_sphere_size_l2_binary(word((0, 1, 0, 1), 2)) == 0
    assert pal_del_sphere_size_l2_binary(word((1, 1, 0, 0), 2)) == 0
    assert pal_del_sphere_size_l2_binary(word((0, 1), 2)) == 0  # no window exists
    with pytest.raises(ValueError, match="binary"):
        pal_del_sphere_size_l2_binary(word((0, 1, 2), 3))


def test_pal_dup_upper_bound_examples():
    x = word((0, 1, 0, 0, 1, 0), 2)
    assert pal_dup_sphere_upper_bound(x, 3) == 4
    assert len(error_sphere(x, pal_dup(3), 1)) == 3
    assert pal_dup_sphere_upper_bound(word((1, 1, 1, 1), 2), 2) == 1
    assert pal_dup_sphere_upper_bound(parse_word("11110220", 3), 2) == 5


def palindrome_matrix(x, ell):
    """The paper's ell x (n - 2ell + 1) palindrome matrix: entry (r, c), both
    1-based, is x_{c+2ell-r} - x_{c+r-1} mod q."""
    s = x.symbols
    cols = range(1, len(s) - 2 * ell + 2)
    return np.array([[(s[c + 2 * ell - r - 1] - s[c + r - 2]) % x.q for c in cols] for r in range(1, ell + 1)])


def zero_column_runs(m):
    zero = ~m.any(axis=0)
    return sum(1 for c, z in enumerate(zero) if z and not (c and zero[c - 1]))


def test_palindrome_matrix_example():
    # all-zero columns 2 and 6 of the paper's matrix: the window mirrors the
    # block at prefix lengths 1 and 5, two runs
    x = parse_word("21011012210", 3)
    assert deletion_positions(x, pal_del(3)) == [1, 5]
    assert pal_del_sphere_upper_bound(x, 3) == 2


def test_pal_del_upper_bound_counts_the_zero_column_runs_of_the_palindrome_matrix():
    for q, max_n in ((2, 10), (3, 7)):
        for n in range(0, max_n + 1):
            for x in words_of(n, q):
                for ell in range(1, n // 2 + 1):
                    assert pal_del_sphere_upper_bound(x, ell) == zero_column_runs(palindrome_matrix(x, ell)), (x, ell)


def test_pal_del_upper_bound_examples():
    x = parse_word("21011012210", 3)
    assert pal_del_sphere_upper_bound(x, 3) == 2
    assert len(error_sphere(x, pal_del(3), 1)) == 2
    assert pal_del_sphere_upper_bound(word((0, 1, 0, 1), 2), 2) == 0
    assert pal_del_sphere_upper_bound(word((0,) * 5, 2), 2) == 1
    assert pal_del_sphere_upper_bound(word((0, 1), 2), 2) == 0  # no window fits


def test_exactness_small_exhaustive():
    # acceptance covers the full ranges; this is the fast regression net
    for q, max_n in ((2, 7), (3, 5)):
        for n in range(1, max_n + 1):
            for x in words_of(n, q):
                for ell in (1, 2, 3):
                    if n >= ell:
                        for t in (1, 2):
                            assert tandem_dup_sphere_size(x, ell, t) == len(
                                error_sphere(x, tandem_dup(ell), t)
                            )
                            assert tandem_del_sphere_size(x, ell, t) == len(
                                error_sphere(x, tandem_del(ell), t)
                            )
                assert pal_dup_sphere_size_l1(x) == len(error_sphere(x, pal_dup(1), 1))
                if n >= 2:
                    assert pal_dup_sphere_size_l2(x) == len(error_sphere(x, pal_dup(2), 1))
                assert pal_del_sphere_size_l1(x) == len(error_sphere(x, pal_del(1), 1))
                if q == 2:
                    assert pal_del_sphere_size_l2_binary(x) == len(error_sphere(x, pal_del(2), 1))


def test_bound_validity_small_exhaustive():
    for q, max_n in ((2, 7), (3, 5)):
        for n in range(1, max_n + 1):
            for x in words_of(n, q):
                for ell in (2, 3, 4):
                    if n >= ell:
                        assert pal_dup_sphere_upper_bound(x, ell) >= len(
                            error_sphere(x, pal_dup(ell), 1)
                        )
                    assert pal_del_sphere_upper_bound(x, ell) >= len(
                        error_sphere(x, pal_del(ell), 1)
                    )


def test_deletion_sphere_monotonicity():
    # every word nu in the deletion ball has a sphere no larger than x's
    for n in range(2, 8):
        for x in words_of(n, 2):
            for ell in (1, 2):
                for t in (1, 2):
                    size_x = tandem_del_sphere_size(x, ell, t)
                    for nu in error_ball(x, tandem_del(ell), t):
                        if len(nu) >= ell:
                            assert tandem_del_sphere_size(nu, ell, t) <= size_x

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dupcodes.words import (
    Word,
    format_word,
    parse_word,
    run_checksum,
    run_profile,
    word,
)

from conftest import words_of


def test_run_profile_example():
    x = word((1, 1, 1, 1, 0, 2, 2, 0), 3)
    assert run_profile(x).lengths == (4, 1, 2, 1)


def test_run_profile_trivial():
    assert run_profile(word((0,), 2)).lengths == (1,)
    assert run_profile(word((0, 1, 0, 1), 2)).lengths == (1, 1, 1, 1)


def test_run_profile_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        run_profile(word((), 2))


def test_run_counts_example():
    x = word((1, 1, 1, 1, 0, 2, 2, 0), 3)
    prof = run_profile(x)
    assert prof.count_of_length(1) == 2
    assert prof.count_of_length(3) == 0
    assert run_profile(word((0, 0), 2)).count_of_length(2) == 1
    assert prof.count_at_least(2) == 2
    assert prof.count_at_least(1) == 4


def test_run_checksum_examples():
    assert run_checksum(word((0, 1, 0, 1, 1, 0, 0, 1), 2)) == 30
    assert run_checksum(word((1,), 2)) == 1
    assert run_checksum(word((0, 0, 0), 2)) == 3


def test_run_statistics_identities_exhaustive():
    for q in (2, 3):
        for n in range(1, 7):
            for x in words_of(n, q):
                prof = run_profile(x)
                assert sum(prof.lengths) == n
                assert sum(i * prof.count_of_length(i) for i in range(1, n + 1)) == n
                assert sum(prof.count_of_length(i) for i in range(1, n + 1)) == prof.num_runs
                assert run_checksum(x) <= prof.num_runs * n


def test_run_profile_alphabet_permutation_invariant():
    x = word((0, 0, 2, 1, 1, 1), 3)
    # swap 0 <-> 2
    y = word((2, 2, 0, 1, 1, 1), 3)
    assert run_profile(x) == run_profile(y)


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0, 2), 2)
    with pytest.raises(ValueError):
        Word((0,), 1)
    with pytest.raises(ValueError):
        Word((-1,), 3)


def test_words_with_different_q_are_distinct():
    assert word((0, 1), 2) != word((0, 1), 3)


def test_parse_format_digits():
    x = parse_word("11110220", 3)
    assert x.symbols == (1, 1, 1, 1, 0, 2, 2, 0)
    assert format_word(x) == "11110220"


def test_parse_format_large_alphabet():
    x = parse_word("12,0,11", 13)
    assert x.symbols == (12, 0, 11)
    assert format_word(x) == "12,0,11"
    with pytest.raises(ValueError):
        parse_word("1201", 13)


@given(st.integers(2, 9), st.lists(st.integers(0, 8), min_size=1, max_size=30))
def test_parse_format_roundtrip(q, symbols):
    symbols = [s % q for s in symbols]
    x = word(symbols, q)
    assert parse_word(format_word(x), q) == x

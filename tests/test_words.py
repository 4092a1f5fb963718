import pytest
from hypothesis import given
from hypothesis import strategies as st

from dupcodes.channel import apply_error, deletion_positions, error_positions, pal_dup, tandem_dup
from dupcodes.transform import derive
from dupcodes.words import (
    Word,
    format_word,
    parse_word,
    run_profile,
    word,
)

from conftest import run_checksum, words_of


def test_run_profile_example():
    x = word((1, 1, 1, 1, 0, 2, 2, 0), 3)
    assert run_profile(x) == (4, 1, 2, 1)


def test_run_profile_trivial():
    assert run_profile(word((0,), 2)) == (1,)
    assert run_profile(word((0, 1, 0, 1), 2)) == (1, 1, 1, 1)


def test_run_profile_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        run_profile(word((), 2))


def test_run_counts_example():
    x = word((1, 1, 1, 1, 0, 2, 2, 0), 3)
    runs = run_profile(x)
    assert runs.count(1) == 2
    assert runs.count(3) == 0
    assert run_profile(word((0, 0), 2)).count(2) == 1
    assert sum(r >= 2 for r in runs) == 2
    assert sum(r >= 1 for r in runs) == 4


def test_run_checksum_examples():
    assert run_checksum(run_profile(word((0, 1, 0, 1, 1, 0, 0, 1), 2))) == 30
    assert run_checksum(run_profile(word((1,), 2))) == 1
    assert run_checksum(run_profile(word((0, 0, 0), 2))) == 3


def test_run_statistics_identities_exhaustive():
    for q in (2, 3):
        for n in range(1, 7):
            for x in words_of(n, q):
                runs = run_profile(x)
                assert sum(runs) == n
                assert sum(i * runs.count(i) for i in range(1, n + 1)) == n
                assert sum(runs.count(i) for i in range(1, n + 1)) == len(runs)
                assert run_checksum(runs) <= len(runs) * n


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: Word((0, 2), 2),
        lambda: word([0, 3], 3),
        lambda: parse_word("0120", 2),
        lambda: parse_word("1,13", 13),
        lambda: Word((-1, 1), 3),
    ],
    ids=["Word", "word", "parse_word", "parse_word-commas", "Word-negative"],
)
def test_public_constructors_refuse_out_of_range_symbols(build):
    with pytest.raises(ValueError, match="outside alphabet"):
        build()


def _passes_symbol_check(x: Word):
    assert type(x.symbols) is tuple and all(type(s) is int for s in x.symbols)
    assert Word(x.symbols, x.q) == x  # the checking constructor accepts it


@given(st.integers(2, 4), st.lists(st.integers(0, 3), max_size=10), st.integers(1, 3))
def test_channel_and_transform_outputs_pass_the_symbol_check(q, symbols, ell):
    """The package builds these words without the symbol check."""
    x = word([s % q for s in symbols], q)
    for dup in (tandem_dup(ell), pal_dup(ell)):
        for p in error_positions(x, dup):
            y = apply_error(x, dup, p)
            _passes_symbol_check(y)
            deletion = dup.inverse()
            for r in deletion_positions(y, deletion):
                _passes_symbol_check(apply_error(y, deletion, r))
    if len(x) >= ell:
        for z in derive(x, ell):
            _passes_symbol_check(z)

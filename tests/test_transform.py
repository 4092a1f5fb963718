import pytest
from hypothesis import given
from hypothesis import strategies as st

from dupcodes.channel import tandem_delete, tandem_duplicate
from dupcodes.transform import (
    DerivativePair,
    assemble,
    derive,
    integrate,
    trunk,
    zero_signature,
)
from dupcodes.words import parse_word, word

from conftest import words_of


def test_derive_examples():
    pair = derive(parse_word("21010121", 3), 2)
    assert pair.u == word((2, 1), 3)
    assert pair.v == parse_word("100020", 3)
    pair = derive(parse_word("2121010121", 3), 2)
    assert pair.u == word((2, 1), 3)
    assert pair.v == parse_word("00100020", 3)
    x = word((0, 1, 2), 3)
    pair = derive(x, 3)
    assert pair.u == x and len(pair.v) == 0
    with pytest.raises(ValueError):
        derive(word((0,), 2), 2)


def test_integrate_examples():
    pair = DerivativePair(word((2, 1), 3), parse_word("100020", 3))
    assert integrate(pair) == parse_word("21010121", 3)
    x = word((1, 0, 1), 2)
    assert integrate(DerivativePair(x, word((), 2))) == x
    assert integrate(DerivativePair(word((0,), 2), word((0, 0), 2))) == word((0, 0, 0), 2)


def test_trunk_examples():
    assert trunk(parse_word("100020", 3), 2) == parse_word("1020", 3)
    v = word((1, 2, 1), 3)
    assert trunk(v, 2) == v
    assert trunk(word((0, 0), 3), 2) == word((), 3)


def test_zero_signature_examples():
    assert zero_signature(parse_word("100020", 3), 2) == (0, 1, 0)
    assert zero_signature(parse_word("00100020", 3), 2) == (1, 1, 0)
    assert zero_signature(word((1, 2, 1), 3), 2) == (0, 0, 0, 0)
    assert zero_signature(word((), 3), 2) == (0,)


def test_assemble_examples():
    assert assemble(parse_word("1020", 3), (0, 1, 0), 2) == parse_word("100020", 3)
    v = word((1, 2), 3)
    assert assemble(v, (0, 0, 0), 2) == v
    assert assemble(word((), 2), (3,), 2) == word((0,) * 6, 2)
    with pytest.raises(ValueError, match="incompatible"):
        assemble(word((1,), 2), (0,), 2)
    with pytest.raises(ValueError, match="incompatible"):
        assemble(word((0, 0, 1), 2), (0, 0), 2)  # trunk has a run of >= ell zeros


def test_signature_length_and_mass_invariants():
    for q in (2, 3):
        for n in range(0, 7):
            for v in words_of(n, q):
                for ell in (1, 2, 3):
                    sig = zero_signature(v, ell)
                    wt = sum(1 for s in v if s != 0)
                    assert len(sig) == wt + 1
                    assert len(trunk(v, ell)) + ell * sum(sig) == n


def test_roundtrip_exhaustive():
    for q, max_n in ((2, 10), (3, 10)):
        for n in range(0, max_n + 1):
            for v in words_of(n, q):
                for ell in (1, 2, 3):
                    assert assemble(trunk(v, ell), zero_signature(v, ell), ell) == v


@given(st.integers(2, 4), st.lists(st.integers(0, 3), min_size=1, max_size=24), st.integers(1, 4))
def test_derive_integrate_roundtrip(q, symbols, ell):
    x = word([s % q for s in symbols], q)
    if len(x) < ell:
        return
    assert integrate(derive(x, ell)) == x


def test_duplication_shifts_signature_by_unit():
    for q in (2, 3):
        for n in range(1, 6):
            for x in words_of(n, q):
                for ell in (1, 2):
                    if n < ell:
                        continue
                    base = derive(x, ell)
                    sig = zero_signature(base.v, ell)
                    for p in range(n - ell + 1):
                        y = tandem_duplicate(x, ell, p)
                        pair = derive(y, ell)
                        assert pair.u == base.u
                        assert trunk(pair.v, ell) == trunk(base.v, ell)
                        sig_y = zero_signature(pair.v, ell)
                        assert len(sig_y) == len(sig)
                        diffs = [a - b for a, b in zip(sig_y, sig)]
                        assert sorted(diffs) == [0] * (len(sig) - 1) + [1]


def test_deletion_shifts_signature_by_negative_unit():
    for n in range(2, 7):
        for x in words_of(n, 2):
            for ell in (1, 2):
                if n < 2 * ell:
                    continue
                sig = zero_signature(derive(x, ell).v, ell)
                for p in range(n - 2 * ell + 1):
                    try:
                        y = tandem_delete(x, ell, p)
                    except ValueError:
                        continue
                    sig_y = zero_signature(derive(y, ell).v, ell)
                    diffs = [a - b for a, b in zip(sig_y, sig)]
                    assert sorted(diffs) == [-1] + [0] * (len(sig) - 1)


def test_whole_word_duplication_signature():
    x = word((1, 0, 1), 2)
    y = tandem_duplicate(x, 3, 0)
    pair = derive(y, 3)
    assert zero_signature(pair.v, 3) == (1,)
    assert trunk(pair.v, 3) == word((), 2)

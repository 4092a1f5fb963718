import pytest

from dupcodes.channel import tandem_delete, tandem_duplicate
from dupcodes.transform import derive, zero_signature
from dupcodes.words import parse_word, word

from conftest import words_of


def trunk(v, ell):
    """v with every maximal zero-run of length m cut to m mod ell zeros."""
    out, run = [], 0
    for s in v.symbols + (None,):
        if s == 0:
            run += 1
            continue
        out.extend([0] * (run % ell))
        run = 0
        if s is not None:
            out.append(s)
    return tuple(out)


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


def test_zero_signature_examples():
    assert zero_signature(parse_word("100020", 3), 2) == (0, 1, 0)
    assert zero_signature(parse_word("00100020", 3), 2) == (1, 1, 0)
    assert zero_signature(word((1, 2, 1), 3), 2) == (0, 0, 0, 0)
    assert zero_signature(word((), 3), 2) == (0,)


def test_signature_length_and_mass_invariants():
    for q in (2, 3):
        for n in range(0, 7):
            for v in words_of(n, q):
                for ell in (1, 2, 3):
                    sig = zero_signature(v, ell)
                    wt = sum(1 for s in v if s != 0)
                    assert len(sig) == wt + 1
                    assert len(trunk(v, ell)) + ell * sum(sig) == n


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
    assert trunk(pair.v, 3) == ()


def test_trunk_helper_examples():
    assert trunk(parse_word("100020", 3), 2) == (1, 0, 2, 0)
    assert trunk(word((1, 2, 1), 3), 2) == (1, 2, 1)
    assert trunk(word((0, 0), 3), 2) == ()
    assert trunk(word((0, 0, 0, 1, 0), 2), 2) == (0, 1, 0)


def test_deleting_the_first_block_of_a_gap_lowers_that_entry_only():
    """The c1 decoder's step: the tandem deletion at the index where gap k
    of v starts removes ell zeros there, so entry k of the signature drops
    by one while the head and the trunk stay."""
    for q, max_n in ((2, 9), (3, 6)):
        for n in range(1, max_n + 1):
            for y in words_of(n, q):
                for ell in (1, 2, 3):
                    if n < ell:
                        continue
                    pair = derive(y, ell)
                    v = pair.v.symbols
                    sig = zero_signature(pair.v, ell)
                    starts = [0] + [i + 1 for i, d in enumerate(v) if d]
                    for k, start in enumerate(starts):
                        if sig[k] == 0:
                            continue
                        x = derive(tandem_delete(y, ell, start), ell)
                        assert x.u == pair.u
                        assert x.v.symbols == v[:start] + v[start + ell :]
                        lowered = list(sig)
                        lowered[k] -= 1
                        assert zero_signature(x.v, ell) == tuple(lowered)
                        assert trunk(x.v, ell) == trunk(pair.v, ell)

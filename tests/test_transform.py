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
    assert derive(parse_word("21010121", 3), 2) == (word((2, 1), 3), parse_word("100020", 3))
    assert derive(parse_word("2121010121", 3), 2) == (word((2, 1), 3), parse_word("00100020", 3))
    x = word((0, 1, 2), 3)
    u, v = derive(x, 3)
    assert u == x and len(v) == 0
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
                    u, v = derive(x, ell)
                    sig = zero_signature(v, ell)
                    for p in range(n - ell + 1):
                        y = tandem_duplicate(x, ell, p)
                        u_y, v_y = derive(y, ell)
                        assert u_y == u
                        assert trunk(v_y, ell) == trunk(v, ell)
                        sig_y = zero_signature(v_y, ell)
                        assert len(sig_y) == len(sig)
                        diffs = [a - b for a, b in zip(sig_y, sig)]
                        assert sorted(diffs) == [0] * (len(sig) - 1) + [1]


def test_deletion_shifts_signature_by_negative_unit():
    for n in range(2, 7):
        for x in words_of(n, 2):
            for ell in (1, 2):
                if n < 2 * ell:
                    continue
                _, v = derive(x, ell)
                sig = zero_signature(v, ell)
                for p in range(n - 2 * ell + 1):
                    try:
                        y = tandem_delete(x, ell, p)
                    except ValueError:
                        continue
                    _, v_y = derive(y, ell)
                    sig_y = zero_signature(v_y, ell)
                    diffs = [a - b for a, b in zip(sig_y, sig)]
                    assert sorted(diffs) == [-1] + [0] * (len(sig) - 1)


def test_whole_word_duplication_signature():
    x = word((1, 0, 1), 2)
    y = tandem_duplicate(x, 3, 0)
    _, v = derive(y, 3)
    assert zero_signature(v, 3) == (1,)
    assert trunk(v, 3) == ()


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
                    u, v = derive(y, ell)
                    sig = zero_signature(v, ell)
                    starts = [0] + [i + 1 for i, d in enumerate(v) if d]
                    for k, start in enumerate(starts):
                        if sig[k] == 0:
                            continue
                        u_x, v_x = derive(tandem_delete(y, ell, start), ell)
                        assert u_x == u
                        assert v_x.symbols == v.symbols[:start] + v.symbols[start + ell :]
                        lowered = list(sig)
                        lowered[k] -= 1
                        assert zero_signature(v_x, ell) == tuple(lowered)
                        assert trunk(v_x, ell) == trunk(v, ell)

"""The array verification core against the Word-level routes it replaced.

`ball_clashes` must find a clash exactly where `disjoint_ball_violation`
does, with a shared word that `error_ball` confirms, and `oracle_verdicts`
must accept a received word exactly where `oracle_decode` returns its
codeword. Exhaustive over small codes, per (a, b) group for c2, and over
sets that correct nothing.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from dupcodes import channel, codes
from dupcodes.channel import duplication_rows, error_ball
from dupcodes.codes import (
    DecodingFailure,
    PalindromeFreeCode,
    TandemVTCode,
    ball_clashes,
    c2_groups,
    check_correction,
    disjoint_ball_violation,
    oracle_decode,
    oracle_verdicts,
)
from dupcodes.words import word
from dupcodes.wordspace import all_words, packed_keys


@dataclass(frozen=True)
class WordSet:
    """Any set of words of length n, posing as a code that corrects single
    tandem duplications of length 1: member is set membership, and decode
    returns the unique member that one deletion reaches."""

    n: int
    q: int
    words: frozenset
    kinds = (channel.tandem_dup(1),)

    def member(self, x):
        return x in self.words

    def decode(self, y):
        return oracle_decode(y, self.n, self.kinds[0], self.member)


def word_set(rows, q):
    return WordSet(rows.shape[1], q, frozenset(word(r, q) for r in rows.tolist()))


def compare_routes(group_codes, book, group, kind):
    """Both routes on every group and every received row; returns the groups
    with a clash."""
    q, n = group_codes[0].q, book.shape[1]
    received, owner = duplication_rows(book, kind)
    clashes = ball_clashes(packed_keys(received, q, prefix=group[owner]), owner, group)
    verdicts = oracle_verdicts(book, group, received, owner, kind, group_codes)
    words = [word(r, q) for r in book.tolist()]
    for g in range(len(group_codes)):
        members = [words[i] for i in np.flatnonzero(group == g)]
        assert (g in clashes) == (disjoint_ball_violation(members, kind, 1) is not None), (g, kind)
        if g in clashes:
            i, j, r = clashes[g]
            assert i < j and group[i] == group[j] == g
            shared = word(received[r].tolist(), q)
            assert shared in error_ball(words[i], kind, 1) & error_ball(words[j], kind, 1)
    for r, y in enumerate(received.tolist()):
        c = words[owner[r]]
        try:
            expected = oracle_decode(word(y, q), n, kind, group_codes[group[owner[r]]].member) == c
        except DecodingFailure:
            expected = False
        assert verdicts[r] == expected, (kind, c, y)
    return set(clashes)


def one_group(book):
    return np.zeros(len(book), dtype=np.intp)


@pytest.mark.parametrize("q,ell", [(q, ell) for q in (2, 3) for ell in (1, 2, 3)])
def test_c1_codes_agree_with_the_word_routes(q, ell):
    for n in range(ell, 9):
        code = TandemVTCode.best(n, q, ell)
        book = code.codebook_rows()
        assert compare_routes([code], book, one_group(book), channel.tandem_dup(ell)) == set()


def test_every_c2_group_agrees_with_the_word_routes():
    for n in range(2, 10):
        group_codes, book, group = c2_groups(n)
        assert compare_routes(group_codes, book, group, channel.pal_dup(2)) == set()


@pytest.mark.parametrize("q", [2, 3])
def test_cpf_codes_agree_with_the_word_routes(q):
    for n in range(2, 8):
        code = PalindromeFreeCode(n, q)
        book = code.codebook_rows()
        for kind in code.kinds:
            assert compare_routes([code], book, one_group(book), kind) == set()


@pytest.mark.parametrize(
    "n,q,kind",
    [
        (4, 2, channel.tandem_dup(1)),
        (6, 2, channel.tandem_dup(2)),
        (4, 3, channel.tandem_dup(1)),
        (6, 2, channel.pal_dup(2)),
        (5, 3, channel.pal_dup(2)),
        (6, 2, channel.pal_dup(3)),
    ],
)
def test_the_whole_space_clashes_on_both_routes(n, q, kind):
    book = all_words(n, q)
    assert compare_routes([word_set(book, q)], book, one_group(book), kind) == {0}


@pytest.mark.parametrize("n,q,ell", [(6, 2, 1), (7, 2, 2), (5, 3, 1)])
def test_c1_codebook_with_a_wrong_residue_clashes_on_both_routes(n, q, ell):
    """The best code plus the codewords of the next residue for signature
    length 2: no longer a code, and both routes must say so."""
    code = TandemVTCode.best(n, q, ell)
    other = TandemVTCode(n, q, ell, code.a[:1] + ((code.a[1] + 1) % 3,) + code.a[2:])
    rows = np.unique(np.concatenate((code.codebook_rows(), other.codebook_rows())), axis=0)
    kind = channel.tandem_dup(ell)
    assert compare_routes([word_set(rows, q)], rows, one_group(rows), kind) == {0}
    # groups of one batch stay apart: the two codes side by side clash nowhere
    book = np.concatenate((code.codebook_rows(), other.codebook_rows()))
    group = np.repeat([0, 1], [len(code.codebook_rows()), len(other.codebook_rows())])
    assert compare_routes([code, other], book, group, kind) == set()


def test_oracle_rejects_rows_where_member_and_codebook_disagree():
    """The scalar member is held against the codebook lookup: a row is
    rejected when member disagrees on one of its deletion outcomes, in either
    direction, and accepted otherwise."""
    code = TandemVTCode.best(6, 2, 1)
    book = code.codebook_rows()
    kind = channel.tandem_dup(1)
    received, owner = duplication_rows(book, kind)

    def verdicts(members):
        return oracle_verdicts(book, one_group(book), received, owner, kind, [WordSet(6, 2, frozenset(members))]).tolist()

    words = [word(r, 2) for r in book.tolist()]
    assert verdicts(words) == [True] * len(received)
    assert verdicts(words[1:]) == (owner != 0).tolist()  # member denies codeword 0
    outcomes = [
        {channel.apply_error(y, kind.inverse(), p) for p in channel.deletion_positions(y, kind.inverse())}
        for y in (word(r, 2) for r in received.tolist())
    ]
    extra = next(x for reached in outcomes for x in reached if x not in words)  # member claims a non-codeword
    assert verdicts(words + [extra]) == [extra not in reached for reached in outcomes]


@pytest.mark.parametrize("block_rows", [1, 7, 50])
def test_check_correction_block_by_block_matches_one_pass(monkeypatch, block_rows):
    """Received words split into blocks of codewords give the same clashes
    and broken counts as one block, also for sets that clash."""
    cases = [
        ([TandemVTCode.best(8, 2, 1)], TandemVTCode.best(8, 2, 1).codebook_rows(), None),
        c2_groups(8),
        ([PalindromeFreeCode(6, 3)], PalindromeFreeCode(6, 3).codebook_rows(), None),
        ([word_set(all_words(5, 2), 2)], all_words(5, 2), None),
    ]
    one_pass = [check_correction(*case) for case in cases]
    assert one_pass[3][0][1] and one_pass[3][0][2].sum() > 0  # the whole space clashes and breaks
    monkeypatch.setattr(codes, "_BLOCK_ROWS", block_rows)
    for case, expected in zip(cases, one_pass):
        got = check_correction(*case)
        assert [(k, c, b.tolist()) for k, c, b in got] == [(k, c, b.tolist()) for k, c, b in expected]

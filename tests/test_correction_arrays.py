"""The array verification core against the Word-level routes it replaced.

The clashes of `check_correction` must appear exactly where
`disjoint_ball_violation` finds one, and name the group's smallest shared
word and the first two codewords whose balls (`error_ball`) hold it;
`oracle_verdicts` must accept a received word exactly where `oracle_decode`
returns its codeword, with the scalar membership references of `conftest`
as its predicate. Exhaustive over small codes, per (a, b) group for c2,
and over sets that correct nothing. The decoder runs once per distinct
(code, received word), and its failures count once per round trip. The
membership cross-check asks `member_rows` about rows and builds no `Word`.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from dupcodes import channel, codes, words
from dupcodes.channel import duplication_rows, error_ball
from dupcodes.cli import main
from dupcodes.codes import (
    DecodingFailure,
    PalindromeFreeCode,
    TandemVTCode,
    c2_groups,
    check_correction,
    oracle_verdicts,
)
from dupcodes.words import Word, format_word, word
from dupcodes.wordspace import all_words, distinct, packed_keys

from conftest import disjoint_ball_violation, oracle_decode, reference_member


@dataclass(frozen=True)
class WordSet(codes._Construction):
    """Any set of words of length n, posing as a code that corrects single
    errors of one duplication kind: member is set membership, member_rows
    asks it one Word per row, decode returns the unique member that one
    deletion reaches, and decode_rows calls decode one Word per row, the
    Word loop that c1 and c2 inherit."""

    n: int
    q: int
    words: frozenset
    kinds: tuple = (channel.tandem_dup(1),)

    def member(self, x):
        return x in self.words

    def member_rows(self, rows):
        return np.array([self.member(word(row, self.q)) for row in rows.tolist()], dtype=bool)

    def decode(self, y):
        return oracle_decode(y, self.n, self.kinds[0], self.member)


def word_set(rows, q, kind=channel.tandem_dup(1)):
    return WordSet(rows.shape[1], q, frozenset(word(r, q) for r in rows.tolist()), (kind,))


def smallest_shared_word(members, kind):
    """(first, second, y): the lexicographically smallest word y that two
    balls hold and the first two members whose balls hold it, or None."""
    holders = {}
    for c in members:
        for y in error_ball(c, kind, 1):
            holders.setdefault(y, []).append(c)
    shared = [y for y, cs in holders.items() if len(cs) > 1]
    if not shared:
        return None
    y = min(shared, key=lambda w: w.symbols)
    return holders[y][0], holders[y][1], y


def compare_routes(group_codes, book, group):
    """Both routes on every kind, every group and every received row;
    returns the groups with a clash in some kind."""
    q, n = group_codes[0].q, book.shape[1]
    words = [word(r, q) for r in book.tolist()]
    predicates = [reference_member(code) for code in group_codes]
    book_keys = packed_keys(book, q, prefix=group)
    order = np.argsort(book_keys)
    clashing = set()
    for kind, clashes, _ in check_correction(group_codes, book, group):
        for g in range(len(group_codes)):
            members = [words[i] for i in np.flatnonzero(group == g)]
            assert (g in clashes) == (disjoint_ball_violation(members, kind, 1) is not None), (g, kind)
            if g in clashes:
                first, second, shared = clashes[g]
                assert shared in error_ball(first, kind, 1) & error_ball(second, kind, 1)
                assert clashes[g] == smallest_shared_word(members, kind), (g, kind)
        clashing |= set(clashes)
        received, owner = duplication_rows(book, kind)
        index = distinct(packed_keys(received, q, prefix=group[owner]))
        verdicts, _ = oracle_verdicts(book_keys[order], order, group, received, owner, kind, group_codes, index)
        for r, y in enumerate(received.tolist()):
            c = words[owner[r]]
            try:
                expected = oracle_decode(word(y, q), n, kind, predicates[group[owner[r]]]) == c
            except DecodingFailure:
                expected = False
            assert verdicts[r] == expected, (kind, c, y)
    return clashing


def one_group(book):
    return np.zeros(len(book), dtype=np.intp)


@pytest.mark.parametrize("q,ell", [(q, ell) for q in (2, 3) for ell in (1, 2, 3)])
def test_c1_codes_agree_with_the_word_routes(q, ell):
    for n in range(ell, 9):
        code = TandemVTCode.best(n, q, ell)
        book = code.codebook_rows()
        assert compare_routes([code], book, one_group(book)) == set()


def test_every_c2_group_agrees_with_the_word_routes():
    for n in range(2, 10):
        group_codes, book, group = c2_groups(n)
        assert compare_routes(group_codes, book, group) == set()


@pytest.mark.parametrize("q", [2, 3])
def test_cpf_codes_agree_with_the_word_routes(q):
    for n in range(2, 8):
        code = PalindromeFreeCode(n, q)
        book = code.codebook_rows()
        assert compare_routes([code], book, one_group(book)) == set()


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
    assert compare_routes([word_set(book, q, kind)], book, one_group(book)) == {0}


@pytest.mark.parametrize("n,q,ell", [(6, 2, 1), (7, 2, 2), (5, 3, 1)])
def test_c1_codebook_with_a_wrong_residue_clashes_on_both_routes(n, q, ell):
    """The best code plus the codewords of the next residue for signature
    length 2: no longer a code, and both routes must say so."""
    code = TandemVTCode.best(n, q, ell)
    other = TandemVTCode(n, q, ell, code.a[:1] + ((code.a[1] + 1) % 3,) + code.a[2:])
    rows = np.unique(np.concatenate((code.codebook_rows(), other.codebook_rows())), axis=0)
    assert compare_routes([word_set(rows, q, channel.tandem_dup(ell))], rows, one_group(rows)) == {0}
    # groups of one batch stay apart: the two codes side by side clash nowhere
    book = np.concatenate((code.codebook_rows(), other.codebook_rows()))
    group = np.repeat([0, 1], [len(code.codebook_rows()), len(other.codebook_rows())])
    assert compare_routes([code, other], book, group) == set()


def test_oracle_rejects_rows_where_member_and_codebook_disagree():
    """The code's membership rule is held against the codebook lookup: a row
    is rejected when member_rows disagrees on one of its deletion outcomes,
    in either direction, and accepted otherwise."""
    code = TandemVTCode.best(6, 2, 1)
    book = code.codebook_rows()
    kind = channel.tandem_dup(1)
    received, owner = duplication_rows(book, kind)
    book_keys = packed_keys(book, 2)  # a lexicographic codebook: its keys are sorted

    index = distinct(packed_keys(received, 2, prefix=one_group(book)[owner]))

    def verdicts(members):
        code = WordSet(6, 2, frozenset(members))
        got, _ = oracle_verdicts(book_keys, np.arange(len(book)), one_group(book), received, owner, kind, [code], index)
        return got.tolist()

    words = [word(r, 2) for r in book.tolist()]
    assert verdicts(words) == [True] * len(received)
    assert verdicts(words[1:]) == (owner != 0).tolist()  # member denies codeword 0
    outcomes = [
        {channel.apply_error(y, kind.inverse(), p) for p in channel.deletion_positions(y, kind.inverse())}
        for y in (word(r, 2) for r in received.tolist())
    ]
    extra = next(x for reached in outcomes for x in reached if x not in words)  # member claims a non-codeword
    assert verdicts(words + [extra]) == [extra not in reached for reached in outcomes]


@pytest.mark.parametrize(
    "case",
    [
        lambda: ([TandemVTCode.best(7, 3, 2)], TandemVTCode.best(7, 3, 2).codebook_rows(), None),
        lambda: c2_groups(8),
        lambda: ([PalindromeFreeCode(6, 3)], PalindromeFreeCode(6, 3).codebook_rows(), None),
    ],
    ids=["c1", "c2", "cpf"],
)
def test_oracle_verdicts_build_no_word(monkeypatch, case):
    """The member step hands each code's deletion outcomes to its
    `member_rows` as rows: with every way to build a `Word` patched to
    raise, `oracle_verdicts` still accepts every received row of a code
    that corrects, on every kind, and reports no clash."""
    group_codes, book, group = case()
    group = one_group(book) if group is None else group
    q = group_codes[0].q
    book_keys = packed_keys(book, q, prefix=group)
    order = np.argsort(book_keys)

    def refuse(*args, **kwargs):
        raise AssertionError("a Word was built")

    monkeypatch.setattr(codes, "_word_of_row", refuse)
    monkeypatch.setattr(codes, "_unchecked_word", refuse)
    monkeypatch.setattr(words, "_new_word", refuse)
    monkeypatch.setattr(Word, "__post_init__", refuse)
    for kind in group_codes[0].kinds:
        received, owner = duplication_rows(book, kind)
        index = distinct(packed_keys(received, q, prefix=group[owner]))
        verdicts, clashes = oracle_verdicts(book_keys[order], order, group, received, owner, kind, group_codes, index)
        assert verdicts.all() and len(verdicts) == len(received) > 0 and clashes == {}, kind


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


@pytest.mark.parametrize("block_rows", [1, 1 << 15])
@pytest.mark.parametrize(
    "codewords,report",
    [
        (("00100", "00110", "01100"), ("00100", "00110", "001100")),
        (("1000", "1001", "1011", "1100"), ("1001", "1011", "10011")),
    ],
    ids=["three-codewords-reach-it", "a-larger-clash-comes-first"],
)
def test_a_clash_names_the_two_lowest_codewords_of_the_smallest_shared_word(monkeypatch, block_rows, codewords, report):
    """Under single tandem duplications of length 1, all three codewords of
    the first set reach 001100. In the second, codeword 1000 clashes with
    1100 at 11000, which one codeword per block finds before the smaller
    10011 that 1001 and 1011 share."""
    book = np.array([[int(ch) for ch in text] for text in codewords], dtype=np.int8)
    code = word_set(book, 2)
    assert compare_routes([code], book, one_group(book)) == {0}
    monkeypatch.setattr(codes, "_BLOCK_ROWS", block_rows)
    [(_, clashes, _)] = check_correction([code], book)
    assert {g: tuple(format_word(w) for w in clash) for g, clash in clashes.items()} == {0: report}


def test_check_correction_refuses_keys_past_63_bits():
    """The codewords' and received words' keys behind their groups must fit
    int64, by the rule and message of packed_keys; at the edge they do."""

    def run(n, groups):
        book = np.zeros((groups, n), dtype=np.int8)
        book[-1, 0] = 1
        return check_correction([TandemVTCode(n, 2, 1, (0,) * n)] * groups, book, np.arange(groups))

    assert [kind for kind, _, _ in run(62, 1)] == [channel.tandem_dup(1)]
    assert [kind for kind, _, _ in run(61, 2)] == [channel.tandem_dup(1)]
    with pytest.raises(ValueError, match="length 64 over q=2 need 64 bits; int64 keys hold 63"):
        run(63, 1)
    with pytest.raises(ValueError, match="length 63 over q=2 need 64 bits; int64 keys hold 63"):
        run(62, 2)


def round_trips(group_codes, book, group):
    """(kind, group, codeword, received word) of every single error of every
    kind on every codeword, one per round trip, by the Word-level channel."""
    q = group_codes[0].q
    for kind in group_codes[0].kinds:
        for row, g in zip(book.tolist(), group.tolist()):
            c = word(row, q)
            for p in channel.error_positions(c, kind):
                yield kind, g, c, channel.apply_error(c, kind, p)


def verify_case(name):
    """(decoder, verify flags, (group_codes, book, group)) for the best c1
    code at n = 6, l = 2, or for every (a, b) code of c2 at n = 6."""
    if name == "c2":
        return "c2_decode", ("--code", "c2", "--n", "6", "--q", "2"), c2_groups(6)
    best = TandemVTCode.best(6, 2, 2)
    book = best.codebook_rows()
    return "c1_decode", ("--code", "c1", "--n", "6", "--l", "2", "--q", "2"), ([best], book, one_group(book))


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_verify_decodes_each_distinct_received_word_once(monkeypatch, capsys, name):
    decoder, args, (group_codes, book, group) = verify_case(name)
    real = getattr(codes, decoder)
    calls = []

    def recorded(y, code):
        calls.append((code, y))
        return real(y, code)

    monkeypatch.setattr(codes, decoder, recorded)
    assert main(["verify", *args]) == 0
    capsys.readouterr()
    trips = [(group_codes[g], y) for _, g, _, y in round_trips(group_codes, book, group)]
    assert len(calls) == len(set(calls)) < len(trips)
    assert set(calls) == set(trips)


def test_verify_decodes_each_distinct_cpf_row_once(monkeypatch, capsys):
    """The cpf row decoder gets each distinct received word of each
    duplication length once, in batches of one length each."""
    real = codes.PalindromeFreeCode.decode_rows
    lengths, rows = [], []

    def recorded(code, batch):
        lengths.append(batch.shape[1] - code.n)
        rows.extend(map(tuple, batch.tolist()))
        return real(code, batch)

    monkeypatch.setattr(codes.PalindromeFreeCode, "decode_rows", recorded)
    assert main(["verify", "--code", "cpf", "--n", "6", "--q", "3"]) == 0
    capsys.readouterr()
    code = PalindromeFreeCode(6, 3)
    book = code.codebook_rows()
    trips = [y.symbols for _, _, _, y in round_trips([code], book, one_group(book))]
    assert lengths == list(range(2, 7))  # one batch per duplication length
    assert len(rows) == len(set(rows)) < len(trips)
    assert set(rows) == set(trips)


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_broken_counts_equal_a_count_per_round_trip(monkeypatch, name):
    """A decoder that raises on one chosen third of the received words and
    returns their first n symbols on another breaks the same round trips,
    group by group, as a count that decodes every round trip."""
    decoder, _, (group_codes, book, group) = verify_case(name)
    real = getattr(codes, decoder)

    def wrong_on_some(y, code):
        if sum(y.symbols) % 3 == 0:
            raise DecodingFailure("decoding failure: injected")
        if sum(y.symbols) % 3 == 1:
            return word(y.symbols[: code.n], y.q)
        return real(y, code)

    monkeypatch.setattr(codes, decoder, wrong_on_some)
    trips = list(round_trips(group_codes, book, group))
    expected = {kind: np.zeros(len(group_codes), dtype=np.int64) for kind in group_codes[0].kinds}
    for kind, g, c, y in trips:
        try:
            expected[kind][g] += wrong_on_some(y, group_codes[g]) != c
        except DecodingFailure:
            expected[kind][g] += 1
    got = check_correction(group_codes, book, group)
    assert [(kind, broken.tolist()) for kind, _, broken in got] == [(k, b.tolist()) for k, b in expected.items()]
    assert 0 < sum(b.sum() for b in expected.values()) < len(trips)

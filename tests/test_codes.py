import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dupcodes import channel, codes
from dupcodes.channel import palindromic_duplicate, tandem_duplicate
from dupcodes.codes import (
    DecodingFailure,
    PalindromeFreeCode,
    PalindromicL2Code,
    TandemVTCode,
    c1_best_params,
    c1_decode,
    c1_member,
    c1_size_lower_bound,
    _c2_keys,
    c2_best_params,
    c2_codebook_rows,
    c2_decode,
    c2_groups,
    c2_member,
    c2_size_lower_bound,
    cpf_count_closed,
    cpf_count_recursive,
    cpf_decode,
    cpf_decode_rows,
    cpf_lambda,
    cpf_member,
    cpf_member_rows,
    cpf_rate,
)
from dupcodes.transform import derive, zero_signature
from dupcodes.words import parse_word, run_profile, word
from dupcodes.wordspace import all_words

import conftest
from conftest import (
    codebook_words,
    cpf_decode_scalar,
    disjoint_ball_violation,
    oracle_decode,
    reference_member,
    run_checksum,
    words_of,
)


def test_tandem_vt_code_validation():
    TandemVTCode(4, 2, 2, (0, 1, 2))
    with pytest.raises(ValueError):
        TandemVTCode(4, 2, 2, (0, 1))
    with pytest.raises(ValueError):
        TandemVTCode(4, 2, 2, (2, 1, 2))  # a_1 > 1


def test_the_smallest_valid_constructions_build():
    """The refusals stop at their bounds: q = 2 and, for cpf, n = 0."""
    assert TandemVTCode(1, 2, 1, (0,)).codebook_rows().shape == (2, 1)
    assert PalindromeFreeCode(0, 2).codebook_rows().shape == (1, 0)


def test_c1_membership_roundtrip_invariance():
    code = TandemVTCode.best(6, 2, 2)
    from dupcodes.channel import tandem_delete

    for x in words_of(6, 2):
        member = c1_member(x, code)
        for p in range(5):
            y = tandem_duplicate(x, 2, p)
            assert c1_member(tandem_delete(y, 2, p), code) == member


def test_c1_member_length_mismatch():
    code = TandemVTCode.best(6, 2, 2)
    with pytest.raises(ValueError, match="length"):
        c1_member(word((0, 1), 2), code)


def test_c1_decode_roundtrip_exhaustive_small():
    for n, ell, q in [(6, 2, 2), (6, 1, 2), (5, 1, 3)]:
        a, _ = c1_best_params(n, ell, q)
        code = TandemVTCode(n, q, ell, a)
        book = codebook_words(code)
        kind = channel.tandem_dup(ell)
        for c in book:
            assert c1_decode(c, code) == c
            for p in range(n - ell + 1):
                y = tandem_duplicate(c, ell, p)
                assert c1_decode(y, code) == c
                assert oracle_decode(y, n, kind, reference_member(code)) == c


def test_c1_decode_failures():
    code = TandemVTCode.best(6, 2, 2)
    # length n+ell word with all-zero signature: no deletable block anywhere
    y = word((0, 0, 1, 1, 0, 0, 1, 1), 2)
    assert channel.deletion_positions(y, channel.tandem_del(2)) == []
    with pytest.raises(DecodingFailure):
        c1_decode(y, code)
    with pytest.raises(DecodingFailure):
        c1_decode(word((0, 1, 0), 2), code)  # bad length
    non_member = next(x for x in words_of(6, 2) if not c1_member(x, code))
    with pytest.raises(DecodingFailure):
        c1_decode(non_member, code)


@pytest.mark.parametrize("q,max_n,ells", [(2, 8, (1, 2, 3)), (3, 5, (1, 2))])
def test_c1_decode_equals_the_oracle_on_every_word(q, max_n, ells):
    """Every word of length n + ell, not only the round trips: the decoder
    returns c exactly when `oracle_decode` does and raises DecodingFailure
    otherwise; a word of length n passes exactly when it is a codeword.
    Checked at the best residues and at each residue shifted by one, with
    the scalar reference of the membership rule as the oracle's test."""
    for ell in ells:
        for n in range(ell, max_n + 1):
            best, _ = c1_best_params(n, ell, q)
            shifted = tuple((r + 1) % (s + 1) for s, r in enumerate(best, start=1))
            for a in (best, shifted):
                code = TandemVTCode(n, q, ell, a)
                member = reference_member(code)
                for y in words_of(n, q):
                    if member(y):
                        assert c1_decode(y, code) == y
                    else:
                        with pytest.raises(DecodingFailure):
                            c1_decode(y, code)
                for y in words_of(n + ell, q):
                    try:
                        expected = oracle_decode(y, n, channel.tandem_dup(ell), member)
                    except DecodingFailure:
                        with pytest.raises(DecodingFailure):
                            c1_decode(y, code)
                        continue
                    assert c1_decode(y, code) == expected, (code, y)


def _two_pass_c1_decode(y, code):
    """The c1 decoder as it was before D12 (`docs/decisions.md`), with scans
    of its own: the drift names k, the window test guards the cut at p_k,
    and a second scan checks the residue of the repaired word."""
    n, ell, s = code.n, code.ell, y.symbols

    def syndrome(s):
        nonzero = [i for i in range(len(s) - ell) if s[i] != s[i + ell]]
        sig = [(end - start - 1) // ell for start, end in zip([-1] + nonzero, nonzero + [len(s) - ell])]
        return nonzero, sig, sum(k * c for k, c in enumerate(sig, start=1))

    def holds(s):
        _, sig, checksum = syndrome(s)
        return checksum % (len(sig) + 1) == code.a[len(sig) - 1]

    if len(s) == n and holds(s):
        return y
    if len(s) != n + ell:
        raise DecodingFailure("not a codeword, or the wrong length")
    nonzero, sig, checksum = syndrome(s)
    if len(sig) > len(code.a):
        raise DecodingFailure("signature length outside the code's range")
    k = (checksum - code.a[len(sig) - 1]) % (len(sig) + 1)
    if k == 0 or sig[k - 1] == 0:
        raise DecodingFailure("no signature coordinate restores the residue")
    p = 0 if k == 1 else nonzero[k - 2] + 1
    repaired = s[: p + ell] + s[p + 2 * ell :]
    if s[p : p + ell] != s[p + ell : p + 2 * ell] or not holds(repaired):
        raise DecodingFailure("no tandem repeat at p, or the repair is no codeword")
    return word(repaired, code.q)


@pytest.mark.parametrize("q,n", [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 7)])
def test_c1_decode_equals_the_two_pass_decoder_on_every_word(q, n):
    """D12 drops the second scan of the repaired word: the one-pass decoder
    returns the same codeword, or raises DecodingFailure, on every word of
    length n-1..n+l+1, at the best residues and at each shifted by one."""
    for ell in range(1, min(3, n) + 1):
        best, _ = c1_best_params(n, ell, q)
        shifted = tuple((r + 1) % (s + 1) for s, r in enumerate(best, start=1))
        for a in (best, shifted):
            code = TandemVTCode(n, q, ell, a)
            for m in range(n - 1, n + ell + 2):
                for y in words_of(m, q):
                    try:
                        expected = _two_pass_c1_decode(y, code)
                    except DecodingFailure:
                        with pytest.raises(DecodingFailure):
                            c1_decode(y, code)
                        continue
                    assert c1_decode(y, code) == expected, (code, y)


def _assert_decoder_equals_the_oracle(decode, member, n, q, lengths, kind_of_length):
    """decode(y) against `oracle_decode` on every word y of the lengths,
    with an independent membership test: the same codeword, or
    DecodingFailure where no single error of kind_of_length(|y|) reaches a
    unique codeword (kind None: no such error reaches length |y|)."""
    for m in lengths:
        kind = kind_of_length(m)
        for y in words_of(m, q):
            expected = None
            if kind is not None:
                try:
                    expected = oracle_decode(y, n, kind, member)
                except DecodingFailure:
                    pass
            if expected is None:
                with pytest.raises(DecodingFailure):
                    decode(y)
            else:
                assert decode(y) == expected, (n, y)


@pytest.mark.parametrize("n", range(1, 7))
def test_c2_decode_equals_the_oracle_on_every_word(n):
    """Every (a, b) code of length n and every word of length n-1..n+3."""
    modulus = 2 * n + 1

    def kind_of_length(m):
        return channel.pal_dup(2) if m in (n, n + 2) else None

    for code in c2_groups(n)[0]:

        def member(w):
            runs = run_profile(w)
            return (runs.count(1) % 5, run_checksum(runs) % modulus) == (code.a, code.b)

        _assert_decoder_equals_the_oracle(code.decode, member, n, 2, range(n - 1, n + 4), kind_of_length)


def _two_pass_c2_decode(y, code):
    """The c2 decoder as it was before D14 (`docs/decisions.md`), with scans
    of its own: the drifts name the candidate cuts, the window test guards
    each one, and a second scan checks the syndrome of each repaired word."""
    n, s = code.n, y.symbols
    modulus = 2 * n + 1

    def syndrome(s):
        starts = [i for i in range(len(s)) if i == 0 or s[i] != s[i - 1]]
        lengths = [end - start for start, end in zip(starts, starts[1:] + [len(s)])]
        return starts, lengths.count(1), sum(j * length for j, length in enumerate(lengths, start=1))

    def holds(s):
        _, ones, checksum = syndrome(s)
        return ones % 5 == code.a and checksum % modulus == code.b

    if len(s) == n and holds(s):
        return y
    if len(s) != n + 2:
        raise DecodingFailure("not a codeword, or the wrong length")
    starts, ones, checksum = syndrome(s)
    r = len(starts)
    delta, drift = (ones - code.a) % 5, (checksum - code.b) % modulus
    candidates = []
    if delta == 0:
        if drift % 2 == 0 and drift != 0:
            if 1 <= drift // 2 <= r:
                candidates.append(starts[drift // 2 - 1])
        elif drift == (2 * r - 1) % modulus:
            candidates.append(len(s) - 4)
    elif delta in (4, 3):
        if drift % 2 == 1 and 1 <= (drift - 3) // 2 <= r - 2:
            candidates.append(starts[(drift - 3) // 2] - 1)
    elif delta == 2:
        candidates += [starts[j] - 1 for j in range(1, r - 3) if (2 * j + 5 + 2 * (len(s) - starts[j + 3])) % modulus == drift]
        if r >= 4 and drift == (2 * r - 1) % modulus:
            candidates.append(starts[r - 3] - 1)
    else:
        candidates += [starts[j] - 1 for j in range(1, r - 2) if (2 * j + 3 + 2 * (len(s) - starts[j + 2])) % modulus == drift]
    survivors = set()
    for p in candidates:
        if 0 <= p <= len(s) - 4 and s[p] == s[p + 3] and s[p + 1] == s[p + 2] and holds(s[: p + 2] + s[p + 4 :]):
            survivors.add(s[: p + 2] + s[p + 4 :])
    if len(survivors) != 1:
        raise DecodingFailure("no single preimage")
    return word(survivors.pop(), 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_c2_decode_equals_the_two_pass_decoder_on_every_word(n):
    """D14 takes each repaired candidate's syndrome in closed form instead
    of a second scan: the decoder returns the same codeword, or raises
    DecodingFailure, on every word of length n-1..n+3, for every (a, b)."""

    def outcome(decode, y, code):
        try:
            return decode(y, code)
        except DecodingFailure:
            return None

    group_codes = [PalindromicL2Code(n, a, b) for a in range(5) for b in range(2 * n + 1)]
    for m in range(n - 1, n + 4):
        for y in words_of(m, 2):
            for code in group_codes:
                assert outcome(c2_decode, y, code) == outcome(_two_pass_c2_decode, y, code), (code, y)


CPF_GRID = [(2, 6), (3, 4)]  # (q, largest n): every word of length n-1..2n+1


@pytest.mark.parametrize("q,max_n", CPF_GRID)
def test_cpf_decode_equals_the_oracle_on_every_word(q, max_n):
    """Every word of length n-1..2n+1, one `decode_rows` call per length: a
    duplication of length 2..n, or of length above n that no deletion
    undoes; a word of length n passes exactly when it has no a b b a
    window."""

    def member(w):
        s = w.symbols
        return all(s[p : p + 2] != s[p + 2 : p + 4][::-1] for p in range(len(s) - 3))

    for n in range(1, max_n + 1):
        code = PalindromeFreeCode(n, q)
        for m in range(max(0, n - 1), 2 * n + 2):
            kind = channel.pal_dup(max(2, m - n)) if m == n or m >= n + 2 else None
            for y, got in zip(words_of(m, q), code.decode_rows(all_words(m, q)).tolist()):
                expected = (-1,) * n
                if kind is not None:
                    try:
                        expected = oracle_decode(y, n, kind, member).symbols
                    except DecodingFailure:
                        pass
                assert tuple(got) == expected, (n, y)


@pytest.mark.parametrize("q,max_n", CPF_GRID)
def test_cpf_decode_rows_equal_the_scalar_decoder_on_every_word(q, max_n):
    """The row decoder against the Word-at-a-time decoder it replaced, on
    every word of length n-1..2n+1 (n = 0 too): the same codeword, or a row
    of -1 where the scalar decoder raises. The rows keep the batch's dtype.
    Batches run up to 2^13 rows, past the _CUT_ROWS that are cut at once."""
    for n in range(0, max_n + 1):
        for m in range(max(0, n - 1), 2 * n + 2):
            rows = all_words(m, q)
            decoded = cpf_decode_rows(rows, n)
            assert decoded.dtype == np.int8 and decoded.shape == (len(rows), n)
            for y, got in zip(words_of(m, q), decoded.tolist()):
                try:
                    expected = cpf_decode_scalar(y, n).symbols
                except DecodingFailure:
                    expected = (-1,) * n
                assert tuple(got) == expected, (n, y)


@pytest.mark.parametrize("q,max_n", CPF_GRID)
def test_cpf_decode_rows_fail_where_two_cuts_differ(monkeypatch, q, max_n):
    """The code's balls are disjoint, so no received word has two different
    palindrome-free cuts. With both filters patched to keep every mirrored
    cut, such words appear, and both decoders must fail exactly those."""
    monkeypatch.setattr(codes, "pal2_free_mask", lambda rows: np.ones(len(rows), dtype=bool))
    monkeypatch.setattr(conftest, "_has_mirrored_pair", lambda s: False)
    ambiguous = 0
    for n in range(2, max_n + 1):
        for m in range(n + 2, 2 * n + 1):
            for y, got in zip(words_of(m, q), cpf_decode_rows(all_words(m, q), n).tolist()):
                try:
                    expected = cpf_decode_scalar(y, n).symbols
                except DecodingFailure as failure:
                    expected = (-1,) * n
                    ambiguous += not str(failure).endswith(" 0 palindrome-free preimages")
                assert tuple(got) == expected, (n, y)
    assert ambiguous > 0


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_cpf_decode_rows_of_an_empty_batch(m):
    """No rows in, no rows out, at the lengths n-1, n, n+1 and n+2 of n = 5."""
    decoded = cpf_decode_rows(np.zeros((0, m), dtype=np.int8), 5)
    assert decoded.shape == (0, 5) and decoded.dtype == np.int8


@pytest.mark.parametrize(
    "code",
    [TandemVTCode.best(6, 2, 2), TandemVTCode.best(5, 3, 1), *c2_groups(5)[0], PalindromeFreeCode(5, 2), PalindromeFreeCode(3, 3)],
    ids=lambda code: f"{type(code).__name__}-{code.n}",
)
def test_decode_rows_equal_decode_row_by_row(code):
    """Each construction's seventh interface member: `decode_rows` gives the
    row of what `decode` returns for each word of length n-1 up to one past
    the longest duplication, and a row of -1 where `decode` raises."""
    for m in range(code.n - 1, code.n + max(kind.ell for kind in code.kinds) + 2):
        expected = []
        for y in words_of(m, code.q):
            try:
                expected.append(code.decode(y).symbols)
            except DecodingFailure:
                expected.append((-1,) * code.n)
        decoded = code.decode_rows(all_words(m, code.q))
        assert decoded.shape == (code.q**m, code.n)
        assert [tuple(row) for row in decoded.tolist()] == expected, m


def test_c1_best_params_cardinality_bounds():
    a, cardinality = c1_best_params(2, 2, 2)
    assert cardinality == 4  # whole space: single signature (0)
    for n, ell, q in [(6, 2, 2), (8, 1, 2)]:
        a, cardinality = c1_best_params(n, ell, q)
        assert cardinality >= c1_size_lower_bound(n, ell, q)
        code = TandemVTCode(n, q, ell, a)
        assert len(code.codebook_rows()) == cardinality


def test_c1_best_params_matches_scalar_recount():
    """Residues, tie-break and cardinality against a per-word recount of
    zero_signature and its VT checksum."""
    ties = 0
    for n, ell, q in [(1, 1, 2), (4, 1, 2), (7, 2, 2), (9, 3, 2), (5, 1, 3), (6, 2, 3), (4, 2, 4)]:
        counts = {}  # (signature length, residue) -> words
        for x in words_of(n, q):
            _, v = derive(x, ell)
            sig = zero_signature(v, ell)
            key = (len(sig), sum(k * c for k, c in enumerate(sig, start=1)) % (len(sig) + 1))
            counts[key] = counts.get(key, 0) + 1
        a, total = [], 0
        for s in range(1, n - ell + 2):
            row = [counts.get((s, r), 0) for r in range(s + 1)]
            a.append(row.index(max(row)))  # the smallest residue among the maxima
            total += max(row)
            ties += row.count(max(row)) > 1
        assert c1_best_params(n, ell, q) == (tuple(a), total), (n, ell, q)
    assert ties > 0  # the cases above exercise the tie-break


def test_c2_member_examples():
    code = PalindromicL2Code(8, 4, 13)
    x = parse_word("01011001", 2)
    assert c2_member(x, code)
    assert not c2_member(x, PalindromicL2Code(8, 0, 13))
    n = 6
    const = word((0,) * n, 2)
    assert c2_member(const, PalindromicL2Code(n, 0, n % (2 * n + 1)))
    with pytest.raises(ValueError, match="binary"):
        c2_member(word((0, 1, 2), 3), PalindromicL2Code(3, 0, 0))


def test_c2_decode_worked_example():
    code = PalindromicL2Code(8, 4, 13)
    y = parse_word("0101101001", 2)
    assert c2_decode(y, code) == parse_word("01011001", 2)


def test_c2_decode_identity_and_roundtrip_exhaustive():
    for n in (6, 7):
        modulus = 2 * n + 1
        for x in words_of(n, 2):
            runs = run_profile(x)
            code = PalindromicL2Code(n, runs.count(1) % 5, run_checksum(runs) % modulus)
            assert c2_decode(x, code) == x
            for p in range(n - 1):
                y = palindromic_duplicate(x, 2, p)
                assert c2_decode(y, code) == x
                assert oracle_decode(y, n, channel.pal_dup(2), reference_member(code)) == x


def test_c2_size_lower_bound_values():
    assert c2_size_lower_bound(8) == Fraction(256, 85)
    assert c2_size_lower_bound(1) == Fraction(2, 15)
    assert c2_size_lower_bound(12) == Fraction(4096, 125)
    (a, b), best = c2_best_params(8)
    assert best >= math.ceil(Fraction(256, 85))  # >= 4
    code = PalindromicL2Code(8, a, b)
    assert len(code.codebook_rows()) == best


def test_cpf_member_examples():
    assert cpf_member(parse_word("012122", 3))
    assert not cpf_member(parse_word("012212", 3))
    assert cpf_member(word((0, 0, 0), 2))
    assert cpf_member(word((1, 1), 4))
    assert not cpf_member(word((0, 0, 0, 0), 2))


def test_cpf_decode_roundtrip_and_errors():
    """Every codeword and each of its palindromic duplications, built on the
    Word route, decodes back to the codeword: one `decode_rows` call per
    duplication length."""
    n = 7
    for q in (2, 3):
        code = PalindromeFreeCode(n, q)
        book = codebook_words(code)
        rows = code.codebook_rows()
        assert np.array_equal(code.decode_rows(rows), rows)
        for ell in range(2, n + 1):
            received = [palindromic_duplicate(c, ell, p) for c in book for p in range(n - ell + 1)]
            decoded = code.decode_rows(np.array([y.symbols for y in received], dtype=np.int8))
            assert np.array_equal(decoded, np.repeat(rows, n - ell + 1, axis=0)), ell
    with pytest.raises(DecodingFailure, match="length 1"):
        cpf_decode(word((0, 1, 0, 1, 0, 1, 0, 1), 2), 7)
    with pytest.raises(DecodingFailure):
        cpf_decode(word((0, 0, 0, 0), 2), 4)  # not palindrome-free
    with pytest.raises(DecodingFailure, match="length -1"):
        cpf_decode(word((0, 1, 2), 3), 4)  # shorter than n
    with pytest.raises(DecodingFailure, match="length 3"):
        cpf_decode(word((0, 1, 2), 3), 0)  # at n = 0 only the empty word decodes
    assert cpf_decode(word((), 3), 0) == word((), 3)


def test_cpf_counts():
    assert cpf_count_recursive(3, 2) == 8
    assert cpf_count_recursive(4, 2) == 12
    # true exhaustive count at n=8 is 56 (rate 0.726)
    assert cpf_count_recursive(8, 2) == 56
    for q, max_n in ((2, 12), (3, 7)):
        for n in range(0, max_n + 1):
            assert cpf_count_recursive(n, q) == cpf_member_rows(all_words(n, q)).sum()


def test_cpf_count_closed_matches_recursive():
    for q in (2, 3, 4, 5):
        for n in range(3, 21):
            rec = cpf_count_recursive(n, q)
            assert cpf_count_closed(n, q) == pytest.approx(rec, rel=1e-6)
    assert cpf_count_closed(3, 7) == pytest.approx(343, rel=1e-9)


def test_cpf_lambda_values():
    import numpy as np

    for q in (2, 3, 4, 5, 10):
        roots = np.roots([-1.0, q - 1.0, q - 2.0, q - 1.0])
        largest = max(r.real for r in roots if abs(r.imag) < 1e-9)
        assert abs(cpf_lambda(q) - largest) < 1e-9
    assert cpf_lambda(2) == pytest.approx(1.465571231876768, abs=1e-12)
    assert math.log2(cpf_lambda(2)) == pytest.approx(0.551463, abs=1e-5)
    assert math.log(cpf_lambda(3), 3) == pytest.approx(0.890157, abs=1e-5)
    assert cpf_lambda(10**6) / 10**6 == pytest.approx(1.0, abs=1e-3)


def test_cpf_rates():
    assert cpf_rate(2, 4) == pytest.approx(0.896, abs=5e-4)
    assert cpf_rate(2, 2) == 1
    assert cpf_rate(5, 16) == pytest.approx(0.979, abs=5e-4)
    assert cpf_rate(2, 8) == pytest.approx(math.log2(56) / 8, abs=1e-12)
    assert cpf_rate(2, None) == cpf_rate(2, math.inf) == math.log(cpf_lambda(2), 2)


def test_palindrome_free_cascade():
    # 2-palindrome-free implies ell-palindrome-free for every ell >= 2
    for q, max_n in ((2, 10), (3, 7)):
        for n in range(1, max_n + 1):
            for x, free in zip(words_of(n, q), cpf_member_rows(all_words(n, q))):
                if not free:
                    continue
                for ell in range(2, n // 2 + 1):
                    assert channel.deletion_positions(x, channel.pal_del(ell)) == []


def test_oracle_decode_errors():
    (a, b), _ = c2_best_params(6)
    member = reference_member(PalindromicL2Code(6, a, b))
    uncorrectable = None
    for y in words_of(8, 2):
        try:
            oracle_decode(y, 6, channel.pal_dup(2), member)
        except DecodingFailure as exc:
            if "uncorrectable" in str(exc):
                uncorrectable = y
                break
    assert uncorrectable is not None
    with pytest.raises(ValueError):
        oracle_decode(word((0, 1, 0), 2), 6, channel.pal_dup(2), member)


def test_oracle_decode_detects_non_correcting_set():
    # the del-correcting-but-not-dup-correcting pair: shared dup-ball word
    shared = parse_word("01001101", 2)
    members = {parse_word("010101", 2), parse_word("010011", 2)}
    with pytest.raises(DecodingFailure, match="not a correcting code"):
        oracle_decode(shared, 6, channel.pal_dup(2), lambda w: w in members)


def test_disjoint_ball_violation_reports_pair():
    c1 = parse_word("010101", 2)
    c2 = parse_word("010011", 2)
    clash = disjoint_ball_violation([c1, c2], channel.pal_dup(2), 1)
    assert clash is not None and clash[2] == parse_word("01001101", 2)
    assert disjoint_ball_violation([c1, c2], channel.pal_del(2), 1) is None


@pytest.mark.parametrize(
    "cls,n,q,ell,kinds",
    [
        (TandemVTCode, 6, 2, 2, [channel.tandem_dup(2)]),
        (TandemVTCode, 5, 3, 1, [channel.tandem_dup(1)]),
        (PalindromicL2Code, 7, 2, 2, [channel.pal_dup(2)]),
        (PalindromeFreeCode, 6, 2, 1, [channel.pal_dup(ell) for ell in range(2, 7)]),
        (PalindromeFreeCode, 5, 3, 1, [channel.pal_dup(ell) for ell in range(2, 6)]),
    ],
    ids=["c1-n6-q2-l2", "c1-n5-q3-l1", "c2-n7", "cpf-n6-q2", "cpf-n5-q3"],
)
def test_construction_interface(cls, n, q, ell, kinds):
    code = cls.best(n, q, ell)
    assert isinstance(code, cls) and code.n == n
    assert list(code.kinds) == kinds
    book = codebook_words(code)
    assert book and all(code.member(c) for c in book)
    for kind in code.kinds:
        for c in book:
            for p in range(n - kind.ell + 1):
                assert code.decode(channel.apply_error(c, kind, p)) == c


def test_c2_best_refuses_nonbinary():
    with pytest.raises(ValueError, match="binary"):
        PalindromicL2Code.best(6, 3, 2)


def test_c2_codebooks_partition_the_word_space():
    n = 7
    group_codes, rows, group = c2_groups(n)
    sizes = np.bincount(group, minlength=len(group_codes))
    assert len(rows) == sizes.sum() == 2**n and sizes.min() > 0
    for g, code in enumerate(group_codes):
        assert [word(r, 2) for r in rows[group == g].tolist()] == codebook_words(code)
    assert sizes.max() == c2_best_params(n)[1]


@pytest.mark.parametrize("n", range(1, 15))
def test_c2_codebook_rows_equal_the_word_space_scan(n):
    """The pruned prefix expansion of D14 gives every (a, b) code of length n
    the rows of the scan route, in the same order, as int8 rows; an empty
    code gives shape (0, n)."""
    rows, keys = _c2_keys(n, 1 << 20)
    modulus = 2 * n + 1
    for a in range(5):
        for b in range(modulus):
            book = c2_codebook_rows(PalindromicL2Code(n, a, b))
            expected = rows[keys == a * modulus + b]
            assert book.dtype == np.int8 and book.shape == expected.shape, (a, b)
            assert np.array_equal(book, expected), (a, b)


@pytest.mark.parametrize("n,limit", [(11, 1 << 10), (21, 1 << 20), (5, 31)])
def test_c2_codebook_rows_refuse_what_all_words_refuses(n, limit):
    """No word space is built, but the guard on 2^n stays where it was, with
    the same message."""
    with pytest.raises(ValueError) as scan:
        all_words(n, 2, limit=limit)
    with pytest.raises(ValueError) as grown:
        c2_codebook_rows(PalindromicL2Code(n, 0, 0), limit)
    assert str(grown.value) == str(scan.value) == (
        f"instance too large: q^n = 2^{n} = {2**n} words exceeds the guard {limit}"
    )


def test_palindrome_free_member_refuses_other_lengths_and_alphabets():
    code = PalindromeFreeCode(5, 2)
    assert code.member(word((0, 1, 1, 0, 0), 2)) is False
    with pytest.raises(ValueError, match="length"):
        code.member(word((0, 1), 2))
    with pytest.raises(ValueError, match="alphabet"):
        code.member(word((0, 1, 2, 2, 0), 3))


def test_palindrome_free_decode_refuses_other_alphabets():
    code = PalindromeFreeCode(4, 3)
    assert code.decode(word((0, 1, 0, 1), 3)) == word((0, 1, 0, 1), 3)
    with pytest.raises(ValueError, match="alphabet"):
        code.decode(word((0, 1, 0, 1), 2))
    with pytest.raises(ValueError, match="alphabet"):
        code.decode(word((0, 1, 1, 0, 1, 1), 2))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: TandemVTCode(3, 2, 4, ()), "1 <= ell <= n"),
        (lambda: c1_member(word((0, 1, 2, 0), 3), TandemVTCode.best(4, 2, 1)), "alphabet mismatch"),
        (lambda: c1_decode(word((0, 1, 2, 0), 3), TandemVTCode.best(4, 2, 1)), "alphabet mismatch"),
        (lambda: PalindromicL2Code(0, 0, 0), "n must be >= 1"),
        (lambda: PalindromicL2Code(4, 5, 0), "a must be in 0..4"),
        (lambda: PalindromicL2Code(4, -1, 0), "a must be in 0..4"),
        (lambda: PalindromicL2Code(4, 0, 9), "b must be in 0..8"),
        (lambda: PalindromicL2Code(4, 0, -1), "b must be in 0..8"),
        (lambda: c2_member(word((0, 1, 1), 2), PalindromicL2Code(4, 0, 0)), "length mismatch"),
        (lambda: c2_decode(word((0, 1, 2, 0), 3), PalindromicL2Code(4, 0, 0)), "binary only"),
        (lambda: TandemVTCode(4, 1, 1, (0, 1, 2, 3)), "q must be >= 2"),
        (lambda: PalindromeFreeCode(5, 1), "q must be >= 2"),
        (lambda: PalindromeFreeCode(-2, 3), "n must be >= 0"),
        (lambda: PalindromeFreeCode.best(-1, 2, 2), "n must be >= 0"),
    ],
    ids=[
        "c1-ell-above-n", "c1-member-alphabet", "c1-decode-alphabet", "c2-n-below-1", "c2-a-above-4",
        "c2-a-below-0", "c2-b-above-2n", "c2-b-below-0", "c2-member-length", "c2-decode-ternary",
        "c1-q-below-2", "cpf-q-below-2", "cpf-n-below-0", "cpf-best-n-below-0",
    ],
)
def test_construction_refusals_name_what_is_wrong(call, message):
    """Each refusal is made where the parameters or the word enter: a code
    that no word space holds is refused when it is built, not when its
    codebook is enumerated or its rows are decoded."""
    with pytest.raises(ValueError, match=message):
        call()


# small codes of every construction: each c1 (n, q, ell), every c2 (a, b) group, each cpf (n, q)
_CONTRACT_CODES = (
    [TandemVTCode.best(n, q, ell) for q in (2, 3) for n in range(1, 7) for ell in range(1, min(n, 3) + 1)]
    + [code for n in range(1, 8) for code in c2_groups(n)[0]]
    + [PalindromeFreeCode(n, q) for q in (2, 3) for n in range(0, 7)]
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_CONTRACT_CODES), st.data())
def test_decoders_return_a_member_or_raise_decoding_failure(code, data):
    """Any word over the code's alphabet of length 0..2n+1: the decoder returns
    a codeword of length n or raises DecodingFailure, never anything else."""
    length = data.draw(st.integers(0, 2 * code.n + 1))
    y = word(data.draw(st.lists(st.integers(0, code.q - 1), min_size=length, max_size=length)), code.q)
    try:
        x = code.decode(y)
    except DecodingFailure:
        return
    assert len(x) == code.n and code.member(x)

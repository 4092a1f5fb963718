"""The one-pass syndrome helpers behind the decoders and the scalar
membership references, against the slow routes they replace: `derive` and
`zero_signature` for c1, `run_profile` for c2, and the wordspace kernels for
all three, on every word of each small length. The c1 scan runs every block
length up to the word length, so the tails it slices off can be empty. The
c1 repair is held to the syndrome update of `docs/decisions.md` D12, and the
c2 cut to the closed form of D14. The row members of D18 are held to the
scalar references on the same grid, and must call none of the kernels that
build the codebooks; each `member` equals its one-row call of them."""

from bisect import bisect_right
from itertools import product

import numpy as np
import pytest

from dupcodes import codes, wordspace
from dupcodes.codes import (
    PalindromeFreeCode,
    PalindromicL2Code,
    TandemVTCode,
    _c1_syndrome,
    _c2_cut_syndrome,
    _c2_syndrome,
    c1_best_params,
    c1_decode,
)
from dupcodes.transform import derive, zero_signature
from dupcodes.words import run_profile
from dupcodes.wordspace import all_words, pal2_free_mask, run_stats, signature_scan

from conftest import _has_mirrored_pair, c1_holds, c2_holds, run_checksum, words_of

SIZES = [(2, n) for n in range(0, 11)] + [(3, n) for n in range(0, 7)] + [(4, n) for n in range(0, 6)]


@pytest.mark.parametrize("q,n", SIZES)
def test_c1_syndrome_equals_the_derivative_and_the_signature_scan(q, n):
    for ell in range(1, n + 1):
        sig_len, weight, csum = signature_scan(all_words(n, q), ell)
        for i, x in enumerate(words_of(n, q)):
            nonzero, sig, checksum = _c1_syndrome(x.symbols, ell)
            _, v = derive(x, ell)
            assert nonzero == [k for k, d in enumerate(v.symbols) if d], (x, ell)
            assert tuple(sig) == zero_signature(v, ell), (x, ell)
            assert checksum == sum(k * c for k, c in enumerate(sig, start=1))
            assert (len(sig), sum(1 for c in sig if c), checksum) == (sig_len[i], weight[i], csum[i]), (x, ell)


@pytest.mark.parametrize("q,n", [(q, n) for q, n in SIZES if n >= 1])
def test_c2_syndrome_equals_the_run_profile_and_run_stats(q, n):
    runs, ones_col, csum = run_stats(all_words(n, q))
    for i, x in enumerate(words_of(n, q)):
        starts, ones, checksum = _c2_syndrome(x.symbols)
        lengths = run_profile(x)
        assert starts == [sum(lengths[:j]) for j in range(len(lengths))], x
        assert (ones, checksum) == (lengths.count(1), run_checksum(lengths)), x
        assert (len(starts), ones, checksum) == (runs[i], ones_col[i], csum[i]), x


@pytest.mark.parametrize("q,n", SIZES)
def test_mirrored_pair_test_equals_the_palindrome_free_mask(q, n):
    free = pal2_free_mask(all_words(n, q))
    for i, x in enumerate(words_of(n, q)):
        s = x.symbols
        windows = any(s[p : p + 2] == s[p + 2 : p + 4][::-1] for p in range(n - 3))
        assert _has_mirrored_pair(s) == windows == (not free[i]), x


@pytest.mark.parametrize("q,n", [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 7)])
def test_the_c1_repair_moves_the_syndrome_by_one_signature_entry(q, n):
    """Every word y of length n + l (l = 1..3) and every entry k >= 1 of its
    signature that a code's residue for |sig| can make the drift: c1_decode
    cuts the repeated block at p_k, and a fresh scan of the word it returns
    equals the update of D12 (nonzeros from p_k on moved down by l, sig_k
    lowered by one, checksum lowered by k), which meets the residue."""
    for ell in range(1, min(3, n) + 1):
        best, _ = c1_best_params(n, ell, q)
        by_residue = {}
        for y in words_of(n + ell, q):
            s = y.symbols
            nonzero, sig, checksum = _c1_syndrome(s, ell)
            size = len(sig)
            if size > len(best):
                continue  # refused before any repair
            for k in range(1, size + 1):
                if not sig[k - 1]:
                    continue
                residue = (checksum - k) % (size + 1)
                if (size, residue) not in by_residue:
                    by_residue[size, residue] = TandemVTCode(n, q, ell, best[: size - 1] + (residue,) + best[size:])
                code = by_residue[size, residue]
                p = 0 if k == 1 else nonzero[k - 2] + 1
                x = c1_decode(y, code)
                assert x.symbols == s[: p + ell] + s[p + 2 * ell :], (y, ell, k)
                lowered = sig[: k - 1] + [sig[k - 1] - 1] + sig[k:]
                update = ([i if i < p else i - ell for i in nonzero], lowered, checksum - k)
                assert _c1_syndrome(x.symbols, ell) == update, (y, ell, k)
                assert update[2] % (size + 1) == code.a[size - 1]


@pytest.mark.parametrize("m", range(4, 17))
def test_the_c2_cut_syndrome_equals_a_scan_of_the_cut_word(m):
    """Every mirrored pair a b b a at p of every binary word of length m
    (393,220 cuts over m = 4..16): the closed form of D14, from the word's
    syndrome and the run i that holds p, equals `_c2_syndrome` of
    s[:p+2] + s[p+4:]."""
    cuts = 0
    for s in product((0, 1), repeat=m):
        starts, ones, checksum = _c2_syndrome(s)
        for p in range(m - 3):
            if s[p] == s[p + 3] and s[p + 1] == s[p + 2]:
                i = bisect_right(starts, p) - 1
                assert _c2_cut_syndrome(s, starts, ones, checksum, p, i) == _c2_syndrome(s[: p + 2] + s[p + 4 :])[1:], (s, p)
                cuts += 1
    # a window mirrors for 4 of its 16 fillings: (m - 3) * 2^(m-2) cuts
    assert cuts == (m - 3) * 2 ** (m - 2)


def c1_codes(n, q, ell):
    """n - ell + 2 codes whose residues together take every value 0..s at
    every signature length s: code r requires r mod (s + 1)."""
    sizes = range(1, n - ell + 2)
    return [TandemVTCode(n, q, ell, tuple(r % (s + 1) for s in sizes)) for r in range(n - ell + 2)]


@pytest.mark.parametrize("q,n", [(q, n) for q, n in SIZES if n >= 1])
def test_c1_member_rows_equal_the_reference(q, n):
    """Every word, every ell in 1..n (at ell = n the difference tail is
    empty), and every residue at every signature length."""
    rows, words = all_words(n, q), [x.symbols for x in words_of(n, q)]
    for ell in range(1, n + 1):
        for code in c1_codes(n, q, ell):
            assert code.member_rows(rows).tolist() == [c1_holds(s, code) for s in words], code


@pytest.mark.parametrize("n", range(1, 11))
def test_c2_member_rows_equal_the_reference(n):
    """Every binary word, for every (a, b) up to n = 8 and for the best
    (a, b) and each a beside it past that."""
    rows, words = all_words(n, 2), [x.symbols for x in words_of(n, 2)]
    if n <= 8:
        group_codes = [PalindromicL2Code(n, a, b) for a in range(5) for b in range(2 * n + 1)]
    else:
        best = PalindromicL2Code.best(n, 2, 2)
        group_codes = [PalindromicL2Code(n, a, best.b) for a in range(5)]
    for code in group_codes:
        assert code.member_rows(rows).tolist() == [c2_holds(s, code) for s in words], code


@pytest.mark.parametrize("q,n", SIZES)
def test_cpf_member_rows_equal_the_reference(q, n):
    """Every word, n < 4 too, where no window fits and every word is a
    codeword."""
    expected = [not _has_mirrored_pair(x.symbols) for x in words_of(n, q)]
    assert PalindromeFreeCode(n, q).member_rows(all_words(n, q)).tolist() == expected
    assert n >= 4 or all(expected)


@pytest.mark.parametrize("q,n", SIZES)
def test_member_is_the_one_row_call_of_member_rows(q, n):
    """`member(x)` of every word equals x's row of one `member_rows` call
    over all the words: c1 at every ell in 1..n with its best residues, the
    best c2 class (binary words), and cpf (n = 0 too)."""
    rows, words = all_words(n, q), list(words_of(n, q))
    constructions = [TandemVTCode.best(n, q, ell) for ell in range(1, n + 1)] + [PalindromeFreeCode(n, q)]
    if q == 2 and n >= 1:
        constructions.append(PalindromicL2Code.best(n, 2, 2))
    for code in constructions:
        assert [code.member(x) for x in words] == code.member_rows(rows).tolist(), code


def member_cases(n, q):
    """(code, reference on a symbol tuple) for one code of each construction."""
    c1, c2 = TandemVTCode.best(n, q, 2), PalindromicL2Code.best(n, 2, 2)
    return [
        (c1, lambda s: c1_holds(s, c1)),
        (c2, lambda s: c2_holds(s, c2)),
        (PalindromeFreeCode(n, q), lambda s: not _has_mirrored_pair(s)),
    ]


@pytest.mark.parametrize("n", [2, 4, 7])
def test_member_rows_of_an_empty_batch(n):
    for code, _ in member_cases(n, 2):
        got = code.member_rows(np.zeros((0, n), dtype=np.int8))
        assert got.dtype == np.bool_ and got.shape == (0,), code


def test_member_rows_past_the_cut(monkeypatch):
    """All 4096 binary words of length 12, twice _CUT_ROWS, in one call; and
    the same answers with the cut lowered to 7 rows."""
    rows, words = all_words(12, 2), [x.symbols for x in words_of(12, 2)]
    assert len(rows) == 2 * codes._CUT_ROWS
    cases = member_cases(12, 2)
    for code, reference in cases:
        assert code.member_rows(rows).tolist() == [reference(s) for s in words], code
    expected = [code.member_rows(rows).tolist() for code, _ in cases]
    monkeypatch.setattr(codes, "_CUT_ROWS", 7)
    assert [code.member_rows(rows).tolist() for code, _ in cases] == expected


@pytest.mark.parametrize("q,n", [(2, 9), (3, 6)])
def test_member_rows_call_no_codebook_kernel(monkeypatch, q, n):
    """The cross-check of `oracle_verdicts` tests the construction's own
    rule: with the kernels that build the codebooks and filter the cpf cuts
    patched to raise, each row member still gives the reference answers."""
    rows, words = all_words(n, q), [x.symbols for x in words_of(n, q)]
    cases = member_cases(n, q)

    def refuse(*args, **kwargs):
        raise AssertionError("a codebook kernel was called")

    for module in (codes, wordspace):
        for name in ("signature_scan", "run_stats", "pal2_free_mask"):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(codes, "_c2_completions", refuse)
    for code, reference in cases:
        if code.q == q:
            assert code.member_rows(rows).tolist() == [reference(s) for s in words], code

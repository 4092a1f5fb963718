"""The one-pass syndrome helpers behind every member and decoder, against
the slow routes they replace: `derive` and `zero_signature` for c1,
`run_profile` for c2, and the wordspace kernels for all three, on every
word of each small length."""

import pytest

from dupcodes.codes import _c1_syndrome, _c2_syndrome, _has_mirrored_pair
from dupcodes.transform import derive, zero_signature
from dupcodes.words import run_profile
from dupcodes.wordspace import all_words, pal2_free_mask, run_stats, signature_scan

from conftest import words_of

SIZES = [(2, n) for n in range(0, 11)] + [(3, n) for n in range(0, 7)]


@pytest.mark.parametrize("q,n", SIZES)
def test_c1_syndrome_equals_the_derivative_and_the_signature_scan(q, n):
    for ell in range(1, min(3, n) + 1):
        sig_len, weight, csum = signature_scan(all_words(n, q), ell)
        for i, x in enumerate(words_of(n, q)):
            nonzero, sig, checksum = _c1_syndrome(x.symbols, ell)
            v = derive(x, ell).v
            assert nonzero == [k for k, d in enumerate(v.symbols) if d], (x, ell)
            assert tuple(sig) == zero_signature(v, ell), (x, ell)
            assert checksum == sum(k * c for k, c in enumerate(sig, start=1))
            assert (len(sig), sum(1 for c in sig if c), checksum) == (sig_len[i], weight[i], csum[i]), (x, ell)


@pytest.mark.parametrize("q,n", [(q, n) for q, n in SIZES if n >= 1])
def test_c2_syndrome_equals_the_run_profile_and_run_stats(q, n):
    runs, ones_col, csum = run_stats(all_words(n, q))
    for i, x in enumerate(words_of(n, q)):
        starts, ones, checksum = _c2_syndrome(x.symbols)
        prof = run_profile(x)
        assert starts == [sum(prof.lengths[:j]) for j in range(prof.num_runs)], x
        assert (ones, checksum) == (prof.count_of_length(1), prof.checksum()), x
        assert (len(starts), ones, checksum) == (runs[i], ones_col[i], csum[i]), x


@pytest.mark.parametrize("q,n", SIZES)
def test_mirrored_pair_test_equals_the_palindrome_free_mask(q, n):
    free = pal2_free_mask(all_words(n, q))
    for i, x in enumerate(words_of(n, q)):
        s = x.symbols
        windows = any(s[p : p + 2] == s[p + 2 : p + 4][::-1] for p in range(n - 3))
        assert _has_mirrored_pair(s) == windows == (not free[i]), x

"""The counted parameter tables against the word-space scans they replace.

`_c1_counts` and `_c2_counts` count the (signature length, VT residue) and
(a, b) tables over compositions (`docs/decisions.md`, D6). The scans
`_c1_keys` and `_c2_keys` stay as the independent route: a bincount of
their keys over every word is the same table.
"""

import sys

import numpy as np
import pytest

from dupcodes import bounds, codes, wordspace
from dupcodes.codes import (
    TandemVTCode,
    _c1_counts,
    _c1_keys,
    _c2_counts,
    _c2_keys,
    c1_best_params,
    c1_size_lower_bound,
    c2_best_params,
    c2_size_lower_bound,
)
from dupcodes.wordspace import all_words

_SCANNED = 1 << 16  # the largest word space the differential grid scans


def _scanned_c1_table(n, ell, q):
    _, sig_len, residues = _c1_keys(n, ell, q, limit=_SCANNED)
    width = n - ell + 2
    table = np.bincount(sig_len * width + residues, minlength=width * width)
    return table.reshape(width, width)[1:]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_c1_counts_equal_the_scan(q, ell):
    n = ell
    while q**n <= _SCANNED:
        scanned = _scanned_c1_table(n, ell, q)
        counted = _c1_counts(n, ell, q)
        assert counted.dtype == np.int64
        assert np.array_equal(counted, scanned), (n, ell, q)
        # the first maximum of each row: the smallest residue wins ties
        best = (tuple(scanned.argmax(axis=1).tolist()), int(scanned.max(axis=1).sum()))
        assert c1_best_params(n, ell, q) == best
        n += 1


def test_c2_counts_equal_the_scan():
    for n in range(1, 19):
        _, keys = _c2_keys(n, limit=1 << 18)
        scanned = np.bincount(keys, minlength=5 * (2 * n + 1))
        assert np.array_equal(_c2_counts(n).ravel(), scanned), n
        # the first maximum in (a, b) order
        assert c2_best_params(n) == (divmod(int(scanned.argmax()), 2 * n + 1), int(scanned.max()))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_c1_counts_past_the_guard(q, ell):
    """Beyond 2^20 words: the table still covers Z_q^n exactly, and the best
    residues meet the pigeonhole guarantee."""
    for n in sorted({ell, 21, 30, 40}):
        if q**n > sys.maxsize:
            continue
        counted = _c1_counts(n, ell, q)
        assert int(counted.sum()) == q**n
        _, cardinality = c1_best_params(n, ell, q)
        assert cardinality >= c1_size_lower_bound(n, ell, q)


def test_counts_beyond_int64_stay_exact():
    """Past 2^63 words the tables hold Python ints."""
    counted = _c1_counts(40, 2, 4)
    assert counted.dtype == object and sum(counted.ravel().tolist()) == 4**40
    assert c1_best_params(40, 2, 4)[1] >= c1_size_lower_bound(40, 2, 4)
    for n in (62, 63, 80):
        counted = _c2_counts(n)
        assert sum(counted.ravel().tolist()) == 2**n
        assert c2_best_params(n)[1] >= c2_size_lower_bound(n)


def test_best_params_and_the_bound_table_never_enumerate(monkeypatch):
    def no_scan(*_args, **_kwargs):
        raise AssertionError("a word space was scanned")

    for module in (codes, bounds, wordspace):
        monkeypatch.setattr(module, "all_words", no_scan)
    for name in ("signature_scan", "run_stats"):
        monkeypatch.setattr(codes, name, no_scan)
    assert c1_best_params(12, 1, 2)[1] > 0
    assert TandemVTCode.best(10, 4, 3).n == 10
    assert c2_best_params(19)[1] > 0
    rows = bounds.redundancy_table(range(2, 21), 2, 2)
    assert [row.n for row in rows] == list(range(2, 21))


@pytest.mark.parametrize("n,q", [(30, 4), (21, 2), (1, 300)])
def test_counts_take_the_spaces_that_all_words_refuses(n, q):
    """The counts read no word space, so no q^n guard or int8 row limits them."""
    with pytest.raises(ValueError):
        all_words(n, q)
    assert c1_best_params(n, 1, q)[1] >= c1_size_lower_bound(n, 1, q)
    if q == 2:
        assert c2_best_params(n)[1] >= c2_size_lower_bound(n)


@pytest.mark.parametrize(
    "count,args,message",
    [
        (c1_best_params, (5, 1, 1), "q must be >= 2"),
        (c1_best_params, (5, 1, 0), "q must be >= 2"),
        (c1_best_params, (3, 1, -2), "q must be >= 2"),
        (c2_best_params, (-1,), "run statistics need nonempty words"),
    ],
    ids=["c1-q1", "c1-q0", "c1-negative-q", "c2-negative-n"],
)
def test_counts_refuse_only_what_they_cannot_count(count, args, message):
    """Beside a block length outside 1..n and n = 0 (below), the counts
    refuse only an alphabet below 2 and a negative length."""
    with pytest.raises(ValueError) as refused:
        count(*args)
    assert str(refused.value) == message


@pytest.mark.parametrize("n,ell", [(5, 0), (5, -1), (3, 4), (0, 1)])
def test_c1_best_params_refuses_a_block_length_outside_1_to_n(n, ell):
    with pytest.raises(ValueError):
        c1_best_params(n, ell, 2)


def test_c2_best_params_refuses_the_empty_length():
    with pytest.raises(ValueError):
        c2_best_params(0)

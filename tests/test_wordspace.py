import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dupcodes.transform import derive, zero_signature
from dupcodes.words import Word, run_profile
from dupcodes.wordspace import (
    all_words,
    backend,
    distinct,
    key_rows,
    packed_keys,
    pal2_free_mask,
    run_stats,
    runs_start,
    signature_scan,
)

from conftest import run_checksum


def _scalar_signature(row, ell, q):
    x = Word(tuple(int(s) for s in row), q)
    _, v = derive(x, ell)
    sig = zero_signature(v, ell)
    checksum = sum(k * c for k, c in enumerate(sig, start=1))
    weight = sum(1 for c in sig if c > 0)
    return len(sig), weight, checksum


def _scalar_run_stats(row, q):
    x = Word(tuple(int(s) for s in row), q)
    runs = run_profile(x)
    return len(runs), runs.count(1), run_checksum(runs)


def _scalar_pal2_free(row, q):
    s = tuple(int(v) for v in row)
    return not any(s[p] == s[p + 3] and s[p + 1] == s[p + 2] for p in range(len(s) - 3))


def _assert_stats(got, expected):
    """Kernel triple against oracle rows: int64 columns, equal values."""
    expected = np.array(expected, dtype=np.int64).reshape(-1, 3)
    for k, column in enumerate(got):
        assert column.dtype == np.int64
        assert column.tolist() == expected[:, k].tolist(), k


def _assert_signature(arr, q, ell):
    _assert_stats(signature_scan(arr, ell), [_scalar_signature(row, ell, q) for row in arr])


def _assert_run_stats(arr, q):
    _assert_stats(run_stats(arr), [_scalar_run_stats(row, q) for row in arr])


def _assert_pal2_free(arr, q):
    got = pal2_free_mask(arr)
    assert got.dtype == np.bool_
    assert got.tolist() == [_scalar_pal2_free(row, q) for row in arr]


def test_all_words_lexicographic():
    arr = all_words(2, 3)
    assert arr.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [2, 2]]
    assert all_words(0, 2).shape == (1, 0)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 7), (3, 4), (5, 3)])
def test_all_words_rows_are_base_q_digits(q, n):
    arr = all_words(n, q)
    assert arr.dtype == np.int8 and arr.flags.c_contiguous
    weights = q ** np.arange(n - 1, -1, -1)
    assert (arr.astype(np.int64) @ weights).tolist() == list(range(q**n))


def test_all_words_guard():
    with pytest.raises(ValueError, match="guard"):
        all_words(30, 4)
    with pytest.raises(ValueError):
        all_words(1, 300)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 6), (2, 9), (3, 5), (4, 4), (5, 3)])
def test_signature_scan_matches_scalar(q, n):
    arr = all_words(n, q)
    for ell in range(1, n + 1):
        _assert_signature(arr, q, ell)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 8), (3, 5), (5, 3)])
def test_run_stats_matches_scalar(q, n):
    _assert_run_stats(all_words(n, q), q)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 3), (2, 4), (2, 9), (3, 6), (4, 4)])
def test_pal2_free_matches_scalar(q, n):
    _assert_pal2_free(all_words(n, q), q)


def test_kernel_argument_errors():
    arr = all_words(3, 2)
    with pytest.raises(ValueError, match="exceeds"):
        signature_scan(arr, 4)
    with pytest.raises(ValueError):
        signature_scan(arr, 0)
    with pytest.raises(ValueError, match="nonempty"):
        run_stats(all_words(0, 2))


def test_long_words_widen_the_state():
    """Checksums past the int16 range: n = 400 gives sums near 40000."""
    half = [i % 2 for i in range(200)]
    rows = np.array([half + [0] * 200, [i % 2 for i in range(400)], [0] * 400], dtype=np.int8)
    for ell in (1, 2):
        _assert_signature(rows, 2, ell)
    _assert_run_stats(rows, 2)
    _assert_pal2_free(rows, 2)


def test_many_rows_same_as_fortran_input():
    """2^17 rows of length 17 take several cache blocks to transpose; a
    Fortran-ordered copy of the same rows needs no transposing."""
    arr = all_words(17, 2)
    fortran = np.asfortranarray(arr)
    for ell in (1, 2, 5):
        for got, ref in zip(signature_scan(arr, ell), signature_scan(fortran, ell)):
            assert (got == ref).all()
    for got, ref in zip(run_stats(arr), run_stats(fortran)):
        assert (got == ref).all()
    assert (pal2_free_mask(arr) == pal2_free_mask(fortran)).all()


@st.composite
def _word_arrays(draw):
    """(array, q): random rows over Z_q in C order, Fortran order, or a strided view."""
    q = draw(st.integers(2, 5))
    n = draw(st.integers(0, 40))
    rows = draw(st.integers(0, 12))
    layout = draw(st.sampled_from(("C", "F", "strided")))
    shape = (2 * rows, 2 * n) if layout == "strided" else (rows, n)
    arr = draw(arrays(np.int8, shape, elements=st.integers(0, q - 1)))
    if layout == "F":
        arr = np.asfortranarray(arr)
    elif layout == "strided":
        arr = arr[::2, 1::2]
    return arr, q


@settings(max_examples=150, deadline=None)
@given(_word_arrays(), st.integers(1, 40))
def test_kernels_match_scalar_on_random_rows(data, ell):
    arr, q = data
    n = arr.shape[1]
    if n >= 1:
        _assert_signature(arr, q, (ell - 1) % n + 1)
        _assert_run_stats(arr, q)
    _assert_pal2_free(arr, q)


def test_backend_name():
    assert backend() == "numpy"


@pytest.mark.parametrize("n,q", [(0, 2), (1, 3), (6, 2), (4, 3), (3, 5)])
def test_packed_keys_sort_as_the_rows(n, q):
    arr = all_words(n, q)
    keys = packed_keys(arr, q)
    assert keys.dtype == np.int64
    assert keys.tolist() == list(range(q**n))  # base-q value; all_words is lexicographic
    shuffled = arr[np.random.default_rng(n).permutation(len(arr))]
    assert sorted(map(tuple, shuffled.tolist())) == [tuple(r) for r in shuffled[np.argsort(packed_keys(shuffled, q))].tolist()]
    prefix = np.arange(len(arr))[::-1] % 3
    grouped = packed_keys(arr, q, prefix=prefix)
    assert (grouped >> (q**n - 1).bit_length()).tolist() == prefix.tolist()
    assert (grouped - (prefix.astype(np.int64) << (q**n - 1).bit_length())).tolist() == keys.tolist()


def test_packed_keys_refuse_more_than_63_bits():
    assert packed_keys(np.ones((1, 63), dtype=np.int8), 2).tolist() == [2**63 - 1]
    with pytest.raises(ValueError, match="int64"):
        packed_keys(np.zeros((0, 64), dtype=np.int8), 2)
    with pytest.raises(ValueError, match="int64"):
        packed_keys(np.zeros((2, 62), dtype=np.int8), 2, prefix=np.array([0, 2]))
    assert packed_keys(np.zeros((2, 62), dtype=np.int8), 2, prefix=np.array([0, 1])).tolist() == [0, 2**62]
    with pytest.raises(ValueError, match="int64"):
        packed_keys(np.zeros((1, 40), dtype=np.int8), 3)


@pytest.mark.parametrize("n,q", [(0, 2), (1, 3), (6, 2), (4, 3), (3, 5)])
def test_key_rows_inverts_packed_keys(n, q):
    arr = all_words(n, q)
    shuffled = arr[np.random.default_rng(n).permutation(len(arr))]
    back = key_rows(packed_keys(shuffled, q), n, q)
    assert back.dtype == np.int8 and back.tolist() == shuffled.tolist()


@given(arrays(np.int64, st.integers(0, 60), elements=st.integers(-5, 5)))
@settings(max_examples=200, deadline=None)
def test_distinct_matches_np_unique(keys):
    values, first, inverse = distinct(keys)
    expected = np.unique(keys, return_index=True, return_inverse=True)
    assert [values.tolist(), first.tolist(), inverse.tolist()] == [a.tolist() for a in expected]
    assert runs_start(np.sort(keys)).sum() == len(values)

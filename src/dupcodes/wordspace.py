"""Batch scans over complete word spaces Z_q^n.

Codebook enumeration and the exhaustive checks reduce to computing a
handful of per-word statistics across every word of a given length. These
scans are the hot loops of the package. The best code parameters and the
bound tables are counted without a scan, so they take no `limit`: the
guard on q^n sits where a word space is built, in `all_words`
(`docs/decisions.md`, D8).

Kernels take an (N, n) array of words (one row per word, any memory order)
and return per-row statistics as int64 arrays:

  signature_scan(words, ell) -> (sig_len, sig_weight, vt_checksum)
      length wt_H(v)+1 of the ell-zero-signature of the difference tail,
      its number of positive entries, and the position-weighted checksum
      sum_k k * sigma_k (unreduced).
  run_stats(words) -> (run_count, len1_runs, checksum)
  pal2_free_mask(words) -> bool mask of words with no a b b a window

packed_keys(words, q, prefix) turns each row into one int64 base-q key that
sorts as the row does, so a batch of words can be sorted, deduplicated and
looked up as integers; key_rows(keys, n, q) turns keys back into rows.
Deduplication is a sort and a compare of neighbours: runs_start marks the
first of each run of equal values, and distinct(keys) is the package's
np.unique built on it.

Each kernel streams over symbol columns: it takes one column-major copy of
the rows and runs the per-word left-to-right recursion for all rows at
once, one column per step. The per-row state lives in a few length-N
arrays of the narrowest integer type that cannot overflow for the word
length, so memory stays O(N) beyond the copy.
"""

import numpy as np

MAX_ENUMERABLE = 1 << 20  # default guard on q**n for full-space enumeration


def require_enumerable(n: int, q: int, limit: int = MAX_ENUMERABLE) -> int:
    """q**n, after refusing (ValueError) the spaces that `all_words` refuses:
    n < 0, q < 2, q > 127 (int8 rows) and more than `limit` words. Callers
    that enumerate a space later check it here first."""
    if n < 0 or q < 2:
        raise ValueError("need n >= 0 and q >= 2")
    if q > 127:
        raise ValueError("full-space enumeration supports q <= 127")
    total = q**n
    if total > limit:
        raise ValueError(
            f"instance too large: q^n = {q}^{n} = {total} words exceeds the guard {limit}"
        )
    return total


def all_words(n: int, q: int, limit: int = MAX_ENUMERABLE) -> np.ndarray:
    """All q**n words of length n as an (q**n, n) int8 array, lexicographic.

    Refuses spaces larger than `limit` words; pass a larger limit (or rely
    on the CLI --force flag) to override.
    """
    total = require_enumerable(n, q, limit)
    out = np.empty((total, n), dtype=np.int8)
    symbols = np.arange(q, dtype=np.int8)[:, None]
    for j in range(n):
        # rows split into q**j blocks of q runs of q**(n-1-j) rows; run d holds symbol d
        out.reshape(q**j, q, q ** (n - 1 - j), n)[:, :, :, j] = symbols
    return out


_BLOCK_BYTES = 1 << 19  # input bytes _columns transposes per step; a block stays in cache


def _columns(words) -> np.ndarray:
    """The words as an (n, N) C-contiguous array: one row per symbol position.

    Copied one cache-sized block of rows at a time: a single transposing copy
    of the whole array reads it from memory once per output row.
    """
    rows = np.asarray(words)
    if rows.T.flags.c_contiguous:
        return rows.T
    N, n = rows.shape
    cols = np.empty((n, N), dtype=rows.dtype)
    step = max(1, _BLOCK_BYTES // max(1, n * rows.itemsize))
    for start in range(0, N, step):
        cols[:, start : start + step] = rows[start : start + step].T
    return cols


def _state(N: int, largest: int, fill: int = 0) -> np.ndarray:
    """Length-N per-row state array of the narrowest signed type holding `largest`."""
    for dtype in (np.int16, np.int32, np.int64):
        if largest <= np.iinfo(dtype).max:
            return np.full(N, fill, dtype=dtype)
    raise OverflowError(f"state value {largest} exceeds int64")


def signature_scan(words, ell):
    """(sig_len, sig_weight, vt_checksum) of every row; see the module docstring."""
    cols = _columns(words)
    n, N = cols.shape
    if ell < 1:
        raise ValueError("ell must be >= 1")
    m = n - ell
    if m < 0:
        raise ValueError("ell exceeds word length")
    # per row: zeros = length of the current zero run of the difference tail,
    # gap = 1 + nonzeros so far (the signature index of the current run)
    zeros = _state(N, n)
    gap = _state(N, n, fill=1)
    weight = _state(N, n)
    checksum = _state(N, n * n)  # sum of gap * blocks <= (m + 1) * m
    scratch = (np.empty_like(checksum), np.empty(N, dtype=np.bool_))
    nonzero = np.empty(N, dtype=np.bool_)
    for i in range(m):
        np.not_equal(cols[i + ell], cols[i], out=nonzero)
        _close_zero_runs(nonzero, zeros, gap, ell, weight, checksum, scratch)
        gap += nonzero
        zeros += 1
        zeros *= ~nonzero
    _close_zero_runs(np.True_, zeros, gap, ell, weight, checksum, scratch)
    return gap.astype(np.int64), weight.astype(np.int64), checksum.astype(np.int64)


def _close_zero_runs(ending, zeros, gap, ell, weight, checksum, scratch):
    """Where `ending`, the current zero run ends: its ell-blocks raise signature
    entry `gap` by zeros // ell, which adds one to the weight when positive
    and gap * blocks to the checksum."""
    blocks, positive = scratch
    np.floor_divide(zeros, ell, out=blocks)
    np.greater(blocks, 0, out=positive)
    positive &= ending
    weight += positive
    blocks *= gap
    blocks *= ending
    checksum += blocks


def run_stats(words):
    """(run_count, len1_runs, checksum) of every row; the checksum is
    sum_k k * (length of run k), the sum over positions of their run index."""
    cols = _columns(words)
    n, N = cols.shape
    if n == 0:
        raise ValueError("run statistics need nonempty words")
    runs = _state(N, n, fill=1)  # run index of the current position
    checksum = _state(N, n * (n + 1) // 2, fill=1)
    singles = _state(N, n)
    before = np.ones(N, dtype=np.bool_)  # a run boundary precedes the previous position
    boundary = np.empty(N, dtype=np.bool_)
    for i in range(1, n):
        np.not_equal(cols[i], cols[i - 1], out=boundary)
        before &= boundary  # the previous position is a run of length 1
        singles += before
        runs += boundary
        checksum += runs
        before, boundary = boundary, before
    singles += before
    return runs.astype(np.int64), singles.astype(np.int64), checksum.astype(np.int64)


def pal2_free_mask(words):
    """True for rows with no length-4 window a b b a."""
    cols = _columns(words)
    n, N = cols.shape
    hit = np.zeros(N, dtype=np.bool_)
    outer = np.empty(N, dtype=np.bool_)
    inner = np.empty(N, dtype=np.bool_)
    for i in range(n - 3):
        np.equal(cols[i], cols[i + 3], out=outer)
        np.equal(cols[i + 1], cols[i + 2], out=inner)
        outer &= inner
        hit |= outer
    return ~hit


def packed_keys(words, q: int, prefix=None) -> np.ndarray:
    """Base-q key sum_j x_j q^(n-1-j) of every row as int64: the first symbol
    is the most significant, so keys order as the rows do lexicographically.

    With `prefix` (one nonnegative integer per row) the key is
    (prefix << b) | key, where b is the bit width of q^n - 1, so keys sort by
    prefix first. Raises ValueError when the keys need more than 63 bits.
    """
    cols = _columns(words)
    n, N = cols.shape
    width = (q**n - 1).bit_length()
    top = 0 if prefix is None or N == 0 else int(np.max(prefix))
    if top.bit_length() + width > 63:
        raise ValueError(
            f"packed keys of {N} words of length {n} over q={q} need "
            f"{top.bit_length() + width} bits; int64 keys hold 63"
        )
    keys = np.zeros(N, dtype=np.int64)
    for j in range(n):
        keys *= q
        keys += cols[j]
    if prefix is not None:
        keys |= np.asarray(prefix, dtype=np.int64) << width
    return keys


def key_rows(keys, n: int, q: int) -> np.ndarray:
    """The (N, n) int8 rows of base-q keys packed without prefix: the inverse
    of `packed_keys`."""
    rest = np.array(keys, dtype=np.int64)
    rows = np.empty((len(rest), n), dtype=np.int8)
    for j in range(n - 1, -1, -1):
        rows[:, j] = rest % q
        rest //= q
    return rows


def runs_start(ordered) -> np.ndarray:
    """True where a 1-D array differs from its predecessor, and at index 0:
    the first of each run of equal values, which in a sorted array marks
    each distinct value once."""
    ordered = np.asarray(ordered)
    start = np.empty(len(ordered), dtype=np.bool_)
    start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    return start


def distinct(keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values of a 1-D integer array as (values, first, inverse):
    values ascending, first[k] the index of the first occurrence of
    values[k], and values[inverse[i]] == keys[i]. One stable sort."""
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    start = runs_start(ordered)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(start) - 1
    return ordered[start], order[start], inverse


def backend() -> str:
    """Name of the kernel implementation; recorded in benchmark reports."""
    return "numpy"

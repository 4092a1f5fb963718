"""Shared helpers: independent brute-force oracles used across the suite.

Everything here recomputes quantities from first principles (itertools
enumeration over raw tuples), deliberately bypassing the library's own
formulas and kernels so that formula tests stay two-route.

`run_checksum` is the position-weighted run-length checksum of a run
profile. It is the reference that `codes._c2_syndrome` and
`wordspace.run_stats` are held to.

`deletion_rows` builds every valid single deletion of a batch of rows as
rows. It is the reference that `channel.error_keys` and
`bounds.error_incidence` are held to, and `tests/test_channel.py` holds it
to `channel.apply_error` over every word at small sizes.
"""

from itertools import product

import numpy as np

from dupcodes.channel import ErrorKind
from dupcodes.words import Word


def words_of(n: int, q: int):
    """All words of length n over Z_q, lexicographic."""
    for symbols in product(range(q), repeat=n):
        yield Word(symbols, q)


def max_zero_run(symbols) -> int:
    longest = current = 0
    for s in symbols:
        current = current + 1 if s == 0 else 0
        longest = max(longest, current)
    return longest


def rll_weight_oracle(n: int, ell_max: int, weight: int, q: int) -> int:
    """Count words of length n, zero-runs <= ell_max, Hamming weight = weight."""
    count = 0
    for symbols in product(range(q), repeat=n):
        if sum(1 for s in symbols if s != 0) != weight:
            continue
        if max_zero_run(symbols) <= ell_max:
            count += 1
    return count


def run_checksum(runs) -> int:
    """Position-weighted run-length checksum: sum of j * r_j over runs j."""
    return sum(j * r for j, r in enumerate(runs, start=1))


def deletion_rows(rows, kind: ErrorKind) -> tuple[np.ndarray, np.ndarray]:
    """Every valid single deletion of the kind of every row, as (outcomes, source).

    A deletion at position p is valid where the window x_{p+ell+1..p+2ell}
    repeats (tandem) or mirrors (palindromic) the block x_{p+1..p+ell}, as in
    `deletion_positions`. outcomes is an (M, m - ell) array for rows of
    length m, and source[k] is the row outcomes[k] comes from; outcomes come
    row by row, positions ascending.
    """
    if kind.is_duplication:
        raise ValueError("deletion_rows requires a deletion kind")
    rows = np.asarray(rows)
    N, m = rows.shape
    ell = kind.ell
    P = max(0, m - 2 * ell + 1)
    valid = np.empty((N, P), dtype=np.bool_)
    for p in range(P):
        block = rows[:, p : p + ell]
        tail = rows[:, p + ell : p + 2 * ell]
        np.all(tail == (block if kind.is_tandem else block[:, ::-1]), axis=1, out=valid[:, p])
    source, position = np.nonzero(valid)  # row by row, positions ascending
    outcomes = np.empty((len(source), max(0, m - ell)), dtype=rows.dtype)
    for p in range(P):
        at = np.flatnonzero(position == p)
        kept = rows[source[at]]
        outcomes[at, : p + ell] = kept[:, : p + ell]
        outcomes[at, p + ell :] = kept[:, p + 2 * ell :]
    return outcomes, source

"""Error operations for the duplication channel.

Four single-error operations act on words, and `apply_error` is the one
rule behind all of them: the ell-block after position p, reversed for a
palindromic kind, is inserted after itself (tandem or palindromic
duplication), or a window after it that equals it is removed (the two
inverse deletions, defined only where that window is present). The named
operations (`tandem_duplicate`, ...) call it with their kind.

Error spheres (exactly t errors) and balls (at most t errors) are frozen
sets of words, enumerated breadth first with set deduplication at each
level; deletions with t >= 2 are applied sequentially on intermediate
words. Memory use is O(|sphere| * n), which is fine at the enumerable
scales this package targets.

The batch routes act on a batch of words given as the (N, n) int8 rows the
wordspace kernels produce: `duplication_rows` returns every single
duplication as rows (`duplication_columns`: the one at a given position),
and `error_keys` returns the keys of every
single-error outcome without building them, one tandem error per gap of
the difference tail (`docs/decisions.md`, D11).

All functions are pure and operate on immutable words or copy their input
rows, so concurrent use needs no synchronisation.
"""

from dataclasses import dataclass

import numpy as np

from .words import Word, _unchecked_word
from .wordspace import _columns, key_width, packed_keys

TANDEM_DUP = "tandem-dup"
TANDEM_DEL = "tandem-del"
PAL_DUP = "pal-dup"
PAL_DEL = "pal-del"

_FAMILIES = (TANDEM_DUP, TANDEM_DEL, PAL_DUP, PAL_DEL)


@dataclass(frozen=True, slots=True)
class ErrorKind:
    """One error type: a family (tandem/palindromic, duplication/deletion)
    together with the block length ell >= 1."""

    family: str
    ell: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown error family {self.family!r}; expected one of {_FAMILIES}")
        if self.ell < 1:
            raise ValueError(f"block length must be >= 1, got ell={self.ell}")

    @property
    def is_duplication(self) -> bool:
        return self.family in (TANDEM_DUP, PAL_DUP)

    @property
    def is_tandem(self) -> bool:
        return self.family in (TANDEM_DUP, TANDEM_DEL)

    def inverse(self) -> "ErrorKind":
        """The matching deletion for a duplication and vice versa."""
        pairs = {TANDEM_DUP: TANDEM_DEL, TANDEM_DEL: TANDEM_DUP,
                 PAL_DUP: PAL_DEL, PAL_DEL: PAL_DUP}
        return ErrorKind(pairs[self.family], self.ell)

    def __str__(self):
        return f"{self.family}(ell={self.ell})"


def tandem_dup(ell: int) -> ErrorKind:
    return ErrorKind(TANDEM_DUP, ell)


def tandem_del(ell: int) -> ErrorKind:
    return ErrorKind(TANDEM_DEL, ell)


def pal_dup(ell: int) -> ErrorKind:
    return ErrorKind(PAL_DUP, ell)


def pal_del(ell: int) -> ErrorKind:
    return ErrorKind(PAL_DEL, ell)


def tandem_duplicate(x: Word, ell: int, p: int) -> Word:
    """Insert a copy of the ell-block starting after prefix length p."""
    return apply_error(x, ErrorKind(TANDEM_DUP, ell), p)


def palindromic_duplicate(x: Word, ell: int, p: int) -> Word:
    """Insert the reversed copy of the ell-block starting after prefix length p."""
    return apply_error(x, ErrorKind(PAL_DUP, ell), p)


def tandem_delete(x: Word, ell: int, p: int) -> Word:
    """Remove the second copy of a repeated ell-block; requires x_{p+1..p+ell} = x_{p+ell+1..p+2ell}."""
    return apply_error(x, ErrorKind(TANDEM_DEL, ell), p)


def palindromic_delete(x: Word, ell: int, p: int) -> Word:
    """Remove the mirrored copy of an ell-block; requires x_{p+ell+1..p+2ell} reversed = x_{p+1..p+ell}."""
    return apply_error(x, ErrorKind(PAL_DEL, ell), p)


def apply_error(x: Word, kind: ErrorKind, p: int) -> Word:
    """Apply one error of the given kind at position p.

    The block is x_{p+1..p+ell}, reversed for a palindromic kind. A
    duplication (p in 0..|x|-ell) inserts it after itself; a deletion (p in
    0..|x|-2ell) removes the window x_{p+ell+1..p+2ell}, which must equal it.
    """
    # the family strings and the symbol tuple, not the ErrorKind properties or
    # len(x): every step of a ball or sphere goes through here
    family, ell, s = kind.family, kind.ell, x.symbols
    duplication = family == TANDEM_DUP or family == PAL_DUP
    last = len(s) - (ell if duplication else 2 * ell)
    if not 0 <= p <= last:
        raise ValueError(f"invalid position: p={p} not in 0..{last} for |x|={len(s)}, ell={ell}")
    block = s[p : p + ell]
    if family == PAL_DUP or family == PAL_DEL:
        block = block[::-1]
    if duplication:
        return _unchecked_word(s[: p + ell] + block + s[p + ell :], x.q)
    if s[p + ell : p + 2 * ell] != block:
        if family == TANDEM_DEL:
            raise ValueError(f"not a tandem at p={p}: block x_{p + 1}..x_{p + ell} is not repeated")
        raise ValueError(f"not a palindrome at p={p}: x_{p + ell + 1}..x_{p + 2 * ell} does not mirror the block")
    return _unchecked_word(s[: p + ell] + s[p + 2 * ell :], x.q)


def deletion_positions(x: Word, kind: ErrorKind) -> list[int]:
    """All positions p at which the deletion of the given kind succeeds, sorted."""
    if kind.is_duplication:
        raise ValueError("deletion_positions requires a deletion kind")
    ell, s, mirrored = kind.ell, x.symbols, kind.family == PAL_DEL
    return [
        p
        for p in range(len(s) - 2 * ell + 1)
        if s[p + ell : p + 2 * ell] == (s[p : p + ell][::-1] if mirrored else s[p : p + ell])
    ]


def error_positions(x: Word, kind: ErrorKind) -> list[int]:
    """Positions where a single error of the kind can occur."""
    if kind.is_duplication:
        return list(range(len(x) - kind.ell + 1))
    return deletion_positions(x, kind)


def duplication_columns(n: int, kind: ErrorKind) -> np.ndarray:
    """(n - ell + 1, n + ell) index table: x[table[p]] is the word x of
    length n duplicated at position p."""
    if not kind.is_duplication:
        raise ValueError("duplication_columns requires a duplication kind")
    ell = kind.ell
    j = np.arange(n + ell)
    p = np.arange(max(0, n - ell + 1))[:, None]
    block = j - p - ell  # 0..ell-1 in the copy
    copy = p + (block if kind.is_tandem else ell - 1 - block)
    return np.where(block < 0, j, np.where(block < ell, copy, j - ell))


def duplication_rows(rows, kind: ErrorKind) -> tuple[np.ndarray, np.ndarray]:
    """Every single duplication of the kind of every row, as (received, owner).

    With P = n - ell + 1 positions, received[i * P + p] is row i duplicated
    at position p, an (N * P, n + ell) array of the rows' dtype, and
    owner[i * P + p] = i: outputs come row by row, positions ascending.
    """
    if not kind.is_duplication:
        raise ValueError("duplication_rows requires a duplication kind")
    rows = np.asarray(rows)
    N, n = rows.shape
    ell = kind.ell
    P = max(0, n - ell + 1)
    out = np.empty((N, P, n + ell), dtype=rows.dtype)
    for p in range(P):
        block = rows[:, p : p + ell]
        out[:, p, : p + ell] = rows[:, : p + ell]
        out[:, p, p + ell : p + 2 * ell] = block if kind.is_tandem else block[:, ::-1]
        out[:, p, p + 2 * ell :] = rows[:, p + ell :]
    return out.reshape(N * P, n + ell), np.repeat(np.arange(N), P)


def error_keys(rows, kind: ErrorKind, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The `packed_keys` keys of the single-error outcomes of a batch of rows
    over Z_q, as (source, key), position by position, built from the rows'
    keys K: with r = n - p, the outcome x[:p+ell] + x[p+skip:] of an error at
    p (skip = 0 for a duplication, 2 ell for a deletion) has the key
    (K // q^(r-ell)) q^(r-skip) + K mod q^(r-skip); a palindromic duplication
    has (K // q^(r-ell)) q^r + rev q^(r-ell) + K mod q^(r-ell), rev the key of
    x[p:p+ell] reversed. Deletions are made where valid, and tandem errors
    once per gap of the difference tail, so tandem keys are distinct
    (`docs/decisions.md`, D11). Raises ValueError, as `packed_keys` does,
    when the outcome or row keys pass 63 bits."""
    cols = _columns(rows)
    n, N = cols.shape
    ell = kind.ell
    skip = 0 if kind.is_duplication else 2 * ell
    P = max(0, n - ell + 1 - skip // 2)
    keep = np.ones((P, N), dtype=np.bool_)
    if kind.is_tandem:
        zero = cols[ell:] == cols[: max(0, n - ell)]  # d_i == 0, one row per i
        np.logical_not(zero[: max(0, P - 1)], out=keep[1:])  # a gap starts at p
    for j in range(ell if skip else 0):  # x[p+ell:p+2ell] repeats or mirrors x[p:p+ell]
        keep &= zero[j : j + P] if kind.is_tandem else cols[ell + j : ell + j + P] == cols[ell - 1 - j : ell - 1 - j + P]
    source = np.flatnonzero(keep)  # p N + row, position by position
    ends = np.searchsorted(source, N * np.arange(1, P + 1)).tolist()
    source %= N  # the row; an empty batch has no index to divide
    key_width(len(source), max(0, n + ell - skip), q)  # refused before any key arithmetic
    key = packed_keys(cols.T, q)[source]
    mirrored = kind.family == PAL_DUP
    start = 0
    for p, stop in enumerate(ends):
        out, rest = key[start:stop], n - p - (ell if mirrored else skip)  # symbols of x after the block
        low = out % q**rest
        out //= q ** (n - p - ell)
        out *= q ** (n - p - skip)
        out += low
        if mirrored:  # rev = sum_j x_{p+j} q^j
            out += q ** np.arange(ell, dtype=np.int64) @ cols[p : p + ell, source[start:stop]] * q**rest
        start = stop
    return source, key


def _reach(x: Word, kind: ErrorKind, t: int, ball: bool) -> frozenset[Word]:
    """Breadth-first levels of single errors from x: the last level (exactly
    t errors) or, with ball, the union of all levels (at most t errors)."""
    if t < 0:
        raise ValueError("error count t must be >= 0")
    level = reached = {x}
    for _ in range(t):
        level = {apply_error(w, kind, p) for w in level for p in error_positions(w, kind)}
        reached = reached | level if ball else level
        if not level:
            break
    return frozenset(reached)


def error_sphere(x: Word, kind: ErrorKind, t: int) -> frozenset[Word]:
    """The words exactly t errors reach from x; t=0 gives {x}. Deletion
    spheres may be empty."""
    return _reach(x, kind, t, ball=False)


def error_ball(x: Word, kind: ErrorKind, t: int) -> frozenset[Word]:
    """Union of the spheres of radius 0..t around x."""
    return _reach(x, kind, t, ball=True)

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

`sample_single_error` is simulate's trial on the Word route, one error at a
time: the reference for the order of its random draws. `cpf_decode_scalar`
is the palindrome-free decoder on one symbol tuple, the differential
oracle of `codes.PalindromeFreeCode.decode_rows`.

`c1_holds`, `c2_holds` and `_has_mirrored_pair` are the three membership
rules on one symbol tuple, read off the one-pass syndromes of
`docs/decisions.md` D5: the differential oracles of the row members
(each construction's `member_rows`, D18).
`reference_member(code)` is the matching Word predicate, which the
`oracle_decode` loops of the tests take as their membership test.

`balls_intersect`, `oracle_decode` and `disjoint_ball_violation` are the
Word-level ball routes: the common words of two error balls, the decoder
that enumerates every deletion outcome, and the first pair of codewords
whose balls meet. They are the references that `bounds.conflict_edges`,
`bounds.exact_optimum`, the constructions' decoders and
`codes.oracle_verdicts` are held to (`docs/decisions.md`, D19).
`codebook_words(code)` is a code's codebook as a list of Words, read off
its `codebook_rows`.
"""

from itertools import compress, product
from operator import eq

import numpy as np

from dupcodes.channel import TANDEM_DUP, ErrorKind, apply_error, error_ball, error_positions, error_sphere
from dupcodes.codes import DecodingFailure, PalindromeFreeCode, PalindromicL2Code, TandemVTCode, _c1_syndrome, _c2_syndrome
from dupcodes.words import Word, _unchecked_word, _word_of_row


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


def sample_single_error(x: Word, kind: ErrorKind, rng) -> tuple[Word, int]:
    """Apply one uniformly random error of the kind; returns (word, position).

    Raises ValueError when no position admits the error. A duplication draws
    its position with the one `rng.randrange(len(x) - ell + 1)` call that
    indexing `error_positions` would make, so a seeded rng gives the same
    sequence; a deletion draws an index into `error_positions`.
    """
    if kind.is_duplication:
        s, ell = x.symbols, kind.ell
        if len(s) < ell:
            raise ValueError(f"no position in {x} admits {kind}")
        p = rng.randrange(len(s) - ell + 1)
        block = s[p : p + ell] if kind.family == TANDEM_DUP else s[p : p + ell][::-1]
        return _unchecked_word(s[: p + ell] + block + s[p + ell :], x.q), p
    positions = error_positions(x, kind)
    if not positions:
        raise ValueError(f"no position in {x} admits {kind}")
    p = positions[rng.randrange(len(positions))]
    return apply_error(x, kind, p), p


def c1_holds(s, code) -> bool:
    """The VT residue test on the symbols of a length-n word."""
    _, sig, checksum = _c1_syndrome(s, code.ell)
    return checksum % (len(sig) + 1) == code.a[len(sig) - 1]


def c2_holds(s, code) -> bool:
    """The (a, b) syndrome test on the symbols of a length-n binary word."""
    _, ones, checksum = _c2_syndrome(s)
    return ones % 5 == code.a and checksum % (2 * code.n + 1) == code.b


def _has_mirrored_pair(s) -> bool:
    """True iff the symbols s contain a window a b b a (a = b allowed)."""
    return any(s[p + 1] == s[p + 2] and s[p] == s[p + 3] for p in range(len(s) - 3))


def reference_member(code):
    """The membership test of the code's construction on one Word, by the
    scalar rule above; any other code keeps its own `member`."""
    if isinstance(code, TandemVTCode):
        return lambda w: c1_holds(w.symbols, code)
    if isinstance(code, PalindromicL2Code):
        return lambda w: c2_holds(w.symbols, code)
    if isinstance(code, PalindromeFreeCode):
        return lambda w: not _has_mirrored_pair(w.symbols)
    return code.member


def cpf_decode_scalar(y: Word, n: int) -> Word:
    """The palindrome-free decoder one Word at a time: try the deletion at
    every position where the window mirrors the block (only a position with
    an equal centre pair can) and return the unique palindrome-free outcome.
    A word of length n passes when it is palindrome-free; any other length
    outside n+2..2n raises DecodingFailure."""
    s = y.symbols
    ell = len(s) - n
    if ell < 0:
        raise DecodingFailure("decoding failure: received word shorter than the code length")
    if ell == 0:
        if not _has_mirrored_pair(s):
            return y
        raise DecodingFailure("decoding failure: received word is not palindrome-free")
    if ell == 1:
        raise DecodingFailure("decoding failure: duplication length 1 is outside this code's model (lengths 2..n)")
    survivors = set()
    for p in compress(range(len(s) - 2 * ell + 1), map(eq, s[ell - 1 :], s[ell:])):  # equal centre pairs
        if s[p + ell : p + 2 * ell] == s[p : p + ell][::-1]:  # the window mirrors the block
            repaired = s[: p + ell] + s[p + 2 * ell :]
            if not _has_mirrored_pair(repaired):
                survivors.add(repaired)
    if len(survivors) == 1:
        return _unchecked_word(survivors.pop(), y.q)
    raise DecodingFailure(f"decoding failure: {len(survivors)} palindrome-free preimages")


def codebook_words(code) -> list[Word]:
    """The codewords of the code as Words, in the row order of `codebook_rows`."""
    return [_word_of_row(row, code.q) for row in code.codebook_rows()]


def balls_intersect(x: Word, y: Word, kind: ErrorKind, t: int) -> frozenset[Word]:
    """The common words of the radius-t balls around x and y: the witnesses
    that x and y cannot both be codewords of a t-error-correcting code of
    this kind, empty (false) when the balls are disjoint."""
    if x.q != y.q:
        raise ValueError(f"alphabet mismatch: q={x.q} vs q={y.q}")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: |x|={len(x)} vs |y|={len(y)}")
    return error_ball(x, kind, t) & error_ball(y, kind, t)


def oracle_decode(y: Word, n: int, kind: ErrorKind, member) -> Word:
    """Ground-truth decoder: enumerate all (|y|-n)/ell deletion outcomes of
    the kind and return the unique one satisfying the membership predicate.

    Raises DecodingFailure('uncorrectable ...') when no preimage is a member
    and DecodingFailure('not a correcting code ...') when several are; the
    latter signals a broken code, not a channel error.
    """
    if len(y) < n or (len(y) - n) % kind.ell != 0:
        raise ValueError(f"received length {len(y)} unreachable from n={n} by {kind}")
    t = (len(y) - n) // kind.ell
    del_kind = kind.inverse() if kind.is_duplication else kind
    survivors = [w for w in error_sphere(y, del_kind, t) if member(w)]
    if not survivors:
        raise DecodingFailure("uncorrectable: no codeword reaches the received word")
    if len(survivors) > 1:
        raise DecodingFailure("not a correcting code: several codewords reach the received word")
    return survivors[0]


def disjoint_ball_violation(codebook, kind: ErrorKind, t: int):
    """First pair of codewords whose radius-t balls intersect, as
    (first, second, shared word), or None when all balls are disjoint."""
    owner: dict[Word, Word] = {}
    for c in codebook:
        for member in error_ball(c, kind, t):
            prev = owner.get(member)
            if prev is not None and prev != c:
                return (prev, c, member)
            owner[member] = c
    return None

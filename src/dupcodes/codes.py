"""Three single-duplication-correcting code constructions with decoders.

* TandemVTCode corrects one tandem duplication of fixed length ell: the
  zero-signature of the difference tail must satisfy a VT-style
  position-weighted checksum, one residue per signature length. A
  duplication raises exactly one signature entry, and the weighted
  checksum pins down which one.

* PalindromicL2Code corrects one palindromic duplication of length 2 over
  the binary alphabet by constraining the number of length-1 runs mod 5
  and the run-length checksum mod 2n+1. Decoding classifies the error into
  one of five run-pattern cases from the length-1-run drift, locates the
  affected run from the checksum drift, and removes the mirrored pair at
  that run boundary. The cut word's syndrome follows in closed form from
  the received word's run starts, so no candidate is scanned again.

* PalindromeFreeCode corrects one palindromic duplication of any length
  from 2 up to n: codewords contain no length-4 window a b b a, and the
  unique palindrome-free preimage under all candidate deletions is the
  transmitted word.

The VT membership test uses the position-weighted checksum sum_k k*s_k
mod (|s|+1). A plain coordinate sum cannot tell which entry was
incremented (equal sums), so it could not drive the decoder. With the
weights, raising entry k moves the checksum by k, so its drift mod (|s|+1)
names k (k -> k mod (|s|+1) is injective on 1..|s|). The decoder deletes
ell zeros at the start of gap k of the difference tail, one tandem
deletion of the received word, which lowers entry k and keeps the head and
the trunk (`docs/decisions.md`, D4).

Each construction class offers one interface of seven members:
`best(n, q, ell)` builds the code with the best parameters, `kinds` lists
the error kinds it corrects, and `member(x)`, `member_rows(rows)` (a bool
per row), `decode(y)`, `decode_rows(rows)` (int8 rows, -1 where `decode`
raises) and `codebook_rows(limit)` (the codewords as int8 rows). Their
base `_Construction` holds the Word adapters, once (D21): `member(x)`, the
alphabet refusal and the Word loop `decode_rows` of c1 and c2. The other
members are the construction's rules themselves, with no module-level twin
(D20). Only `decode` of c1 and c2 forwards, to `c1_decode` and
`c2_decode`, which it looks up at call time: `perfbench/selftest.py`
patches those names. `check_correction` and the CLI's simulation loop use
nothing but this interface, and decode through `decode_rows`.

Membership is one rule per construction, on rows (`member_rows`, D18):
whole-matrix numpy over an (N, n) batch, apart from the kernels that build
the codebooks, and `member(x)` is its one-row call. The c1 and c2 decoders
read the syndrome in one pass over the symbol tuple and build a Word only
for the word they return (`docs/decisions.md`, D5), finding nonzero
positions and run starts in C (`itertools.compress` over an `operator.ne`
map). The syndrome of a c1 repair follows from D4 (D12), and that of a c2
cut from the run that holds it (D14). cpf decodes rows
(`PalindromeFreeCode.decode_rows`, D17), and its `decode(y)` is a one-row
call.

`check_correction` verifies single-error correction on arrays: it takes a
codebook as the int8 rows of the kernels, builds every single duplication
with `channel.duplication_rows`, and looks up the valid deletion outcome
keys (`channel.error_keys`) of every received word among the sorted
codebook keys (`oracle_verdicts`). That one lookup replaces a Word-level
enumeration of deletion outcomes and also decides ball disjointness: two
balls intersect exactly when some received word reaches a second codeword.
Each distinct received word is decoded once, and compared with the owner
rows as int8 rows. The Word-level routes that the tests compare the array
route against, `oracle_decode` and `disjoint_ball_violation`, are
references in `tests/conftest.py` (`docs/decisions.md`, D19).

The c1 and cpf codebooks are enumerated with the wordspace kernels, in
lexicographic word order. The c2 codebook grows one column at a time from
the prefixes that can still reach (a, b), in the same order (D14). The
best parameters are counted instead (`_c1_counts`, `_c2_counts`,
`docs/decisions.md` D6): an exact integer table per (signature length,
residue) or (a, b), built from the compositions that determine the
syndrome, with no scan of Z_q^n. The c1 table is a divisor sum over the
gap table of `transform`, the residue generating function evaluated at
roots of unity (D10). Ties go to the smallest residue, and to
the smallest (a, b). The scans stay for the c1 codebook (`_c1_keys`) and
for `c2_groups` (`_c2_keys`), and as the tests' independent route to the
same tables and codebooks. Only the codebook routes enumerate Z_q^n, so
only they take the `limit` on q^n of `all_words`; the grown c2 codebook
keeps that guard. `best` and the counts refuse only what they cannot count
(`docs/decisions.md`, D8).
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import countOf, mul, ne, sub

import numpy as np

from .channel import ErrorKind, duplication_rows, error_keys, pal_dup, tandem_dup
from .transform import _count_dtype, _gap_table, _tail_length
from .words import Word, _unchecked_word, _word_of_row
from .wordspace import (
    MAX_ENUMERABLE,
    _columns,
    all_words,
    distinct,
    key_rows,
    key_width,
    packed_keys,
    pal2_free_mask,
    require_enumerable,
    run_stats,
    runs_start,
    signature_scan,
)


class DecodingFailure(Exception):
    """Raised when a received word lies outside every codeword's error ball."""


_CUT_ROWS = 2048  # rows that the row members and cpf's decode_rows take at a time, which bounds their temporaries
_DECODE_ROWS = 256  # rows that the Word loop decode_rows and simulate's trial blocks take at a time; at _CUT_ROWS rows, verify's peak RSS rose 0.9 MB and simulate's 1.1 MB (D21)


def _by_cuts(block, rows: np.ndarray, out: np.ndarray, *args) -> np.ndarray:
    """out, filled with block(cut, *args) for each cut of at most _CUT_ROWS
    rows (D17, D18)."""
    for start in range(0, len(rows), _CUT_ROWS):
        out[start : start + _CUT_ROWS] = block(rows[start : start + _CUT_ROWS], *args)
    return out


def _row_of(x: Word) -> np.ndarray:
    """The symbols of x as a (1, |x|) int64 batch."""
    return np.array(x.symbols, dtype=np.int64).reshape(1, -1)


class _Construction:
    """The Word adapters of the construction interface (D21). A subclass
    writes its rules: `best`, `kinds`, `member_rows`, `decode` and
    `codebook_rows`, and a row `decode_rows` if it decodes rows (cpf)."""

    def member(self, x: Word) -> bool:
        """`member_rows` on the one row of x."""
        self._require_alphabet(x.q)
        if len(x) != self.n:
            raise ValueError(f"length mismatch: |x|={len(x)}, code n={self.n}")
        return bool(self.member_rows(_row_of(x))[0])

    def _require_alphabet(self, q: int) -> None:
        """Refuses (ValueError) a word over Z_q, unless the code is over Z_q."""
        if q != self.q:
            raise ValueError(f"alphabet mismatch: word q={q}, code q={self.q}")

    def decode_rows(self, rows) -> np.ndarray:
        """`decode` of each row, one Word at a time (c1 and c2), as (N, n)
        int8 rows; -1 where it raises or gives no word of length n over Z_q."""
        q, n = self.q, self.n
        failed = (-1,) * n
        decoded = np.empty((len(rows), n), dtype=np.int8)
        for start in range(0, len(rows), _DECODE_ROWS):
            chunk = []
            for y in rows[start : start + _DECODE_ROWS].tolist():
                try:
                    x = self.decode(_unchecked_word(tuple(y), q))
                except DecodingFailure:
                    x = None
                chunk.append(x.symbols if x is not None and x.q == q and len(x) == n else failed)
            decoded[start : start + len(chunk)] = chunk
        return decoded


def _runs(ordered) -> list[tuple[int, int]]:
    """(lo, hi) of each run of equal values of a 1-D array."""
    edges = np.append(np.flatnonzero(runs_start(ordered)), len(ordered)).tolist()
    return list(zip(edges, edges[1:]))


# ---------------------------------------------------------------------------
# Construction 1: VT constraint on the tandem zero-signature
# ---------------------------------------------------------------------------


def _c1_syndrome(s: tuple[int, ...], ell: int):
    """(nonzero, sig, checksum) of the ell-step difference tail of the
    symbols s (|s| >= ell): its nonzero positions, where s[i] != s[i+ell],
    its zero-signature and sum_k k*sig_k."""
    m = len(s) - ell
    nonzero = list(compress(range(m), map(ne, s, s[ell:])))
    sig = [(end - start - 1) // ell for start, end in zip([-1] + nonzero, nonzero + [m])]
    return nonzero, sig, sum(map(mul, sig, range(1, len(sig) + 1)))


@dataclass(frozen=True)
class TandemVTCode(_Construction):
    """Length-n code over Z_q correcting one tandem duplication of length ell.

    `a[s-1]` is the VT residue required of zero-signatures of length s, for
    s = 1 .. n - ell + 1; residues lie in 0..s.
    """

    n: int
    q: int
    ell: int
    a: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be >= 2")
        if not 1 <= self.ell <= self.n:
            raise ValueError("need 1 <= ell <= n")
        if len(self.a) != self.n - self.ell + 1:
            raise ValueError(f"need one residue per signature length 1..{self.n - self.ell + 1}")
        for s, res in enumerate(self.a, start=1):
            if not 0 <= res <= s:
                raise ValueError(f"residue a_{s}={res} outside 0..{s}")

    @classmethod
    def best(cls, n: int, q: int, ell: int) -> "TandemVTCode":
        a, _ = c1_best_params(n, ell, q)
        return cls(n, q, ell, a)

    @property
    def kinds(self) -> tuple[ErrorKind, ...]:
        return (tandem_dup(self.ell),)

    def member_rows(self, rows) -> np.ndarray:
        """`member` of each row of an (N, n) batch over Z_q, as a bool array.
        Membership: the zero-signature of the difference tail satisfies the
        VT residue for its length; read off the rows apart from
        `signature_scan`, which builds the codebook (D18)."""
        rows = np.asarray(rows)
        return _by_cuts(_c1_member_block, rows, np.empty(len(rows), dtype=np.bool_), self)

    def decode(self, y: Word) -> Word:
        return c1_decode(y, self)

    def codebook_rows(self, limit: int = MAX_ENUMERABLE) -> np.ndarray:
        """All codewords as int8 rows in lexicographic order."""
        arr, sig_len, residues = _c1_keys(self.n, self.ell, self.q, limit)
        wanted = np.asarray(self.a, dtype=np.int64)[sig_len - 1]
        return arr[residues == wanted]


def _c1_member_block(rows: np.ndarray, code: TandemVTCode) -> np.ndarray:
    """`TandemVTCode.member_rows` on at most _CUT_ROWS rows. A zero of the difference
    tail that stands t places past the last nonzero before it (or past the
    tail's start) ends an ell-block of its gap when ell divides t, so gap k
    has sig_k such zeros, and each adds k to the checksum sum_k k*sig_k."""
    ell, m = code.ell, code.n - code.ell
    nonzero = rows[:, ell:] != rows[:, :m]
    at = np.arange(m, dtype=np.int32)
    past = at - np.maximum.accumulate(np.where(nonzero, at, -1), axis=1)  # t at a zero, 0 at a nonzero
    gap = np.cumsum(nonzero, axis=1, dtype=np.int32)
    gap += 1  # at a zero: the index k of its gap
    gap *= ~nonzero & (past % ell == 0)
    size, checksum = 1 + nonzero.sum(axis=1), gap.sum(axis=1)
    return checksum % (size + 1) == np.asarray(code.a)[size - 1]


def c1_decode(y: Word, code: TandemVTCode) -> Word:
    """Correct at most one tandem duplication of length ell.

    A duplication raises one signature entry k, and the checksum drifts by
    k. The decoder deletes the first ell-block of gap k, where gap k of the
    difference tail starts at index 0 (k = 1) or one past its (k-1)-th
    nonzero. The cut lowers sig_k by one and keeps the signature length, so
    the checksum drops by exactly k onto the residue: the repaired word is
    a codeword without a second scan (`docs/decisions.md`, D12).
    """
    n, ell = code.n, code.ell
    code._require_alphabet(y.q)
    s = y.symbols
    if len(s) == n:
        if code.member(y):
            return y
        raise DecodingFailure("decoding failure: received word is not a codeword")
    if len(s) != n + ell:
        raise DecodingFailure(f"decoding failure: length {len(s)} not in {{{n}, {n + ell}}}")
    nonzero, sig, checksum = _c1_syndrome(s, ell)
    size = len(sig)
    if size > len(code.a):
        raise DecodingFailure("decoding failure: signature length outside the code's range")
    k = (checksum - code.a[size - 1]) % (size + 1)
    if k == 0 or sig[k - 1] == 0:
        raise DecodingFailure("decoding failure: no signature coordinate restores the residue")
    # sig_k >= 1: gap k holds ell zeros from p, so s[p:p+ell] == s[p+ell:p+2ell]
    p = 0 if k == 1 else nonzero[k - 2] + 1
    # the repaired tail is v[:p] + v[p+ell:]: syndrome (nonzero, sig - e_k, checksum - k), residue a_s
    return _unchecked_word(s[: p + ell] + s[p + 2 * ell :], code.q)


def _c1_keys(n: int, ell: int, q: int, limit: int):
    """All words of length n over Z_q, and per word its signature length s
    and VT residue mod (s+1), from one signature_scan."""
    arr = all_words(n, q, limit=limit)
    sig_len, _, csum = signature_scan(arr, ell)
    return arr, sig_len, csum % (sig_len + 1)


def _c1_counts(n: int, ell: int, q: int, table: np.ndarray) -> np.ndarray:
    """counts[s-1, r]: the words of length n over Z_q whose zero-signature
    has length s and VT residue r, for s = 1..n-ell+1 and r = 0..n-ell+1
    (zero for r > s). Counted, not scanned (`docs/decisions.md`, D6 and
    D10): a tail with w nonzeros has w+1 zero gaps g_k = ell*j_k + e_k, the
    gap table row T[w] (`_gap_table`) counts them per block sum J, and the
    residue is sum_k k*j_k mod N, N = w+2. At a root of unity of order e,
    e*h = N, the parts j_k generate (1 - y) / (1 - y^e)^h; S_e sums that
    against T[w]. A sieve over the divisors h of N turns the S_e into the
    share H(h) of the residues r = 0 mod e, so counts[w, r] depends on r
    only through gcd(r, N). Rows add up in Python ints, which can pass
    int64 before the exact division by N. `table` is the gap table of
    (n, ell, q)."""
    m = n - ell
    if m < 0:
        raise ValueError("ell exceeds word length")
    counts = np.zeros((m + 1, m + 2), dtype=table.dtype)
    for w in range(m + 1):
        size, row, sieve, total = w + 2, table[w].tolist() + [0], {}, [0] * (w + 2)
        for h, e in [(h, size // h) for h in range(1, size + 1) if size % h == 0]:
            # S_e = sum_J T[w, J] [y^J] (1 - y) / (1 - y^e)^h, the parts at a root of unity of order e
            s_e = sum(math.comb(i + h - 1, h - 1) * (a - b) for i, (a, b) in enumerate(zip(row[::e], row[1::e])))
            sieve[h] = s_e - sum(value for g, value in sieve.items() if h % g == 0)
            for r in range(0, size, e):
                total[r] += e * sieve[h]
        counts[w, :size] = [t // size * q**ell for t in total]
    return counts


def c1_best_params(n: int, ell: int, q: int):
    """Best residue per signature length (ties to the smallest residue) and
    the resulting code cardinality, from the exact count `_c1_counts`.
    Refuses (ValueError) q < 2, ell < 1 and ell > n."""
    return _c1_best_params(n, ell, q, _gap_table(n, ell, q))


def _c1_best_params(n: int, ell: int, q: int, table: np.ndarray):
    """`c1_best_params` from the gap table of (n, ell, q)."""
    counts = _c1_counts(n, ell, q, table)
    best = counts.argmax(axis=1)  # first maximum: the smallest residue wins ties
    return tuple(int(r) for r in best), int(counts.max(axis=1).sum())


def c1_size_lower_bound(n: int, ell: int, q: int) -> Fraction:
    """Pigeonhole guarantee on the best-residue cardinality: the q^ell
    C(m, w) (q-1)^w words whose tail of length m = n - ell has w nonzeros
    share w+2 residues, so the best residue holds at least their mean,

        q^ell * sum_w C(m, w) (q-1)^w / (w+2).

    This is the paper's nested sum over nu and w, regrouped by w
    (`docs/decisions.md`, D9). Refuses (ValueError) q < 2, ell < 1, n < 0
    and ell > n."""
    m = _tail_length(n, ell, q)
    if m < 0:
        raise ValueError("ell exceeds word length")
    return q**ell * sum(Fraction(math.comb(m, w) * (q - 1) ** w, w + 2) for w in range(m + 1))


# ---------------------------------------------------------------------------
# Construction 2: binary, palindromic duplications of length 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PalindromicL2Code(_Construction):
    """Binary length-n code correcting one palindromic duplication of
    length 2: r^(1)(x) = a mod 5 and run checksum C(x) = b mod 2n+1."""

    n: int
    a: int
    b: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.a <= 4:
            raise ValueError("a must be in 0..4")
        if not 0 <= self.b <= 2 * self.n:
            raise ValueError(f"b must be in 0..{2 * self.n}")

    @classmethod
    def best(cls, n: int, q: int, ell: int) -> "PalindromicL2Code":
        """Best (a, b) code of length n; q must be 2, and ell is ignored
        (the duplication length is always 2)."""
        if q != 2:
            raise ValueError("binary only: the run-profile construction requires q = 2")
        (a, b), _ = c2_best_params(n)
        return cls(n, a, b)

    @property
    def q(self) -> int:
        return 2

    @property
    def kinds(self) -> tuple[ErrorKind, ...]:
        return (pal_dup(2),)

    def _require_alphabet(self, q: int) -> None:
        """Refuses (ValueError) a word that is not binary."""
        if q != 2:
            raise ValueError("binary only: the run-profile construction requires q = 2")

    def member_rows(self, rows) -> np.ndarray:
        """`member` of each row of an (N, n) binary batch, as a bool array:
        the (a, b) syndrome test, read off the rows apart from `run_stats` and
        `_c2_completions`, which build the codebooks (D18)."""
        rows = np.asarray(rows)
        return _by_cuts(_c2_member_block, rows, np.empty(len(rows), dtype=np.bool_), self)

    def decode(self, y: Word) -> Word:
        return c2_decode(y, self)

    def codebook_rows(self, limit: int = MAX_ENUMERABLE) -> np.ndarray:
        """All codewords as int8 rows in lexicographic order, grown one column
        at a time from the prefixes that can still reach (a, b)
        (`docs/decisions.md`, D14). A prefix's state is (length-1 runs, run
        checksum, its last run is one symbol long), with the last run counted
        as if it ended there. A prefix is kept while `_c2_completions` has a way
        to finish it in (a, b), so every kept prefix ends in a codeword and no
        more rows than codewords are live at any length. Refuses (ValueError)
        the n that `all_words` refuses at this `limit`."""
        n, modulus = self.n, 2 * self.n + 1
        require_enumerable(n, 2, limit)
        ways = _c2_completions(n)
        rows = np.array([[0], [1]], dtype=np.int8)
        ones, checksum, single = np.ones(2, dtype=np.int64), np.full(2, n, dtype=np.int64), np.ones(2, dtype=bool)
        for p in range(1, n + 1):
            live = ways[p, single.view(np.int8), (self.a - ones) % 5, (self.b - checksum) % modulus] > 0
            rows, ones, checksum, single = rows[live], ones[live], checksum[live], single[live]
            if p == n:
                return rows
            bits = np.tile(np.array([0, 1], dtype=np.int8), len(rows))  # each prefix + 0, then + 1
            rows = np.column_stack((np.repeat(rows, 2, axis=0), bits))
            new_run = rows[:, p] != rows[:, p - 1]
            ones = np.repeat(ones, 2) + new_run - (np.repeat(single, 2) & ~new_run)
            checksum = np.repeat(checksum, 2) + (n - p) * new_run
            single = new_run


def _c2_syndrome(s: tuple[int, ...]):
    """(starts, ones, checksum) of the nonempty symbols s: the start of every
    run, the number of length-1 runs and the run checksum sum_j j*r_j, which
    is |s| per run less each run start."""
    starts = [0, *compress(range(1, len(s)), map(ne, s, s[1:]))]
    lengths = map(sub, starts[1:] + [len(s)], starts)
    return starts, countOf(lengths, 1), len(s) * len(starts) - sum(starts)


def _c2_member_block(rows: np.ndarray, code: PalindromicL2Code) -> np.ndarray:
    """`PalindromicL2Code.member_rows` on at most _CUT_ROWS rows. A run starts where a
    boundary (or the word's start) stands before a symbol, and a symbol with
    one on both sides is a run of length 1. The run checksum is n per run
    less each run start, and run i + 1 starts at boundary index i + 1."""
    N, n = rows.shape
    edges = np.ones((N, n + 1), dtype=np.bool_)  # edges[:, i]: a boundary, or the word's edge, before symbol i
    np.not_equal(rows[:, 1:], rows[:, :-1], out=edges[:, 1:n])
    ones = (edges[:, :-1] & edges[:, 1:]).sum(axis=1)
    checksum = n * edges[:, :n].sum(axis=1) - edges[:, 1:n] @ np.arange(1, n, dtype=np.int32)
    return (ones % 5 == code.a) & (checksum % (2 * code.n + 1) == code.b)


def _c2_cut_syndrome(s: tuple[int, ...], starts: list[int], ones: int, checksum: int, p: int, i: int):
    """(ones, checksum) of s[:p+2] + s[p+4:], the cut of the mirrored pair
    at p from the binary symbols s, whose `_c2_syndrome` is (starts, ones,
    checksum) and whose run i holds p (`docs/decisions.md`, D14). Each run
    before the cut keeps its start and loses 2 from its term |s| - start."""
    if s[p] == s[p + 1]:  # aaaa inside run i, which loses two symbols and stays longer than one
        return ones, checksum - 2 * (i + 1)
    # a|bb|a...: run i ends at p, run i+1 is the bb, run i+2 the a-run from p+3, which ends at `after`
    r, size = len(starts), len(s)
    after = starts[i + 3] if i + 3 < r else size
    if after - p > 4:  # the bb and the a-run each lose one symbol; the a-run was 2 long, or longer
        return ones + 1 + (after - p == 5), checksum - 2 * i - 5
    if after == size:  # the lone a was the last run: it goes, and the bb becomes a single b
        return ones, checksum - 2 * i - 5
    # the lone a goes, and the b left over joins run i+3, which ends at `end`: two fewer runs
    end = starts[i + 4] if i + 4 < r else size
    return ones - 1 - (end - after == 1), checksum - 2 * i - 5 - 2 * (size - after)


def c2_decode(y: Word, code: PalindromicL2Code) -> Word:
    """Correct at most one palindromic duplication of length 2.

    The drift of the length-1-run count mod 5 selects one of five run
    patterns around the duplication site; the run-checksum drift mod 2n+1
    locates the run j it happened in. Every candidate is realised as an
    actual mirrored-pair deletion (the four-symbol window must match). The
    cut word's (length-1 runs, run checksum) follows in closed form from
    the run i that holds the cut (`_c2_cut_syndrome`, `docs/decisions.md`
    D14), and only a candidate that meets (a, b) is built; exactly one
    distinct preimage survives. The modulus always uses the code's n,
    never the received length.
    """
    code._require_alphabet(y.q)
    n = code.n
    modulus = 2 * n + 1
    s = y.symbols
    if len(s) == n:
        if code.member(y):
            return y
        raise DecodingFailure("decoding failure: received word is not a codeword")
    if len(s) != n + 2:
        raise DecodingFailure(f"decoding failure: length {len(s)} not in {{{n}, {n + 2}}}")

    starts, ones, checksum = _c2_syndrome(s)
    r = len(starts)
    delta = (ones - code.a) % 5
    drift = (checksum - code.b) % modulus
    # run j < r ends at starts[j] - 1; runs j+1..r hold len(s) - starts[j] symbols

    candidates: list[tuple[int, int]] = []  # (p, i): the cut, and the run i that holds p
    if delta == 0:
        # same-run duplication aa -> aaaa (even drift 2j), or the mirrored
        # pair landed on the last symbol: ...ab -> ...abba (drift 2r(y)-1)
        if drift % 2 == 0 and drift != 0:
            j = drift // 2
            if 1 <= j <= r:
                candidates.append((starts[j - 1], j - 1))
        elif drift == (2 * r - 1) % modulus:
            p = len(s) - 4
            candidates.append((p, r - 1 if p >= starts[-1] else r - 3))
    elif delta in (4, 3):
        # one or two length-1 runs absorbed right of the site; drift 2j+3
        if drift % 2 == 1:
            j = (drift - 3) // 2
            if 1 <= j <= r - 2:
                candidates.append((starts[j] - 1, j - 1))
    elif delta == 2:
        # two new length-1 runs: interior ab|ba pattern, or ab|b at the end
        for j in range(1, r - 3):
            if (2 * j + 5 + 2 * (len(s) - starts[j + 3])) % modulus == drift:
                candidates.append((starts[j] - 1, j - 1))
        if r >= 4 and drift == (2 * r - 1) % modulus:
            candidates.append((starts[r - 3] - 1, r - 4))
    else:  # delta == 1: duplication before a longer run of the second symbol
        for j in range(1, r - 2):
            if (2 * j + 3 + 2 * (len(s) - starts[j + 2])) % modulus == drift:
                candidates.append((starts[j] - 1, j - 1))

    survivors: set[tuple[int, ...]] = set()
    for p, i in candidates:
        if not 0 <= p <= len(s) - 4 or s[p] != s[p + 3] or s[p + 1] != s[p + 2]:
            continue  # the window is not a mirrored pair: a rejected candidate run
        cut_ones, cut_checksum = _c2_cut_syndrome(s, starts, ones, checksum, p, i)
        if cut_ones % 5 == code.a and cut_checksum % modulus == code.b:
            survivors.add(s[: p + 2] + s[p + 4 :])
    if len(survivors) == 1:
        return _unchecked_word(survivors.pop(), 2)
    raise DecodingFailure(
        f"decoding failure: {len(survivors)} consistent preimages (case {delta}, drift {drift})"
    )


def _c2_keys(n: int, limit: int):
    """All binary words of length n and the key a * (2n+1) + b of the (a, b)
    code each belongs to, from one run_stats scan."""
    arr = all_words(n, 2, limit=limit)
    _, len1, csum = run_stats(arr)
    modulus = 2 * n + 1
    return arr, (len1 % 5) * modulus + (csum % modulus)


def _c2_completions(n: int) -> np.ndarray:
    """ways[p, single, da, db]: the ways positions p..n-1 of a binary word
    of length n can follow a prefix whose last run is one symbol long
    (single) or not, adding da length-1 runs mod 5 and db to the run
    checksum mod 2n+1, for p = 1..n (`docs/decisions.md`, D14). Symbol p
    either extends the last run (a single stops being one) or starts a run
    (one more single, checksum + n - p)."""
    ways = np.zeros((n + 1, 2, 5, 2 * n + 1), dtype=_count_dtype(2**n))
    ways[n, :, 0, 0] = 1
    for p in range(n - 1, 0, -1):
        longer, single = ways[p + 1]
        fresh = np.roll(single, (1, n - p), axis=(0, 1))  # symbol p starts a run
        ways[p, 0] = longer + fresh
        ways[p, 1] = np.roll(longer, -1, axis=0) + fresh  # extending a single takes it back
    return ways


def _c2_counts(n: int) -> np.ndarray:
    """counts[a, b]: the binary words of length n with a length-1 runs mod 5
    and run checksum b mod 2n+1. Counted over run compositions, not scanned
    (`docs/decisions.md`, D6): the first symbol gives a factor 2 and starts
    run 0, one single and checksum n, and `_c2_completions` counts the rest."""
    if n < 1:
        raise ValueError("run statistics need nonempty words")
    return 2 * np.roll(_c2_completions(n)[1, 1], (1, n), axis=(0, 1))


def c2_best_params(n: int):
    """Best (a, b) pair (lexicographic tie-break) and its cardinality, from
    the exact count `_c2_counts`."""
    counts = _c2_counts(n)
    a, b = np.unravel_index(int(np.argmax(counts)), counts.shape)
    return (int(a), int(b)), int(counts[a, b])


def c2_groups(n: int, limit: int = MAX_ENUMERABLE):
    """(codes, rows, group): every nonempty (a, b) code of length n in (a, b)
    order, all 2^n binary words as int8 rows in lexicographic order, and for
    each row the index in `codes` of the code it belongs to."""
    arr, keys = _c2_keys(n, limit)
    modulus = 2 * n + 1
    present, _, group = distinct(keys)
    codes = [PalindromicL2Code(n, key // modulus, key % modulus) for key in present.tolist()]
    return codes, arr, group


def c2_size_lower_bound(n: int) -> Fraction:
    """Pigeonhole guarantee 2^n / (5 (2n+1)) on the best (a, b) cardinality."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(2**n, 5 * (2 * n + 1))


# ---------------------------------------------------------------------------
# Construction 3: palindrome-free words, any duplication length >= 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PalindromeFreeCode(_Construction):
    """Code of all 2-palindrome-free words of length n over Z_q; corrects a
    single palindromic duplication of any length 2..n."""

    n: int
    q: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.q < 2:
            raise ValueError("q must be >= 2")

    @classmethod
    def best(cls, n: int, q: int, ell: int) -> "PalindromeFreeCode":
        """The code is unique for (n, q); ell is ignored."""
        return cls(n, q)

    @property
    def kinds(self) -> tuple[ErrorKind, ...]:
        return tuple(pal_dup(ell) for ell in range(2, self.n + 1))

    def member_rows(self, rows) -> np.ndarray:
        """`member` of each row of an (N, n) batch, as a bool array: True
        where no window a b b a stands (equivalently, no length-2 palindromic
        deletion is possible), so words of length <= 3 always qualify. Read
        off the rows apart from `pal2_free_mask`, which builds the codebook
        and filters the decoder's cuts (D18)."""
        rows = np.asarray(rows)
        return _by_cuts(_cpf_member_block, rows, np.empty(len(rows), dtype=np.bool_))

    def decode(self, y: Word) -> Word:
        """`decode_rows` on the one row of y."""
        self._require_alphabet(y.q)
        [x] = self.decode_rows(_row_of(y)).tolist()
        if -1 in x or not self.n and y.symbols:  # n = 0: only the empty word decodes
            raise DecodingFailure(f"decoding failure: no one palindrome-free preimage under a duplication of length {len(y) - self.n}")
        return _unchecked_word(tuple(x), y.q)

    def decode_rows(self, rows) -> np.ndarray:
        """The unique palindrome-free preimage of each row of an (N, n + ell)
        batch, one ell per call, as (N, n) rows of its dtype; a row of -1 where
        there is none or several, or ell is 1 or negative (D17)."""
        rows = np.asarray(rows)
        return _by_cuts(_cpf_decoded_block, rows, np.empty((len(rows), max(0, self.n)), dtype=rows.dtype), self.n)

    def codebook_rows(self, limit: int = MAX_ENUMERABLE) -> np.ndarray:
        """All 2-palindrome-free words of length n as int8 rows in lexicographic order."""
        arr = all_words(self.n, self.q, limit=limit)
        return arr[pal2_free_mask(arr)]


def _cpf_member_block(x: np.ndarray) -> np.ndarray:
    """`PalindromeFreeCode.member_rows` on at most _CUT_ROWS rows."""
    return ~((x[:, :-3] == x[:, 3:]) & (x[:, 1:-2] == x[:, 2:-1])).any(axis=1)


def _cpf_decoded_block(rows: np.ndarray, n: int) -> np.ndarray:
    """`PalindromeFreeCode.decode_rows` on at most _CUT_ROWS rows."""
    N, m = rows.shape
    ell = m - n
    decoded = np.full((N, max(0, n)), -1, dtype=rows.dtype)
    if ell == 0:
        free = pal2_free_mask(rows)
        decoded[free] = rows[free]
    if ell < 2:
        return decoded
    P = max(0, n - ell + 1)
    cols = _columns(rows)
    mirrored = np.ones((P, N), dtype=np.bool_)
    for j in range(ell):  # x[p+ell+j] == x[p+ell-1-j], for every p at once
        mirrored &= cols[ell + j : ell + j + P] == cols[ell - 1 - j : ell - 1 - j + P]
    at, row = np.nonzero(mirrored)  # (position, row), position by position
    y = rows[row]
    cuts = np.where(np.arange(n) < at[:, None] + ell, y[:, :n], y[:, ell:])  # x[:p+ell] + x[p+2ell:]
    free = pal2_free_mask(cuts)
    row, cuts = row[free], cuts[free]
    decoded[row] = cuts  # any one cut per row; the row fails where another cut differs
    decoded[row[(decoded[row] != cuts).any(axis=1)]] = -1
    return decoded


def cpf_count_recursive(n: int, q: int) -> int:
    """Exact number of 2-palindrome-free words of length n over Z_q.

    Tracks counts by the equality pattern of the last three symbols
    (aaa, aab, aba, abb, abc); appending a symbol is legal unless it closes
    an a b b a window, which gives a linear recursion on the five counts.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if q < 2:
        raise ValueError("q must be >= 2")
    if n <= 3:
        return q**n
    aaa = q
    aab = aba = abb = q * (q - 1)
    abc = q * (q - 1) * (q - 2)
    for _ in range(n - 3):
        aaa, aab, aba, abb, abc = (
            abb,
            (q - 1) * aaa + (q - 2) * abb,
            aab + aba + abc,
            aab + aba + abc,
            (q - 2) * (aab + aba + abc),
        )
    return aaa + aab + aba + abb + abc


def _cpf_cubic_roots(q: int) -> np.ndarray:
    """Roots of -x^3 + (q-1) x^2 + (q-2) x + (q-1) = 0."""
    roots = np.roots([-1.0, float(q - 1), float(q - 2), float(q - 1)])
    for lam in roots:
        residual = abs(-lam**3 + (q - 1) * lam**2 + (q - 2) * lam + (q - 1))
        if residual > 1e-12 * max(1.0, abs(lam) ** 3):
            raise ArithmeticError(f"cubic root residual {residual} too large for q={q}")
    return roots


def cpf_count_closed(n: int, q: int) -> float:
    """Closed form of cpf_count_recursive via the cubic's roots: the count is
    sum_i c_i(q) * lambda_i^(n-3) with rational-in-lambda coefficients.
    Complex arithmetic; the imaginary parts cancel."""
    if n < 3:
        raise ValueError("closed form needs n >= 3")
    total = 0j
    for lam in _cpf_cubic_roots(q):
        num = (q * q + q) * lam**2 + (q * q - 1) * lam + q * q
        den = (q - 1) * lam**2 + (2 * q - 4) * lam + (3 * q - 3)
        total += q * (q - 1) * num / den * lam ** (n - 3)
    if abs(total.imag) > 1e-6 * max(1.0, abs(total.real)):
        raise ArithmeticError(f"imaginary residue {total.imag} did not cancel")
    return total.real


def cpf_lambda(q: int) -> float:
    """Dominant cubic root in closed (Cardano) form; the asymptotic growth
    rate of the palindrome-free count."""
    if q < 2:
        raise ValueError("q must be >= 2")
    a = (q - 1) / 2 + (q - 1) * (q - 2) / 6 + (q - 1) ** 3 / 27
    b = (q - 2) / 3 + (q - 1) ** 2 / 9
    s = cmath.sqrt(a * a - b**3)
    u = (a + s) ** (1 / 3)
    if abs(u) < 1e-300:
        u = (a - s) ** (1 / 3)
    v = b / u if u != 0 else 0j
    return ((q - 1) / 3 + u + v).real


def cpf_rate(q: int, n=None) -> float:
    """Code rate log_q(count)/n; n=None (or inf) gives the asymptotic rate
    log_q(lambda(q))."""
    if n is None or n == math.inf:
        return math.log(cpf_lambda(q), q)
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.log(cpf_count_recursive(n, q), q) / n


# ---------------------------------------------------------------------------
# generic machinery
# ---------------------------------------------------------------------------


def oracle_verdicts(book_keys, order, group, received, owner, kind: ErrorKind, group_codes, index):
    """Array twin of the tests' Word-level `oracle_decode` and
    `disjoint_ball_violation` over a batch of codebooks: one lookup of the
    codewords that the single deletions of the inverse kind of each
    distinct received word reach.

    book_keys are the sorted packed keys (group << bits) | key of the
    codewords, order[k] is the codeword of book_keys[k], and group[i] is the
    index in group_codes of codeword i's code; `received` and `owner` come
    from `channel.duplication_rows` on some of the codewords, and `index`
    is `distinct(packed_keys(received, q, prefix=group[owner]))`: (keys, at,
    word_of) of their distinct (code, received word) pairs. The code's
    `member_rows` is asked about each distinct (code, outcome) as a row,
    one call per run of one code, and must agree with the lookup.

    Returns (verdicts, clashes). verdicts[r] is True when the lowest
    codeword that received row r reaches is its owner, it reaches no second
    one, and `member_rows` agrees on every outcome. Since the deletions invert
    `duplication_rows` exactly, a second codeword means that two balls hold
    the received word, and it fails the rows of both owners. clashes maps
    each group with such a word among the rows to (key, i, j, word) for the
    one with the smallest key: the two lowest codewords i < j reaching it
    and its symbols.
    """
    q = group_codes[0].q
    n = received.shape[1] - kind.ell
    distinct_keys, distinct_at, word_of = index
    distinct_group = group[owner[distinct_at]]
    source, keys = error_keys(received[distinct_at], kind.inverse(), q)
    outcome_group = distinct_group[source]
    width = key_width(len(keys), n, q)  # the book's keys fit with these groups
    keys |= np.left_shift(outcome_group, width, dtype=np.int64)
    at = np.minimum(np.searchsorted(book_keys, keys), len(book_keys) - 1)
    found = book_keys[at] == keys
    _, first, inverse = distinct(keys)
    outcomes, outcome_code = key_rows(keys[first] & ((1 << width) - 1), n, q), outcome_group[first]
    member = np.empty(len(first), dtype=np.bool_)
    for lo, hi in _runs(outcome_code):  # in key order: one run per code
        member[lo:hi] = group_codes[outcome_code[lo]].member_rows(outcomes[lo:hi])
    del outcomes, outcome_code  # freed before the reach arrays below, which keeps verify's peak RSS down (D18)
    disagree = (member != found[first])[inverse]
    spoiled = np.bincount(source[disagree], minlength=len(distinct_at)) > 0
    # per distinct word: the lowest and second-lowest codeword its deletions reach
    none = len(order)
    lowest = np.full(len(distinct_at), none)
    second = np.full(len(distinct_at), none)
    reached, by = order[at[found]], source[found]
    np.minimum.at(lowest, by, reached)
    other = reached != lowest[by]
    np.minimum.at(second, by[other], reached[other])
    verdicts = (lowest[word_of] == owner) & ((second == none) & ~spoiled)[word_of]
    clash = np.flatnonzero(second < none)  # distinct words come in key order
    groups, smallest, _ = distinct(distinct_group[clash])
    return verdicts, {
        g: (int(distinct_keys[d]), int(lowest[d]), int(second[d]), tuple(received[distinct_at[d]].tolist()))
        for g, d in zip(groups.tolist(), clash[smallest].tolist())
    }


_BLOCK_ROWS = 1 << 15  # received words that check_correction holds as rows at a time


def check_correction(group_codes, book, group=None) -> list[tuple[ErrorKind, dict, np.ndarray]]:
    """Single-error correction of a batch of codebooks of one construction,
    for every kind its codes correct; the codes share n, q and kinds.

    book holds the codewords as int8 rows and group[i] (default 0) is the
    index in group_codes of the code that codeword i belongs to. Returns one
    (kind, clashes, broken) per kind: clashes maps each group whose balls
    intersect to (first codeword, second codeword, shared word) as Words,
    the first two codewords i < j whose balls hold the group's
    lexicographically smallest shared word; broken[g] counts the round trips
    (codeword, error) of group g that the code's decoder or
    `oracle_verdicts` does not return to the codeword. The decoder runs once
    per distinct (code, received word) of a block, since it is a function
    of the two. Raises ValueError when the packed keys do not fit int64.

    The codebook keys are packed and sorted once. Received words are built,
    looked up and decoded one block of codewords (about _BLOCK_ROWS
    received words) at a time, each code's distinct words in one
    `decode_rows` call; only per-group counts and clashes outlive a block.
    """
    q = group_codes[0].q
    if group is None:
        group = np.zeros(len(book), dtype=np.intp)
    book_keys = packed_keys(book, q, prefix=group)
    order = np.argsort(book_keys)
    book_keys = book_keys[order]
    results = []
    for kind in group_codes[0].kinds:
        per_codeword = max(0, book.shape[1] - kind.ell + 1)  # received words i * per_codeword.. are codeword i's
        step = max(1, _BLOCK_ROWS // max(1, per_codeword))
        smallest = {}  # group -> (key, i, j, word) of its smallest shared word so far
        broken = np.zeros(len(group_codes), dtype=np.int64)
        for start in range(0, max(1, len(book)), step):  # an empty book is one empty block
            stop = min(start + step, len(book))
            received, owner = duplication_rows(book[start:stop], kind)
            owner += start
            index = distinct(packed_keys(received, q, prefix=group[owner]))
            # each distinct (code, received word) is decoded once; decoding before the lookup,
            # with the decoded rows freed before it, keeps verify's peak RSS down (D12)
            _, distinct_at, word_of = index
            groups = group[owner[distinct_at]]  # in key order: one run per code
            decoded = np.empty((len(distinct_at), book.shape[1]), dtype=np.int8)
            for lo, hi in _runs(groups):
                decoded[lo:hi] = group_codes[groups[lo]].decode_rows(received[distinct_at[lo:hi]])
            recovered = (decoded[word_of] == book[owner]).all(axis=1)
            del decoded
            verdicts, clashes = oracle_verdicts(book_keys, order, group, received, owner, kind, group_codes, index)
            for g, clash in clashes.items():
                smallest[g] = min(clash, smallest.get(g, clash))
            failed = owner[~(verdicts & recovered)]
            broken += np.bincount(group[failed], minlength=len(group_codes))
        clashes = {
            g: (_word_of_row(book[i], q), _word_of_row(book[j], q), _unchecked_word(y, q))
            for g, (_, i, j, y) in sorted(smallest.items())
        }
        results.append((kind, clashes, broken))
    return results

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
  affected run from the checksum drift, removes the mirrored pair at that
  run boundary, and validates membership.

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

Each construction class offers one interface: `best(n, q, ell)` builds
the code with the best parameters, `kinds` lists the error kinds it
corrects, and `member(x)`, `decode(y)`, `codebook(limit)` and
`codebook_rows(limit)` delegate to the module functions below, which stay
the public API. `check_correction` and the CLI's simulation loop use
nothing but this interface.

Members and decoders read the syndrome in one pass over the symbol tuple
(`_c1_syndrome`, `_c2_syndrome`, `_has_mirrored_pair`), once per received
word and repaired candidate, and build a Word only for the word they return
(`docs/decisions.md`, D5).

`check_correction` verifies single-error correction on arrays: it takes a
codebook as the int8 rows of the kernels, builds every single duplication
with `channel.duplication_rows`, and looks up the valid deletion outcomes
of every received word among the sorted codebook keys (`oracle_verdicts`).
That one lookup replaces the enumeration of `oracle_decode` and also
decides ball disjointness: two balls intersect exactly when some received
word reaches a second codeword. The scalar decoder still runs on every
round trip. `oracle_decode` and `disjoint_ball_violation` stay as the
Word-level routes that the tests compare the array route against.

Codebooks are enumerated with the wordspace kernels, in lexicographic word
order. The best parameters are counted instead (`_c1_counts`, `_c2_counts`,
`docs/decisions.md` D6): an exact integer table per (signature length,
residue) or (a, b), built from the compositions that determine the
syndrome, with no scan of Z_q^n. Ties go to the smallest residue, and to
the smallest (a, b). The scans `_c1_keys` and `_c2_keys` stay for the
codebooks and as the tests' independent route to the same tables. Only
the codebook routes enumerate Z_q^n, so only they take the `limit` on q^n
of `all_words`. `best` and the counts refuse only what they cannot count
(`docs/decisions.md`, D8).
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import _binom, rll_weight_count
from .channel import ErrorKind, deletion_rows, duplication_rows, error_ball, error_sphere, pal_dup, tandem_dup
from .words import Word, _unchecked_word, _word_of_row, _words_of_rows
from .wordspace import (
    MAX_ENUMERABLE,
    all_words,
    distinct,
    packed_keys,
    pal2_free_mask,
    run_stats,
    signature_scan,
)


class DecodingFailure(Exception):
    """Raised when a received word lies outside every codeword's error ball."""


# ---------------------------------------------------------------------------
# Construction 1: VT constraint on the tandem zero-signature
# ---------------------------------------------------------------------------


def _c1_syndrome(s: tuple[int, ...], ell: int):
    """(nonzero, sig, checksum) of the ell-step difference tail of the
    symbols s (|s| >= ell): its nonzero positions, where s[i] != s[i+ell],
    its zero-signature and sum_k k*sig_k."""
    nonzero = [i for i in range(len(s) - ell) if s[i] != s[i + ell]]
    sig = [(end - start - 1) // ell for start, end in zip([-1] + nonzero, nonzero + [len(s) - ell])]
    return nonzero, sig, sum(k * c for k, c in enumerate(sig, start=1))


def _c1_holds(s: tuple[int, ...], code: "TandemVTCode") -> bool:
    """The VT residue test on the symbols of a length-n word."""
    _, sig, checksum = _c1_syndrome(s, code.ell)
    return checksum % (len(sig) + 1) == code.a[len(sig) - 1]


@dataclass(frozen=True)
class TandemVTCode:
    """Length-n code over Z_q correcting one tandem duplication of length ell.

    `a[s-1]` is the VT residue required of zero-signatures of length s, for
    s = 1 .. n - ell + 1; residues lie in 0..s.
    """

    n: int
    q: int
    ell: int
    a: tuple[int, ...]

    def __post_init__(self):
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

    def member(self, x: Word) -> bool:
        return c1_member(x, self)

    def decode(self, y: Word) -> Word:
        return c1_decode(y, self)

    def codebook(self, limit: int = MAX_ENUMERABLE) -> list[Word]:
        return list(_words_of_rows(self.codebook_rows(limit), self.q))

    def codebook_rows(self, limit: int = MAX_ENUMERABLE) -> np.ndarray:
        return c1_codebook_rows(self, limit)


def c1_member(x: Word, code: TandemVTCode) -> bool:
    """Membership: the zero-signature of the difference tail satisfies the
    VT residue for its length."""
    if x.q != code.q:
        raise ValueError(f"alphabet mismatch: word q={x.q}, code q={code.q}")
    if len(x) != code.n:
        raise ValueError(f"length mismatch: |x|={len(x)}, code n={code.n}")
    return _c1_holds(x.symbols, code)


def c1_decode(y: Word, code: TandemVTCode) -> Word:
    """Correct at most one tandem duplication of length ell.

    A duplication raises one signature entry k, and the checksum drifts by
    k. The decoder deletes the first ell-block of gap k, where gap k of the
    difference tail starts at index 0 (k = 1) or one past its (k-1)-th
    nonzero.
    """
    n, ell = code.n, code.ell
    if y.q != code.q:
        raise ValueError(f"alphabet mismatch: word q={y.q}, code q={code.q}")
    s = y.symbols
    if len(s) == n:
        if _c1_holds(s, code):
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
    p = 0 if k == 1 else nonzero[k - 2] + 1
    if s[p : p + ell] != s[p + ell : p + 2 * ell]:
        raise DecodingFailure(f"decoding failure: no tandem repeat at p={p}")
    repaired = s[: p + ell] + s[p + 2 * ell :]
    if not _c1_holds(repaired, code):
        raise DecodingFailure("decoding failure: repaired word is not a codeword")
    return _unchecked_word(repaired, code.q)


def _c1_keys(n: int, ell: int, q: int, limit: int):
    """All words of length n over Z_q, and per word its signature length s
    and VT residue mod (s+1), from one signature_scan."""
    arr = all_words(n, q, limit=limit)
    sig_len, _, csum = signature_scan(arr, ell)
    return arr, sig_len, csum % (sig_len + 1)


def _count_dtype(total: int):
    """int64 when every count, at most `total`, fits; else exact Python ints."""
    return np.int64 if total <= np.iinfo(np.int64).max else object


def _c1_counts(n: int, ell: int, q: int) -> np.ndarray:
    """counts[s-1, r]: the words of length n over Z_q whose zero-signature
    has length s and VT residue r, for s = 1..n-ell+1 and r = 0..n-ell+1
    (zero for r > s). Counted, not scanned (`docs/decisions.md`, D6): a tail
    with w nonzeros has w+1 zero gaps g_k = ell*j_k + e_k, and the table
    factors into A (the j, with their weighted sum mod w+2) and B (the e)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    m = n - ell
    if m < 0:
        raise ValueError("ell exceeds word length")
    dtype = _count_dtype(q**n)
    counts = np.zeros((m + 1, m + 2), dtype=dtype)
    # B[E]: (e_1..e_{w+1}) in 0..ell-1 summing to E <= m-w, the coefficients
    # of (1 + x + ... + x^(ell-1))^(w+1); one factor more per w
    B = np.zeros(m + 1, dtype=dtype)
    B[0] = 1
    for w in range(m + 1):
        B = B[: m - w + 1]
        prefix = np.cumsum(B)
        B[ell:] = prefix[ell:] - prefix[:-ell]
        B[:ell] = prefix[:ell]
        size, top = w + 2, (m - w) // ell
        # A[J, r]: (j_1..j_{w+1}) summing to J with sum_k k*j_k = r mod w+2,
        # one part k at a time: A[J] += roll(A[J-1], k)
        A = np.zeros((top + 1, size), dtype=dtype)
        A[0, 0] = 1
        for k in range(1, w + 2):
            for J in range(1, top + 1):
                A[J, k:] += A[J - 1, : size - k]
                A[J, :k] += A[J - 1, size - k :]
        counts[w, :size] = B[m - w - ell * np.arange(top + 1)] @ A
        counts[w] *= q**ell * (q - 1) ** w
    return counts


def c1_best_params(n: int, ell: int, q: int):
    """Best residue per signature length (ties to the smallest residue) and
    the resulting code cardinality, from the exact count `_c1_counts`.
    Refuses (ValueError) q < 2, ell < 1 and ell > n."""
    counts = _c1_counts(n, ell, q)
    best = counts.argmax(axis=1)  # first maximum: the smallest residue wins ties
    return tuple(int(r) for r in best), int(counts.max(axis=1).sum())


def c1_size_lower_bound(n: int, ell: int, q: int) -> Fraction:
    """Pigeonhole guarantee on the best-residue cardinality:
    q^ell * sum_nu sum_w A(n-(nu+1)ell, ell-1, w) * C(w+nu, nu) / (w+2)."""
    total = Fraction(0)
    for nu in range(n // ell):
        m = n - (nu + 1) * ell
        for w in range(m + 1):
            cnt = rll_weight_count(m, ell - 1, w, q)
            if cnt:
                total += Fraction(cnt * _binom(w + nu, nu), w + 2)
    return q**ell * total


def c1_codebook_rows(code: TandemVTCode, limit: int = MAX_ENUMERABLE) -> np.ndarray:
    """All codewords as int8 rows in lexicographic order."""
    arr, sig_len, residues = _c1_keys(code.n, code.ell, code.q, limit)
    wanted = np.asarray(code.a, dtype=np.int64)[sig_len - 1]
    return arr[residues == wanted]


# ---------------------------------------------------------------------------
# Construction 2: binary, palindromic duplications of length 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PalindromicL2Code:
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

    def member(self, x: Word) -> bool:
        return c2_member(x, self)

    def decode(self, y: Word) -> Word:
        return c2_decode(y, self)

    def codebook(self, limit: int = MAX_ENUMERABLE) -> list[Word]:
        return list(_words_of_rows(self.codebook_rows(limit), self.q))

    def codebook_rows(self, limit: int = MAX_ENUMERABLE) -> np.ndarray:
        return c2_codebook_rows(self, limit)


def _c2_syndrome(s: tuple[int, ...]):
    """(starts, ones, checksum) of the nonempty symbols s: the start of every
    run, the number of length-1 runs and the run checksum sum_j j*r_j, which
    is |s| per run less each run start."""
    starts = [0] + [i for i in range(1, len(s)) if s[i] != s[i - 1]]
    lengths = [end - start for start, end in zip(starts, starts[1:] + [len(s)])]
    return starts, lengths.count(1), len(s) * len(starts) - sum(starts)


def _c2_holds(s: tuple[int, ...], code: "PalindromicL2Code") -> bool:
    """The (a, b) syndrome test on the symbols of a length-n binary word."""
    _, ones, checksum = _c2_syndrome(s)
    return ones % 5 == code.a and checksum % (2 * code.n + 1) == code.b


def c2_member(x: Word, code: PalindromicL2Code) -> bool:
    if x.q != 2:
        raise ValueError("binary only: the run-profile construction requires q = 2")
    if len(x) != code.n:
        raise ValueError(f"length mismatch: |x|={len(x)}, code n={code.n}")
    return _c2_holds(x.symbols, code)


def c2_decode(y: Word, code: PalindromicL2Code) -> Word:
    """Correct at most one palindromic duplication of length 2.

    The drift of the length-1-run count mod 5 selects one of five run
    patterns around the duplication site; the run-checksum drift mod 2n+1
    locates the run j it happened in. Every candidate is realised as an
    actual mirrored-pair deletion (the four-symbol window must match) and
    validated for membership; exactly one distinct preimage survives. The
    modulus always uses the code's n, never the received length.
    """
    if y.q != 2:
        raise ValueError("binary only: the run-profile construction requires q = 2")
    n = code.n
    modulus = 2 * n + 1
    s = y.symbols
    if len(s) == n:
        if _c2_holds(s, code):
            return y
        raise DecodingFailure("decoding failure: received word is not a codeword")
    if len(s) != n + 2:
        raise DecodingFailure(f"decoding failure: length {len(s)} not in {{{n}, {n + 2}}}")

    starts, ones, checksum = _c2_syndrome(s)
    r = len(starts)
    delta = (ones - code.a) % 5
    drift = (checksum - code.b) % modulus
    # run j < r ends at starts[j] - 1; runs j+1..r hold len(s) - starts[j] symbols

    candidates: list[int] = []
    if delta == 0:
        # same-run duplication aa -> aaaa (even drift 2j), or the mirrored
        # pair landed on the last symbol: ...ab -> ...abba (drift 2r(y)-1)
        if drift % 2 == 0 and drift != 0:
            j = drift // 2
            if 1 <= j <= r:
                candidates.append(starts[j - 1])
        elif drift == (2 * r - 1) % modulus:
            candidates.append(len(s) - 4)
    elif delta in (4, 3):
        # one or two length-1 runs absorbed right of the site; drift 2j+3
        if drift % 2 == 1:
            j = (drift - 3) // 2
            if 1 <= j <= r - 2:
                candidates.append(starts[j] - 1)
    elif delta == 2:
        # two new length-1 runs: interior ab|ba pattern, or ab|b at the end
        for j in range(1, r - 3):
            if (2 * j + 5 + 2 * (len(s) - starts[j + 3])) % modulus == drift:
                candidates.append(starts[j] - 1)
        if r >= 4 and drift == (2 * r - 1) % modulus:
            candidates.append(starts[r - 3] - 1)
    else:  # delta == 1: duplication before a longer run of the second symbol
        for j in range(1, r - 2):
            if (2 * j + 3 + 2 * (len(s) - starts[j + 2])) % modulus == drift:
                candidates.append(starts[j] - 1)

    survivors: set[tuple[int, ...]] = set()
    for p in candidates:
        if not 0 <= p <= len(s) - 4 or s[p] != s[p + 3] or s[p + 1] != s[p + 2]:
            continue  # the window is not a mirrored pair: a rejected candidate run
        repaired = s[: p + 2] + s[p + 4 :]
        if _c2_holds(repaired, code):
            survivors.add(repaired)
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


def _c2_counts(n: int) -> np.ndarray:
    """counts[a, b]: the binary words of length n with a length-1 runs mod 5
    and run checksum b mod 2n+1. Counted over run compositions, not scanned
    (`docs/decisions.md`, D6): the first symbol gives a factor 2, a run that
    starts at position p adds n-p to the checksum, and a run of length 1
    adds one to the length-1-run count."""
    if n < 1:
        raise ValueError("run statistics need nonempty words")
    dtype = _count_dtype(2**n)
    # covered: run compositions of positions 0..p-1, by (length-1 runs mod 5,
    # checksum mod 2n+1); longer: the runs started before p, each of which
    # can end at p with length >= 2
    covered = np.zeros((5, 2 * n + 1), dtype=dtype)
    covered[0, 0] = 1
    longer = np.zeros_like(covered)
    for p in range(n):
        started = np.roll(covered, n - p, axis=1)  # a run starts at p
        covered = np.roll(started, 1, axis=0) + longer  # it ends at p, or one started earlier does
        longer += started
    return 2 * covered


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


def c2_codebook_rows(code: PalindromicL2Code, limit: int = MAX_ENUMERABLE) -> np.ndarray:
    """All codewords as int8 rows in lexicographic order."""
    arr, keys = _c2_keys(code.n, limit)
    return arr[keys == code.a * (2 * code.n + 1) + code.b]


# ---------------------------------------------------------------------------
# Construction 3: palindrome-free words, any duplication length >= 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PalindromeFreeCode:
    """Code of all 2-palindrome-free words of length n over Z_q; corrects a
    single palindromic duplication of any length 2..n."""

    n: int
    q: int

    @classmethod
    def best(cls, n: int, q: int, ell: int) -> "PalindromeFreeCode":
        """The code is unique for (n, q); ell is ignored."""
        return cls(n, q)

    @property
    def kinds(self) -> tuple[ErrorKind, ...]:
        return tuple(pal_dup(ell) for ell in range(2, self.n + 1))

    def member(self, x: Word) -> bool:
        if x.q != self.q:
            raise ValueError(f"alphabet mismatch: word q={x.q}, code q={self.q}")
        if len(x) != self.n:
            raise ValueError(f"length mismatch: |x|={len(x)}, code n={self.n}")
        return cpf_member(x)

    def decode(self, y: Word) -> Word:
        if y.q != self.q:
            raise ValueError(f"alphabet mismatch: word q={y.q}, code q={self.q}")
        return cpf_decode(y, self.n)

    def codebook(self, limit: int = MAX_ENUMERABLE) -> list[Word]:
        return list(_words_of_rows(self.codebook_rows(limit), self.q))

    def codebook_rows(self, limit: int = MAX_ENUMERABLE) -> np.ndarray:
        return cpf_codebook_rows(self.n, self.q, limit)


def _has_mirrored_pair(s: tuple[int, ...]) -> bool:
    """True iff the symbols s contain a window a b b a (a = b allowed)."""
    return any(s[p + 1] == s[p + 2] and s[p] == s[p + 3] for p in range(len(s) - 3))


def cpf_member(x: Word) -> bool:
    """True iff x contains no window a b b a (equivalently, no length-2
    palindromic deletion is possible). Words of length <= 3 always qualify."""
    return not _has_mirrored_pair(x.symbols)


def cpf_decode(y: Word, n: int) -> Word:
    """Correct one palindromic duplication of length |y| - n >= 2.

    Tries the deletion at every position where the window mirrors the block
    and returns the unique palindrome-free outcome. Length-1 duplications
    are outside this code's error model: a word of length n + 1 raises
    DecodingFailure.
    """
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
    survivors: set[tuple[int, ...]] = set()
    for p in range(len(s) - 2 * ell + 1):
        if s[p + ell : p + 2 * ell] == s[p : p + ell][::-1]:  # the window mirrors the block
            repaired = s[: p + ell] + s[p + 2 * ell :]
            if not _has_mirrored_pair(repaired):
                survivors.add(repaired)
    if len(survivors) == 1:
        return _unchecked_word(survivors.pop(), y.q)
    raise DecodingFailure(f"decoding failure: {len(survivors)} palindrome-free preimages")


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


def cpf_codebook_rows(n: int, q: int, limit: int = MAX_ENUMERABLE) -> np.ndarray:
    """All 2-palindrome-free words of length n as int8 rows in lexicographic order."""
    arr = all_words(n, q, limit=limit)
    return arr[pal2_free_mask(arr)]


# ---------------------------------------------------------------------------
# generic machinery
# ---------------------------------------------------------------------------


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


def oracle_verdicts(book_keys, order, group, received, owner, kind: ErrorKind, group_codes):
    """Array twin of `oracle_decode` and `disjoint_ball_violation` over a
    batch of codebooks: one lookup of the codewords that the single
    deletions of the inverse kind of each distinct received word reach.

    book_keys are the sorted packed keys (group << bits) | key of the
    codewords, order[k] is the codeword of book_keys[k], and group[i] is the
    index in group_codes of codeword i's code; `received` and `owner` come
    from `channel.duplication_rows` on some of the codewords. The scalar
    `member` of the code is asked once per distinct (code, outcome) and must
    agree with the lookup.

    Returns (verdicts, clashes). verdicts[r] is True when the lowest
    codeword that received row r reaches is its owner, it reaches no second
    one, and `member` agrees on every outcome. Since `deletion_rows` inverts
    `duplication_rows` exactly, a second codeword means that two balls hold
    the received word, and it fails the rows of both owners. clashes maps
    each group with such a word among the rows to (key, i, j, word) for the
    one with the smallest key: the two lowest codewords i < j reaching it
    and its symbols.
    """
    q = group_codes[0].q
    received_group = group[owner]
    received_keys = packed_keys(received, q, prefix=received_group)
    distinct_keys, distinct_at, word_of = distinct(received_keys)
    distinct_group = received_group[distinct_at]
    outcomes, source = deletion_rows(received[distinct_at], kind.inverse())
    outcome_group = distinct_group[source]
    keys = packed_keys(outcomes, q, prefix=outcome_group)
    at = np.minimum(np.searchsorted(book_keys, keys), len(book_keys) - 1)
    found = book_keys[at] == keys
    _, first, inverse = distinct(keys)
    member = [
        group_codes[g].member(_word_of_row(outcomes[k], q))
        for g, k in zip(outcome_group[first].tolist(), first.tolist())
    ]
    disagree = (np.array(member, dtype=bool) != found[first])[inverse]
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


def _recovers(c: Word, decode, y: Word) -> bool:
    """True when decode(y) returns c; a DecodingFailure is a broken round trip."""
    try:
        return decode(y) == c
    except DecodingFailure:
        return False


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
    `oracle_verdicts` does not return to the codeword. The decoder runs on
    every round trip. Raises ValueError when the packed keys do not fit
    int64.

    The codebook keys are packed and sorted once. Received words are built,
    looked up and decoded one block of codewords (about _BLOCK_ROWS
    received words) at a time; only per-group counts and clashes outlive a
    block.
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
            verdicts, clashes = oracle_verdicts(book_keys, order, group, received, owner, kind, group_codes)
            for g, clash in clashes.items():
                smallest[g] = min(clash, smallest.get(g, clash))
            per_owner = received.reshape(stop - start, per_codeword, received.shape[1])
            decoded = [
                _recovers(c, group_codes[g].decode, _unchecked_word(tuple(y), q))
                for c, g, rows in zip(_words_of_rows(book[start:stop], q), group[start:stop].tolist(), per_owner)
                for y in rows.tolist()
            ]
            failed = owner[~(verdicts & np.array(decoded, dtype=bool))]
            broken += np.bincount(group[failed], minlength=len(group_codes))
        clashes = {
            g: (_word_of_row(book[i], q), _word_of_row(book[j], q), _unchecked_word(y, q))
            for g, (_, i, j, y) in sorted(smallest.items())
        }
        results.append((kind, clashes, broken))
    return results

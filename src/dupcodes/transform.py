"""The step-derivative bridge from tandem errors to L1-metric errors.

The ell-step derivative splits x into a head u (first ell symbols) and a
difference tail v with v_i = x_{i+ell} - x_i mod q. A tandem duplication
of length ell in x inserts ell consecutive zeros into v; it leaves u and
the trunk of v (every maximal zero-run of length m cut to m mod ell zeros)
unchanged and increases exactly one entry of the zero-signature by one.
Tandem deletions decrease one positive entry. This reduces tandem errors to
unit L1 errors on the signature vector, which is what the VT-style
construction and the counting formulas exploit.

Signature coordinates are indexed 1-based in documentation: coordinate k
is the gap before the k-th nonzero of v, and coordinate wt+1 is the
trailing gap. An empty v has signature (0,).

Every tandem count reads one table of tails (`_gap_table`): the run-length
limited counts, the irreducible count and the deletion sphere histogram in
`bounds`, and the VT residue table of `codes` (`docs/decisions.md`, D6, D9
and D10).
"""

from itertools import accumulate

import numpy as np

from .words import Word, _unchecked_word


def derive(x: Word, ell: int) -> tuple[Word, Word]:
    """ell-step derivative (u, v): the head u, the first ell symbols, and the
    difference tail v, v_i = x_{i+ell} - x_i mod q."""
    if ell < 1:
        raise ValueError("step ell must be >= 1")
    if len(x) < ell:
        raise ValueError(f"word of length {len(x)} too short for step ell={ell}")
    s = x.symbols
    v = tuple((s[i + ell] - s[i]) % x.q for i in range(len(s) - ell))
    return _unchecked_word(s[:ell], x.q), _unchecked_word(v, x.q)


def zero_signature(v: Word, ell: int) -> tuple[int, ...]:
    """Whole ell-blocks of zeros per gap: (floor(m_0/ell), ..., floor(m_p/ell)).

    The result has length wt_H(v) + 1; leading and trailing gaps count even
    when empty.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    gaps = [0]
    for s in v.symbols:
        if s == 0:
            gaps[-1] += 1
        else:
            gaps.append(0)
    return tuple(m // ell for m in gaps)


def _count_dtype(total: int):
    """int64 when every count, at most `total`, fits; else exact Python ints."""
    return np.int64 if total <= np.iinfo(np.int64).max else object


def _tail_length(n: int, ell: int, q: int) -> int:
    """The length n - ell of the difference tail of a length-n word, after
    refusing what no tandem count takes: q < 2, ell < 1 and n < 0."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return n - ell


def _gap_table(n: int, ell: int, q: int) -> np.ndarray:
    """T[w, J] = (q-1)^w * B_w[m - w - ell*J] with m = n - ell: the tails in
    Z_q^m with w nonzeros whose zero gaps g_k = ell*j_k + e_k have one given
    block vector (j_1..j_{w+1}) of sum J. B_w[E] counts the remainders
    (e_1..e_{w+1}) in 0..ell-1 of sum E, the coefficients of
    (1 + x + ... + x^(ell-1))^(w+1); one factor more per w is a difference of
    prefix sums, taken in Python ints (faster than numpy at these lengths).
    Shape (m+1, m//ell + 1), zero where ell*J > m - w, and no rows when
    n < ell. Every entry times q^ell counts words of length n, so the dtype
    is int64 when q^n fits (`docs/decisions.md`, D9)."""
    m = _tail_length(n, ell, q)
    dtype = _count_dtype(q**n)
    if m < 0:
        return np.zeros((0, 1), dtype=dtype)
    rows, B = [], [1] + [0] * m
    for w in range(m + 1):
        prefix = list(accumulate(B[: m - w + 1]))
        B = prefix[:ell] + [high - low for high, low in zip(prefix[ell:], prefix)]
        row = [(q - 1) ** w * b for b in B[m - w :: -ell]]  # E = m - w - ell*J for J = 0, 1, ...
        rows.append(row + [0] * (m // ell + 1 - len(row)))
    return np.array(rows, dtype=dtype)

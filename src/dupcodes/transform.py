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
"""

from dataclasses import dataclass

from .words import Word, _unchecked_word


@dataclass(frozen=True, slots=True)
class DerivativePair:
    """Head u of length ell and difference tail v (entries in Z_q)."""

    u: Word
    v: Word


def derive(x: Word, ell: int) -> DerivativePair:
    """ell-step derivative: u = first ell symbols, v_i = x_{i+ell} - x_i mod q."""
    if ell < 1:
        raise ValueError("step ell must be >= 1")
    if len(x) < ell:
        raise ValueError(f"word of length {len(x)} too short for step ell={ell}")
    s = x.symbols
    v = tuple((s[i + ell] - s[i]) % x.q for i in range(len(s) - ell))
    return DerivativePair(_unchecked_word(s[:ell], x.q), _unchecked_word(v, x.q))


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

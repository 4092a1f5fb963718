"""The step-derivative bridge from tandem errors to L1-metric errors.

The ell-step derivative splits x into a head u (first ell symbols) and a
difference tail v with v_i = x_{i+ell} - x_i mod q. A tandem duplication
of length ell in x inserts ell consecutive zeros into v; it leaves u and
the trunk of v unchanged and increases exactly one entry of the
zero-signature by one. Tandem deletions decrease one positive entry. This
reduces tandem errors to unit L1 errors on the signature vector, which is
what the VT-style construction and the counting formulas exploit.

Signature coordinates are indexed 1-based in documentation: coordinate k
is the gap before the k-th nonzero of v, and coordinate wt+1 is the
trailing gap. An empty v has trunk () and signature (0,).
"""

from dataclasses import dataclass

from .words import Word, _unchecked_word


@dataclass(frozen=True, slots=True)
class DerivativePair:
    """Head u of length ell and difference tail v (entries in Z_q)."""

    u: Word
    v: Word

    @property
    def ell(self) -> int:
        return len(self.u)

    @property
    def q(self) -> int:
        return self.u.q


def derive(x: Word, ell: int) -> DerivativePair:
    """ell-step derivative: u = first ell symbols, v_i = x_{i+ell} - x_i mod q."""
    if ell < 1:
        raise ValueError("step ell must be >= 1")
    if len(x) < ell:
        raise ValueError(f"word of length {len(x)} too short for step ell={ell}")
    s = x.symbols
    v = tuple((s[i + ell] - s[i]) % x.q for i in range(len(s) - ell))
    return DerivativePair(_unchecked_word(s[:ell], x.q), _unchecked_word(v, x.q))


def integrate(pair: DerivativePair) -> Word:
    """Inverse of derive: x_i = u_i for i <= ell, x_{i+ell} = x_i + v_i mod q."""
    q = pair.q
    ell = pair.ell
    if ell < 1:
        raise ValueError("derivative head must be nonempty")
    out = list(pair.u.symbols)
    for d in pair.v.symbols:
        out.append((out[-ell] + d) % q)
    return _unchecked_word(tuple(out), q)


def _zero_gaps(v: Word) -> tuple[list[int], list[int]]:
    """Return (gap lengths m_0..m_p, nonzero symbols w_1..w_p) of v."""
    gaps = [0]
    nonzeros = []
    for s in v.symbols:
        if s == 0:
            gaps[-1] += 1
        else:
            nonzeros.append(s)
            gaps.append(0)
    return gaps, nonzeros


def trunk(v: Word, ell: int) -> Word:
    """Shorten every maximal zero-run of length m to m mod ell zeros."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    gaps, nonzeros = _zero_gaps(v)
    out = []
    for m, w in zip(gaps, nonzeros):
        out.extend([0] * (m % ell))
        out.append(w)
    out.extend([0] * (gaps[-1] % ell))
    return _unchecked_word(tuple(out), v.q)


def zero_signature(v: Word, ell: int) -> tuple[int, ...]:
    """Whole ell-blocks of zeros per gap: (floor(m_0/ell), ..., floor(m_p/ell)).

    The result has length wt_H(v) + 1; leading and trailing gaps count even
    when empty.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    gaps, _ = _zero_gaps(v)
    return tuple(m // ell for m in gaps)


def assemble(trunk_word: Word, signature, ell: int) -> Word:
    """Rebuild v from its trunk and zero-signature.

    Inserts signature[k] * ell zeros into gap k of the trunk. Inverse of
    (trunk, zero_signature) for every v.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    signature = tuple(signature)
    if any(c < 0 for c in signature):
        raise ValueError("incompatible decomposition: signature entries must be >= 0")
    gaps, nonzeros = _zero_gaps(trunk_word)
    if any(m >= ell for m in gaps):
        raise ValueError("incompatible decomposition: trunk has a zero-run of length >= ell")
    if len(signature) != len(nonzeros) + 1:
        raise ValueError(
            f"incompatible decomposition: signature length {len(signature)} != trunk weight + 1 = {len(nonzeros) + 1}"
        )
    out = []
    for k, w in enumerate(nonzeros):
        out.extend([0] * (gaps[k] + signature[k] * ell))
        out.append(w)
    out.extend([0] * (gaps[-1] + signature[-1] * ell))
    return _unchecked_word(tuple(out), trunk_word.q)

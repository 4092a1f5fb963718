"""Closed-form sphere sizes and bounds for single/multiple duplication errors.

Each function here has an enumeration counterpart in dupcodes.channel; the
test suite keeps the two routes in exact agreement on exhaustive ranges.

The palindromic deletion bound counts the maximal runs of the positions
that `channel.deletion_positions` finds, as the paper counts the runs of
all-zero columns of its palindrome matrix: column c (1-based) is all zero
exactly when the window x_{c+ell..c+2ell-1} mirrors the block
x_{c..c+ell-1}, a length-ell palindromic deletion at prefix length p = c - 1.
The tests build the matrix itself as the second route.
"""

from math import comb

from .channel import deletion_positions, pal_del
from .transform import derive, zero_signature
from .words import Word, run_profile


def _wt(v: Word) -> int:
    return sum(1 for s in v.symbols if s != 0)


def tandem_dup_sphere_size(x: Word, ell: int, t: int) -> int:
    """Size of the radius-t tandem duplication sphere: C(wt_H(v) + t, t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    _, v = derive(x, ell)
    return comb(_wt(v) + t, t)


def _bounded_compositions(bounds, total: int) -> int:
    """Number of integer vectors 0 <= s <= bounds with sum(s) = total."""
    counts = [0] * (total + 1)
    counts[0] = 1
    for b in bounds:
        new = [0] * (total + 1)
        for acc in range(total + 1):
            if counts[acc]:
                for take in range(0, min(b, total - acc) + 1):
                    new[acc + take] += counts[acc]
        counts = new
    return counts[total]


def tandem_del_sphere_size(x: Word, ell: int, t: int) -> int:
    """Size of the radius-t tandem deletion sphere.

    Counts the vectors s below the zero-signature with |s|_1 = t; zero when
    the signature total is smaller than t. For t = 1 this is the Hamming
    weight of the signature.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    _, v = derive(x, ell)
    sig = zero_signature(v, ell)
    if sum(sig) < t:
        return 0
    return _bounded_compositions(sig, t)


def pal_dup_sphere_size_l1(x: Word) -> int:
    """Single palindromic duplications of length 1: one outcome per run."""
    return len(run_profile(x))


def pal_dup_sphere_size_l2(x: Word) -> int:
    """Exact size of the single palindromic duplication sphere for ell = 2:
    2 r(x) - r^(1)(x) - 1."""
    if len(x) < 2:
        raise ValueError("need |x| >= 2 for length-2 duplications")
    runs = run_profile(x)
    return 2 * len(runs) - runs.count(1) - 1


def pal_dup_sphere_upper_bound(x: Word, ell: int) -> int:
    """Upper bound n - ell + 1 - sum_{i > ell} (i - ell) r^(i)(x) on the
    single palindromic duplication sphere; exact for ell <= 2."""
    if len(x) < ell:
        raise ValueError("need |x| >= ell")
    excess = sum(r - ell for r in run_profile(x) if r > ell)
    return len(x) - ell + 1 - excess


def pal_del_sphere_size_l1(x: Word) -> int:
    """Single palindromic deletions of length 1: number of runs of length >= 2."""
    return sum(r >= 2 for r in run_profile(x))


def pal_del_sphere_size_l2_binary(x: Word) -> int:
    """Exact single palindromic deletion sphere size for ell = 2 over q = 2.

    Interior length-2 runs (touching neither end of the word: neither the
    first run nor the last) plus runs of length >= 4. Words shorter than 4
    have no deletion window and yield 0.
    """
    if x.q != 2:
        raise ValueError("binary only: this closed form holds for q = 2")
    runs = run_profile(x)
    return runs[1:-1].count(2) + sum(r >= 4 for r in runs)


def pal_del_sphere_upper_bound(x: Word, ell: int) -> int:
    """Upper bound on the single palindromic deletion sphere size: the number
    of maximal runs of positions p whose window x_{p+ell+1..p+2ell} mirrors
    the block x_{p+1..p+ell}. Adjacent such positions only occur inside one
    long run of equal symbols, whose deletions all coincide, hence the
    grouping."""
    positions = deletion_positions(x, pal_del(ell))
    return sum(1 for i, p in enumerate(positions) if not i or positions[i - 1] != p - 1)

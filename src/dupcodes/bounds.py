"""Counting formulas and the generalized sphere-packing upper bound.

The bound for single tandem duplications rests on three ingredients: the
count of run-length-limited words by weight, the distribution of tandem
deletion sphere sizes, and a fractional transversal of the deletion
hypergraph that weights irreducible words with 1 and words of length
n - t*ell with the inverse of their own deletion sphere size. All bound
arithmetic is exact rational (the transversal sums unit fractions); only
redundancy columns are floats.

Small instances are cross-checked here by two independent routes: a brute
transversal feasibility check over the full word space, and an exact
maximum-independent-set solve of the conflict graph.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import channel
from .channel import ErrorKind, error_ball, error_sphere, tandem_del
from .words import Word, _words_of_rows
from .wordspace import MAX_ENUMERABLE, all_words


def _binom(a: int, b: int) -> int:
    if a < 0 or b < 0:
        return 0
    return comb(a, b)


def rll_weight_count(n_prime: int, ell_prime: int, weight: int, q: int) -> int:
    """Number of words in Z_q^{n'} with every zero-run <= ell' and Hamming
    weight omega, by the closed form (piecewise in omega and n' vs ell')."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if n_prime < 0 or ell_prime < 0 or weight < 0:
        return 0
    if n_prime <= ell_prime:
        return (q - 1) ** weight * _binom(n_prime, weight)
    if weight == 0:
        return 0
    if weight == 1:
        return (q - 1) * max(0, 2 * (ell_prime + 1) - n_prime)
    total = 0
    for p in range(ell_prime + 1):
        for j in range(weight):
            total += (
                (-1) ** j
                * _binom(weight - 1, j)
                * (
                    _binom(n_prime - p - 1 - j * (ell_prime + 1), weight - 1)
                    - _binom(n_prime - p - 1 - (j + 1) * (ell_prime + 1), weight - 1)
                )
            )
    return (q - 1) ** weight * total


def irreducible_count(n: int, ell: int, q: int) -> int:
    """Words of length n admitting no tandem deletion of length ell.

    These are exactly the words whose difference tail has no run of ell
    zeros, i.e. q^ell choices of head times the run-length-limited count of
    the tail.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < ell:
        return q**n
    return q**ell * sum(rll_weight_count(n - ell, ell - 1, w, q) for w in range(n - ell + 1))


def deletion_histogram(n: int, ell: int, q: int) -> dict[int, int]:
    """Map sphere size i -> number of words of length n with single tandem
    deletion sphere size i. The i = 0 entry is the irreducible count;
    entries with zero count are omitted for i >= 1."""
    if n < ell:
        return {0: q**n}
    hist = {0: irreducible_count(n, ell, q)}
    for i in range(1, n // ell + 1):
        total = 0
        for nu in range(i, n // ell):
            for w in range(i - 1, n - (nu + 1) * ell + 1):
                total += (
                    q**ell
                    * rll_weight_count(n - (nu + 1) * ell, ell - 1, w, q)
                    * _binom(w + 1, i)
                    * _binom(nu - 1, i - 1)
                )
        if total:
            hist[i] = total
    return hist


@dataclass(frozen=True)
class BoundReport:
    """Per-(n, ell, q) record of the sphere-packing bound ingredients."""

    n: int
    ell: int
    q: int
    t: int
    irreducible_counts: tuple[int, ...]  # at lengths n, n-ell, ..., n-t*ell
    histogram: dict[int, int]  # sphere-size histogram at length n-t*ell
    bound: Fraction

    @property
    def redundancy_lb_bits_raw(self) -> float:
        """n*log2(q) - log2(bound); may be negative on tiny instances."""
        return self.n * math.log2(self.q) - (
            math.log2(self.bound.numerator) - math.log2(self.bound.denominator)
        )

    @property
    def redundancy_lb_bits(self) -> float:
        """Raw lower bound clamped to 0 (redundancy is nonnegative)."""
        return max(0.0, self.redundancy_lb_bits_raw)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "l": self.ell,
            "q": self.q,
            "t": self.t,
            "bound_numerator": self.bound.numerator,
            "bound_denominator": self.bound.denominator,
            "redundancy_lb_bits": self.redundancy_lb_bits,
            "redundancy_lb_bits_raw": self.redundancy_lb_bits_raw,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def bound_report(n: int, ell: int, q: int) -> BoundReport:
    """Assemble the single-error (t = 1) bound report for (n, ell, q).

    The bound is the total weight of the explicit transversal over the
    deletion hypergraph's actual vertex set: words of length n - i*ell only
    exist as vertices when a chain of i deletions can reach them, i.e. when
    n >= (i+1)*ell, so shorter-length terms drop out on degenerate
    instances (irreducible_counts records 0 there).
    """
    t = 1
    irr = tuple(
        irreducible_count(n - i * ell, ell, q) if (i == 0 or n >= (i + 1) * ell) else 0
        for i in range(t + 1)
    )
    hist = deletion_histogram(n - t * ell, ell, q) if n >= (t + 1) * ell else {}
    bound = Fraction(sum(irr))
    for i, cnt in hist.items():
        if i >= 1:
            bound += Fraction(cnt, i)
    return BoundReport(n, ell, q, t, irr, hist, bound)


def gsp_bound_tandem(n: int, ell: int, q: int) -> Fraction:
    """Upper bound on the size of any single tandem duplication correcting
    code of length n: total weight of the explicit fractional transversal,

        sum_{i=0..1} |IRR at length n-i*ell| + sum_{i>=1} N(n-ell, i) / i.
    """
    if n < ell:
        raise ValueError("need n >= ell")
    return bound_report(n, ell, q).bound


def transversal_check(n: int, ell: int, t: int, q: int, limit: int = MAX_ENUMERABLE):
    """Verify the explicit fractional transversal on the full word space.

    Builds T (1 on t-irreducible words, inverse deletion-sphere size on
    non-irreducible words of length n - t*ell, 0 elsewhere) and checks that
    every radius-t deletion ball of a length-n word carries weight >= 1.
    Returns (ok, deficits) where deficits lists the violating words.
    """
    if q**n > limit:
        raise ValueError(f"instance too large: q^n = {q**n} exceeds the guard {limit}")
    kind = tandem_del(ell)
    weight_cache: dict[Word, Fraction] = {}

    def weight(v: Word) -> Fraction:
        got = weight_cache.get(v)
        if got is None:
            size = len(error_sphere(v, kind, t))
            if size == 0:
                got = Fraction(1)  # t-irreducible
            elif len(v) == n - t * ell:
                got = Fraction(1, size)
            else:
                got = Fraction(0)
            weight_cache[v] = got
        return got

    deficits = []
    for x in _words_of_rows(all_words(n, q, limit=limit), q):
        total = sum((weight(v) for v in error_ball(x, kind, t)), Fraction(0))
        if total < 1:
            deficits.append(x)
    return (not deficits, deficits)


def _max_independent_set(vertices: list[Word], adj: dict[Word, set[Word]]) -> int:
    """Exact maximum independent set size, branch and bound per connected
    component with a greedy initial solution; lexicographic tie-breaking."""

    def greedy(cand: frozenset) -> int:
        live = set(cand)
        size = 0
        while live:
            v = min(live, key=lambda u: (len(adj[u] & live), u.symbols))
            size += 1
            live -= {v}
            live -= adj[v]
        return size

    def reduce(cand: set, current: int) -> tuple[frozenset, int]:
        # vertices of degree <= 1 can always join an optimal solution
        changed = True
        while changed:
            changed = False
            for v in list(cand):
                if v not in cand:
                    continue
                nb = adj[v] & cand
                if len(nb) == 0:
                    cand.discard(v)
                    current += 1
                    changed = True
                elif len(nb) == 1:
                    cand.discard(v)
                    cand.discard(next(iter(nb)))
                    current += 1
                    changed = True
        return frozenset(cand), current

    def component_best(comp: frozenset) -> int:
        best = greedy(comp)
        stack = [reduce(set(comp), 0)]
        while stack:
            cand, current = stack.pop()
            if current + len(cand) <= best:
                continue
            if not cand:
                best = current
                continue
            v = max(cand, key=lambda u: (len(adj[u] & cand), u.symbols))
            stack.append(reduce(set(cand) - {v}, current))
            stack.append(reduce(set(cand) - {v} - adj[v], current + 1))
        return best

    seen: set[Word] = set()
    total = 0
    for v in vertices:
        if v in seen:
            continue
        comp = []
        frontier = [v]
        seen.add(v)
        while frontier:
            u = frontier.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        total += component_best(frozenset(comp))
    return total


def exact_optimum(
    n: int,
    ell: int,
    t: int,
    q: int,
    family: str = channel.TANDEM_DUP,
    limit: int = MAX_ENUMERABLE,
) -> int:
    """Size of the largest t-error-correcting code of length n for the given
    error family, by exact maximum independent set over the conflict graph
    (edges join words whose radius-t balls intersect)."""
    if q**n > limit:
        raise ValueError(f"instance too large: q^n = {q**n} exceeds the guard {limit}")
    if t == 0:
        return q**n
    kind = ErrorKind(family, ell)
    vertices = list(_words_of_rows(all_words(n, q, limit=limit), q))
    adj: dict[Word, set[Word]] = {v: set() for v in vertices}
    owners: dict[Word, list[Word]] = {}
    for v in vertices:
        for member in error_ball(v, kind, t):
            owners.setdefault(member, []).append(v)
    for centers in owners.values():
        for i in range(len(centers)):
            for k in range(i + 1, len(centers)):
                adj[centers[i]].add(centers[k])
                adj[centers[k]].add(centers[i])
    return _max_independent_set(vertices, adj)


@dataclass(frozen=True)
class RedundancyRow:
    """One row of the redundancy comparison table (redundancy columns in bits)."""

    n: int
    report: BoundReport  # the sphere-packing bound and its lower bound on redundancy
    c1_redundancy: float
    c2_redundancy: float
    burst_redundancy: float


def redundancy_table(n_values, ell: int, q: int, limit: int = MAX_ENUMERABLE) -> list[RedundancyRow]:
    """Redundancy comparison per length n: the sphere-packing lower bound,
    the achieved redundancy of the VT-style tandem construction at its best
    residues, the run-profile palindromic construction guarantee
    log2(n) + log2(10), and the reference burst-insertion redundancy
    log2(n) + log2(log2(n)) + 1."""
    from .codes import c1_best_params  # deferred: codes depends on this module

    rows = []
    for n in n_values:
        report = bound_report(n, ell, q)
        _, cardinality = c1_best_params(n, ell, q, limit=limit)
        c1_red = n * math.log2(q) - math.log2(cardinality)
        c2_red = math.log2(n) + math.log2(10)
        burst = math.log2(n) + math.log2(math.log2(n)) + 1 if n >= 2 else float("nan")
        rows.append(
            RedundancyRow(
                n=n,
                report=report,
                c1_redundancy=c1_red,
                c2_redundancy=c2_red,
                burst_redundancy=burst,
            )
        )
    return rows

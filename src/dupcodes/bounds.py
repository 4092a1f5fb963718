"""Counting formulas and the generalized sphere-packing upper bound.

The bound for single tandem duplications rests on the distribution of
tandem deletion sphere sizes and a fractional transversal of the deletion
hypergraph that weights irreducible words with 1 and words of length
n - t*ell with the inverse of their own deletion sphere size. The sphere
sizes, the irreducible count and the run-length-limited count by weight
are all read off one table of difference tails, `transform._gap_table`,
which also holds the c1 residue counts of `codes` (`docs/decisions.md`,
D9). A row of the redundancy comparison (`bound_report`) builds one
table, T_n: the irreducible count and the c1 residue counts read it
whole, and the deletion histogram at n - ell reads it less its first
column (D16). All bound arithmetic is exact rational; only redundancy
columns are floats.

Small instances are cross-checked by two independent routes over the full
word space, both built on one array incidence of the error hypergraph:
`error_incidence` lists every distinct (centre, single-error outcome) pair
of a batch of rows, from the outcome keys of `channel.error_keys` and one
sort, and `sphere_levels` repeats it level by level for radius t.

- `transversal_check` checks that the explicit transversal is feasible,
  exactly and in integers: each weight is scaled by D, the lcm of the
  sphere sizes that occur, so a ball's weight is an int64 sum compared
  with D (Python ints when D times the largest ball leaves int64).
- `exact_optimum` solves maximum independent set on the conflict graph,
  whose edges join the centres that share an outcome (`conflict_edges`),
  by a branch and bound on the bitsets of each connected component.

No Word is built on either route except the deficit words; the branch and
bound runs on the row indices. `docs/decisions.md` records why (D3) and
how the branch and bound cuts and branches (D7).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import channel
from .channel import ErrorKind, error_keys, tandem_del
from .codes import _c1_best_params
from .transform import _gap_table
from .words import _word_of_row
from .wordspace import (
    MAX_ENUMERABLE,
    all_words,
    distinct,
    key_rows,
    key_width,
    packed_keys,
    runs_start,
)


def rll_weight_count(n_prime: int, ell_prime: int, weight: int, q: int) -> int:
    """Number of words in Z_q^{n'} with every zero-run <= ell' and Hamming
    weight omega: the gap table entry T[omega, 0] for blocks of ell' + 1
    (`transform._gap_table`, whose tails of length n' have no whole block
    in any gap), and 0 outside the table."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if ell_prime < 0 or not 0 <= weight <= n_prime:
        return 0
    return int(_gap_table(n_prime + ell_prime + 1, ell_prime + 1, q)[weight, 0])


def irreducible_count(n: int, ell: int, q: int) -> int:
    """Words of length n admitting no tandem deletion of length ell.

    These are exactly the words whose difference tail has no run of ell
    zeros, i.e. q^ell choices of head times the tails with no whole block
    in any gap, column J = 0 of the gap table; all q^n words when n < ell.
    """
    return _irreducible_count(_gap_table(n, ell, q), n, ell, q)  # refuses q < 2, ell < 1 and n < 0


def _irreducible_count(table: np.ndarray, n: int, ell: int, q: int) -> int:
    """`irreducible_count` from the gap table of (n, ell, q)."""
    if n < ell:
        return q**n
    return q**ell * int(table[:, 0].sum())


def deletion_histogram(n: int, ell: int, q: int) -> dict[int, int]:
    """Map sphere size i -> number of words of length n with single tandem
    deletion sphere size i. The i = 0 entry is the irreducible count;
    entries with zero count are omitted for i >= 1.

    The sphere size is the number of gaps of the tail that hold a whole
    block, the positive j_k. The block vectors with w+1 parts, sum J and
    exactly i positive parts number C(w+1, i) C(J-1, i-1), so

        hist[i] = q^ell * sum_{w, J} T[w, J] C(w+1, i) C(J-1, i-1)

    over the gap table T (`transform._gap_table`, `docs/decisions.md` D9).
    Only i <= J is summed, so every partial sum counts words and stays in
    the table's dtype."""
    return _deletion_histogram(_gap_table(n, ell, q), n, ell, q)  # refuses q < 2, ell < 1 and n < 0


def _deletion_histogram(table: np.ndarray, n: int, ell: int, q: int) -> dict[int, int]:
    """`deletion_histogram` from the gap table of (n, ell, q)."""
    if n < ell:
        return {0: q**n}
    m, top = n - ell, table.shape[1] - 1
    choose = np.array([[comb(w + 1, i) for i in range(top + 1)] for w in range(m + 1)], dtype=table.dtype)
    total = np.zeros(top + 1, dtype=table.dtype)
    total[0] = table[:, 0].sum()
    for J in range(1, top + 1):
        rows = m - ell * J + 1  # the weights w that leave room for J blocks
        parts = np.array([comb(J - 1, i - 1) for i in range(1, J + 1)], dtype=table.dtype)
        total[1 : J + 1] += parts * (table[:rows, J] @ choose[:rows, 1 : J + 1])
    return {i: q**ell * int(count) for i, count in enumerate(total) if count or i == 0}


@dataclass(frozen=True)
class BoundReport:
    """One row of the redundancy comparison for (n, ell, q): the single-error
    bound, its ingredients and the c1 cardinality (redundancy in bits)."""

    n: int
    ell: int
    q: int
    t: int
    histogram: dict[int, int]  # sphere-size histogram at length n - ell
    bound: Fraction
    c1_cardinality: int

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

    @property
    def c1_redundancy(self) -> float:
        """Achieved redundancy of the VT-style tandem construction at its best residues."""
        return self.n * math.log2(self.q) - math.log2(self.c1_cardinality)

    @property
    def c2_redundancy(self) -> float:
        """The paper's reference formula log2(n) + log2(10) for the run-profile
        palindromic construction; not a bound: from n = 40 on it is below the
        exact redundancy of c2's best (a, b) class, which the pigeonhole
        value log2(5(2n+1)) stays above."""
        return math.log2(self.n) + math.log2(10)

    @property
    def burst_redundancy(self) -> float:
        """The reference burst-insertion redundancy log2(n) + log2(log2(n)) + 1;
        nan below n = 2, where it is undefined."""
        if self.n < 2:
            return float("nan")
        return math.log2(self.n) + math.log2(math.log2(self.n)) + 1


def bound_report(n: int, ell: int, q: int) -> BoundReport:
    """The single-error (t = 1) comparison row for (n, ell, q), read off the
    one gap table T_n (`transform._gap_table`). Refuses (ValueError) q < 2,
    ell < 1, n < 0 and ell > n.
    """
    table = _gap_table(n, ell, q)  # refuses q < 2, ell < 1 and n < 0
    _, c1_cardinality = _c1_best_params(n, ell, q, table)  # refuses ell > n
    hist, bound = _transversal_total(table, n, ell, q)
    return BoundReport(n, ell, q, 1, hist, bound, c1_cardinality)


def _transversal_total(table: np.ndarray, n: int, ell: int, q: int) -> tuple[dict[int, int], Fraction]:
    """(histogram, bound) off the gap table T_n of (n, ell), n >= ell: the
    total weight of the explicit transversal over the deletion hypergraph's
    actual vertex set. Words of length n - ell are vertices only when a
    deletion reaches them, n >= 2 ell; their histogram reads the view
    T_n[: n - 2 ell + 1, 1:], which is T_{n-ell} (`docs/decisions.md` D16).
    """
    hist = _deletion_histogram(table[: n - 2 * ell + 1, 1:], n - ell, ell, q) if n >= 2 * ell else {}
    bound = Fraction(_irreducible_count(table, n, ell, q) + hist.get(0, 0))
    for i, cnt in hist.items():
        if i >= 1:
            bound += Fraction(cnt, i)
    return hist, bound


def gsp_bound_tandem(n: int, ell: int, q: int) -> Fraction:
    """Upper bound on the size of any single tandem duplication correcting
    code of length n: total weight of the explicit fractional transversal,

        sum_{i=0..1} |IRR at length n-i*ell| + sum_{i>=1} N(n-ell, i) / i.
    """
    if n < ell:
        raise ValueError("need n >= ell")
    return _transversal_total(_gap_table(n, ell, q), n, ell, q)[1]


_BLOCK_OUTCOMES = 1 << 18  # single-error outcomes error_incidence holds as keys at a time
_INT64_MAX = 2**63 - 1


def error_incidence(rows, kind: ErrorKind, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct (centre, outcome) pair of single errors of the kind on
    a batch of words, as (centre, key).

    rows is an (N, n) array of words over Z_q. centre[k] indexes it, and
    key[k] is the packed key (`packed_keys`) of a word of length n +- ell
    that one error turns row centre[k] into. Pairs come in (centre, key)
    order, each once, so np.bincount(centre, minlength=N) is the sphere size
    of every row. Rows are taken a block at a time: the outcome keys of a
    block (`channel.error_keys`) are packed behind their centre as prefix
    (refused past 63 bits, as in `packed_keys`), sorted once, and kept where
    they differ from their predecessor.

    One block's pairs are the output as they are. With more blocks, each
    block's pairs go straight into output allocated for one pair per row and
    error position. Only the pairs are written, so the pages past them need
    not become resident, and the arrays are trimmed in place at the end: no
    second copy of the pairs is ever held.
    """
    rows = np.asarray(rows)
    N, n = rows.shape
    length = n + kind.ell if kind.is_duplication else max(0, n - kind.ell)
    step = max(1, _BLOCK_OUTCOMES // max(1, n - kind.ell + 1))
    width = key_width(N, length, q, max(0, min(N, step) - 1))  # a block's centres go in front
    mask = (1 << width) - 1

    def block_pairs(start):
        source, packed = error_keys(rows[start : start + step], kind, q)
        packed |= np.left_shift(source, width, out=source)
        packed.sort()
        return packed[runs_start(packed)]

    if N <= step:
        packed = block_pairs(0)
        key = packed & mask
        return np.right_shift(packed, width, out=packed), key
    positions = max(0, n - kind.ell + 1 if kind.is_duplication else n - 2 * kind.ell + 1)
    centre = np.empty(N * positions, dtype=np.int64)
    key = np.empty(N * positions, dtype=np.int64)
    filled = 0
    for start in range(0, N, step):
        packed = block_pairs(start)
        at = slice(filled, filled + len(packed))
        np.right_shift(packed, width, out=centre[at])
        centre[at] += start
        np.bitwise_and(packed, mask, out=key[at])
        filled += len(packed)
    centre.resize(filled, refcheck=False)
    key.resize(filled, refcheck=False)
    return centre, key


def sphere_levels(rows, kind: ErrorKind, t: int, q: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The error spheres of radius 0..t around every row of a batch of
    distinct words: levels[i] = (centre, key) holds every distinct pair of a
    row and a word that exactly i errors of the kind reach from it, in
    (centre, key) order, as `error_incidence` does for i = 1.

    Level i + 1 composes level i with the single-error incidence of the
    distinct words of level i: a row reaches every outcome of every word it
    reaches, and the composed pairs are deduplicated.
    """
    if t < 0:
        raise ValueError("error count t must be >= 0")
    rows = np.asarray(rows)
    N, n = rows.shape
    levels = [(np.arange(N), packed_keys(rows, q))]
    if t >= 1:
        levels.append(error_incidence(rows, kind, q))
    step = kind.ell if kind.is_duplication else -kind.ell
    for i in range(1, t):
        centre, key = levels[i]
        words, _, word_of = distinct(key)
        source, reached = error_incidence(key_rows(words, max(0, n + i * step), q), kind, q)
        # pair k of level i fans out to the outcomes of its word w, the run of
        # `reached` where source == w (the incidence comes in source order)
        fan = np.bincount(source, minlength=len(words))
        first = (np.cumsum(fan) - fan)[word_of]
        fan = fan[word_of]
        pick = np.arange(fan.sum()) + np.repeat(first - (np.cumsum(fan) - fan), fan)
        centre, key = np.repeat(centre, fan), reached[pick]
        order = np.lexsort((key, centre))
        centre, key = centre[order], key[order]
        keep = runs_start(centre) | runs_start(key)
        levels.append((centre[keep], key[keep]))
    return levels


def _scaled_weights(sizes: np.ndarray, scale: int, last: bool, dtype) -> np.ndarray:
    """The explicit transversal times `scale` on words with radius-t sphere
    sizes `sizes`: scale on t-irreducible words, scale // size on the others
    when they are words of the last level, 0 otherwise."""
    weight = np.zeros(len(sizes), dtype=dtype)
    weight[sizes == 0] = scale
    if last:
        hit = sizes > 0
        weight[hit] = scale // sizes[hit].astype(dtype)
    return weight


def transversal_check(n: int, ell: int, t: int, q: int, limit: int = MAX_ENUMERABLE):
    """Verify the explicit fractional transversal on the full word space.

    T is 1 on t-irreducible words, the inverse deletion-sphere size on
    non-irreducible words of length n - t*ell, and 0 elsewhere; every
    radius-t deletion ball of a length-n word must carry weight >= 1.
    Returns (ok, deficits) where deficits lists the violating words in
    lexicographic order.

    Exact in integers: every weight is scaled by D, the lcm of the sphere
    sizes that occur at length n - t*ell, and each ball's scaled sum is
    compared with D. The sums are int64, or Python ints when D times the
    largest ball does not fit int64.

    Level i of the balls is the whole word space of length m = n - i*ell
    when m >= ell (duplicating the first block of a word i times gives a
    length-n word whose ball holds it), and empty otherwise. So a word's key
    is its index in all_words(m, q), and the sphere sizes of a level are
    indexed by key.
    """
    kind = tandem_del(ell)
    rows = all_words(n, q, limit=limit)
    N = len(rows)
    levels = sphere_levels(rows, kind, t, q)
    # radius-t sphere size of every word of each level's length, by key
    sizes = [np.bincount(levels[t][0], minlength=N)]
    for i in range(1, t + 1):
        words = all_words(max(0, n - i * ell), q, limit=limit)
        sizes.append(np.bincount(sphere_levels(words, kind, t, q)[t][0], minlength=len(words)))
    occurring = np.flatnonzero(np.bincount(sizes[t]))
    scale = math.lcm(*occurring[occurring > 0].tolist())
    largest = int(sum(np.bincount(centre, minlength=N) for centre, _ in levels).max())
    dtype = object if scale * largest > _INT64_MAX else np.int64
    total = np.zeros(N, dtype=dtype)
    for i, (centre, key) in enumerate(levels):
        np.add.at(total, centre, _scaled_weights(sizes[i], scale, i == t, dtype)[key])
    deficits = np.flatnonzero(total < scale)
    return (not len(deficits), [_word_of_row(row, q) for row in rows[deficits]])


def _component_labels(N: int, low, high) -> np.ndarray:
    """A label per vertex of the graph on 0..N-1 with edges (low[k],
    high[k]), equal exactly within each connected component: the smallest
    vertex of the component. Labels form a forest whose roots label
    themselves. Each round hooks the larger root of every edge under its
    smaller root, then shortcuts every label to its root (label =
    label[label] until nothing changes), until every edge joins one root."""
    label = np.arange(N)
    while True:
        root_low, root_high = label[low], label[high]
        if np.array_equal(root_low, root_high):
            return label
        np.minimum.at(label, np.maximum(root_low, root_high), np.minimum(root_low, root_high))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _component_mis(nbr: list[int]) -> int:
    """Exact maximum independent set size of one graph whose vertex v has
    the neighbour bitset nbr[v], by branch and bound over candidate bitsets
    on an explicit stack.

    A node holds the candidates, the size of the set taken so far and a
    bound on the size it can reach. Candidates of degree 0 or 1 join the set
    (some optimum holds them). A greedy clique cover of the rest, built from
    the lowest bit up, bounds the rest: an independent set takes at most one
    vertex of each clique, so at most k from the first k cliques. The node
    branches only on the vertices past its first best - size cliques. The
    child of vertex v takes v, and its candidates are the non-neighbours of
    v that the cover reached before v. `docs/decisions.md` (D7) gives the
    reasons.
    """
    best = 0
    stack = [((1 << len(nbr)) - 1, 0, len(nbr))]
    while stack:
        cand, size, bound = stack.pop()
        if bound <= best:
            continue
        rest = cand
        while rest:  # reduce; a vertex whose degree drops is looked at again
            low = rest & -rest
            rest ^= low
            near = nbr[low.bit_length() - 1] & cand
            if near.bit_count() <= 1:
                cand &= ~(low | near)
                size += 1
                if near:  # the neighbour leaves, and its own neighbours lose a degree
                    rest = (rest & ~near) | (nbr[near.bit_length() - 1] & cand)
        if not cand:
            best = max(best, size)
            continue
        room, uncovered, cliques, before = best - size, cand, 0, 0
        while uncovered:
            cliques += 1
            clique = uncovered
            while clique:
                low = clique & -clique
                v = low.bit_length() - 1
                uncovered ^= low
                clique &= nbr[v]
                if cliques > room:  # the last child pushed is searched first
                    stack.append((before & ~nbr[v], size + 1, size + cliques))
                before |= low
    return best


def _max_independent_set(N: int, low, high) -> int:
    """Exact maximum independent set size of the graph on 0..N-1 with edges
    (low[k], high[k]): the sum over its connected components. Bit i of a
    component's bitsets is its i-th vertex in order of ascending degree, so
    a bitset takes one bit per vertex of its own component."""
    if not len(low):
        return N
    degree = np.bincount(low, minlength=N) + np.bincount(high, minlength=N)
    _, _, part = distinct(_component_labels(N, low, high))
    sizes = np.bincount(part)
    by_part = np.lexsort((degree, part))  # component by component, ascending degree
    local = np.empty(N, dtype=np.int64)  # rank of each vertex within its component
    local[by_part] = np.arange(N) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    nbr = [[0] * size for size in sizes.tolist()]
    for c, u, v in zip(part[low].tolist(), local[low].tolist(), local[high].tolist()):
        nbr[c][u] |= 1 << v
        nbr[c][v] |= 1 << u
    # a vertex alone in its component joins every maximum set
    return int(np.count_nonzero(sizes == 1)) + sum(_component_mis(bits) for bits in nbr if len(bits) > 1)


def conflict_edges(rows, kind: ErrorKind, t: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges (u, v), u < v, of the conflict graph on a batch of distinct
    words: rows u and v whose radius-t balls share a word. Edges come in
    (u, v) order, each once.

    The words of one level of the balls (`sphere_levels`) have one length,
    and levels differ in length, so two balls meet exactly where two centres
    share an outcome key on some level i >= 1.
    """
    N = len(rows)
    low, high = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for centre, key in sphere_levels(rows, kind, t, q)[1:]:
        order = np.lexsort((centre, key))  # the centres reaching one word are neighbours
        centre, key = centre[order], key[order]
        for d in range(1, len(key)):
            same = key[d:] == key[:-d]
            if not same.any():  # no word is reached by more than d centres
                break
            low.append(centre[:-d][same])
            high.append(centre[d:][same])
    packed = np.sort(np.concatenate(low) * N + np.concatenate(high))
    packed = packed[runs_start(packed)]
    return packed // N, packed % N


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
    (edges join words whose radius-t balls intersect, `conflict_edges`)."""
    rows = all_words(n, q, limit=limit)
    return _max_independent_set(len(rows), *conflict_edges(rows, ErrorKind(family, ell), t, q))


def redundancy_table(n_values, ell: int, q: int) -> list[BoundReport]:
    """The redundancy comparison row (`bound_report`) of every length in
    n_values, in order: the sphere-packing lower bound, the achieved
    redundancy of the VT-style tandem construction at its best residues,
    the paper's reference formula for the run-profile palindromic
    construction (`BoundReport.c2_redundancy`, not a bound) and the
    reference burst-insertion redundancy.

    Every column is exact counting or a closed form; no word space is read,
    so no q^n guard applies (`docs/decisions.md`, D8). Each row builds one
    gap table (D16)."""
    return [bound_report(n, ell, q) for n in n_values]

"""The array bound core against the Word-level routes it replaced.

`error_incidence` and `sphere_levels` must list exactly the members of
`error_sphere`; `transversal_check` must report the same deficit words as a
`Fraction` sum over `error_ball`, also when a weight is lowered; the edges of
`conflict_edges` must be the pairs of words whose balls intersect; the
sphere-size count of the incidence must equal the closed-form
`deletion_histogram` at sizes where the Word loop is too slow; and the
bitset branch and bound of `exact_optimum` must equal the set-based search
it replaced and brute force over every vertex subset.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dupcodes import bounds, channel
from dupcodes.bounds import (
    _max_independent_set,
    conflict_edges,
    deletion_histogram,
    error_incidence,
    exact_optimum,
    sphere_levels,
    transversal_check,
)
from dupcodes.channel import (
    ErrorKind,
    duplication_rows,
    error_ball,
    error_sphere,
    tandem_del,
    tandem_dup,
)
from dupcodes.words import word
from dupcodes.wordspace import all_words, packed_keys, runs_start

from conftest import balls_intersect, deletion_rows

FAMILIES = (channel.TANDEM_DUP, channel.TANDEM_DEL, channel.PAL_DUP, channel.PAL_DEL)


def words_of_rows(rows, q):
    return [word(r, q) for r in rows.tolist()]


def key_of(w):
    return int(packed_keys(np.array([w.symbols], dtype=np.int8).reshape(1, len(w)), w.q)[0])


def word_transversal_check(n, ell, t, q, lowered=None):
    """The Word-level transversal check: a `Fraction` sum of the explicit
    transversal over every radius-t deletion ball, with the weight of the
    word `lowered` (if any) set to 0."""
    kind = tandem_del(ell)
    weight_cache = {}

    def weight(v):
        got = weight_cache.get(v)
        if got is None:
            size = len(error_sphere(v, kind, t))
            if v == lowered:
                got = Fraction(0)
            elif size == 0:
                got = Fraction(1)  # t-irreducible
            elif len(v) == n - t * ell:
                got = Fraction(1, size)
            else:
                got = Fraction(0)
            weight_cache[v] = got
        return got

    deficits = []
    for x in words_of_rows(all_words(n, q), q):
        total = sum((weight(v) for v in error_ball(x, kind, t)), Fraction(0))
        if total < 1:
            deficits.append(x)
    return (not deficits, deficits)


def word_conflict_graph(vertices, kind, t):
    """Index pairs (i, j), i < j, of words whose radius-t balls share a word,
    from the owners of every ball member."""
    owners = {}
    for i, v in enumerate(vertices):
        for member in error_ball(v, kind, t):
            owners.setdefault(member, []).append(i)
    return {(a, b) for centres in owners.values() for a, b in combinations(centres, 2)}


def set_max_independent_set(vertices, adj) -> int:
    """The set-based maximum independent set search that `exact_optimum`
    used before its bitset branch and bound: per connected component, a
    greedy initial solution, then branch and bound pruned by
    current + len(cand). Vertices are ints, adj[u] is the set of u's
    neighbours."""

    def greedy(cand: frozenset) -> int:
        live = set(cand)
        size = 0
        while live:
            v = min(live, key=lambda u: (len(adj[u] & live), u))
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
            v = max(cand, key=lambda u: (len(adj[u] & cand), u))
            stack.append(reduce(set(cand) - {v}, current))
            stack.append(reduce(set(cand) - {v} - adj[v], current + 1))
        return best

    seen: set[int] = set()
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


def adjacency(N, edges):
    adj = [set() for _ in range(N)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def word_exact_optimum(n, ell, t, q, family=channel.TANDEM_DUP):
    """The Word-level exact optimum: the owners' conflict graph on the word
    indices, then the set-based search."""
    vertices = words_of_rows(all_words(n, q), q)
    adj = adjacency(len(vertices), word_conflict_graph(vertices, ErrorKind(family, ell), t))
    return set_max_independent_set(range(len(vertices)), adj)


def solve(N, edges):
    """`_max_independent_set` on an edge list."""
    low = np.array([a for a, _ in edges], dtype=np.int64)
    high = np.array([b for _, b in edges], dtype=np.int64)
    return _max_independent_set(N, low, high)


def brute_force_max_independent_set(N, edges):
    """The largest independent set over all 2^N vertex subsets; a subset is
    independent when its lowest vertex has no neighbour in the rest and the
    rest is independent."""
    nbr = [0] * N
    for a, b in edges:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    independent = bytearray(1 << N)
    independent[0] = 1
    best = 0
    for subset in range(1, 1 << N):
        rest = subset & (subset - 1)
        if independent[rest] and not nbr[(subset ^ rest).bit_length() - 1] & rest:
            independent[subset] = 1
            best = max(best, subset.bit_count())
    return best


def edge_set(rows, kind, t, q):
    low, high = conflict_edges(rows, kind, t, q)
    pairs = list(zip(low.tolist(), high.tolist()))
    assert pairs == sorted(set(pairs)), "edges come in (u, v) order, each once"
    return set(pairs)


# ---------------------------------------------------------------------------
# the incidence and its levels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("q,n_max", [(2, 7), (3, 5)])
def test_incidence_lists_every_sphere_member_once(family, q, n_max):
    for ell in (1, 2, 3):
        kind = ErrorKind(family, ell)
        for n in range(0, n_max + 1):
            rows = all_words(n, q)
            centre, key = error_incidence(rows, kind, q)
            expected = [
                (i, key_of(v))
                for i, x in enumerate(words_of_rows(rows, q))
                for v in sorted(error_sphere(x, kind, 1), key=lambda w: w.symbols)
            ]
            assert list(zip(centre.tolist(), key.tolist())) == expected, (kind, n)


@pytest.mark.parametrize("family", FAMILIES)
def test_sphere_levels_match_error_spheres_of_every_radius(family):
    for q, n, ell in [(2, 6, 1), (2, 7, 2), (3, 4, 1), (2, 5, 3)]:
        kind = ErrorKind(family, ell)
        rows = all_words(n, q)
        levels = sphere_levels(rows, kind, 3, q)
        for t, (centre, key) in enumerate(levels):
            expected = [
                (i, key_of(v))
                for i, x in enumerate(words_of_rows(rows, q))
                for v in sorted(error_sphere(x, kind, t), key=lambda w: w.symbols)
            ]
            assert list(zip(centre.tolist(), key.tolist())) == expected, (kind, n, t)


def test_incidence_blocks_do_not_change_the_pairs(monkeypatch):
    rows = all_words(8, 2)
    kinds = [ErrorKind(f, ell) for f in FAMILIES for ell in (1, 2)]
    one_pass = [error_incidence(rows, kind, 2) for kind in kinds]
    monkeypatch.setattr(bounds, "_BLOCK_OUTCOMES", 5)
    for kind, (centre, key) in zip(kinds, one_pass):
        got_centre, got_key = error_incidence(rows, kind, 2)
        assert got_centre.tolist() == centre.tolist() and got_key.tolist() == key.tolist(), kind


def twin_error_incidence(rows, kind, q):
    """The build of `error_incidence` from outcome rows: every valid error
    position through the batch twins, packed behind its centre, sorted and
    deduplicated, in one block."""
    outcomes, source = (duplication_rows if kind.is_duplication else deletion_rows)(rows, kind)
    width = (q ** outcomes.shape[1] - 1).bit_length()
    packed = np.sort(packed_keys(outcomes, q, prefix=source))
    packed = packed[runs_start(packed)]
    return packed >> width, packed & ((1 << width) - 1)


@pytest.mark.parametrize("blocks", ["one", "many"])
@pytest.mark.parametrize("q,n", [(2, 14), (3, 9), (4, 7)])
def test_tandem_incidence_equals_the_twin_route(monkeypatch, q, n, blocks):
    """The outcome keys, one error per gap for the tandem kinds, give the
    twin route's pairs array for array for all four families, at sizes the
    Word oracle cannot reach; "many" takes the multi-block path."""
    if blocks == "many":
        monkeypatch.setattr(bounds, "_BLOCK_OUTCOMES", 4096)
    rows = all_words(n, q)
    for ell in (1, 2, 3):
        for family in FAMILIES:
            kind = ErrorKind(family, ell)
            centre, key = error_incidence(rows, kind, q)
            expected_centre, expected_key = twin_error_incidence(rows, kind, q)
            assert np.array_equal(centre, expected_centre) and np.array_equal(key, expected_key), kind


def test_incidence_refuses_pairs_past_63_bits():
    """A block's centres, packed in front of the outcome keys, must fit int64
    with them, by the rule and message of packed_keys."""
    centre, key = error_incidence(np.zeros((2, 60), dtype=np.int8), tandem_dup(2), 2)
    assert centre.tolist() == [0, 1] and key.tolist() == [0, 0]
    with pytest.raises(ValueError, match="length 62 over q=2 need 64 bits; int64 keys hold 63"):
        error_incidence(np.zeros((3, 60), dtype=np.int8), tandem_dup(2), 2)
    with pytest.raises(ValueError, match="length 64 over q=2 need 66 bits; int64 keys hold 63"):
        error_incidence(np.zeros((3, 62), dtype=np.int8), tandem_dup(2), 2)
    with pytest.raises(ValueError, match="length 62 over q=2 need 64 bits; int64 keys hold 63"):
        error_incidence(np.zeros((3, 63), dtype=np.int8), channel.pal_del(1), 2)


@pytest.mark.parametrize("q,n_max", [(2, 14), (3, 9), (4, 7)])
def test_incidence_sphere_sizes_equal_the_closed_form_histogram(q, n_max):
    for ell in (1, 2, 3):
        for n in range(1, n_max + 1):
            centre, _ = error_incidence(all_words(n, q), tandem_del(ell), q)
            counts = np.bincount(np.bincount(centre, minlength=q**n))
            hist = {i: int(c) for i, c in enumerate(counts.tolist()) if c or i == 0}
            assert hist == deletion_histogram(n, ell, q), (q, ell, n)


# ---------------------------------------------------------------------------
# the transversal check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("q,n_max", [(2, 9), (3, 6)])
def test_transversal_check_agrees_with_the_fraction_sum(q, n_max, t):
    for ell in (1, 2, 3):
        for n in range(1, n_max + 1):
            assert transversal_check(n, ell, t, q) == word_transversal_check(n, ell, t, q), (q, ell, n, t)


def lower_last_level_weight(monkeypatch, index):
    """Make transversal_check give weight 0 to the last level's word of key
    `index`, its index in lexicographic order."""
    real = bounds._scaled_weights

    def lowered(sizes, scale, last, dtype):
        weight = real(sizes, scale, last, dtype)
        if last:
            weight[index] = 0
        return weight

    monkeypatch.setattr(bounds, "_scaled_weights", lowered)


def reached_words(n, ell, t, q):
    """The words that exactly t tandem deletions reach from length n, in
    lexicographic order."""
    reached = set()
    for x in words_of_rows(all_words(n, q), q):
        reached |= error_sphere(x, tandem_del(ell), t)
    return sorted(reached, key=lambda w: w.symbols)


@pytest.mark.parametrize("exact", [False, True], ids=["int64", "python-int"])
@pytest.mark.parametrize(
    "n,ell,t,q,lowered",
    [
        (7, 1, 1, 2, "010101"),  # irreducible: weight 1 -> 0
        (8, 2, 1, 2, "001100"),  # irreducible
        (6, 1, 1, 3, "00011"),  # sphere size 2: weight 1/2 -> 0
        (7, 1, 2, 2, "00101"),  # 2-irreducible
        (9, 1, 1, 2, "00001100"),  # sphere size 3: weight 1/3 -> 0
    ],
)
def test_a_lowered_weight_gives_the_same_deficits_on_both_routes(monkeypatch, n, ell, t, q, lowered, exact):
    """With one transversal weight set to 0 the transversal is no longer
    feasible; both routes must name the same deficit words, in the int64
    sums and in the Python-int sums used when D times a ball overflows."""
    v = word(tuple(int(ch) for ch in lowered), q)
    lower_last_level_weight(monkeypatch, reached_words(n, ell, t, q).index(v))
    if exact:
        monkeypatch.setattr(bounds, "_INT64_MAX", 0)
    got = transversal_check(n, ell, t, q)
    assert not got[0] and got[1]
    assert got == word_transversal_check(n, ell, t, q, lowered=v)
    assert [x.symbols for x in got[1]] == sorted(x.symbols for x in got[1])


@pytest.mark.parametrize("n,ell,t,q", [(8, 1, 1, 2), (6, 2, 2, 2), (5, 1, 2, 3), (7, 1, 0, 2)])
def test_python_int_sums_agree_with_int64_sums(monkeypatch, n, ell, t, q):
    expected = transversal_check(n, ell, t, q)
    monkeypatch.setattr(bounds, "_INT64_MAX", 0)
    assert transversal_check(n, ell, t, q) == expected == (True, [])


# ---------------------------------------------------------------------------
# the conflict graph and the exact optimum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_conflict_edges_are_the_pairwise_balls_intersect_graph(family):
    """Every pair of words, by `balls_intersect` itself on the binary
    spaces and by intersecting each word's cached `error_ball` on the
    ternary ones."""
    for q, n_max, radii in [(2, 6, (1, 2)), (3, 6, (1,))]:
        for n in range(1, n_max + 1):
            rows = all_words(n, q)
            vertices = words_of_rows(rows, q)
            for ell in range(1, min(3, n) + 1):
                kind = ErrorKind(family, ell)
                for t in radii:
                    if q == 2:
                        meets = balls_intersect
                    else:
                        balls = {v: error_ball(v, kind, t) for v in vertices}

                        def meets(a, b, kind, t):
                            return not balls[a].isdisjoint(balls[b])

                    expected = {
                        (i, j)
                        for (i, a), (j, b) in combinations(enumerate(vertices), 2)
                        if meets(a, b, kind, t)
                    }
                    assert edge_set(rows, kind, t, q) == expected, (q, n, kind, t)


@pytest.mark.parametrize("family", FAMILIES)
def test_conflict_edges_equal_the_owners_graph_at_radius_two_and_three(family):
    for q, n, ell in [(2, 7, 1), (2, 8, 2), (3, 5, 1)]:
        rows = all_words(n, q)
        kind = ErrorKind(family, ell)
        for t in (2, 3):
            assert edge_set(rows, kind, t, q) == word_conflict_graph(words_of_rows(rows, q), kind, t), (kind, n, t)


# exact_optimum(n, l, 1, 2) on every bound-check instance, as the Word route gave it
BOUND_CHECK_OPTIMA = {
    (1, 1): 2, (2, 1): 4, (3, 1): 6, (4, 1): 10, (5, 1): 16, (6, 1): 28, (7, 1): 44, (8, 1): 76, (9, 1): 128,
    (2, 2): 4, (3, 2): 8, (4, 2): 16, (5, 2): 28, (6, 2): 48, (7, 2): 84, (8, 2): 148, (9, 2): 260,
}

# exact_optimum(n, l, t, 2, family) at radius 2 and for palindromic duplications,
# as the set-based search also gives it on the same conflict graph
FURTHER_OPTIMA = {
    (channel.TANDEM_DUP, 6, 1, 2): 18,
    (channel.TANDEM_DUP, 7, 1, 2): 26,
    (channel.TANDEM_DUP, 8, 1, 2): 42,
    (channel.TANDEM_DUP, 8, 2, 2): 132,
    (channel.TANDEM_DUP, 10, 2, 1): 460,
    (channel.PAL_DUP, 8, 2, 1): 126,
    (channel.PAL_DUP, 9, 2, 1): 216,
    (channel.PAL_DUP, 9, 1, 1): 128,
}

# exact_optimum(10, l, 1, 2, family) past the reach of the set-based search; both
# branching rules of docs/decisions.md (D7) give them, and milp found codes this large
BEYOND_THE_SET_SEARCH = {(channel.TANDEM_DUP, 1): 232, (channel.PAL_DUP, 2): 368}


@pytest.mark.parametrize("n,ell", sorted(BOUND_CHECK_OPTIMA))
def test_exact_optimum_keeps_the_bound_check_values(n, ell):
    assert exact_optimum(n, ell, 1, 2) == BOUND_CHECK_OPTIMA[n, ell]
    if n <= 7:
        assert word_exact_optimum(n, ell, 1, 2) == BOUND_CHECK_OPTIMA[n, ell]


@pytest.mark.parametrize("family,n,ell,t", sorted(FURTHER_OPTIMA))
def test_exact_optimum_keeps_the_radius_two_and_palindromic_values(family, n, ell, t):
    assert exact_optimum(n, ell, t, 2, family) == FURTHER_OPTIMA[family, n, ell, t]
    if family == channel.TANDEM_DUP or n <= 8:  # the set search takes seconds on pal-dup n = 9
        rows = all_words(n, 2)
        N = len(rows)
        edges = zip(*(e.tolist() for e in conflict_edges(rows, ErrorKind(family, ell), t, 2)))
        assert set_max_independent_set(range(N), adjacency(N, edges)) == FURTHER_OPTIMA[family, n, ell, t]


@pytest.mark.parametrize("family,ell", sorted(BEYOND_THE_SET_SEARCH))
def test_exact_optimum_keeps_the_values_at_n_10(family, ell):
    assert exact_optimum(10, ell, 1, 2, family) == BEYOND_THE_SET_SEARCH[family, ell]


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_optimum_agrees_with_the_word_route(family):
    for q, n, ell, t in [(2, 6, 1, 1), (2, 6, 2, 2), (3, 4, 1, 1), (2, 5, 1, 2)]:
        assert exact_optimum(n, ell, t, q, family) == word_exact_optimum(n, ell, t, q, family), (q, n, ell, t)


# ---------------------------------------------------------------------------
# the bitset branch and bound on its own
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw, max_vertices=14):
    """A graph on at most max_vertices vertices as (N, edges): a set of
    vertex pairs, or the complement of one, so both sparse and dense
    graphs come up."""
    N = draw(st.integers(0, max_vertices))
    pairs = list(combinations(range(N), 2))
    if not pairs:
        return N, []
    chosen = draw(st.sets(st.sampled_from(pairs)))
    if draw(st.booleans()):
        chosen = set(pairs) - chosen
    return N, sorted(chosen)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_max_independent_set_equals_brute_force(graph):
    N, edges = graph
    assert solve(N, edges) == brute_force_max_independent_set(N, edges)
    assert solve(N, [(b, a) for a, b in edges]) == solve(N, edges)


def path(N, start=0):
    return [(v, v + 1) for v in range(start, start + N - 1)]


# an outer 5-cycle, five spokes and an inner pentagram
PETERSEN = path(5) + [(0, 4)] + [(v, v + 5) for v in range(5)] + [(5 + v, 5 + (v + 2) % 5) for v in range(5)]


@pytest.mark.parametrize(
    "N,edges,expected",
    [
        (0, [], 0),  # the empty graph
        (5, [], 5),  # isolated vertices only
        (7, list(combinations(range(7), 2)), 1),  # complete graph
        (5, path(5) + [(0, 4)], 2),  # a 5-cycle: no vertex of degree <= 1
        # two triangles, a path of 4 and two isolated vertices
        (12, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] + path(4, 6), 6),
        (10, PETERSEN, 4),
    ],
    ids=["empty", "isolated", "complete", "cycle", "disconnected", "petersen"],
)
def test_max_independent_set_edge_cases(N, edges, expected):
    assert solve(N, edges) == expected == brute_force_max_independent_set(N, edges)
    assert set_max_independent_set(range(N), adjacency(N, edges)) == expected


def test_max_independent_set_beyond_the_recursion_limit():
    """Answers larger than the recursion limit need no recursion: a path of
    2,501 vertices holds 1,251, and closing it into a cycle 1,250."""
    assert 1251 > sys.getrecursionlimit()
    assert solve(2501, path(2501)) == 1251
    assert solve(2501, path(2501) + [(0, 2500)]) == 1250


def test_max_independent_set_of_a_path_in_permuted_order():
    """A path whose vertex order runs across it: the reduction looks again at
    the neighbours of every vertex it removes, so it peels the whole path."""
    label = random.Random(13).sample(range(2501), 2501)
    assert solve(2501, [tuple(sorted((label[u], label[v]))) for u, v in path(2501)]) == 1251


def union_find_labels(N, edges):
    """The smallest vertex of each vertex's component, by union-find."""
    parent = list(range(N))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = root(a), root(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [root(v) for v in range(N)]


def test_component_labels_equal_union_find():
    """Sparse random graphs with many components, and paths in permuted order."""
    rng = random.Random(29)
    cases = []
    for _ in range(200):
        N = rng.randint(2, 80)
        cases.append((N, {tuple(sorted(rng.sample(range(N), 2))) for _ in range(rng.randint(0, N))}))
    for N in (1, 2, 3, 50, 2501):
        label = rng.sample(range(N), N)
        cases.append((N, {tuple(sorted((label[u], label[v]))) for u, v in path(N)}))
    for N, edges in cases:
        pairs = sorted(edges)
        low = np.array([a for a, _ in pairs], dtype=np.int64)
        high = np.array([b for _, b in pairs], dtype=np.int64)
        assert bounds._component_labels(N, low, high).tolist() == union_find_labels(N, edges), (N, edges)

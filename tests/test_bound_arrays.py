"""The array bound core against the Word-level routes it replaced.

`error_incidence` and `sphere_levels` must list exactly the members of
`error_sphere`; `transversal_check` must report the same deficit words as a
`Fraction` sum over `error_ball`, also when a weight is lowered; the edges of
`conflict_edges` must be the pairs of words whose balls intersect; and the
sphere-size count of the incidence must equal the closed-form
`deletion_histogram` at sizes where the Word loop is too slow.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

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
from dupcodes.channel import ErrorKind, balls_intersect, error_ball, error_sphere, tandem_del
from dupcodes.words import word
from dupcodes.wordspace import all_words, packed_keys

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


def word_exact_optimum(n, ell, t, q, family=channel.TANDEM_DUP):
    """The Word-level exact optimum: the owners' conflict graph on the word
    indices, then the same maximum independent set."""
    vertices = words_of_rows(all_words(n, q), q)
    adj = [set() for _ in vertices]
    for a, b in word_conflict_graph(vertices, ErrorKind(family, ell), t):
        adj[a].add(b)
        adj[b].add(a)
    return _max_independent_set(range(len(vertices)), adj)


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
    (1, 1): 2, (2, 1): 4, (3, 1): 6, (4, 1): 10, (5, 1): 16, (6, 1): 28, (7, 1): 44, (8, 1): 76,
    (2, 2): 4, (3, 2): 8, (4, 2): 16, (5, 2): 28, (6, 2): 48, (7, 2): 84, (8, 2): 148, (9, 2): 260,
}


@pytest.mark.parametrize("n,ell", sorted(BOUND_CHECK_OPTIMA))
def test_exact_optimum_keeps_the_bound_check_values(n, ell):
    assert exact_optimum(n, ell, 1, 2) == BOUND_CHECK_OPTIMA[n, ell]
    if n <= 7:
        assert word_exact_optimum(n, ell, 1, 2) == BOUND_CHECK_OPTIMA[n, ell]


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_optimum_agrees_with_the_word_route(family):
    for q, n, ell, t in [(2, 6, 1, 1), (2, 6, 2, 2), (3, 4, 1, 1), (2, 5, 1, 2)]:
        assert exact_optimum(n, ell, t, q, family) == word_exact_optimum(n, ell, t, q, family), (q, n, ell, t)

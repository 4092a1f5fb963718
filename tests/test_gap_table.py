"""The tandem counts that read the gap table against the paper's formulas,
and the one table that each `redundancy_table` row builds.

`transform._gap_table` holds every tandem count (`docs/decisions.md`, D9):
the run-length-limited counts, the irreducible count, the deletion sphere
histogram and the VT residue table. The paper states the first three with
an alternating sum of binomials, and the c1 guarantee as a nested sum over
the number of tandem deletions and the weight. Those closed forms are kept
here as independent references.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

import dupcodes
from dupcodes import bounds, codes
from dupcodes.bounds import bound_report, deletion_histogram, irreducible_count, redundancy_table, rll_weight_count
from dupcodes.codes import _c1_counts, c1_best_params, c1_size_lower_bound
from dupcodes.transform import _gap_table


def binom(a: int, b: int) -> int:
    """C(a, b), and 0 for a negative argument."""
    return comb(a, b) if a >= 0 and b >= 0 else 0


def paper_rll_count(n_prime: int, ell_prime: int, weight: int, q: int) -> int:
    """A(n', l', w): words of Z_q^{n'} with Hamming weight w and every
    zero-run <= l', by the paper's piecewise alternating sum."""
    if n_prime < 0 or ell_prime < 0 or weight < 0:
        return 0
    if n_prime <= ell_prime:
        return (q - 1) ** weight * binom(n_prime, weight)
    if weight == 0:
        return 0
    if weight == 1:
        return (q - 1) * max(0, 2 * (ell_prime + 1) - n_prime)
    total = 0
    for p in range(ell_prime + 1):
        for j in range(weight):
            total += (
                (-1) ** j
                * binom(weight - 1, j)
                * (
                    binom(n_prime - p - 1 - j * (ell_prime + 1), weight - 1)
                    - binom(n_prime - p - 1 - (j + 1) * (ell_prime + 1), weight - 1)
                )
            )
    return (q - 1) ** weight * total


def paper_irreducible_count(n: int, ell: int, q: int) -> int:
    if n < ell:
        return q**n
    return q**ell * sum(paper_rll_count(n - ell, ell - 1, w, q) for w in range(n - ell + 1))


def paper_histogram(n: int, ell: int, q: int) -> dict[int, int]:
    """Sphere size i -> words of length n, summed over nu, the number of
    whole blocks in the tail, and its weight w."""
    if n < ell:
        return {0: q**n}
    rll = [
        [paper_rll_count(n - (nu + 1) * ell, ell - 1, w, q) for w in range(n - (nu + 1) * ell + 1)]
        for nu in range(n // ell)
    ]
    hist = {0: q**ell * sum(rll[0])}
    for i in range(1, n // ell + 1):
        total = sum(
            rll[nu][w] * binom(w + 1, i) * binom(nu - 1, i - 1)
            for nu in range(i, n // ell)
            for w in range(i - 1, len(rll[nu]))
        )
        if total:
            hist[i] = q**ell * total
    return hist


def paper_c1_guarantee(n: int, ell: int, q: int) -> Fraction:
    """q^ell * sum_nu sum_w A(n-(nu+1)ell, ell-1, w) * C(w+nu, nu) / (w+2)."""
    total = Fraction(0)
    for nu in range(n // ell):
        m = n - (nu + 1) * ell
        for w in range(m + 1):
            cnt = paper_rll_count(m, ell - 1, w, q)
            if cnt:
                total += Fraction(cnt * binom(w + nu, nu), w + 2)
    return q**ell * total


GRID = [(q, ell, n) for q in (2, 3, 4, 5) for ell in (1, 2, 3, 4) for n in range(31 if q == 2 else 18)]


@pytest.mark.parametrize("q", [2, 3])
def test_rll_weight_count_equals_the_alternating_sum(q):
    for n in range(-1, 14):
        for ell_prime in range(-1, n + 2):
            for w in range(-1, n + 2):
                assert rll_weight_count(n, ell_prime, w, q) == paper_rll_count(n, ell_prime, w, q), (
                    q, n, ell_prime, w,
                )


def test_histogram_and_irreducible_count_equal_the_paper():
    for q, ell, n in GRID:
        assert deletion_histogram(n, ell, q) == paper_histogram(n, ell, q), (q, ell, n)
        assert irreducible_count(n, ell, q) == paper_irreducible_count(n, ell, q), (q, ell, n)


def test_c1_guarantee_equals_the_nested_sum():
    for q, ell, n in GRID:
        if n >= ell:
            assert c1_size_lower_bound(n, ell, q) == paper_c1_guarantee(n, ell, q), (q, ell, n)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_c1_guarantee_is_the_mean_of_each_residue_row(q, ell):
    """Row s of the residue table holds every word whose signature has length
    s, spread over s+1 residues; the guarantee is the sum of their means."""
    for n in range(ell, 16):
        counts = _c1_counts(n, ell, q, _gap_table(n, ell, q))
        mean = sum(Fraction(int(row.sum()), s + 1) for s, row in enumerate(counts, start=1))
        assert c1_size_lower_bound(n, ell, q) == mean, (q, ell, n)


def test_the_block_vectors_of_each_weight_cover_every_tail():
    """sum_J C(w+J, w) T[w, J] = C(m, w) (q-1)^w: the tails with w nonzeros,
    split by their block vector."""
    for q, ell, n in GRID:
        table, m = _gap_table(n, ell, q), n - ell
        for w in range(m + 1):
            covered = sum(comb(w + J, w) * int(t) for J, t in enumerate(table[w]))
            assert covered == comb(m, w) * (q - 1) ** w, (q, ell, n, w)


def test_the_table_is_exact_past_int64():
    """q^n past 2^63: Python ints in the table, and the counts stay exact."""
    table = _gap_table(70, 2, 2)
    assert table.dtype == object
    assert sum(deletion_histogram(70, 2, 2).values()) == 2**70
    assert _gap_table(62, 2, 2).dtype == np.int64  # 2^62 words: the last int64 table
    for n in (62, 63):
        assert deletion_histogram(n, 2, 2) == paper_histogram(n, 2, 2), n


@pytest.mark.parametrize(
    "count,args,message",
    [
        (deletion_histogram, (-1, 1, 2), "n must be >= 0"),
        (deletion_histogram, (5, 0, 2), "ell must be >= 1"),
        (deletion_histogram, (5, -1, 2), "ell must be >= 1"),
        (deletion_histogram, (5, 1, 1), "q must be >= 2"),
        (irreducible_count, (-1, 1, 2), "n must be >= 0"),
        (irreducible_count, (5, 0, 2), "ell must be >= 1"),
        (irreducible_count, (5, 1, 0), "q must be >= 2"),
        (bound_report, (5, 0, 2), "ell must be >= 1"),
        (bound_report, (-1, 1, 2), "n must be >= 0"),
        (bound_report, (5, 1, 1), "q must be >= 2"),
        (c1_size_lower_bound, (5, 0, 2), "ell must be >= 1"),
        (c1_size_lower_bound, (-1, 1, 2), "n must be >= 0"),
        (c1_size_lower_bound, (5, 1, 1), "q must be >= 2"),
        (c1_size_lower_bound, (2, 3, 2), "ell exceeds word length"),
        (c1_best_params, (2, 3, 2), "ell exceeds word length"),
        (bound_report, (2, 3, 2), "ell exceeds word length"),
    ],
)
def test_tandem_counts_refuse_invalid_arguments(count, args, message):
    with pytest.raises(ValueError) as refused:
        count(*args)
    assert str(refused.value) == message


@pytest.mark.parametrize("n,ell,q", [(0, 1, 2), (1, 2, 2), (3, 4, 3)])
def test_words_shorter_than_a_block_are_irreducible(n, ell, q):
    assert deletion_histogram(n, ell, q) == {0: q**n}
    assert irreducible_count(n, ell, q) == q**n


def test_codes_imports_without_bounds():
    """codes reads the gap table from transform, so bounds can import codes
    with no cycle back."""
    check = "import sys, dupcodes.codes; assert 'dupcodes.bounds' not in sys.modules"
    src = str(Path(dupcodes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", check], env=env, check=True)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_redundancy_table_equals_its_rows_counted_one_by_one(q, ell):
    """Every row is the report that `bound_report` gives its length alone,
    with the c1 cardinality that `c1_best_params` counts, over ranges,
    gapped, descending and repeated lengths."""
    for n_values in (range(ell, 22), [4, 6, 8], [9, 5, 7], [4, 4], [3 * ell, ell, 2 * ell, 3 * ell]):
        n_values = [n for n in n_values if n >= ell]
        rows = redundancy_table(n_values, ell, q)
        assert [row.n for row in rows] == n_values
        for row in rows:
            n = row.n
            assert row == bound_report(n, ell, q), (q, ell, n)
            cardinality = c1_best_params(n, ell, q)[1]
            assert row.c1_redundancy == n * math.log2(q) - math.log2(cardinality), (q, ell, n)


@pytest.fixture
def gap_table_builds(monkeypatch):
    """Every gap table length built through `bounds` and `codes`, in order."""
    built = []

    def counted(n, ell, q):
        built.append(n)
        return _gap_table(n, ell, q)

    monkeypatch.setattr(bounds, "_gap_table", counted)
    monkeypatch.setattr(codes, "_gap_table", counted)
    return built


SWEEP_TABLES = ((2, 2, 2, 19), (3, 1, 1, 12), (4, 3, 3, 10))  # (q, l, n range) of the sweep benchmark


@pytest.mark.parametrize(
    "tables,row_by_row,per_call",
    [(SWEEP_TABLES, 76, 38), (((2, 2, 2, 64),), 126, 63)],
    ids=["sweep", "q2-l2-n64"],
)
def test_redundancy_table_builds_one_gap_table_per_length(gap_table_builds, tables, row_by_row, per_call):
    """A table builds T_n once for each of its rows, in order, where counting
    a row's bound and its c1 cardinality one by one builds T_n twice. A
    second identical call builds them all again: no table outlives its call."""
    for q, ell, first, last in tables:
        for n in range(first, last + 1):
            bound_report(n, ell, q)
            c1_best_params(n, ell, q)
    assert len(gap_table_builds) == row_by_row
    for repeat in range(2):
        gap_table_builds.clear()
        for q, ell, first, last in tables:
            before = len(gap_table_builds)
            n_values = range(first, last + 1)
            redundancy_table(n_values, ell, q)
            assert gap_table_builds[before:] == list(n_values), (q, ell, repeat)
        assert len(gap_table_builds) == per_call, repeat


@pytest.mark.parametrize("q", [2, 3])
def test_a_bound_row_builds_one_gap_table(gap_table_builds, q):
    """A lone report builds T_n alone, and a gapped, descending list builds
    the table of each listed length once, none of n - l."""
    bound_report(9, 1, q)
    assert gap_table_builds == [9]
    gap_table_builds.clear()
    redundancy_table([9, 5, 7], 1, q)
    assert gap_table_builds == [9, 5, 7]


def test_the_gap_table_of_n_less_l_is_a_view_of_the_gap_table_of_n():
    """T_{n-l} is T_n less its first column and its rows past n - 2l, in
    values and shape: the view that the deletion histogram of a bound row
    reads (`docs/decisions.md` D16). Where q^n passes int64 and q^(n-l) does
    not, the view keeps T_n's object dtype, with the same values."""
    for q in (2, 3, 4, 5):
        for ell in range(1, 6):
            for n in range(2 * ell, (44 if q == 2 else 29) + 1):
                view, table = _gap_table(n, ell, q)[: n - 2 * ell + 1, 1:], _gap_table(n - ell, ell, q)
                assert view.shape == table.shape, (q, ell, n)
                assert view.tolist() == table.tolist(), (q, ell, n)
    for ell in (1, 2, 3):
        for n in range(60, 71):
            view, table = _gap_table(n, ell, 2)[: n - 2 * ell + 1, 1:], _gap_table(n - ell, ell, 2)
            assert view.shape == table.shape and view.dtype == (object if 2**n > np.iinfo(np.int64).max else np.int64), (ell, n)
            assert view.tolist() == table.tolist(), (ell, n)

import random

import numpy as np
import pytest

from dupcodes.channel import (
    ErrorKind,
    apply_error,
    deletion_positions,
    duplication_columns,
    duplication_rows,
    error_ball,
    error_keys,
    error_positions,
    error_sphere,
    pal_del,
    pal_dup,
    palindromic_delete,
    palindromic_duplicate,
    tandem_del,
    tandem_delete,
    tandem_dup,
    tandem_duplicate,
)
from dupcodes.words import parse_word, word
from dupcodes.wordspace import all_words, packed_keys, signature_scan

from conftest import balls_intersect, deletion_rows, sample_single_error, words_of


X = word((1, 1, 1, 1, 0, 2, 2, 0), 3)


def test_tandem_duplicate_examples():
    assert tandem_duplicate(X, 2, 3) == parse_word("1111010220", 3)
    x = word((0, 1), 2)
    assert tandem_duplicate(x, 2, 0) == word((0, 1, 0, 1), 2)
    assert tandem_duplicate(x, 1, 1) == word((0, 1, 1), 2)
    with pytest.raises(ValueError, match="invalid position"):
        tandem_duplicate(x, 2, 1)


def test_palindromic_duplicate_examples():
    assert palindromic_duplicate(X, 2, 3) == parse_word("1111001220", 3)
    assert palindromic_duplicate(word((0, 1, 0, 0, 1, 0), 2), 3, 0) == word(
        (0, 1, 0, 0, 1, 0, 0, 1, 0), 2
    )
    assert palindromic_duplicate(word((2,), 3), 1, 0) == word((2, 2), 3)


def test_tandem_delete_examples():
    assert tandem_delete(X, 2, 0) == parse_word("110220", 3)
    assert tandem_delete(word((0, 0), 2), 1, 0) == word((0,), 2)
    with pytest.raises(ValueError, match="not a tandem"):
        tandem_delete(word((0, 1), 2), 1, 0)


def test_palindromic_delete_examples():
    assert palindromic_delete(X, 2, 4) == parse_word("111102", 3)
    assert palindromic_delete(word((0, 1, 1, 0), 2), 2, 0) == word((0, 1), 2)
    with pytest.raises(ValueError, match="not a palindrome"):
        palindromic_delete(word((0, 1, 0, 1), 2), 2, 0)


def test_deletion_positions_examples():
    assert deletion_positions(word((0, 1, 0, 0, 1, 1), 2), tandem_del(1)) == [2, 4]
    assert deletion_positions(word((0, 1), 2), tandem_del(1)) == []
    assert deletion_positions(word((0, 1, 1, 0, 0, 0, 0, 1), 2), pal_del(2)) == [0, 3]
    with pytest.raises(ValueError):
        deletion_positions(X, tandem_dup(1))


def test_error_sphere_examples():
    x = word((0, 1), 2)
    assert error_sphere(x, tandem_dup(1), 1) == {word((0, 0, 1), 2), word((0, 1, 1), 2)}
    assert error_sphere(x, tandem_del(1), 1) == frozenset()
    y = parse_word("21011012210", 3)
    assert error_sphere(y, pal_del(3), 1) == {
        parse_word("21012210", 3),
        parse_word("21011012", 3),
    }


def test_error_sphere_t0_and_lengths():
    x = word((0, 1, 1), 2)
    assert error_sphere(x, pal_dup(2), 0) == {x}
    sphere = error_sphere(x, tandem_dup(1), 2)
    assert type(sphere) is frozenset
    assert all(len(w) == 5 for w in sphere)


def test_error_ball_examples():
    c1 = word((0, 1, 0, 1, 0, 1), 2)
    c2 = word((0, 1, 0, 0, 1, 1), 2)
    assert error_ball(c1, pal_del(2), 1) == {c1}
    assert error_ball(c2, pal_del(2), 1) == {c2, word((0, 1, 0, 1), 2)}
    assert error_ball(c1, tandem_dup(2), 0) == {c1}


def test_balls_intersect_counterexamples():
    c1 = word((0, 1, 0, 1, 0, 1), 2)
    c2 = word((0, 1, 0, 0, 1, 1), 2)
    assert balls_intersect(c1, c2, pal_dup(2), 1)
    assert balls_intersect(c1, c2, pal_dup(2), 1) == {word((0, 1, 0, 0, 1, 1, 0, 1), 2)}
    d1 = word((0, 1, 1, 0, 1, 0), 2)
    d2 = word((0, 1, 1, 1, 1, 0), 2)
    assert not balls_intersect(d1, d2, pal_dup(2), 1)
    assert balls_intersect(d1, d2, pal_del(2), 1) == {word((0, 1, 1, 0), 2)}
    assert balls_intersect(c1, c1, tandem_dup(1), 0)
    with pytest.raises(ValueError, match="length"):
        balls_intersect(c1, word((0, 1), 2), pal_dup(2), 1)
    with pytest.raises(ValueError, match="alphabet"):
        balls_intersect(c1, word(c1.symbols, 3), pal_dup(2), 1)


def test_pal_dup_ball_contents():
    d1 = word((0, 1, 1, 0, 1, 0), 2)
    expected = {
        d1,
        parse_word("01101010", 2),
        parse_word("01111010", 2),
        parse_word("01100110", 2),
        parse_word("01101100", 2),
        parse_word("01101001", 2),
    }
    assert error_ball(d1, pal_dup(2), 1) == expected


def test_roundtrip_delete_of_duplicate():
    for q in (2, 3):
        for n in range(1, 6):
            for x in words_of(n, q):
                for ell in range(1, n + 1):
                    for p in range(n - ell + 1):
                        assert tandem_delete(tandem_duplicate(x, ell, p), ell, p) == x
                        assert palindromic_delete(palindromic_duplicate(x, ell, p), ell, p) == x


def same_outcome_predicate(x, y, ell: int, i: int, j: int, kind: str) -> bool:
    """Decide rho_ell(x, i) == rho_ell(y, i+j) without applying the operations.

    Evaluates the paper's closed condition system on symbol positions
    (1-based internally): for duplications the system splits into the cases
    j < ell and j >= ell; deletions have a single system whose first two
    condition groups assert that the mirrored pattern is present in x at i
    and in y at i+j. The one-word variant is the specialisation y = x.

    Position ranges are validated; within range the system is evaluated
    literally, so a deletion pair whose patterns are absent yields False.
    """
    if x.q != y.q:
        raise ValueError(f"alphabet mismatch: q={x.q} vs q={y.q}")
    n = len(x)
    if len(y) != n:
        raise ValueError("x and y must have equal length")
    if j <= 0:
        raise ValueError("offset j must be positive")
    if kind not in ("dup", "del"):
        raise ValueError("kind must be 'dup' or 'del'")

    sx = x.symbols
    sy = y.symbols

    def X(k):  # 1-based access
        return sx[k - 1]

    def Y(k):
        return sy[k - 1]

    if kind == "dup":
        if not (0 <= i and i + j <= n - ell):
            raise ValueError(f"invalid positions: need 0 <= i and i+j <= {n - ell}")
        outside = all(
            X(m) == Y(m)
            for m in list(range(1, i + ell + 1)) + list(range(i + j + ell + 1, n + 1))
        )
        if j < ell:
            return (
                outside
                and all(X(i + ell - m) == Y(i + ell + 1 + m) for m in range(j))
                and all(X(i + 1 + m) == Y(i + 2 * j + 1 + m) for m in range(ell - j))
                and all(X(i + ell + 1 + m) == Y(i + 2 * j - m) for m in range(j))
            )
        return (
            outside
            and all(X(i + ell - m) == Y(i + ell + 1 + m) for m in range(ell))
            and all(X(i + ell + 1 + m) == Y(i + 2 * ell + 1 + m) for m in range(j - ell))
            and all(X(i + j + 1 + m) == Y(i + j + ell - m) for m in range(ell))
        )

    if not (0 <= i and i + j <= n - 2 * ell):
        raise ValueError(f"invalid positions: need 0 <= i and i+j <= {n - 2 * ell}")
    return (
        all(
            X(m) == Y(m)
            for m in list(range(1, i + ell + 1)) + list(range(i + j + 2 * ell + 1, n + 1))
        )
        and all(X(i + ell - m) == X(i + ell + 1 + m) for m in range(ell))
        and all(Y(i + j + ell - m) == Y(i + j + ell + 1 + m) for m in range(ell))
        and all(X(i + 2 * ell + 1 + m) == Y(i + ell + 1 + m) for m in range(j))
    )


def test_same_outcome_predicate_examples():
    x = word((0, 1, 0, 0, 1, 0), 2)
    assert same_outcome_predicate(x, x, 3, 0, 3, "dup")
    y = word((0, 1), 2)
    assert not same_outcome_predicate(y, y, 1, 0, 1, "dup")
    z = word((0, 0, 0, 1), 2)  # duplications inside one run commute
    assert same_outcome_predicate(z, z, 1, 0, 1, "dup")
    assert same_outcome_predicate(z, z, 1, 0, 2, "dup")
    with pytest.raises(ValueError, match="invalid positions"):
        same_outcome_predicate(y, y, 1, 0, 5, "dup")


def test_same_outcome_predicate_soundness_exhaustive():
    # predicate == direct comparison of the produced words
    def deleted(x, ell, p):
        try:
            return palindromic_delete(x, ell, p)
        except ValueError:
            return None

    for q, max_n in ((2, 6), (3, 5)):
        for n in range(2, max_n + 1):
            for ell in (1, 2, 3):
                # each word's outcomes, built once per (q, n, ell) rather than once per pair
                words = list(words_of(n, q))
                dups = {x: [palindromic_duplicate(x, ell, p) for p in range(n - ell + 1)] for x in words}
                dels = {x: [deleted(x, ell, p) for p in range(n - 2 * ell + 1)] for x in words}
                for x in words:
                    for y in words:
                        for i in range(0, n - ell + 1):
                            for j in range(1, n - ell - i + 1):
                                expected = dups[x][i] == dups[y][i + j]
                                assert same_outcome_predicate(x, y, ell, i, j, "dup") == expected
                        for i in range(0, n - 2 * ell + 1):
                            for j in range(1, n - 2 * ell - i + 1):
                                a, b = dels[x][i], dels[y][i + j]
                                if a is None or b is None:
                                    continue
                                assert same_outcome_predicate(x, y, ell, i, j, "del") == (a == b)


def test_tandem_dup_del_ball_equivalence_small():
    # full acceptance range is n <= 8; keep a fast version here
    for n in range(2, 7):
        for ell in (1, 2):
            words = list(words_of(n, 2))
            dup_balls = {x: error_ball(x, tandem_dup(ell), 1) for x in words}
            del_balls = {x: error_ball(x, tandem_del(ell), 1) for x in words}
            for i, x in enumerate(words):
                for y in words[i + 1 :]:
                    assert bool(dup_balls[x] & dup_balls[y]) == bool(del_balls[x] & del_balls[y])


NAMED_OPERATIONS = (
    (tandem_dup, tandem_duplicate),
    (pal_dup, palindromic_duplicate),
    (tandem_del, tandem_delete),
    (pal_del, palindromic_delete),
)


def inserted(s, ell, p, mirrored):
    """s with its block s[p:p+ell], reversed when mirrored, inserted after it."""
    block = s[p : p + ell]
    return s[: p + ell] + (block[::-1] if mirrored else block) + s[p + ell :]


def slicing_oracle(s, kind, p):
    """The symbols after one error of the kind at p, or the start of the
    message that refuses it. A deletion gives the word whose duplication at
    p is s."""
    ell, mirrored = kind.ell, not kind.is_tandem
    if not 0 <= p <= len(s) - (ell if kind.is_duplication else 2 * ell):
        return f"invalid position: p={p} "
    if kind.is_duplication:
        return inserted(s, ell, p, mirrored)
    shorter = s[: p + ell] + s[p + 2 * ell :]
    if inserted(shorter, ell, p, mirrored) != s:
        return f"not a palindrome at p={p}:" if mirrored else f"not a tandem at p={p}:"
    return shorter


def outcome(op, *args):
    """op(*args), or the message of the ValueError it raises."""
    try:
        return op(*args)
    except ValueError as error:
        return str(error)


@pytest.mark.parametrize("q,n_max", [(2, 6), (3, 4)])
def test_the_word_route_is_the_slicing_rule_at_every_position(q, n_max):
    """Over every word, l = 1..3, every kind and every p in -1..n+1:
    apply_error gives the slicing oracle's word or refuses with its message,
    each named operation gives what apply_error gives, and
    deletion_positions lists exactly the p where a deletion succeeds."""
    for n in range(n_max + 1):
        for x in words_of(n, q):
            for ell in (1, 2, 3):
                for make, named in NAMED_OPERATIONS:
                    kind, succeeded = make(ell), []
                    for p in range(-1, n + 2):
                        got = outcome(apply_error, x, kind, p)
                        expected = slicing_oracle(x.symbols, kind, p)
                        if isinstance(expected, str):
                            assert isinstance(got, str) and got.startswith(expected), (x, kind, p, got)
                        else:
                            assert got == word(expected, q), (x, kind, p)
                            succeeded.append(p)
                        assert outcome(named, x, ell, p) == got, (x, kind, p)
                    if not kind.is_duplication:
                        assert deletion_positions(x, kind) == succeeded, (x, kind)


def test_the_named_operations_refuse_a_zero_block():
    x = word((0, 0, 1, 1), 2)
    for _, named in NAMED_OPERATIONS:
        with pytest.raises(ValueError, match="block length must be >= 1"):
            named(x, 0, 0)


def test_error_kind_helpers():
    k = tandem_dup(2)
    assert k.inverse() == tandem_del(2)
    assert k.is_duplication and k.is_tandem
    assert not pal_del(1).is_duplication
    with pytest.raises(ValueError):
        ErrorKind("bogus", 1)
    with pytest.raises(ValueError):
        ErrorKind("tandem-dup", 0)
    x = word((0, 0, 1), 2)
    assert error_positions(x, tandem_dup(1)) == [0, 1, 2]
    assert apply_error(x, pal_dup(2), 1) == word((0, 0, 1, 1, 0), 2)


@pytest.mark.parametrize("q,n_max", [(2, 6), (3, 4)])
def test_batch_twins_match_the_single_operations(q, n_max):
    """duplication_rows and deletion_rows against apply_error over every word,
    in their documented order (row by row, positions ascending)."""
    for n in range(0, n_max + 1):
        words = list(words_of(n, q))
        rows = np.array([x.symbols for x in words], dtype=np.int8).reshape(len(words), n)
        for ell in (1, 2, 3):
            for dup in (tandem_dup(ell), pal_dup(ell)):
                received, owner = duplication_rows(rows, dup)
                expected = [(i, apply_error(x, dup, p)) for i, x in enumerate(words) for p in error_positions(x, dup)]
                assert owner.tolist() == [i for i, _ in expected]
                assert [word(r, q) for r in received.tolist()] == [y for _, y in expected]
                deletion = dup.inverse()
                outcomes, source = deletion_rows(received, deletion)
                expected = [
                    (k, apply_error(y, deletion, p))
                    for k, (_, y) in enumerate(expected)
                    for p in deletion_positions(y, deletion)
                ]
                assert source.tolist() == [k for k, _ in expected]
                assert [word(r, q) for r in outcomes.tolist()] == [x for _, x in expected]
                outcomes, source = deletion_rows(rows, deletion)
                assert sorted(source.tolist()) == source.tolist()
                assert len(source) == sum(len(deletion_positions(x, deletion)) for x in words)


def test_batch_twins_refuse_the_other_direction():
    rows = np.zeros((2, 4), dtype=np.int8)
    with pytest.raises(ValueError, match="duplication kind"):
        duplication_rows(rows, tandem_del(1))
    with pytest.raises(ValueError, match="duplication kind"):
        duplication_columns(4, pal_del(1))
    with pytest.raises(ValueError, match="deletion kind"):
        deletion_rows(rows, pal_dup(2))


@pytest.mark.parametrize("kind", [tandem_dup(1), tandem_dup(3), pal_dup(1), pal_dup(2), pal_dup(4)], ids=str)
def test_duplication_columns_read_the_duplicated_word(kind):
    """Row p of the table reads the duplication at p from the word: one row
    per position of `error_positions`, none when the block does not fit."""
    for n in range(0, 7):
        table = duplication_columns(n, kind)
        assert table.shape == (max(0, n - kind.ell + 1), n + kind.ell)
        for x in words_of(n, 3):
            assert [tuple(np.array(x.symbols, dtype=np.int64)[row].tolist()) for row in table] == [
                apply_error(x, kind, p).symbols for p in error_positions(x, kind)
            ]


def keys_by_row(key, source, N):
    """The keys of each of N rows, sorted."""
    per_row = [[] for _ in range(N)]
    for i, k in zip(source.tolist(), key.tolist()):
        per_row[i].append(k)
    return [sorted(keys) for keys in per_row]


@pytest.mark.parametrize("q,n_max", [(2, 8), (3, 5)])
def test_error_keys_are_the_keys_of_the_twin_outcomes(q, n_max):
    """error_keys over every word, for all four kinds: per row, the packed
    keys of the outcomes of duplication_rows/deletion_rows. A palindromic
    kind gives one key per valid position, repeats included. A tandem kind
    gives each distinct outcome once, as many as signature_scan's sig_len
    (duplications) or sig_weight (deletions). With n < ell there is no
    tail, and no error."""
    for n in range(0, n_max + 1):
        rows = all_words(n, q)
        N = len(rows)
        for ell in (1, 2, 3):
            sig_len, sig_weight, _ = signature_scan(rows, ell) if n >= ell else (None, None, None)
            for kind in (tandem_dup(ell), tandem_del(ell), pal_dup(ell), pal_del(ell)):
                source, key = error_keys(rows, kind, q)
                assert source.dtype == key.dtype == np.int64, (kind, n)
                outcomes, twin_source = (duplication_rows if kind.is_duplication else deletion_rows)(rows, kind)
                expected = keys_by_row(packed_keys(outcomes, q), twin_source, N)
                got = keys_by_row(key, source, N)
                if not kind.is_tandem:
                    assert got == expected, (kind, n)
                    continue
                assert got == [sorted(set(keys)) for keys in expected], (kind, n)
                count = sig_len if kind.is_duplication else sig_weight
                sizes = np.bincount(source, minlength=N)
                assert sizes.tolist() == (count.tolist() if n >= ell else [0] * N), (kind, n)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
def test_error_keys_of_an_empty_batch(n):
    """A (0, n) batch gives no key, for every kind."""
    empty = np.empty((0, n), dtype=np.int8)
    for ell in (1, 2, 3):
        for kind in (tandem_dup(ell), tandem_del(ell), pal_dup(ell), pal_del(ell)):
            source, key = error_keys(empty, kind, 2)
            assert source.shape == key.shape == (0,), (kind, n)


def test_error_keys_refuse_keys_past_63_bits():
    """The outcome keys, and for a deletion the row keys too, must fit int64,
    by the rule and message of packed_keys; the largest key that fits is
    made exactly."""
    assert error_keys(np.zeros((1, 61), dtype=np.int8), tandem_dup(2), 2)[1].tolist() == [0]
    assert set(error_keys(np.ones((1, 61), dtype=np.int8), pal_dup(2), 2)[1].tolist()) == {2**63 - 1}
    assert error_keys(np.zeros((1, 63), dtype=np.int8), tandem_del(1), 2)[1].tolist() == [0]
    with pytest.raises(ValueError, match="length 64 over q=2 need 64 bits; int64 keys hold 63"):
        error_keys(np.zeros((3, 62), dtype=np.int8), tandem_dup(2), 2)
    with pytest.raises(ValueError, match="length 64 over q=2 need 64 bits; int64 keys hold 63"):
        error_keys(np.zeros((1, 64), dtype=np.int8), tandem_del(1), 2)
    with pytest.raises(ValueError, match="length 40 over q=3 need 64 bits; int64 keys hold 63"):
        error_keys(np.zeros((0, 39), dtype=np.int8), pal_dup(1), 3)


def test_sample_single_error_duplications_follow_the_position_list():
    """A seeded rng gives the same (word, position) sequence, and leaves the
    rng in the same state, as drawing from `error_positions` and applying
    the error with `apply_error`."""
    kinds = [tandem_dup(ell) for ell in (1, 2, 3)] + [pal_dup(ell) for ell in (1, 2, 3)]
    words = [word(s, 3) for s in ((0,), (1, 2), (0, 1, 2), (2, 2, 0, 1, 1), (0, 1, 2, 0, 1, 2, 2))]
    for seed in range(3):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(20):
            for kind in kinds:
                for x in words:
                    if len(x) < kind.ell:
                        with pytest.raises(ValueError, match="no position"):
                            sample_single_error(x, kind, fast)
                        assert error_positions(x, kind) == []
                        continue
                    positions = error_positions(x, kind)
                    p = positions[slow.randrange(len(positions))]
                    assert sample_single_error(x, kind, fast) == (apply_error(x, kind, p), p)
        assert fast.getstate() == slow.getstate()


def test_sample_single_error_deletions_draw_from_the_position_list():
    """A deletion takes its position from `deletion_positions` with one
    `rng.randrange` call and applies it with `apply_error`; a word where no
    deletion of the kind applies is refused and draws nothing."""
    kinds = [tandem_del(ell) for ell in (1, 2)] + [pal_del(ell) for ell in (1, 2)]
    words = [word(s, 3) for s in ((0,), (0, 1, 2), (1, 1, 0), (0, 1, 0, 1), (2, 1, 1, 2, 2, 0), (0, 1, 2, 2, 1, 0, 0, 1))]
    for seed in range(3):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(20):
            for kind in kinds:
                for x in words:
                    positions = deletion_positions(x, kind)
                    if not positions:
                        with pytest.raises(ValueError, match="no position"):
                            sample_single_error(x, kind, fast)
                        continue
                    p = positions[slow.randrange(len(positions))]
                    assert sample_single_error(x, kind, fast) == (apply_error(x, kind, p), p)
        assert fast.getstate() == slow.getstate()

import argparse
import csv
import gc
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dupcodes import codes, formulas
from dupcodes.bounds import bound_report
from dupcodes.channel import error_ball, tandem_dup
from dupcodes.cli import main
from dupcodes.words import Word, format_word, parse_word
from dupcodes.wordspace import all_words

from conftest import cpf_decode_scalar, sample_single_error, words_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fail(*_):
    """A Word decoder that fails everywhere."""
    raise codes.DecodingFailure("decoding failure: injected")


def no_rows(rows, n):
    """A row decoder that fails everywhere: a row of -1 for every row."""
    return np.full((len(rows), n), -1, dtype=np.int8)


def patch_decoder(monkeypatch, decoder, double):
    """Patch what verify and simulate reach: `codes.c1_decode`,
    `codes.c2_decode` or `codes.oracle_verdicts` by name, or for
    "cpf_decode_rows" cpf's `decode_rows`, with double(rows, n) in its place."""
    if decoder == "cpf_decode_rows":
        monkeypatch.setattr(codes.PalindromeFreeCode, "decode_rows", lambda code, rows: double(rows, code.n))
    else:
        monkeypatch.setattr(codes, decoder, double)


def test_sphere_pal_dup_example(capsys):
    code, out, _ = run_cli(
        capsys, "sphere", "--word", "11110220", "--q", "3", "--kind", "pal-dup", "--l", "2", "--t", "1"
    )
    assert code == 0
    assert "enumerated size: 5" in out
    assert "formula size:    5" in out
    assert out.count("\n  ") == 5  # five members listed


def test_sphere_empty_deletion(capsys):
    code, out, _ = run_cli(
        capsys, "sphere", "--word", "01", "--q", "2", "--kind", "tandem-del", "--l", "1", "--t", "1"
    )
    assert code == 0
    assert "enumerated size: 0" in out
    assert "(empty sphere)" in out


def test_sphere_pal_del_length3_example(capsys):
    code, out, _ = run_cli(
        capsys, "sphere", "--word", "21011012210", "--q", "3", "--kind", "pal-del", "--l", "3"
    )
    assert code == 0
    assert "enumerated size: 2" in out
    assert "upper bound:     2" in out
    assert "21012210" in out and "21011012" in out


@pytest.mark.parametrize("kind", ["tandem-dup", "tandem-del"])
@pytest.mark.parametrize("t,size", [("1", 0), ("0", 1)])
def test_sphere_tandem_word_shorter_than_l_has_no_formula(capsys, kind, t, size):
    """The step derivative needs l symbols: no closed form, no traceback."""
    code, out, err = run_cli(capsys, "sphere", "--word", "01", "--kind", kind, "--l", "3", "--t", t)
    assert code == 0 and err == ""
    assert f"enumerated size: {size}" in out
    assert "formula size:    n/a" in out


@pytest.mark.parametrize("kind,ell", [("pal-dup", "1"), ("pal-del", "1"), ("pal-del", "2")])
def test_sphere_of_the_empty_word_has_no_formula(capsys, kind, ell):
    """The run-profile closed forms need one symbol: no closed form, no traceback."""
    code, out, err = run_cli(capsys, "sphere", "--word", "", "--kind", kind, "--l", ell)
    assert code == 0 and err == ""
    assert "enumerated size: 0" in out
    assert "formula size:    n/a" in out
    assert "(empty sphere)" in out


def test_sphere_machine_output_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "sphere.json"
    code, _, _ = run_cli(
        capsys, "sphere", "--word", "11110220", "--q", "3", "--kind", "pal-dup", "--l", "2",
        "--out", str(out_path),
    )
    assert code == 0
    rows = json.load(open(out_path))
    assert rows[0]["size"] == 5 and rows[0]["formula"] == 5
    assert len(rows[0]["members"]) == 5


def test_sphere_parse_failure(capsys):
    code, _, err = run_cli(capsys, "sphere", "--word", "0121", "--q", "2", "--kind", "pal-dup", "--l", "2")
    assert code == 2
    assert "error" in err


def test_sphere_dna_alias(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--word", "GATC", "--q", "4", "--kind", "tandem-dup", "--l", "1")
    assert code == 0
    assert "word 2031 (q=4)" in out


def _reported(out: str, label: str):
    """The value after `label` in a sphere report, or None for n/a."""
    (line,) = [line for line in out.splitlines() if line.startswith(label)]
    value = line[len(label) :].strip()
    return None if value == "n/a" else int(value)


def test_sphere_claims_each_closed_form_and_bound_exactly_where_it_holds(capsys):
    """Every branch of the closed-form and bound dispatch, on every word of
    the small spaces: each call passes its own checks, and a closed form or
    bound is reported exactly where one holds."""
    words = [w for n in range(6) for w in words_of(n, 2)] + [w for n in range(4) for w in words_of(n, 3)]
    for x in words:
        n = len(x)
        for kind in ("tandem-dup", "tandem-del", "pal-dup", "pal-del"):
            for ell in (1, 2, 3):
                for t in (1, 2):
                    argv = ("sphere", "--word", str(x), "--q", str(x.q), "--kind", kind, "--l", str(ell), "--t", str(t))
                    code, out, err = run_cli(capsys, *argv)
                    assert code == 0 and err == "", argv
                    if kind.startswith("tandem"):
                        has_formula = n >= ell
                    elif kind == "pal-dup":
                        has_formula = t == 1 and (ell == 1 and n >= 1 or ell == 2 and n >= 2)
                    else:
                        has_formula = t == 1 and n >= 1 and (ell == 1 or ell == 2 and x.q == 2)
                    has_bound = t == 1 and (kind == "pal-del" or kind == "pal-dup" and n >= ell)
                    size = _reported(out, "enumerated size:")
                    assert _reported(out, "formula size:") == (size if has_formula else None), argv
                    assert (_reported(out, "upper bound:") is not None) == has_bound, argv


def test_sphere_formula_mismatch_exits_1_and_still_writes_out(monkeypatch, tmp_path, capsys):
    true_size = formulas.pal_dup_sphere_size_l2
    monkeypatch.setattr(formulas, "pal_dup_sphere_size_l2", lambda x: true_size(x) + 1)
    out_path = tmp_path / "sphere.json"
    code, out, err = run_cli(
        capsys, "sphere", "--word", "11110220", "--q", "3", "--kind", "pal-dup", "--l", "2", "--out", str(out_path)
    )
    assert code == 1 and err == "FORMULA MISMATCH\n"
    assert "formula size:    6" in out
    (row,) = json.loads(out_path.read_text())
    assert (row["size"], row["formula"]) == (5, 6)


def test_sphere_bound_violation_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(formulas, "pal_del_sphere_upper_bound", lambda x, ell: 1)
    code, out, err = run_cli(capsys, "sphere", "--word", "21011012210", "--q", "3", "--kind", "pal-del", "--l", "3")
    assert code == 1 and err == "BOUND VIOLATION\n"
    assert "enumerated size: 2" in out and "upper bound:     1" in out


def test_bound_rows_and_csv(tmp_path, capsys):
    out_path = tmp_path / "bounds.csv"
    code, out, _ = run_cli(
        capsys, "bound", "--n", "2..10", "--l", "2", "--q", "2", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().splitlines()[0] == (
        "n,l,q,t,bound_numerator,bound_denominator,redundancy_lb_bits,redundancy_lb_bits_raw,"
        "histogram,bound,c1_redundancy_bits,c2_redundancy_bits,burst_redundancy_bits"
    )
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert rows[0]["n"] == "2"
    assert "." in rows[-1]["redundancy_lb_bits"]  # plain decimal point formatting


def test_csv_list_cells_are_json_text(tmp_path, capsys):
    """A list value (verify's report, sphere's members) goes into its CSV cell
    as JSON text, as a dict does, and reads back as the JSON output's list."""
    for argv, column in (
        (["verify", "--code", "c1", "--n", "4"], "report"),
        (["sphere", "--word", "0011", "--q", "2", "--kind", "tandem-del", "--l", "1"], "members"),
        (["sphere", "--word", "0110", "--q", "2", "--kind", "tandem-dup", "--l", "1"], "members"),
    ):
        csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
        assert run_cli(capsys, *argv, "--out", str(csv_path))[0] == 0
        assert run_cli(capsys, *argv, "--out", str(json_path))[0] == 0
        with open(csv_path) as fh:
            (row,) = list(csv.DictReader(fh))
        (expected,) = json.loads(json_path.read_text())
        assert json.loads(row[column]) == expected[column], argv
        assert isinstance(expected[column], list) and expected[column], argv


def test_bound_single_rational(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "2", "--l", "1", "--q", "2")
    assert code == 0
    assert "4/1" in out  # transversal weight on the degenerate instance


@pytest.mark.parametrize(
    "argv,rows",
    [
        (("--n", "30", "--l", "1", "--q", "4"), ["30"]),
        (("--n", "40", "--l", "1", "--q", "4"), ["40"]),  # past 2^63 words: Python-int tables
        (("--n", "5", "--q", "200"), ["5"]),  # past the int8 rows of all_words
        (("--n", "20..22", "--q", "2"), ["20", "21", "22"]),
    ],
    ids=["q4-n30", "q4-n40", "q200", "q2-past-2^20"],
)
def test_bound_has_no_word_space_guard(capsys, argv, rows):
    """bound counts every column and enumerates no word space, so it prints
    the rows that a q^n guard would refuse."""
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 0 and err == ""
    assert [line.split()[0] for line in out.splitlines()[1:]] == rows


@pytest.mark.parametrize(
    "command,args",
    [
        ("verify", ("--code", "c1", "--n", "21")),
        ("simulate", ("--code", "c2", "--n", "21")),
    ],
    ids=["verify-c1", "simulate-c2"],
)
def test_verify_and_simulate_refuse_past_the_guard_before_counting(monkeypatch, capsys, command, args):
    """verify and simulate enumerate their codebook from all q^n words: past
    the guard they are refused before any parameter table is counted."""

    def no_count(*_args, **_kwargs):
        raise AssertionError("a parameter table was counted")

    monkeypatch.setattr(codes, "_c1_counts", no_count)
    monkeypatch.setattr(codes, "_c2_counts", no_count)
    code, out, err = run_cli(capsys, command, *args)
    assert code == 2 and out == ""
    assert err == "refused: instance too large: q^n = 2^21 = 2097152 words exceeds the guard 1048576\n"


def test_bound_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "bounds.json"
    code, _, _ = run_cli(
        capsys, "bound", "--n", "4,6", "--l", "2", "--q", "2", "--out", str(out_path), "--format", "json"
    )
    assert code == 0
    rows = json.load(open(out_path))
    assert [r["n"] for r in rows] == [4, 6]
    for row in rows:
        assert {"bound_numerator", "bound_denominator", "redundancy_lb_bits", "histogram"} <= set(row)


def test_bound_out_row_holds_the_report(tmp_path, capsys):
    """A `bound --out` row carries n, l, q, t and the bound as an exact
    numerator and denominator, and reads back as the JSON that was written."""
    out_path = tmp_path / "bounds.json"
    assert run_cli(capsys, "bound", "--n", "6", "--l", "2", "--q", "2", "--out", str(out_path))[0] == 0
    rows = json.loads(out_path.read_text())
    assert out_path.read_text() == json.dumps(rows, indent=2, sort_keys=True) + "\n"
    [row] = rows
    assert (row["n"], row["l"], row["q"], row["t"]) == (6, 2, 2, 1)
    report = bound_report(6, 2, 2)
    assert Fraction(row["bound_numerator"], row["bound_denominator"]) == report.bound
    assert row["bound"] == f"{report.bound.numerator}/{report.bound.denominator}"
    assert sum(row["histogram"].values()) == 2**4
    assert row["redundancy_lb_bits"] >= 0


def test_bound_writes_no_nan(tmp_path, capsys):
    """The burst column is undefined below n = 2: nan on stdout, null in
    JSON (no NaN, which is not JSON) and an empty CSV cell."""

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    json_path, csv_path = tmp_path / "bounds.json", tmp_path / "bounds.csv"
    code, out, _ = run_cli(capsys, "bound", "--n", "1,2", "--l", "1", "--out", str(json_path))
    assert code == 0 and out.splitlines()[1].split()[-1] == "nan"
    rows = json.loads(json_path.read_text(), parse_constant=no_constant)
    assert [row["burst_redundancy_bits"] for row in rows] == [None, 2.0]
    assert run_cli(capsys, "bound", "--n", "1,2", "--l", "1", "--out", str(csv_path))[0] == 0
    with open(csv_path) as fh:
        assert [row["burst_redundancy_bits"] for row in csv.DictReader(fh)] == ["", "2.0"]


def test_verify_c1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--code", "c1", "--n", "6", "--l", "2", "--q", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_c2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--code", "c2", "--n", "6", "--q", "2")
    assert code == 0
    assert "PASS" in out
    assert "best cardinality" in out


def test_verify_cpf(capsys):
    code, out, _ = run_cli(capsys, "verify", "--code", "cpf", "--n", "6", "--q", "2")
    assert code == 0
    assert "PASS" in out
    assert "count 26" in out


# exact verify reports and simulate machine output, pinned byte for byte
@pytest.mark.parametrize(
    "args,report",
    [
        (
            ("--code", "c1", "--n", "6", "--l", "2", "--q", "2"),
            [
                "c1 n=6 l=2 q=2: best residues (0, 1, 0, 0, 0), cardinality 44",
                "ok   cardinality >= guarantee 86/5",
                "ok   all codeword balls disjoint",
                "ok   syndrome decoder = oracle on every (codeword, error)",
            ],
        ),
        (
            ("--code", "c2", "--n", "6", "--q", "2"),
            [
                "c2 n=6: 65 parameter pairs, best cardinality 6",
                "ok   best cardinality >= 1",
                "ok   every (a, b) corrects every single palindromic duplication",
            ],
        ),
        (
            ("--code", "cpf", "--n", "6", "--q", "2"),
            [
                "cpf n=6 q=2: count 26",
                "ok   recursion matches enumeration",
                "ok   closed form matches",
                "ok   decoder corrects every duplication of every length 2..6",
            ],
        ),
    ],
    ids=["c1", "c2", "cpf"],
)
def test_verify_golden_report(tmp_path, capsys, args, report):
    out_path = tmp_path / "verify.json"
    code, out, err = run_cli(capsys, "verify", *args, "--out", str(out_path))
    assert code == 0 and err == ""
    assert out == "\n".join(report + ["PASS"]) + "\n"
    assert json.load(open(out_path)) == [{"passed": True, "report": report}]


def test_simulate_golden_output(tmp_path, capsys):
    out_path = tmp_path / "simulate.json"
    code, out, _ = run_cli(
        capsys, "simulate", "--code", "cpf", "--n", "8", "--q", "3", "--trials", "60", "--seed", "7",
        "--out", str(out_path),
    )
    assert code == 0
    assert out == "60/60 decoded correctly (seed 7)\n"
    assert out_path.read_text() == (
        '[\n  {\n    "code": "cpf",\n    "l": 1,\n    "n": 8,\n    "q": 3,\n'
        '    "seed": 7,\n    "successes": 60,\n    "trials": 60\n  }\n]\n'
    )


@pytest.mark.parametrize(
    "n,report",
    [
        ("2", ["cpf n=2 q=2: count 4", "ok   recursion matches enumeration",
               "ok   decoder corrects every duplication of every length 2..2"]),
        ("3", ["cpf n=3 q=2: count 8", "ok   recursion matches enumeration", "ok   closed form matches",
               "ok   decoder corrects every duplication of every length 2..3"]),
    ],
)
def test_verify_cpf_claims_the_closed_form_only_where_it_runs(capsys, n, report):
    """The palindrome-free closed form starts at n = 3."""
    code, out, err = run_cli(capsys, "verify", "--code", "cpf", "--n", n, "--q", "2")
    assert code == 0 and err == ""
    assert out == "\n".join(report + ["PASS"]) + "\n"


@pytest.mark.parametrize(
    "args,decoder",
    [
        (("--code", "c1", "--n", "6", "--l", "2", "--q", "2"), "c1_decode"),
        (("--code", "c1", "--n", "6", "--l", "2", "--q", "2"), "oracle_verdicts"),
        (("--code", "c2", "--n", "6", "--q", "2"), "c2_decode"),
        (("--code", "c2", "--n", "6", "--q", "2"), "oracle_verdicts"),
        (("--code", "cpf", "--n", "6", "--q", "2"), "cpf_decode_rows"),
    ],
)
def test_verify_counts_decoding_failure_as_broken(monkeypatch, capsys, args, decoder):
    def oracle_rejects_every_row(book_keys, order, group, received, *_):
        return np.zeros(len(received), dtype=bool), {}

    doubles = {"oracle_verdicts": oracle_rejects_every_row, "cpf_decode_rows": no_rows}
    patch_decoder(monkeypatch, decoder, doubles.get(decoder, fail))
    code, out, _ = run_cli(capsys, "verify", *args)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "FAIL"
    assert any(line.startswith("FAIL ") and "broken" in line for line in lines)


@pytest.mark.parametrize(
    "args,decoder,report",
    [
        (("--code", "c2", "--n", "6", "--q", "2"), "c2_decode", "FAIL {groups} parameter pairs with broken correction"),
        (("--code", "cpf", "--n", "6", "--q", "2"), "cpf_decode_rows", "FAIL 5 duplication lengths with broken correction"),
    ],
    ids=["c2", "cpf"],
)
def test_verify_failure_counts_parameter_pairs_and_lengths(monkeypatch, capsys, args, decoder, report):
    """A decoder that fails everywhere breaks every (a, b) group that exists
    at n=6, and each duplication length 2..6 of cpf, once."""
    groups = len(codes.c2_groups(6)[0])
    patch_decoder(monkeypatch, decoder, no_rows if decoder == "cpf_decode_rows" else fail)
    code, out, _ = run_cli(capsys, "verify", *args)
    assert code == 1
    assert report.format(groups=groups) in out.splitlines()


def test_verify_names_a_clashing_pair_and_their_shared_word(monkeypatch, capsys):
    """With every word of length 6 as the codebook, the balls clash; the FAIL
    line names two codewords and a word that both balls hold."""
    monkeypatch.setattr(codes.TandemVTCode, "codebook_rows", lambda code, limit: all_words(code.n, code.q, limit))
    code, out, _ = run_cli(capsys, "verify", "--code", "c1", "--n", "6", "--l", "2", "--q", "2")
    assert code == 1
    [line] = [line for line in out.splitlines() if line.startswith("FAIL balls intersect: ")]
    first, rest = line.removeprefix("FAIL balls intersect: ").split(" / ")
    second, shared = rest.split(" share ")
    first, second, shared = (parse_word(text, 2) for text in (first, second, shared))
    assert first != second
    assert shared in error_ball(first, tandem_dup(2), 1) & error_ball(second, tandem_dup(2), 1)


def test_verify_refuses_keys_wider_than_int64(monkeypatch, capsys):
    """cpf at n=40 duplicates up to 40 symbols: received words of length 80
    need 80-bit keys. The codebook stands in for one that a larger machine
    could enumerate."""
    monkeypatch.setattr(codes.PalindromeFreeCode, "codebook_rows", lambda code, limit: np.zeros((0, code.n), dtype=np.int8))
    code, out, err = run_cli(capsys, "verify", "--code", "cpf", "--n", "40", "--q", "2", "--force")
    assert code == 2
    assert out == ""
    assert err.startswith("refused: ") and "int64" in err and err.count("\n") == 1


GUARDED_RUNS = [
    ("verify", "--code", "cpf", "--n", "6", "--q", "2"),
    ("simulate", "--code", "cpf", "--n", "6", "--q", "2", "--trials", "3"),
]


@pytest.mark.parametrize("argv", GUARDED_RUNS, ids=["verify", "simulate"])
def test_running_out_of_memory_is_refused(monkeypatch, tmp_path, capsys, argv):
    """A codebook that --force lets past what memory holds ends in one
    `refused:` line carrying the allocator's text, exit 2 and no --out. The
    codebook route raises numpy's text here: whether a real huge request
    fails at once depends on how the machine overcommits memory."""
    text = "Unable to allocate 40.0 TiB for an array with shape (1099511627776, 40) and data type int8"

    def exhausted(code, limit):
        raise MemoryError(text)

    monkeypatch.setattr(codes.PalindromeFreeCode, "codebook_rows", exhausted)
    out_path = tmp_path / "rows.json"
    code, out, err = run_cli(capsys, *argv, "--force", "--out", str(out_path))
    assert code == 2
    assert err == f"refused: out of memory: {text}\n"
    assert "Traceback" not in out + err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", GUARDED_RUNS, ids=["verify", "simulate"])
def test_an_os_error_not_about_out_propagates(monkeypatch, tmp_path, capsys, argv):
    """Only a failure to write --out is an input refusal; any other OSError
    is a fault of the run and leaves `main` as it is, with no --out."""

    def unreadable(code, limit):
        raise OSError(5, "Input/output error", str(tmp_path / "elsewhere"))

    monkeypatch.setattr(codes.PalindromeFreeCode, "codebook_rows", unreadable)
    out_path = tmp_path / "rows.json"
    for extra in ((), ("--out", str(out_path))):
        with pytest.raises(OSError, match="Input/output error"):
            main([*argv, *extra])
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_a_codebook_past_the_array_size_limit_is_refused(capsys, command):
    """--force lifts the guard to sys.maxsize words, and 2^62 words of 62
    symbols pass it; numpy refuses that array's size before allocating
    anything, and the codebook refusal turns that into one `refused:` line."""
    code, out, err = run_cli(capsys, command, "--code", "cpf", "--n", "62", "--q", "2", "--force")
    assert code == 2
    assert err.startswith("refused: array is too big") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args,decoder",
    [
        (("--code", "c1", "--n", "8", "--l", "1", "--q", "2"), "c1_decode"),
        (("--code", "c2", "--n", "9", "--q", "2"), "c2_decode"),
        (("--code", "cpf", "--n", "8", "--q", "3"), "cpf_decode_rows"),
    ],
    ids=["c1", "c2", "cpf"],
)
def test_simulate_counts_decoding_failure_as_a_failed_trial(monkeypatch, capsys, args, decoder):
    """simulate reaches the c1 and c2 decoders through their module-level
    names and cpf's through its `decode_rows`: a decoder that always fails
    loses every trial that had an error to correct. The row decoder sees
    each trial's received row once."""
    decoded = []

    def counted_no_rows(rows, n):
        decoded.extend(rows.tolist())
        return no_rows(rows, n)

    patch_decoder(monkeypatch, decoder, counted_no_rows if decoder == "cpf_decode_rows" else fail)
    code, out, err = run_cli(capsys, "simulate", *args, "--trials", "30", "--seed", "7")
    assert code == 1
    successes, trials = out.split()[0].split("/")
    assert int(trials) == 30 and int(successes) < 30
    assert err.startswith("counterexample: ") and err.endswith(" decoded None\n")
    assert len(decoded) == (30 if decoder == "cpf_decode_rows" else 0)


def wrong_word(y, code):
    """The benchmark self-test's wrong decoder: a constant word of the code's
    length that never equals the codeword, whose first symbol every error
    keeps."""
    return Word((0,) * code.n, y.q) if y.symbols[0] else Word((1,) * code.n, y.q)


def wrong_rows(rows, n):
    """`wrong_word` on every row of a batch: the row decoder's wrong answer."""
    return np.where(rows[:, :1] != 0, 0, 1).astype(np.int8).repeat(n, axis=1)


@pytest.mark.parametrize(
    "decoder,args",
    [
        ("c1_decode", ("--code", "c1", "--n", "6", "--l", "2", "--q", "2")),
        ("c2_decode", ("--code", "c2", "--n", "8", "--q", "2")),
        ("cpf_decode_rows", ("--code", "cpf", "--n", "6", "--q", "3")),
    ],
    ids=["c1", "c2", "cpf"],
)
def test_a_wrong_word_from_any_decoder_fails_verify_and_simulate(monkeypatch, capsys, decoder, args):
    """verify and simulate reach the c1 and c2 decoders through their
    module-level names, one Word per call, and cpf's through its
    `decode_rows`, a batch of rows per call. A decoder
    that returns a wrong word breaks the verify report and loses simulate
    trials; simulate decodes each trial once."""
    calls = []

    def recorded(y, code):
        if decoder == "cpf_decode_rows":
            assert isinstance(y, np.ndarray) and y.ndim == 2
            calls.extend(y.tolist())
            return wrong_rows(y, code)
        assert isinstance(y, Word)
        calls.append(y)
        return wrong_word(y, code)

    patch_decoder(monkeypatch, decoder, recorded)
    code, out, _ = run_cli(capsys, "verify", *args)
    assert code == 1 and calls
    lines = out.splitlines()
    assert lines[-1] == "FAIL"
    assert any(line.startswith("FAIL ") and "broken" in line for line in lines)
    calls.clear()
    code, out, err = run_cli(capsys, "simulate", *args, "--trials", "20", "--seed", "3")
    assert code == 1 and len(calls) == 20
    successes, trials = out.split()[0].split("/")
    assert int(trials) == 20 and int(successes) < 20
    assert err.startswith("counterexample: ")


def test_benchmark_self_test_passes():
    """perfbench/selftest.py: every benchmark output check accepts the real
    answer and rejects each corruption, including a wrong decoder in verify."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=root, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "self-test passed"


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--code", "cpf", "--n", "1", "--q", "2"),
        ("rates", "--q", "1", "--n", "4"),
        ("sphere", "--word", "0101", "--kind", "tandem-dup", "--l", "1", "--t", "-1"),
        ("bound", "--n", "abc"),
        ("bound", "--n", "5", "--l", "0"),
        ("simulate", "--code", "c2", "--n", "1", "--q", "2"),
        ("verify", "--code", "c2", "--n", "1", "--q", "2"),
        ("verify", "--code", "cpf", "--n", "1", "--q", "2"),
        ("verify", "--code", "cpf", "--n", "0", "--q", "2"),
        ("bound", "--n", "5..3"),
        ("simulate", "--code", "c1", "--n", "6", "--trials", "-3"),
    ],
    ids=[
        "simulate-cpf-n1",
        "rates-q1",
        "sphere-negative-t",
        "bound-n-not-a-number",
        "bound-l0",
        "simulate-c2-n1",
        "verify-c2-n1",
        "verify-cpf-n1",
        "verify-cpf-n0",
        "bound-empty-n-range",
        "simulate-negative-trials",
    ],
)
def test_bad_input_refused_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (("bound", "--n", "2..3..4"), "error: --n: not a range lo..hi: '2..3..4'"),
        (("bound", "--n", "x"), "error: --n: not an integer: 'x'"),
        (("bound", "--n", "2,,4"), "error: --n: not an integer: ''"),
        (("bound", "--n", "2..y"), "error: --n: not an integer: 'y'"),
        (("rates", "--q", "2,x", "--n", "4"), "error: --q: not an integer: 'x'"),
        (("rates", "--q", "2", "--n", "4,z"), "error: --n: not an integer: 'z'"),
    ],
    ids=["bound-three-dots", "bound-word", "bound-empty-token", "bound-range-end", "rates-q", "rates-n"],
)
def test_list_flag_parse_errors_name_the_flag_and_token(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "n,ell,short",
    [("1..4", "2", "1"), ("0..5", "3", "0, 1, 2"), ("6,2,8", "3", "2")],
    ids=["range", "range-from-0", "list"],
)
def test_bound_refuses_lengths_below_l_naming_both_flags(capsys, n, ell, short):
    code, out, err = run_cli(capsys, "bound", "--n", n, "--l", ell)
    assert code == 2 and out == ""
    assert err == f"error: --n lengths below --l {ell}: {short}\n"


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize(
    "args,message",
    [
        (("--code", "c1", "--n", "2", "--l", "3"), "error: --n 2 below --l 3"),
        (("--code", "c1", "--n", "0"), "error: --n must be >= 1, got 0"),
        (("--code", "c2", "--n", "0"), "error: --n must be >= 1, got 0"),
        (("--code", "cpf", "--n", "-1", "--q", "3"), "error: --n must be >= 1, got -1"),
        (("--code", "c1", "--n", "3", "--l", "0"), "error: block length must be >= 1, got l=0"),
        (("--code", "c1", "--n", "3", "--l", "-1"), "error: block length must be >= 1, got l=-1"),
    ],
    ids=["c1-n-below-l", "c1-n0", "c2-n0", "cpf-negative-n", "c1-l0", "c1-negative-l"],
)
def test_verify_and_simulate_refuse_a_short_length_naming_the_flags(monkeypatch, capsys, command, args, message):
    """Refused before any word space is enumerated."""

    def no_work(*_args, **_kwargs):
        raise AssertionError("a word space was enumerated")

    monkeypatch.setattr(codes, "all_words", no_work)
    code, out, err = run_cli(capsys, command, *args)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_codes_that_do_not_read_l_accept_any_l(capsys, command):
    """Only c1 reads --l, so only c1 refuses a block length below 1."""
    for args in (("--code", "c2", "--n", "5"), ("--code", "cpf", "--n", "4", "--q", "3")):
        code, out, err = run_cli(capsys, command, *args, "--l", "0")
        assert (code, err) == (0, "") and out


@pytest.mark.parametrize(
    "argv",
    [
        ("sphere", "--word", "0101", "--kind", "tandem-dup", "--l", "1", "--seed", "1"),
        ("bound", "--n", "4", "--seed", "1"),
        ("verify", "--code", "c1", "--n", "5", "--seed", "1"),
        ("rates", "--q", "2", "--n", "4", "--seed", "1"),
        ("sphere", "--word", "0101", "--kind", "tandem-dup", "--l", "1", "--force"),
        ("rates", "--q", "2", "--n", "4", "--force"),
        ("bound", "--n", "4", "--force"),
    ],
    ids=["sphere-seed", "bound-seed", "verify-seed", "rates-seed", "sphere-force", "rates-force", "bound-force"],
)
def test_flags_a_subcommand_does_not_read_are_refused(capsys, argv):
    """--seed belongs to simulate only, --force to verify and simulate, the
    two subcommands that enumerate a codebook from a whole word space."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    flag = "--seed" if "--seed" in argv else "--force"
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[argv.index(flag):])}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sphere", "--word", "0101", "--kind", "tandem-dup", "--l", "1"),
        ("bound", "--n", "4"),
        ("bound", "--n", "5..3"),
        ("verify", "--code", "c1", "--n", "5"),
        ("rates", "--q", "2", "--n", "4"),
        ("simulate", "--code", "c1", "--n", "6", "--trials", "5"),
    ],
    ids=["sphere", "bound", "bound-empty-n-range", "verify", "rates", "simulate"],
)
def test_out_into_a_missing_directory_refused_with_one_line(tmp_path, capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("sphere", "--word", "0101", "--kind", "tandem-dup", "--l", "1"),
        ("bound", "--n", "4"),
        ("verify", "--code", "c1", "--n", "5"),
        ("rates", "--q", "2", "--n", "4"),
        ("simulate", "--code", "c1", "--n", "6", "--trials", "5"),
    ],
    ids=["sphere", "bound", "verify", "rates", "simulate"],
)
@pytest.mark.parametrize("parent", ["missing", "a-file"])
def test_unwritable_out_refused_before_the_command_runs(tmp_path, capsys, argv, parent):
    """A --out whose directory is missing or is a file is refused before any
    report is printed, and nothing is written."""
    (tmp_path / "a-file").write_text("")
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / parent / "x.json"))
    assert code == 2
    assert out == ""
    reason = "No such file or directory" if parent == "missing" else "Not a directory"
    assert err == f"error: cannot write --out {tmp_path / parent / 'x.json'}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]


@pytest.mark.parametrize("suffix", ["", "/"])
def test_out_onto_a_directory_prints_the_report_then_one_error_line(tmp_path, capsys, suffix):
    """--out naming an existing directory passes the check made before the
    run and fails at write time: the report is printed, then one error line,
    and the directory keeps what it held."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "kept.txt").write_text("kept")
    argv = ("sphere", "--word", "0101", "--kind", "tandem-dup", "--l", "1")
    _, report, _ = run_cli(capsys, *argv)
    path = f"{tmp_path / 'dir'}{suffix}"
    code, out, err = run_cli(capsys, *argv, "--out", path)
    assert code == 2
    assert out == report
    assert err == f"error: cannot write --out {path}: Is a directory\n"
    assert [(p.name, p.read_text()) for p in (tmp_path / "dir").iterdir()] == [("kept.txt", "kept")]


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (("sphere", "--word", "0121", "--q", "2", "--kind", "pal-dup", "--l", "2"), "error: "),
        (("bound", "--n", "abc"), "error: "),
        (("verify", "--code", "cpf", "--n", "0"), "error: "),
        (("rates", "--q", "1", "--n", "4"), "error: "),
        (("simulate", "--code", "c1", "--n", "6", "--trials", "-3"), "error: "),
        (("bound", "--n", "3", "--q", "1"), "refused: "),
        (("verify", "--code", "c1", "--n", "25"), "refused: "),
        (("simulate", "--code", "c2", "--n", "21"), "refused: "),
    ],
    ids=["sphere", "bound", "verify", "rates", "simulate", "bound-refused", "verify-refused", "simulate-refused"],
)
def test_a_refusal_writes_no_out(tmp_path, capsys, argv, prefix):
    """--out is written only when the command ran (exit 0 or 1): a refused
    input prints one line and leaves no file."""
    out_path = tmp_path / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not out_path.exists()


def test_rates_table(capsys):
    code, out, _ = run_cli(capsys, "rates", "--q", "2,3", "--n", "2,4,8,inf")
    assert code == 0
    assert "0.896" in out  # (2, 4)
    assert "0.973" in out  # (3, 4)
    assert "0.551" in out  # asymptotic rate for q = 2 (3-decimal print)


def test_rates_keeps_repeated_rows_and_columns(tmp_path, capsys):
    out_path = tmp_path / "rates.json"
    code, out, err = run_cli(capsys, "rates", "--q", "2,3,2", "--n", "4,inf,4", "--out", str(out_path))
    assert code == 0 and err == ""
    assert out == (
        "q\\n       4     inf       4\n"
        "2      0.896   0.551   0.896\n"
        "3      0.973   0.890   0.973\n"
        "2      0.896   0.551   0.896\n"
    )
    rows = json.load(open(out_path))
    assert [(r["q"], r["n"]) for r in rows] == [(q, n) for q in (2, 3, 2) for n in (4, "inf", 4)]
    for r in rows:
        assert r["rate"] == pytest.approx(codes.cpf_rate(r["q"], None if r["n"] == "inf" else r["n"]), abs=1e-6)


def test_rates_machine_output(tmp_path, capsys):
    out_path = tmp_path / "rates.json"
    code, _, _ = run_cli(capsys, "rates", "--q", "2", "--n", "4,inf", "--out", str(out_path))
    assert code == 0
    rows = json.load(open(out_path))
    assert rows[0] == {"q": 2, "n": 4, "rate": pytest.approx(0.896241, abs=1e-5)}
    assert rows[1]["n"] == "inf"


@pytest.mark.parametrize(
    "args,expected",
    [
        (("--code", "c1", "--n", "8", "--l", "1", "--q", "2", "--trials", "60"), "60/60"),
        (("--code", "c2", "--n", "9", "--q", "2", "--trials", "60"), "60/60"),
        (("--code", "cpf", "--n", "8", "--q", "3", "--trials", "60"), "60/60"),
    ],
)
def test_simulate(capsys, args, expected):
    code, out, _ = run_cli(capsys, "simulate", *args, "--seed", "7")
    assert code == 0
    assert expected in out


def test_simulate_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "simulate", "--code", "c2", "--n", "8", "--q", "2", "--trials", "40", "--seed", "3",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n,seed", [(2, 4), (3, 0), (5, 1), (7, 9), (12, 9), (16, 2), (19, 9)])
def test_simulate_c2_equals_the_word_space_scan_route(monkeypatch, tmp_path, capsys, n, seed):
    """The c2 codebook grown from prefixes (`docs/decisions.md` D14) holds the
    rows of the scan over all 2^n words in the same order, so simulate draws
    the same codewords: the same exit code, stdout, stderr and JSON bytes."""

    def scan(code, limit):
        rows, keys = codes._c2_keys(code.n, limit)
        return rows[keys == code.a * (2 * code.n + 1) + code.b]

    results = []
    for route in ("grown", "scan"):
        if route == "scan":
            monkeypatch.setattr(codes.PalindromicL2Code, "codebook_rows", scan)
        path = tmp_path / f"{route}.json"
        argv = ("simulate", "--code", "c2", "--n", str(n), "--trials", "150", "--seed", str(seed), "--out", str(path))
        results.append((run_cli(capsys, *argv), path.read_bytes()))
    assert results[0] == results[1]
    assert results[0][0][0] == 0


def cycles_left_by(call, *args) -> int:
    """The unreachable cyclic objects that call(*args) leaves to the collector,
    which the caller has switched off. An argparse exit is swallowed."""
    gc.collect()
    try:
        call(*args)
    except SystemExit:
        pass
    return gc.collect()


@pytest.fixture
def collector_off(capsys):
    """The collector off, and the parser built by one warm-up call first."""
    gc.disable()
    try:
        main(["rates", "--q", "2", "--n", "4"])
        capsys.readouterr()
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "argv",
    [
        ("sphere", "--word", "11110220", "--q", "3", "--kind", "pal-dup", "--l", "2"),
        ("verify", "--code", "c2", "--n", "6"),
        ("rates", "--q", "2,3", "--n", "4,inf"),
        ("simulate", "--code", "cpf", "--n", "5", "--q", "3", "--trials", "40"),
        ("bound", "--n", "2..8", "--l", "2"),
        ("bound", "--n", "x"),
        ("verify", "--code", "c1", "--n", "25"),
        ("bound", "--n", "2..8", "--l", "2", "--out", "{tmp}/bound.csv"),
    ],
    ids=["sphere", "verify", "rates", "simulate", "bound", "error", "refused", "bound-csv-out"],
)
def test_a_call_leaves_no_reference_cycles(collector_off, tmp_path, capsys, argv):
    """A call reuses the process's one parser and leaves no reference cycles
    (a rebuilt argparse tree leaves 313). A JSON --out is not covered: the
    stdlib's pure-Python indent=2 encoder leaves 33 cyclic objects per
    write, and the JSON bytes stay as they are."""
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cycles_left_by(main, argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [("bound", "--n", "3", "--bogus"), ("verify", "--code", "c9", "--n", "3")],
    ids=["unrecognized", "bad-choice"],
)
def test_an_argparse_refusal_leaves_only_the_usage_formatter(collector_off, capsys, argv):
    """argparse's HelpFormatter and its root section refer to each other, so
    every usage message argparse prints leaves that cycle behind; a refusal
    leaves no more than a bare parser's usage message does."""
    usage = cycles_left_by(argparse.ArgumentParser(prog="p").format_usage)
    assert cycles_left_by(main, list(argv)) == usage
    assert capsys.readouterr().err.startswith("usage: dupcodes")


def test_the_parser_carries_no_state_between_calls(tmp_path, capsys):
    """A mixed run of refusals and --out tables, twice in one process, gives
    the same exit codes, streams and files each time; two of the commands
    also match a fresh `python -m dupcodes`."""
    sequence = [
        ("verify", "--code", "c9", "--n", "3"),
        ("bound", "--n", "x"),
        ("verify", "--code", "c1", "--n", "0"),
        ("bound", "--n", "2..9", "--l", "2", "--q", "3", "--out", str(tmp_path / "bound.json")),
        ("simulate", "--code", "c2", "--n", "7", "--trials", "60", "--seed", "3", "--out", str(tmp_path / "sim.json")),
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        written = None
        if "--out" in argv:
            written = Path(argv[-1]).read_bytes()
            Path(argv[-1]).unlink()  # a second pass that wrote nothing must not pass
        return code, out.out, out.err, written

    passes = [[run(argv) for argv in sequence] for _ in range(2)]
    assert passes[0] == passes[1]
    assert [result[0] for result in passes[0]] == [2, 2, 2, 0, 0]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for i in (0, 4):
        done = subprocess.run(
            [sys.executable, "-m", "dupcodes", *sequence[i]], capture_output=True, text=True, env=env, timeout=120
        )
        written = Path(sequence[i][-1]).read_bytes() if "--out" in sequence[i] else None
        assert (done.returncode, done.stdout, done.stderr, written) == passes[0][i]


def word_loop_simulate(code, trials, seed, decode):
    """simulate's trials on the Word route, as the CLI ran them before its
    row route: one codeword, kind and error at a time through
    `sample_single_error`, and one `decode(y)` call per trial. Returns
    (successes, the counterexample line or "", the first failed trial or
    None)."""
    book = code.codebook_rows()
    rng = random.Random(seed)
    kinds = code.kinds
    successes, failure, first = 0, "", None
    for trial in range(trials):
        c = Word(tuple(book[rng.randrange(len(book))].tolist()), code.q)
        kind = kinds[0] if len(kinds) == 1 else kinds[rng.randrange(len(kinds))]
        y, p = sample_single_error(c, kind, rng)
        try:
            got = decode(y)
        except codes.DecodingFailure:
            got = None
        if got == c:
            successes += 1
        elif not failure:
            failure = f"counterexample: codeword {format_word(c)} kind {kind} p={p} -> {format_word(y)} decoded {got}\n"
            first = trial
    return successes, failure, first


SIMULATED = [
    (codes.TandemVTCode.best(8, 2, 2), ("--code", "c1", "--n", "8", "--l", "2", "--q", "2"), "c1_decode"),
    (codes.PalindromicL2Code.best(9, 2, 1), ("--code", "c2", "--n", "9", "--q", "2"), "c2_decode"),
    (codes.PalindromeFreeCode(6, 3), ("--code", "cpf", "--n", "6", "--q", "3"), "cpf_decode_rows"),
]


def word_decoder_on_rows(decode, q):
    """A row decoder double(rows, n) that runs the Word decoder `decode` on
    each row over Z_q."""
    return lambda rows, n: np.array([decode(Word(tuple(row), q)).symbols for row in rows.tolist()], dtype=np.int8).reshape(-1, n)


def assert_simulate_matches_the_word_loop(capsys, tmp_path, code, args, trials, seed, decode):
    """stdout, stderr, exit status and the --out text of one simulate run
    against `word_loop_simulate`; returns (successes, first failed trial)."""
    out_path = tmp_path / "simulate.json"
    status, out, err = run_cli(capsys, "simulate", *args, "--trials", str(trials), "--seed", str(seed), "--out", str(out_path))
    successes, failure, first = word_loop_simulate(code, trials, seed, decode)
    flags = dict(zip(args[::2], args[1::2]))
    row = {"code": flags["--code"], "n": code.n, "q": code.q, "l": int(flags.get("--l", 1)), "trials": trials,
           "successes": successes, "seed": seed}
    assert (status, out, err) == (int(successes < trials), f"{successes}/{trials} decoded correctly (seed {seed})\n", failure)
    assert out_path.read_text() == json.dumps([row], indent=2, sort_keys=True) + "\n"
    return successes, first


@pytest.mark.parametrize("trials", [0, 1, codes._DECODE_ROWS, codes._DECODE_ROWS + 1, "a-batch-per-kind-and-one"])
@pytest.mark.parametrize("code,args,decoder", SIMULATED, ids=["c1", "c2", "cpf"])
def test_simulate_rows_match_the_word_loop(capsys, tmp_path, code, args, decoder, trials):
    """The row route draws the same codeword, kind and position for every
    trial, decodes each kind's trials _DECODE_ROWS at a time, and reports
    byte for byte what the Word loop reports, for seeds 0..9. With
    len(kinds) * _DECODE_ROWS + 1 trials (1,281 for cpf), some kind draws
    more than a batch, so it is decoded in the middle of the run and its
    remainder at the end (seeds 0..2)."""
    decode = (lambda y: cpf_decode_scalar(y, code.n)) if decoder == "cpf_decode_rows" else code.decode
    seeds = range(10)
    if trials == "a-batch-per-kind-and-one":
        trials, seeds = len(code.kinds) * codes._DECODE_ROWS + 1, range(3)
    for seed in seeds:
        assert assert_simulate_matches_the_word_loop(capsys, tmp_path, code, args, trials, seed, decode) == (trials, None)


@pytest.mark.parametrize("wrong_on", ["one-late-word", "a-seventh"])
@pytest.mark.parametrize("code,args,decoder", SIMULATED, ids=["c1", "c2", "cpf"])
def test_simulate_reports_the_first_failed_trial_of_the_word_loop(monkeypatch, capsys, tmp_path, code, args, decoder, wrong_on):
    """A decoder that is wrong on some received words: the same successes
    and the same counterexample line (codeword, kind, position, received
    word and wrong decoded word) as the Word loop. Wrong on one word, the
    one of seed 0's trial 2 * _DECODE_ROWS, some seed's first failure falls
    in a later block; wrong on about a seventh of the words, every run
    fails many trials, which tell the first failure of a block from the
    others."""
    correct = (lambda y: cpf_decode_scalar(y, code.n)) if decoder == "cpf_decode_rows" else code.decode
    seen = []
    word_loop_simulate(code, 2 * codes._DECODE_ROWS + 1, 0, lambda y: seen.append(y) or correct(y))
    target = seen[-1].symbols

    def wrong_here(symbols):
        if wrong_on == "one-late-word":
            return symbols == target
        return sum(s * 3**i for i, s in enumerate(symbols)) % 7 == 3

    def decode(y):
        return wrong_word(y, code) if wrong_here(y.symbols) else correct(y)

    if decoder == "cpf_decode_rows":
        patch_decoder(monkeypatch, decoder, word_decoder_on_rows(decode, code.q))
    else:
        original = getattr(codes, decoder)
        patch_decoder(monkeypatch, decoder, lambda y, c: wrong_word(y, c) if wrong_here(y.symbols) else original(y, c))
    trials = 3 * codes._DECODE_ROWS
    runs = [assert_simulate_matches_the_word_loop(capsys, tmp_path, code, args, trials, seed, decode) for seed in range(10)]
    if wrong_on == "one-late-word":
        assert any(first is not None and first >= codes._DECODE_ROWS for _, first in runs), runs
    else:
        assert all(successes < trials - 10 for successes, _ in runs), runs


def decode_ranks(kind_of):
    """The rank of the `decode_rows` call that decodes each trial, given each
    trial's kind index: simulate decodes a kind's trials when _DECODE_ROWS of
    them are pending, then each kind's remainder in kind order."""
    rank, pending, calls = [None] * len(kind_of), {}, 0
    for t, k in enumerate(kind_of):
        pending.setdefault(k, []).append(t)
        if len(pending[k]) == codes._DECODE_ROWS:
            for u in pending.pop(k):
                rank[u] = calls
            calls += 1
    for k in sorted(pending):
        for u in pending[k]:
            rank[u] = calls
        calls += 1
    return rank


def test_simulate_reports_a_first_failure_that_is_decoded_after_a_later_one(monkeypatch, capsys, tmp_path):
    """Batches of one kind finish out of trial order. A cpf decoder that is
    wrong on two received words of seed 0: that of the last trial of the
    first batch decoded (a full batch, in the middle of the run), and that
    of an earlier trial of another kind, decoded later. The report still
    names the earliest failed trial, as the Word loop does."""
    code, args, _ = SIMULATED[2]
    ells = [kind.ell for kind in code.kinds]
    trials = len(ells) * codes._DECODE_ROWS + 1
    seen = []
    word_loop_simulate(code, trials, 0, lambda y: seen.append(y) or cpf_decode_scalar(y, code.n))
    rank = decode_ranks([ells.index(len(y) - code.n) for y in seen])
    late = max(t for t in range(trials) if rank[t] == 0)
    early = next(t for t in range(late) if rank[t] > 0)
    wrong = {seen[early].symbols, seen[late].symbols}
    failed = [t for t, y in enumerate(seen) if y.symbols in wrong]
    assert rank.count(0) == codes._DECODE_ROWS and late < trials - 1
    assert any(t > failed[0] and rank[t] < rank[failed[0]] for t in failed), (failed, rank)

    def decode(y):
        return wrong_word(y, code) if y.symbols in wrong else cpf_decode_scalar(y, code.n)

    patch_decoder(monkeypatch, "cpf_decode_rows", word_decoder_on_rows(decode, code.q))
    result = assert_simulate_matches_the_word_loop(capsys, tmp_path, code, args, trials, 0, decode)
    assert result == (trials - len(failed), failed[0])


@pytest.mark.parametrize("code,args,decoder", SIMULATED, ids=["c1", "c2", "cpf"])
def test_simulate_decodes_each_kind_in_full_batches(monkeypatch, capsys, code, args, decoder):
    """simulate calls `decode_rows` at most ceil(t_k / _DECODE_ROWS) times for
    a kind k that drew t_k trials, each call on at most _DECODE_ROWS rows of
    one kind, so c1 and c2 (one kind) make ceil(trials / _DECODE_ROWS)
    calls. Splitting blocks of trials over the kinds passes the byte-identity
    tests but fails here."""
    cls, calls = type(code), []
    original = cls.decode_rows
    monkeypatch.setattr(cls, "decode_rows", lambda self, rows: calls.append(rows.shape) or original(self, rows))
    trials = 3 * len(code.kinds) * codes._DECODE_ROWS + 1
    status, out, _ = run_cli(capsys, "simulate", *args, "--trials", str(trials), "--seed", "1")
    assert status == 0 and out == f"{trials}/{trials} decoded correctly (seed 1)\n"
    drawn = {}
    for rows, width in calls:
        assert 0 < rows <= codes._DECODE_ROWS
        drawn.setdefault(width - code.n, []).append(rows)
    assert len(drawn) == len(code.kinds) and sum(map(sum, drawn.values())) == trials
    for sizes in drawn.values():
        assert len(sizes) <= -(-sum(sizes) // codes._DECODE_ROWS), drawn
    if len(code.kinds) == 1:
        assert len(calls) == -(-trials // codes._DECODE_ROWS)


def test_a_decoded_word_of_the_wrong_length_shows_as_none(monkeypatch, capsys):
    """Announced: a Word decoder that returns a word of another length fails
    the trial, and the counterexample line says `decoded None`, as for a
    decoder that raises."""
    monkeypatch.setattr(codes, "c2_decode", lambda y, code: Word((0,) * (code.n + 1), 2))
    status, out, err = run_cli(capsys, "simulate", "--code", "c2", "--n", "9", "--trials", "5", "--seed", "1")
    assert status == 1 and out == "0/5 decoded correctly (seed 1)\n"
    assert err.startswith("counterexample: codeword ") and err.endswith(" decoded None\n")


def test_a_decoded_word_over_another_alphabet_fails_verify_and_simulate(monkeypatch, capsys):
    """A Word decoder that returns the right symbols over Z_{q+1} fails each
    round trip: verify reports broken correction, and simulate loses every
    trial with a `decoded None` counterexample, as for a decoder that
    raises."""
    for name in ("c1_decode", "c2_decode"):
        right = getattr(codes, name)
        monkeypatch.setattr(codes, name, lambda y, code, right=right: Word(right(y, code).symbols, code.q + 1))
    status, out, _ = run_cli(capsys, "verify", "--code", "c1", "--n", "6", "--l", "2", "--q", "2")
    lines = out.splitlines()
    assert status == 1 and lines[-1] == "FAIL"
    assert any(line.startswith("FAIL ") and "broken" in line for line in lines)
    status, out, err = run_cli(capsys, "simulate", "--code", "c2", "--n", "9", "--trials", "5", "--seed", "1")
    assert status == 1 and out == "0/5 decoded correctly (seed 1)\n"
    assert err.startswith("counterexample: codeword ") and err.endswith(" decoded None\n")

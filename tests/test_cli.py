import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dupcodes import codes
from dupcodes.channel import error_ball, tandem_dup
from dupcodes.cli import main
from dupcodes.words import Word, parse_word
from dupcodes.wordspace import all_words


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_bound_rows_and_csv(tmp_path, capsys):
    out_path = tmp_path / "bounds.csv"
    code, out, _ = run_cli(
        capsys, "bound", "--n", "2..10", "--l", "2", "--q", "2", "--out", str(out_path)
    )
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert rows[0]["n"] == "2"
    assert "." in rows[-1]["redundancy_lb_bits"]  # plain decimal point formatting


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
        (("--code", "cpf", "--n", "6", "--q", "2"), "cpf_decode"),
    ],
)
def test_verify_counts_decoding_failure_as_broken(monkeypatch, capsys, args, decoder):
    def fail(*_):
        raise codes.DecodingFailure("decoding failure: injected")

    def oracle_rejects_every_row(book_keys, order, group, received, *_):
        return np.zeros(len(received), dtype=bool), {}

    monkeypatch.setattr(codes, decoder, oracle_rejects_every_row if decoder == "oracle_verdicts" else fail)
    code, out, _ = run_cli(capsys, "verify", *args)
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "FAIL"
    assert any(line.startswith("FAIL ") and "broken" in line for line in lines)


@pytest.mark.parametrize(
    "args,decoder,report",
    [
        (("--code", "c2", "--n", "6", "--q", "2"), "c2_decode", "FAIL {groups} parameter pairs with broken correction"),
        (("--code", "cpf", "--n", "6", "--q", "2"), "cpf_decode", "FAIL 5 duplication lengths with broken correction"),
    ],
    ids=["c2", "cpf"],
)
def test_verify_failure_counts_parameter_pairs_and_lengths(monkeypatch, capsys, args, decoder, report):
    """A decoder that fails everywhere breaks every (a, b) group that exists
    at n=6, and each duplication length 2..6 of cpf, once."""

    def fail(*_):
        raise codes.DecodingFailure("decoding failure: injected")

    groups = len(codes.c2_groups(6)[0])
    monkeypatch.setattr(codes, decoder, fail)
    code, out, _ = run_cli(capsys, "verify", *args)
    assert code == 1
    assert report.format(groups=groups) in out.splitlines()


def test_verify_names_a_clashing_pair_and_their_shared_word(monkeypatch, capsys):
    """With every word of length 6 as the codebook, the balls clash; the FAIL
    line names two codewords and a word that both balls hold."""
    monkeypatch.setattr(codes, "c1_codebook_rows", lambda code, limit: all_words(code.n, code.q, limit))
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
    monkeypatch.setattr(codes, "cpf_codebook_rows", lambda n, q, limit: np.zeros((0, n), dtype=np.int8))
    code, out, err = run_cli(capsys, "verify", "--code", "cpf", "--n", "40", "--q", "2", "--force")
    assert code == 2
    assert out == ""
    assert err.startswith("refused: ") and "int64" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "args,decoder",
    [
        (("--code", "c1", "--n", "8", "--l", "1", "--q", "2"), "c1_decode"),
        (("--code", "c2", "--n", "9", "--q", "2"), "c2_decode"),
        (("--code", "cpf", "--n", "8", "--q", "3"), "cpf_decode"),
    ],
    ids=["c1", "c2", "cpf"],
)
def test_simulate_counts_decoding_failure_as_a_failed_trial(monkeypatch, capsys, args, decoder):
    """simulate reaches each decoder through its module-level name: a decoder
    that always fails loses every trial that had an error to correct."""

    def fail(*_):
        raise codes.DecodingFailure("decoding failure: injected")

    monkeypatch.setattr(codes, decoder, fail)
    code, out, err = run_cli(capsys, "simulate", *args, "--trials", "30", "--seed", "7")
    assert code == 1
    successes, trials = out.split()[0].split("/")
    assert int(trials) == 30 and int(successes) < 30
    assert err.startswith("counterexample: ")


def wrong_word(y, code):
    """The benchmark self-test's wrong decoder: a constant word of the code's
    length that never equals the codeword, whose first symbol every error
    keeps. cpf_decode takes the code length itself."""
    n = code if isinstance(code, int) else code.n
    return Word((0,) * n, y.q) if y.symbols[0] else Word((1,) * n, y.q)


@pytest.mark.parametrize(
    "decoder,args",
    [
        ("c1_decode", ("--code", "c1", "--n", "6", "--l", "2", "--q", "2")),
        ("c2_decode", ("--code", "c2", "--n", "8", "--q", "2")),
        ("cpf_decode", ("--code", "cpf", "--n", "6", "--q", "3")),
    ],
    ids=["c1", "c2", "cpf"],
)
def test_a_wrong_word_from_any_decoder_fails_verify_and_simulate(monkeypatch, capsys, decoder, args):
    """verify and simulate reach every decoder through its module-level name,
    with one Word per call: a decoder that returns a wrong Word breaks the
    verify report and loses simulate trials."""
    calls = []

    def recorded(y, code):
        assert isinstance(y, Word)
        calls.append(y)
        return wrong_word(y, code)

    monkeypatch.setattr(codes, decoder, recorded)
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

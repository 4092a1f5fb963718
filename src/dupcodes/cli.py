"""Command-line front end: sphere, bound, verify, rates, simulate.

Human-readable reports go to stdout; --out writes machine output (JSON or
CSV per --format, default inferred from the file extension). Floats are
emitted with 6 significant digits and '.' decimals, rationals as "p/q", so
identical flags and seed give byte-identical machine output. verify reads
all q^n words and simulate enumerates its codebook from them, except the c2
codebook, which it grows from prefixes; both refuse q^n above 2^20 words
unless --force. bound counts and reads no word space.

`main` may be called any number of times in one process: it parses with
one parser, built on the first call.
"""

import argparse
import csv
import errno
import functools
import json
import math
import os
import random
import sys

import numpy as np

from . import bounds, channel, codes, formulas
from .channel import ErrorKind
from .words import Word, _word_of_row, format_word, parse_word
from .wordspace import MAX_ENUMERABLE, require_enumerable

_DNA = {"A": 0, "C": 1, "G": 2, "T": 3}


class Refused(Exception):
    """An input that the library refuses after the CLI has accepted the
    flags: one `refused:` line. A flag that the CLI refuses itself raises
    ValueError: one `error:` line."""


def _parse_word_arg(text: str, q: int) -> Word:
    if q == 4 and text and all(ch.upper() in _DNA for ch in text):
        return Word(tuple(_DNA[ch.upper()] for ch in text), 4)
    return parse_word(text, q)


def _f6(x: float) -> float:
    return float(f"{x:.6g}")


def _fraction_str(fr) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _int_token(flag: str, token: str) -> int:
    """int(token), refused with a message that names the flag and the token."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{flag}: not an integer: {token!r}") from None


def _parse_n_values(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            ends = part.split("..")
            if len(ends) != 2:
                raise ValueError(f"--n: not a range lo..hi: {part!r}")
            lo, hi = (_int_token("--n", end) for end in ends)
            out.extend(range(lo, hi + 1))
        else:
            out.append(_int_token("--n", part))
    return out


def _limit(args) -> int:
    return sys.maxsize if args.force else MAX_ENUMERABLE


def _write_machine(path: str, fmt: str | None, rows: list[dict]):
    if fmt is None:
        fmt = "csv" if path.endswith(".csv") else "json"
    if fmt == "json":
        with open(path, "w") as fh:  # one write: json.dump streams many small ones
            fh.write(json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n")
    else:
        # a CSV cell is flat: a dict (bound's histogram) or a list (verify's
        # report, sphere's members) is written as its JSON text
        flat = [{k: (json.dumps(v) if isinstance(v, (dict, list)) else v) for k, v in row.items()} for row in rows]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(flat[0].keys()))
            writer.writeheader()
            writer.writerows(flat)


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------


def _sphere_formula(x: Word, kind: ErrorKind, t: int):
    """Closed-form size for the sphere when one exists, else None."""
    if len(x) == 0 or kind.is_tandem and len(x) < kind.ell:
        return None  # the step derivative needs ell symbols, a run profile one
    if kind.family == channel.TANDEM_DUP:
        return formulas.tandem_dup_sphere_size(x, kind.ell, t)
    if kind.family == channel.TANDEM_DEL:
        return formulas.tandem_del_sphere_size(x, kind.ell, t)
    if t != 1:
        return None
    if kind.family == channel.PAL_DUP:
        if kind.ell == 1:
            return formulas.pal_dup_sphere_size_l1(x)
        if kind.ell == 2 and len(x) >= 2:
            return formulas.pal_dup_sphere_size_l2(x)
        return None
    if kind.ell == 1:
        return formulas.pal_del_sphere_size_l1(x)
    if kind.ell == 2 and x.q == 2:
        return formulas.pal_del_sphere_size_l2_binary(x)
    return None


def _sphere_bound(x: Word, kind: ErrorKind, t: int):
    if t != 1:
        return None
    if kind.family == channel.PAL_DUP and len(x) >= kind.ell:
        return formulas.pal_dup_sphere_upper_bound(x, kind.ell)
    if kind.family == channel.PAL_DEL:
        return formulas.pal_del_sphere_upper_bound(x, kind.ell)
    return None


def cmd_sphere(args) -> tuple[int, list[dict]]:
    x = _parse_word_arg(args.word, args.q)
    kind = ErrorKind(args.kind, args.l)
    sphere = channel.error_sphere(x, kind, args.t)
    members = sorted(sphere, key=lambda w: w.symbols)
    formula = _sphere_formula(x, kind, args.t)
    bound = _sphere_bound(x, kind, args.t)
    print(f"word {format_word(x)} (q={x.q})  kind {kind}  t={args.t}")
    print(f"enumerated size: {len(members)}")
    print(f"formula size:    {formula if formula is not None else 'n/a'}")
    print(f"upper bound:     {bound if bound is not None else 'n/a'}")
    if members:
        for w in members:
            print(f"  {format_word(w)}")
    else:
        print("  (empty sphere)")
    rows = [
        {
            "word": format_word(x),
            "q": x.q,
            "kind": kind.family,
            "l": kind.ell,
            "t": args.t,
            "size": len(members),
            "formula": formula,
            "bound": bound,
            "members": [format_word(w) for w in members],
        }
    ]
    if formula is not None and formula != len(members):
        print("FORMULA MISMATCH", file=sys.stderr)
        return 1, rows
    if bound is not None and bound < len(members):
        print("BOUND VIOLATION", file=sys.stderr)
        return 1, rows
    return 0, rows


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(args) -> tuple[int, list[dict]]:
    n_values = _parse_n_values(args.n)
    if not n_values:
        raise ValueError(f"no lengths in --n {args.n}")
    if args.l < 1:
        raise ValueError(f"block length must be >= 1, got l={args.l}")
    short = [n for n in n_values if n < args.l]
    if short:
        raise ValueError(f"--n lengths below --l {args.l}: {', '.join(map(str, short))}")
    try:
        table = bounds.redundancy_table(n_values, args.l, args.q)
    except ValueError as exc:
        raise Refused(exc) from None
    print(f"{'n':>4} {'bound':>14} {'gsp_lb':>10} {'c1_red':>10} {'c2_red':>10} {'burst':>10}")
    rows = []
    for report in table:
        c1, c2, burst = report.c1_redundancy, report.c2_redundancy, report.burst_redundancy
        print(
            f"{report.n:>4} {_fraction_str(report.bound):>14} {report.redundancy_lb_bits:>10.6g} "
            f"{c1:>10.6g} {c2:>10.6g} {burst:>10.6g}"
        )
        rows.append(
            {
                "n": report.n,
                "l": report.ell,
                "q": report.q,
                "t": report.t,
                "bound_numerator": report.bound.numerator,
                "bound_denominator": report.bound.denominator,
                "redundancy_lb_bits": _f6(report.redundancy_lb_bits),
                "redundancy_lb_bits_raw": _f6(report.redundancy_lb_bits_raw),
                "histogram": {str(k): v for k, v in sorted(report.histogram.items())},
                "bound": _fraction_str(report.bound),
                "c1_redundancy_bits": _f6(c1),
                "c2_redundancy_bits": _f6(c2),
                # undefined below n = 2: nan on stdout, null in JSON, an empty CSV cell
                "burst_redundancy_bits": None if math.isnan(burst) else _f6(burst),
            }
        )
    return 0, rows


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _claim(holds: bool, ok_text: str, fail_text: str) -> str:
    return f"ok   {ok_text}" if holds else f"FAIL {fail_text}"


def _verify_c1(code: codes.TandemVTCode, limit: int) -> list[str]:
    book = code.codebook_rows(limit)
    lb = codes.c1_size_lower_bound(code.n, code.ell, code.q)
    [(_, clashes, broken)] = codes.check_correction([code], book)
    clash = "balls intersect: {} / {} share {}".format(*clashes[0]) if clashes else ""
    broken = int(broken.sum())
    return [
        f"c1 n={code.n} l={code.ell} q={code.q}: best residues {code.a}, cardinality {len(book)}",
        _claim(
            len(book) >= lb,
            f"cardinality >= guarantee {_fraction_str(lb)}",
            f"cardinality {len(book)} below guarantee {_fraction_str(lb)}",
        ),
        _claim(not clashes, "all codeword balls disjoint", clash),
        _claim(not broken, "syndrome decoder = oracle on every (codeword, error)", f"{broken} decode round-trips broken"),
    ]


def _verify_c2(code: codes.PalindromicL2Code, limit: int) -> list[str]:
    """Every (a, b) code of length n, not only the best one."""
    n = code.n
    group_codes, book, group = codes.c2_groups(n, limit)
    best = int(np.bincount(group).max())
    need = math.ceil(codes.c2_size_lower_bound(n))
    [(_, clashes, broken)] = codes.check_correction(group_codes, book, group)
    bad = len(clashes.keys() | set(np.flatnonzero(broken).tolist()))
    return [
        f"c2 n={n}: {5 * (2 * n + 1)} parameter pairs, best cardinality {best}",
        _claim(best >= need, f"best cardinality >= {need}", f"best cardinality {best} below guarantee {need}"),
        _claim(not bad, "every (a, b) corrects every single palindromic duplication", f"{bad} parameter pairs with broken correction"),
    ]


def _verify_cpf(code: codes.PalindromeFreeCode, limit: int) -> list[str]:
    n, q = code.n, code.q
    book = code.codebook_rows(limit)
    count = codes.cpf_count_recursive(n, q)
    bad = sum(1 for _, clashes, broken in codes.check_correction([code], book) if clashes or broken.any())
    lines = [
        f"cpf n={n} q={q}: count {count}",
        _claim(len(book) == count, "recursion matches enumeration", f"recursion {count} != enumeration {len(book)}"),
        _claim(
            not bad,
            f"decoder corrects every duplication of every length 2..{n}",
            f"{bad} duplication lengths with broken correction",
        ),
    ]
    if n >= 3:  # the closed form starts at n = 3
        closed = codes.cpf_count_closed(n, q)
        lines.insert(2, _claim(abs(closed - count) <= 1e-6 * count, "closed form matches", f"closed form {closed} != {count}"))
    return lines


# --code -> (construction class, its verify report: count claims and wording)
CONSTRUCTIONS = {
    "c1": (codes.TandemVTCode, _verify_c1),
    "c2": (codes.PalindromicL2Code, _verify_c2),
    "cpf": (codes.PalindromeFreeCode, _verify_cpf),
}


def _best_code(args):
    """The best code of --code for the flags. Raises ValueError when --n is
    below 1, the --l that c1 reads is below 1 or above --n, or no
    duplication the code corrects fits in a word of length n; Refused when
    the q^n words that the codebook is enumerated from are more than the
    guard allows or the construction refuses the flags. The guard comes
    before `best`, so a huge --n is refused before any parameter table is
    counted."""
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.code == "c1" and args.l < 1:  # c2 and cpf do not read --l
        raise ValueError(f"block length must be >= 1, got l={args.l}")
    if args.code == "c1" and args.n < args.l:
        raise ValueError(f"--n {args.n} below --l {args.l}")
    try:
        require_enumerable(args.n, args.q, _limit(args))
        code = CONSTRUCTIONS[args.code][0].best(args.n, args.q, args.l)
    except ValueError as exc:
        raise Refused(exc) from None
    if not any(kind.ell <= args.n for kind in code.kinds):
        raise ValueError(f"no error that {args.code} corrects fits in length n={args.n}")
    return code


def cmd_verify(args) -> tuple[int, list[dict]]:
    code = _best_code(args)
    try:
        lines = CONSTRUCTIONS[args.code][1](code, _limit(args))
    except ValueError as exc:
        raise Refused(exc) from None
    ok = not any(line.startswith("FAIL") for line in lines)
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1, [{"passed": ok, "report": lines}]


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def cmd_rates(args) -> tuple[int, list[dict]]:
    q_list = [_int_token("--q", tok) for tok in args.q_list.split(",")]
    n_tokens = [tok.strip() for tok in args.n_list.split(",")]
    n_list = [None if tok in ("inf", "oo") else _int_token("--n", tok) for tok in n_tokens]
    rates = [[codes.cpf_rate(q, n) for n in n_list] for q in q_list]
    header = "q\\n " + " ".join(f"{tok:>7}" for tok in n_tokens)
    print(header)
    for q, row in zip(q_list, rates):
        print(f"{q:<4} " + " ".join(f"{rate:>7.3f}" for rate in row))
    return 0, [
        {"q": q, "n": "inf" if n is None else n, "rate": _f6(rate)}
        for q, row in zip(q_list, rates)
        for n, rate in zip(n_list, row)
    ]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> tuple[int, list[dict]]:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    rng = random.Random(args.seed)
    code = _best_code(args)
    try:
        book = code.codebook_rows(_limit(args))
    except ValueError as exc:
        raise Refused(exc) from None
    if not len(book):
        raise ValueError("empty codebook")
    kinds = code.kinds
    tables = [channel.duplication_columns(code.n, kind) for kind in kinds]

    def batches():
        """(k, [(trial, codeword, position), ...]): the trials of kind k in
        trial order, _DECODE_ROWS at a time, then each kind's remainder."""
        pending = [[] for _ in kinds]
        for trial in range(args.trials):  # drawn as the Word loop drew: codeword, kind (when several), position
            i = rng.randrange(len(book))
            k = rng.randrange(len(kinds)) if len(kinds) > 1 else 0
            pending[k].append((trial, i, rng.randrange(len(tables[k]))))
            if len(pending[k]) == codes._DECODE_ROWS:
                yield k, pending[k]
                pending[k] = []
        yield from ((k, batch) for k, batch in enumerate(pending) if batch)

    successes, first = 0, None  # first: (trial, counterexample) of the earliest failed trial
    for k, batch in batches():
        trial, index, position = np.array(batch).T
        sent, received = book[index], book[index[:, None], tables[k][position]]
        decoded = code.decode_rows(received)
        ok = (decoded == sent).all(axis=1)
        successes += int(ok.sum())
        t = int(np.argmin(ok))  # a batch is in trial order: its earliest failure
        if not ok[t] and (first is None or trial[t] < first[0]):
            c, y, got = (format_word(_word_of_row(row, code.q)) for row in (sent[t], received[t], decoded[t]))
            first = trial[t], f"counterexample: codeword {c} kind {kinds[k]} p={position[t]} -> {y} decoded {None if -1 in decoded[t] else got}"
    print(f"{successes}/{args.trials} decoded correctly (seed {args.seed})")
    if first:
        print(first[1], file=sys.stderr)
    row = {
        "code": args.code,
        "n": args.n,
        "q": args.q,
        "l": args.l,
        "trials": args.trials,
        "successes": successes,
        "seed": args.seed,
    }
    return 0 if successes == args.trials else 1, [row]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built on the first call and shared by every
    later one. Parsing keeps no state on it: each `parse_args` returns a
    fresh namespace. Built lazily, not at import (`docs/decisions.md` D15)."""
    parser = argparse.ArgumentParser(
        prog="dupcodes",
        description="Duplication-correcting codes: spheres, bounds, constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write machine output to this path")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    def guarded(p):
        """The subcommands that build codebooks of length-n words, under the
        q^n guard even where the codebook is grown from prefixes."""
        common(p)
        p.add_argument("--force", action="store_true", help="override the q^n enumeration guard")

    p = sub.add_parser("sphere", help="enumerate an error sphere and compare with the closed forms")
    p.add_argument("--word", required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--kind", required=True, choices=(channel.TANDEM_DUP, channel.TANDEM_DEL, channel.PAL_DUP, channel.PAL_DEL))
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("bound", help="tabulate the sphere-packing bound and redundancy columns")
    p.add_argument("--n", required=True, help="length or range, e.g. 8 or 2..10 or 4,6,8")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="exhaustively verify a construction")
    p.add_argument("--code", required=True, choices=tuple(CONSTRUCTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    guarded(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rates", help="palindrome-free code rate table")
    p.add_argument("--q", dest="q_list", required=True, help="comma list, e.g. 2,3,4,5")
    p.add_argument("--n", dest="n_list", required=True, help="comma list; 'inf' for the asymptotic column")
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("simulate", help="random single-error transmission round trips")
    p.add_argument("--code", required=True, choices=tuple(CONSTRUCTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    guarded(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    return parser


def _out_refusal(path: str):
    """Raises ValueError when the directory of --out is missing or is not a
    directory. Checked before any work starts."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        reason = os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
        raise ValueError(f"cannot write --out {path}: {reason}")


def main(argv=None) -> int:
    """Run one subcommand. Each cmd_* prints its report and returns (status,
    machine rows); --out is written only when it ran, with status 0 (all
    checks passed) or 1 (a check or trial failed). Every refusal ends here
    as one stderr line and status 2, and so does running out of memory
    where --force lifts the guard."""
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _out_refusal(args.out)
        status, rows = args.func(args)
        if args.out:
            _write_machine(args.out, args.format, rows)
        return status
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"refused: out of memory: {exc}", file=sys.stderr)
    except OSError as exc:
        if args.out is None or exc.filename != args.out:
            raise
        print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

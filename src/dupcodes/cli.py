"""Command-line front end: sphere, bound, verify, rates, simulate.

Human-readable reports go to stdout; --out writes machine output (JSON or
CSV per --format, default inferred from the file extension). Floats are
emitted with 6 significant digits and '.' decimals, rationals as "p/q", so
identical flags and seed give byte-identical machine output. verify and
simulate enumerate a codebook from all q^n words, so they refuse q^n above
2^20 words unless --force; bound counts and reads no word space.
"""

import argparse
import csv
import errno
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


def _parse_word_arg(text: str, q: int) -> Word:
    if q == 4 and text and all(ch.upper() in _DNA for ch in text):
        return Word(tuple(_DNA[ch.upper()] for ch in text), 4)
    return parse_word(text, q)


def _f6(x: float) -> float:
    return float(f"{x:.6g}")


def _fraction_str(fr) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _parse_n_values(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def _limit(args) -> int:
    return sys.maxsize if args.force else MAX_ENUMERABLE


def _write_machine(path: str, fmt: str | None, rows: list[dict]):
    if fmt is None:
        fmt = "csv" if path.endswith(".csv") else "json"
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        # a CSV cell is flat: a dict (bound's histogram) is written as its JSON text
        flat = [{k: (json.dumps(v) if isinstance(v, dict) else v) for k, v in row.items()} for row in rows]
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


def cmd_sphere(args) -> int:
    try:
        x = _parse_word_arg(args.word, args.q)
        kind = ErrorKind(args.kind, args.l)
        sphere = channel.error_sphere(x, kind, args.t)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    if args.out:
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
        _write_machine(args.out, args.format, rows)
    if formula is not None and formula != len(members):
        print("FORMULA MISMATCH", file=sys.stderr)
        return 1
    if bound is not None and bound < len(members):
        print("BOUND VIOLATION", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(args) -> int:
    try:
        n_values = _parse_n_values(args.n)
        if not n_values:
            raise ValueError(f"no lengths in --n {args.n}")
        if args.l < 1:
            raise ValueError(f"block length must be >= 1, got l={args.l}")
        short = [n for n in n_values if n < args.l]
        if short:
            raise ValueError(f"--n lengths below --l {args.l}: {', '.join(map(str, short))}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    try:
        table = bounds.redundancy_table(n_values, args.l, args.q)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(f"{'n':>4} {'bound':>14} {'gsp_lb':>10} {'c1_red':>10} {'c2_red':>10} {'burst':>10}")
    for red in table:
        report = red.report
        print(
            f"{red.n:>4} {_fraction_str(report.bound):>14} {report.redundancy_lb_bits:>10.6g} "
            f"{red.c1_redundancy:>10.6g} {red.c2_redundancy:>10.6g} {red.burst_redundancy:>10.6g}"
        )
        row = report.to_json_dict()
        row["redundancy_lb_bits"] = _f6(row["redundancy_lb_bits"])
        row["redundancy_lb_bits_raw"] = _f6(row["redundancy_lb_bits_raw"])
        row["bound"] = _fraction_str(report.bound)
        row["c1_redundancy_bits"] = _f6(red.c1_redundancy)
        row["c2_redundancy_bits"] = _f6(red.c2_redundancy)
        row["burst_redundancy_bits"] = _f6(red.burst_redundancy)
        rows.append(row)
    if args.out:
        _write_machine(args.out, args.format, rows)
    return 0


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
    """The best code of --code for the flags, or None after a one-line refusal:
    --n is below 1, the --l that c1 reads is below 1 or above --n, the
    q^n words that the codebook is enumerated from are more than the guard
    allows, the construction refuses the flags, or no duplication it
    corrects fits in a word of length n. The guard comes before `best`,
    so a huge --n is refused before any parameter table is counted."""
    if args.n < 1:
        print(f"error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return None
    if args.code == "c1" and args.l < 1:  # c2 and cpf do not read --l
        print(f"error: block length must be >= 1, got l={args.l}", file=sys.stderr)
        return None
    if args.code == "c1" and args.n < args.l:
        print(f"error: --n {args.n} below --l {args.l}", file=sys.stderr)
        return None
    try:
        require_enumerable(args.n, args.q, _limit(args))
        code = CONSTRUCTIONS[args.code][0].best(args.n, args.q, args.l)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return None
    if not any(kind.ell <= args.n for kind in code.kinds):
        print(f"error: no error that {args.code} corrects fits in length n={args.n}", file=sys.stderr)
        return None
    return code


def cmd_verify(args) -> int:
    code = _best_code(args)
    if code is None:
        return 2
    try:
        lines = CONSTRUCTIONS[args.code][1](code, _limit(args))
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    ok = not any(line.startswith("FAIL") for line in lines)
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    if args.out:
        _write_machine(args.out, args.format, [{"passed": ok, "report": lines}])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def cmd_rates(args) -> int:
    try:
        q_list = [int(tok) for tok in args.q_list.split(",")]
        n_tokens = [tok.strip() for tok in args.n_list.split(",")]
        n_list = [None if tok in ("inf", "oo") else int(tok) for tok in n_tokens]
        rates = [[codes.cpf_rate(q, n) for n in n_list] for q in q_list]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = "q\\n " + " ".join(f"{tok:>7}" for tok in n_tokens)
    print(header)
    for q, row in zip(q_list, rates):
        print(f"{q:<4} " + " ".join(f"{rate:>7.3f}" for rate in row))
    if args.out:
        machine = [
            {"q": q, "n": "inf" if n is None else n, "rate": _f6(rate)}
            for q, row in zip(q_list, rates)
            for n, rate in zip(n_list, row)
        ]
        _write_machine(args.out, args.format, machine)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.trials < 0:
        print(f"error: --trials must be >= 0, got {args.trials}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    code = _best_code(args)
    if code is None:
        return 2
    try:
        book = code.codebook_rows(_limit(args))
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if not len(book):
        print("error: empty codebook", file=sys.stderr)
        return 2
    kinds = code.kinds
    successes = 0
    failure = None
    for _ in range(args.trials):
        c = _word_of_row(book[rng.randrange(len(book))], code.q)
        kind = kinds[0] if len(kinds) == 1 else kinds[rng.randrange(len(kinds))]
        y, p = channel.sample_single_error(c, kind, rng)
        try:
            got = code.decode(y)
        except codes.DecodingFailure:
            got = None
        if got == c:
            successes += 1
        elif failure is None:
            failure = (c, kind, p, y, got)
    print(f"{successes}/{args.trials} decoded correctly (seed {args.seed})")
    if failure:
        c, k, p, y, got = failure
        print(f"counterexample: codeword {format_word(c)} kind {k} p={p} -> {format_word(y)} decoded {got}", file=sys.stderr)
    if args.out:
        _write_machine(
            args.out,
            args.format,
            [
                {
                    "code": args.code,
                    "n": args.n,
                    "q": args.q,
                    "l": args.l,
                    "trials": args.trials,
                    "successes": successes,
                    "seed": args.seed,
                }
            ],
        )
    return 0 if successes == args.trials else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dupcodes",
        description="Duplication-correcting codes: spheres, bounds, constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write machine output to this path")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    def guarded(p):
        """The subcommands that enumerate a codebook from a whole word space."""
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
    """Why --out cannot be written, when its directory is missing or is not
    a directory; None otherwise. Checked before any work starts."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(parent):
        return None
    return os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    refusal = args.out and _out_refusal(args.out)
    if refusal:
        print(f"error: cannot write --out {args.out}: {refusal}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except OSError as exc:
        if args.out is None or exc.filename != args.out:
            raise
        print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

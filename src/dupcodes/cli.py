"""Command-line front end: sphere, bound, verify, rates, simulate.

Human-readable reports go to stdout; --out writes machine output (JSON or
CSV per --format, default inferred from the file extension). Floats are
emitted with 6 significant digits and '.' decimals, rationals as "p/q", so
identical flags and seed give byte-identical machine output. Full-space
enumerations refuse instances with q^n above 2^20 words unless --force.
"""

import argparse
import csv
import json
import math
import random
import sys

from . import bounds, channel, codes, formulas
from .channel import ErrorKind
from .words import Word, format_word, parse_word, run_profile
from .wordspace import MAX_ENUMERABLE, all_words

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
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------


def _sphere_formula(x: Word, kind: ErrorKind, t: int):
    """Closed-form size for the sphere when one exists, else None."""
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
    members = sorted(sphere.members, key=lambda w: w.symbols)
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
    n_values = _parse_n_values(args.n)
    limit = _limit(args)
    rows = []
    try:
        table = bounds.redundancy_table(n_values, args.l, args.q, limit=limit)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(f"{'n':>4} {'bound':>14} {'gsp_lb':>10} {'c1_red':>10} {'c2_red':>10} {'burst':>10}")
    for n, red in zip(n_values, table):
        report = bounds.bound_report(n, args.l, args.q)
        print(
            f"{n:>4} {_fraction_str(report.bound):>14} {report.redundancy_lb_bits:>10.6g} "
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
        if args.format == "csv" or (args.format is None and args.out.endswith(".csv")):
            flat = [
                {k: (json.dumps(v) if isinstance(v, dict) else v) for k, v in row.items()}
                for row in rows
            ]
            _write_machine(args.out, "csv", flat)
        else:
            _write_machine(args.out, "json", rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _recovers(c: Word, decode, *args) -> bool:
    """True when decode(*args) returns c; a DecodingFailure is a broken round trip."""
    try:
        return decode(*args) == c
    except codes.DecodingFailure:
        return False


def _verify_c1(n: int, ell: int, q: int, limit: int) -> tuple[bool, list[str]]:
    lines = []
    a, cardinality = codes.c1_best_params(n, ell, q, limit=limit)
    code = codes.TandemVTCode(n, q, ell, a)
    book = codes.c1_codebook(code, limit=limit)
    lb = codes.c1_size_lower_bound(n, ell, q)
    ok = True
    lines.append(f"c1 n={n} l={ell} q={q}: best residues {a}, cardinality {cardinality}")
    if cardinality < lb:
        ok = False
        lines.append(f"FAIL cardinality {cardinality} below guarantee {_fraction_str(lb)}")
    else:
        lines.append(f"ok   cardinality >= guarantee {_fraction_str(lb)}")
    kind = channel.tandem_dup(ell)
    clash = codes.disjoint_ball_violation(book, kind, 1)
    if clash:
        ok = False
        lines.append(f"FAIL balls intersect: {clash[0]} / {clash[1]} share {clash[2]}")
    else:
        lines.append("ok   all codeword balls disjoint")
    mismatches = 0
    for c in book:
        for p in range(n - ell + 1):
            y = channel.tandem_duplicate(c, ell, p)
            got = _recovers(c, codes.c1_decode, y, code)
            ref = _recovers(c, codes.oracle_decode, y, n, kind, lambda w: codes.c1_member(w, code))
            if not (got and ref):
                mismatches += 1
    if mismatches:
        ok = False
        lines.append(f"FAIL {mismatches} decode round-trips broken")
    else:
        lines.append("ok   syndrome decoder = oracle on every (codeword, error)")
    return ok, lines


def _verify_c2(n: int, limit: int) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    kind = channel.pal_dup(2)
    modulus = 2 * n + 1
    groups: dict[tuple[int, int], list[Word]] = {}
    for row in all_words(n, 2, limit=limit):
        x = Word(tuple(int(v) for v in row), 2)
        prof = run_profile(x)
        key = (prof.count_of_length(1) % 5, prof.checksum() % modulus)
        groups.setdefault(key, []).append(x)
    best = max(len(v) for v in groups.values())
    need = math.ceil(codes.c2_size_lower_bound(n))
    lines.append(f"c2 n={n}: {5 * modulus} parameter pairs, best cardinality {best}")
    if best < need:
        ok = False
        lines.append(f"FAIL best cardinality {best} below guarantee {need}")
    else:
        lines.append(f"ok   best cardinality >= {need}")
    bad = 0
    for (a, b), book in groups.items():
        code = codes.PalindromicL2Code(n, a, b)
        if codes.disjoint_ball_violation(book, kind, 1):
            bad += 1
            continue
        for c in book:
            for p in range(n - 1):
                y = channel.palindromic_duplicate(c, 2, p)
                got = _recovers(c, codes.c2_decode, y, code)
                ref = _recovers(c, codes.oracle_decode, y, n, kind, lambda w: codes.c2_member(w, code))
                if not (got and ref):
                    bad += 1
    if bad:
        ok = False
        lines.append(f"FAIL {bad} parameter pairs with broken correction")
    else:
        lines.append("ok   every (a, b) corrects every single palindromic duplication")
    return ok, lines


def _verify_cpf(n: int, q: int, limit: int) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    book = codes.cpf_codebook(n, q, limit=limit)
    count = codes.cpf_count_recursive(n, q)
    lines.append(f"cpf n={n} q={q}: count {count}")
    if len(book) != count:
        ok = False
        lines.append(f"FAIL recursion {count} != enumeration {len(book)}")
    else:
        lines.append("ok   recursion matches enumeration")
    closed = codes.cpf_count_closed(n, q) if n >= 3 else float(count)
    if abs(closed - count) > 1e-6 * max(1, count):
        ok = False
        lines.append(f"FAIL closed form {closed} != {count}")
    else:
        lines.append("ok   closed form matches")
    bad = 0
    for ell in range(2, n + 1):
        kind = channel.pal_dup(ell)
        if codes.disjoint_ball_violation(book, kind, 1):
            bad += 1
            continue
        for c in book:
            for p in range(n - ell + 1):
                y = channel.palindromic_duplicate(c, ell, p)
                if not _recovers(c, codes.cpf_decode, y, n):
                    bad += 1
    if bad:
        ok = False
        lines.append(f"FAIL {bad} duplication lengths/positions with broken correction")
    else:
        lines.append(f"ok   decoder corrects every duplication of every length 2..{n}")
    return ok, lines


def cmd_verify(args) -> int:
    limit = _limit(args)
    try:
        if args.code == "c1":
            ok, lines = _verify_c1(args.n, args.l, args.q, limit)
        elif args.code == "c2":
            if args.q != 2:
                print("error: c2 is binary (use --q 2)", file=sys.stderr)
                return 2
            ok, lines = _verify_c2(args.n, limit)
        else:
            ok, lines = _verify_cpf(args.n, args.q, limit)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
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
        rows = codes.cpf_rate_table(q_list, n_list)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = "q\\n " + " ".join(f"{tok:>7}" for tok in n_tokens)
    print(header)
    for q in q_list:
        cells = []
        for n in n_list:
            rate = next(r["rate"] for r in rows if r["q"] == q and r["n"] == (None if n is None else n))
            cells.append(f"{rate:>7.3f}")
        print(f"{q:<4} " + " ".join(cells))
    if args.out:
        machine = [
            {"q": r["q"], "n": "inf" if r["n"] is None else r["n"], "rate": _f6(r["rate"])}
            for r in rows
        ]
        _write_machine(args.out, args.format, machine)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    limit = _limit(args)
    rng = random.Random(args.seed)
    try:
        if args.code == "c1":
            a, _ = codes.c1_best_params(args.n, args.l, args.q, limit=limit)
            code = codes.TandemVTCode(args.n, args.q, args.l, a)
            book = codes.c1_codebook(code, limit=limit)
            kind = channel.tandem_dup(args.l)

            def decode(y):
                return codes.c1_decode(y, code)

        elif args.code == "c2":
            if args.q != 2:
                print("error: c2 is binary (use --q 2)", file=sys.stderr)
                return 2
            (a, b), _ = codes.c2_best_params(args.n, limit=limit)
            code = codes.PalindromicL2Code(args.n, a, b)
            book = codes.c2_codebook(code, limit=limit)
            kind = channel.pal_dup(2)

            def decode(y):
                return codes.c2_decode(y, code)

        else:
            if args.n < 2:
                print("error: cpf corrects duplications of length 2..n (use --n 2 or more)", file=sys.stderr)
                return 2
            book = codes.cpf_codebook(args.n, args.q, limit=limit)
            kind = None

            def decode(y):
                return codes.cpf_decode(y, args.n)

    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if not book:
        print("error: empty codebook", file=sys.stderr)
        return 2
    successes = 0
    failure = None
    for _ in range(args.trials):
        c = book[rng.randrange(len(book))]
        trial_kind = kind if kind is not None else channel.pal_dup(rng.randrange(2, args.n + 1))
        y, p = channel.sample_single_error(c, trial_kind, rng)
        try:
            got = decode(y)
        except codes.DecodingFailure:
            got = None
        if got == c:
            successes += 1
        elif failure is None:
            failure = (c, trial_kind, p, y, got)
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
        p.add_argument("--force", action="store_true", help="override the q^n enumeration guard")
        p.add_argument("--seed", type=int, default=0)

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
    p.add_argument("--code", required=True, choices=("c1", "c2", "cpf"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rates", help="palindrome-free code rate table")
    p.add_argument("--q", dest="q_list", required=True, help="comma list, e.g. 2,3,4,5")
    p.add_argument("--n", dest="n_list", required=True, help="comma list; 'inf' for the asymptotic column")
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("simulate", help="random single-error transmission round trips")
    p.add_argument("--code", required=True, choices=("c1", "c2", "cpf"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

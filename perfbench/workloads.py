"""The benchmark's four workloads and the checks on their outputs.

Each workload turns a seed into a list of operations (`make`), runs them once
per round through the public entry points (`run_op`), and checks what they
returned after the timed phase (`check`). An operation is one CLI invocation
through `dupcodes.cli.main`, or one `dupcodes.bounds` call for bound-check.
The seed orders the operations and, for simulate, seeds the trials; it never
changes their sizes, so every seed costs the same.

Sizes are set so that one round takes 1.5-3 seconds on a 2-CPU machine
(see README.md for the reasons behind each workload and size).
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from dupcodes import bounds, cli, codes, wordspace

# (code, n, l, q): exhaustive verify of each construction
VERIFY_CODES = (("c1", 12, 1, 2), ("c2", 10, 2, 2), ("cpf", 7, 1, 3))
# (code, n, l, q): codebook build at large n plus random single-error trials
SIMULATE_CODES = (("c1", 17, 2, 2), ("c2", 19, 2, 2), ("cpf", 10, 1, 3))
SIMULATE_TRIALS = 15000  # the trial loop is about half of a round
# (q, l, n_max): bound tables over n = l..n_max; q^n_max reaches 2^19 or 2^20 rows
SWEEP_TABLES = ((2, 2, 19), (3, 1, 12), (4, 3, 10))
# exact_optimum(n, l, t=1, q=2); n=9, l=1 alone takes 5-11 s and is left out
EXACT_OPTIMUM = tuple((n, ell) for ell in (1, 2) for n in range(ell, 9)) + ((9, 2),)
# transversal_check(n, l, t=1, q)
TRANSVERSAL = tuple((n, ell, 2) for ell in (1, 2) for n in range(ell, 13)) + ((8, 1, 3),)


@dataclass
class Op:
    """One operation: a CLI argv, or a bounds function name with arguments."""

    label: str
    argv: list = None
    call: tuple = None
    out_path: str = None  # machine output the CLI writes, read back after each call
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    out_text: str = None
    value: object = None


def run_op(op: Op) -> Outcome:
    """Run one operation through the public entry point; no checking here."""
    if op.call is not None:
        name, args = op.call
        return Outcome(value=getattr(bounds, name)(*args))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse refusals
            rc = exc.code if isinstance(exc.code, int) else 2
    text = None
    if op.out_path is not None:
        with open(op.out_path) as fh:
            text = fh.read()
    return Outcome(rc, out.getvalue(), err.getvalue(), text)


# ---------------------------------------------------------------------------
# operations from a seed
# ---------------------------------------------------------------------------


def make_verify(seed, outdir):
    ops = [
        Op(f"verify {c} n={n} l={ell} q={q}",
           argv=["verify", "--code", c, "--n", str(n), "--l", str(ell), "--q", str(q)],
           info={"code": c, "n": n, "l": ell, "q": q})
        for c, n, ell, q in VERIFY_CODES
    ]
    random.Random(seed).shuffle(ops)
    return ops


def make_simulate(seed, outdir):
    rng = random.Random(seed)
    ops = []
    for i, (c, n, ell, q) in enumerate(SIMULATE_CODES):
        trial_seed = rng.randrange(2**31)
        path = f"{outdir}/simulate-{i}.json"
        ops.append(Op(
            f"simulate {c} n={n} l={ell} q={q} seed={trial_seed}",
            argv=["simulate", "--code", c, "--n", str(n), "--l", str(ell), "--q", str(q),
                  "--trials", str(SIMULATE_TRIALS), "--seed", str(trial_seed), "--out", path],
            out_path=path,
            info={"code": c, "n": n, "l": ell, "q": q, "trials": SIMULATE_TRIALS},
        ))
    rng.shuffle(ops)
    return ops


def make_sweep(seed, outdir):
    ops = []
    for i, (q, ell, n_max) in enumerate(SWEEP_TABLES):
        path = f"{outdir}/sweep-{i}.json"
        ops.append(Op(
            f"bound q={q} l={ell} n={ell}..{n_max}",
            argv=["bound", "--n", f"{ell}..{n_max}", "--l", str(ell), "--q", str(q), "--out", path],
            out_path=path,
            info={"q": q, "l": ell, "n": list(range(ell, n_max + 1))},
        ))
    random.Random(seed).shuffle(ops)
    return ops


def make_bound_check(seed, outdir):
    ops = [Op(f"exact_optimum n={n} l={ell}", call=("exact_optimum", (n, ell, 1, 2)),
              info={"n": n, "l": ell, "q": 2})
           for n, ell in EXACT_OPTIMUM]
    ops += [Op(f"transversal_check n={n} l={ell} q={q}", call=("transversal_check", (n, ell, 1, q)),
               info={"n": n, "l": ell, "q": q})
            for n, ell, q in TRANSVERSAL]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# checks: each returns (operations attempted, operations failed, messages)
# ---------------------------------------------------------------------------


def check_verify(op, res, refs):
    """Every report line is one check; all must read ok, then PASS and exit 0."""
    lines = res.stdout.splitlines()
    checks = [ln for ln in lines if ln.startswith(("ok ", "FAIL"))]
    failed = sum(ln.startswith("FAIL") for ln in checks)
    passed = res.rc == 0 and bool(lines) and lines[-1] == "PASS"
    if not passed or not checks:
        failed = max(failed, 1)
    msgs = [] if not failed else [f"{op.label}: rc={res.rc} {[ln for ln in lines if not ln.startswith('ok ')]}"]
    return max(len(checks), 1), failed, msgs


def check_simulate(op, res, refs):
    """Every trial is one operation; all must decode (successes == trials), exit 0."""
    trials = op.info["trials"]
    try:
        record = json.loads(res.out_text)[0]
        successes = record["successes"] if record["trials"] == trials else 0
    except (TypeError, ValueError, KeyError, IndexError):
        successes = 0
    failed = trials - successes
    if res.rc != 0:
        failed = max(failed, 1)
    msgs = [] if not failed else [f"{op.label}: rc={res.rc} successes={successes}/{trials}"]
    return trials, failed, msgs


def sweep_reference(n, ell, q):
    """Deletion-sphere histogram at length n - l by direct enumeration: the
    count of words by zero-signature weight, which the bound table computes
    from closed-form counts instead."""
    if n < 2 * ell:
        return {}
    weights = wordspace.signature_scan(wordspace.all_words(n - ell, q), ell)[1]
    counts = np.bincount(weights)
    return {str(i): int(c) for i, c in enumerate(counts) if c or i == 0}


def check_sweep(op, res, refs):
    """Every table row is one check: histogram equals the enumeration, and
    the c1 redundancy is at least the sphere-packing lower bound."""
    q, ell, n_values = op.info["q"], op.info["l"], op.info["n"]
    try:
        rows = {row["n"]: row for row in json.loads(res.out_text)}
    except (TypeError, ValueError, KeyError):
        rows = {}
    failed, msgs = 0, []
    for n in n_values:
        row = rows.get(n)
        ref = refs.get((n, ell, q))
        if ref is None:
            ref = refs[(n, ell, q)] = sweep_reference(n, ell, q)
        ok = (
            res.rc == 0
            and row is not None
            and (row["q"], row["l"]) == (q, ell)
            and row["histogram"] == ref
            and row["c1_redundancy_bits"] >= row["redundancy_lb_bits"]
        )
        if not ok:
            failed += 1
            msgs.append(f"{op.label}: row n={n} wrong (rc={res.rc})")
    return len(n_values), failed, msgs


def check_bound_check(op, res, refs):
    """One instance: exact optimum within the generalized sphere-packing bound,
    or the explicit fractional transversal feasible with no deficit."""
    name, (n, ell, t, q) = op.call
    if name == "exact_optimum":
        key = ("gsp", n, ell, q)
        if key not in refs:
            refs[key] = bounds.gsp_bound_tandem(n, ell, q)
        ok = isinstance(res.value, int) and res.value <= refs[key]
    else:
        ok = res.value == (True, [])
    return 1, int(not ok), [] if ok else [f"{op.label}: got {res.value!r}"]


# ---------------------------------------------------------------------------
# stated input sizes (outside every timed region)
# ---------------------------------------------------------------------------


def _verify_round_trips(info):
    n, ell, q = info["n"], info["l"], info["q"]
    if info["code"] == "c1":
        _, size = codes.c1_best_params(n, ell, q)
        return size * (n - ell + 1)
    if info["code"] == "c2":  # every (a, b) group: all 2^n words
        return 2**n * (n - 1)
    return codes.cpf_count_recursive(n, q) * sum(n - k + 1 for k in range(2, n + 1))


def work_of(workload, ops):
    """What one round processes, as counts of the workload's own units."""
    if workload == "verify":
        return {"round_trips_checked": sum(_verify_round_trips(op.info) for op in ops),
                "words_scanned": sum(op.info["q"] ** op.info["n"] for op in ops)}
    if workload == "simulate":
        return {"trials": sum(op.info["trials"] for op in ops),
                "words_scanned": sum(op.info["q"] ** op.info["n"] for op in ops)}
    if workload == "sweep":
        return {"table_rows": sum(len(op.info["n"]) for op in ops),
                "words_scanned": sum(op.info["q"] ** n for op in ops for n in op.info["n"])}
    return {"instances": len(ops),
            "words_scanned": sum(op.info["q"] ** op.info["n"] for op in ops)}


@dataclass(frozen=True)
class Workload:
    make: object
    check: object
    reference: str = "python"  # the refloop kind that rescales its timings


WORKLOADS = {
    "verify": Workload(make_verify, check_verify),
    "simulate": Workload(make_simulate, check_simulate, "mixed"),
    "sweep": Workload(make_sweep, check_sweep, "numpy"),
    "bound-check": Workload(make_bound_check, check_bound_check),
}

"""Self-test of the benchmark's output checks: none of them is vacuous.

For each workload, a real operation at a small size must pass its check, and
every corruption of its answer must fail it: a perturbed report, histogram or
optimum, and a wrong decoder patched into the package. Run from the root of a
checkout:

    python3 perfbench/selftest.py

Exits 0 when every check accepts the real answer and rejects each corruption.
"""

import dataclasses
import json
import os
import shutil
import sys
from contextlib import contextmanager

from run import OUT, use_checkout


@contextmanager
def patched(module, name, value):
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def edit_json(outcome, change):
    rows = json.loads(outcome.out_text)
    change(rows)
    return dataclasses.replace(outcome, out_text=json.dumps(rows))


def cases(tmp):
    """Yield (name, check, op, outcome, should_pass)."""
    from dupcodes import bounds, codes
    from dupcodes.words import Word
    from workloads import Op, check_bound_check, check_simulate, check_sweep, check_verify, run_op

    def wrong_word(y, code):
        return Word((0,) * code.n, y.q) if y.symbols[0] else Word((1,) * code.n, y.q)

    verify = Op("verify c1 n=6", argv=["verify", "--code", "c1", "--n", "6"])
    good = run_op(verify)
    yield "verify: real report", check_verify, verify, good, True
    lines = good.stdout.splitlines()
    yield "verify: last line FAIL", check_verify, verify, dataclasses.replace(
        good, stdout="\n".join(lines[:-1] + ["FAIL"])), False
    yield "verify: exit code 1", check_verify, verify, dataclasses.replace(good, rc=1), False
    with patched(codes, "c1_decode", wrong_word):
        yield "verify: wrong decoder", check_verify, verify, run_op(verify), False

    path = f"{tmp}/simulate.json"
    simulate = Op("simulate c2 n=8", out_path=path, info={"trials": 50},
                  argv=["simulate", "--code", "c2", "--n", "8", "--trials", "50", "--out", path])
    good = run_op(simulate)
    yield "simulate: real trials", check_simulate, simulate, good, True

    def one_fewer(rows):
        rows[0]["successes"] -= 1

    yield "simulate: one trial lost", check_simulate, simulate, edit_json(good, one_fewer), False
    with patched(codes, "c2_decode", wrong_word):
        yield "simulate: wrong decoder", check_simulate, simulate, run_op(simulate), False

    path = f"{tmp}/sweep.json"
    sweep = Op("bound q=2 l=1 n=1..9", out_path=path, info={"q": 2, "l": 1, "n": list(range(1, 10))},
               argv=["bound", "--n", "1..9", "--l", "1", "--q", "2", "--out", path])
    good = run_op(sweep)
    yield "sweep: real table", check_sweep, sweep, good, True

    def perturb_histogram(rows):
        hist = rows[-1]["histogram"]
        hist["1"] += 1

    def redundancy_below_bound(rows):
        rows[-1]["c1_redundancy_bits"] = rows[-1]["redundancy_lb_bits"] - 0.01

    def drop_row(rows):
        del rows[3]

    yield "sweep: perturbed histogram", check_sweep, sweep, edit_json(good, perturb_histogram), False
    yield "sweep: redundancy below bound", check_sweep, sweep, edit_json(good, redundancy_below_bound), False
    yield "sweep: missing row", check_sweep, sweep, edit_json(good, drop_row), False

    exact = Op("exact_optimum n=6 l=1", call=("exact_optimum", (6, 1, 1, 2)))
    good = run_op(exact)
    yield "bound-check: real optimum", check_bound_check, exact, good, True
    above = dataclasses.replace(good, value=int(bounds.gsp_bound_tandem(6, 1, 2)) + 1)
    yield "bound-check: optimum above the bound", check_bound_check, exact, above, False

    transversal = Op("transversal_check n=6 l=2", call=("transversal_check", (6, 2, 1, 2)))
    good = run_op(transversal)
    yield "bound-check: real transversal", check_bound_check, transversal, good, True
    deficit = (False, [Word((0,) * 6, 2)])
    yield "bound-check: transversal deficit", check_bound_check, transversal, dataclasses.replace(
        good, value=deficit), False


def main():
    error = use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"selftest-{os.getpid()}"
    tmp.mkdir()
    bad = 0
    try:
        for name, check, op, outcome, should_pass in cases(tmp):
            _, failed, _ = check(op, outcome, {})
            ok = (failed == 0) == should_pass
            bad += not ok
            verdict = "accepted" if failed == 0 else "rejected"
            print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test passed" if not bad else f"self-test FAILED: {bad} case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

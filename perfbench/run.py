"""Benchmark of dupcodes: end-to-end and per-layer metrics for four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads: verify, simulate, sweep, bound-check (see README.md). With
--trace 0 the workload runs untraced for --seconds and the end-to-end metrics
are reported. With --trace 1 it runs untraced for half the time and with the
layer tracer for the other half, and the per-layer metrics are reported.
Outputs are checked after the timed phase. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The line before it
records the environment and the work done per round. Spans of the first
traced round go to .bench_out/spans-<workload>.npz.

Round and set-up times are rescaled by a reference loop timed next to them
(refloop.py), which cancels the drift of the shared machine's speed; the raw
wall times are in the environment line. Timings cover only this process and
the set-up interpreters it starts: no file cache is dropped and nothing
outside these processes is traced.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from refloop import REFERENCE_S, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 15  # at least; two more follow every untraced round
KERNEL_REPEATS = 3
MIN_ROUNDS = 3  # timed rounds of an untraced pass
SEGMENT_S = 0.25  # least operation time between two reference-loop samples
LIMITATION = (
    "timings cover only the benchmark's own processes; no file-cache dropping "
    "and no system-wide tracing"
)
# numpy is imported first and timed apart: its import is outside this repo and
# varies by tens of milliseconds between interpreters on a shared machine. The
# reference loop runs before and after the imports in the same interpreter.
SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; from refloop import reference_seconds as ref; "
    "c0 = ref(); t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import dupcodes, dupcodes.cli; t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1, (c0 + ref()) / 2)"
)

# per-layer groups: metric prefix -> (module, function-name regex)
GROUPS = {
    "wordspace": ("wordspace", r".*"),
    "wordspace.all_words": ("wordspace", r"all_words"),
    "wordspace.signature_scan": ("wordspace", r"signature_scan(_\w+)?"),
    "wordspace.run_stats": ("wordspace", r"run_stats(_\w+)?"),
    "wordspace.pal2_free_mask": ("wordspace", r"pal2_free_mask(_\w+)?"),
    "codes": ("codes", r".*"),
    "codes.best_params": ("codes", r"\w+_best_params"),
    "codes.codebook": ("codes", r"\w+_codebook"),
    "codes.disjoint_ball_violation": ("codes", r"disjoint_ball_violation"),
    "codes.oracle_decode": ("codes", r"oracle_decode"),
    "codes.decode": ("codes", r"(?!oracle_)\w+_decode"),
    "codes.member": ("codes", r"(?!vt_)\w+_member"),
    "channel": ("channel", r".*"),
    "channel.error_ball": ("channel", r"error_ball"),
    "channel.error_sphere": ("channel", r"error_sphere"),
    "channel.sample_single_error": ("channel", r"sample_single_error"),
    "channel.ops": ("channel", r"(tandem|palindromic)_(duplicate|delete)"),
    "channel.palindromic_delete": ("channel", r"palindromic_delete"),
    "transform": ("transform", r".*"),
    "words": ("words", r".*"),
    "words.run_profile": ("words", r"run_profile"),
    "bounds": ("bounds", r".*"),
    "bounds.bound_report": ("bounds", r"bound_report"),
    "bounds.redundancy_table": ("bounds", r"redundancy_table"),
    "bounds.deletion_histogram": ("bounds", r"deletion_histogram"),
    "bounds.exact_optimum": ("bounds", r"exact_optimum"),
    "bounds.transversal_check": ("bounds", r"transversal_check"),
    "cli.main": ("cli", r".*"),  # the CLI layer's own time inside each main() call
}

# per-layer metric -> (unit, how it is read from a tracer: (field, group))
LAYER_METRICS = {
    "wordspace.all_words.calls": ("count", "calls", "wordspace.all_words"),
    "wordspace.all_words.self_s": ("s", "self_s", "wordspace.all_words"),
    "wordspace.rows": ("count", "rows", "wordspace.all_words"),
    "wordspace.bytes_computed": ("bytes", "bytes_computed", None),
    "wordspace.signature_scan.self_s": ("s", "self_s", "wordspace.signature_scan"),
    "wordspace.run_stats.self_s": ("s", "self_s", "wordspace.run_stats"),
    "wordspace.pal2_free_mask.self_s": ("s", "self_s", "wordspace.pal2_free_mask"),
    "wordspace.self_s": ("s", "self_s", "wordspace"),
    "codes.best_params.self_s": ("s", "self_s", "codes.best_params"),
    "codes.codebook.self_s": ("s", "self_s", "codes.codebook"),
    "codes.codewords": ("count", "codewords", "codes.codebook"),
    "channel.error_ball.calls": ("count", "calls", "channel.error_ball"),
    "channel.error_ball.self_s": ("s", "self_s", "channel.error_ball"),
    "channel.error_ball.members": ("count", "members", "channel.error_ball"),
    "channel.error_sphere.calls": ("count", "calls", "channel.error_sphere"),
    "channel.error_sphere.self_s": ("s", "self_s", "channel.error_sphere"),
    "codes.disjoint_ball_violation.self_s": ("s", "self_s", "codes.disjoint_ball_violation"),
    "codes.oracle_decode.calls": ("count", "calls", "codes.oracle_decode"),
    "codes.oracle_decode.self_s": ("s", "self_s", "codes.oracle_decode"),
    "codes.decode.calls": ("count", "calls", "codes.decode"),
    "codes.decode.self_s": ("s", "self_s", "codes.decode"),
    "codes.decode.failures": ("count", "errors", "codes.decode"),
    "codes.member.calls": ("count", "calls", "codes.member"),
    "codes.self_s": ("s", "self_s", "codes"),
    "channel.sample_single_error.calls": ("count", "calls", "channel.sample_single_error"),
    "channel.sample_single_error.self_s": ("s", "self_s", "channel.sample_single_error"),
    "channel.ops.calls": ("count", "calls", "channel.ops"),
    "channel.ops.self_s": ("s", "self_s", "channel.ops"),
    "channel.palindromic_delete.reject_ratio": ("ratio", "reject_ratio", "channel.palindromic_delete"),
    "channel.self_s": ("s", "self_s", "channel"),
    "transform.calls": ("count", "calls", "transform"),
    "transform.self_s": ("s", "self_s", "transform"),
    "words.run_profile.calls": ("count", "calls", "words.run_profile"),
    "words.run_profile.self_s": ("s", "self_s", "words.run_profile"),
    "words.Word.constructed": ("count", "words_constructed", None),
    "words.self_s": ("s", "self_s", "words"),
    "bounds.bound_report.self_s": ("s", "self_s", "bounds.bound_report"),
    "bounds.redundancy_table.self_s": ("s", "self_s", "bounds.redundancy_table"),
    "bounds.deletion_histogram.self_s": ("s", "self_s", "bounds.deletion_histogram"),
    "bounds.exact_optimum.self_s": ("s", "self_s", "bounds.exact_optimum"),
    "bounds.transversal_check.self_s": ("s", "self_s", "bounds.transversal_check"),
    "bounds.self_s": ("s", "self_s", "bounds"),
    "cli.main.self_s": ("s", "self_s", "cli.main"),
    "trace.spans": ("count", "spans", None),
}

KERNEL_WORDS = (20, 2)  # n, q: 2^20 rows, the enumeration guard


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root):
    """Commit of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_times():
    """(numpy import seconds, dupcodes + dupcodes.cli import seconds, reference
    loop seconds around them) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return tuple(float(x) for x in done.stdout.split())


def run_round(ops, outcomes, run_op, reference, tracer=None):
    """Run every op once. Returns the ops' wall seconds and the same rescaled
    by the `reference` loop: it runs before the round and after every
    SEGMENT_S or more of op time, and each segment is rescaled by the mean of
    the two loops around it."""
    wall = rescaled = segment = 0.0
    before = reference_seconds(reference)
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.invocation = i
        t0 = time.perf_counter()
        outcomes.append((op, run_op(op)))
        segment += time.perf_counter() - t0
        if segment >= SEGMENT_S or i == len(ops) - 1:
            after = reference_seconds(reference)
            rescaled += segment * REFERENCE_S[reference] * 2 / (before + after)
            wall, segment, before = wall + segment, 0.0, after
    return wall, rescaled


def run_rounds(ops, seconds, outcomes, run_op, reference, tracer_factory=None, between=None):
    """Run whole rounds of `ops` until `seconds` have passed, calling
    `between()` untimed after each. Untraced, the first round only warms up
    (heap growth, first calls) and at least MIN_ROUNDS more are timed; traced,
    at least one round runs and all are kept. Returns the kept rounds' wall
    times, their rescaled times and, when traced, their tracers."""
    warmup = 0 if tracer_factory else 1
    least = 1 if tracer_factory else MIN_ROUNDS
    times, rescaled, tracers = [], [], []
    start = time.perf_counter()
    for done in itertools.count():
        if done >= warmup + least and time.perf_counter() - start >= seconds:
            break
        tracer = tracer_factory() if tracer_factory else None
        if tracer is not None:
            tracer.install()
        try:
            wall, scaled = run_round(ops, outcomes, run_op, reference, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if done >= warmup:
            times.append(wall)
            rescaled.append(scaled)
            if tracer is not None:
                tracers.append(tracer)
        if between is not None:
            between()
    return times, rescaled, tracers


def layer_values(tracer):
    groups = {g: tracer.select(*spec) for g, spec in GROUPS.items()}
    values = {}
    for name, (_, field, group) in LAYER_METRICS.items():
        fids = groups.get(group, [])
        if field in ("calls", "self_s", "errors"):
            value = tracer.total(field, fids)
        elif field in ("rows", "members", "codewords"):
            value = tracer.size(field, fids)
        elif field == "reject_ratio":
            calls = tracer.total("calls", fids)
            value = tracer.total("errors", fids) / calls if calls else 0.0
        elif field == "spans":
            value = len(tracer.spans) // 6
        else:
            value = getattr(tracer, field)
        values[name] = value
    return values


def kernel_timings(wordspace):
    """Per-kernel times over all 2^20 binary words of length 20, on the active
    backend; median of KERNEL_REPEATS."""
    n, q = KERNEL_WORDS

    def median_time(fn, *args):
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    words = wordspace.all_words(n, q)
    return {
        "kernels.all_words.q2n20_s": median_time(wordspace.all_words, n, q),
        "kernels.signature_scan.q2n20_s": median_time(wordspace.signature_scan, words, 2),
        "kernels.run_stats.q2n20_s": median_time(wordspace.run_stats, words),
        "kernels.pal2_free_mask.q2n20_s": median_time(wordspace.pal2_free_mask, words),
    }


def save_spans(tracer, workload):
    names = np.array([f"{m}.{n}" for m, n in tracer.funcs])
    table = np.frombuffer(tracer.spans, dtype=np.float64).reshape(-1, 6)
    np.savez(OUT / f"spans-{workload}.npz", spans=table, functions=names,
             columns=np.array(["id", "parent", "function", "invocation", "start", "end"]))


def use_checkout():
    """Put this checkout's sources first on sys.path and import dupcodes from
    them. Returns an error message when the checkout has no sources."""
    if not (SRC / "dupcodes" / "__init__.py").is_file():
        return f"no dupcodes sources under {SRC.name}/ next to {Path(__file__).parent.name}/"
    sys.path.insert(0, str(SRC))
    import dupcodes

    if Path(dupcodes.__file__).resolve().parent != SRC / "dupcodes":
        return f"imported dupcodes from {dupcodes.__file__}, not this checkout"
    return None


def main(argv=None):
    args = parse_args(argv)
    error = use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from dupcodes import wordspace
    from layertrace import Tracer
    from workloads import WORKLOADS, run_op, work_of

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        ops = workload.make(args.seed, str(tmp))
        metrics = {}
        outcomes = []
        if not args.trace:
            # set-up samples are spread over the run so that they see the same
            # machine load as the rounds; the first interpreter may compile
            # bytecode and is discarded
            import_times()
            setups = []

            def sample_setup():
                setups.extend(import_times() for _ in range(2))

            times, rescaled, _ = run_rounds(ops, args.seconds, outcomes, run_op, workload.reference, between=sample_setup)
            while len(setups) < SETUP_REPEATS:
                sample_setup()
            numpy_import_s = statistics.median(s[0] for s in setups)
            metrics["setup_s"] = (statistics.median(s[1] * REFERENCE_S["python"] / s[2] for s in setups), "s")
            metrics["run_s"] = (statistics.fmean(rescaled), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        else:
            times, rescaled, _ = run_rounds(ops, args.seconds / 2, outcomes, run_op, workload.reference)
            traced_times, traced_rescaled, tracers = run_rounds(ops, args.seconds / 2, outcomes, run_op, workload.reference, Tracer)
            save_spans(tracers[0], args.workload)
            rounds = [layer_values(t) for t in tracers]
            del tracers
            for name, (unit, _, _) in LAYER_METRICS.items():
                metrics[name] = (statistics.median(r[name] for r in rounds), unit)
            metrics["trace.overhead_ratio"] = (statistics.median(traced_rescaled) / statistics.median(rescaled), "ratio")
            for name, value in kernel_timings(wordspace).items():
                metrics[name] = (value, "s")

        refs, attempted, failed, messages = {}, 0, 0, []
        for op, outcome in outcomes:
            a, f, msgs = workload.check(op, outcome, refs)
            attempted += a
            failed += f
            messages.extend(msgs)
        if args.trace:
            metrics["failed_ratio"] = (failed / attempted, "ratio")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "backend": wordspace.backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "work_per_round": work_of(args.workload, ops),
        "operations_per_round": [op.label for op in ops],
        "reference": workload.reference,
        "untraced_round_s": times,
        "rescaled_round_s": rescaled,
        "limitation": LIMITATION,
        "failures": messages[:20],
    }
    if args.trace:
        meta["traced_round_s"] = traced_times
        meta["traced_rescaled_round_s"] = traced_rescaled
    else:
        meta["numpy_import_s"] = numpy_import_s
        meta["setup_wall_s"] = statistics.median(s[1] for s in setups)
        meta["setup_reference_loop_s"] = statistics.median(s[2] for s in setups)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}.json").write_text(json.dumps({"meta": meta, **result}, indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

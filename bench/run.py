"""Run one workload of the wdlearn benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ref-targets-8x8 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a traced
measured phase and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full report, with the
environment, every metric of the workload and, when traced, every span,
is written to ``.bench_out/`` in the checkout.  See ``bench/README.md``.
"""

import os

# Pinned before numpy is first imported, so BLAS starts single-threaded.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# glibc serves a large allocation by mmap until a free raises its dynamic
# threshold, so whether numpy's arrays of a few hundred KB cost fresh pages
# on every call depends on the process's history: the same training phase
# ran 10% faster or slower from one process to the next.  Fixed thresholds
# keep such arrays on the heap in every process.
MALLOC_THRESHOLD = 512 * 1024 * 1024
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
try:
    _libc = ctypes.CDLL(None)
    MALLOC_PINNED = bool(
        _libc.mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLD)
        and _libc.mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD)
    )
except (OSError, AttributeError):  # not glibc
    MALLOC_PINNED = False

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# least work between two clock readings inside the measured phase, in ms;
# the set-up reads less often, so that its many exact solves do not double it
CLOCK_GAP_MS = 40.0
SETUP_GAP_MS = 500.0


def git_commit(root):
    """Commit of a git checkout read from ``.git``; None elsewhere."""
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


def environment(workload, seed, sizes):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "malloc_thresholds": MALLOC_THRESHOLD if MALLOC_PINNED else None,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_rounds(workload, state, ledger, budget_s, tracer, clock, timer=None):
    """Closed loop: start rounds until ``budget_s`` has passed (at least one).

    A record holds scaled times (see ``harness.ReferenceClock``) and,
    under ``"raw"``, the same times as measured.
    """
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < budget_s:
        raw = {}
        with clock.span() as wall:
            rec = workload.round(state, ledger, tracer, clock, raw)
        rec["wall_s"], raw["wall_s"] = wall["s"], wall["raw_s"]
        if timer is not None:
            rec["exact_ms"], raw["exact_ms"] = timer.take()
        rec["raw"] = raw
        rounds.append(rec)
    return rounds


def measure(workload, seconds, trace):
    """Set up and run ``workload``; returns (metrics, details, ledger, tracer)."""
    from harness import Ledger, NullTracer, ReferenceClock, SolveTimer, Tracer, reading_after

    ledger, null = Ledger(), NullTracer()
    setup_clock = ReferenceClock(*workload.setup_reference())
    clock = ReferenceClock(*workload.reference())
    if not trace:
        setup_s, raw_setup_s = [], []
        with reading_after(setup_clock, [("wdlearn.ot", "exact_ot")], SETUP_GAP_MS):
            for _ in range(workload.setup_reps):
                with setup_clock.span() as took:
                    state = workload.setup(null)
                setup_s.append(took["s"])
                raw_setup_s.append(took["raw_s"])
        timer = SolveTimer(clock, CLOCK_GAP_MS)
        with timer.installed(), reading_after(clock, workload.clock_points, CLOCK_GAP_MS):
            rounds = run_rounds(workload, state, ledger, seconds, null, clock, timer)
        metrics, details = gated_metrics(workload, rounds, setup_s)
        raw, _ = gated_metrics(workload, [{**r, **r["raw"]} for r in rounds], raw_setup_s)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        metrics["error_rate"] = (ledger.failed / max(ledger.attempted, 1), "1")
        metrics["reference_ms"] = (statistics.median(clock.readings_ms), "ms")
        details["unscaled"] = {n: v for n, (v, _) in raw.items()}
        details["reference_ms"] = {
            "nominal": clock.nominal_ms,
            "readings": clock.readings_ms,
            "setup_nominal": setup_clock.nominal_ms,
            "setup_readings": setup_clock.readings_ms,
        }
        details["setup_s"] = {"reps": setup_s, "unscaled": raw_setup_s}
        details["rounds"] = rounds
        return metrics, details, ledger, None

    # Traced: one traced set-up, then untraced rounds for half the time
    # and traced rounds for the other half; the ratio of their median
    # scaled round times is the tracing overhead.  Neither half reads the
    # clock inside a solve's span, so spans hold only the program's time.
    tracer = Tracer()
    with tracer.installed():
        state = workload.setup(tracer)
    plain = run_rounds(workload, state, ledger, seconds / 2.0, null, clock)
    tracer.phase = "round"
    with tracer.installed():
        traced = run_rounds(workload, state, ledger, seconds / 2.0, tracer, clock)
    metrics = tracer.layer_metrics(len(traced))
    plain_s = statistics.median(r["wall_s"] for r in plain)
    traced_s = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    details = {
        "untraced_run_s": plain_s,
        "untraced_rounds": len(plain),
        "traced_rounds": len(traced),
        "reference_ms": {"nominal": clock.nominal_ms, "readings": clock.readings_ms},
    }
    return metrics, details, ledger, tracer


def gated_metrics(workload, rounds, setup_s):
    """The workload's metrics plus ``setup_s`` and ``run_s``, as medians."""
    metrics, details = workload.metrics(rounds)
    metrics["setup_s"] = (statistics.median(setup_s), "s")
    metrics["run_s"] = (statistics.median(r["wall_s"] for r in rounds), "s")
    return metrics, details


def _jsonable(value):
    return value if value == value else None  # NaN is not JSON


def main(argv=None, sizes=None):
    """Parse arguments, run the workload and print the result.

    ``sizes`` overrides the workload's sizes; the harness's smoke test
    passes tiny ones.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wdlearn" / "__init__.py").is_file():
        print(f"wdlearn sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sizes = sizes or SIZES[args.workload]
    workload = WORKLOADS[args.workload](args.seed, sizes)
    env = environment(args.workload, args.seed, sizes)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    metrics, details, ledger, tracer = measure(workload, args.seconds, args.trace)

    for name, (value, unit) in sorted(metrics.items()):
        extra = ""
        if name in details and isinstance(details[name], dict):
            brief = {k: len(v) if isinstance(v, list) else v for k, v in details[name].items()}
            extra = "  " + json.dumps(brief)
        print(f"  {name:40s} {value:14.6g} {unit}{extra}")
    for line in ledger.failures:
        print(f"  failed: {line}")

    OUT_DIR.mkdir(exist_ok=True)
    report = {
        "env": env,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "metrics": {n: {"value": _jsonable(v), "unit": u} for n, (v, u) in metrics.items()},
        "details": details,
    }
    if tracer is not None:
        report["span_fields"] = ["name", "phase", "start_ns", "end_ns", "parent"]
        report["spans"] = tracer.spans
    out = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(report))

    if args.trace:
        shown = metrics
    else:
        shown = {g: metrics[src] for g, src in workload.gated.items()}
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": _jsonable(v), "unit": u} for n, (v, u) in shown.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

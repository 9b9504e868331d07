"""Operation ledger, latency summaries, the reference clock and span
tracing for the benchmark.

The benchmark times every layer of ``wdlearn`` from outside: a traced
run replaces the public functions of each layer with wrappers that
record a span (name, start, end, parent) around the call.  The modules
import names directly (``from .ot import exact_ot`` in ``bank``,
``from scipy.optimize import linprog`` in ``ot``), so a wrapper is bound
in every ``wdlearn`` module that binds the original object, not only at
its definition.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from wdlearn.errors import WdlearnError

# An operation fails when it raises one of these: a typed wdlearn error,
# or an AssertionError from a library-internal certificate check.
OPERATION_ERRORS = (WdlearnError, AssertionError)


class Ledger:
    """Counts attempted and failed operations of the measured phase.

    An operation counts as failed when it raises ``OPERATION_ERRORS`` or
    when its check returns false; the run then goes on.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, label, fn, *args, check=None, **kwargs):
        """Call ``fn`` and then ``check`` on its result.

        Returns the result, or None if the call or the check failed.
        """
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
            ok = check is None or check(result)
        except OPERATION_ERRORS as exc:
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return None
        if not ok:
            self._fail(label, "check failed")
            return None
        return result

    def check(self, label, ok):
        """Count a stand-alone correctness check."""
        self.attempted += 1
        if not ok:
            self._fail(label, "check failed")
        return bool(ok)

    def add(self, label, attempted, failed):
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.attempted += int(attempted)
        if failed:
            self._fail(label, f"{int(failed)} of {int(attempted)} failed", int(failed))

    def _fail(self, label, reason, n=1):
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {reason}")


# ---------------------------------------------------------------------------
# latency summaries
# ---------------------------------------------------------------------------


def position_medians(series):
    """Per-input median time over rounds that ran the same inputs in order.

    Every round repeats the same operations on the same inputs, so the
    i-th sample of each round times the same input; the sample count
    stays the number of distinct inputs.
    """
    series = [s for s in series if s]
    if not series:
        return []
    n = min(len(s) for s in series)
    return [statistics.median(s[i] for s in series) for i in range(n)]


class ReferenceClock:
    """Scales wall times to a nominal machine speed.

    The shared host this benchmark runs on changes speed by up to 1.8x,
    from one tenth of a second to the next as well as over minutes, and
    CPU time follows wall time.  A fixed reference kernel that does the
    same kind of work as the measured code (``workloads.TransportReference``,
    ``workloads.NetworkReference``) slows by the same factor, to within a
    few percent.  The benchmark reads the clock, one call of the kernel,
    between the operations it times.  Work timed between two readings
    that took ``r1`` and ``r2`` ms is scaled by ``nominal_ms / mean(r1,
    r2)``: it is reported as the time it would take on a machine where the
    kernel takes ``nominal_ms``.  The kernel uses numpy and scipy alone,
    so a change to ``wdlearn`` moves only the work's time.

    ``work_s`` and ``raw_work_s`` add up the scaled and the measured time
    between readings, so the readings' own time is left out.
    """

    def __init__(self, kernel, nominal_ms):
        self.kernel = kernel
        self.nominal_ms = nominal_ms
        self.readings_ms = []
        self.listeners = []  # called with the scale of every reading
        self.work_s = 0.0
        self.raw_work_s = 0.0
        self._last = None  # (end ns, ms) of the previous reading
        kernel()  # the first call pays one-off initialization

    def read(self):
        """Time the kernel once; returns the scale of the work since the
        previous reading."""
        t0 = time.perf_counter_ns()
        self.kernel()
        t1 = time.perf_counter_ns()
        r = (t1 - t0) / 1e6
        self.readings_ms.append(r)
        if self._last is None:
            scale = self.nominal_ms / r
        else:
            end, prev = self._last
            scale = self.nominal_ms / (0.5 * (r + prev))
            self.work_s += (t0 - end) / 1e9 * scale
            self.raw_work_s += (t0 - end) / 1e9
        self._last = (t1, r)
        for listener in self.listeners:
            listener(scale)
        return scale

    def read_after(self, gap_ms):
        """Read the clock if ``gap_ms`` have passed since the last reading."""
        if self._last is None or time.perf_counter_ns() - self._last[0] >= gap_ms * 1e6:
            self.read()

    @contextmanager
    def span(self):
        """Work time of the enclosed block, without the readings inside
        it: ``out["s"]`` scaled, ``out["raw_s"]`` as measured."""
        self.read()
        start = self.work_s, self.raw_work_s
        out = {}
        yield out
        self.read()
        out["s"] = self.work_s - start[0]
        out["raw_s"] = self.raw_work_s - start[1]


def latency_summary(samples, beyond=10):
    """Median and tail of a latency list.

    The tail is the highest percentile with at least ``beyond`` samples
    beyond it: the ``beyond + 1``-th largest sample, at percentile
    ``100 (n - beyond) / n``.  With ``beyond`` or fewer samples the tail
    is the maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no latency samples")
    k = n - 1 - beyond if n > beyond else n - 1
    return {
        "p50": statistics.median(xs),
        "tail": xs[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "samples": n,
    }


# ---------------------------------------------------------------------------
# rebinding public names
# ---------------------------------------------------------------------------


def _wdlearn_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "wdlearn" or name.startswith("wdlearn."))
    ]


def rebind(module_name, path, make_wrapper):
    """Replace ``module.path`` by ``make_wrapper(original)``.

    A dotted ``path`` (``"Adam.step"``) patches the class attribute; a
    plain name is replaced in every ``wdlearn`` module that binds the
    same object.  Returns a function that restores the originals.
    """
    module = sys.modules[module_name]
    owner_path, _, attr = path.rpartition(".")
    if owner_path:
        owner = module
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, make_wrapper(original))
        return lambda: setattr(owner, attr, original)

    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    sites = [
        (m, name)
        for m in _wdlearn_modules()
        for name, value in list(vars(m).items())
        if value is original
    ]
    for m, name in sites:
        setattr(m, name, wrapper)

    def restore():
        for m, name in sites:
            setattr(m, name, original)

    return restore


class SolveTimer:
    """Records the wall time of every exact transport solve.

    This is the only instrument of an untraced run besides the clock: one
    pair of ``perf_counter_ns`` reads around ``wdlearn.ot.exact_ot``, which
    every exact solve (``wasserstein``, ``build_bank``,
    ``wpp_to_reference``) goes through.  The clock is read after a solve
    once ``gap_ms`` have passed since its last reading, and each solve is
    scaled by the first reading after it.
    """

    def __init__(self, clock, gap_ms):
        self.clock = clock
        self.gap_ms = gap_ms
        self.ms, self.raw_ms = [], []
        self._pending = []
        clock.listeners.append(self._scale_pending)

    def _scale_pending(self, scale):
        self.ms += [t * scale for t in self._pending]
        self._pending = []

    def take(self):
        """Scaled and measured times of the solves since the last call,
        up to the clock's last reading."""
        n = len(self.ms)
        out = self.ms, self.raw_ms[:n]
        self.ms, self.raw_ms = [], self.raw_ms[n:]
        return out

    @contextmanager
    def installed(self):
        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ms = (time.perf_counter_ns() - t0) / 1e6
                    self.raw_ms.append(ms)
                    self._pending.append(ms)
                    self.clock.read_after(self.gap_ms)

            return timed

        restore = rebind("wdlearn.ot", "exact_ot", make)
        try:
            yield self
        finally:
            restore()


@contextmanager
def reading_after(clock, targets, gap_ms):
    """Read ``clock`` after calls of each ``(module, path)`` in ``targets``
    once ``gap_ms`` have passed since the previous reading, so that a long
    library call (a whole training run) is scaled piece by piece."""

    def make(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                clock.read_after(gap_ms)

        return wrapped

    restores = [rebind(module, path, make) for module, path in targets]
    try:
        yield
    finally:
        for restore in reversed(restores):
            restore()


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _nit(tracer, args, kwargs, result):
    tracer.count("ot.linprog.simplex_iters", int(result.nit))


def _eval_flops(tracer, args, kwargs, result):
    bank, weights = args[0], args[1]
    tracer.count("bank.eval_G_many.flops", 2 * weights.shape[0] * weights.shape[1] * len(bank))


def _skipped(tracer, args, kwargs, result):
    tracer.count("adversarial.skipped_steps", sum(int(r["skipped_steps"]) for r in result))


# (span name, module, attribute path, hook run on each result)
SPAN_TARGETS = [
    ("ot.exact_ot", "wdlearn.ot", "exact_ot", None),
    ("ot.solve_transport_lp", "wdlearn.ot", "solve_transport_lp", None),
    ("ot.linprog", "wdlearn.ot", "linprog", _nit),
    ("ot.sinkhorn", "wdlearn.ot", "sinkhorn", None),
    ("ot.pairwise_wasserstein", "wdlearn.ot", "pairwise_wasserstein", None),
    ("bank.build_bank", "wdlearn.bank", "build_bank", None),
    ("bank.eval_G_many", "wdlearn.bank", "eval_G_many", _eval_flops),
    ("bank.select_cover_indices", "wdlearn.bank", "select_cover_indices", None),
    ("erm.double_orthogonalize", "wdlearn.erm", "double_orthogonalize", None),
    ("erm.assemble", "wdlearn.erm", "assemble", None),
    ("erm.solve_regularized", "wdlearn.erm", "solve_regularized", None),
    ("nets.forward_cached", "wdlearn.nets", "ReluNetwork.forward_cached", None),
    ("nets.backward", "wdlearn.nets", "backward", None),
    ("nets.Adam.step", "wdlearn.nets", "Adam.step", None),
    ("nets.train", "wdlearn.nets", "train", None),
    ("nets.cylinder_field_batch", "wdlearn.nets", "cylinder_field_batch", None),
    ("adversarial.run_algorithm1", "wdlearn.adversarial", "run_algorithm1", _skipped),
    ("adversarial.adversary_step_grads", "wdlearn.adversarial", "adversary_step_grads", None),
    ("adversarial.solution_step_grads", "wdlearn.adversarial", "solution_step_grads", None),
    ("subcover.p_eps_k_closed", "wdlearn.subcover", "p_eps_k_closed", None),
    ("subcover.p_eps_k_monte_carlo", "wdlearn.subcover", "p_eps_k_monte_carlo", None),
    ("subcover.covering_number_bound", "wdlearn.subcover", "covering_number_bound", None),
    ("subcover.empirical_subcover_measure", "wdlearn.subcover", "empirical_subcover_measure", None),
    ("subcover.nested_wasserstein", "wdlearn.subcover", "nested_wasserstein", None),
    ("experiments.make_synthetic_dataset", "wdlearn.experiments", "make_synthetic_dataset", None),
    ("experiments.wpp_to_reference", "wdlearn.experiments", "wpp_to_reference", None),
]

# Called about 400 times per Sinkhorn solve: counted, not spanned.
COUNT_TARGETS = [("ot.logsumexp.calls", "wdlearn.ot", "logsumexp")]

LAYERS = ("ot", "bank", "erm", "nets", "adversarial", "subcover", "experiments", "measures")


@dataclass
class _Totals:
    calls: dict = field(default_factory=dict)
    total_ns: dict = field(default_factory=dict)
    self_ns: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def add_span(self, name, dur, self_dur):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.self_ns[name] = self.self_ns.get(name, 0) + self_dur

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    """In-memory spans with per-name totals, split by phase.

    ``phase`` is ``"setup"`` or ``"round"``; the runner sets it.  A
    span's self time is its duration minus the durations of its direct
    children (calls are nested and single-threaded, so children never
    overlap).  A ``WdlearnError`` is counted as ``<layer>.failures`` at
    the span where it crosses into the layer from outside.
    """

    def __init__(self):
        self.spans = []  # (name, phase, start_ns, end_ns, parent index)
        self.phase = "setup"
        self.totals = {"setup": _Totals(), "round": _Totals()}
        self.facts = {}
        self._stack = []  # [span index, layer, start_ns, child_ns]

    def count(self, name, n=1):
        self.totals[self.phase].count(name, n)

    def note(self, name, value):
        """Record a computed quantity, e.g. a flop count from layer shapes."""
        self.facts[name] = value

    def call(self, name, fn, *args, **kwargs):
        """Span around a single call made by the benchmark itself."""
        return self._span(name, fn, args, kwargs, None)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs, hook)

        return traced

    def _span(self, name, fn, args, kwargs, hook):
        layer = name.split(".", 1)[0]
        outside = not self._stack or self._stack[-1][1] != layer
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, layer, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except WdlearnError:
            if outside:
                self.count(f"{layer}.failures")
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - frame[2]
            if self._stack:
                self._stack[-1][3] += dur
            self.spans[index] = (name, self.phase, frame[2], end, parent)
            self.totals[self.phase].add_span(name, dur, dur - frame[3])
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def _counter(self, name, fn):
        totals = self.totals

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            totals[self.phase].count(name, 1)
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        restores = []
        try:
            for name, module, path, hook in SPAN_TARGETS:
                restores.append(
                    rebind(module, path, lambda fn, n=name, h=hook: self._wrap(n, fn, h))
                )
            for name, module, path in COUNT_TARGETS:
                restores.append(rebind(module, path, lambda fn, n=name: self._counter(n, fn)))
            yield self
        finally:
            for restore in reversed(restores):
                restore()

    def layer_metrics(self, rounds):
        """Per-layer metrics of one set-up plus one measured round.

        Round totals are averaged over the ``rounds`` traced rounds.
        """
        setup, rnd = self.totals["setup"], self.totals["round"]
        scale = 1.0 / max(rounds, 1)

        def calls(name):
            return setup.calls.get(name, 0) + rnd.calls.get(name, 0) * scale

        def seconds(name):
            return (setup.total_ns.get(name, 0) + rnd.total_ns.get(name, 0) * scale) / 1e9

        def self_seconds(name):
            return (setup.self_ns.get(name, 0) + rnd.self_ns.get(name, 0) * scale) / 1e9

        def counted(name):
            return setup.counts.get(name, 0) + rnd.counts.get(name, 0) * scale

        m = {}
        m["ot.exact_ot.calls"] = (calls("ot.exact_ot"), "count")
        m["ot.exact_ot.self_s"] = (self_seconds("ot.exact_ot"), "s")
        m["ot.solve_transport_lp.self_s"] = (self_seconds("ot.solve_transport_lp"), "s")
        m["ot.linprog.s"] = (seconds("ot.linprog"), "s")
        iters = counted("ot.linprog.simplex_iters")
        m["ot.linprog.simplex_iters"] = (iters, "count")
        lp_calls = calls("ot.linprog")
        m["ot.linprog.iters_per_solve"] = (iters / lp_calls if lp_calls else 0.0, "count")
        m["ot.sinkhorn.calls"] = (calls("ot.sinkhorn"), "count")
        m["ot.sinkhorn.s"] = (seconds("ot.sinkhorn"), "s")
        sk_iters = counted("ot.logsumexp.calls") / 2.0
        m["ot.sinkhorn.iters"] = (sk_iters, "count")
        m["ot.sinkhorn.iter_us"] = (
            seconds("ot.sinkhorn") / sk_iters * 1e6 if sk_iters else 0.0,
            "us",
        )
        m["ot.pairwise_wasserstein.s"] = (seconds("ot.pairwise_wasserstein"), "s")

        m["bank.build_bank.self_s"] = (self_seconds("bank.build_bank"), "s")
        m["bank.eval_G_many.calls"] = (calls("bank.eval_G_many"), "count")
        m["bank.eval_G_many.s"] = (seconds("bank.eval_G_many"), "s")
        m["bank.eval_G_many.flops"] = (counted("bank.eval_G_many.flops"), "flop")
        m["bank.select_cover_indices.s"] = (seconds("bank.select_cover_indices"), "s")

        for name in ("double_orthogonalize", "assemble", "solve_regularized"):
            m[f"erm.{name}.s"] = (seconds(f"erm.{name}"), "s")

        m["nets.forward_cached.calls"] = (calls("nets.forward_cached"), "count")
        m["nets.forward_cached.s"] = (seconds("nets.forward_cached"), "s")
        m["nets.forward.flops_per_sample"] = (
            self.facts.get("nets.forward.flops_per_sample", 0),
            "flop",
        )
        m["nets.backward.calls"] = (calls("nets.backward"), "count")
        m["nets.backward.s"] = (seconds("nets.backward"), "s")
        m["nets.Adam.step.calls"] = (calls("nets.Adam.step"), "count")
        m["nets.Adam.step.s"] = (seconds("nets.Adam.step"), "s")
        m["nets.train.self_s"] = (self_seconds("nets.train"), "s")
        m["nets.cylinder_field_batch.self_s"] = (self_seconds("nets.cylinder_field_batch"), "s")

        for name in ("adversary_step_grads", "solution_step_grads"):
            m[f"adversarial.{name}.self_s"] = (self_seconds(f"adversarial.{name}"), "s")
        m["adversarial.skipped_steps"] = (counted("adversarial.skipped_steps"), "count")

        for name in ("p_eps_k_closed", "p_eps_k_monte_carlo", "covering_number_bound"):
            m[f"subcover.{name}.s"] = (seconds(f"subcover.{name}"), "s")
        m["subcover.nested_wasserstein.self_s"] = (self_seconds("subcover.nested_wasserstein"), "s")

        m["experiments.make_synthetic_dataset.s"] = (
            seconds("experiments.make_synthetic_dataset"),
            "s",
        )
        for layer in LAYERS:
            m[f"{layer}.failures"] = (counted(f"{layer}.failures"), "count")
        return m


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, name, value):
        pass

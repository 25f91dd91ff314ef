"""Timing wrappers around the public functions of the peakonlaws layers.

The tracer replaces each listed function by a wrapper, both in the module
that defines it and in every peakonlaws module that imported it by name,
and restores the originals on `uninstall`. All bookkeeping stays in
memory until `dump` writes it once.

Every wrapped call keeps a frame on one stack, so a frame's self time is
its duration minus the time of the wrapped calls made inside it. Calls of
the names in RECORDED also keep a span record (name, start, end, parent),
where the parent is the nearest recorded enclosing span. High-frequency
functions (the FFTs, `evaluate_with_scale`) are only aggregated.
`expr.evaluate` is deliberately not wrapped: it runs ~300k times per pass.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (defining module, function, metric stem)
TIMED = (
    ("peakonlaws.expr", "parse", "expr.parse"),
    ("peakonlaws.expr", "euler_u", "expr.euler_u"),
    ("peakonlaws.expr", "is_zero", "expr.is_zero"),
    ("peakonlaws.expr", "sample_points", "expr.sample_points"),
    ("peakonlaws.conslaw", "classify", "conslaw.classify"),
    ("peakonlaws.conslaw", "check_momentum", "conslaw.check_momentum"),
    ("peakonlaws.conslaw", "check_h1", "conslaw.check_h1"),
    ("peakonlaws.conslaw", "check_grad_energy", "conslaw.check_grad_energy"),
    ("peakonlaws.conslaw", "flux_momentum", "conslaw.flux"),
    ("peakonlaws.conslaw", "flux_h1", "conslaw.flux"),
    ("peakonlaws.conslaw", "flux_grad_energy", "conslaw.flux"),
    ("peakonlaws.conslaw", "characteristic_check", "conslaw.characteristic_check"),
    ("peakonlaws.pde", "helmholtz_u", "pde.helmholtz_u"),
    ("peakonlaws.pde", "eval_on_grid", "pde.eval_on_grid"),
    ("peakonlaws.pde", "run", "pde.run"),
    ("peakonlaws.pde", "initial_data", "pde.initial_data"),
    ("peakonlaws.pde", "write_series_csv", "pde.write_series_csv"),
    ("peakonlaws.pde", "write_snapshots_csv", "pde.write_snapshots_csv"),
    ("peakonlaws.twave", "solitary_profile", "twave.solitary_profile"),
    ("peakonlaws.cli", "cmd_simulate", "cli.simulate"),
)
FFTS = (("numpy.fft", "rfft"), ("numpy.fft", "irfft"))
RECORDED = frozenset({"bench.op", "conslaw.classify", "conslaw.characteristic_check",
                      "pde.run", "cli.simulate"})
# eval_on_grid recurses through its own module global; only the outermost
# call of a nest is counted and timed
TOP_LEVEL_ONLY = frozenset({"pde.eval_on_grid"})


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()  # event counters other than calls
        self.spans = []  # (name, start, end, parent index or None)
        self._stack = []  # frames: [start, child seconds, recorded index]
        self._depth = Counter()
        self._patched = []  # (namespace, attribute, original)

    # -- frames ------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][2] if self._stack else None
        index = parent
        if name in RECORDED:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        frame = [time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _leave(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if name in RECORDED:
            _, _, _, parent = self.spans[frame[2]]
            self.spans[frame[2]] = (name, frame[0], end, parent)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the caller's own code."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._leave(name, frame)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn):
        top_only = name in TOP_LEVEL_ONLY
        on_result = self._is_zero_path if name == "expr.is_zero" else None

        def wrapper(*args, **kwargs):
            if top_only and self._depth[name]:
                return fn(*args, **kwargs)
            self._depth[name] += 1
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame)
                self._depth[name] -= 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _is_zero_path(self, verdict):
        self.counts["expr.is_zero.exact_calls" if verdict.exact else "expr.is_zero.sampled_calls"] += 1

    def _fft(self, fn):
        counts, total_s, stack = self.counts, self.total_s, self._stack
        clock = time.perf_counter

        def wrapper(a, *args, **kwargs):
            start = clock()
            out = fn(a, *args, **kwargs)
            duration = clock() - start
            counts["pde.fft.calls"] += 1
            counts["pde.fft.bytes_computed"] += getattr(a, "nbytes", 0) + out.nbytes
            total_s["pde.fft"] += duration
            if stack:
                stack[-1][1] += duration
            return out

        return wrapper

    def _sampled(self, fn):
        counts = self.counts

        def wrapper(e, point):
            value, scale = fn(e, point)
            counts["expr.evaluate_with_scale.calls"] += 1
            if math.isfinite(value) and math.isfinite(scale):
                counts["expr.sample.accepted"] += 1
            return value, scale

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, module_name, attr, wrapper):
        """Bind `wrapper` wherever peakonlaws holds the original function."""
        original = getattr(sys.modules[module_name], attr)
        namespaces = [sys.modules[module_name]] + [
            mod for name, mod in sorted(sys.modules.items())
            if (name == "peakonlaws" or name.startswith("peakonlaws.")) and name != module_name
        ]
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        for module_name, attr, name in TIMED:
            fn = getattr(sys.modules[module_name], attr)
            self._replace(module_name, attr, self._timed(name, fn))
        fn = sys.modules["peakonlaws.expr"].evaluate_with_scale
        self._replace("peakonlaws.expr", "evaluate_with_scale", self._sampled(fn))
        for module_name, attr in FFTS:
            self._replace(module_name, attr, self._fft(getattr(sys.modules[module_name], attr)))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path):
        doc = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer, steps: int, bench_counts: Counter) -> dict:
    """Per-layer metrics from one traced pass; per-step values divide by `steps`."""
    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    classify_calls = calls["conslaw.classify"]
    evaluated = counts["expr.evaluate_with_scale.calls"]

    def per_step(v):
        return v / steps if steps else 0.0

    return {
        "expr.parse.s": total["expr.parse"],
        "expr.euler_u.calls": calls["expr.euler_u"],
        "expr.euler_u.calls_per_classify": calls["expr.euler_u"] / classify_calls if classify_calls else 0.0,
        "expr.euler_u.s": total["expr.euler_u"],
        "expr.is_zero.exact_calls": counts["expr.is_zero.exact_calls"],
        "expr.is_zero.sampled_calls": counts["expr.is_zero.sampled_calls"],
        "expr.is_zero.s": total["expr.is_zero"],
        "expr.sample_points.s": total["expr.sample_points"],
        "expr.evaluate_with_scale.calls": evaluated,
        "expr.sample.accepted": counts["expr.sample.accepted"],
        "expr.sample.accept_ratio": counts["expr.sample.accepted"] / evaluated if evaluated else 0.0,
        "conslaw.classify.calls": classify_calls,
        "conslaw.classify.self_s": own["conslaw.classify"],
        "conslaw.check_momentum.s": total["conslaw.check_momentum"],
        "conslaw.check_h1.s": total["conslaw.check_h1"],
        "conslaw.check_grad_energy.s": total["conslaw.check_grad_energy"],
        "conslaw.flux.s": total["conslaw.flux"],
        "conslaw.currents_built": bench_counts["currents_built"],
        "conslaw.characteristic_check.calls": calls["conslaw.characteristic_check"],
        "conslaw.characteristic_check.s": total["conslaw.characteristic_check"],
        "conslaw.indeterminate": bench_counts["indeterminate"],
        "pde.rk4_steps": steps,
        "pde.fft_calls_per_step": per_step(counts["pde.fft.calls"]),
        "pde.fft.s": total["pde.fft"],
        "pde.fft_bytes_per_step_computed": per_step(counts["pde.fft.bytes_computed"]),
        "pde.helmholtz_u.calls_per_step": per_step(calls["pde.helmholtz_u"]),
        "pde.helmholtz_u.s": total["pde.helmholtz_u"],
        "pde.eval_on_grid.calls_per_step": per_step(calls["pde.eval_on_grid"]),
        "pde.eval_on_grid.s": total["pde.eval_on_grid"],
        "pde.run.self_s": own["pde.run"],
        "pde.initial_data.s": total["pde.initial_data"],
        "pde.write_series_csv.s": total["pde.write_series_csv"],
        "pde.write_snapshots_csv.s": total["pde.write_snapshots_csv"],
        "twave.solitary_profile.calls": calls["twave.solitary_profile"],
        "twave.solitary_profile.s": total["twave.solitary_profile"],
        "cli.simulate.self_s": own["cli.simulate"],
        "cli.bytes_written": bench_counts["bytes_written"],
    }

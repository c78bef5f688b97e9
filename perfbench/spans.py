"""Span tracer that wraps pilotwave's layer entry points from outside.

`Tracer.install()` replaces every binding of the traced functions in every
pilotwave module (scenarios, ensemble and branches import guidance and
propagate functions by name), the `SplitOperator.step_array` method, and the
scipy.fft entry points the modules call.  Each call into a traced function
records a span (name, start, end, parent); FFTs are only counted, against the
layer of the innermost open span.  Spans stay in memory until `dump()`.
`uninstall()` restores every binding it replaced.

Counters that need a traced call's inputs or outputs are computed in hooks
that run outside the timed call, under a "trace.hook" span, so hook time is
not charged to any layer's self time.  `calibrate()` times the wrappers
themselves in the same process, so `layer_metrics` can state what tracing
cost the run: hook time plus wrapper calls times their calibrated cost.
"""

import importlib
import statistics
import time
from collections import defaultdict

import numpy as np
import scipy.fft

MODULES = ("fields", "propagate", "guidance", "ensemble", "branches",
           "scenarios", "cli")

# (module, function) pairs traced with a span
FUNCTIONS = (
    ("fields", "init_gaussian"),
    ("fields", "marginal_density"),
    ("propagate", "evolve"),
    ("guidance", "velocity_field"),
    ("guidance", "velocity_at_many"),
    ("guidance", "advance_interval"),
    ("guidance", "simulate_trajectories"),
    ("ensemble", "sample_initial"),
    ("ensemble", "equivariance_test"),
    ("branches", "overlap_factor"),
    ("branches", "interference_term"),
    ("branches", "single_branch_error"),
    ("scenarios", "coevolve"),
    ("scenarios", "run_scenario"),
    ("cli", "cmd_run"),
)
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn")
HOOK = "trace.hook"


def _all_modules():
    pkg = importlib.import_module("pilotwave")
    return [pkg] + [importlib.import_module(f"pilotwave.{m}") for m in MODULES]


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.spans = []          # [name id, start, end, parent index or -1]
        self._stack = []
        self.counters = defaultdict(float)
        self._restore = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        rec = [nid, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _hook(self, fn, *args):
        rec = self._open(self._name_id(HOOK))
        try:
            fn(*args)
        finally:
            self._close(rec)

    def layer(self):
        """Module of the innermost open span ("none" outside every span)."""
        if not self._stack:
            return "none"
        return self.names[self.spans[self._stack[-1]][0]].split(".")[0]

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording a span per call; hooks see (args, kwargs[, result])."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            rec = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                self._hook(after, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_fft(self, fn):
        def counted(x, *args, **kwargs):
            layer = self.layer()
            self.counters[f"{layer}.fft.calls"] += 1
            self.counters[f"{layer}.fft.points"] += np.size(x)
            return fn(x, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        from pilotwave import guidance, propagate

        mods = _all_modules()
        hooks = _hooks(self, guidance)
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(importlib.import_module(f"pilotwave.{mod_name}"),
                           fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapped = self.wrap(name, orig, *hooks.get(name, (None, None)))
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapped)
        op = propagate.SplitOperator
        self._patch(op, "step_array", self.wrap(
            "propagate.step_array", op.step_array,
            *hooks["propagate.step_array"]))
        for fn_name in FFT_FUNCTIONS:
            self._patch(scipy.fft, fn_name,
                        self._count_fft(getattr(scipy.fft, fn_name)))

    def calibrate(self, calls=20000, repeats=5):
        """Store the cost of one span wrapper and of one FFT counter call.

        Each cost is the median over `repeats` of (time of `calls` wrapped
        calls - time of `calls` bare calls) / `calls`, on a no-op, with a
        throwaway tracer so this tracer's spans are untouched.
        """
        probe = Tracer("calibrate")
        x = np.zeros(1)

        def noop(*args, **kwargs):
            return None

        def per_call(fn):
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn(x)
                t1 = time.perf_counter()
                for _ in range(calls):
                    noop(x)
                t2 = time.perf_counter()
                samples.append(((t1 - t0) - (t2 - t1)) / calls)
            return max(statistics.median(samples), 0.0)

        self.counters["trace.span_cost_s"] = per_call(
            probe.wrap("calibrate.noop", noop))
        self.counters["trace.fft_cost_s"] = per_call(probe._count_fft(noop))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def dump(self):
        return {"run_id": self.run_id, "names": self.names,
                "spans": self.spans, "counters": dict(self.counters)}


def _hooks(tracer, guidance):
    """(before, after) hooks per span name, feeding tracer.counters."""
    c = tracer.counters
    # the untraced function: hooks must not record spans of their own
    v_at_many = guidance.velocity_at_many

    def count(key, n):
        c[key] += n

    def step_points(args, kwargs):
        count("propagate.step_array.points", np.size(args[1]))

    def field_points(args, kwargs):
        count("guidance.velocity_field.points", np.size(args[0].amplitudes))

    def interp_points(args, kwargs):
        count("guidance.velocity_at_many.points", len(np.atleast_2d(args[1])))

    def substeps(args, kwargs):
        # the CFL rule of advance_interval, evaluated per particle
        vf0, vf1, pts, dt = args
        va, _ = v_at_many(vf0, pts)
        vb, _ = v_at_many(vf1, pts)
        speed = np.maximum(np.abs(va).max(axis=1), np.abs(vb).max(axis=1))
        need = np.ceil(speed * dt / (guidance.SUBSTEP_CFL * min(vf0.grid.dxs)))
        need = np.maximum(need, 1)
        count("guidance.particle_intervals", len(pts))
        count("guidance.substeps_needed",
              float(np.minimum(need, guidance.MAX_SUBSTEPS).sum()))
        count("guidance.max_substeps_hits",
              int(need.max() > guidance.MAX_SUBSTEPS))

    def frozen_trajectories(args, kwargs, out):
        count("guidance.frozen_particles", sum(tr.degenerate for tr in out))

    def frozen_probes(args, kwargs, out):
        count("guidance.frozen_particles",
              sum(int(np.sum(d)) for d in out.probe_degenerate))

    def snapshot_bytes(args, kwargs, out):
        count("propagate.evolve.snapshot_bytes",
              sum(s.nbytes for s in out.snapshots))

    def histograms(args, kwargs, out):
        count("ensemble.equivariance_test.histograms",
              len(out.times) * (1 + out.bootstrap_resamples))

    return {
        "propagate.step_array": (step_points, None),
        "propagate.evolve": (None, snapshot_bytes),
        "guidance.velocity_field": (field_points, None),
        "guidance.velocity_at_many": (interp_points, None),
        "guidance.advance_interval": (substeps, None),
        "guidance.simulate_trajectories": (None, frozen_trajectories),
        "scenarios.coevolve": (None, frozen_probes),
        "ensemble.equivariance_test": (None, histograms),
    }


def span_totals(dump):
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the time its direct children cover;
    in one thread children never overlap, so that is the sum of their
    durations.  Hook spans count as children but are not reported.
    """
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (nid, start, end, parent) in enumerate(spans):
        name = dump["names"][nid]
        if name == HOOK:
            continue
        t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += (end - start) - child[i]
    return out


def layer_metrics(dump):
    """Per-layer metrics of one traced run, keyed by metric name."""
    tot = span_totals(dump)
    c = defaultdict(float, dump["counters"])

    def span(name, q):
        return tot.get(name, {}).get(q, 0)

    m = {}
    for name in ["propagate.step_array"] + [f"{mod}.{fn}"
                                            for mod, fn in FUNCTIONS]:
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.self_s"] = span(name, "self_s")
    for name in ("propagate.step_array", "guidance.velocity_field",
                 "guidance.velocity_at_many"):
        pts = int(c[f"{name}.points"])
        m[f"{name}.points"] = pts
        m[f"{name}.ns_per_point"] = (1e9 * m[f"{name}.self_s"] / pts
                                     if pts else 0.0)
    for layer in ("propagate", "guidance"):
        m[f"{layer}.fft.calls"] = int(c[f"{layer}.fft.calls"])
        m[f"{layer}.fft.points"] = int(c[f"{layer}.fft.points"])
    m["propagate.evolve.snapshot_mb"] = (
        c["propagate.evolve.snapshot_bytes"] / 2**20)
    for key in ("guidance.particle_intervals", "guidance.substeps_needed",
                "guidance.max_substeps_hits", "guidance.frozen_particles",
                "ensemble.equivariance_test.histograms"):
        m[key] = int(c[key])
    interp = m["guidance.velocity_at_many.points"]
    # each RK4 substep interpolates at 4 stages x 2 time levels; each
    # interval first interpolates once per time level to pick its substeps
    m["guidance.interp_useful_ratio"] = (
        (8 * c["guidance.substeps_needed"]
         + 2 * c["guidance.particle_intervals"]) / interp if interp else 0.0)
    m["cli.write_s"] = (span("cli.cmd_run", "total_s")
                        - span("scenarios.run_scenario", "total_s"))
    # what tracing added to the run: hook time, plus every span wrapper and
    # FFT counter call at the per-call cost calibrate() measured
    hook_s = sum(end - start for nid, start, end, _ in dump["spans"]
                 if dump["names"][nid] == HOOK)
    fft_calls = sum(v for k, v in c.items() if k.endswith(".fft.calls"))
    m["trace.overhead_s"] = (hook_s
                             + len(dump["spans"]) * c["trace.span_cost_s"]
                             + fft_calls * c["trace.fft_cost_s"])
    return m

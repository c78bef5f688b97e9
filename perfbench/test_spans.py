"""Tests of the benchmark tracer: arithmetic, patching, and no effect on results."""

import importlib
import json
import sys
from pathlib import Path

import scipy.fft

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import (FFT_FUNCTIONS, HOOK, MODULES, Tracer,  # noqa: E402
                   layer_metrics, span_totals)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]), b [5, 7] and a hook
    dump = {"names": ["a", "b", "c", HOOK], "counters": {},
            "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 2.0, 3.0, 1],
                      [1, 5.0, 7.0, 0], [3, 7.0, 8.0, 0]]}
    tot = span_totals(dump)
    assert tot["a"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert tot["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert tot["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert HOOK not in tot


def _bindings():
    from pilotwave import propagate
    mods = [importlib.import_module("pilotwave")] + [
        importlib.import_module(f"pilotwave.{m}") for m in MODULES]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
           if callable(v)}
    out["step_array"] = propagate.SplitOperator.step_array
    for f in FFT_FUNCTIONS:
        out[("scipy.fft", f)] = getattr(scipy.fft, f)
    return out


def test_uninstall_restores_every_binding():
    from pilotwave import cli, ensemble, guidance, scenarios
    before = _bindings()
    tracer = Tracer("test")
    tracer.install()
    try:
        # functions imported by name are patched where they are used too
        for mod in (guidance, ensemble, scenarios):
            assert mod.simulate_trajectories.__wrapped__ is \
                before[(guidance.__name__, "simulate_trajectories")]
        assert cli.run_scenario is not before[(cli.__name__, "run_scenario")]
        assert scipy.fft.fftn is not before[("scipy.fft", "fftn")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _run(tmp_path, name, tracer=None):
    from pilotwave import cli
    spec = HERE.parent / "src/pilotwave/specs/interference.json"
    out = tmp_path / name
    if tracer is not None:
        tracer.install()
    try:
        cli.cmd_run(str(spec), str(out), ["ensemble.n_particles=200",
                                          "schedule.t_end=1.2"], threads=1)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return json.loads((out / "report.json").read_text())


def test_tracing_changes_no_result(tmp_path):
    plain = _run(tmp_path, "plain")
    tracer = Tracer("test")
    traced = _run(tmp_path, "traced", tracer)
    for key in ("metrics", "verdicts", "twin"):
        assert json.dumps(traced[key]) == json.dumps(plain[key])
    tot = span_totals(tracer.dump())
    assert tot["cli.cmd_run"]["calls"] == 1
    # two packets, each evolved over t_end / dt steps
    assert tot["propagate.step_array"]["calls"] == 2 * 600
    assert tracer.counters["propagate.fft.calls"] > 0
    # the overhead estimate is calibrated in-process and never negative
    tracer.calibrate(calls=2000, repeats=3)
    assert tracer.counters["trace.span_cost_s"] > 0
    assert layer_metrics(tracer.dump())["trace.overhead_s"] > 0

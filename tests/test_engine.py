"""The stepping loop and the particle advance, checked against reference loops.

`evolve` and `coevolve` share one stepping loop, and `simulate_trajectories`
and the probes of `coevolve` share one particle-advance routine.  The
reference functions below are the separate loops those replaced, kept as
oracles: on every case where the old loops agreed with each other, the shared
code must give the same bits.

The one exception is a free-flight jump over more than one step: where the
Hamiltonian is kinetic only, the shared loop applies exp(-i K n dt) once
instead of n Strang steps, which rounds differently.  A one-step jump keeps
the bits.
"""

import numpy as np
import pytest

from pilotwave import guidance
from pilotwave.fields import PhysicalParams, WaveFunction, init_gaussian, make_grid, normalize
from pilotwave.guidance import (
    advance_interval, gate_kick, simulate_trajectories, velocity_field,
)
from pilotwave.propagate import (
    EvolutionRecord, HamiltonianSpec, MeasurementCoupling, PotentialTerm,
    Schedule, SplitOperator, evolve,
)
from pilotwave.scenarios import builtin_spec, coevolve


# ---------------------------------------------------------------------------
# reference loops

def reference_evolve(psi, hamiltonian, schedule, params):
    op = SplitOperator(psi.grid, params, hamiltonian, schedule.dt)
    amp = psi.amplitudes.copy()
    times, snaps, norms, energies = [], [], [], []

    def record(i, a):
        t = schedule.time_at(i)
        times.append(t)
        snaps.append(a.copy())
        norms.append(float(np.sqrt(np.sum(np.abs(a) ** 2) * psi.grid.dV)))
        e = op.energy(a, t if i < schedule.n_steps else None)
        energies.append(np.nan if e is None else e)

    record(0, amp)
    for i in range(schedule.n_steps):
        amp = op.step_array(amp, schedule.time_at(i))
        if (i + 1) % schedule.stride == 0 or i + 1 == schedule.n_steps:
            record(i + 1, amp)
    return EvolutionRecord(psi.grid, params, hamiltonian, schedule,
                           np.asarray(times), snaps, np.asarray(norms),
                           np.asarray(energies))


def reference_trajectories(record, x0s):
    """Paths (T, N, D) and frozen flags; frozen particles take the kick."""
    pts = record.grid.wrap(np.atleast_2d(np.asarray(x0s, dtype=float)))
    frozen = np.zeros(len(pts), dtype=bool)
    path = [pts.copy()]
    coupling = record.hamiltonian.coupling
    vf0 = velocity_field(record.wave_at(0), record.params)
    for a in range(len(record.snapshots) - 1):
        b = a + 1
        vf1 = velocity_field(record.wave_at(b), record.params)
        t0, t1 = record.times[a], record.times[b]
        pts = gate_kick(record.grid, pts, coupling, t0, t1)
        new, degen = advance_interval(vf0, vf1, pts, t1 - t0)
        new = gate_kick(record.grid, new, coupling, t0, t1)
        newly = degen & ~frozen
        new[newly] = pts[newly]
        frozen |= newly
        new[frozen] = pts[frozen]
        pts = new
        path.append(pts.copy())
        vf0 = vf1
    return np.asarray(path), frozen


def reference_probes(psi, hamiltonian, schedule, params, x0s):
    """Paths (T, N, D) and frozen flags of probes guided by one component."""
    grid = psi.grid
    op = SplitOperator(grid, params, hamiltonian, schedule.dt)
    amp = psi.amplitudes.copy()
    pts = grid.wrap(np.atleast_2d(np.asarray(x0s, dtype=float)))
    frozen = np.zeros(len(pts), dtype=bool)
    path = [pts.copy()]
    vf = velocity_field(WaveFunction(grid, amp, schedule.t_start), params)
    t_prev = schedule.t_start
    for i in range(schedule.n_steps):
        amp = op.step_array(amp, schedule.time_at(i))
        if (i + 1) % schedule.stride == 0 or i + 1 == schedule.n_steps:
            t_now = schedule.time_at(i + 1)
            vf1 = velocity_field(WaveFunction(grid, amp, t_now), params)
            kicked = gate_kick(grid, pts, hamiltonian.coupling, t_prev, t_now)
            new, degen = advance_interval(vf, vf1, kicked, t_now - t_prev)
            new = gate_kick(grid, new, hamiltonian.coupling, t_prev, t_now)
            frozen |= degen & ~frozen
            new[frozen] = pts[frozen]
            pts = new
            path.append(new.copy())
            vf = vf1
            t_prev = t_now
    return np.asarray(path), frozen


# ---------------------------------------------------------------------------
# cases

def case_1d():
    g = make_grid([{"points": 256, "lo": -16.0, "hi": 16.0}])
    a = init_gaussian(g, [-4.0], [0.7], [2.0])
    b = init_gaussian(g, [4.0], [0.7], [-2.0])
    psi = normalize(WaveFunction(g, a.amplitudes + b.amplitudes))
    H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=0.2),))
    x0s = np.linspace(-6.0, 6.0, 25)[:, None]
    return psi, H, Schedule(0, 1.5, 0.01, 5), PhysicalParams(), x0s


def case_2d_nodes():
    # ground x first excited along axis 0: a nodal line at x = 0, plus a
    # windowed potential; the last two starts sit where the wave is nodal
    g = make_grid([{"points": 48, "lo": -6.0, "hi": 6.0},
                   {"points": 40, "lo": -5.0, "hi": 5.0}])
    x, y = g.mesh(0), g.mesh(1)
    amp = (1.0 + 0.8 * x) * np.exp(-(x ** 2 + y ** 2) / 2.0)
    psi = normalize(WaveFunction(g, amp.astype(complex)))
    H = HamiltonianSpec((
        PotentialTerm.make("harmonic", [0], omega=1.0),
        PotentialTerm.make("harmonic", [1], omega=1.0),
        PotentialTerm.make("gaussian_barrier", [1], window=(0.1, 0.3),
                           height=0.5, width=1.0),
    ))
    x0s = np.array([[-1.0, 0.5], [-0.3, -0.2], [0.2, 0.1], [1.1, 0.7],
                    [0.5, -1.2], [5.5, 4.5], [-5.5, -4.6]])
    return psi, H, Schedule(0, 0.6, 0.02, 3), PhysicalParams(masses=(1.0, 1.0)), x0s


def case_2d_gated():
    g = make_grid([{"points": 48, "lo": -8.0, "hi": 8.0},
                   {"points": 64, "lo": -8.0, "hi": 8.0}])
    params = PhysicalParams(masses=(1.0, 20.0))
    sa = init_gaussian(g, [-2.0, 0.0], [0.6, 0.5], params=params)
    sb = init_gaussian(g, [2.0, 0.0], [0.6, 0.5], params=params)
    psi = normalize(WaveFunction(g, sa.amplitudes + 0.6 * sb.amplitudes))
    H = HamiltonianSpec(coupling=MeasurementCoupling(0, 1, 1.5, 0.05, 0.25))
    x0s = np.array([[-2.3, 0.2], [-1.8, -0.3], [1.9, 0.4], [2.4, -0.1],
                    [0.1, 0.0]])
    return psi, H, Schedule(0, 0.4, 0.01, 4), params, x0s


def case_2d_gated_stride1():
    psi, H, sched, params, x0s = case_2d_gated()
    return psi, H, Schedule(sched.t_start, sched.t_end, sched.dt, 1), params, x0s


def case_3d_gated():
    # a static potential on the environment axis keeps every step a Strang
    # step, so the reference loops agree bit for bit
    g = make_grid([{"points": 30, "lo": -10.0, "hi": 10.0},
                   {"points": 20, "lo": -8.0, "hi": 8.0},
                   {"points": 30, "lo": -10.0, "hi": 10.0}])
    params = PhysicalParams(masses=(1.0, 20.0, 5.0))
    sa = init_gaussian(g, [-2.0, 0.0, 1.0], [0.6, 0.5, 0.7], [0.0, 0.0, -1.0],
                       params=params)
    sb = init_gaussian(g, [2.0, 0.0, -1.0], [0.6, 0.5, 0.7], [0.0, 0.0, 1.0],
                       params=params)
    psi = normalize(WaveFunction(g, sa.amplitudes + 0.6 * sb.amplitudes))
    H = HamiltonianSpec(
        (PotentialTerm.make("harmonic", [2], omega=0.5),),
        coupling=MeasurementCoupling(0, 1, 1.5, 0.05, 0.25))
    x0s = np.array([[-2.3, 0.2, 0.9], [1.9, -0.1, -1.2]])
    return psi, H, Schedule(0, 0.3, 0.01, 3), params, x0s


CASES = {"1d": case_1d, "2d_nodes": case_2d_nodes, "2d_gated": case_2d_gated,
         "2d_gated_stride1": case_2d_gated_stride1, "3d_gated": case_3d_gated}

# Cases that jump over several free steps at once (no potential, and the gate
# closed for whole observation intervals), with the tolerance of each
# comparison: about 20x the largest move measured against the reference
# loops, 2.2e-15 of the peak for amplitudes, 1.3e-15 for norms, 1.6e-15 for
# energies and 5.3e-15 for probe positions.
JUMPING = {"2d_gated": {"amplitude": 5e-14, "norm": 3e-14, "energy": 3e-14,
                        "path": 1e-13}}


def assert_matches(name, what, got, want, scale=1.0):
    """Bitwise equal, or within the jumping case's tolerance for `what`."""
    if name in JUMPING:
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=JUMPING[name][what] * scale)
    else:
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_evolve_matches_reference(name):
    psi, H, sched, params, _ = CASES[name]()
    rec = evolve(psi, H, sched, params)
    ref = reference_evolve(psi, H, sched, params)
    assert np.array_equal(rec.times, ref.times)
    assert len(rec.snapshots) == len(ref.snapshots)
    peak = max(np.max(np.abs(b)) for b in ref.snapshots)
    for a, b in zip(rec.snapshots, ref.snapshots):
        assert_matches(name, "amplitude", a, b, peak)
    assert_matches(name, "norm", rec.norms, ref.norms)
    assert np.array_equal(np.isnan(rec.energies), np.isnan(ref.energies))
    assert_matches(name, "energy", rec.energies, ref.energies)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectories_match_reference(name):
    psi, H, sched, params, x0s = CASES[name]()
    rec = evolve(psi, H, sched, params)
    trs = simulate_trajectories(rec, x0s)
    path, frozen = reference_trajectories(rec, x0s)
    assert np.array_equal(np.stack([tr.positions for tr in trs], axis=1), path)
    assert np.array_equal([tr.degenerate for tr in trs], frozen)
    assert np.array_equal(trs[0].times, rec.times)
    if name == "2d_nodes":
        assert frozen[-2:].all() and not frozen[:-2].any()
    if name.startswith("2d_gated"):
        # the old loops disagree on frozen particles under a gate
        assert not frozen.any()


@pytest.mark.parametrize("name", sorted(CASES))
def test_coevolve_probes_match_reference(name):
    psi, H, sched, params, x0s = CASES[name]()
    res = coevolve([psi], H, sched, params, x0s)
    path, frozen = reference_probes(psi, H, sched, params, x0s)
    assert_matches(name, "path", res.probe_paths, path)
    assert np.array_equal(res.probe_degenerate, frozen)
    ref = reference_evolve(psi, H, sched, params)
    assert np.array_equal(res.times, ref.times)
    assert_matches(name, "amplitude", res.final_components[0].amplitudes,
                   ref.snapshots[-1], np.max(np.abs(ref.snapshots[-1])))


# ---------------------------------------------------------------------------
# behaviour the two old particle loops did not share

def gated_gaussian():
    g = make_grid([{"points": 64, "lo": -8.0, "hi": 8.0}] * 2)
    psi = init_gaussian(g, [0.0, 0.0], [0.5, 0.5])
    H = HamiltonianSpec(coupling=MeasurementCoupling(0, 1, 1.0, 0.0, 0.2))
    return psi, H, Schedule(0, 0.2, 0.01, 5), PhysicalParams(masses=(1.0, 1.0))


def test_frozen_particle_stays_put_under_gate():
    # (6, 3) is deep in the tail of a sigma=0.5 packet: its stencil is nodal,
    # so it freezes at once; the gate would kick it by 0.15 per half interval
    psi, H, sched, params = gated_gaussian()
    x0 = np.array([[6.0, 3.0]])
    tr = simulate_trajectories(evolve(psi, H, sched, params), x0)[0]
    res = coevolve([psi], H, sched, params, x0)
    for path, frozen in ((tr.positions, tr.degenerate),
                         (res.probe_paths[:, 0], res.probe_degenerate[0])):
        assert frozen
        assert len(path) == 5
        assert np.all(path == [6.0, 3.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_start_raises_runtime_error():
    # the start is rejected before any numpy cast of it can warn
    psi, H, sched, params = gated_gaussian()
    x0 = np.array([[np.nan, 0.0]])
    rec = evolve(psi, H, sched, params)
    with pytest.raises(RuntimeError, match="NaN in trajectory output"):
        simulate_trajectories(rec, x0)
    with pytest.raises(RuntimeError, match="NaN in trajectory output"):
        coevolve([psi], H, sched, params, x0)



# ---------------------------------------------------------------------------
# probe-local velocity fields

def complete_fields(monkeypatch):
    """Make every group read complete fields."""
    monkeypatch.setattr(guidance, "local_field",
                        lambda psi, params=None: velocity_field(psi, params))


@pytest.mark.parametrize("name", ["2d_gated", "2d_nodes", "3d_gated"])
def test_local_fields_match_complete_fields(name, monkeypatch):
    psi, H, sched, params, x0s = CASES[name]()
    rec = evolve(psi, H, sched, params)
    made = []
    local_field = guidance.local_field

    def counted(*args):
        made.append(local_field(*args))
        return made[-1]

    monkeypatch.setattr(guidance, "local_field", counted)
    trs = simulate_trajectories(rec, x0s)
    res = coevolve([psi], H, sched, params, x0s)
    # both runs read one local field per observation
    assert len(made) == 2 * len(rec.times)
    # 2d_nodes starts two particles on nodal cells: every field completes
    assert all((vf.components is not None) == (name == "2d_nodes")
               for vf in made)

    complete_fields(monkeypatch)
    want = simulate_trajectories(rec, x0s)
    want_res = coevolve([psi], H, sched, params, x0s)
    assert np.array_equal(np.stack([tr.positions for tr in trs]),
                          np.stack([tr.positions for tr in want]))
    assert [tr.degenerate for tr in trs] == [tr.degenerate for tr in want]
    assert np.array_equal(res.probe_paths, want_res.probe_paths)
    assert np.array_equal(res.probe_degenerate, want_res.probe_degenerate)


@pytest.mark.parametrize("kind,n,local", [
    ("interference", 10000, False), ("interference", 1, False),
    ("measurement", 10000, False), ("relaxation", 10000, False),
    ("decoherence", 1, True), ("preparation", 1, True)])
def test_group_field_dispatch_at_shipped_sizes(kind, n, local):
    grid = make_grid(builtin_spec(kind)["grid"])
    psi = WaveFunction(grid, np.ones(grid.shape, dtype=complex))
    vf = guidance.group_field(psi, None, n)
    assert (vf.components is None) == local

"""The stepping loop and the particle advance, checked against reference loops.

`evolve` and `coevolve` share one stepping loop, and `simulate_trajectories`
and the bundles of `coevolve` share one particle loop (`GuidedWalk`).  The
reference functions below are the separate loops those replaced, kept as
oracles: on every case where the old loops agreed with each other, the shared
code must give the same bits.  Each bundle of a `coevolve` call also keeps the
bits of `simulate_trajectories` over a record of its source.

The one exception is the kinetic factor along axes that no active term
binds: the shared loop transforms only the bound axes in each step and
applies exp(-i K n dt) along the free ones once, instead of n Strang steps
over every axis, which rounds differently.  A one-step jump over every axis
keeps the bits.  Components held as factors are checked at the end, against
the same calls given their materialized product.
"""

import numpy as np
import pytest

from pilotwave import guidance
from pilotwave.branches import decompose, halfspace_mask
from pilotwave.fields import (
    PhysicalParams, WaveFunction, gaussian_factors, init_gaussian, make_grid,
    normalize,
)
from pilotwave.guidance import (
    advance_interval, gate_kick, simulate_trajectories, velocity_field,
)
from pilotwave.propagate import (
    EvolutionRecord, HamiltonianSpec, MeasurementCoupling, PotentialTerm,
    Schedule, SplitOperator, evolve,
)
from pilotwave.scenarios import Bundle, _components_of, builtin_spec, coevolve


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
    # windowed well over steps 5 to 14; the last two starts sit where the
    # wave is nodal
    g = make_grid([{"points": 48, "lo": -6.0, "hi": 6.0},
                   {"points": 40, "lo": -5.0, "hi": 5.0}])
    x, y = g.mesh(0), g.mesh(1)
    amp = (1.0 + 0.8 * x) * np.exp(-(x ** 2 + y ** 2) / 2.0)
    psi = normalize(WaveFunction(g, amp.astype(complex)))
    H = HamiltonianSpec((
        PotentialTerm.make("harmonic", [0], omega=1.0),
        PotentialTerm.make("harmonic", [1], omega=1.0),
        PotentialTerm.make("harmonic", [1], window=(0.1, 0.3), omega=0.7),
    ))
    x0s = np.array([[-1.0, 0.5], [-0.3, -0.2], [0.2, 0.1], [1.1, 0.7],
                    [0.5, -1.2], [5.5, 4.5], [-5.5, -4.6]])
    return psi, H, Schedule(0, 0.6, 0.02, 3), PhysicalParams(masses=(1.0, 1.0)), x0s


def case_2d_gated():
    g = make_grid([{"points": 48, "lo": -8.0, "hi": 8.0},
                   {"points": 64, "lo": -8.0, "hi": 8.0}])
    params = PhysicalParams(masses=(1.0, 20.0))
    sa = init_gaussian(g, [-2.0, 0.0], [0.6, 0.5])
    sb = init_gaussian(g, [2.0, 0.0], [0.6, 0.5])
    psi = normalize(WaveFunction(g, sa.amplitudes + 0.6 * sb.amplitudes))
    H = HamiltonianSpec(coupling=MeasurementCoupling(0, 1, 1.5, 0.05, 0.25))
    x0s = np.array([[-2.3, 0.2], [-1.8, -0.3], [1.9, 0.4], [2.4, -0.1],
                    [0.1, 0.0]])
    return psi, H, Schedule(0, 0.4, 0.01, 4), params, x0s


def case_2d_gated_stride1():
    psi, H, sched, params, x0s = case_2d_gated()
    return psi, H, Schedule(sched.t_start, sched.t_end, sched.dt, 1), params, x0s


def case_3d_gated():
    # a static potential on the environment axis binds it at every step;
    # outside the gate axes 0 and 1 are free
    g = make_grid([{"points": 30, "lo": -10.0, "hi": 10.0},
                   {"points": 20, "lo": -8.0, "hi": 8.0},
                   {"points": 30, "lo": -10.0, "hi": 10.0}])
    params = PhysicalParams(masses=(1.0, 20.0, 5.0))
    sa = init_gaussian(g, [-2.0, 0.0, 1.0], [0.6, 0.5, 0.7], [0.0, 0.0, -1.0])
    sb = init_gaussian(g, [2.0, 0.0, -1.0], [0.6, 0.5, 0.7], [0.0, 0.0, 1.0])
    psi = normalize(WaveFunction(g, sa.amplitudes + 0.6 * sb.amplitudes))
    H = HamiltonianSpec(
        (PotentialTerm.make("harmonic", [2], omega=0.5),),
        coupling=MeasurementCoupling(0, 1, 1.5, 0.05, 0.25))
    x0s = np.array([[-2.3, 0.2, 0.9], [1.9, -0.1, -1.2]])
    return psi, H, Schedule(0, 0.3, 0.01, 3), params, x0s


CASES = {"1d": case_1d, "2d_nodes": case_2d_nodes, "2d_gated": case_2d_gated,
         "2d_gated_stride1": case_2d_gated_stride1, "3d_gated": case_3d_gated}

# Cases that jump over several free steps at once, with the tolerance of each
# comparison: about 20x the largest move measured against the reference
# loops.  2d_gated has no potential, and the gate is closed for whole
# observation intervals: 2.4e-15 of the peak for amplitudes, 1.6e-15 for
# norms, 1.5e-15 for energies and 5.3e-15 for probe positions.  3d_gated's
# steps outside the gate transform the environment axis alone: 1.6e-15 of
# the peak for amplitudes, 8.9e-16 for norms and 1.1e-15 for energies, while
# its probe paths keep their bits.
JUMPING = {"2d_gated": {"amplitude": 5e-14, "norm": 3e-14, "energy": 3e-14,
                        "path": 1e-13},
           "3d_gated": {"amplitude": 3e-14, "norm": 2e-14, "energy": 2e-14,
                        "path": 0.0}}


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
    res = coevolve([psi], H, sched, params, [Bundle(x0s)])
    path, frozen = reference_probes(psi, H, sched, params, x0s)
    assert_matches(name, "path", res.probe_paths[0], path)
    assert np.array_equal(res.probe_degenerate[0], frozen)
    ref = reference_evolve(psi, H, sched, params)
    assert np.array_equal(res.times, ref.times)
    assert_matches(name, "amplitude", res.final_components[0].amplitudes,
                   ref.snapshots[-1], np.max(np.abs(ref.snapshots[-1])))


def record_of(recs, source, stride):
    """The record a bundle reads: component `source`'s, or the components'
    sum (None), summed per snapshot in component order; every `stride`-th
    snapshot and the last."""
    r0 = recs[0]
    snaps = (recs[source].snapshots if source is not None
             else [sum(s[1:], s[0]) for s in zip(*(r.snapshots for r in recs))])
    last = len(r0.times) - 1
    idx = [*range(0, last, stride), last]
    return EvolutionRecord(r0.grid, r0.params, r0.hamiltonian, r0.schedule,
                           r0.times[idx], [snaps[i] for i in idx])


@pytest.mark.parametrize("name", sorted(CASES))
def test_coevolve_bundles_match_record_path(name):
    """Bundles of one `coevolve` call on two components (the halves of the
    case's wave either side of x0 = 0): each keeps the bits of
    `simulate_trajectories` over an `evolve` record of its source at its
    stride, and the observer sees its path row at every time it advances."""
    psi, H, sched, params, x0s = CASES[name]()
    comps = [b.wave for b in decompose(psi, [
        halfspace_mask(psi.grid, 0, 0.0, side) for side in ("below", "above")])]
    last = len(range(0, sched.n_steps, sched.stride))
    stride = 3 if last % 3 else 4
    assert last % stride and len(x0s) > 1
    bundles = [Bundle(x0s), Bundle(x0s[:1], source=0),
               Bundle(x0s, source=0, stride=stride),
               Bundle(x0s[1:2], stride=stride)]
    seen = []

    def observer(t, full, amps, positions):
        # the full wave is the components' sum, formed in component order
        assert full.time == t
        assert np.array_equal(full.amplitudes, amps[0] + amps[1])
        seen.append([None if p is None else p.copy() for p in positions])

    res = coevolve(comps, H, sched, params, bundles, observer)
    recs = [evolve(c, H, sched, params) for c in comps]
    for k, b in enumerate(bundles):
        trs = simulate_trajectories(record_of(recs, b.source, b.stride), b.x0s)
        assert np.array_equal(res.probe_times[k], trs[0].times)
        assert np.array_equal(res.probe_paths[k],
                              np.stack([tr.positions for tr in trs], axis=1))
        assert np.array_equal(res.probe_degenerate[k],
                              [tr.degenerate for tr in trs])
        rows = [i for i in range(last + 1) if i % b.stride == 0 or i == last]
        for i, row in enumerate(seen):
            if i in rows:
                assert np.array_equal(row[k],
                                      res.probe_paths[k][rows.index(i)])
            else:
                assert row[k] is None


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
    res = coevolve([psi], H, sched, params, [Bundle(x0)])
    for path, frozen in ((tr.positions, tr.degenerate),
                         (res.probe_paths[0][:, 0], res.probe_degenerate[0][0])):
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
        coevolve([psi], H, sched, params, [Bundle(x0)])



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

    def alone():
        """Each particle run alone: paths and frozen flags of both runs."""
        trs = [simulate_trajectories(rec, x0[None, :])[0] for x0 in x0s]
        res = [coevolve([psi], H, sched, params, [Bundle(x0[None, :])])
               for x0 in x0s]
        return (np.stack([tr.positions for tr in trs]),
                [tr.degenerate for tr in trs],
                np.stack([r.probe_paths[0] for r in res]),
                np.stack([r.probe_degenerate[0] for r in res]))

    got = alone()
    # every run reads one local field per observation
    assert len(made) == 2 * len(x0s) * len(rec.times)
    completed = [vf.components is not None for vf in made]
    # 2d_nodes starts two particles on nodal cells: their fields complete
    assert any(completed) == (name == "2d_nodes")
    assert not all(completed)

    complete_fields(monkeypatch)
    want = alone()
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_one_field_per_wave_and_observation(monkeypatch):
    """coevolve builds one group_field per wave and observation for its
    groups of one, and one for the larger groups; the walks that read a
    wave share it, and every path keeps the bits of its bundle run alone."""
    psi, H, sched, params, x0s = CASES["2d_nodes"]()
    comps = [b.wave for b in decompose(psi, [
        halfspace_mask(psi.grid, 0, 0.0, side) for side in ("below", "above")])]
    bundles = [Bundle(x0s[:1]), Bundle(x0s[1:2]), Bundle(x0s[:1], source=0),
               Bundle(x0s), Bundle(x0s[2:]), Bundle(x0s[3:4], stride=2)]
    fed, made = {}, []
    local_field = guidance.local_field
    monkeypatch.setattr(guidance, "local_field",
                        lambda *a: made.append(local_field(*a)) or made[-1])
    feed = guidance.GuidedWalk.feed
    monkeypatch.setattr(guidance.GuidedWalk, "feed", lambda walk, vf: (
        fed.setdefault(walk, []).append(vf) or feed(walk, vf)))
    res = coevolve(comps, H, sched, params, bundles)
    # walks feed first in bundle order
    one, other, branch, group, rest, strided = fed.values()
    due = [i for i in range(len(one)) if i % 2 == 0 or i == len(one) - 1]
    assert len(due) == len(strided)
    assert all(one[i] is vf for i, vf in zip(due, strided))
    # per observation one probe-local field per wave: the groups of one on
    # the full wave share one, the branch probe reads its own
    assert len(made) == 2 * len(one)
    for i in range(len(one)):
        assert one[i] is other[i] and branch[i] is not one[i]
        assert {id(one[i]), id(branch[i])} <= set(map(id, made))
        assert group[i] is rest[i] and not any(group[i] is m for m in made)
    monkeypatch.setattr(guidance.GuidedWalk, "feed", feed)
    for k, b in enumerate(bundles):
        alone = coevolve(comps, H, sched, params, [b])
        assert np.array_equal(alone.probe_paths[0], res.probe_paths[k])
        assert np.array_equal(alone.probe_degenerate[0],
                              res.probe_degenerate[k])


@pytest.mark.parametrize("kind,n,local", [
    ("interference", 10000, False), ("interference", 1, True),
    ("measurement", 10000, False), ("relaxation", 10000, False),
    ("decoherence", 1, True), ("preparation", 1, True),
    ("decoherence", 2, False), ("preparation", 2, False)])
def test_group_field_dispatch_at_shipped_sizes(kind, n, local):
    grid = make_grid(builtin_spec(kind)["grid"])
    psi = WaveFunction(grid, np.ones(grid.shape, dtype=complex))
    vf = guidance.group_field(psi, None, n)
    assert (vf.components is None) == local


# ---------------------------------------------------------------------------
# one-particle groups

@pytest.mark.parametrize("name", sorted(CASES))
def test_one_particle_kernel_matches_vector_path(name, monkeypatch):
    """Each particle run alone takes the plain-float kernel; with the kernel
    replaced by the vectorized path, paths and frozen flags keep their bits."""
    psi, H, sched, params, x0s = CASES[name]()
    rec = evolve(psi, H, sched, params)

    def alone():
        trs = [simulate_trajectories(rec, x0[None, :])[0] for x0 in x0s]
        res = [coevolve([psi], H, sched, params, [Bundle(x0[None, :])])
               for x0 in x0s]
        return (np.stack([tr.positions for tr in trs]),
                [tr.degenerate for tr in trs],
                np.stack([r.probe_paths[0] for r in res]),
                np.stack([r.probe_degenerate[0] for r in res]))

    runs = []
    one = guidance._advance_one
    monkeypatch.setattr(guidance, "_advance_one",
                        lambda *a: runs.append(1) or one(*a))
    got = alone()
    # every interval of every run went through the kernel
    assert len(runs) == 2 * len(x0s) * (len(rec.times) - 1)
    monkeypatch.setattr(guidance, "_advance_one", guidance._advance_many)
    want = alone()
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if name == "2d_nodes":
        assert got[1][-2:] == [True, True] and not any(got[1][:-2])


# ---------------------------------------------------------------------------
# factored components against their materialized product
#
# A component held as factors over blocks of axes that no term couples is
# stepped factor by factor; the same call given the materialized product
# takes the one-block path above, and serves as the oracle.  Factor FFTs
# round differently from one FFT over the whole grid, so the comparison has
# tolerances of about 20x the largest move measured: amplitudes and
# observations moved by at most 2.9e-15 of the peak, norms by 5.6e-16 and
# probe positions by 1.8e-15.

def factored_case(grid_spec, masses, hamiltonian, packets, schedule, x0s):
    g = make_grid(grid_spec)
    params = PhysicalParams(masses=masses)
    spec = {"packets": [
        {"coefficient": c, "centers": ce, "sigmas": s, "momenta": m}
        for c, ce, s, m in packets]}
    return g, params, hamiltonian, schedule, np.asarray(x0s, dtype=float), \
        _components_of(spec, g, hamiltonian, schedule)


def factored_2d_free():
    return factored_case(
        [{"points": 40, "lo": -10.0, "hi": 10.0},
         {"points": 32, "lo": -12.0, "hi": 12.0}], (1.0, 2.0), HamiltonianSpec(),
        [(0.8, [-2.0, 1.0], [0.6, 0.8], [1.5, -0.5]),
         (0.6, [2.0, -1.0], [0.7, 0.9], [-1.5, 1.0])],
        Schedule(0, 0.5, 0.01, 5), [[-2.0, 1.0], [0.3, 0.2]])


def factored_3d_twin():
    # shaped like preparation's lambda = 0 twin: harmonic wells on axes 0
    # and 1, the gate 0 -> 1, axis 2 free; each packet has its own axis-2
    # factor, so the components do not share one
    H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),
                         PotentialTerm.make("harmonic", [1], omega=1.0)),
                        MeasurementCoupling(0, 1, 3.0, 0.1, 0.2))
    return factored_case(
        [{"points": 40, "lo": -10.0, "hi": 10.0},
         {"points": 24, "lo": -8.0, "hi": 8.0},
         {"points": 24, "lo": -12.0, "hi": 12.0}], (1.0, 2.0, 3.0), H,
        [(0.8, [-2.0, -1.0, 1.0], [0.6, 0.5, 0.8], [0.0, 0.5, 1.0]),
         (0.6, [2.0, 1.0, -1.0], [0.6, 0.5, 0.9], [0.0, -0.5, -1.0])],
        Schedule(0, 0.4, 0.01, 4), [[-2.0, -1.0, 1.0], [1.9, 1.2, -0.8]])


def factored_3d_twin_rolled():
    # the same with the free axis first: the gate's block (1, 2) is
    # renumbered (0, 1) on its subgrid
    H = HamiltonianSpec((PotentialTerm.make("harmonic", [1], omega=1.0),
                         PotentialTerm.make("harmonic", [2], omega=1.0)),
                        MeasurementCoupling(1, 2, 3.0, 0.1, 0.2))
    return factored_case(
        [{"points": 24, "lo": -12.0, "hi": 12.0},
         {"points": 40, "lo": -10.0, "hi": 10.0},
         {"points": 24, "lo": -8.0, "hi": 8.0}], (3.0, 1.0, 2.0), H,
        [(0.8, [1.0, -2.0, -1.0], [0.8, 0.6, 0.5], [1.0, 0.0, 0.5]),
         (0.6, [-1.0, 2.0, 1.0], [0.9, 0.6, 0.5], [-1.0, 0.0, -0.5])],
        Schedule(0, 0.4, 0.01, 4), [[1.0, -2.0, -1.0], [-0.8, 1.9, 1.2]])


def factored_3d_prep(window, gate, t_end):
    # shaped like preparation's main run: harmonic wells on axes 0 and 1, a
    # window binding axes 1 and 2 and the gate 0 -> 1
    H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),
                         PotentialTerm.make("harmonic", [1], omega=1.0),
                         PotentialTerm.make("linear_coupling", [1, 2],
                                            window=window, strength=4.0)),
                        MeasurementCoupling(0, 1, 3.0, *gate))
    return factored_case(
        [{"points": 40, "lo": -10.0, "hi": 10.0},
         {"points": 24, "lo": -8.0, "hi": 8.0},
         {"points": 32, "lo": -12.0, "hi": 12.0}], (1.0, 2.0, 3.0), H,
        [(0.8, [-2.0, -1.0, 1.0], [0.6, 0.5, 0.8], [0.0, 0.5, 1.0]),
         (0.6, [2.0, 1.0, -1.0], [0.6, 0.5, 0.9], [0.0, -0.5, -1.0])],
        Schedule(0, t_end, 0.01, 4), [[-2.0, -1.0, 1.0], [1.9, 1.2, -0.8]])


def factored_3d_window():
    # every axis starts as its own factor; axes 1 and 2 merge at step 5
    # (inside an observation interval), all three at step 20 (an observation)
    return factored_3d_prep((0.05, 0.15), (0.2, 0.3), 0.4)


def factored_3d_main():
    # the window acts from t = 0, so the components start as factors over
    # (0,) and (1, 2), which merge when the gate opens at step 10
    return factored_3d_prep((0.0, 0.08), (0.1, 0.2), 0.3)


FACTORED = {"2d_free": factored_2d_free, "3d_twin": factored_3d_twin,
            "3d_twin_rolled": factored_3d_twin_rolled,
            "3d_window": factored_3d_window, "3d_main": factored_3d_main}
FACTORED_TOL = {"amplitude": 6e-14, "norm": 1e-14, "path": 4e-14}


def materialized(comps):
    return [WaveFunction(c.grid, c.amplitudes) for c in comps]


@pytest.mark.parametrize("name", sorted(FACTORED))
def test_factored_coevolve_matches_materialized(name):
    g, params, H, sched, x0s, comps = FACTORED[name]()
    assert all(len(c.blocks) > 1 for c in comps)

    def observer(t, full, amps, positions):
        return [full.amplitudes.copy()] + [a.copy() for a in amps]

    got = coevolve(comps, H, sched, params, [Bundle(x0s)], observer)
    want = coevolve(materialized(comps), H, sched, params, [Bundle(x0s)],
                    observer)
    tol = FACTORED_TOL
    peak = max(np.max(np.abs(a)) for obs in want.observations for a in obs)
    assert np.array_equal(got.times, want.times)
    assert len(got.observations) == len(want.observations) == len(want.times)
    for a_obs, b_obs in zip(got.observations, want.observations):
        for a, b in zip(a_obs, b_obs):
            np.testing.assert_allclose(a, b, rtol=0, atol=tol["amplitude"] * peak)
    np.testing.assert_allclose(got.probe_paths[0], want.probe_paths[0], rtol=0,
                               atol=tol["path"])
    assert np.array_equal(got.probe_degenerate[0], want.probe_degenerate[0])
    for a, b in zip(got.final_components, want.final_components):
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, rtol=0,
                                   atol=tol["amplitude"] * peak)


@pytest.mark.parametrize("name", sorted(FACTORED))
def test_factored_evolve_matches_materialized(name):
    g, params, H, sched, x0s, comps = FACTORED[name]()
    tol = FACTORED_TOL
    for c, w in zip(comps, materialized(comps)):
        got = evolve(c, H, sched, params)
        want = evolve(w, H, sched, params)
        assert np.array_equal(got.times, want.times)
        peak = max(np.max(np.abs(b)) for b in want.snapshots)
        for a, b in zip(got.snapshots, want.snapshots, strict=True):
            np.testing.assert_allclose(a, b, rtol=0, atol=tol["amplitude"] * peak)
        np.testing.assert_allclose(got.norms, want.norms, rtol=0, atol=tol["norm"])


def test_finer_factors_merge_before_the_first_step():
    # one factor per axis under a gate that binds axes 0 and 1 from t = 0:
    # merged into factors over (0, 1) and (2,) before the first step
    g = make_grid([{"points": 32, "lo": -8.0, "hi": 8.0},
                   {"points": 24, "lo": -8.0, "hi": 8.0},
                   {"points": 24, "lo": -12.0, "hi": 12.0}])
    params = PhysicalParams(masses=(1.0, 2.0, 3.0))
    H = HamiltonianSpec(coupling=MeasurementCoupling(0, 1, 3.0, 0.0, 0.1))
    sched = Schedule(0, 0.2, 0.01, 4)
    psi = gaussian_factors(g, ((0,), (1,), (2,)), [-1.0, 0.5, 0.0],
                           [0.6, 0.5, 0.8], [1.0, 0.0, -0.5])
    x0s = np.array([[-1.0, 0.5, 0.0]])
    got = coevolve([psi], H, sched, params, [Bundle(x0s)])
    want = coevolve(materialized([psi]), H, sched, params, [Bundle(x0s)])
    tol = FACTORED_TOL
    peak = np.max(np.abs(want.final_components[0].amplitudes))
    np.testing.assert_allclose(got.final_components[0].amplitudes,
                               want.final_components[0].amplitudes, rtol=0,
                               atol=tol["amplitude"] * peak)
    np.testing.assert_allclose(got.probe_paths[0], want.probe_paths[0], rtol=0,
                               atol=tol["path"])
    assert np.array_equal(got.probe_degenerate[0], want.probe_degenerate[0])


@pytest.mark.parametrize("kind", ["measurement", "preparation"])
def test_system_reference_record_keeps_its_bits(kind):
    """`HamiltonianSpec.restrict` against the filter it replaced: the terms
    on the system axis alone, renumbered to axis 0, and no gate.  Equal
    Hamiltonians give the record the same bits."""
    from dataclasses import replace
    from pilotwave.scenarios import (
        SYSTEM_AXIS, _potential_terms, _system_reference_record)
    spec = builtin_spec(kind)
    terms = tuple(replace(t, axes=(0,)) for t in _potential_terms(spec)
                  if t.axes == (SYSTEM_AXIS,))
    assert _system_reference_record(spec, 0).hamiltonian == HamiltonianSpec(terms)

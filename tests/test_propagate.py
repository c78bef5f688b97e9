import math

import numpy as np
import pytest
import scipy.fft as sfft

from pilotwave.fields import (
    FieldError, PhysicalParams, make_grid, gaussian_factors, init_gaussian,
    normalize, superpose, WaveFunction, density,
)
from pilotwave.propagate import (
    HamiltonianSpec, PotentialTerm, MeasurementCoupling, Schedule,
    PropagationError, SplitOperator, evolve, potential_grid, _overlap,
)
from pilotwave.scenarios import (
    Bundle, _hamiltonian_of, _schedule_of, builtin_spec, coevolve,
)


def grid1d(n=256, lo=-16.0, hi=16.0):
    return make_grid([{"points": n, "lo": lo, "hi": hi}])


FREE = HamiltonianSpec()


def step(psi, hamiltonian, dt):
    """One Strang step of `psi` from its time, unit masses."""
    params = PhysicalParams(masses=(1.0,) * psi.grid.dims)
    op = SplitOperator(psi.grid, params, hamiltonian, dt)
    return WaveFunction(psi.grid, op.step_array(psi.amplitudes, psi.time),
                        psi.time + dt)


class TestStep:
    def test_plane_wave_kinetic_eigenstate(self):
        # grid-commensurate plane wave picks up exactly exp(-i k^2 dt/2m)
        g = grid1d(64, 0.0, 16.0)
        k = 2.0 * np.pi * 3 / 16.0
        x = g.axis_coords(0)
        psi = normalize(WaveFunction(g, np.exp(1j * k * x)))
        out = step(psi, FREE, 0.05)
        expected = psi.amplitudes * np.exp(-1j * k ** 2 * 0.05 / 2.0)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-13)

    def test_harmonic_ground_state_phase(self):
        # |psi| invariant, global phase e^{-i w dt / 2}, error O(dt^3)/step
        g = grid1d()
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),))
        psi = init_gaussian(g, [0.0], [np.sqrt(0.5)])

        def phase_err(dt):
            out = step(psi, H, dt)
            i0 = np.argmax(np.abs(psi.amplitudes))
            ratio = out.amplitudes[i0] / psi.amplitudes[i0]
            return abs(ratio - np.exp(-1j * dt / 2.0))

        e1, e2 = phase_err(0.1), phase_err(0.05)
        assert e1 < 5e-4
        # Richardson: per-step error drops by ~8 when dt halves (3rd order local)
        assert 5.0 < e1 / e2 < 12.0
        out = step(psi, H, 0.1)
        np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes),
                                   atol=1e-5)

    def test_order_two_self_convergence(self):
        # accumulated error over fixed horizon scales ~ dt^2
        g = grid1d()
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),))
        psi = init_gaussian(g, [2.0], [np.sqrt(0.5)])  # coherent state

        def final_state(dt):
            rec = evolve(psi, H, Schedule(0.0, 1.0, dt, stride=10 ** 9))
            return rec.snapshots[-1]

        ref = final_state(0.00125)
        errs = [np.max(np.abs(final_state(dt) - ref)) for dt in (0.04, 0.02, 0.01)]
        slopes = np.diff(np.log(errs)) / np.log(0.5)
        assert np.all(np.abs(np.array(slopes) - 2.0) <= 0.2)

    def test_norm_preserved_per_step(self):
        psi = init_gaussian(grid1d(), [1.0], [0.8], [2.0])
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=0.7),))
        out = step(psi, H, 0.01)
        assert abs(out.norm() - 1.0) < 1e-12



class TestConditionalDisplacement:
    """The gate's coupling factor exp(-i g dt x_source p_target), applied as
    the two half-steps of a Strang step."""

    def grid2d(self):
        return make_grid([{"points": 64, "lo": -8, "hi": 8},
                          {"points": 128, "lo": -8, "hi": 8}])

    def displace(self, psi, coupling, tau):
        """Both coupling half-steps of a gated step of length tau."""
        op = SplitOperator(psi.grid, PhysicalParams(masses=(1.0, 1.0)),
                           HamiltonianSpec(coupling=coupling), tau)
        amp = op._apply_coupling_half(psi.amplitudes.copy())
        return WaveFunction(psi.grid, op._apply_coupling_half(amp), psi.time)

    def test_zero_coupling_identity(self):
        # a zero-strength gate is never on, so steps skip the coupling
        g = self.grid2d()
        psi = init_gaussian(g, [0.0, 0.0], [1.0, 0.6])
        params = PhysicalParams(masses=(1.0, 1.0))
        c = MeasurementCoupling(0, 1, 0.0, 0.0, 1.0)
        gated = SplitOperator(g, params, HamiltonianSpec(coupling=c), 0.5)
        plain = SplitOperator(g, params, HamiltonianSpec(), 0.5)
        assert not gated._gate_on(0.0)
        np.testing.assert_array_equal(gated.step_array(psi.amplitudes, 0.0),
                                      plain.step_array(psi.amplitudes, 0.0))

    def test_single_slice_translation(self):
        # source mass on one slice x_s = 2, g tau = 0.5 -> target moves by 1
        g = self.grid2d()
        amp = np.zeros(g.shape, dtype=complex)
        xs = g.axis_coords(0)
        i_s = int(np.argmin(np.abs(xs - 2.0)))
        a = g.axis_coords(1)
        amp[i_s, :] = np.exp(-a ** 2 / (4 * 0.5 ** 2))
        psi = normalize(WaveFunction(g, amp))
        c = MeasurementCoupling(0, 1, 1.0, 0.0, 1.0)
        out = self.displace(psi, c, 0.5)
        rho = np.abs(out.amplitudes[i_s, :]) ** 2
        center = np.sum(a * rho) / np.sum(rho)
        assert center == pytest.approx(xs[i_s] * 0.5, abs=1e-9)

    def test_two_packet_split_oracle(self):
        # source split at +-2 -> correlated pointer lobes at -+2 g tau,
        # compared against the analytic shifted-envelope construction
        g = self.grid2d()
        sa = init_gaussian(g, [-2.0, 0.0], [0.5, 0.5])
        sb = init_gaussian(g, [2.0, 0.0], [0.5, 0.5])
        psi = superpose([(1 / np.sqrt(2), sa), (1 / np.sqrt(2), sb)])
        gtau = 0.6
        c = MeasurementCoupling(0, 1, 1.0, 0.0, 1.0)
        out = self.displace(psi, c, gtau)
        xs = g.mesh(0)
        aa = g.mesh(1)
        expect = np.exp(-(xs + 2.0) ** 2 / (4 * 0.25) - (aa - gtau * xs) ** 2 / (4 * 0.25)) \
            + np.exp(-(xs - 2.0) ** 2 / (4 * 0.25) - (aa - gtau * xs) ** 2 / (4 * 0.25))
        expect = expect / np.sqrt(np.sum(np.abs(expect) ** 2) * g.dV)
        np.testing.assert_allclose(np.abs(out.amplitudes), expect, atol=1e-7)

    def test_coupling_axes_validated(self):
        with pytest.raises(FieldError):
            MeasurementCoupling(0, 0, 1.0, 0.0, 1.0)
        with pytest.raises(FieldError):
            MeasurementCoupling(0, 1, 1.0, 1.0, 0.5)


class TestEvolve:
    def test_zero_hamiltonian_identity(self):
        psi = init_gaussian(grid1d(), [0.0], [1.0])
        H = HamiltonianSpec()
        # zero potential, but suppress kinetic by tiny dt? identity means V=0
        # and K=0: emulate by huge mass
        params = PhysicalParams(masses=(1e30,))
        rec = evolve(psi, H, Schedule(0, 1, 0.1, 2), params)
        for s in rec.snapshots:
            np.testing.assert_allclose(s, psi.amplitudes, atol=1e-10)

    def test_free_gaussian_spreading(self):
        g = make_grid([{"points": 1024, "lo": -20, "hi": 20}])
        psi = init_gaussian(g, [0.0], [1.0])
        rec = evolve(psi, FREE, Schedule(0, 2, 0.001, 2000))
        x = g.axis_coords(0)
        rho = np.abs(rec.snapshots[-1]) ** 2
        sigma = np.sqrt(np.sum(x ** 2 * rho) * g.dV)
        assert sigma == pytest.approx(np.sqrt(2.0), abs=1e-4)

    def test_energy_and_norm_conservation(self):
        g = grid1d()
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),))
        psi = init_gaussian(g, [1.0], [np.sqrt(0.5)])
        rec = evolve(psi, H, Schedule(0, 25, 0.0025, 500))
        assert np.max(np.abs(rec.norms - 1.0)) <= 1e-9
        rel = np.abs(rec.energies - rec.energies[0]) / abs(rec.energies[0])
        assert np.max(rel) <= 1e-6

    def test_linearity(self):
        g = grid1d()
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=0.5),))
        p1 = init_gaussian(g, [-2.0], [0.8])
        p2 = init_gaussian(g, [2.0], [0.8], [1.0])
        sched = Schedule(0, 1, 0.01, 100)
        a, b = 0.6, 0.8j
        combo = WaveFunction(g, a * p1.amplitudes + b * p2.amplitudes)
        r1 = evolve(p1, H, sched)
        r2 = evolve(p2, H, sched)
        rc = evolve(combo, H, sched)
        mix = a * r1.snapshots[-1] + b * r2.snapshots[-1]
        np.testing.assert_allclose(rc.snapshots[-1], mix, atol=1e-10)

    def test_gate_zero_strength_bit_identical(self):
        g = make_grid([{"points": 32, "lo": -8, "hi": 8},
                       {"points": 32, "lo": -8, "hi": 8}])
        psi = init_gaussian(g, [0.0, 0.0], [1.0, 1.0])
        params = PhysicalParams(masses=(1.0, 1.0))
        sched = Schedule(0, 0.5, 0.01, 50)
        plain = evolve(psi, HamiltonianSpec(), sched, params)
        gated = evolve(psi, HamiltonianSpec(
            coupling=MeasurementCoupling(0, 1, 0.0, 0.1, 0.4)), sched, params)
        assert np.array_equal(plain.snapshots[-1], gated.snapshots[-1])

    def test_gate_produces_correlated_lobes(self):
        # the Eq-2-like form: two source packets -> two displaced pointer lobes
        g = make_grid([{"points": 64, "lo": -10, "hi": 10},
                       {"points": 64, "lo": -10, "hi": 10}])
        params = PhysicalParams(masses=(1.0, 40.0))
        sa = init_gaussian(g, [-3.0, 0.0], [0.6, 0.5])
        sb = init_gaussian(g, [3.0, 0.0], [0.6, 0.5])
        psi = superpose([(1 / np.sqrt(2), sa), (1 / np.sqrt(2), sb)])
        H = HamiltonianSpec(coupling=MeasurementCoupling(0, 1, 2.0, 0.1, 0.6))
        rec = evolve(psi, H, Schedule(0, 0.8, 0.004, 200), params)
        from pilotwave.fields import marginal_density
        marg = marginal_density(rec.wave_at(-1), 1)
        a = g.axis_coords(1)
        lo = np.sum(marg.values[a < 0]) * g.dxs[1]
        assert lo == pytest.approx(0.5, abs=1e-3)  # lobes at +-3, tails ~1e-5
        # lobes near +-1.5 = +- g tau x_s
        peak = a[np.argmax(marg.values * (a > 0))]
        assert peak == pytest.approx(3.0, abs=0.3)

    def test_schedule_validation(self):
        with pytest.raises(FieldError):
            Schedule(0, 1, -0.1)
        with pytest.raises(FieldError):
            Schedule(0, 1, 0.3)


# Reference implementation: the step that evaluates the windowed potential
# phase and the gate's phase afresh, for each window or gate the step
# overlaps by more than half of dt, and transforms out of place.

def _oracle_inside(window, t, dt):
    return _overlap(*window, t, t + dt) > dt / 2.0


def _oracle_v_half_phase(op, t):
    active = [v for w, v in op._windowed if _oracle_inside(w, t, op.dt)]
    if not active:
        return op._exp_v_half_static
    v_eff = op.v_static * op.dt
    for v in active:
        v_eff = v_eff + v * op.dt
    return np.exp(-1j * v_eff / 2.0)


def _oracle_step_array(op, amp, t):
    c = op.H.coupling
    gated = _oracle_inside((c.t_on, c.t_off), t, op.dt)

    def coupling_half(amp):
        ft = sfft.fft(amp, axis=c.target_axis)
        ft *= np.exp(-1j * c.strength * (op.dt / 2.0)
                     * op.grid.mesh(c.source_axis) * op.grid.k_mesh(c.target_axis))
        return sfft.ifft(ft, axis=c.target_axis)

    expv = _oracle_v_half_phase(op, t)
    amp = expv * amp
    if gated:
        amp = coupling_half(amp)
    amp = sfft.ifftn(op._kin_phase * sfft.fftn(amp))
    if gated:
        amp = coupling_half(amp)
    amp = expv * amp
    return amp


DT = 0.03
WINDOW = (0.09, 0.3)    # steps 3 to 9
GATE = (0.33, 0.39)     # steps 11 and 12; 0.33 / DT is 11.000000000000002
TIMES = [i * DT for i in range(15)]   # as Schedule.time_at gives them


def inside_window(t):
    return _oracle_inside(WINDOW, t, DT)


def windowed_operator(shape):
    """2-D operator with a static well, a windowed term and a gate."""
    g = make_grid([{"points": n, "lo": -8.0 - i, "hi": 8.0 + i}
                   for i, n in enumerate(shape)])
    H = HamiltonianSpec(
        (PotentialTerm.make("harmonic", [0], omega=0.8),
         PotentialTerm.make("linear_coupling", [0, 1], window=WINDOW,
                            strength=3.0)),
        MeasurementCoupling(0, 1, 2.0, *GATE))
    op = SplitOperator(g, PhysicalParams(masses=(1.0, 2.0)), H, DT)
    psi = init_gaussian(g, [-1.0, 0.5], [0.6, 0.7], [0.3, -0.2])
    return op, psi.amplitudes


class TestStepArrayOracle:
    @pytest.mark.parametrize("t", TIMES)
    def test_bitwise_equal_to_oracle(self, t):
        # static steps, window steps and gate steps
        op, amp = windowed_operator((32, 24))
        kept = amp.copy()
        got = op.step_array(amp, t)
        assert np.array_equal(amp, kept)
        assert np.array_equal(got, _oracle_step_array(op, kept, t))

    @pytest.mark.parametrize("t", TIMES)
    def test_large_grid_matches_oracle(self, t):
        # From 256 KiB on, numpy may elide the oracle's temporary and swap
        # the operands of its kinetic multiply, which moves the last bit.
        op, amp = windowed_operator((256, 64))
        kept = amp.copy()
        got = op.step_array(amp, t)
        assert np.array_equal(amp, kept)
        want = _oracle_step_array(op, kept, t)
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(want)))

    def test_steps_inside_window_use_dt(self):
        op, amp = windowed_operator((32, 24))
        inexact = 0
        for t in filter(inside_window, TIMES):
            assert op._windows_on(t) == (True,)
            inexact += _overlap(*WINDOW, t, t + DT) != DT
            kept = amp.copy()
            got = op.step_array(amp, t)
            assert np.array_equal(amp, kept)
            assert np.array_equal(op._v_half_phase(t),
                                  _oracle_v_half_phase(op, t))
            assert np.array_equal(got, _oracle_step_array(op, amp, t))
            amp = got
        # the overlap of [t, t+dt) with the window is not dt at some of them
        assert inexact > 0

    def test_gate_steps_use_dt(self):
        # the gate takes the windows' rule, and its half-step phase is the
        # one of dt, built with the operator
        op, _ = windowed_operator((32, 24))
        inexact = 0
        for t in TIMES:
            raw = _overlap(*GATE, t, t + DT)
            assert op._gate_on(t) == _oracle_inside(GATE, t, DT)
            assert raw in (0.0, pytest.approx(DT, abs=1e-15))
            inexact += op._gate_on(t) and raw != DT
        assert inexact > 0
        g = op.grid
        assert np.array_equal(op._gate_half, np.exp(
            -1j * 2.0 * (DT / 2.0) * g.mesh(0) * g.k_mesh(1)))

    def test_one_cached_phase_dropped_after_window(self):
        op, amp = windowed_operator((32, 24))
        for t in TIMES:
            amp = op.step_array(amp, t)
            cached = op._window_phase
            if inside_window(t):
                on, phase = cached
                assert on == (True,)
                assert op._v_half_phase(t) is phase
            else:
                assert cached is None
        assert op._window_phase is None

    def test_components_share_one_phase(self):
        op, amp = windowed_operator((32, 24))
        first = op._v_half_phase(0.15)
        op.step_array(amp, 0.15)
        op.step_array(2.0 * amp, 0.15)
        assert op._v_half_phase(0.18) is first


class TestEdgesOnSteps:
    def run(self, H, sched):
        g = make_grid([{"points": 16, "lo": -8.0, "hi": 8.0}] * 2)
        psi = init_gaussian(g, [0.0, 0.0], [0.6, 0.6])
        return evolve(psi, H, sched, PhysicalParams(masses=(1.0, 1.0)))

    @pytest.mark.parametrize("window, gate, match", [
        ((0.09, 0.301), GATE, r"linear_coupling window edge 0\.301 .*dt=0\.03\)"),
        (WINDOW, (0.33, 0.4), r"^gate edge 0\.4 is not on the step grid "
                              r"t_start \+ k\*dt \(dt=0\.03\)$"),
    ])
    def test_misaligned_edge_raises_before_any_step(self, window, gate, match,
                                                    monkeypatch):
        H = HamiltonianSpec((PotentialTerm.make(
            "linear_coupling", [0, 1], window=window, strength=3.0),),
            MeasurementCoupling(0, 1, 2.0, *gate))

        def no_step(*args):
            raise AssertionError("a step ran before the edge check")
        for name in ("step_array", "free_flight"):
            monkeypatch.setattr(SplitOperator, name, no_step)
        with pytest.raises(FieldError, match=match):
            self.run(H, Schedule(0.0, 0.42, DT))

    def test_edge_within_rounding_of_a_step_accepted(self):
        # 0.35 / 0.0125 is 27.999999999999996
        H = HamiltonianSpec(coupling=MeasurementCoupling(0, 1, 6.0, 0.35, 0.4))
        rec = self.run(H, Schedule(0.0, 0.45, 0.0125))
        assert len(rec.snapshots) == 37

    @pytest.mark.parametrize("kind, overrides, env, gate", [
        ("interference", (), 0, 0),
        ("decoherence", (), 150, 0),
        ("measurement", (), 0, 25),
        ("preparation", (), 120, 20),
        ("preparation", ("schedule.t_end=0.45", "schedule.dt=0.0125"), 24, 4),
        ("relaxation", (), 0, 0),
    ], ids=["interference", "decoherence", "measurement", "preparation",
            "preparation_short", "relaxation"])
    def test_shipped_inside_steps(self, kind, overrides, env, gate):
        # the steps each shipped spec (and preparation_short's cut) runs
        # inside the env window and the gate, on a small grid
        spec = builtin_spec(kind, overrides)
        sched = _schedule_of(spec)
        g = make_grid([{"points": 8, "lo": -1.0, "hi": 1.0}] * len(spec["grid"]))
        op = SplitOperator(g, PhysicalParams((1.0,) * g.dims),
                           _hamiltonian_of(spec), sched.dt)
        times = [sched.time_at(i) for i in range(sched.n_steps)]
        assert sum(any(op._windows_on(t)) for t in times) == env
        assert sum(op._gate_on(t) for t in times) == gate
        c = op.H.coupling
        for t in times:
            assert op._windows_on(t) == tuple(
                _oracle_inside(w, t, sched.dt) for w, _ in op._windowed)
            assert op._gate_on(t) == (
                c is not None and _oracle_inside((c.t_on, c.t_off), t, sched.dt))


class TestFiniteAtObservations:
    def nan_case(self):
        g = grid1d(64)
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=np.nan),))
        return init_gaussian(g, [0.0], [1.0]), H

    def test_evolve_checks_each_observation(self):
        psi, H = self.nan_case()
        with pytest.raises(PropagationError,
                           match=r"non-finite amplitudes at step 5 \(t=0.05\)"):
            evolve(psi, H, Schedule(0, 1, 0.01, 5))

    def test_checks_every_64_steps(self):
        # no observation falls on step 64 here
        psi, H = self.nan_case()
        with pytest.raises(PropagationError,
                           match=r"non-finite amplitudes at step 64 \(t=0.64\)$"):
            evolve(psi, H, Schedule(0, 1, 0.01, 100))

    def test_coevolve_checks_each_observation(self):
        psi, H = self.nan_case()
        with pytest.raises(PropagationError,
                           match=r"non-finite amplitudes at step 5 \(t=0.05\)$"):
            coevolve([psi], H, Schedule(0, 1, 0.01, 5), PhysicalParams(),
                     [Bundle(np.zeros((1, 1)))])


# ---------------------------------------------------------------------------
# free flight: kinetic-only stretches taken as one jump per observation

def free_wave(shape):
    g = make_grid([{"points": n, "lo": -8.0 - i, "hi": 8.0 + i}
                   for i, n in enumerate(shape)])
    params = PhysicalParams(masses=tuple(1.0 + i for i in range(len(shape))))
    d = len(shape)
    psi = init_gaussian(g, [0.0] * d, [0.6] * d, [1.5 - i for i in range(d)])
    return g, params, psi.amplitudes


def windowed_free_operator():
    """The operator of `windowed_operator` without its static well."""
    g = make_grid([{"points": 32, "lo": -8.0, "hi": 8.0},
                   {"points": 24, "lo": -9.0, "hi": 9.0}])
    H = HamiltonianSpec(
        (PotentialTerm.make("linear_coupling", [0, 1], window=WINDOW,
                            strength=3.0),),
        MeasurementCoupling(0, 1, 2.0, *GATE))
    return SplitOperator(g, PhysicalParams(masses=(1.0, 2.0)), H, DT)


class TestFreeFlight:
    @pytest.mark.parametrize("shape", [(128,), (32, 24), (16, 12, 10)])
    @pytest.mark.parametrize("n", [1, 7])
    def test_jump_matches_steps(self, shape, n):
        g, params, amp = free_wave(shape)
        op = SplitOperator(g, params, FREE, 0.02)
        kept = amp.copy()
        got = op.free_flight(amp, n)
        assert np.array_equal(amp, kept)
        want = amp
        for i in range(n):
            want = op.step_array(want, i * op.dt)
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(want)))

    def test_phase_cached_per_jump_length(self):
        g, params, amp = free_wave((32, 24))
        op = SplitOperator(g, params, FREE, 0.02)
        op.free_flight(amp, 5)
        phase = op._free_phases[5]
        op.free_flight(amp, 3)
        op.free_flight(amp, 5)
        assert op._free_phases[5] is phase
        assert sorted(op._free_phases) == [3, 5]

    def test_free_only_where_nothing_overlaps(self):
        op = windowed_free_operator()
        want = [_overlap(*WINDOW, t, t + DT) == 0.0
                and _overlap(*GATE, t, t + DT) == 0.0 for t in TIMES]
        assert [op.is_free(t) for t in TIMES] == want
        # the last step before the window, between it and the gate, and
        # after the gate
        for t in (0.06, TIMES[10], TIMES[13], 0.42):
            assert op.is_free(t)
        # the first and last step inside the window, and the gate's steps
        for t in (0.09, TIMES[9], TIMES[11], 0.36):
            assert not op.is_free(t)

    def test_static_potential_never_free(self):
        op, _ = windowed_operator((32, 24))
        assert not any(op.is_free(t) for t in TIMES)

    @staticmethod
    def sliver_operator():
        # preparation_short's gate (0.35, 0.4) at dt 0.0125: the step from
        # t_27 ends one ulp of t + dt past the gate's start
        g, params, amp = free_wave((16, 12))
        sched = Schedule(0.0, 0.45, 0.0125)
        H = HamiltonianSpec(coupling=MeasurementCoupling(0, 1, 6.0, 0.35, 0.4))
        return SplitOperator(g, params, H, sched.dt), sched, amp

    def test_gate_sliver_is_free(self):
        op, sched, _ = self.sliver_operator()
        t = sched.time_at(27)
        assert 0.0 < _overlap(0.35, 0.4, t, t + sched.dt) <= math.ulp(t + sched.dt)
        assert not op._gate_on(t)
        assert op.is_free(t) and op.is_free(sched.time_at(26))
        assert not op.is_free(sched.time_at(28))

    def test_gate_sliver_applies_no_coupling(self, monkeypatch):
        op, sched, amp = self.sliver_operator()
        calls = []

        def spy(amp, _orig=op._apply_coupling_half):
            calls.append(amp.shape)
            return _orig(amp)
        monkeypatch.setattr(op, "_apply_coupling_half", spy)
        op.step_array(amp, sched.time_at(27))
        assert calls == []
        op.step_array(amp, sched.time_at(28))
        assert calls == [amp.shape] * 2

    def test_window_steps_then_one_jump_per_interval(self, monkeypatch):
        # decoherence's schedule: a window over the first 150 of 1200 steps,
        # observed every 20
        g = make_grid([{"points": 16, "lo": -8.0, "hi": 8.0}] * 2)
        H = HamiltonianSpec((PotentialTerm.make(
            "linear_coupling", [0, 1], window=(0.0, 0.3), strength=2.0),))
        psi = init_gaussian(g, [0.0, 0.0], [0.6, 0.6])
        calls = {"step_array": [], "free_flight": []}
        for name in calls:
            orig = getattr(SplitOperator, name)

            def spy(self, amp, arg, _orig=orig, _log=calls[name]):
                _log.append(arg)
                return _orig(self, amp, arg)
            monkeypatch.setattr(SplitOperator, name, spy)
        rec = evolve(psi, H, Schedule(0.0, 2.4, 0.002, 20),
                     PhysicalParams(masses=(1.0, 1.0)))
        assert len(rec.snapshots) == 61
        assert len(calls["step_array"]) == 150
        assert calls["free_flight"] == [10] + [20] * 52

    def test_one_dimension_keeps_strang_steps(self, monkeypatch):
        calls = {"step_array": 0, "free_flight": 0}
        for name in calls:
            orig = getattr(SplitOperator, name)

            def spy(self, amp, arg, _orig=orig, _name=name):
                calls[_name] += 1
                return _orig(self, amp, arg)
            monkeypatch.setattr(SplitOperator, name, spy)
        psi = init_gaussian(grid1d(64), [0.0], [1.0])
        rec = evolve(psi, FREE, Schedule(0.0, 1.0, 0.01, 5))
        assert len(rec.snapshots) == 21
        assert calls == {"step_array": 100, "free_flight": 0}

    @pytest.mark.parametrize("stride, at", [(5, r"step 5 \(t=0.05\)"),
                                            (100, r"step 100 \(t=1\)")])
    def test_nan_caught_at_first_observation(self, stride, at):
        g = make_grid([{"points": 16, "lo": -8.0, "hi": 8.0}] * 2)
        amp = init_gaussian(g, [0.0, 0.0], [1.0, 1.0]).amplitudes.copy()
        amp[10, 3] = np.nan
        with pytest.raises(PropagationError,
                           match=r"non-finite amplitudes at " + at + "$"):
            evolve(WaveFunction(g, amp), FREE, Schedule(0, 1, 0.01, stride))


# ---------------------------------------------------------------------------
# axis blocks: the axes no term couples are stepped as separate factors

SIGMAS = [0.4, 0.4, 0.9]  # tails below the warning limit on grid3d


def grid3d():
    return make_grid([{"points": 16, "lo": -8.0, "hi": 8.0},
                      {"points": 12, "lo": -6.0, "hi": 6.0},
                      {"points": 16, "lo": -12.0, "hi": 12.0}])


class TestPotentialTerm:
    @pytest.mark.parametrize("args, match", [
        (("gaussian_barrier", [0], None, {"height": 1.0, "width": 1.0}),
         "unknown potential kind 'gaussian_barrier'"),
        (("custom_grid", [0], None, {"values": [0.0] * 8}), "unknown"),
        (("harmonic", [0, 1], None, {"omega": 1.0}), r"len\(axes\) == 1"),
        (("linear_coupling", [0], None, {"strength": 1.0}), r"len\(axes\) == 2"),
        (("harmonic", [0], None, {"omgea": 1.0}), "takes params"),
        (("harmonic", [0], None, {}), "takes params"),
        (("harmonic", [0], None, {"omega": 1.0, "center": 0.5}), "takes params"),
        (("linear_coupling", [0, 1], (0.3, 0.3), {"strength": 1.0}),
         "needs t_off > t_on"),
    ])
    def test_checked_where_made(self, args, match):
        kind, axes, window, params = args
        with pytest.raises(FieldError, match=match):
            PotentialTerm.make(kind, axes, window=window, **params)

    def test_quadratic_profiles(self):
        g = grid3d()
        x, y = g.mesh(0), g.mesh(1)
        np.testing.assert_array_equal(
            potential_grid(g, PotentialTerm.make("harmonic", [0], omega=1.5)),
            0.5 * 1.5 ** 2 * x ** 2)
        np.testing.assert_array_equal(potential_grid(
            g, PotentialTerm.make("linear_coupling", [0, 1], strength=2.0)),
            2.0 * x * y)


class TestBlocks:
    def test_single_axis_terms_give_singletons(self):
        H = HamiltonianSpec((
            PotentialTerm.make("harmonic", [0], omega=1.0),
            PotentialTerm.make("harmonic", [2], omega=2.0),
            PotentialTerm.make("harmonic", [1], omega=1.0)))
        assert H.blocks(grid3d()) == ((0,), (1,), (2,))
        assert FREE.blocks(grid3d()) == ((0,), (1,), (2,))

    @pytest.mark.parametrize("H, want", [
        (HamiltonianSpec((PotentialTerm.make("linear_coupling", [2, 0],
                                             strength=1.0),)),
         ((0, 2), (1,))),
        # a windowed term binds its axes whether or not the window is open
        (HamiltonianSpec((PotentialTerm.make("linear_coupling", [1, 2],
                                             window=(5.0, 6.0), strength=1.0),)),
         ((0,), (1, 2))),
        (HamiltonianSpec(coupling=MeasurementCoupling(2, 1, 1.0, 0.0, 0.1)),
         ((0,), (1, 2))),
        (HamiltonianSpec(
            (PotentialTerm.make("linear_coupling", [0, 1], strength=1.0),),
            MeasurementCoupling(1, 2, 1.0, 0.0, 0.1)),
         ((0, 1, 2),)),
    ])
    def test_couplings_merge_axes(self, H, want):
        assert H.blocks(grid3d()) == want

    def test_blocks_validate_axes(self):
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [3], omega=1.0),))
        with pytest.raises(FieldError, match="missing axis 3"):
            H.blocks(grid3d())

    def test_shipped_twins_split_and_main_runs_do_not(self):
        from pilotwave.scenarios import _hamiltonian_of, _twin_spec, builtin_spec
        # per spec: its blocks in the first step, main run and twin, and
        # over the whole horizon, where main runs take one block
        for kind, main_start, twin_start, twin_blocks in (
                ("preparation", ((0,), (1, 2)), ((0,), (1,), (2,)),
                 ((0, 1), (2,))),
                ("decoherence", ((0, 1),), ((0,), (1,)), ((0,), (1,))),
                ("measurement", ((0,), (1,)), None, None)):
            spec = builtin_spec(kind)
            g = make_grid(spec["grid"])
            sched = _schedule_of(spec)
            first = sched.t_start + 0.5 * sched.dt
            H = _hamiltonian_of(spec)
            assert H.blocks(g, first) == main_start
            assert H.blocks(g) == (tuple(range(g.dims)),)
            if twin_start is None:
                continue
            # the twin's env coupling of strength 0 adds nothing
            twin = _hamiltonian_of(_twin_spec(spec))
            assert twin.blocks(g, first) == twin_start
            assert twin.blocks(g) == twin_blocks

    def test_blocks_at_a_time(self):
        H = HamiltonianSpec((
            PotentialTerm.make("harmonic", [0], omega=1.0),
            PotentialTerm.make("linear_coupling", [1, 2], window=(0.1, 0.2),
                               strength=1.0)),
            MeasurementCoupling(0, 1, 1.0, 0.3, 0.4))
        g = grid3d()
        assert H.blocks(g, 0.05) == ((0,), (1,), (2,))
        # a window holds its on-edge, not its off-edge
        assert H.blocks(g, 0.1) == ((0,), (1, 2))
        assert H.blocks(g, 0.2) == ((0,), (1,), (2,))
        assert H.blocks(g, 0.35) == ((0, 1), (2,))
        # blocks only coarsen from a starting partition
        assert H.blocks(g, 0.35, ((0,), (1, 2))) == ((0, 1, 2),)
        assert H.blocks(g, 0.05, ((0, 2), (1,))) == ((0, 2), (1,))
        assert H.blocks(g, None) == H.blocks(g) == ((0, 1, 2),)

    def test_restrict_renumbers_terms_and_gate(self):
        H = HamiltonianSpec((
            PotentialTerm.make("harmonic", [0], omega=1.0),
            PotentialTerm.make("linear_coupling", [2, 1], window=(0.1, 0.2),
                               strength=3.0),
            PotentialTerm.make("harmonic", [2], omega=2.0)),
            MeasurementCoupling(2, 1, 1.5, 0.0, 0.1))
        R = H.restrict((1, 2))
        assert R.terms == (
            PotentialTerm.make("linear_coupling", [1, 0], window=(0.1, 0.2),
                               strength=3.0),
            PotentialTerm.make("harmonic", [1], omega=2.0))
        assert R.coupling == MeasurementCoupling(1, 0, 1.5, 0.0, 0.1)
        # a term or gate reaching outside the block is dropped
        R = H.restrict((0,))
        assert R.terms == (PotentialTerm.make("harmonic", [0], omega=1.0),)
        assert R.coupling is None
        assert H.restrict((0, 1, 2)) == H

    def test_factors_across_a_coupling_rejected(self):
        # components factored over different blocks cannot be summed; a
        # component finer than the Hamiltonian is merged, not rejected
        # (test_finer_factors_merge_at_the_first_step)
        g = grid3d()
        psi = gaussian_factors(g, ((0,), (1,), (2,)), [0.0] * 3, SIGMAS)
        whole = init_gaussian(g, [0.0] * 3, SIGMAS)
        with pytest.raises(PropagationError, match="factored over different"):
            coevolve([psi, whole], FREE, Schedule(0, 0.1, 0.01),
                     PhysicalParams(masses=(1.0,) * 3),
                     [Bundle(np.zeros((1, 3)))])

    @staticmethod
    def spy_steps(monkeypatch):
        """Log (shape, t or n) of every step_array and free_flight call."""
        calls = {"step_array": [], "free_flight": []}
        for name in calls:
            orig = getattr(SplitOperator, name)

            def spy(self, amp, arg, _orig=orig, _log=calls[name]):
                _log.append((amp.shape, arg))
                return _orig(self, amp, arg)
            monkeypatch.setattr(SplitOperator, name, spy)
        return calls

    def test_finer_factors_merge_at_the_first_step(self, monkeypatch):
        # one factor per axis under a gate that binds axes 0 and 1 from t = 0:
        # axes 0 and 1 merge before the first step (their run against the
        # materialized one: test_engine.py)
        g = grid3d()
        psi = gaussian_factors(g, ((0,), (1,), (2,)), [0.0] * 3, SIGMAS)
        H = HamiltonianSpec(coupling=MeasurementCoupling(0, 1, 3.0, 0.0, 0.1))
        calls = self.spy_steps(monkeypatch)
        evolve(psi, H, Schedule(0, 0.1, 0.01, 5), PhysicalParams((1.0,) * 3))
        assert [shape for shape, _ in calls["step_array"]] == [(16, 12)] * 10
        assert calls["free_flight"] == [((16,), 5)] * 2

    def test_blocks_merge_at_the_step_a_binding_first_acts(self, monkeypatch):
        # preparation's shape: a static well on axis 0, a window binding
        # axes 1 and 2 from step 5 (inside the observation interval 4-8) and
        # the gate binding axes 0 and 1 from step 20 (an observation)
        g = grid3d()
        H = HamiltonianSpec((
            PotentialTerm.make("harmonic", [0], omega=1.0),
            PotentialTerm.make("linear_coupling", [1, 2], window=(0.05, 0.15),
                               strength=2.0)),
            MeasurementCoupling(0, 1, 3.0, 0.2, 0.25))
        psi = gaussian_factors(g, H.blocks(g, 0.005), [0.0] * 3, SIGMAS)
        assert psi.blocks == ((0,), (1,), (2,))
        calls = self.spy_steps(monkeypatch)
        sched = Schedule(0.0, 0.3, 0.01, 4)
        rec = evolve(psi, H, sched, PhysicalParams(masses=(1.0, 2.0, 3.0)))
        assert len(rec.snapshots) == 9
        steps = {}
        for shape, t in calls["step_array"]:
            steps.setdefault(shape, []).append(round(t / sched.dt))
        assert steps == {(16,): list(range(20)), (12, 16): list(range(5, 15)),
                         (16, 12, 16): list(range(20, 30))}
        # the free axes 1 and 2 jump to the observation at step 4, then to
        # the merge at step 5; their block jumps from the window's close
        assert calls["free_flight"] == [((12,), 4), ((16,), 4),
                                        ((12,), 1), ((16,), 1),
                                        ((12, 16), 1), ((12, 16), 4)]

    def test_preparation_short_full_grid_steps(self, monkeypatch):
        # the cut workload's main run: 36 steps, the gate's from step 28;
        # both components take the 8 steps from the gate on on the full grid
        spec = builtin_spec("preparation", (
            'grid=[{"points": 64, "lo": -12.0, "hi": 12.0}, '
            '{"points": 64, "lo": -12.0, "hi": 12.0}, '
            '{"points": 96, "lo": -18.0, "hi": 18.0}]',
            "schedule.t_end=0.45", "schedule.dt=0.0125"))
        from pilotwave.scenarios import _components_of, _simulation_of
        g, params, sched, H = _simulation_of(spec)
        with pytest.warns(UserWarning, match="boundary of axis 0"):
            comps = _components_of(spec, g, H, sched)
        assert [c.blocks for c in comps] == [((0,), (1, 2))] * 2
        calls = self.spy_steps(monkeypatch)
        coevolve(comps, H, sched, params, [])
        full = [t for shape, t in calls["step_array"] if shape == g.shape]
        assert len(full) == 16
        assert {round(t / sched.dt) for t in full} == set(range(28, 36))

    def test_free_factor_jumps_once_per_observation(self, monkeypatch):
        # preparation's twin: harmonic on axes 0 and 1, gate 0 -> 1, axis 2
        # free; the 2-D block takes Strang steps, the free axis one jump per
        # observation interval
        g = grid3d()
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),
                             PotentialTerm.make("harmonic", [1], omega=1.0)),
                            MeasurementCoupling(0, 1, 1.0, 0.05, 0.1))
        psi = gaussian_factors(g, H.blocks(g), [0.0] * 3, SIGMAS)
        calls = self.spy_steps(monkeypatch)
        sched = Schedule(0.0, 0.3, 0.01, 4)
        rec = evolve(psi, H, sched, PhysicalParams(masses=(1.0, 2.0, 3.0)))
        assert len(rec.snapshots) == 9
        assert {shape for shape, _ in calls["step_array"]} == {(16, 12)}
        assert len(calls["step_array"]) == 30
        assert calls["free_flight"] == [((16,), 4)] * 7 + [((16,), 2)]


class TestBoundaryTailOfFactors:
    def spec(self, sigmas):
        c = 0.7071067811865476
        return {"packets": [
            {"coefficient": c, "centers": [-1.0, 0.0, 0.0], "sigmas": sigmas},
            {"coefficient": c, "centers": [1.0, 0.0, 0.0], "sigmas": sigmas}]}

    def twin_components(self, sigmas):
        from pilotwave.scenarios import _components_of
        g = grid3d()
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),),
                            MeasurementCoupling(0, 1, 1.0, 0.0, 0.1))
        with pytest.warns(UserWarning) as caught:
            comps = _components_of(self.spec(sigmas), g, H, Schedule(0, 0.1, 0.01))
        assert [c.blocks for c in comps] == [((0, 1), (2,))] * 2
        return [str(w.message) for w in caught]

    def test_names_the_grids_axis(self):
        # the axis-2 factor is 1-D: its own axis 0 is the grid's axis 2
        msgs = self.twin_components([0.4, 0.4, 4.0])
        assert len(msgs) == 2
        assert all(m.startswith("packet tail at boundary of axis 2 ")
                   for m in msgs)

    def test_once_per_packet(self):
        # tails on axes 1 and 2, in different factors: the first is named
        msgs = self.twin_components([0.4, 2.0, 4.0])
        assert len(msgs) == 2
        assert all("axis 1 " in m for m in msgs)

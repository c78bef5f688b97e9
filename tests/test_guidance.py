import logging

import numpy as np
import pytest

from pilotwave.fields import (
    PhysicalParams, make_grid, init_gaussian, normalize, superpose, WaveFunction,
)
from pilotwave.propagate import HamiltonianSpec, PotentialTerm, Schedule, evolve
from pilotwave import guidance
from pilotwave.guidance import (
    MAX_SUBSTEPS, SUBSTEP_CFL, VelocityField,
    velocity_field, velocity_at, velocity_at_many, advance_interval,
    local_field, simulate_trajectory, simulate_trajectories,
)


def grid1d(n=256, lo=-16.0, hi=16.0):
    return make_grid([{"points": n, "lo": lo, "hi": hi}])


def free_gaussian_record(t_end=2.0, dt=0.001, n=1024, stride=1):
    g = make_grid([{"points": n, "lo": -20, "hi": 20}])
    psi = init_gaussian(g, [0.0], [1.0])
    return evolve(psi, HamiltonianSpec(), Schedule(0, t_end, dt, stride))


class TestVelocityField:
    def test_real_eigenstate_zero_velocity(self):
        # pure roundoff away from the tails (v divides by |psi|, so the
        # deep-tail cells amplify machine noise)
        psi = init_gaussian(grid1d(), [0.0], [np.sqrt(0.5)])
        vf = velocity_field(psi)
        amp = np.abs(psi.amplitudes)
        bulk = amp > 1e-4 * amp.max()
        assert np.max(np.abs(vf.components[0][bulk])) < 1e-10

    def test_plane_wave_uniform_velocity(self):
        g = grid1d(64, 0.0, 16.0)
        k = 2 * np.pi * 5 / 16.0
        x = g.axis_coords(0)
        psi = normalize(WaveFunction(g, np.exp(1j * k * x)))
        vf = velocity_field(psi)
        np.testing.assert_allclose(vf.components[0], k, atol=1e-12)

    def test_free_gaussian_closed_form(self):
        rec = free_gaussian_record(t_end=1.0, stride=1000)
        w = rec.wave_at(-1)
        t = w.time
        vf = velocity_field(w)
        x = w.grid.axis_coords(0)
        v_exact = x * (t / 4.0) / (1.0 + t * t / 4.0)
        sig = np.sqrt(1 + t * t / 4.0)
        m = np.abs(x) <= 3 * sig
        assert np.max(np.abs(vf.components[0] - v_exact)[m]) < 1e-6

    def test_mass_scaling(self):
        g = grid1d(64, 0.0, 16.0)
        k = 2 * np.pi * 5 / 16.0
        x = g.axis_coords(0)
        psi = normalize(WaveFunction(g, np.exp(1j * k * x)))
        vf = velocity_field(psi, PhysicalParams(masses=(4.0,)))
        np.testing.assert_allclose(vf.components[0], k / 4.0, atol=1e-12)


# Reference implementation: the full-grid velocity field, dividing by a
# safe copy of the wave everywhere and filling nodal cells with np.where.

def _oracle_velocity_field(psi, params=None, eps_node=1e-8):
    from scipy.ndimage import distance_transform_edt
    import scipy.fft as sfft

    if params is None:
        params = PhysicalParams(masses=(1.0,) * psi.grid.dims)
    grid = psi.grid
    amp = psi.amplitudes
    absamp = np.abs(amp)
    nodal = absamp < eps_node * np.max(absamp)
    all_nodal = bool(np.all(nodal))
    comps = np.empty((grid.dims,) + tuple(grid.shape))
    safe = np.where(nodal, 1.0, amp)
    for i in range(grid.dims):
        k = grid.k_coords(i)
        shp = [1] * grid.dims
        shp[i] = grid.shape[i]
        grad = sfft.ifft(1j * k.reshape(shp) * sfft.fft(amp, axis=i), axis=i)
        np.multiply(params.hbar / params.masses[i], np.imag(grad / safe),
                    out=comps[i])
    if np.any(nodal) and not all_nodal:
        idx = distance_transform_edt(nodal, return_distances=False,
                                     return_indices=True)
        src = tuple(idx[d] for d in range(grid.dims))
        for i in range(grid.dims):
            comps[i] = np.where(nodal, comps[i][src], comps[i])
    return comps, nodal, bool(np.any(nodal)), all_nodal


class TestVelocityFieldOracle:
    """Dividing only at non-nodal cells reproduces the full-grid field."""

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    @pytest.mark.parametrize("eps_node,expect", [(1e-8, "none"),
                                                 (0.3, "some"),
                                                 (2.0, "all")])
    def test_matches_oracle(self, shape, eps_node, expect, monkeypatch):
        g = make_grid([{"points": n, "lo": -4.0 - i, "hi": 5.0 + i}
                       for i, n in enumerate(shape)])
        rng = np.random.default_rng(3)
        amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        params = PhysicalParams(masses=tuple(1.0 + 0.5 * i
                                             for i in range(len(shape))))
        psi = WaveFunction(g, amp, 0.25)
        monkeypatch.setattr(guidance, "EPS_NODE", eps_node)
        vf = velocity_field(psi, params)
        comps, nodal, any_nodal, all_nodal = _oracle_velocity_field(
            psi, params, eps_node=eps_node)
        assert (any_nodal, all_nodal) == {"none": (False, False),
                                          "some": (True, False),
                                          "all": (True, True)}[expect]
        assert np.array_equal(vf.components, comps)
        assert np.array_equal(vf.nodal, nodal)
        assert (vf.any_nodal, vf.all_nodal) == (any_nodal, all_nodal)
        assert vf.time == 0.25

    def test_nodal_gaussian_matches_oracle(self):
        # a smooth wave whose tails are nodal, as in the shipped scenarios
        g = make_grid([{"points": 24, "lo": -12, "hi": 12},
                       {"points": 20, "lo": -10, "hi": 10},
                       {"points": 20, "lo": -15, "hi": 15}])
        a = init_gaussian(g, [-3.0, 0.0, 1.0], [0.7, 0.6, 1.0], [0.0, 0.4, 0.0])
        b = init_gaussian(g, [3.0, 1.0, -1.0], [0.7, 0.6, 1.0], [0.0, -0.4, 0.0])
        psi = superpose([(1 / np.sqrt(2), a), (1 / np.sqrt(2), b)])
        vf = velocity_field(psi)
        comps, nodal, _, _ = _oracle_velocity_field(psi)
        assert 0.3 < np.mean(nodal) < 1.0
        assert np.array_equal(vf.components, comps)
        assert np.array_equal(vf.nodal, nodal)

    def test_input_unchanged(self, monkeypatch):
        g = make_grid([{"points": 32, "lo": -4, "hi": 4}])
        rng = np.random.default_rng(4)
        amp = rng.normal(size=32) + 1j * rng.normal(size=32)
        kept = amp.copy()
        monkeypatch.setattr(guidance, "EPS_NODE", 0.3)
        velocity_field(WaveFunction(g, amp))
        assert np.array_equal(amp, kept)


class TestVelocityAt:
    def make_linear_field(self, c=0.3):
        g = grid1d(64, 0.0, 16.0)
        x = g.axis_coords(0)
        return g, VelocityField(g, [c * x], np.zeros(64, dtype=bool))

    def test_on_grid_point(self):
        g, vf = self.make_linear_field()
        x3 = g.axis_coords(0)[3]
        assert velocity_at(vf, (x3,))[0] == pytest.approx(0.3 * x3, abs=1e-14)

    def test_uniform_field(self):
        g = grid1d(64, 0.0, 16.0)
        vf = VelocityField(g, [np.full(64, 1.7)], np.zeros(64, dtype=bool))
        for q in (0.05, 3.33, 15.99):
            assert velocity_at(vf, (q,))[0] == pytest.approx(1.7, abs=1e-14)

    def test_linear_exactness_at_midpoint(self):
        g, vf = self.make_linear_field()
        mid = g.axis_coords(0)[10] + 0.5 * g.dxs[0]
        assert velocity_at(vf, (mid,))[0] == pytest.approx(0.3 * mid, abs=1e-13)

    def test_many_matches_single(self):
        g, vf = self.make_linear_field()
        pts = np.array([[0.3], [7.77], [12.1]])
        many, _ = velocity_at_many(vf, pts)
        for p, v in zip(pts, many):
            assert velocity_at(vf, tuple(p))[0] == pytest.approx(v[0], abs=1e-14)


# Reference implementation: interpolation with one stencil per time level,
# built per corner, and an RK4 stage that interpolates each level
# separately.  The shared-stencil path must reproduce it bit for bit.

def _oracle_corners(grid, pts):
    M, D = pts.shape
    base = np.empty((M, D), dtype=np.int64)
    frac = np.empty((M, D))
    for i in range(D):
        u = (pts[:, i] - grid.los[i]) / grid.dxs[i]
        f = np.floor(u)
        base[:, i] = np.mod(f.astype(np.int64), grid.shape[i])
        frac[:, i] = u - f
    corners = []
    for mask in range(1 << D):
        idx = []
        w = np.ones(M)
        for i in range(D):
            hi = (mask >> i) & 1
            ii = base[:, i] + hi
            if hi:
                ii = np.mod(ii, grid.shape[i])
            idx.append(ii)
            w = w * (frac[:, i] if hi else (1.0 - frac[:, i]))
        corners.append((tuple(idx), w))
    return corners


def _oracle_velocity_at_many(vfield, pts):
    pts = vfield.grid.wrap(np.atleast_2d(pts))
    M, D = pts.shape
    out = np.zeros((M, D))
    touched = np.zeros(M, dtype=bool)
    inside = np.ones(M, dtype=bool)
    for idx, w in _oracle_corners(vfield.grid, pts):
        is_nodal = vfield.nodal[idx]
        touched |= is_nodal
        inside &= is_nodal
        for i in range(D):
            out[:, i] += w * vfield.components[i][idx]
    return out, touched, inside


def _oracle_rk4(vf0, vf1, pts, dt, f0, f1):
    grid = vf0.grid

    def eval_v(p, frac):
        a, na, ia = _oracle_velocity_at_many(vf0, p)
        b, nb, ib = _oracle_velocity_at_many(vf1, p)
        v = (1.0 - frac) * a + frac * b
        touched = na | nb
        if np.any(touched):
            cap = min(grid.dxs) / dt
            speed = np.sqrt(np.sum(v * v, axis=1))
            over = touched & (speed > cap)
            if np.any(over):
                v[over] *= (cap / speed[over])[:, None]
        return v, ia & ib

    fm = 0.5 * (f0 + f1)
    k1, deep = eval_v(pts, f0)
    k2, _ = eval_v(pts + 0.5 * dt * k1, fm)
    k3, _ = eval_v(pts + 0.5 * dt * k2, fm)
    k4, _ = eval_v(pts + dt * k3, f1)
    new = pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    degen = deep.copy()
    if vf0.all_nodal or vf1.all_nodal:
        degen[:] = True
    new[degen] = pts[degen]
    return grid.wrap(new), degen


def _oracle_advance_interval(vf0, vf1, pts, dt):
    va, _, _ = _oracle_velocity_at_many(vf0, pts)
    vb, _, _ = _oracle_velocity_at_many(vf1, pts)
    vmax = max(float(np.max(np.abs(va))), float(np.max(np.abs(vb))), 0.0)
    n = int(np.ceil(vmax * dt / (SUBSTEP_CFL * min(vf0.grid.dxs))))
    n = min(max(n, 1), MAX_SUBSTEPS)
    degen_any = np.zeros(len(pts), dtype=bool)
    for k in range(n):
        pts, degen = _oracle_rk4(vf0, vf1, pts, dt / n, k / n, (k + 1) / n)
        degen_any |= degen
    return pts, degen_any


def noded_fields(shape):
    """Two velocity-field snapshots with nodal cells on a periodic grid."""
    g = make_grid([{"points": n, "lo": -4.0 - i, "hi": 5.0 + i}
                   for i, n in enumerate(shape)])
    rng = np.random.default_rng(7)
    amp = (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    amp2 = amp + 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    # EPS_NODE 0.3 flags about a third of the cells of a random wave nodal
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guidance, "EPS_NODE", 0.3)
        vf0 = velocity_field(WaveFunction(g, amp, 0.0))
        vf1 = velocity_field(WaveFunction(g, amp2, 0.1))
    assert vf0.any_nodal and vf1.any_nodal
    assert not (vf0.all_nodal or vf1.all_nodal)
    return g, vf0, vf1


def probe_points(g, n=200):
    """Points inside and far outside the domain, and one on the hi edge."""
    rng = np.random.default_rng(11)
    los, lengths = np.asarray(g.los), np.asarray(g.lengths)
    pts = los + lengths * rng.uniform(-2.0, 3.0, size=(n, g.dims))
    # the largest coordinate below hi: u = (x - lo) / dx rounds to n
    edge = np.nextafter(g.his[0], -np.inf)
    assert (edge - g.los[0]) / g.dxs[0] == g.shape[0]
    pts[0, 0] = edge
    return pts


class TestSharedStencil:
    """The shared-stencil RK4 path reproduces the per-level oracle exactly."""

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    def test_velocity_at_many_matches_oracle(self, shape):
        g, vf0, _ = noded_fields(shape)
        got = velocity_at_many(vf0, probe_points(g), return_inside=True)
        want = _oracle_velocity_at_many(vf0, probe_points(g))
        assert any(np.any(w) for w in want[1:])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    @pytest.mark.parametrize("dt", [1e-3, 0.05, 50.0])
    def test_advance_interval_matches_oracle(self, shape, dt, caplog):
        g, vf0, vf1 = noded_fields(shape)
        pts = probe_points(g)
        with caplog.at_level(logging.WARNING, logger="pilotwave.guidance"):
            got = advance_interval(vf0, vf1, pts, dt)
        # below MAX_SUBSTEPS the CFL rule keeps speeds under the nodal speed
        # cap, so the largest dt is capped to exercise that branch too
        assert bool(caplog.records) == (dt == 50.0)
        want = _oracle_advance_interval(vf0, vf1, pts, dt)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_field_built_from_list(self):
        g, vf0, vf1 = noded_fields((32, 24))
        listed = VelocityField(g, [vf0.components[0], vf0.components[1]],
                               vf0.nodal, any_nodal=True)
        assert isinstance(listed.components, np.ndarray)
        assert listed.components.shape == (2, 32, 24)
        assert np.array_equal(listed.components[1], vf0.components[1])
        pts = probe_points(g)
        got = advance_interval(listed, vf1, pts, 0.05)
        want = _oracle_advance_interval(listed, vf1, pts, 0.05)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


# Probe-local fields: the values a probe reads, at every stencil corner it
# visits, are those of the complete field, bit for bit.

def two_packet_waves(shape):
    """Two snapshots of a two-packet wave whose tails are nodal, and
    unequal masses."""
    g = make_grid([{"points": n, "lo": -8.0, "hi": 8.0} for n in shape])
    D = len(shape)
    params = PhysicalParams(masses=(1.0, 3.0, 20.0)[:D])
    waves = []
    for shift in (0.0, 0.2):
        a = init_gaussian(g, [-1.5 + shift] + [0.3] * (D - 1), [0.5] * D,
                          [1.0] * D, params=params)
        b = init_gaussian(g, [1.5] + [-0.2 - shift] * (D - 1), [0.5] * D,
                          [-1.0] + [0.5] * (D - 1), params=params)
        waves.append(superpose([(0.8, a), (0.6, b)]))
    return g, params, waves


def corner_reads(monkeypatch, fields, pts, dt):
    """advance_interval between `fields`, and the raveled stencil corners
    of every interpolation it made."""
    seen = []
    interp = guidance._interp

    def spy(fs, flat, w):
        seen.append(flat.reshape(-1).copy())
        return interp(fs, flat, w)

    monkeypatch.setattr(guidance, "_interp", spy)
    got = advance_interval(*fields, pts, dt)
    monkeypatch.setattr(guidance, "_interp", interp)
    return got, np.unique(np.concatenate(seen))


def assert_reads_complete(lf, vf, flat):
    """`lf` reads `vf`'s values and nodal flags at the raveled cells `flat`."""
    D = vf.grid.dims
    # unit weights on a one-corner stencil return each corner's value
    (vals,), (nodal,) = guidance._interp((lf,), flat[None, :],
                                         np.ones((1, flat.size)))
    assert np.array_equal(vals.T, vf.components.reshape(D, -1)[:, flat],
                          equal_nan=True)
    assert np.array_equal(nodal[0], vf.nodal.reshape(-1)[flat])
    assert np.array_equal(lf.nodal, vf.nodal)
    assert (lf.any_nodal, lf.all_nodal) == (vf.any_nodal, vf.all_nodal)
    assert lf.time == vf.time


class TestLocalFieldOracle:
    @pytest.mark.parametrize("shape", [(32, 28), (20, 18, 24)])
    def test_probe_reads_complete_field(self, shape, monkeypatch):
        g, params, (psi0, psi1) = two_packet_waves(shape)
        vfs = [velocity_field(p, params) for p in (psi0, psi1)]
        lfs = [local_field(p, params) for p in (psi0, psi1)]
        assert vfs[0].any_nodal
        pts = np.array([[-1.4] + [0.2] * (g.dims - 1)])
        got, corners = corner_reads(monkeypatch, lfs, pts, 2.0)
        want = advance_interval(*vfs, pts, 2.0)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        # several cells visited, none nodal: the fields stayed local
        assert corners.size > 2 ** g.dims
        assert all(lf.components is None for lf in lfs)
        for lf, vf in zip(lfs, vfs):
            assert_reads_complete(lf, vf, corners)
            assert lf.components is None
            lines = [len(np.flatnonzero(rows >= 0))
                     for rows, _ in lf._lines.values()]
            assert len(lines) == g.dims and max(lines) < min(g.shape)
        assert velocity_at(lfs[1], pts[0]) == velocity_at(vfs[1], pts[0])

    def test_nodal_corner_completes_once(self, monkeypatch):
        g, params, (psi, _) = two_packet_waves((32, 28))
        vf = velocity_field(psi, params)
        calls = []
        complete = guidance.velocity_field

        def counted(*args):
            calls.append(args)
            return complete(*args)

        monkeypatch.setattr(guidance, "velocity_field", counted)
        lf = local_field(psi, params)
        bulk = np.array([[-1.4, 0.2], [1.4, -0.3]])
        assert velocity_at_many(lf, bulk)[0].tolist() == \
            velocity_at_many(vf, bulk)[0].tolist()
        assert not calls and lf.components is None
        # the corner of the domain is deep in both packets' tails
        tail = np.array([[g.los[0], g.los[1]]])
        got = velocity_at_many(lf, tail, return_inside=True)
        assert len(calls) == 1 and lf.components is not None
        assert got[2].all()
        for a, b in zip(got, velocity_at_many(vf, tail, return_inside=True)):
            assert np.array_equal(a, b)
        # the complete field answers every later read
        everywhere = np.arange(g.shape[0] * g.shape[1])
        assert_reads_complete(lf, vf, everywhere)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_zero_wave(self):
        # a zero wave is nodal everywhere and keeps hbar/m * Im(grad) = 0
        g = make_grid([{"points": 24, "lo": -3, "hi": 3},
                       {"points": 20, "lo": -2, "hi": 2}])
        psi = WaveFunction(g, np.zeros((24, 20), dtype=complex), 0.5)
        vf = velocity_field(psi)
        lf = local_field(psi)
        assert vf.all_nodal and vf.nodal.all()
        assert np.array_equal(vf.components, np.zeros((2, 24, 20)))
        assert_reads_complete(lf, vf, np.array([0, 1, 20, 21, 479]))

    @pytest.mark.parametrize("shape", [(32, 24), (10, 12, 9)])
    @pytest.mark.parametrize("eps_node", [1e-8, 0.3, 2.0])
    def test_monkeypatched_eps_node(self, shape, eps_node, monkeypatch):
        g = make_grid([{"points": n, "lo": -4.0 - i, "hi": 5.0 + i}
                       for i, n in enumerate(shape)])
        rng = np.random.default_rng(3)
        amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        params = PhysicalParams(masses=tuple(1.0 + 0.5 * i
                                             for i in range(len(shape))))
        psi = WaveFunction(g, amp, 0.25)
        monkeypatch.setattr(guidance, "EPS_NODE", eps_node)
        vf = velocity_field(psi, params)
        lf = local_field(psi, params)
        assert (lf.any_nodal, lf.all_nodal) == (eps_node > 1e-8,
                                                eps_node > 1.0)
        pts = probe_points(g, n=3)
        for a, b in zip(velocity_at_many(lf, pts, return_inside=True),
                        velocity_at_many(vf, pts, return_inside=True)):
            assert np.array_equal(a, b)
        assert_reads_complete(lf, vf, np.arange(amp.size))


class TestSubstepCap:
    def fast_field(self, speed):
        g = grid1d(64, 0.0, 16.0)
        return VelocityField(g, [np.full(64, speed)], np.zeros(64, dtype=bool))

    def test_cap_logs_one_warning_per_interval(self, caplog):
        vf = self.fast_field(100.0)
        # 100 * 1.0 / (0.2 * 0.25) = 2000 substeps needed
        pts = np.array([[1.0], [2.0]])
        with caplog.at_level(logging.WARNING, logger="pilotwave.guidance"):
            advance_interval(vf, vf, pts, 1.0)
            advance_interval(vf, vf, pts, 1.0)
        msgs = [r.getMessage() for r in caplog.records]
        assert len(msgs) == 2
        assert "2000" in msgs[0] and str(MAX_SUBSTEPS) in msgs[0]

    def test_no_warning_under_cap(self, caplog):
        vf = self.fast_field(1.0)
        with caplog.at_level(logging.WARNING, logger="pilotwave.guidance"):
            advance_interval(vf, vf, np.array([[1.0]]), 1.0)
        assert not caplog.records


class TestAdvanceParticle:
    """advance_interval on one particle, the wave the same at both ends."""

    @staticmethod
    def advance(psi, x, dt):
        vf = velocity_field(psi)
        new, degen = advance_interval(vf, vf, np.array([[x]]), dt)
        return new[0, 0], bool(degen[0])

    @staticmethod
    def plane_wave():
        g = grid1d(64, 0.0, 16.0)
        k = 2 * np.pi * 3 / 16.0
        x = g.axis_coords(0)
        return normalize(WaveFunction(g, np.exp(1j * k * x))), k

    def test_stationary_for_zero_velocity(self):
        psi = init_gaussian(grid1d(), [0.0], [np.sqrt(0.5)])
        x, degen = self.advance(psi, 0.7, 0.01)
        assert x == pytest.approx(0.7, abs=1e-10)
        assert not degen

    def test_plane_wave_constant_drift(self):
        psi, k = self.plane_wave()
        x, _ = self.advance(psi, 5.0, 0.25)
        assert x == pytest.approx(5.0 + k * 0.25, abs=1e-10)

    def test_periodic_wrap(self):
        psi, k = self.plane_wave()
        x, _ = self.advance(psi, 15.9, 1.0)
        assert 0.0 <= x < 16.0
        assert x == pytest.approx(15.9 + k - 16.0, abs=1e-10)


class TestSimulateTrajectory:
    def test_harmonic_ground_state_constant(self):
        g = grid1d()
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),))
        psi = init_gaussian(g, [0.0], [np.sqrt(0.5)])
        # residual drift is O(dt^2) splitting error in the stationary state
        rec = evolve(psi, H, Schedule(0, 2, 0.00025, 80))
        tr = simulate_trajectory(rec, [0.9])
        assert np.max(np.abs(tr.positions - 0.9)) < 1e-8

    def test_free_gaussian_scaling_oracle(self):
        # X(t) = X0 sigma(t)/sigma0 within 1e-3 relative at t=2
        rec = free_gaussian_record()
        trs = simulate_trajectories(rec, np.array([[-1.0], [0.0], [1.0]]))
        scale = np.sqrt(2.0)
        for tr, x0 in zip(trs, (-1.0, 0.0, 1.0)):
            assert abs(tr.positions[-1, 0] - x0 * scale) <= 1e-3 * max(abs(x0 * scale), 1e-12)

    def test_order_preservation(self):
        rec = free_gaussian_record(t_end=1.0, dt=0.005)
        x0 = np.linspace(-2, 2, 41)[:, None]
        trs = simulate_trajectories(rec, x0)
        pos = np.stack([tr.positions[:, 0] for tr in trs], axis=1)
        for row in pos:
            assert np.all(np.diff(row) > 0)

    def test_trajectory_convergence_order(self):
        # error vs guidance dt fits slope >= 2 on the free-Gaussian oracle
        errs = []
        dts = (0.04, 0.02, 0.01)
        for dt in dts:
            rec = free_gaussian_record(t_end=2.0, dt=dt, n=512)
            tr = simulate_trajectory(rec, [1.0])
            errs.append(abs(tr.positions[-1, 0] - np.sqrt(2.0)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 2.0

    def test_node_safety(self):
        # superposition of ground and first excited states has a moving node
        g = grid1d(512)
        H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),))
        x = g.axis_coords(0)
        ground = np.exp(-x ** 2 / 2.0)
        excited = x * np.exp(-x ** 2 / 2.0)
        psi = normalize(WaveFunction(g, (ground + excited).astype(complex)))
        rec = evolve(psi, H, Schedule(0, 6, 0.002, 10))
        trs = simulate_trajectories(rec, np.linspace(-2, 2, 21)[:, None])
        for tr in trs:
            assert np.all(np.isfinite(tr.positions))
        assert sum(tr.degenerate for tr in trs) == 0

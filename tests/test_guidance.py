import logging
import math

import numpy as np
import pytest

from pilotwave.fields import (
    PhysicalParams, make_grid, init_gaussian, normalize, superpose, WaveFunction,
)
from pilotwave.propagate import HamiltonianSpec, PotentialTerm, Schedule, evolve
from pilotwave import guidance
from pilotwave.guidance import (
    MAX_SUBSTEPS, SUBSTEP_CFL, VelocityField,
    velocity_field, velocity_at_many, advance_interval,
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
        np.multiply(1.0 / params.masses[i], np.imag(grad / safe),
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
        assert (vf.nodal.any(), vf.all_nodal) == (any_nodal, all_nodal)
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


def velocity_at(vf, x):
    """The velocity along axis 0 at the 1-D point x."""
    return velocity_at_many(vf, [[x]])[0][0, 0]


class TestVelocityAt:
    def make_linear_field(self, c=0.3):
        g = grid1d(64, 0.0, 16.0)
        x = g.axis_coords(0)
        return g, VelocityField(g, [c * x], np.zeros(64, dtype=bool))

    def test_on_grid_point(self):
        g, vf = self.make_linear_field()
        x3 = g.axis_coords(0)[3]
        assert velocity_at(vf, x3) == pytest.approx(0.3 * x3, abs=1e-14)

    def test_uniform_field(self):
        g = grid1d(64, 0.0, 16.0)
        vf = VelocityField(g, [np.full(64, 1.7)], np.zeros(64, dtype=bool))
        for q in (0.05, 3.33, 15.99):
            assert velocity_at(vf, q) == pytest.approx(1.7, abs=1e-14)

    def test_linear_exactness_at_midpoint(self):
        g, vf = self.make_linear_field()
        mid = g.axis_coords(0)[10] + 0.5 * g.dxs[0]
        assert velocity_at(vf, mid) == pytest.approx(0.3 * mid, abs=1e-13)

    def test_many_matches_single(self):
        g, vf = self.make_linear_field()
        pts = np.array([[0.3], [7.77], [12.1]])
        many, _ = velocity_at_many(vf, pts)
        for p, v in zip(pts, many):
            assert velocity_at(vf, p[0]) == pytest.approx(v[0], abs=1e-14)


# Reference implementation: interpolation with one stencil per time level,
# built per corner, and an RK4 stage that blends the two levels cell by cell
# and interpolates the blend.  The shared-stencil path must reproduce it bit
# for bit.

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


def _oracle_velocity_at_many(vfield, pts, components=None):
    """vfield's velocity at pts, or that of `components` on vfield's grid,
    and vfield's stencil flags (touched, inside)."""
    comps = vfield.components if components is None else components
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
            out[:, i] += w * comps[i][idx]
    return out, touched, inside


def _oracle_blend(vf0, vf1, frac):
    """The components at time fraction frac between two fields, cell by
    cell; the fields' own at 0 and 1."""
    if frac in (0.0, 1.0):
        return (vf0, vf1)[int(frac)].components
    return vf0.components * (1.0 - frac) + vf1.components * frac


def _oracle_stage(vf0, vf1, p, frac):
    """The blended velocity at points p, and the pair's flags."""
    v, na, ia = _oracle_velocity_at_many(vf0, p, _oracle_blend(vf0, vf1, frac))
    _, nb, ib = _oracle_velocity_at_many(vf1, p)
    return v, na | nb, ia & ib


def _interpolate_then_blend(vf0, vf1, p, frac):
    """`_oracle_stage` in the order the kernels had before they blended the
    fields: each level interpolated, then the two blended."""
    a, na, ia = _oracle_velocity_at_many(vf0, p)
    b, nb, ib = _oracle_velocity_at_many(vf1, p)
    return (1.0 - frac) * a + frac * b, na | nb, ia & ib


def _oracle_rk4(vf0, vf1, pts, dt, f0, f1, caps=None):
    """One RK4 substep; `caps`, if given, gets the number of particles each
    stage slows to the nodal speed cap."""
    grid = vf0.grid

    def eval_v(p, frac):
        v, touched, inside = _oracle_stage(vf0, vf1, p, frac)
        if np.any(touched):
            cap = min(grid.dxs) / dt
            speed = np.sqrt(np.sum(v * v, axis=1))
            over = touched & (speed > cap)
            if caps is not None:
                caps.append(int(over.sum()))
            if np.any(over):
                v[over] *= (cap / speed[over])[:, None]
        return v, inside

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


def _oracle_advance_interval(vf0, vf1, pts, dt, caps=None):
    va, _, _ = _oracle_velocity_at_many(vf0, pts)
    vb, _, _ = _oracle_velocity_at_many(vf1, pts)
    vmax = max(float(np.max(np.abs(va))), float(np.max(np.abs(vb))), 0.0)
    n = int(np.ceil(vmax * dt / (SUBSTEP_CFL * min(vf0.grid.dxs))))
    n = min(max(n, 1), MAX_SUBSTEPS)
    degen_any = np.zeros(len(pts), dtype=bool)
    for k in range(n):
        pts, degen = _oracle_rk4(vf0, vf1, pts, dt / n, k / n, (k + 1) / n,
                                 caps)
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
    assert vf0.nodal.any() and vf1.nodal.any()
    assert not (vf0.all_nodal or vf1.all_nodal)
    return g, vf0, vf1


def probe_points(g, n=200):
    """Points inside and far outside the domain, and one on the hi edge."""
    rng = np.random.default_rng(11)
    los, lengths = np.asarray(g.los), np.asarray(g.lengths)
    pts = los + lengths * rng.uniform(-2.0, 3.0, size=(n, g.dims))
    # the largest coordinate below hi: u = (x - lo) / dx rounds to n, but
    # `Grid.wrap` may map it to lo (`hi_edge` finds points whose wrapped
    # stencil starts at n)
    edge = np.nextafter(g.his[0], -np.inf)
    assert (edge - g.los[0]) / g.dxs[0] == g.shape[0]
    pts[0, 0] = edge
    return pts


def drifting_fields(shape, drift):
    """`noded_fields` with `drift` added to every velocity component, and
    points that cross the edge the drift points to within an interval of
    DRIFT_DT: each axis starts within two cells of that edge, and a third of
    the points start a whole number of periods away, unwrapped.  Level 1
    has no nodal cell, so no particle freezes; level 0's touch stencils."""
    g, vf0, vf1 = noded_fields(shape)
    vfs = [VelocityField(g, vf.components + drift, nodal, vf.time)
           for vf, nodal in ((vf0, vf0.nodal), (vf1, np.zeros(g.shape, bool)))]
    rng = np.random.default_rng(17)
    los, dxs, lengths = (np.asarray(a) for a in (g.los, g.dxs, g.lengths))
    edge = los + lengths if drift > 0 else los
    pts = edge - np.sign(drift) * rng.uniform(0.05, 2.0, (30, g.dims)) * dxs
    pts[::3] += lengths * rng.choice([-2, -1, 1, 3], (10, g.dims))
    assert not np.all((pts >= los) & (pts < los + lengths))
    return g, vfs, pts


# a drift of 100 moves a point by 1.0 over one interval: 1 to 4 cells of
# `noded_fields`
DRIFT_DT = 0.01


def sample(vf0, vf1, pts, fracs=(0.0, 1.0)):
    """The pair at points (M, D) through one `_sampler`, as (*levels,
    touched, inside), with the velocity at each fraction of `fracs` of shape
    (M, D); by default both fields' own, (a, b, touched, inside)."""
    read, inside = guidance._sampler(vf0, vf1)
    levels, touched, low = read(list(pts.T), fracs)
    return (*(np.stack(v, axis=1) for v in levels), touched,
            inside.take(low, mode="clip"))


class TestSharedStencil:
    """The shared-stencil RK4 path reproduces the per-level oracle exactly."""

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    def test_velocity_at_many_matches_oracle(self, shape):
        g, vf0, _ = noded_fields(shape)
        got = velocity_at_many(vf0, probe_points(g))
        want = _oracle_velocity_at_many(vf0, probe_points(g))
        assert any(np.any(w) for w in want[1:])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        # stencils nodal everywhere, as the table flags them
        assert np.array_equal(sample(vf0, vf0, probe_points(g))[3], want[2])

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

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    @pytest.mark.parametrize("drift", [-100.0, 100.0])
    def test_points_crossing_an_edge_match_oracle(self, shape, drift):
        # a substep's first stage reads the points the last one wrapped; the
        # interval's first read wraps points that start unwrapped
        g, (vf0, vf1), pts = drifting_fields(shape, drift)
        start, end = g.wrap(pts), _oracle_advance_interval(vf0, vf1, pts,
                                                           DRIFT_DT)[0]
        crossed = end < start if drift > 0 else end > start
        assert crossed.all(axis=1).any() and crossed.any(axis=0).all()
        assert_group_matches_oracle(vf0, vf1, pts, DRIFT_DT)

    def test_field_built_from_list(self):
        g, vf0, vf1 = noded_fields((32, 24))
        listed = VelocityField(g, [vf0.components[0], vf0.components[1]],
                               vf0.nodal)
        assert isinstance(listed.components, np.ndarray)
        assert listed.components.shape == (2, 32, 24)
        assert np.array_equal(listed.components[1], vf0.components[1])
        pts = probe_points(g)
        got = advance_interval(listed, vf1, pts, 0.05)
        want = _oracle_advance_interval(listed, vf1, pts, 0.05)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def assert_group_matches_oracle(vf0, vf1, pts, dt):
    """A group's advance_interval is the oracle's, bit for bit; returns the
    degenerate flags."""
    got = advance_interval(vf0, vf1, pts, dt)
    want = _oracle_advance_interval(vf0, vf1, pts, dt)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    return got[1]


def hi_edge(g, i):
    """A coordinate below hi on axis i that `Grid.wrap` keeps, and whose
    u = (x - lo) / dx rounds to n: the stencil's lower corner is n."""
    lo, dx, n = g.los[i], g.dxs[i], g.shape[i]
    x = g.his[i]
    for _ in range(64):
        x = np.nextafter(x, -np.inf)
        y = x - lo
        # the wrapped point is y + lo
        if y < g.lengths[i] and math.floor((y + lo - lo) / dx) == n:
            return x
    raise AssertionError(f"no hi-edge point on axis {i}")


def with_nodal(vf, nodal):
    """`vf`'s components with another nodal mask."""
    return VelocityField(vf.grid, vf.components, nodal, vf.time)


class TestSamplingTable:
    """What the padded table adds: the padding, and its two flags."""

    # on these axes some x < hi stays below hi when wrapped, and its
    # stencil's lower corner floor(u) is n
    @pytest.mark.parametrize("shape", [(35,), (35, 33), (35, 33, 12)])
    def test_last_cell_reads_padded_first_cell(self, shape):
        g, vf0, vf1 = noded_fields(shape)
        # the second cell on each axis nodal at level 1: a hi-edge stencil
        # reads it as its upper corner
        nodal = vf1.nodal.copy()
        for i in range(g.dims):
            nodal[(slice(None),) * i + (1,)] = True
        vf1 = with_nodal(vf1, nodal)
        los, dxs, n = (np.asarray(a) for a in (g.los, g.dxs, g.shape))
        edge = [hi_edge(g, i) for i in range(g.dims)]
        # per axis, a point in the last cell, on the hi edge or in the bulk
        rng = np.random.default_rng(13)
        cell = rng.choice([-1, 0, 1], size=(300, g.dims))
        u = np.where(cell < 0, n - rng.uniform(0.05, 0.95, size=cell.shape),
                     rng.uniform(0.0, n - 1.0, size=cell.shape))
        pts = np.where(cell == 0, edge, los + u * dxs)
        f = np.floor((g.wrap(pts) - los) / dxs)
        for c, want in ((-1, n - 1), (0, n)):
            assert np.array_equal(f[cell == c],
                                  np.broadcast_to(want, f.shape)[cell == c])
        assert (cell < 0).all(axis=1).any() and (cell == 0).all(axis=1).any()
        got = sample(vf0, vf1, pts)
        a, na, ia = _oracle_velocity_at_many(vf0, pts)
        b, nb, ib = _oracle_velocity_at_many(vf1, pts)
        for x, y in zip(got, (a, b, na | nb, ia & ib)):
            assert np.array_equal(x, y)
        for dt in (0.05, 50.0):
            assert_group_matches_oracle(vf0, vf1, pts, dt)

    @pytest.mark.parametrize("level", [0, 1])
    def test_nodal_at_one_level_only(self, level):
        # a block nodal at one time level: its stencils touch nodes, and the
        # particles move on
        g, vf0, vf1 = noded_fields((32, 24))
        block = np.zeros(g.shape, dtype=bool)
        block[8:20, 6:18] = True
        fields = [with_nodal(vf, np.zeros(g.shape, dtype=bool))
                  for vf in (vf0, vf1)]
        fields[level] = with_nodal(fields[level], block)
        pts = np.add(g.los, np.multiply(g.dxs, [[12.3, 10.6], [14.0, 12.5],
                                               [9.1, 16.2]]))
        assert _oracle_velocity_at_many(fields[level], pts)[2].all()
        degen = assert_group_matches_oracle(*fields, pts, 0.01)
        assert not degen.any()

    def test_nodal_at_both_levels_freezes(self):
        g, vf0, vf1 = noded_fields((32, 24))
        block = np.zeros(g.shape, dtype=bool)
        block[8:20, 6:18] = True
        fields = [with_nodal(vf, block) for vf in (vf0, vf1)]
        pts = np.add(g.los, np.multiply(g.dxs, [[12.3, 10.6], [14.0, 12.5],
                                               [2.5, 3.5]]))
        degen = assert_group_matches_oracle(*fields, pts, 0.01)
        assert degen.tolist() == [True, True, False]
        assert np.array_equal(advance_interval(*fields, pts, 0.01)[0][:2],
                              g.wrap(pts[:2]))


def _pair_flags_before(vf0, vf1):
    """The pair's (touched, inside) tables as the sampler built them before
    each field kept its own: from the two nodal masks stacked and padded."""
    D = vf0.grid.dims
    pad = ((0, 2),) * D
    nodal = np.pad(np.stack([vf0.nodal, vf1.nodal]), ((0, 0),) + pad,
                   mode="wrap")
    bits = [[(c >> i) & 1 for i in range(D)] for c in range(1 << D)]
    corners = np.stack([nodal[(slice(None),) + tuple(
        slice(k, k + n + 1) for k, n in zip(b, vf0.grid.shape))] for b in bits])
    return tuple(np.pad(a, ((0, 1),) * D).reshape(-1) for a in (
        corners.any(axis=(0, 1)), corners.all(axis=(0, 1))))


def third_field(vf0, vf1):
    """A field after vf1: vf1's components moved on by vf1 - vf0, and a
    copy of vf0's nodal mask."""
    return VelocityField(vf1.grid, 2.0 * vf1.components - vf0.components,
                         vf0.nodal.copy(), 2.0 * vf1.time - vf0.time)


class TestBlendFirst:
    """A stage reads one blend of the interval's two fields."""

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    @pytest.mark.parametrize("frac", [0.3, 0.5, 0.75])
    def test_stage_velocity_near_interpolate_then_blend(self, shape, frac):
        # the order before: each field interpolated, then the two blended.
        # Near a cancelling sum the result's own ulp is far below the
        # rounding of its terms, so ulps are counted at the stencil's
        # magnitude, the same interpolation of |a| (1 - f) + |b| f
        g, vf0, vf1 = noded_fields(shape)
        pts = probe_points(g)
        got = sample(vf0, vf1, pts, (frac,))[0]
        assert np.array_equal(got, _oracle_stage(vf0, vf1, pts, frac)[0])
        want = _interpolate_then_blend(vf0, vf1, pts, frac)[0]
        scale = _oracle_velocity_at_many(vf0, pts, np.abs(vf0.components)
                                         * (1.0 - frac)
                                         + np.abs(vf1.components) * frac)[0]
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(scale))
        assert not np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    def test_raw_fields_at_interval_ends(self, shape):
        # f = 0 and f = 1 read a field's own values, in both kernels
        g, vf0, vf1 = noded_fields(shape)
        pts = probe_points(g)
        a, b, _, _ = sample(vf0, vf1, pts)
        for frac, vf, got in ((0.0, vf0, a), (1.0, vf1, b)):
            want = _oracle_velocity_at_many(vf, pts)[0]
            assert np.array_equal(got, want)
            assert np.array_equal(velocity_at_many(vf, pts)[0], want)
            assert np.array_equal(sample(vf0, vf1, pts, (frac,))[0], want)
            lists = g._stencil_lists
            one = [guidance._sample_one(vf0, vf1, {}, lists,
                                        guidance._wrap_one(lists, p.tolist()),
                                        (frac,))[0][0] for p in pts]
            assert np.array_equal(one, want)

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    def test_pair_flags_are_field_flags_combined(self, shape):
        g, vf0, vf1 = noded_fields(shape)
        (_, t0, i0), (_, t1, i1) = vf0._table, vf1._table
        touched, inside = _pair_flags_before(vf0, vf1)
        assert touched.any() and inside.any() and not inside.all()
        assert np.array_equal(t0 | t1, touched)
        assert np.array_equal(i0 & i1, inside)
        assert np.array_equal(guidance._sampler(vf0, vf1)[1], inside)

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    def test_table_serves_two_intervals(self, shape):
        # the field a walk keeps reads its second interval from the table
        # of its first, and neither interval writes to it
        g, vf0, vf1 = noded_fields(shape)
        vf2 = third_field(vf0, vf1)
        pts = probe_points(g)
        assert_group_matches_oracle(vf0, vf1, pts, 0.05)
        table = vf1.__dict__["_table"]
        arrays = [*table[0], *table[1:]]
        kept = [a.copy() for a in arrays]
        assert_group_matches_oracle(vf1, vf2, pts, 0.05)
        assert vf1._table is table
        for a, b in zip(arrays, kept):
            assert np.array_equal(a, b)

    def test_walk_pads_each_field_once(self, monkeypatch):
        g, vf0, vf1 = noded_fields((32, 24))
        fields = [vf0, vf1, third_field(vf0, vf1)]
        padded = []
        pad = np.pad

        def spy(array, *args, **kwargs):
            padded.append(array)
            return pad(array, *args, **kwargs)

        monkeypatch.setattr(np, "pad", spy)
        walk = guidance.GuidedWalk(None, probe_points(g, n=20), 3)
        for vf in fields:
            walk.feed(vf)
        # per field: its nodal mask, its two flags, each component's row
        assert len(padded) == 3 * (3 + g.dims)
        for vf in fields:
            assert sum(a is vf.nodal for a in padded) == 1


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
                          [1.0] * D)
        b = init_gaussian(g, [1.5] + [-0.2 - shift] * (D - 1), [0.5] * D,
                          [-1.0] + [0.5] * (D - 1))
        waves.append(superpose([(0.8, a), (0.6, b)]))
    return g, params, waves


def corner_reads(monkeypatch, fields, pts, dt):
    """advance_interval of one particle between `fields`, and the raveled
    stencil corners of every field read the one-particle path made."""
    seen = []
    read = guidance._read_corners

    def spy(vf, flat, index):
        seen.append(list(flat))
        return read(vf, flat, index)

    monkeypatch.setattr(guidance, "_read_corners", spy)
    got = advance_interval(*fields, pts, dt)
    monkeypatch.setattr(guidance, "_read_corners", read)
    return got, np.unique(np.concatenate(seen))


def assert_reads_complete(lf, vf, flat):
    """`lf` reads `vf`'s values and nodal flags at the raveled cells `flat`,
    through the one-particle reader, as one stencil."""
    D = vf.grid.dims
    index = np.transpose(np.unravel_index(flat, vf.grid.shape)).tolist()
    vals, nodal = guidance._read_corners(lf, flat.tolist(),
                                         [tuple(t) for t in index])
    assert np.array_equal(vals, vf.components.reshape(D, -1)[:, flat],
                          equal_nan=True)
    assert np.array_equal(nodal, vf.nodal.reshape(-1)[flat])
    assert np.array_equal(lf.nodal, vf.nodal)
    assert lf.all_nodal == vf.all_nodal
    assert lf.time == vf.time


class TestLocalFieldOracle:
    @pytest.mark.parametrize("shape", [(32, 28), (20, 18, 24), (48,)])
    def test_probe_reads_complete_field(self, shape, monkeypatch):
        g, params, (psi0, psi1) = two_packet_waves(shape)
        vfs = [velocity_field(p, params) for p in (psi0, psi1)]
        lfs = [local_field(p, params) for p in (psi0, psi1)]
        assert vfs[0].nodal.any()
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
            # some lines per axis, not all; a 1-D grid has one line
            assert all(0 < len(lines) < min(g.shape) for lines in lf._lines)
        assert np.array_equal(velocity_at_many(lfs[1], pts)[0],
                              velocity_at_many(vfs[1], pts)[0])

    def test_nodal_corner_completes_once(self, monkeypatch):
        calls = []
        complete = guidance.velocity_field

        def counted(*args):
            calls.append(args)
            return complete(*args)

        monkeypatch.setattr(guidance, "velocity_field", counted)
        for shape in [(32, 28), (20, 18, 24), (48,)]:
            g, params, (psi, _) = two_packet_waves(shape)
            vf = complete(psi, params)
            lf = local_field(psi, params)
            pts = probe_points(g)
            want = velocity_at_many(vf, pts)
            bulk = ~want[1]
            assert 10 < bulk.sum() < len(pts)
            # stencils with no nodal corner: read from the line cache alone
            got = velocity_at_many(lf, pts[bulk])
            assert np.array_equal(got[0], want[0][bulk])
            assert not got[1].any()
            assert not calls and lf.components is None
            # the first nodal corner completes the field; no value moves
            got = velocity_at_many(lf, pts)
            assert len(calls) == 1 and lf.components is not None
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            # the complete field answers every later read
            assert_reads_complete(lf, vf, np.arange(vf.nodal.size))
            assert len(calls) == 1
            calls.clear()

    def test_vectorized_read_completes_local_fields(self):
        # a group of two reads through `_sampler`, which takes complete fields
        g, params, (psi0, psi1) = two_packet_waves((32, 28))
        vfs = [velocity_field(p, params) for p in (psi0, psi1)]
        lfs = [local_field(p, params) for p in (psi0, psi1)]
        pts = np.array([[-1.4, 0.2], [1.5, -0.3]])
        got = sample(*lfs, pts)
        assert all(lf.components is not None for lf in lfs)
        want = sample(*vfs, pts)
        assert not want[2].any()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_zero_wave(self):
        # a zero wave is nodal everywhere and keeps Im(grad)/m = 0
        g = make_grid([{"points": 24, "lo": -3, "hi": 3},
                       {"points": 20, "lo": -2, "hi": 2}])
        psi = WaveFunction(g, np.zeros((24, 20), dtype=complex), 0.5)
        vf = velocity_field(psi)
        lf = local_field(psi)
        assert vf.all_nodal and vf.nodal.all()
        assert np.array_equal(vf.components, np.zeros((2, 24, 20)))
        assert_reads_complete(lf, vf, np.array([0, 1, 20, 21, 479]))

    @pytest.mark.parametrize("shape", [(32, 24), (10, 12, 9), (40,)])
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
        assert (lf.nodal.any(), lf.all_nodal) == (eps_node > 1e-8,
                                                  eps_node > 1.0)
        pts = probe_points(g, n=3)
        for a, b in zip(velocity_at_many(lf, pts), velocity_at_many(vf, pts)):
            assert np.array_equal(a, b)
        assert_reads_complete(lf, vf, np.arange(amp.size))


# One-particle groups run the plain-float kernel: each point alone follows
# the per-level oracle's path bit for bit.

def advance_alone(vf0, vf1, pts, dt):
    """advance_interval of each point of `pts` as a group of one, and the
    oracle's; returns both as (positions, degenerate) pairs of arrays."""
    got = [advance_interval(vf0, vf1, p[None, :], dt) for p in pts]
    want = [_oracle_advance_interval(vf0, vf1, p[None, :], dt) for p in pts]
    return [tuple(np.concatenate(r) for r in zip(*rs)) for rs in (got, want)]


class TestOneParticleKernel:
    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_each_point_alone_matches_oracle(self, shape, dt, monkeypatch):
        g, vf0, vf1 = noded_fields(shape)
        # the hi-edge point, and points inside and far outside the domain
        pts = probe_points(g, n=16)
        pts[1:4] = np.add(g.los, np.multiply(g.lengths, [[0.2], [0.5], [0.8]]))
        inside = np.all((pts >= g.los) & (pts < g.his), axis=1)
        assert inside.any() and not inside.all()
        runs = []
        one = guidance._advance_one
        monkeypatch.setattr(guidance, "_advance_one",
                            lambda *a: runs.append(1) or one(*a))
        (got, got_degen), (want, want_degen) = advance_alone(vf0, vf1, pts, dt)
        assert len(runs) == len(pts)
        assert got.shape == pts.shape and got_degen.dtype == bool
        assert np.array_equal(got, want)
        assert np.array_equal(got_degen, want_degen)

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    def test_sample_matches_vectorized_sample(self, shape):
        # velocities differ in bits a position update can absorb, so the
        # stage sample and velocity are compared on their own
        g, vf0, vf1 = noded_fields(shape)
        pts = probe_points(g)
        lists = g._stencil_lists
        memo = {}
        wrapped = [guidance._wrap_one(lists, p.tolist()) for p in pts]
        fracs = (0.0, 0.3, 0.5, 0.75, 1.0)
        want = sample(vf0, vf1, pts, fracs)
        # one memo serves every point and fraction, as in an interval
        got = [guidance._sample_one(vf0, vf1, memo, lists, x, fracs)
               for x in wrapped]
        for k in range(len(fracs)):
            assert np.array_equal([s[0][k] for s in got], want[k])
        assert np.array_equal([s[1] for s in got], want[-2])
        assert np.array_equal([all(s[2]) for s in got], want[-1])
        assert want[-2].any()
        # the speed cap where a stencil touches a node, on fresh memos
        for frac in (0.0, 0.3, 0.75):
            v, touched, _ = sample(vf0, vf1, pts, (frac,))
            speed = np.sqrt(np.sum(v * v, axis=1))
            cap = float(np.median(speed[touched]))
            over = touched & (speed > cap)
            v[over] *= (cap / speed[over])[:, None]
            assert over.any() and not over.all()
            one = [guidance._sample_one(vf0, vf1, {}, lists, x, (frac,))
                   for x in wrapped]
            assert np.array_equal(
                [guidance._velocity_one(s, cap) for s in one], v)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("local", [False, True])
    def test_corners_read_once_per_field_and_stencil(self, dims, local,
                                                     monkeypatch):
        if local:
            shape = [(48,), (32, 28), (20, 18, 24)][dims - 1]
            g, params, (psi0, psi1) = two_packet_waves(shape)
            vfs = [velocity_field(p, params) for p in (psi0, psi1)]
            pts = np.array([[-1.4] + [0.2] * (g.dims - 1),
                            [1.5] + [-0.3] * (g.dims - 1)])
            dt = 2.0
        else:
            shape = [(40,), (32, 24), (10, 12, 9)][dims - 1]
            g, vfs, pts = drifting_fields(shape, 100.0)
            dt = DRIFT_DT
        reads, stencils = [], []
        read, stencil = guidance._read_corners, guidance._stencil_one

        def read_spy(vf, flat, index):
            reads.append((vf, flat[0]))
            return read(vf, flat, index)

        def stencil_spy(g, x):
            out = stencil(g, x)
            stencils.append(out[0][0])
            return out

        monkeypatch.setattr(guidance, "_read_corners", read_spy)
        monkeypatch.setattr(guidance, "_stencil_one", stencil_spy)
        for p in pts:
            fields = ([local_field(q, params) for q in (psi0, psi1)] if local
                      else vfs)
            reads.clear()
            stencils.clear()
            got = advance_interval(*fields, p[None, :], dt)
            want = _oracle_advance_interval(*vfs, p[None, :], dt)
            assert np.array_equal(got[0], want[0])
            # every stencil the stages sampled is read once in each field
            lows = set(stencils)
            assert 1 < len(lows) < len(stencils)
            assert len(reads) == 2 * len(lows)
            for vf in fields:
                assert sorted(q for f, q in reads if f is vf) == sorted(lows)

    def test_capped_interval_logs_and_matches_oracle(self, caplog):
        # dt 50 needs more than MAX_SUBSTEPS, and speeds over the nodal cap
        g, vf0, vf1 = noded_fields((40,))
        pts = probe_points(g, n=4)
        with caplog.at_level(logging.WARNING, logger="pilotwave.guidance"):
            (got, got_degen), (want, want_degen) = advance_alone(
                vf0, vf1, pts, 50.0)
        msgs = [r.getMessage() for r in caplog.records]
        # one warning per interval of the kernel; the oracle logs none
        assert len(msgs) == len(pts)
        assert all(f"capped at {MAX_SUBSTEPS}" in m for m in msgs)
        assert np.array_equal(got, want)
        assert np.array_equal(got_degen, want_degen)

    @pytest.mark.parametrize("local", [False, True])
    def test_all_nodal_pair_freezes(self, local, monkeypatch):
        g = make_grid([{"points": 32, "lo": -4.0, "hi": 5.0},
                       {"points": 24, "lo": -5.0, "hi": 6.0}])
        rng = np.random.default_rng(5)
        amps = rng.normal(size=(2, 32, 24)) + 1j * rng.normal(size=(2, 32, 24))
        psis = [WaveFunction(g, a, t) for a, t in zip(amps, (0.0, 0.1))]
        monkeypatch.setattr(guidance, "EPS_NODE", 2.0)
        vfs = [velocity_field(p) for p in psis]
        fields = [local_field(p) for p in psis] if local else vfs
        assert all(vf.all_nodal for vf in vfs)
        pts = probe_points(g, n=4)
        got = [advance_interval(*fields, p[None, :], 0.05) for p in pts]
        _, (want, want_degen) = advance_alone(*vfs, pts, 0.05)
        assert all(degen.tolist() == [True] for _, degen in got)
        assert want_degen.all()
        assert np.array_equal(np.concatenate([p for p, _ in got]), want)
        assert np.array_equal(want, g.wrap(pts))
        # a group freezes as each of its particles alone does
        group = advance_interval(*fields, pts, 0.05)
        assert group[1].all()
        assert np.array_equal(group[0], want)

    def test_nodal_corner_completes_local_fields_once(self, monkeypatch):
        g, params, (psi0, psi1) = two_packet_waves((32, 28))
        vfs = [velocity_field(p, params) for p in (psi0, psi1)]
        calls = []
        complete = guidance.velocity_field

        def counted(*args):
            calls.append(args)
            return complete(*args)

        monkeypatch.setattr(guidance, "velocity_field", counted)
        lfs = [local_field(p, params) for p in (psi0, psi1)]
        # the first stencil has no nodal corner; a later stage's has
        pts = np.array([[-4.0, -2.0]])
        assert not velocity_at_many(vfs[0], pts)[1].any()
        assert not velocity_at_many(vfs[1], pts)[1].any()
        got = advance_interval(*lfs, pts, 2.0)
        # one complete field per snapshot, however many nodal corners later
        assert len(calls) == 2
        assert all(lf.components is not None for lf in lfs)
        want = _oracle_advance_interval(*vfs, pts, 2.0)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("shape", [(32, 28), (20, 18, 24), (48,)])
    def test_local_fields_match_oracle(self, shape):
        g, params, (psi0, psi1) = two_packet_waves(shape)
        vfs = [velocity_field(p, params) for p in (psi0, psi1)]
        pts = np.array([[-1.4] + [0.2] * (g.dims - 1),
                        [1.5] + [-0.3] * (g.dims - 1),
                        [g.his[0] + 3.0] + [0.1] * (g.dims - 1)])
        for p in pts:
            lfs = [local_field(q, params) for q in (psi0, psi1)]
            got = advance_interval(*lfs, p[None, :], 0.5)
            want = _oracle_advance_interval(*vfs, p[None, :], 0.5)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stage_point_raises(self, bad):
        # a field value that sends a stage point to NaN or infinity
        g = grid1d(64, 0.0, 16.0)
        comps = np.full(64, 1.0)
        comps[6:] = bad
        vf = VelocityField(g, [comps], np.zeros(64, dtype=bool))
        with pytest.raises(RuntimeError, match="NaN in trajectory output"):
            advance_interval(vf, vf, np.array([[1.0]]), 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2])
    def test_nan_cells_raise_for_every_group_size(self, n):
        # the particles cross NaN cells 40-43 within the interval; were it a
        # walk's last, no later interval's check would see the NaN
        g = grid1d(64, 0.0, 16.0)
        comps = np.full(64, 10.0)
        comps[40:44] = np.nan
        vf = VelocityField(g, [comps], np.zeros(64, dtype=bool))
        with pytest.raises(RuntimeError, match="NaN in trajectory output"):
            advance_interval(vf, vf, np.array([[1.0], [1.2]])[:n], 1.0)


class TestClampCounters:
    """`speed_caps` counts particle stages slowed to the nodal speed cap,
    `frozen_particles` particles that a nodal stencil freezes."""

    @pytest.mark.parametrize("shape", [(40,), (32, 24), (10, 12, 9)])
    def test_speed_caps_count_the_oracle_stages(self, shape, caplog):
        # dt 50 needs more than MAX_SUBSTEPS, so stages outrun the cap
        g, vf0, vf1 = noded_fields(shape)
        pts = probe_points(g, n=8)
        counts = []
        for group in (pts, *(p[None, :] for p in pts)):
            caps, before = [], guidance.speed_caps
            got = advance_interval(vf0, vf1, group, 50.0)
            want = _oracle_advance_interval(vf0, vf1, group, 50.0, caps)
            assert np.array_equal(got[0], want[0])
            counts.append(guidance.speed_caps - before)
            assert counts[-1] == sum(caps)
        assert any(counts)

    def test_no_speed_caps_without_nodes(self):
        g, vf0, vf1 = noded_fields((32, 24))
        clear = [with_nodal(vf, np.zeros(g.shape, dtype=bool))
                 for vf in (vf0, vf1)]
        before = guidance.speed_caps
        advance_interval(*clear, probe_points(g, n=12), 50.0)
        assert guidance.speed_caps == before

    @pytest.mark.parametrize("n", [1, 3])
    def test_frozen_particles_counted_once(self, n):
        # particles 0 and 1 sit in a block nodal at both levels
        g, vf0, vf1 = noded_fields((32, 24))
        block = np.zeros(g.shape, dtype=bool)
        block[8:20, 6:18] = True
        fields = [with_nodal(vf, block) for vf in (vf0, vf1)]
        pts = np.add(g.los, np.multiply(g.dxs, [[12.3, 10.6], [14.0, 12.5],
                                               [2.5, 3.5]]))[:n]
        frozen = np.zeros(n, dtype=bool)
        before = guidance.frozen_particles
        for t0 in (0.0, 0.01):
            pts = guidance.advance_group(*fields, pts, frozen, None, t0,
                                         t0 + 0.01)
            # a particle already frozen is not counted again
            assert guidance.frozen_particles - before == min(n, 2)
        assert frozen.tolist() == [True, True, False][:n]


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

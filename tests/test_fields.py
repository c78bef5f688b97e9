import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilotwave.fields import (
    FieldError, PhysicalParams, make_grid, init_gaussian, superpose, density,
    marginal_density, normalize, WaveFunction, DensityField,
)
from pilotwave.scenarios import KINDS, builtin_spec


def grid1d(n=256, lo=-20.0, hi=20.0):
    return make_grid([{"points": n, "lo": lo, "hi": hi}])


class TestMakeGrid:
    def test_dx_unit(self):
        g = make_grid([{"points": 8, "lo": 0, "hi": 8}])
        assert g.dxs == (1.0,)

    def test_dx_fine(self):
        g = make_grid([{"points": 1024, "lo": -20, "hi": 20}])
        assert g.dxs == (0.0390625,)

    def test_too_few_points(self):
        with pytest.raises(FieldError):
            make_grid([{"points": 4, "lo": 0, "hi": 1}])

    def test_bad_extent(self):
        with pytest.raises(FieldError):
            make_grid([{"points": 16, "lo": 1, "hi": 1}])

    def test_dims_out_of_range(self):
        ax = {"points": 16, "lo": 0, "hi": 1}
        with pytest.raises(FieldError):
            make_grid([])
        with pytest.raises(FieldError):
            make_grid([ax, ax, ax, ax])

    def test_cell_volume(self):
        g = make_grid([{"points": 10, "lo": 0, "hi": 1},
                       {"points": 20, "lo": 0, "hi": 2}])
        assert g.dV == pytest.approx(0.1 * 0.1)


class TestPhysicalParams:
    def test_defaults(self):
        p = PhysicalParams()
        assert p.masses == (1.0,)

    def test_rejects_nonpositive(self):
        with pytest.raises(FieldError):
            PhysicalParams(masses=(1.0, -1.0))


class TestInitGaussian:
    def test_normalized(self):
        psi = init_gaussian(grid1d(), [0.0], [1.0])
        assert abs(psi.norm() - 1.0) < 1e-9

    def test_branch_overlap_oracle(self):
        # closed form for amplitudes ~ exp(-(x-c)^2/(4 sigma^2)):
        # |<g_c1|g_c2>| = exp(-(c1-c2)^2 / (8 sigma^2)) = e^-12.5 here
        g = grid1d(1024)
        ga = init_gaussian(g, [-5.0], [1.0])
        gb = init_gaussian(g, [5.0], [1.0])
        overlap = abs(np.vdot(ga.amplitudes, gb.amplitudes)) * g.dV
        assert overlap == pytest.approx(np.exp(-12.5), rel=1e-6)

    def test_sigma_zero_rejected(self):
        with pytest.raises(FieldError):
            init_gaussian(grid1d(), [0.0], [0.0])

    def test_center_outside_rejected(self):
        with pytest.raises(FieldError):
            init_gaussian(grid1d(), [25.0], [1.0])

    def test_boundary_tail_warns(self):
        g = make_grid([{"points": 64, "lo": -3, "hi": 3}])
        with pytest.warns(UserWarning, match="boundary"):
            init_gaussian(g, [0.0], [1.0])


class TestSuperpose:
    def test_identity(self):
        psi = init_gaussian(grid1d(), [0.0], [1.0])
        out = superpose([(1.0, psi)])
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_half_weights(self):
        # overlap e^-12.5 ~ 3.7e-6 bounds the deviation from exactly 1/2
        g = grid1d(1024)
        ga = init_gaussian(g, [-5.0], [1.0])
        gb = init_gaussian(g, [5.0], [1.0])
        out = superpose([(1 / np.sqrt(2), ga), (1 / np.sqrt(2), gb)])
        x = g.axis_coords(0)
        left = np.sum(np.abs(out.amplitudes[x < 0]) ** 2) * g.dV
        assert left == pytest.approx(0.5, abs=5e-6)

    def test_half_weights_far_packets(self):
        # centers +-8: overlap e^-32, so the halves carry 0.5 to 1e-9
        g = grid1d(1024)
        ga = init_gaussian(g, [-8.0], [1.0])
        gb = init_gaussian(g, [8.0], [1.0])
        out = superpose([(1 / np.sqrt(2), ga), (1 / np.sqrt(2), gb)])
        x = g.axis_coords(0)
        left = np.sum(np.abs(out.amplitudes[x < 0]) ** 2) * g.dV
        assert left == pytest.approx(0.5, abs=1e-9)

    def test_grid_mismatch(self):
        with pytest.raises(FieldError):
            superpose([(1.0, init_gaussian(grid1d(256), [0.0], [1.0])),
                       (1.0, init_gaussian(grid1d(128), [0.0], [1.0]))])

    def test_zero_result(self):
        psi = init_gaussian(grid1d(), [0.0], [1.0])
        with pytest.raises(FieldError):
            superpose([(1.0, psi), (-1.0, psi)])


class TestDensity:
    def test_integrates_to_one(self):
        psi = init_gaussian(grid1d(), [2.0], [0.7], [3.0])
        rho = density(psi)
        assert abs(rho.values.sum() * rho.grid.dV - 1.0) < 1e-9

    def test_uniform_state(self):
        g = make_grid([{"points": 8, "lo": 0, "hi": 8}])
        psi = normalize(WaveFunction(g, np.ones(8, dtype=complex)))
        np.testing.assert_allclose(density(psi).values,
                                   1.0 / np.prod(g.lengths))

    def test_global_phase_invariance(self):
        psi = init_gaussian(grid1d(), [0.0], [1.0], [2.0])
        rotated = WaveFunction(psi.grid, psi.amplitudes * np.exp(1j * 0.7))
        np.testing.assert_allclose(density(rotated).values, density(psi).values,
                                   atol=1e-15)


class TestMarginalDensity:
    def grid2d(self):
        return make_grid([{"points": 64, "lo": -8, "hi": 8},
                          {"points": 64, "lo": -8, "hi": 8}])

    def test_product_state_factorizes(self):
        g = self.grid2d()
        psi = init_gaussian(g, [1.0, -1.0], [0.8, 1.2])
        marg = marginal_density(psi, 0)
        g1 = make_grid([{"points": 64, "lo": -8, "hi": 8}])
        ref = density(init_gaussian(g1, [1.0], [0.8]))
        np.testing.assert_allclose(marg.values, ref.values, atol=1e-9)

    def test_symmetric_gaussian(self):
        psi = init_gaussian(self.grid2d(), [0.0, 0.0], [1.0, 1.0])
        m0 = marginal_density(psi, 0)
        m1 = marginal_density(psi, 1)
        np.testing.assert_allclose(m0.values, m1.values, atol=1e-12)

    def test_pointer_form_marginal_oracle(self):
        # Psi = sum_n c_n psi_n(s) phi_n(a), psi_n orthonormal:
        # marginal over s -> sum |c_n|^2 |phi_n(a)|^2, checked against a
        # direct sum on a small grid
        g = self.grid2d()
        c = np.array([np.sqrt(0.7), np.sqrt(0.3)])
        packs = [((-4.0, -3.0), (0.7, 0.6)), ((4.0, 3.0), (0.7, 0.6))]
        comps = [(c[i], init_gaussian(g, packs[i][0], packs[i][1]))
                 for i in range(2)]
        psi = superpose(comps)
        marg = marginal_density(psi, 1)
        # independent oracle: brute-force summation of |Psi|^2 dx over axis 0
        brute = np.sum(np.abs(psi.amplitudes) ** 2, axis=0) * g.dxs[0]
        np.testing.assert_allclose(marg.values, brute, atol=1e-12)
        a = g.axis_coords(1)
        ref = sum(abs(c[i]) ** 2 * np.exp(-(a - packs[i][0][1]) ** 2
                                          / (2 * packs[i][1][1] ** 2))
                  / np.sqrt(2 * np.pi * packs[i][1][1] ** 2) for i in range(2))
        np.testing.assert_allclose(marg.values, ref, atol=1e-6)

    def test_axis_set_must_be_proper(self):
        # the kept axis exists, and another axis is left to integrate out
        psi = init_gaussian(self.grid2d(), [0.0, 0.0], [1.0, 1.0])
        for axis in (2, -1):
            with pytest.raises(FieldError, match="no marginal"):
                marginal_density(psi, axis)
        with pytest.raises(FieldError, match="no marginal"):
            marginal_density(init_gaussian(grid1d(), [0.0], [1.0]), 0)


@given(center=st.floats(-5, 5), sigma=st.floats(0.3, 2.0),
       momentum=st.floats(-3, 3), phase=st.floats(0, 2 * np.pi))
@settings(max_examples=25, deadline=None)
def test_normalize_and_phase_properties(center, sigma, momentum, phase):
    psi = init_gaussian(grid1d(), [center], [sigma], [momentum])
    assert abs(psi.norm() - 1.0) <= 1e-9
    rotated = WaveFunction(psi.grid, np.exp(1j * phase) * psi.amplitudes)
    rho = density(psi).values
    # relative to rho, in units u = eps/2: |exp(i phase)|^2 is 1 +- 2u, one complex
    # multiply adds 2 sqrt(5) u, abs()**2 3u on each side; sum < 13u < 8 eps
    bound = 8 * np.finfo(float).eps * rho.max()
    assert np.max(np.abs(density(rotated).values - rho)) <= bound


class TestWrap:
    """Grid.wrap equals lo + mod(x - lo, L) bit for bit, except that an
    offset which `mod` rounds up to L reads 0."""

    @staticmethod
    def oracle(grid, coords):
        coords = np.asarray(coords, dtype=float)
        los, lengths = np.asarray(grid.los), np.asarray(grid.lengths)
        offsets = np.mod(coords - los, lengths)
        return los + np.where(offsets == lengths, 0.0, offsets)

    @staticmethod
    def assert_bits_equal(a, b):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_matches_oracle(self):
        g = make_grid([{"points": 10, "lo": -3.3, "hi": 4.1},
                       {"points": 12, "lo": 0.0, "hi": 7.0}])
        rng = np.random.default_rng(5)
        los, lengths = np.asarray(g.los), np.asarray(g.lengths)
        pts = los + lengths * rng.uniform(-0.1, 1.1, size=(500, 2))
        special = [
            [0.0, 1.0],                                  # inside
            [g.his[0], g.his[1]],                        # exactly at hi
            [np.nextafter(g.his[0], -np.inf), 6.999],    # just below hi
            [g.los[0], g.los[1]],                        # exactly at lo
            [np.nextafter(g.los[0], -np.inf), -1e-300],  # just below lo
            [1e9, -1e9],                                 # far outside
            [-7.4 * 3, 7.0 * 5],                         # whole periods away
            [0.0, -0.0],                                 # -0.0 offset (lo 0.0)
            [np.nan, 2.0],
            [1.0, np.nan],
            [np.inf, -np.inf],
        ]
        pts = np.concatenate([pts, special])
        self.assert_bits_equal(g.wrap(pts), self.oracle(g, pts))

    def test_single_point_and_scalar(self):
        g = make_grid([{"points": 8, "lo": -1.0, "hi": 1.0}])
        for x in (0.25, -0.0, 1.0, -5.5, np.nan, [0.3], [[0.3], [7.0]]):
            self.assert_bits_equal(g.wrap(x), self.oracle(g, x))

    def test_does_not_return_or_change_input(self):
        g = make_grid([{"points": 8, "lo": -1.0, "hi": 1.0}])
        pts = np.array([[0.5], [3.0]])
        out = g.wrap(pts)
        assert out is not pts
        assert np.array_equal(pts, [[0.5], [3.0]])


# (lo, hi) of every axis of the shipped specs; the benchmark workloads' cut
# grids keep these ranges
SHIPPED_AXES = sorted({(a["lo"], a["hi"]) for kind in KINDS
                       for a in builtin_spec(kind)["grid"]})


def assert_wrap_idempotent(lo, hi, x):
    """wrap(x) lies in [lo, hi), and wrap(wrap(x)) == wrap(x) bit for bit."""
    g = make_grid([{"points": 64, "lo": lo, "hi": hi}])
    w = g.wrap([x])
    assert lo <= w[0] < hi
    TestWrap.assert_bits_equal(g.wrap(w), w)


@pytest.mark.parametrize("lo,hi", SHIPPED_AXES)
@given(frac=st.floats(-3.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_wrap_idempotent_on_shipped_axes(lo, hi, frac):
    assert_wrap_idempotent(lo, hi, lo + frac * (hi - lo))


@pytest.mark.parametrize("lo,hi", SHIPPED_AXES)
def test_wrap_idempotent_at_edges(lo, hi):
    # the hi-edge point of tests/test_guidance.py::probe_points among them
    for x in (lo, hi, np.nextafter(hi, -np.inf), np.nextafter(lo, np.inf),
              np.nextafter(lo, -np.inf), lo - 1e-300):
        assert_wrap_idempotent(lo, hi, x)


def test_wrap_maps_just_below_lo_to_lo():
    # mod(x - lo, L) rounds the offset of a point just below lo up to L: on
    # the x axis of interference and decoherence for the largest coordinate
    # below lo, on relaxation's [0, 2 pi) for -1e-300; wrap reads lo, so a
    # wrapped point needs no second wrap before it is sampled
    for lo, hi, x in ((-20.0, 20.0, np.nextafter(-20.0, -np.inf)),
                      (0.0, 2 * np.pi, -1e-300)):
        g = make_grid([{"points": 64, "lo": lo, "hi": hi}])
        assert np.mod(x - lo, hi - lo) == hi - lo
        w = g.wrap([x])
        assert w[0] == lo
        TestWrap.assert_bits_equal(g.wrap(w), w)

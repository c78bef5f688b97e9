import numpy as np
import pytest

from pilotwave.fields import (
    make_grid, init_gaussian, normalize, superpose, density, WaveFunction,
)
from pilotwave.propagate import HamiltonianSpec, PotentialTerm, Schedule, evolve
from pilotwave.branches import (
    BranchError, RegionMask, halfspace_mask,
    decompose, interference_term, effective_wavefunction,
    occupancy_labels, single_branch_error, overlap_factor, _supported,
)
from pilotwave.guidance import simulate_trajectory


def grid1d(n=512, lo=-20.0, hi=20.0):
    return make_grid([{"points": n, "lo": lo, "hi": hi}])


def interval_mask(grid, axis, lo, hi, label):
    x = grid.axis_coords(axis)
    return RegionMask(axis, (x >= lo) & (x < hi), label)


def two_packet_state(g=None, a=5.0, sigma=1.0):
    g = g or grid1d()
    ga = init_gaussian(g, [-a], [sigma])
    gb = init_gaussian(g, [a], [sigma])
    return superpose([(1 / np.sqrt(2), ga), (1 / np.sqrt(2), gb)]), g


class TestDecompose:
    def test_full_domain_single_mask(self):
        psi, g = two_packet_state()
        mask = interval_mask(g, 0, -1e9, 1e9, "all")
        (b,) = decompose(psi, [mask])
        np.testing.assert_array_equal(b.wave.amplitudes, psi.amplitudes)
        assert b.weight == pytest.approx(1.0, abs=1e-9)

    def test_halfspace_weights(self):
        psi, g = two_packet_state()
        masks = [halfspace_mask(g, 0, 0.0, "below", "L"),
                 halfspace_mask(g, 0, 0.0, "above", "R")]
        bl, br = decompose(psi, masks)
        assert bl.weight == pytest.approx(0.5, abs=5e-6)
        assert br.weight == pytest.approx(0.5, abs=5e-6)

    def test_reconstruction_exact(self):
        psi, g = two_packet_state()
        masks = [halfspace_mask(g, 0, 0.0, "below"), halfspace_mask(g, 0, 0.0, "above")]
        bs = decompose(psi, masks)
        total = sum(b.wave.amplitudes for b in bs)
        assert np.max(np.abs(total - psi.amplitudes)) <= 1e-12
        assert sum(b.weight for b in bs) == pytest.approx(1.0, abs=1e-9)

    def test_overlapping_masks_rejected(self):
        psi, g = two_packet_state()
        with pytest.raises(BranchError, match="overlap"):
            decompose(psi, [halfspace_mask(g, 0, 1.0, "below"),
                            halfspace_mask(g, 0, -1.0, "above")])

    def test_uncovered_mass_rejected(self):
        psi, g = two_packet_state()
        with pytest.raises(BranchError, match="uncovered"):
            decompose(psi, [interval_mask(g, 0, -8.0, -2.0, "L")])

    def test_masks_on_two_axes_rejected(self):
        g = grid2d()
        psi = init_gaussian(g, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(BranchError, match="one axis"):
            decompose(psi, [halfspace_mask(g, 0, 0.0, "below"),
                            halfspace_mask(g, 1, 0.0, "above")])


class TestInterference:
    def test_disjoint_supports_zero(self):
        psi, g = two_packet_state()
        masks = [halfspace_mask(g, 0, 0.0, "below"), halfspace_mask(g, 0, 0.0, "above")]
        b1, b2 = decompose(psi, masks)
        fld, l1 = interference_term(b1.wave, b2.wave)
        assert l1 <= 1e-12
        assert np.max(np.abs(fld)) <= 1e-12

    def test_identical_halves_identity(self):
        psi, _ = two_packet_state()
        half = WaveFunction(psi.grid, psi.amplitudes / 2.0)
        fld, _ = interference_term(half, half)
        np.testing.assert_allclose(fld, np.abs(psi.amplitudes) ** 2 / 2.0, atol=1e-14)

    def test_density_identity(self):
        # rho == sum |b_i|^2 + cross terms, pointwise to 1e-12
        psi, g = two_packet_state(a=3.0)  # overlapping tails on purpose
        masks = [halfspace_mask(g, 0, 0.0, "below"), halfspace_mask(g, 0, 0.0, "above")]
        b1, b2 = decompose(psi, masks)
        fld, _ = interference_term(b1.wave, b2.wave)
        lhs = density(psi).values
        rhs = np.abs(b1.wave.amplitudes) ** 2 + np.abs(b2.wave.amplitudes) ** 2 + fld
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_grid_mismatch(self):
        a, _ = two_packet_state(grid1d(256))
        b, _ = two_packet_state(grid1d(128))
        with pytest.raises(BranchError):
            interference_term(a, b)


def grid2d(n=96, ext=12.0):
    return make_grid([{"points": n, "lo": -ext, "hi": ext},
                      {"points": n, "lo": -ext, "hi": ext}])


class TestDecoherenceFactor:
    """r: the overlap factor of the branches either side of x0 = 0."""

    def r(self, psi, env_axis=1):
        g = psi.grid
        b1, b2 = decompose(psi, [halfspace_mask(g, 0, 0.0, "below", "L"),
                                 halfspace_mask(g, 0, 0.0, "above", "R")])
        return overlap_factor(b1.wave, b2.wave, env_axis)

    def test_shared_environment_r_one(self):
        g = grid2d()
        pa = init_gaussian(g, [-5.0, 0.0], [1.0, 1.0])
        pb = init_gaussian(g, [5.0, 0.0], [1.0, 1.0])
        psi = superpose([(1 / np.sqrt(2), pa), (1 / np.sqrt(2), pb)])
        r = self.r(psi)
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_environments_r_zero(self):
        # tight system packets so neither leaks across the dividing plane
        g = grid2d()
        pa = init_gaussian(g, [-5.0, -5.0], [0.6, 0.8])
        pb = init_gaussian(g, [5.0, 5.0], [0.6, 0.8])
        psi = superpose([(1 / np.sqrt(2), pa), (1 / np.sqrt(2), pb)])
        r = self.r(psi)
        assert r < 1e-7  # analytic overlap e^-(10^2/(8*0.64)) plus leakage

    def test_intermediate_overlap_oracle(self):
        # env packets displaced by d: r = exp(-d^2/(8 sigma^2))
        g = grid2d()
        d, sig = 2.0, 0.8
        pa = init_gaussian(g, [-5.0, -d / 2], [0.6, sig])
        pb = init_gaussian(g, [5.0, d / 2], [0.6, sig])
        psi = superpose([(1 / np.sqrt(2), pa), (1 / np.sqrt(2), pb)])
        r = self.r(psi)
        assert r == pytest.approx(np.exp(-d ** 2 / (8 * sig ** 2)), rel=1e-4)

    def test_phase_and_scale_invariance(self):
        g = grid2d()
        pa = init_gaussian(g, [-5.0, -1.0], [1.0, 0.8])
        pb = init_gaussian(g, [5.0, 1.0], [1.0, 0.8])
        psi = superpose([(1 / np.sqrt(2), pa), (1 / np.sqrt(2), pb)])
        r0 = self.r(psi)
        rotated = WaveFunction(g, np.exp(1j * 1.3) * psi.amplitudes)
        assert self.r(rotated) == pytest.approx(r0, abs=1e-12)
        # renormalizing either branch leaves r invariant: scale the whole
        # wave (r uses normalized conditional states)
        scaled = WaveFunction(g, 3.7 * psi.amplitudes)
        assert self.r(scaled) == pytest.approx(r0, abs=1e-12)

    def test_zero_branch_reported(self):
        # the packet lies wholly above the plane: the branch below is zero
        g = grid2d()
        amp = init_gaussian(g, [5.0, 0.0], [0.6, 1.0]).amplitudes
        psi = WaveFunction(g, np.where(g.mesh(0) >= 0.0, amp, 0.0))
        with pytest.raises(BranchError, match="zero"):
            self.r(psi)


class TestEffectiveWavefunction:
    def test_product_state_recovers_factor(self):
        g = grid2d()
        psi = init_gaussian(g, [1.0, -2.0], [0.8, 1.1])
        eff = effective_wavefunction(psi, 1, -1.5)
        g1 = make_grid([{"points": 96, "lo": -12, "hi": 12}])
        ref = init_gaussian(g1, [1.0], [0.8])
        fid = abs(np.vdot(eff.amplitudes, ref.amplitudes)) * g1.dV
        assert fid == pytest.approx(1.0, abs=1e-9)

    def test_pointer_form_selects_branch(self):
        g = grid2d()
        pa = init_gaussian(g, [-4.0, -4.0], [0.8, 0.8])
        pb = init_gaussian(g, [4.0, 4.0], [0.8, 0.8])
        psi = superpose([(np.sqrt(0.7), pa), (np.sqrt(0.3), pb)])
        eff = effective_wavefunction(psi, 1, 4.2)
        g1 = make_grid([{"points": 96, "lo": -12, "hi": 12}])
        ref = init_gaussian(g1, [4.0], [0.8])
        fid = abs(np.vdot(eff.amplitudes, ref.amplitudes)) * g1.dV
        assert fid >= 0.99

    def test_empty_region_rejected(self):
        g = grid2d()
        psi = init_gaussian(g, [0.0, -4.0], [0.8, 0.8])
        with pytest.raises(BranchError, match="empty-branch"):
            effective_wavefunction(psi, 1, 8.0)


class TestOccupancy:
    def test_labels(self):
        g = grid1d()
        masks = [halfspace_mask(g, 0, 0.0, "below", "R1"),
                 halfspace_mask(g, 0, 0.0, "above", "R2")]
        assert list(occupancy_labels(g, [[-3.0], [3.0]], masks)) == ["R1", "R2"]

    def test_outside_all(self):
        g = grid1d()
        masks = [interval_mask(g, 0, -10, -5, "R1"), interval_mask(g, 0, 5, 10, "R2")]
        assert list(occupancy_labels(g, [[0.0]], masks)) == ["none"]

    def test_boundary_tie_break_lowest_index(self):
        g = make_grid([{"points": 16, "lo": 0, "hi": 16}])
        m1 = interval_mask(g, 0, 0, 8, "A")
        m2 = RegionMask(0, np.ones(16, dtype=bool), "B")
        # cell 4 belongs to both A and B: lowest mask index wins
        assert list(occupancy_labels(g, [[4.0], [12.0]], [m1, m2])) == ["A", "B"]

    def test_vectorized(self):
        g = grid1d()
        masks = [halfspace_mask(g, 0, 0.0, "below", "L"),
                 halfspace_mask(g, 0, 0.0, "above", "R")]
        labels = occupancy_labels(g, np.array([[-1.0], [1.0], [-0.01]]), masks)
        assert list(labels) == ["L", "R", "L"]

    def test_masks_on_two_axes_rejected(self):
        g = grid2d()
        masks = [halfspace_mask(g, 0, 0.0, "below"),
                 halfspace_mask(g, 1, 0.0, "above")]
        with pytest.raises(BranchError, match="one axis"):
            occupancy_labels(g, [[1.0, -1.0]], masks)


def branch_error(full, branch, x0):
    """`single_branch_error` of one probe guided through each record."""
    tr_full, tr_br = (simulate_trajectory(r, x0) for r in (full, branch))
    supported = [_supported(full.grid, a, x)
                 for a, x in zip(branch.snapshots, tr_br.positions)]
    return single_branch_error(full.grid, tr_full.times, tr_full.positions,
                               tr_br.positions, supported)


class TestSingleBranchError:
    def test_disjoint_branches_tiny_deviation(self):
        # non-interfering separated packets: guiding by the occupied branch
        # alone reproduces the full-wave trajectory to the grid floor
        g = grid1d(512)
        ga = init_gaussian(g, [-6.0], [1.0])
        gb = init_gaussian(g, [6.0], [1.0])
        psi = superpose([(1 / np.sqrt(2), ga), (1 / np.sqrt(2), gb)])
        sched = Schedule(0, 1.0, 0.002, 10)
        H = HamiltonianSpec()
        full = evolve(psi, H, sched)
        branch = evolve(ga, H, sched)
        res = branch_error(full, branch, [-6.5])
        assert not res.truncated
        assert res.max_deviation <= 2 * g.dxs[0]

    def test_interfering_branches_diverge(self):
        # converging packets: the empty branch steers the particle
        g = grid1d(512)
        ga = init_gaussian(g, [-5.0], [0.7], [3.0])
        gb = init_gaussian(g, [5.0], [0.7], [-3.0])
        psi = superpose([(1 / np.sqrt(2), ga), (1 / np.sqrt(2), gb)])
        sched = Schedule(0, 2.4, 0.002, 5)
        H = HamiltonianSpec()
        full = evolve(psi, H, sched)
        branch = evolve(ga, H, sched)
        res = branch_error(full, branch, [-5.0])
        assert res.max_deviation >= 10 * g.dxs[0]

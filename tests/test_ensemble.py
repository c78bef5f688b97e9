import numpy as np
import pytest
from scipy import stats

from pilotwave.fields import (
    FieldError, make_grid, init_gaussian, normalize, WaveFunction,
)
from pilotwave.propagate import HamiltonianSpec, PotentialTerm, Schedule, evolve
from pilotwave import ensemble
from pilotwave.ensemble import (
    sample_initial, run_ensemble, equivariance_test, h_function, rng_for,
)
from pilotwave.guidance import simulate_trajectory


def grid1d(n=256, lo=-16.0, hi=16.0):
    return make_grid([{"points": n, "lo": lo, "hi": hi}])


class TestSampleInitial:
    def test_uniform_mean(self):
        g = make_grid([{"points": 64, "lo": 0, "hi": 1}])
        psi = normalize(WaveFunction(g, np.ones(64, dtype=complex)))
        n = 100_000
        xs = sample_initial(psi, n, seed=7)[:, 0]
        assert abs(xs.mean() - 0.5) <= 3.0 * (1 / np.sqrt(12)) / np.sqrt(n)

    def test_concentrated_cell(self):
        g = make_grid([{"points": 64, "lo": 0, "hi": 1}])
        amp = np.zeros(64, dtype=complex)
        amp[17] = 1.0
        psi = normalize(WaveFunction(g, amp))
        xs = sample_initial(psi, 500, seed=1)[:, 0]
        lo = g.axis_coords(0)[17]
        assert np.all((xs >= lo) & (xs < lo + g.dxs[0]))

    def test_gaussian_chisquare(self):
        psi = init_gaussian(grid1d(512), [0.0], [1.0])
        xs = sample_initial(psi, 10_000, seed=3)[:, 0]
        edges = np.linspace(-4, 4, 51)
        counts, _ = np.histogram(xs, edges)
        cdf = stats.norm.cdf(edges)
        p_bins = np.diff(cdf)
        expected = p_bins / p_bins.sum() * counts.sum()
        _, p = stats.chisquare(counts, expected)
        assert p > 0.001

    def test_deterministic(self):
        psi = init_gaussian(grid1d(), [0.0], [1.0])
        a = sample_initial(psi, 1000, seed=42)
        b = sample_initial(psi, 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_needs_positive_n(self):
        psi = init_gaussian(grid1d(), [0.0], [1.0])
        with pytest.raises(FieldError):
            sample_initial(psi, 0, seed=1)


def harmonic_record(t_end=1.0, dt=0.01, stride=10):
    g = grid1d()
    H = HamiltonianSpec((PotentialTerm.make("harmonic", [0], omega=1.0),))
    psi = init_gaussian(g, [0.0], [np.sqrt(0.5)])
    return evolve(psi, H, Schedule(0, t_end, dt, stride))


def densities(rec):
    """The axis-0 density at every snapshot of a record."""
    return [ensemble._axis_density(rec.wave_at(i), 0)
            for i in range(len(rec.times))]


def free_record(t_end=2.0, dt=0.002, stride=100, n=1024):
    g = make_grid([{"points": n, "lo": -20, "hi": 20}])
    psi = init_gaussian(g, [0.0], [1.0])
    return evolve(psi, HamiltonianSpec(), Schedule(0, t_end, dt, stride))


class TestRunEnsemble:
    def test_single_particle_matches_trajectory(self):
        rec = free_record(t_end=0.5, stride=50)
        ens = run_ensemble(rec, 1, seed=5)
        x0 = ens.positions[0, 0]
        tr = simulate_trajectory(rec, x0)
        np.testing.assert_allclose(ens.positions[:, 0, :], tr.positions, atol=1e-12)

    def test_ground_state_frozen(self):
        rec = harmonic_record()
        ens = run_ensemble(rec, 50, seed=9)
        drift = np.abs(ens.positions - ens.positions[0]).max()
        assert drift < 1e-4

    def test_same_seed_bitwise(self):
        rec = free_record(t_end=0.5, stride=50)
        a = run_ensemble(rec, 64, seed=11)
        b = run_ensemble(rec, 64, seed=11)
        assert np.array_equal(a.positions, b.positions)


class TestEquivariance:
    def test_free_gaussian_within_band(self):
        rec = free_record()
        ens = run_ensemble(rec, 2000, seed=21)
        rep = equivariance_test(ens, densities(rec), bins=32)
        assert rep.within_band(3.0)
        assert np.all(rep.tv >= 0) and np.all(rep.tv <= 1)
        ok = ~np.isnan(rep.p_value)
        assert np.all((rep.p_value[ok] >= 0) & (rep.p_value[ok] <= 1))

    def test_initial_time_within_band(self):
        rec = free_record(t_end=0.5, stride=250)
        ens = run_ensemble(rec, 3000, seed=2)
        rep = equivariance_test(ens, densities(rec), bins=32)
        assert rep.tv[0] <= rep.tv_band_mean[0] + 3 * rep.tv_band_sigma[0]

    def test_shifted_ensemble_detected(self):
        rec = free_record(t_end=0.5, stride=250)
        ens = run_ensemble(rec, 10_000, seed=13)
        ens.positions = ens.positions + 1.0  # shift by one sigma
        rep = equivariance_test(ens, densities(rec), bins=64)
        assert np.nanmin(rep.p_value) < 1e-6


def loop_band(ens, rec, bins, resamples):
    """Bootstrap band mean and sigma per time, one bincount per resample:
    the reference for the chunked bincounts of equivariance_test."""
    edges = ensemble.binning_for(densities(rec), bins)
    n = ens.n_particles
    boot_idx = rng_for(ens.seed + 1).integers(0, n, size=(resamples, n))
    means, sigmas = [], []
    for ti, t in enumerate(ens.times):
        si = int(np.argmin(np.abs(rec.times - t)))
        expected = ensemble._expected_bin_mass(densities(rec)[si], edges)
        which = np.digitize(ens.positions[ti, :, 0], edges) - 1
        inside = (which >= 0) & (which < len(expected))
        wsafe = np.where(inside, which, 0)
        bt = np.empty(resamples)
        for b in range(resamples):
            sel = boot_idx[b]
            c = np.bincount(wsafe[sel][inside[sel]],
                            minlength=len(expected)).astype(float)
            e = c / n
            bt[b] = 0.5 * (np.abs(e - expected).sum()
                           + abs((1.0 - e.sum()) - (1.0 - expected.sum())))
        means.append(bt.mean())
        sigmas.append(bt.std())
    return np.asarray(means), np.asarray(sigmas)


class TestBootstrapBand:
    @pytest.mark.parametrize("resamples", [1, ensemble.BOOTSTRAP_CHUNK, 47])
    @pytest.mark.parametrize("bins", [32, 64])
    def test_matches_one_bincount_per_resample(self, resamples, bins):
        rec = free_record(t_end=0.5, stride=250)
        ens = run_ensemble(rec, 500, seed=3)
        # a shift puts some particles outside the binned range
        ens.positions = ens.positions + 6.0
        rep = equivariance_test(ens, densities(rec), bins=bins,
                                resamples=resamples)
        xs = ens.positions[:, :, 0]
        edges = ensemble.binning_for(densities(rec), bins)
        assert ((xs < edges[0]) | (xs >= edges[-1])).any()
        mean, sigma = loop_band(ens, rec, bins, resamples)
        assert np.array_equal(rep.tv_band_mean, mean)
        assert np.array_equal(rep.tv_band_sigma, sigma)


class TestChiSquare:
    """The in-place chi-square equals scipy.stats.chisquare bit for bit."""

    def test_random_vectors(self):
        rng = rng_for(4)
        for _ in range(500):
            k = int(rng.integers(2, 80))
            obs = rng.integers(0, 300, size=k).astype(float)
            exp = rng.random(k) * 50.0 + 5.0
            exp *= obs.sum() / exp.sum()
            want = stats.chisquare(obs, exp)
            chi2, p = ensemble._chisquare(obs, exp)
            assert chi2 == want.statistic and p == want.pvalue

    def test_equivariance_series(self, monkeypatch):
        rec = free_record(t_end=0.5, stride=50)
        ens = run_ensemble(rec, 2000, seed=21)
        seen = []
        chisquare = ensemble._chisquare

        def spy(obs, exp):
            seen.append(stats.chisquare(obs, exp))
            return chisquare(obs, exp)

        monkeypatch.setattr(ensemble, "_chisquare", spy)
        rep = equivariance_test(ens, densities(rec), bins=32)
        assert len(seen) == len(rep.times) == 6
        assert np.array_equal(rep.chi2, [w.statistic for w in seen])
        assert np.array_equal(rep.p_value, [w.pvalue for w in seen])
        assert np.all(rep.p_value > 0) and np.all(rep.p_value < 1)

    def test_too_few_bins_is_nan(self):
        # 3 particles expect fewer than 5 in every bin: no chi-square
        rec = free_record(t_end=0.5, stride=250)
        rep = equivariance_test(run_ensemble(rec, 3, seed=8), densities(rec),
                                bins=32)
        assert np.isnan(rep.chi2).all() and np.isnan(rep.p_value).all()
        assert np.isfinite(rep.tv).all()


class TestHFunction:
    def test_zero_when_matching(self):
        # counts proportional to the coarse wave mass -> H == 0
        g = make_grid([{"points": 64, "lo": 0, "hi": 1}])
        psi = normalize(WaveFunction(g, np.ones(64, dtype=complex)))
        xs = np.linspace(0, 1, 4096, endpoint=False)[:, None]
        assert h_function(xs, psi, coarse_len=0.25) == pytest.approx(0.0, abs=1e-12)

    def test_positive_when_mismatched(self):
        g = make_grid([{"points": 64, "lo": 0, "hi": 1}])
        psi = normalize(WaveFunction(g, np.ones(64, dtype=complex)))
        xs = np.linspace(0, 0.5, 4096, endpoint=False)[:, None]
        h = h_function(xs, psi, coarse_len=0.25)
        assert h > 0.1  # uniform-on-half vs uniform: ln 2

    def test_nonnegative_random(self):
        rng = rng_for(99)
        psi = init_gaussian(grid1d(), [0.0], [1.0])
        for _ in range(5):
            xs = rng.normal(0, 2.0, size=(500, 1))
            xs = np.clip(xs, -15.9, 15.9)
            assert h_function(xs, psi, coarse_len=1.0) >= 0.0

    def test_coarse_len_validated(self):
        psi = init_gaussian(grid1d(), [0.0], [1.0])
        with pytest.raises(FieldError):
            h_function(np.zeros((10, 1)), psi, coarse_len=0.01)

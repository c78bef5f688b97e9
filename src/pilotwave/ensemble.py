"""Born-rule sampling, ensemble propagation, and equivariance statistics.

Sampling draws grid cells by inverse CDF over the flattened |Psi|^2 * dV
probabilities, then jitters uniformly inside each cell.  The RNG is Philox
(counter-based) seeded explicitly; the stream order is: N uniforms for the
cell draw, then N*D uniforms for the jitter, so a given seed reproduces the
ensemble bit for bit on any platform.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .fields import FieldError, density, marginal_density
from .guidance import simulate_trajectories

DENSITY_CLIP = 1e-12  # bins restricted to cells with |psi|^2 above this * max
DEFAULT_BINS = 64
BOOTSTRAP_RESAMPLES = 200
# resamples binned per bincount call; bounds the (chunk, N) index temporaries
BOOTSTRAP_CHUNK = 20


def rng_for(seed):
    """The engine-wide counter-based generator (Philox), explicitly seeded."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class Ensemble:
    """Trajectory bundle on a shared time axis.

    positions has shape (T, N, D); degenerate flags per particle.
    """

    times: np.ndarray
    positions: np.ndarray
    degenerate: np.ndarray
    seed: int

    @property
    def n_particles(self):
        return self.positions.shape[1]

    def degenerate_fraction(self):
        return float(np.mean(self.degenerate))


@dataclass
class EquivarianceReport:
    """TV-distance and chi-square series against |Psi_t|^2, with bootstrap band."""

    times: np.ndarray
    tv: np.ndarray
    tv_band_mean: np.ndarray
    tv_band_sigma: np.ndarray
    chi2: np.ndarray
    p_value: np.ndarray
    bootstrap_resamples: int

    def within_band(self, n_sigma=3.0):
        """True when TV(t) <= band mean + n_sigma * band sigma for all t."""
        return bool(np.all(self.tv <= self.tv_band_mean + n_sigma * self.tv_band_sigma))


def sample_initial(psi, n, seed):
    """Draw n configurations from |psi|^2 (inverse CDF + in-cell jitter).

    Returns an array of shape (n, D).
    """
    if n < 1:
        raise FieldError("need n >= 1 samples")
    grid = psi.grid
    rho = np.abs(psi.amplitudes) ** 2
    p = np.ravel(rho, order="C") * grid.dV
    p = p / p.sum()
    cdf = np.cumsum(p)
    cdf[-1] = 1.0

    rng = rng_for(seed)
    u = rng.random(n)
    flat_idx = np.searchsorted(cdf, u, side="right")
    multi = np.column_stack(np.unravel_index(flat_idx, grid.shape, order="C"))
    jitter = rng.random((n, grid.dims))
    los = np.asarray(grid.los)
    dxs = np.asarray(grid.dxs)
    return los + (multi + jitter) * dxs


def run_ensemble(record, n, seed):
    """Sample |Psi(t_start)|^2 and integrate all trajectories through a record."""
    x0 = sample_initial(record.wave_at(0), n, seed)
    trajs = simulate_trajectories(record, x0)
    times = trajs[0].times
    positions = np.stack([tr.positions for tr in trajs], axis=1)
    degenerate = np.array([tr.degenerate for tr in trajs], dtype=bool)
    return Ensemble(times=times, positions=positions, degenerate=degenerate,
                    seed=int(seed))


def _axis_density(psi, axis):
    if psi.grid.dims == 1:
        return density(psi)
    return marginal_density(psi, axis)


def binning_for(densities, bins=DEFAULT_BINS):
    """Axis-0 bin edges covering the cells occupied at any observation.

    The range is clipped to coordinates where the axis-0 density exceeds
    DENSITY_CLIP of its maximum at some observation (avoids empty-bin
    pathologies in the chi-square statistic).
    """
    lo, hi = np.inf, -np.inf
    x = densities[0].grid.axis_coords(0)
    dx = densities[0].grid.dxs[0]
    for rho in densities:
        occ = x[rho.values > DENSITY_CLIP * rho.values.max()]
        lo = min(lo, occ.min())
        hi = max(hi, occ.max() + dx)
    return np.linspace(lo, hi, bins + 1)


def _expected_bin_mass(rho, edges):
    """Integral of an axis-0 density over each bin (midpoint-free, exact
    per-cell accumulation)."""
    x = rho.grid.axis_coords(0)
    dx = rho.grid.dxs[0]
    which = np.digitize(x + 0.5 * dx, edges) - 1
    mass = np.zeros(len(edges) - 1)
    ok = (which >= 0) & (which < len(mass))
    np.add.at(mass, which[ok], rho.values[ok] * dx)
    return mass


def _chisquare(obs, exp):
    """Pearson's chi-square of counts `obs` against `exp` (same sums), and
    its p-value on len(obs) - 1 degrees of freedom.

    The two expressions `scipy.stats.chisquare` evaluates, bit for bit.
    """
    chi2 = np.sum((obs - exp) ** 2 / exp)
    return chi2, chdtrc(float(len(obs) - 1), chi2)


def equivariance_test(ensemble, densities, bins=DEFAULT_BINS,
                      resamples=BOOTSTRAP_RESAMPLES):
    """Compare the empirical axis-0 histogram to |Psi_t|^2 over time.

    `densities`: the axis-0 density at every observation.  TV distance and
    chi-square at each ensemble time; the bootstrap band resamples the t=0
    draw (trajectory-level, B resamples, seeded by the ensemble seed + 1) so
    the band reflects pure sampling noise under exact equivariance.
    """
    edges = binning_for(densities, bins)
    n = ensemble.n_particles
    rng = rng_for(ensemble.seed + 1)
    boot_idx = rng.integers(0, n, size=(resamples, n))

    # map ensemble times onto observations
    obs_times = np.array([rho.time for rho in densities])
    tvs, means, sigmas, chis, ps = [], [], [], [], []
    for ti, t in enumerate(ensemble.times):
        si = int(np.argmin(np.abs(obs_times - t)))
        if abs(obs_times[si] - t) > 1e-9 * max(1.0, abs(t)):
            raise FieldError("ensemble times do not align with observations")
        expected = _expected_bin_mass(densities[si], edges)
        xs = ensemble.positions[ti, :, 0]
        which = np.digitize(xs, edges) - 1
        inside = (which >= 0) & (which < len(expected))
        counts = np.bincount(which[inside], minlength=len(expected)).astype(float)

        emp = counts / n
        # the binned cells plus an "outside" cell partition the line
        tv = 0.5 * (np.abs(emp - expected).sum()
                    + abs((1.0 - emp.sum()) - (1.0 - expected.sum())))
        tvs.append(tv)

        keep = expected * n >= 5.0
        if keep.sum() >= 2:
            obs = counts[keep]
            exp = expected[keep] * n
            exp *= obs.sum() / exp.sum()
            chi2, p = _chisquare(obs, exp)
        else:
            chi2, p = np.nan, np.nan
        chis.append(chi2)
        ps.append(p)

        # bootstrap TV distribution at this time: one bincount per chunk of
        # resamples, resample r counting into bins offset by r * nb
        nb = len(expected)
        bt = np.empty(resamples)
        wsafe = np.where(inside, which, 0)
        for r0 in range(0, resamples, BOOTSTRAP_CHUNK):
            sel = boot_idx[r0:r0 + BOOTSTRAP_CHUNK]
            rows = len(sel)
            w = wsafe[sel] + nb * np.arange(rows)[:, None]
            c = np.bincount(w[inside[sel]], minlength=rows * nb)
            e = c.reshape(rows, nb).astype(float) / n
            bt[r0:r0 + rows] = 0.5 * (
                np.abs(e - expected).sum(axis=1)
                + np.abs((1.0 - e.sum(axis=1)) - (1.0 - expected.sum())))
        means.append(bt.mean())
        sigmas.append(bt.std())

    return EquivarianceReport(
        times=np.asarray(ensemble.times), tv=np.asarray(tvs),
        tv_band_mean=np.asarray(means), tv_band_sigma=np.asarray(sigmas),
        chi2=np.asarray(chis), p_value=np.asarray(ps),
        bootstrap_resamples=resamples,
    )


def h_function(positions, psi, coarse_len):
    """Coarse-grained relative entropy of the empirical density vs |psi|^2.

    positions: (N, D) configurations at psi.time; coarse_len: coarse cell
    size (must be >= every grid spacing).  Nonnegative; zero iff the coarse
    densities agree on every occupied cell.
    """
    grid = psi.grid
    if coarse_len < max(grid.dxs) - 1e-12:
        raise FieldError(
            f"coarse_len {coarse_len} smaller than grid spacing {max(grid.dxs)}")
    positions = np.atleast_2d(positions)
    n = len(positions)

    edges = []
    for i in range(grid.dims):
        m = max(1, int(round(grid.lengths[i] / coarse_len)))
        edges.append(np.linspace(grid.los[i], grid.his[i], m + 1))
    cell_vol = float(np.prod([e[1] - e[0] for e in edges]))

    counts, _ = np.histogramdd(positions, bins=edges)
    rho_bar = counts / (n * cell_vol)

    q = np.abs(psi.amplitudes) ** 2 * grid.dV
    q_bar = np.zeros_like(rho_bar)
    idx = []
    for i in range(grid.dims):
        x = grid.axis_coords(i) + 0.5 * grid.dxs[i]
        idx.append(np.clip(np.digitize(x, edges[i]) - 1, 0, rho_bar.shape[i] - 1))
    mesh = np.meshgrid(*idx, indexing="ij")
    np.add.at(q_bar, tuple(mesh), q)
    q_bar = q_bar / cell_vol

    occ = rho_bar > 0
    qv = np.clip(q_bar[occ], 1e-300, None)
    return float(np.sum(rho_bar[occ] * np.log(rho_bar[occ] / qv)) * cell_vol)

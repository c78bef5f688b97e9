"""Unitary time evolution by Strang-split spectral stepping.

One step applies, in order,

    exp(-i V dt/2) . exp(-i C tau/2) . exp(-i K dt) . exp(-i C tau/2) . exp(-i V dt/2)

where K is the kinetic operator (diagonal in momentum space), V the position
potential (diagonal in position space), and C the optional measurement
coupling g * x_source * p_target, applied as a spectral phase along the target
axis; tau is the overlap of [t, t+dt) with the coupling gate, so gate edges
need not align with step boundaries.  Every factor is exactly unitary, making
the composition second-order accurate and norm-preserving to rounding.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .fields import FieldError, Grid, PhysicalParams, WaveFunction


class PropagationError(RuntimeError):
    """Numerical failure (NaN/Inf) or invalid propagation setup."""


@dataclass(frozen=True)
class MeasurementCoupling:
    """Time-gated coupling g * x_source * p_target (pointer displacement)."""

    source_axis: int
    target_axis: int
    strength: float
    t_on: float
    t_off: float

    def __post_init__(self):
        if self.source_axis == self.target_axis:
            raise FieldError("coupling source and target axes must differ")
        if not self.t_off > self.t_on:
            raise FieldError("coupling gate needs t_off > t_on")
        if not math.isfinite(self.strength):
            raise FieldError("coupling strength must be finite")


@dataclass(frozen=True)
class PotentialTerm:
    """One additive potential term.

    kind: harmonic | gaussian_barrier | linear_coupling | custom_grid
    axes: the axes the term binds
    params: kind-specific parameters
    window: optional (t_on, t_off) rectangular activation window
    """

    kind: str
    axes: tuple
    params: tuple  # sorted (key, value) pairs; kept hashable for spec hashing
    window: tuple = None

    @staticmethod
    def make(kind, axes, window=None, **params):
        return PotentialTerm(kind, tuple(axes), tuple(sorted(params.items())), window)

    @property
    def pdict(self):
        return dict(self.params)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Kinetic term (from PhysicalParams) plus potential terms and coupling."""

    terms: tuple = ()
    coupling: MeasurementCoupling = None

    def validate(self, grid):
        for t in self.terms:
            for a in t.axes:
                if not 0 <= a < grid.dims:
                    raise FieldError(f"potential term binds missing axis {a}")
            if t.kind == "custom_grid":
                v = np.asarray(t.pdict["values"])
                if v.shape != grid.shape:
                    raise FieldError("custom_grid term shape does not match grid")
        if self.coupling is not None:
            for a in (self.coupling.source_axis, self.coupling.target_axis):
                if not 0 <= a < grid.dims:
                    raise FieldError(f"coupling binds missing axis {a}")


@dataclass(frozen=True)
class Schedule:
    t_start: float
    t_end: float
    dt: float
    stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise FieldError("schedule.dt must be positive")
        if self.stride < 1:
            raise FieldError("schedule.stride must be >= 1")
        steps = (self.t_end - self.t_start) / self.dt
        if steps < 0.5 or abs(steps - round(steps)) > 1e-6:
            raise FieldError(
                "(t_end - t_start)/dt must be a positive integer within rounding"
            )

    @property
    def n_steps(self):
        return int(round((self.t_end - self.t_start) / self.dt))

    def time_at(self, step):
        return self.t_start + step * self.dt


def potential_grid(grid, term):
    """Evaluate one potential term on the grid (its static spatial profile)."""
    p = term.pdict
    if term.kind == "harmonic":
        (axis,) = term.axes
        x = grid.mesh(axis)
        c = p.get("center", 0.0)
        m = p.get("mass", 1.0)
        return 0.5 * m * p["omega"] ** 2 * (x - c) ** 2
    if term.kind == "gaussian_barrier":
        (axis,) = term.axes
        x = grid.mesh(axis)
        return p["height"] * np.exp(-((x - p.get("center", 0.0)) ** 2) / (2.0 * p["width"] ** 2))
    if term.kind == "linear_coupling":
        a, b = term.axes
        return p["strength"] * grid.mesh(a) * grid.mesh(b)
    if term.kind == "custom_grid":
        return np.asarray(p["values"], dtype=float)
    raise FieldError(f"unknown potential kind {term.kind!r}")


def _overlap(lo, hi, t0, t1):
    """Length of [t0, t1) inside [lo, hi)."""
    return max(0.0, min(hi, t1) - max(lo, t0))


class SplitOperator:
    """Precomputed split-step engine for one (grid, params, H, dt)."""

    def __init__(self, grid, params, hamiltonian, dt):
        hamiltonian.validate(grid)
        if len(params.masses) != grid.dims:
            raise FieldError("need one mass per grid axis")
        self.grid = grid
        self.params = params
        self.H = hamiltonian
        self.dt = float(dt)

        # kinetic phase: exp(-i dt hbar k^2 / 2m) summed over axes
        ksq = np.zeros(grid.shape)
        for i in range(grid.dims):
            k = grid.k_coords(i)
            shp = [1] * grid.dims
            shp[i] = grid.shape[i]
            ksq = ksq + (params.hbar * k.reshape(shp) ** 2) / (2.0 * params.masses[i])
        self._kin_phase = np.exp(-1j * self.dt * ksq)
        self._ksq_over = ksq  # hbar k^2 / 2m, reused for <H>

        self.v_static = np.zeros(grid.shape)
        self._windowed = []
        for t in hamiltonian.terms:
            v = potential_grid(grid, t)
            if t.window is None:
                self.v_static = self.v_static + v
            else:
                self._windowed.append((t.window, v))
        self._exp_v_half_static = np.exp(-1j * self.v_static * self.dt / (2.0 * params.hbar))
        # (per-window overlaps, phase) of the last step that lay wholly
        # inside or outside each window; None while no window is active
        self._window_phase = None

        c = hamiltonian.coupling
        if c is not None:
            self._src = grid.mesh(c.source_axis)
            kt = grid.k_coords(c.target_axis)
            shp = [1] * grid.dims
            shp[c.target_axis] = grid.shape[c.target_axis]
            self._ktarget = kt.reshape(shp)

    def _window_overlaps(self, t):
        """Overlap of [t, t+dt) with each window; exactly dt when covered."""
        t1 = t + self.dt
        return tuple(self.dt if t_on <= t and t1 <= t_off
                     else _overlap(t_on, t_off, t, t1)
                     for (t_on, t_off), _ in self._windowed)

    def _v_half_phase(self, t):
        """exp(-i V dt_eff / 2) including windowed terms active in [t, t+dt).

        Steps that cover every active window whole share one cached phase;
        a step that only partly overlaps a window computes its own.
        """
        taus = self._window_overlaps(t)
        if not any(tau > 0.0 for tau in taus):
            self._window_phase = None
            return self._exp_v_half_static
        if self._window_phase is not None and self._window_phase[0] == taus:
            return self._window_phase[1]
        v_eff = self.v_static * self.dt
        for (_, v), tau in zip(self._windowed, taus):
            if tau > 0.0:
                v_eff = v_eff + v * tau
        phase = np.exp(-1j * v_eff / (2.0 * self.params.hbar))
        if all(tau == 0.0 or tau == self.dt for tau in taus):
            self._window_phase = (taus, phase)
        return phase

    def _apply_coupling_half(self, amp, tau_half):
        """Coupling half-step; overwrites `amp`, which the caller owns."""
        c = self.H.coupling
        ft = sfft.fft(amp, axis=c.target_axis, overwrite_x=True)
        ft *= np.exp(-1j * c.strength * tau_half * self._src * self._ktarget)
        return sfft.ifft(ft, axis=c.target_axis, overwrite_x=True)

    def step_array(self, amp, t):
        """One Strang step of the raw amplitude array from time t.

        The caller's array is left unchanged; every later factor works in
        place on the step's own array.
        """
        expv = self._v_half_phase(t)
        tau = 0.0
        c = self.H.coupling
        if c is not None and c.strength != 0.0:
            tau = _overlap(c.t_on, c.t_off, t, t + self.dt)

        amp = expv * amp
        if tau > 0.0:
            amp = self._apply_coupling_half(amp, tau / 2.0)
        amp = sfft.fftn(amp, overwrite_x=True)
        np.multiply(self._kin_phase, amp, out=amp)
        amp = sfft.ifftn(amp, overwrite_x=True)
        if tau > 0.0:
            amp = self._apply_coupling_half(amp, tau / 2.0)
        np.multiply(expv, amp, out=amp)
        return amp

    def energy(self, amp, t=None):
        """<H> (kinetic + static potential); None while a window is active."""
        if t is not None:
            for (t_on, t_off), _ in self._windowed:
                if _overlap(t_on, t_off, t, t + self.dt) > 0.0:
                    return None
            c = self.H.coupling
            if c is not None and c.strength != 0.0 and _overlap(c.t_on, c.t_off, t, t + self.dt) > 0.0:
                return None
        ft = sfft.fftn(amp) / np.sqrt(amp.size)
        kin = np.sum(np.abs(ft) ** 2 * self._ksq_over) * self.params.hbar
        # ft normalized so that sum |ft|^2 = sum |amp|^2; convert to integrals
        kin *= self.grid.dV
        pot = np.sum(self.v_static * np.abs(amp) ** 2) * self.grid.dV
        return float(kin + pot)


def step(psi, hamiltonian, dt, params=None):
    """Single Strang split step from psi.time; returns the advanced state."""
    if dt <= 0:
        raise FieldError("dt must be positive")
    if params is None:
        params = PhysicalParams(masses=(1.0,) * psi.grid.dims)
    op = SplitOperator(psi.grid, params, hamiltonian, dt)
    amp = op.step_array(psi.amplitudes, psi.time)
    if not np.all(np.isfinite(amp.view(float))):
        raise PropagationError(
            f"non-finite amplitudes after step from t={psi.time:g} (dt={dt:g})"
        )
    return WaveFunction(psi.grid, amp, psi.time + dt)


def apply_conditional_displacement(psi, coupling, tau):
    """Apply exp(-i g tau x_source p_target / hbar) as a spectral phase.

    Translates the target-axis profile by g * x_source * tau at each fixed
    source coordinate.  Errors if the largest displacement exceeds half the
    target-axis extent (wrap-around would corrupt pointer regions).
    """
    grid = psi.grid
    c = coupling
    for a in (c.source_axis, c.target_axis):
        if not 0 <= a < grid.dims:
            raise FieldError(f"coupling axis {a} not on grid")
    src = grid.mesh(c.source_axis)
    max_shift = abs(c.strength) * tau * float(np.max(np.abs(src)))
    if max_shift > 0.5 * grid.lengths[c.target_axis]:
        raise PropagationError(
            f"conditional displacement {max_shift:g} exceeds half the target "
            f"axis extent {grid.lengths[c.target_axis]:g}"
        )
    if c.strength * tau == 0.0:
        return psi.copy()
    kt = grid.k_coords(c.target_axis)
    shp = [1] * grid.dims
    shp[c.target_axis] = grid.shape[c.target_axis]
    ft = sfft.fft(psi.amplitudes, axis=c.target_axis)
    ft *= np.exp(-1j * c.strength * tau * src * kt.reshape(shp))
    return WaveFunction(grid, sfft.ifft(ft, axis=c.target_axis), psi.time)


def _observed_steps(op, amps, schedule):
    """Step every array of `amps` through the schedule, replacing it in place.

    Yields (i, t) at step 0 and after every observation step (each `stride`
    steps, and the last).  Amplitudes are checked finite at every
    observation and every 64 steps.
    """
    yield 0, schedule.time_at(0)
    for i in range(schedule.n_steps):
        t = schedule.time_at(i)
        for j in range(len(amps)):
            amps[j] = op.step_array(amps[j], t)
        observe = (i + 1) % schedule.stride == 0 or i + 1 == schedule.n_steps
        if observe or (i + 1) % 64 == 0:
            for a in amps:
                if not np.all(np.isfinite(a.view(float))):
                    raise PropagationError(
                        f"non-finite amplitudes at step {i + 1} "
                        f"(t={schedule.time_at(i + 1):g})"
                    )
        if observe:
            yield i + 1, schedule.time_at(i + 1)


@dataclass
class EvolutionRecord:
    """Snapshots at a fixed stride plus conserved-quantity time series."""

    grid: Grid
    params: PhysicalParams
    hamiltonian: HamiltonianSpec
    schedule: Schedule
    times: np.ndarray = None
    snapshots: list = field(default_factory=list)
    norms: np.ndarray = None
    energies: np.ndarray = None  # NaN where a gate/window made <H> time-dependent

    def wave_at(self, index):
        return WaveFunction(self.grid, self.snapshots[index], self.times[index])


def evolve(psi, hamiltonian, schedule, params=None):
    """Integrate the Schroedinger equation over a schedule.

    Returns an EvolutionRecord with snapshots every `stride` steps (always
    including the initial and final states).
    """
    if params is None:
        params = PhysicalParams(masses=(1.0,) * psi.grid.dims)
    op = SplitOperator(psi.grid, params, hamiltonian, schedule.dt)
    amps = [psi.amplitudes]

    times, snaps, norms, energies = [], [], [], []
    for i, t in _observed_steps(op, amps, schedule):
        a = amps[0]
        times.append(t)
        snaps.append(a.copy())
        norms.append(float(np.sqrt(np.sum(np.abs(a) ** 2) * psi.grid.dV)))
        e = op.energy(a, t if i < schedule.n_steps else None)
        energies.append(np.nan if e is None else e)

    return EvolutionRecord(
        grid=psi.grid,
        params=params,
        hamiltonian=hamiltonian,
        schedule=schedule,
        times=np.asarray(times),
        snapshots=snaps,
        norms=np.asarray(norms),
        energies=np.asarray(energies),
    )

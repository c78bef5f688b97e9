"""Unitary time evolution by Strang-split spectral stepping.

One step from t applies, in order,

    exp(-i V dt/2) . exp(-i C dt/2) . exp(-i K dt) . exp(-i C dt/2) . exp(-i V dt/2)

where K is the kinetic operator, the sum over axes of k^2/2m in units where
ħ = 1 (diagonal in momentum space), V the position potential, a sum of the
quadratic terms of `TERM_KINDS` (diagonal in position space), and C the
optional measurement coupling g * x_source * p_target, applied as a spectral
phase along the target axis.  Every window and gate edge lies on the step
grid t_start + k dt (`_observed_steps` checks it before the first step), so
H is constant across each step, and a windowed term or the gate acts on a
step exactly when the step's midpoint lies inside its window (`_inside`).
Every factor is exactly unitary, making the composition second-order
accurate and norm-preserving to rounding.

The kinetic factor along an axis that no active term binds commutes with
every other factor, so a step factors exactly into a Strang step over the
bound axes (`SplitOperator.bound`) and a kinetic jump along the free ones,
and the jumps of n steps are one, exp(-i K_free n dt).  On grids of two or
more dimensions a step transforms only its bound axes, and the stepping loop
takes the free axes' owed steps as one jump (`free_flight`).  A gated step
applies both coupling half-steps between the target axis's transform and the
other bound axes'.  1-D runs take one Strang step per step; there the FFT
pair is a small share of a run.

The axes fall into blocks (`HamiltonianSpec.blocks`): two axes share one
once a term or the gate has acted on both, so blocks merge, and only merge,
when a binding first acts.  Every factor above splits into one per block, so
a component that is a product over the blocks (a ProductWave, as `scenarios`
builds each packet over the blocks of the first step) stays one: the
stepping loop advances each factor on its block's subgrid under the
Hamiltonian restricted to the block, and merged blocks as the outer
product of their factors from the merge on.  Factors are materialized only
at observations; observers, records and results see full arrays.  A
WaveFunction is the case of one block.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft

from .fields import FieldError, PhysicalParams, WaveFunction, product_amplitudes


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


# per potential kind: the number of axes a term binds and its parameters;
# both kinds are quadratic
TERM_KINDS = {
    "harmonic": (1, ("omega",)),             # V = omega^2 x^2 / 2
    "linear_coupling": (2, ("strength",)),   # V = strength x y
}


@dataclass(frozen=True)
class PotentialTerm:
    """One additive potential term, checked where it is made.

    kind: a key of TERM_KINDS
    axes: the axes the term binds, as many as its kind takes
    params: exactly its kind's parameters
    window: optional (t_on, t_off) rectangular activation window, t_off > t_on
    """

    kind: str
    axes: tuple
    params: dict
    window: tuple = None

    def __post_init__(self):
        if self.kind not in TERM_KINDS:
            raise FieldError(f"unknown potential kind {self.kind!r}")
        n_axes, names = TERM_KINDS[self.kind]
        if len(self.axes) != n_axes:
            raise FieldError(f"{self.kind} term takes len(axes) == {n_axes}, "
                             f"got {list(self.axes)}")
        if sorted(self.params) != sorted(names):
            raise FieldError(f"{self.kind} term takes params {list(names)}, "
                             f"got {list(self.params)}")
        if self.window is not None and not self.window[1] > self.window[0]:
            raise FieldError(f"{self.kind} window {self.window} needs t_off > t_on")

    @staticmethod
    def make(kind, axes, window=None, **params):
        return PotentialTerm(kind, tuple(axes), params, window)


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
        if self.coupling is not None:
            for a in (self.coupling.source_axis, self.coupling.target_axis):
                if not 0 <= a < grid.dims:
                    raise FieldError(f"coupling binds missing axis {a}")

    def blocks(self, grid, t=None, start=None):
        """The grid's axes in blocks: those of `start` (one axis each by
        default), merged wherever a term or the gate binds axes of two.

        With `t` None every term and the gate bind, windowed or not; at a
        time t a windowed term or the gate binds when its window [t_on,
        t_off) holds t, so the step from s binds what acts at its midpoint
        s + dt/2 (`_inside`).  Each block is sorted; blocks come in order
        of their first axis.
        """
        self.validate(grid)
        dims = grid.dims
        label = list(range(dims))  # each axis's block, named by its first axis
        bindings = [(b, None) for b in start or ()]
        bindings += [(term.axes, term.window) for term in self.terms]
        if self.coupling is not None:
            c = self.coupling
            bindings.append(((c.source_axis, c.target_axis), (c.t_on, c.t_off)))
        for axes, window in bindings:
            if t is None or window is None or window[0] <= t < window[1]:
                merged = {label[a] for a in axes}
                label = [min(merged) if b in merged else b for b in label]
        return tuple(tuple(a for a in range(dims) if label[a] == b)
                     for b in sorted(set(label)))

    def restrict(self, axes):
        """The terms and gate that bind `axes` only, each axis renumbered by
        its position in `axes`."""
        pos = {a: i for i, a in enumerate(axes)}
        terms = tuple(replace(t, axes=tuple(pos[a] for a in t.axes))
                      for t in self.terms if set(t.axes) <= pos.keys())
        c = self.coupling
        if c is not None and {c.source_axis, c.target_axis} <= pos.keys():
            c = replace(c, source_axis=pos[c.source_axis],
                        target_axis=pos[c.target_axis])
        else:
            c = None
        return HamiltonianSpec(terms, c)


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
        if self.n_steps < 1 or not self.on_grid(self.t_end):
            raise FieldError("(t_end - t_start)/dt must be a positive integer "
                             "within rounding")

    def on_grid(self, t):
        """True when t is a step time t_start + k*dt, k within 1e-6 of an
        integer."""
        k = (t - self.t_start) / self.dt
        return abs(k - round(k)) <= 1e-6

    @property
    def n_steps(self):
        return int(round((self.t_end - self.t_start) / self.dt))

    def time_at(self, step):
        return self.t_start + step * self.dt


def potential_grid(grid, term):
    """Evaluate one potential term on the grid (its static spatial profile)."""
    if term.kind == "harmonic":
        return 0.5 * term.params["omega"] ** 2 * grid.mesh(term.axes[0]) ** 2
    a, b = term.axes
    return term.params["strength"] * grid.mesh(a) * grid.mesh(b)


def _overlap(lo, hi, t0, t1):
    """Length of [t0, t1) inside [lo, hi)."""
    return max(0.0, min(hi, t1) - max(lo, t0))


def _inside(lo, hi, t, dt):
    """True when the step [t, t+dt) counts as inside [lo, hi): its midpoint
    does.  With lo and hi on the step grid, each step lies wholly inside or
    wholly outside."""
    return lo <= t + 0.5 * dt < hi


class SplitOperator:
    """Precomputed split-step engine for one (grid, params, H, dt).

    Every phase is held in broadcast shape over the axes it depends on: the
    kinetic phase over the axes it transforms, cached per (steps, axes),
    the potentials over their terms' axes and the gate's over its two.
    """

    def __init__(self, grid, params, hamiltonian, dt):
        hamiltonian.validate(grid)
        if len(params.masses) != grid.dims:
            raise FieldError("need one mass per grid axis")
        self.grid = grid
        self.params = params
        self.H = hamiltonian
        self.dt = float(dt)
        self.axes = tuple(range(grid.dims))

        # k^2 / 2m per axis, reused for the kinetic phases and <H>
        self._ksq = [grid.k_mesh(i) ** 2 / (2.0 * params.masses[i])
                     for i in self.axes]
        self._kin_phases = {}  # (n, axes) -> exp(-i n dt k^2 / 2m) over axes

        self.v_static = np.zeros((1,) * grid.dims)
        self._static_axes = set()
        self._windowed = []
        for t in hamiltonian.terms:
            v = potential_grid(grid, t)
            if t.window is None:
                self.v_static = self.v_static + v
                self._static_axes.update(t.axes)
            else:
                self._windowed.append((t.window, v, t.axes))
        self._exp_v_half_static = np.exp(-1j * self.v_static * self.dt / 2.0)
        # (windows on, phase) of the last step inside some window; None
        # while no window is on
        self._window_phase = None

        c = hamiltonian.coupling
        if c is not None:
            # exp(-i C dt/2) in the (x_source, k_target) representation
            self._gate_half = np.exp(-1j * c.strength * (self.dt / 2.0)
                                     * grid.mesh(c.source_axis)
                                     * grid.k_mesh(c.target_axis))

    def _windows_on(self, t):
        """Per window, whether the step from t lies inside it (`_inside`)."""
        return tuple(_inside(*w, t, self.dt) for w, _, _ in self._windowed)

    def _v_half_phase(self, t):
        """exp(-i V dt / 2) with the windowed terms the step from t lies in;
        steps inside the same windows share one cached phase."""
        on = self._windows_on(t)
        if not any(on):
            self._window_phase = None
            return self._exp_v_half_static
        if self._window_phase is None or self._window_phase[0] != on:
            v_eff = self.v_static * self.dt
            for (_, v, _), inside in zip(self._windowed, on):
                if inside:
                    v_eff = v_eff + v * self.dt
            self._window_phase = (on, np.exp(-1j * v_eff / 2.0))
        return self._window_phase[1]

    def _gate_on(self, t):
        """True when the step from t lies inside a gate of nonzero strength."""
        c = self.H.coupling
        return (c is not None and c.strength != 0.0
                and _inside(c.t_on, c.t_off, t, self.dt))

    def bound(self, t):
        """The axes that some term acting on the step from t binds, sorted:
        the static terms', the windowed terms' inside their window and the
        gate's while it is open."""
        c = self.H.coupling
        axes = self._static_axes.union(*(
            a for (_, _, a), on in zip(self._windowed, self._windows_on(t)) if on))
        if self._gate_on(t):
            axes.update((c.source_axis, c.target_axis))
        return tuple(sorted(axes))

    def _kinetic(self, n, axes):
        """exp(-i n dt k^2 / 2m) summed over `axes`, cached per (n, axes)."""
        phase = self._kin_phases.get((n, axes))
        if phase is None:
            ksq = sum((self._ksq[a] for a in axes), 0.0)
            phase = self._kin_phases[n, axes] = np.exp(-1j * (n * self.dt) * ksq)
        return phase

    def step_array(self, amp, t, axes=None):
        """One Strang step of the raw amplitude array from time t, with the
        kinetic factor over `axes` (every axis by default).

        `axes` must hold every axis that `bound(t)` names: the kinetic factor
        along the others commutes with the whole step, and the caller owes
        it (`free_flight`).  A gated step applies both coupling half-steps
        between the target axis's transform and the other axes'.  The
        caller's array is left unchanged; every later factor works in place
        on the step's own array.
        """
        axes = self.axes if axes is None else axes
        kin = self._kinetic(1, axes)
        expv = self._v_half_phase(t)
        gated = self._gate_on(t)
        amp = expv * amp
        if gated:
            target = self.H.coupling.target_axis
            amp = sfft.fft(amp, axis=target, overwrite_x=True)
            amp *= self._gate_half
            axes = tuple(a for a in axes if a != target)
        amp = sfft.fftn(amp, axes=axes, overwrite_x=True)
        np.multiply(kin, amp, out=amp)
        amp = sfft.ifftn(amp, axes=axes, overwrite_x=True)
        if gated:
            amp *= self._gate_half
            amp = sfft.ifft(amp, axis=target, overwrite_x=True)
        np.multiply(expv, amp, out=amp)
        return amp

    def free_flight(self, amp, n, axes):
        """`n` steps' kinetic factor along `axes` as one exact jump
        exp(-i K n dt): what `n` calls of `step_array` over the other axes
        leave owed, wherever `bound` names none of `axes`.  The caller's
        array is left unchanged.
        """
        ft = sfft.fftn(amp, axes=axes)
        np.multiply(self._kinetic(n, axes), ft, out=ft)
        return sfft.ifftn(ft, axes=axes, overwrite_x=True)

    def energy(self, amp, t=None):
        """<H> (kinetic + static potential); None while a window is active."""
        if t is not None and (any(self._windows_on(t)) or self._gate_on(t)):
            return None
        ft = sfft.fftn(amp) / np.sqrt(amp.size)
        kin = np.sum(np.abs(ft) ** 2 * sum(self._ksq, 0.0))
        # ft normalized so that sum |ft|^2 = sum |amp|^2; convert to integrals
        kin *= self.grid.dV
        pot = np.sum(self.v_static * np.abs(amp) ** 2) * self.grid.dV
        return float(kin + pot)


def _check_finite(amps, i, schedule):
    for a in amps:
        if not np.all(np.isfinite(a.view(float))):
            raise PropagationError(
                f"non-finite amplitudes at step {i} (t={schedule.time_at(i):g})"
            )


def _coarsened(grid, blocks, new, factors):
    """`factors` over `blocks` as factors over the coarser `new`: each new
    block's factor is the outer product of the old factors inside it."""
    out = []
    for nb in new:
        inside = [(tuple(nb.index(a) for a in b), f)
                  for b, f in zip(blocks, factors) if b[0] in nb]
        out.append(product_amplitudes(grid.subgrid(nb), *zip(*inside)))
    return out


def _observed_steps(components, hamiltonian, schedule, params, amps):
    """Advance every component through the schedule.

    Yields t at step 0 and after every observation step (each `stride`
    steps, and the last), with `amps`, a list the caller owns, holding each
    component's full amplitude array at t.  Between observations `amps` is
    empty, so no full array outlives the step that replaced it.

    Each component is stepped factor by factor (a WaveFunction is one factor
    over every axis; a ProductWave one per block of axes), every block with
    its own SplitOperator on the block's subgrid under
    `hamiltonian.restrict(block)`; the components must share their blocks.
    Blocks merge when a binding first acts: at step 0 and at each window's
    and the gate's on-edge, `hamiltonian.blocks` at the step's midpoint
    joins blocks, whose factors become their outer product on the merged
    block's subgrid, with a new SplitOperator; other blocks keep theirs.  A
    factored component's full array is the outer product of its factors,
    formed at each observation.  Every window and gate edge must be a step
    time (`Schedule.on_grid`), else a FieldError is raised before the first
    step.  A step transforms the axes its block's active terms bind
    (`SplitOperator.bound`; every axis on a 1-D grid), none if they bind
    none; each block owes its free axes their steps, and takes them as one
    `free_flight` jump when its free set changes, before a merge that joins
    it and at each observation.  Amplitudes are checked finite at every
    observation and every 64 Strang steps.
    """
    grid = components[0].grid
    blocks = components[0].blocks
    if len(params.masses) != grid.dims:
        raise FieldError("need one mass per grid axis")
    edges = [(f"{t.kind} window", t.window)
             for t in hamiltonian.terms if t.window]
    gate = hamiltonian.coupling
    if gate is not None:
        edges.append(("gate", (gate.t_on, gate.t_off)))
    for name, pair in edges:
        for e in pair:
            if not schedule.on_grid(e):
                raise FieldError(f"{name} edge {e!r} is not on the step grid "
                                 f"t_start + k*dt (dt={schedule.dt!r})")
    if any(c.blocks != blocks for c in components):
        raise PropagationError("components factored over different blocks: "
                               f"{[c.blocks for c in components]}")
    n = schedule.n_steps
    edge_steps = [tuple(round((e - schedule.t_start) / schedule.dt)
                        for e in pair) for _, pair in edges]  # (on, off) each
    merges, current = {}, blocks  # merge step -> the blocks from that step
    for k in sorted({0} | {on for on, _ in edge_steps} & set(range(n))):
        new = hamiltonian.blocks(grid, schedule.time_at(k) + 0.5 * schedule.dt,
                                 current)
        if new != current:
            merges[k] = current = new

    def operator(b):
        return SplitOperator(grid.subgrid(b),
                             PhysicalParams(tuple(params.masses[a] for a in b)),
                             hamiltonian.restrict(b), schedule.dt)

    ops = {b: operator(b) for b in blocks}
    factors = [list(c.factors) for c in components]
    owed = {}  # block -> (its free axes, the steps they are owed)

    def settle(k, b):
        """Take block b's owed steps along its free axes (factor k)."""
        free, steps = owed.pop(b, ((), 0))
        if free:
            for f in factors:
                f[k] = ops[b].free_flight(f[k], steps, free)

    amps[:] = [product_amplitudes(grid, blocks, f) for f in factors]
    yield schedule.time_at(0)
    jumps = grid.dims > 1
    for start in range(0, n, schedule.stride):
        end = min(start + schedule.stride, n)
        amps.clear()
        # no edge inside a piece, so each block binds the same axes throughout
        cuts = sorted({start, end} | {k for ks in edge_steps for k in ks
                                       if start < k < end})
        for lo, hi in zip(cuts, cuts[1:]):
            if lo in merges:
                for k, b in enumerate(blocks):
                    if b not in merges[lo]:
                        settle(k, b)
                factors = [_coarsened(grid, blocks, merges[lo], f)
                           for f in factors]
                blocks = merges[lo]
                ops = {b: ops.get(b) or operator(b) for b in blocks}
            for k, b in enumerate(blocks):
                op = ops[b]
                bound = op.bound(schedule.time_at(lo)) if jumps else op.axes
                free = tuple(a for a in op.axes if a not in bound)
                if b in owed and owed[b][0] != free:
                    settle(k, b)
                owed[b] = (free, owed.get(b, ((), 0))[1] + hi - lo)
                for i in range(lo, hi) if bound else ():
                    for f in factors:
                        f[k] = op.step_array(f[k], schedule.time_at(i), bound)
                    if (i + 1) % 64 == 0 and i + 1 < end:
                        _check_finite([f[k] for f in factors], i + 1, schedule)
        for k, b in enumerate(blocks):
            settle(k, b)
        amps.extend(product_amplitudes(grid, blocks, f) for f in factors)
        _check_finite(amps, end, schedule)
        yield schedule.time_at(end)


class EvolutionRecord:
    """Snapshots at a fixed stride plus conserved-quantity time series.

    `energies` holds <H> at each snapshot, NaN where a gate or window made it
    time-dependent; unless given, it is computed on first read.
    """

    def __init__(self, grid, params, hamiltonian, schedule, times=None,
                 snapshots=None, norms=None, energies=None):
        self.grid = grid
        self.params = params
        self.hamiltonian = hamiltonian
        self.schedule = schedule
        self.times = times
        self.snapshots = [] if snapshots is None else snapshots
        self.norms = norms
        self._energies = energies

    @property
    def energies(self):
        if self._energies is None:
            op = SplitOperator(self.grid, self.params, self.hamiltonian,
                               self.schedule.dt)
            last = len(self.snapshots) - 1
            es = [op.energy(a, t if k < last else None)
                  for k, (a, t) in enumerate(zip(self.snapshots, self.times))]
            self._energies = np.asarray([np.nan if e is None else e for e in es])
        return self._energies

    def wave_at(self, index):
        return WaveFunction(self.grid, self.snapshots[index], self.times[index])


def evolve(psi, hamiltonian, schedule, params=None):
    """Integrate the Schroedinger equation over a schedule.

    `psi` is a WaveFunction or a ProductWave.  Returns an EvolutionRecord
    with full-array snapshots every `stride` steps (always including the
    initial and final states).
    """
    if params is None:
        params = PhysicalParams(masses=(1.0,) * psi.grid.dims)
    times, snaps, norms, amps = [], [], [], []
    for t in _observed_steps([psi], hamiltonian, schedule, params, amps):
        a = amps[0]
        times.append(t)
        snaps.append(a.copy())
        norms.append(float(np.sqrt(np.sum(np.abs(a) ** 2) * psi.grid.dV)))

    return EvolutionRecord(
        grid=psi.grid,
        params=params,
        hamiltonian=hamiltonian,
        schedule=schedule,
        times=np.asarray(times),
        snapshots=snaps,
        norms=np.asarray(norms),
    )

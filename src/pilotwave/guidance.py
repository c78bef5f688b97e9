"""Bohmian layer: velocity fields, interpolation, trajectory integration.

The guidance law is the standard de Broglie-Bohm form

    v_i = (hbar / m_i) * Im( d_i Psi / Psi )

with the gradient evaluated spectrally.  Cells where |Psi| drops below
EPS_NODE * max|Psi| are flagged nodal; their velocity is filled from the
nearest non-nodal cell and, when a query stencil touches a nodal cell during
stepping, the speed is capped at dx/dt for that step.

A group of particles that is small against the grid (`group_field`) reads a
probe-local field instead of a complete one.  It holds the wave and the
nodal mask, and evaluates the velocity only at the stencil corners asked
for: the spectral derivative of each grid line through such a corner is
taken once, batched per axis, and cached on the field.  Line by line the
transforms are bitwise those of the full axis, so the values are the
complete field's.  When a requested corner is nodal, the field builds the
complete `velocity_field` once, global nearest-cell fill included, and reads
from it from then on.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
from scipy.ndimage import distance_transform_edt

from .fields import PhysicalParams
from .propagate import _overlap

EPS_NODE = 1e-8

log = logging.getLogger(__name__)


@dataclass
class VelocityField:
    """Velocity components as one (D, *shape) array plus the nodal-cell mask.

    `components[i]` is the velocity along axis i; a list of per-axis arrays
    passed to the constructor is stacked once.  A probe-local field
    (`local_field`) has no components until a nodal cell is read: it keeps
    the wave and its parameters, and per axis the velocities of the grid
    lines read so far, concatenated, with the offset of each line's row
    (-1 for a line not yet evaluated).
    """

    grid: object
    components: np.ndarray
    nodal: np.ndarray
    time: float = 0.0
    any_nodal: bool = False
    all_nodal: bool = False
    wave: object = field(default=None, repr=False)
    params: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.components is not None:
            self.components = np.asarray(self.components, dtype=float)
        self._lines = {}     # axis -> (row offset per line, velocities)

    def _complete(self):
        """Become the complete field of the wave; the local state is dropped."""
        self.components = velocity_field(self.wave, self.params).components
        self.wave = self.params = None
        self._lines = {}

    def _take_local(self, flat, lines, out):
        """Velocities at the raveled non-nodal cells `flat` into `out`, shape
        (D, *flat.shape); `lines` is `_lines_through(grid, flat)`."""
        for i, (line, pos) in enumerate(lines):
            if i not in self._lines:
                self._lines[i] = (np.full(self.nodal.size // self.grid.shape[i], -1),
                                  _NO_VELOCITIES)
            rows, vel = self._lines[i]
            at = rows[line]
            if at.min() < 0:
                rows, vel = self._add_lines(i, flat, line, pos, at < 0)
                at = rows[line]
            at += pos
            vel.take(at, out=out[i])

    def _add_lines(self, i, flat, line, pos, missing):
        """Evaluate the velocity along axis i on the lines through the
        `missing` entries of `flat`, and add them to the cache."""
        grid, params = self.grid, self.params
        n, stride = grid.shape[i], grid.strides[i]
        rows, vel = self._lines[i]
        new, first = np.unique(line[missing], return_index=True)
        base = (flat - pos * stride)[missing][first]
        amp = self.wave.amplitudes.reshape(-1).take(
            base[:, None] + stride * np.arange(n))
        grad = sfft.ifft(1j * grid.k_coords(i) * sfft.fft(amp, axis=1),
                         axis=1, overwrite_x=True)
        # nodal cells of a line divide by ~0; they are never read
        with np.errstate(all="ignore"):
            v = _guidance(params.hbar / params.masses[i], grad, amp)
        rows[new] = vel.size + n * np.arange(len(new))
        self._lines[i] = rows, np.concatenate([vel, v.reshape(-1)])
        return self._lines[i]


_NO_VELOCITIES = np.empty(0)


def _lines_through(grid, flat):
    """Per axis i, (line, position) of each raveled grid index in `flat`.

    The lines along axis i are numbered by the raveled index of the other
    axes; the position is the index along axis i.
    """
    out = []
    for n, stride in zip(grid.shape, grid.strides):
        outer, inner = np.divmod(flat, stride)
        outer, pos = np.divmod(outer, n)
        out.append((outer * stride + inner, pos))
    return out


@dataclass
class Trajectory:
    """Uniform-stride time series of one particle's configuration."""

    times: np.ndarray
    positions: np.ndarray  # shape (T, D)
    degenerate: bool = False


def _guidance(c, grad, amp):
    """The guidance law c * Im(grad / Psi), c = hbar / m, at non-nodal cells."""
    return c * np.imag(grad / amp)


def _params_for(psi, params):
    """`params`, or unit masses and hbar on the wave's axes when None."""
    if params is None:
        return PhysicalParams(masses=(1.0,) * psi.grid.dims)
    return params


def _nodal(amp):
    """Cells where |Psi| < EPS_NODE * max|Psi|; every cell of a zero wave."""
    absamp = np.abs(amp)
    peak = np.max(absamp)
    if peak == 0.0:
        return np.ones(absamp.shape, dtype=bool)
    return absamp < EPS_NODE * peak


def velocity_field(psi, params=None):
    """Spectral guidance velocity with nodal regularization.

    The ratio grad/Psi is taken only at non-nodal cells; nodal cells are
    then filled from their nearest non-nodal cell.  A wave that is nodal
    everywhere keeps hbar/m * Im(grad).
    """
    params = _params_for(psi, params)
    grid = psi.grid
    amp = psi.amplitudes
    nodal = _nodal(amp)
    live = np.flatnonzero(~nodal)
    any_nodal = live.size < nodal.size
    all_nodal = live.size == 0
    amp_live = amp.reshape(-1)[live]

    comps = np.empty((grid.dims,) + tuple(grid.shape))
    flat = comps.reshape(grid.dims, -1)
    for i in range(grid.dims):
        grad = sfft.ifft(1j * grid.k_mesh(i) * sfft.fft(amp, axis=i), axis=i,
                         overwrite_x=True)
        c = params.hbar / params.masses[i]
        if all_nodal:
            np.multiply(c, np.imag(grad), out=comps[i])
        else:
            flat[i, live] = _guidance(c, grad.reshape(-1)[live], amp_live)

    if any_nodal and not all_nodal:
        # fill nodal cells from the nearest non-nodal cell
        idx = distance_transform_edt(nodal, return_distances=False, return_indices=True)
        dead = np.flatnonzero(nodal)
        src = np.ravel_multi_index(
            tuple(idx[d].reshape(-1)[dead] for d in range(grid.dims)), grid.shape)
        del idx
        for i in range(grid.dims):
            flat[i, dead] = flat[i, src]

    return VelocityField(grid, comps, nodal, psi.time,
                         any_nodal=any_nodal, all_nodal=all_nodal)


def local_field(psi, params=None):
    """The velocity field of `psi`, evaluated only where it is read.

    The nodal mask and its flags come from the whole wave, as in
    `velocity_field`, whose values the field reproduces bit for bit.
    """
    nodal = _nodal(psi.amplitudes)
    return VelocityField(psi.grid, None, nodal, psi.time,
                         any_nodal=bool(nodal.any()),
                         all_nodal=bool(nodal.all()), wave=psi,
                         params=_params_for(psi, params))


def group_field(psi, params, n):
    """The velocity field that a group of `n` particles reads.

    Where the group's stencils touch fewer cells than the shortest axis
    holds, on a grid of two or more dimensions, that is a probe-local field;
    otherwise the complete one.
    """
    grid = psi.grid
    if grid.dims > 1 and n * 2 ** grid.dims < min(grid.shape):
        return local_field(psi, params)
    return velocity_field(psi, params)


def interp_stencil(grid, pts):
    """Multilinear interpolation stencil for wrapped points of shape (M, D).

    Returns (flat, weights), both of shape (2**D, M): row c is the corner
    that takes the upper neighbour along axis i where bit i of c is set,
    `flat` its index into the raveled grid and `weights` its weight.
    """
    los, dxs, shape, strides = grid._stencil_arrays
    u = (pts - los) / dxs
    f = np.floor(u)
    frac = (u - f).T
    lo = np.mod(f.astype(np.int64), shape)
    hi = lo + 1
    hi[hi == shape] = 0
    lo, hi = (lo * strides).T, (hi * strides).T
    flat = np.concatenate([lo[:1], hi[:1]])
    w = np.concatenate([1.0 - frac[:1], frac[:1]])
    for i in range(1, grid.dims):
        flat = np.concatenate([flat + lo[i], flat + hi[i]])
        w = np.concatenate([w * (1.0 - frac[i]), w * frac[i]])
    return flat, w


def _interp(fields, flat, w):
    """Interpolate velocity fields that share one grid at one stencil.

    A probe-local field evaluates the lines the stencil needs, or first
    becomes complete when one of the stencil's corners is nodal.

    Returns (values, nodal): values of shape (L, M, D), one (M, D) block per
    field, and the nodal flags of every stencil corner, shape (L, 2**D, M).
    Corners are accumulated in stencil order; another order changes the
    last bits of the result.
    """
    D = fields[0].grid.dims
    vals = np.empty((len(fields), D) + flat.shape)
    nodal = np.empty((len(fields),) + flat.shape, dtype=bool)
    lines = None
    for k, vf in enumerate(fields):
        vf.nodal.reshape(-1).take(flat, out=nodal[k])
        if vf.components is None and nodal[k].any():
            vf._complete()
        if vf.components is None:
            if lines is None:
                lines = _lines_through(vf.grid, flat)
            vf._take_local(flat, lines, vals[k])
        else:
            vf.components.reshape(D, -1).take(flat, axis=1, out=vals[k])
    out = np.zeros(vals.shape[:2] + vals.shape[3:])
    for c in range(len(w)):
        out += w[c] * vals[:, :, c]
    return out.transpose(0, 2, 1), nodal


def velocity_at_many(vfield, pts, return_inside=False):
    """Interpolated velocities at points (M, D); also flags nodal stencils.

    Returns (velocities, touched) where `touched` marks points whose stencil
    includes at least one nodal cell; with return_inside, additionally returns
    the mask of points whose entire stencil is nodal.
    """
    grid = vfield.grid
    flat, w = interp_stencil(grid, grid.wrap(np.atleast_2d(pts)))
    (out,), (nodal,) = _interp((vfield,), flat, w)
    touched = nodal.any(axis=0)
    if return_inside:
        return out, touched, nodal.all(axis=0)
    return out, touched


def velocity_at(vfield, X):
    """Velocity at one configuration (one coordinate per axis)."""
    v, _ = velocity_at_many(vfield, np.asarray(X, dtype=float)[None, :])
    return tuple(v[0])


def _sample(vf0, vf1, pts):
    """Both snapshots' velocities at points (M, D), from one shared stencil.

    Returns (a, b, touched, inside): the velocities of vf0 and vf1, the
    points whose stencil touches a nodal cell at either time level, and the
    points whose entire stencil is nodal at both.
    """
    grid = vf0.grid
    flat, w = interp_stencil(grid, grid.wrap(pts))
    (a, b), nodal = _interp((vf0, vf1), flat, w)
    return a, b, nodal.any(axis=(0, 1)), nodal.all(axis=(0, 1))


def _rk4_many(vf0, vf1, pts, dt, f0=0.0, f1=1.0, first=None):
    """Vectorized RK4 for dX/dt = v(X, t), v linearly interpolated in time.

    The step covers the fraction [f0, f1] of the interval between the two
    velocity-field snapshots; `first`, if given, is `_sample` at `pts`.
    Returns (new positions, degenerate mask).
    """
    grid = vf0.grid

    def eval_v(sample, frac):
        a, b, touched, inside = sample
        v = (1.0 - frac) * a + frac * b
        if np.any(touched):
            cap = min(grid.dxs) / dt
            speed = np.sqrt(np.sum(v * v, axis=1))
            over = touched & (speed > cap)
            if np.any(over):
                v[over] *= (cap / speed[over])[:, None]
        return v, inside

    fm = 0.5 * (f0 + f1)
    if first is None:
        first = _sample(vf0, vf1, pts)
    k1, deep = eval_v(first, f0)
    k2, _ = eval_v(_sample(vf0, vf1, pts + 0.5 * dt * k1), fm)
    k3, _ = eval_v(_sample(vf0, vf1, pts + 0.5 * dt * k2), fm)
    k4, _ = eval_v(_sample(vf0, vf1, pts + dt * k3), f1)
    new = pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # a particle whose entire stencil is nodal at both time levels sits in a
    # region the regularization cannot resolve: freeze and flag it
    degen = deep.copy()
    if vf0.all_nodal or vf1.all_nodal:
        degen[:] = True
    if np.any(degen):
        new[degen] = pts[degen]
    return grid.wrap(new), degen


SUBSTEP_CFL = 0.2       # max fraction of a cell traversed per substep
MAX_SUBSTEPS = 256
_NAN_MSG = "NaN in trajectory output; regularization failed"


def gate_kick(grid, pts, coupling, t0, t1):
    """Half the displacement due to a momentum coupling g * x_src * p_tgt.

    That Hamiltonian term adds g * x_src to the target-axis probability
    current, on top of the phase-gradient velocity; over [t0, t1] it
    translates the target coordinate by g * tau * x_src (tau = overlap with
    the gate window).  Callers apply it before and after the field-guided
    step to keep the splitting symmetric.
    """
    if coupling is None or coupling.strength == 0.0:
        return pts
    tau = _overlap(coupling.t_on, coupling.t_off, t0, t1)
    if tau <= 0.0:
        return pts
    pts = pts.copy()
    pts[:, coupling.target_axis] += (0.5 * coupling.strength * tau
                                     * pts[:, coupling.source_axis])
    return grid.wrap(pts)


def advance_interval(vf0, vf1, pts, dt):
    """Advance particles over one snapshot interval with adaptive substeps.

    Near wave nodes the guidance velocity is stiff (v ~ 1/|Psi|); a single
    RK4 step can overshoot through a node into the neighboring flow basin,
    which the exact dynamics forbids.  The substep count is chosen so no
    particle traverses more than SUBSTEP_CFL of a cell per substep at the
    currently observed speeds, at most MAX_SUBSTEPS; a capped interval logs
    a warning.  The speeds observed at `pts` are also the first substep's
    first RK4 stage.  A non-finite position or speed raises RuntimeError.
    """
    if not np.isfinite(pts).all():
        raise RuntimeError(_NAN_MSG)
    first = _sample(vf0, vf1, pts)
    va, vb = first[:2]
    vmax = float(np.maximum(np.max(np.abs(va)), np.max(np.abs(vb))))
    if not math.isfinite(vmax):
        raise RuntimeError(_NAN_MSG)
    need = int(np.ceil(vmax * dt / (SUBSTEP_CFL * min(vf0.grid.dxs))))
    n = min(max(need, 1), MAX_SUBSTEPS)
    if need > MAX_SUBSTEPS:
        log.warning("substep cap: interval of dt=%g needs %d substeps, "
                    "capped at %d", dt, need, MAX_SUBSTEPS)
    degen_any = np.zeros(len(pts), dtype=bool)
    for k in range(n):
        pts, degen = _rk4_many(vf0, vf1, pts, dt / n, f0=k / n,
                               f1=(k + 1) / n, first=first)
        first = None
        degen_any |= degen
    return pts, degen_any


def advance_group(vf0, vf1, pts, frozen, coupling, t0, t1):
    """Advance a particle group over [t0, t1] between two velocity fields.

    Half the gate kick, the adaptive interval, the other half kick.  A
    particle flagged degenerate joins `frozen` (updated in place); frozen
    particles stay where they were at t0.  Returns the new positions.
    """
    grid = vf0.grid
    kicked = gate_kick(grid, pts, coupling, t0, t1)
    new, degen = advance_interval(vf0, vf1, kicked, t1 - t0)
    new = gate_kick(grid, new, coupling, t0, t1)
    frozen |= degen
    new[frozen] = pts[frozen]
    return new


def simulate_trajectory(record, x0):
    """Integrate one particle through an EvolutionRecord's snapshots."""
    return simulate_trajectories(record, np.asarray(x0, float)[None, :])[0]


def simulate_trajectories(record, x0s, stride=1):
    """Integrate many particles at once (shared velocity fields).

    x0s: array (N, D) of initial configurations at record.times[0].
    Returns a list of Trajectory, one per particle, on the strided time axis;
    the guidance step is the snapshot spacing times `stride`.
    """
    n_snap = len(record.snapshots)
    idxs = list(range(0, n_snap, stride))
    if idxs[-1] != n_snap - 1:
        idxs.append(n_snap - 1)

    pts = record.grid.wrap(np.atleast_2d(np.asarray(x0s, dtype=float)))
    frozen = np.zeros(len(pts), dtype=bool)
    path = [pts]
    vf0 = group_field(record.wave_at(idxs[0]), record.params, len(pts))
    for a, b in zip(idxs[:-1], idxs[1:]):
        vf1 = group_field(record.wave_at(b), record.params, len(pts))
        pts = advance_group(vf0, vf1, pts, frozen, record.hamiltonian.coupling,
                            record.times[a], record.times[b])
        path.append(pts)
        vf0 = vf1

    times = record.times[idxs]
    path = np.asarray(path)  # (T, N, D)
    return [Trajectory(times, path[:, j, :], bool(frozen[j]))
            for j in range(path.shape[1])]

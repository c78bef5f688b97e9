"""Bohmian layer: velocity fields, interpolation, trajectory integration.

The guidance law is the standard de Broglie-Bohm form

    v_i = Im( d_i Psi / Psi ) / m_i

in units where ħ = 1, with the gradient evaluated spectrally.  Cells where
|Psi| drops below EPS_NODE * max|Psi| are flagged nodal; their velocity is
filled from the nearest non-nodal cell and, when a query stencil touches a
nodal cell during stepping, the speed is capped at dx/dt for that step.

A group of one particle (`group_field`) reads a probe-local field instead
of a complete one.  It holds the wave and the nodal mask, and evaluates the
velocity only at the stencil corners the particle reads: the spectral
derivative of each grid line through such a corner is taken once, batched
per axis (`_add_lines`), and cached on the field in a dict per axis, keyed
by the raveled index of the line's first cell.  Line by line the transforms
are bitwise those of the full axis, so the values are the complete field's;
on a 1-D grid the one line is the whole axis.  When a requested corner is
nodal, the field builds the complete `velocity_field` once, global
nearest-cell fill included, and reads from it from then on.  A probe-local
field has one reader, the one-particle kernel's `_read_corners`, which
`velocity_at_many` also uses on such a field, point by point; the
vectorized reader `_sampler` completes a probe-local field before it reads
one.

`advance_interval` advances a group of two or more particles with numpy
arrays (`_advance_many`), reading both fields from one padded `_sampler`
table per interval.  A group of exactly one particle, as every probe
is, runs a kernel on Python floats (`_advance_one`) that skips numpy's
per-call cost and touches numpy only to read the fields: `.item()` on a
field's nodal mask and a complete field's components, and `_add_lines` for
the lines a probe-local field lacks, whose cache holds Python lists.  The
kernel repeats the vectorized path's IEEE operations in the same order, so
both give the same bits:
  - `Grid.wrap` at every stage: x - lo, `np.mod` only outside [0, L), + lo;
  - the stencil: u = (x - lo) / dx, f = floor(u), frac = u - f; bit i of
    corner c selects the upper neighbour on axis i (the kernel's integer
    `mod` and the table's padding find the same cell), and a corner's weight
    is the product of its axes' weights in axis order;
  - each component accumulated from 0.0 in corner order;
  - the time blend (1 - f) * a + f * b;
  - the nodal speed cap: speed = sqrt(((0 + v0^2) + v1^2) ...), then
    v * (cap / speed);
  - the RK4 sum ((k1 + 2 k2) + 2 k3) + k4, and the freeze of a particle
    whose stencil is nodal everywhere at both time levels.
A reordering there changes last bits, which a position update can absorb;
tests compare the kernel's samples with the table's directly.  Where a
stage point is not finite, the kernel raises RuntimeError at once, and the
vectorized path at the end of the interval.
"""

import logging
import math
from dataclasses import dataclass, field
from itertools import repeat

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
    the wave and its parameters, and in `_lines[i]` the grid lines along
    axis i read so far, each line's velocities as a list keyed by the
    raveled index of its first cell.
    """

    grid: object
    components: np.ndarray
    nodal: np.ndarray
    time: float = 0.0
    all_nodal: bool = False
    wave: object = field(default=None, repr=False)
    params: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.components is not None:
            self.components = np.asarray(self.components, dtype=float)
        self._lines = [{} for _ in range(self.grid.dims)]

    def _complete(self):
        """Become the complete field of the wave; the local state is dropped."""
        self.components = velocity_field(self.wave, self.params).components
        self.wave = self.params = self._lines = None

    def _add_lines(self, i, starts):
        """Evaluate the velocity along axis i on the grid lines whose first
        cells have the raveled indices `starts`, and add them to `_lines[i]`."""
        grid, params = self.grid, self.params
        n, stride = grid.shape[i], grid.strides[i]
        starts = sorted(starts)
        amp = self.wave.amplitudes.reshape(-1).take(
            np.array(starts)[:, None] + stride * np.arange(n))
        grad = sfft.ifft(1j * grid.k_coords(i) * sfft.fft(amp, axis=1),
                         axis=1, overwrite_x=True)
        # nodal cells of a line divide by ~0; they are never read
        with np.errstate(all="ignore"):
            v = _guidance(1.0 / params.masses[i], grad, amp)
        self._lines[i].update(zip(starts, v.tolist()))


@dataclass
class Trajectory:
    """Uniform-stride time series of one particle's configuration."""

    times: np.ndarray
    positions: np.ndarray  # shape (T, D)
    degenerate: bool = False


def _guidance(c, grad, amp):
    """The guidance law c * Im(grad / Psi), c = 1 / m, at non-nodal cells."""
    return c * np.imag(grad / amp)


def _params_for(psi, params):
    """`params`, or unit masses on the wave's axes when None."""
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
    everywhere keeps Im(grad)/m.
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
        c = 1.0 / params.masses[i]
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

    return VelocityField(grid, comps, nodal, psi.time, all_nodal=all_nodal)


def local_field(psi, params=None):
    """The velocity field of `psi`, evaluated only where it is read.

    The nodal mask and its flag come from the whole wave, as in
    `velocity_field`, whose values the field reproduces bit for bit.
    """
    nodal = _nodal(psi.amplitudes)
    return VelocityField(psi.grid, None, nodal, psi.time,
                         all_nodal=bool(nodal.all()), wave=psi,
                         params=_params_for(psi, params))


def group_field(psi, params, n):
    """The velocity field that a group of `n` particles reads.

    A single particle (a probe) reads a probe-local field; any other group
    the complete one.
    """
    if n == 1:
        return local_field(psi, params)
    return velocity_field(psi, params)


def _sampler(fields):
    """A reader of velocity fields that share one grid, through one table.

    The table stacks the fields' components, padded periodically by two
    cells at the upper end of each axis: u = (x - lo) / dx of a wrapped point
    may round to n, so a stencil's lower corner f on an axis lies in [0, n],
    and its upper one is f + 1.  Two flags per lower corner mark stencils
    with some corner nodal in some field (`touched`) and every corner nodal
    in every field (`inside`).  A probe-local field becomes complete first.

    Returns read(x): for points x of shape (D, M), each field's velocity,
    shape (L, D, M), and each point's `touched` and `inside` flags.
    """
    grid = fields[0].grid
    D = grid.dims
    for vf in fields:
        if vf.components is None:
            vf._complete()
    pad = ((0, 0),) + ((0, 2),) * D
    values = np.pad(np.concatenate([vf.components for vf in fields]), pad,
                    mode="wrap")
    nodal = np.pad(np.stack([vf.nodal for vf in fields]), pad, mode="wrap")
    strides = [s // values.itemsize for s in values[0].strides]
    # corner c takes the upper neighbour along axis i where bit i is set
    bits = [[(c >> i) & 1 for i in range(D)] for c in range(1 << D)]
    offsets = [int(np.dot(b, strides)) for b in bits]
    corners = np.stack([nodal[(slice(None),) + tuple(
        slice(k, k + n + 1) for k, n in zip(b, grid.shape))] for b in bits])
    touched, inside = (np.pad(a, ((0, 1),) * D).reshape(-1) for a in (
        corners.any(axis=(0, 1)), corners.all(axis=(0, 1))))
    values = values.reshape(len(values), -1)
    los, dxs = (a[:, None] for a in grid._stencil_arrays[:2])
    shape = (len(fields), D)

    def read(x):
        u = grid.wrap(x.T).T
        u -= los
        u /= dxs
        f = np.floor(u)
        frac = np.subtract(u, f, out=u)
        rest = 1.0 - frac
        f = f.astype(np.int64)
        low = f[-1]
        for i in range(D - 1):
            low = low + f[i] * strides[i]
        w = [rest[0], frac[0]]
        for i in range(1, D):
            w = [c * rest[i] for c in w] + [c * frac[i] for c in w]
        # corners accumulate from 0.0 in stencil order, as the kernel does
        out = np.zeros((len(values), x.shape[1]))
        corner = np.empty_like(out)
        for c, off in zip(w, offsets):
            values.take(low + off, axis=1, out=corner, mode="clip")
            corner *= c
            out += corner
        return (out.reshape(shape + out.shape[1:]),
                touched.take(low, mode="clip"), inside.take(low, mode="clip"))

    return read


def velocity_at_many(vfield, pts):
    """Interpolated velocities at points (M, D); also flags nodal stencils.

    Returns (velocities, touched) where `touched` marks points whose stencil
    includes at least one nodal cell.  A probe-local field is read point by
    point through the one-particle kernel's reader, so it evaluates only the
    lines the stencils need, as when a probe reads it.
    """
    grid = vfield.grid
    pts = np.atleast_2d(pts)
    if vfield.components is None:
        g = _grid_lists(grid)
        read = [_interp_one(vfield, *_stencil_one(g, _wrap_one(g, x)))
                for x in pts.tolist()]
        return (np.array([v for v, _ in read]).reshape(-1, grid.dims),
                np.array([any(nodal) for _, nodal in read], dtype=bool))
    (out,), touched, _ = _sampler((vfield,))(
        np.ascontiguousarray(pts.T, dtype=float))
    return out.T, touched


def _velocity(sample, frac, cap):
    """A stage's velocities (D, M): the time blend and the nodal speed cap."""
    (a, b), touched, _ = sample
    v = (1.0 - frac) * a + frac * b
    if touched.any():
        speed = np.sqrt(np.sum(v * v, axis=0))
        over = touched & (speed > cap)
        if over.any():
            v[:, over] *= cap / speed[over]
    return v


SUBSTEP_CFL = 0.2       # max fraction of a cell traversed per substep
MAX_SUBSTEPS = 256
_NAN_MSG = "NaN in trajectory output; regularization failed"


def _substeps(vmax, dt, grid):
    """Substeps for an interval of length dt at the fastest speed vmax: so
    many that no particle crosses more than SUBSTEP_CFL of a cell in one,
    at most MAX_SUBSTEPS (a capped interval logs a warning)."""
    need = math.ceil(vmax * dt / (SUBSTEP_CFL * min(grid.dxs)))
    if need > MAX_SUBSTEPS:
        log.warning("substep cap: interval of dt=%g needs %d substeps, "
                    "capped at %d", dt, need, MAX_SUBSTEPS)
    return min(max(need, 1), MAX_SUBSTEPS)


# One particle: the operations of `Grid.wrap`, `_sampler` and
# `_advance_many` on Python floats, in the same order, so that the path is
# bitwise the one the vectorized code computes for a group of one.

def _wrap_one(g, x):
    """`Grid.wrap` of one point x (a list of floats); g is `_grid_lists`.

    A non-finite coordinate raises RuntimeError: the stencil's `floor`
    could not take it.
    """
    out = []
    for xi, lo, length in zip(x, g[0], g[4]):
        y = xi - lo
        if not 0.0 <= y < length:
            if not math.isfinite(y):
                raise RuntimeError(_NAN_MSG)
            y = float(np.mod(y, length))
        out.append(y + lo)
    return out


def _grid_lists(grid):
    """los, dxs, shape, strides and lengths of `grid` as lists of Python
    numbers."""
    return ([a.tolist() for a in grid._stencil_arrays]
            + [grid._wrap_arrays[1].tolist()])


def _stencil_one(g, x):
    """The stencil of one wrapped point x: per corner, in `_sampler`'s
    order, its raveled index, its weight and its index along each axis."""
    flat, w, index = [0], [1.0], [()]
    for xi, lo, dx, n, stride in zip(x, *g[:4]):
        u = (xi - lo) / dx
        f = math.floor(u)
        frac = u - f
        lo_i = f % n
        hi_i = lo_i + 1 if lo_i + 1 < n else 0
        flat = [q + lo_i * stride for q in flat] + [q + hi_i * stride for q in flat]
        w = [c * (1.0 - frac) for c in w] + [c * frac for c in w]
        index = [t + (lo_i,) for t in index] + [t + (hi_i,) for t in index]
    return flat, w, index


def _read_corners(vf, flat, index):
    """The velocity components of `vf` at one stencil's corners, one list
    per axis, and the corners' nodal flags.

    A probe-local field completes on a nodal corner and reads its line
    cache otherwise.
    """
    nodal = [vf.nodal.item(q) for q in flat]
    if vf.components is None and any(nodal):
        vf._complete()
    if vf.components is not None:
        comps, size = vf.components, vf.nodal.size
        return [[comps.item(d * size + q) for q in flat]
                for d in range(vf.grid.dims)], nodal
    vals = []
    for i, (lines, stride) in enumerate(zip(vf._lines, vf.grid.strides)):
        # a corner's line along axis i starts its index on axis i strides
        # before it, and the corner is that index's entry of the line
        pos = [t[i] for t in index]
        starts = [q - p * stride for q, p in zip(flat, pos)]
        missing = set(starts).difference(lines)
        if missing:
            vf._add_lines(i, missing)
        vals.append([lines[s][p] for s, p in zip(starts, pos)])
    return vals, nodal


def _interp_one(vf, flat, w, index):
    """One field at one stencil of `_stencil_one`: the velocity as a list of
    floats, and the corners' nodal flags."""
    vals, nodal = _read_corners(vf, flat, index)
    v = []
    for comp in vals:
        acc = 0.0
        for c, val in zip(w, comp):
            acc += c * val
        v.append(acc)
    return v, nodal


def _sample_one(vf0, vf1, g, x):
    """Both fields at one point x, as `_sampler` reads them: (a, b, touched,
    inside)."""
    flat, w, index = _stencil_one(g, _wrap_one(g, x))
    a, nodal0 = _interp_one(vf0, flat, w, index)
    b, nodal1 = _interp_one(vf1, flat, w, index)
    nodal = nodal0 + nodal1
    return a, b, any(nodal), all(nodal)


def _velocity_one(sample, frac, cap):
    """`_velocity` of one particle."""
    a, b, touched, _ = sample
    v = [(1.0 - frac) * p + frac * q for p, q in zip(a, b)]
    if touched:
        speed = 0.0
        for c in v:
            speed += c * c
        speed = math.sqrt(speed)
        if speed > cap:
            v = [c * (cap / speed) for c in v]
    return v


def _advance_one(vf0, vf1, pts, dt):
    """`advance_interval` for a group of one particle, pts of shape (1, D)
    and finite, on Python floats."""
    g = _grid_lists(vf0.grid)
    x, dt = pts[0].tolist(), float(dt)
    first = _sample_one(vf0, vf1, g, x)
    speeds = first[0] + first[1]
    if not all(map(math.isfinite, speeds)):
        raise RuntimeError(_NAN_MSG)
    n = _substeps(max(map(abs, speeds)), dt, vf0.grid)
    h = dt / n
    cap = min(vf0.grid.dxs) / h
    frozen = vf0.all_nodal or vf1.all_nodal
    degen_any = False
    for k in range(n):
        if k:
            first = _sample_one(vf0, vf1, g, x)
        f0, f1 = k / n, (k + 1) / n
        fm = 0.5 * (f0 + f1)
        k1 = _velocity_one(first, f0, cap)
        k2 = _velocity_one(_sample_one(
            vf0, vf1, g, [p + 0.5 * h * v for p, v in zip(x, k1)]), fm, cap)
        k3 = _velocity_one(_sample_one(
            vf0, vf1, g, [p + 0.5 * h * v for p, v in zip(x, k2)]), fm, cap)
        k4 = _velocity_one(_sample_one(
            vf0, vf1, g, [p + h * v for p, v in zip(x, k3)]), f1, cap)
        # a stencil nodal everywhere at both time levels freezes the particle
        degen = first[3] or frozen
        if not degen:
            x = [p + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for p, a, b, c, d in zip(x, k1, k2, k3, k4)]
        x = _wrap_one(g, x)
        degen_any = degen_any or degen
    return np.array([x]), np.array([degen_any])


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

    A group of one particle runs on Python floats (`_advance_one`), any
    larger group on numpy arrays (`_advance_many`); both give the same bits.
    """
    if not np.isfinite(pts).all():
        raise RuntimeError(_NAN_MSG)
    if len(pts) == 1:
        return _advance_one(vf0, vf1, pts, dt)
    return _advance_many(vf0, vf1, pts, dt)


def _advance_many(vf0, vf1, pts, dt):
    """`advance_interval` on numpy arrays: both fields read through one
    `_sampler`, and positions held as (D, M) inside the interval."""
    grid = vf0.grid
    read = _sampler((vf0, vf1))
    x = np.ascontiguousarray(pts.T)
    # a non-finite stage point reads a clipped corner; the end check raises
    with np.errstate(invalid="ignore"):
        first = read(x)
        vmax = float(np.max(np.abs(first[0])))
        if not math.isfinite(vmax):
            raise RuntimeError(_NAN_MSG)
        n = _substeps(vmax, dt, grid)
        h = dt / n
        cap = min(grid.dxs) / h
        frozen = vf0.all_nodal or vf1.all_nodal
        degen_any = np.zeros(x.shape[1], dtype=bool)
        for k in range(n):
            if k:
                first = read(x)
            f0, f1 = k / n, (k + 1) / n
            fm = 0.5 * (f0 + f1)
            k1 = _velocity(first, f0, cap)
            k2 = _velocity(read(x + 0.5 * h * k1), fm, cap)
            k3 = _velocity(read(x + 0.5 * h * k2), fm, cap)
            k4 = _velocity(read(x + h * k3), f1, cap)
            new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # a stencil nodal everywhere at both levels freezes the particle
            degen = first[2] | frozen
            if degen.any():
                new[:, degen] = x[:, degen]
            x = grid.wrap(new.T).T
            degen_any |= degen
    if not np.isfinite(x).all():
        raise RuntimeError(_NAN_MSG)
    return x.T, degen_any


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


def guided_walk(waves, params, coupling, x0s):
    """Advance particles from x0s (N, D) through a sequence of waves.

    The first wave is the particles' start; between each wave and the next
    the particles advance with `advance_group`, each wave read through its
    `group_field`.  Returns the waves' times, the paths (T, N, D) and the
    frozen flags (N,).
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    # map keeps no wave once its field is made, so a field that completes
    # frees its wave
    fields = map(group_field, waves, repeat(params), repeat(len(x0s)))
    vf0 = next(fields)
    pts = vf0.grid.wrap(x0s)
    frozen = np.zeros(len(pts), dtype=bool)
    times, path = [vf0.time], [pts]
    for vf1 in fields:
        pts = advance_group(vf0, vf1, pts, frozen, coupling, vf0.time,
                            vf1.time)
        times.append(vf1.time)
        path.append(pts)
        vf0 = vf1
    return np.asarray(times), np.asarray(path), frozen


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
    times, path, frozen = guided_walk(
        map(record.wave_at, idxs), record.params,
        record.hamiltonian.coupling, x0s)
    return [Trajectory(times, path[:, j, :], bool(frozen[j]))
            for j in range(path.shape[1])]

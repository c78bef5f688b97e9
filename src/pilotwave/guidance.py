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
(`_advance_many`) through one `_sampler` per interval, which blends the two
fields' padded rows (`VelocityField._table`, built once per field) once per
stage fraction f of the interval; a stage reads the one blend by a 1-D
`take` per corner.  Positions are one array per axis and each stage is
formed in place; only the interval's first read wraps the points it reads.
A group of one particle, as every probe is, runs on Python floats
(`_advance_one`) and touches numpy only to read the fields; per interval it
reads each field's stencil corners once and blends them once per f, in a
memo keyed by the stencil's lower corner.  Both kernels do the same IEEE
operations in the same order, so they give the same bits:
  - the wrap: y = x - lo, `np.mod` only outside [0, L) (L reads 0), + lo;
  - the stencil: u = (x - lo) / dx, frac = u - floor(u); bit i of
    corner c selects the upper neighbour on axis i, and a corner's weight
    is the product of its axes' weights in axis order;
  - the time blend of each corner, a * (1 - f) + b * f, and at f = 0 and
    f = 1 a field's own value; each component's blends weighted and summed
    over the corners in corner order;
  - the nodal speed cap: v * (cap / sqrt((v0^2 + v1^2) + ...));
  - the stage points x + (h / 2) k and x + h k, the RK4 sum
    x + (h / 6) (((k1 + 2 k2) + 2 k3) + k4), and the freeze of a particle
    whose stencil is nodal everywhere at both time levels.
A reordering there changes last bits; tests compare the kernels' samples.  A
non-finite stage point raises RuntimeError: at once in the one-particle
kernel, at the end of the interval in the other.
"""

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft as sfft
from scipy.ndimage import distance_transform_edt

from .fields import PhysicalParams, fold
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
        grad = sfft.ifft(grid._ik[i] * sfft.fft(amp, axis=1), axis=1,
                         overwrite_x=True)
        # nodal cells of a line divide by ~0; they are never read
        with np.errstate(all="ignore"):
            v = _guidance(1.0 / params.masses[i], grad, amp)
        self._lines[i].update(zip(starts, v.tolist()))

    @cached_property
    def _table(self):
        """The stencil table, built on the first vectorized read and kept:
        each component a flat row padded periodically by two cells at the
        upper end of each axis (u of a wrapped point may round to n), and
        per lower corner two flags: some (`touched`) or every (`inside`)
        corner nodal.  A probe-local field becomes complete first."""
        if self.components is None:
            self._complete()
        shape, D = self.grid.shape, self.grid.dims
        pad = ((0, 2),) * D
        nodal = np.pad(self.nodal, pad, mode="wrap")
        corners = np.stack([nodal[tuple(slice(k, k + n + 1) for k, n in zip(
            bit, shape))] for bit in np.ndindex((2,) * D)])
        touched, inside = (np.pad(a, ((0, 1),) * D).reshape(-1) for a in (
            corners.any(axis=0), corners.all(axis=0)))
        return ([np.pad(c, pad, mode="wrap").reshape(-1)
                 for c in self.components], touched, inside)


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


def _sampler(vf0, vf1):
    """A reader of the velocity between two fields on one grid, at time
    fractions f of their interval.  The pair's flags join the fields' own
    (`_table`): `touched` by |, `inside` by &.  The rows at f are field 0's
    (f = 0), field 1's (f = 1), or the blend a * (1 - f) + b * f of each
    cell, kept until another f is read; a row is read by a 1-D `take` from
    each corner's offset.

    Returns read and `inside`: read(xs, fracs, wrap=True), for points as one
    array per axis (wrapped already if not `wrap`), gives the velocity at
    each fraction of `fracs` as one array per axis, all through one
    stencil, each point's `touched` flag and its stencil's lower corner, the
    index into `inside`.
    """
    (rows0, touched, inside), (rows1, touched1, inside1) = (vf0._table,
                                                            vf1._table)
    if vf1 is not vf0:
        touched, inside = touched | touched1, inside & inside1
    padded = [n + 2 for n in vf0.grid.shape]
    # corner c takes the upper neighbour along axis i where bit i is set
    offsets = [sum(((c >> i) & 1) * math.prod(padded[i + 1:])
                   for i in range(len(padded))) for c in range(1 << len(padded))]
    los, dxs, _, _, lengths = vf0.grid._stencil_lists

    def viewed(rows):
        return [[row[off:] for off in offsets] for row in rows]

    levels = raw = {0.0: viewed(rows0), 1.0: viewed(rows1)}

    def rows_at(f):
        nonlocal levels
        if f not in levels:
            levels = {**raw, f: viewed([a * (1.0 - f) + b * f
                                        for a, b in zip(rows0, rows1)])}
        return levels[f]

    def read(xs, fracs, wrap=True):
        for i, (x, lo, dx, length) in enumerate(zip(xs, los, dxs, lengths)):
            u = x - lo
            if wrap:
                fold(u, length)
                u += lo
                u -= lo
            u /= dx
            f = np.floor(u)
            frac = np.subtract(u, f, out=u)
            rest = 1.0 - frac
            if i:
                low = low * padded[i] + f
                w = [c * rest for c in w] + [c * frac for c in w]
            else:
                low, w = f, [rest, frac]
        low = low.astype(np.intp)
        # each component is summed over the corners in stencil order
        out = []
        for f in fracs:
            vals = []
            for views in rows_at(f):
                acc = views[0].take(low, mode="clip")
                acc *= w[0]
                for c, view in zip(w[1:], views[1:]):
                    corner = view.take(low, mode="clip")
                    acc += np.multiply(corner, c, out=corner)
                vals.append(acc)
            out.append(vals)
        return out, touched.take(low, mode="clip"), low

    return read, inside


def velocity_at_many(vfield, pts):
    """Interpolated velocities at points (M, D); also flags nodal stencils.

    Returns (velocities, touched) where `touched` marks points whose stencil
    includes at least one nodal cell.  A probe-local field is read point by
    point through the one-particle kernel's reader, so it evaluates only the
    lines the stencils need, as when a probe reads it.
    """
    grid = vfield.grid
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if vfield.components is None:
        g, memo = grid._stencil_lists, {}
        read = [_sample_one(vfield, vfield, memo, g, _wrap_one(g, x), (0.0,))
                for x in pts.tolist()]
        return (np.array([v for (v,), _, _ in read]).reshape(-1, grid.dims),
                np.array([touched for _, touched, _ in read], dtype=bool))
    read, _ = _sampler(vfield, vfield)
    (out,), touched, _ = read(list(pts.T), (0.0,))
    return np.stack(out, axis=1), touched


def _velocity(sample, cap):
    """A stage's velocities: the sample's first level, one array per axis,
    with the nodal speed cap applied in place (counted in `speed_caps`)."""
    global speed_caps
    (v, *_), touched, _ = sample
    if touched.any():
        speed = np.sqrt(sum(c * c for c in v))
        over = touched & (speed > cap)
        if over.any():
            speed_caps += int(np.count_nonzero(over))
            for c in v:
                c[over] *= cap / speed[over]
    return v


SUBSTEP_CFL = 0.2       # max fraction of a cell traversed per substep
MAX_SUBSTEPS = 256
substep_caps = speed_caps = frozen_particles = 0  # clamps since import
_NAN_MSG = "NaN in trajectory output; regularization failed"


def _substeps(vmax, dt, grid):
    """Substeps for an interval of length dt at the fastest speed vmax: so
    many that no particle crosses more than SUBSTEP_CFL of a cell in one,
    at most MAX_SUBSTEPS (a capped interval is counted in `substep_caps`
    and logs a warning)."""
    global substep_caps
    need = math.ceil(vmax * dt / (SUBSTEP_CFL * min(grid.dxs)))
    if need > MAX_SUBSTEPS:
        substep_caps += 1
        log.warning("substep cap: interval of dt=%g needs %d substeps, "
                    "capped at %d", dt, need, MAX_SUBSTEPS)
    return min(max(need, 1), MAX_SUBSTEPS)


# One particle: the operations of `Grid.wrap`, `_sampler` and
# `_advance_many` on Python floats, in the same order, so that the path is
# bitwise the one the vectorized code computes for a group of one.

def _wrap_one(g, x):
    """`Grid.wrap` of one point x (a list of floats); g: `_stencil_lists`.

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
            y = 0.0 if y == length else y
        out.append(y + lo)
    return out


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


def _sample_one(vf0, vf1, memo, g, x, fracs):
    """The pair at one wrapped point x as `_sampler` reads it: (levels,
    touched, nodal), with the stencil's corner flags in both fields, whose
    `all` is `_sampler`'s `inside`.  `memo` holds, per stencil's lower
    corner, its flags and its corners' values at each f read so far."""
    flat, w, index = _stencil_one(g, x)
    if flat[0] not in memo:
        a, nodal0 = _read_corners(vf0, flat, index)
        b, nodal1 = (a, nodal0) if vf1 is vf0 else _read_corners(vf1, flat,
                                                                 index)
        memo[flat[0]] = nodal0 + nodal1, {0.0: a, 1.0: b}
    nodal, corners = memo[flat[0]]
    levels = []
    for f in fracs:
        if f not in corners:
            corners[f] = [[p * (1.0 - f) + q * f for p, q in zip(pc, qc)]
                          for pc, qc in zip(corners[0.0], corners[1.0])]
        v = []
        for comp in corners[f]:
            acc = w[0] * comp[0]
            for j in range(1, len(w)):
                acc += w[j] * comp[j]
            v.append(acc)
        levels.append(v)
    return levels, any(nodal), nodal


def _velocity_one(sample, cap):
    """`_velocity` of one particle."""
    global speed_caps
    (v, *_), touched, _ = sample
    if touched:
        speed = 0.0
        for c in v:
            speed += c * c
        speed = math.sqrt(speed)
        if speed > cap:
            speed_caps += 1
            v = [c * (cap / speed) for c in v]
    return v


def _advance_one(vf0, vf1, pts, dt):
    """`advance_interval` for a group of one particle, pts of shape (1, D)
    and finite, on Python floats."""
    g = vf0.grid._stencil_lists
    x, dt = pts[0].tolist(), float(dt)
    memo = {}

    def stage(point, f):
        return _velocity_one(_sample_one(vf0, vf1, memo, g, _wrap_one(g, point),
                                         (f,)), cap)

    first = _sample_one(vf0, vf1, memo, g, _wrap_one(g, x), (0.0, 1.0))
    speeds = first[0][0] + first[0][1]
    if not all(map(math.isfinite, speeds)):
        raise RuntimeError(_NAN_MSG)
    n = _substeps(max(map(abs, speeds)), dt, vf0.grid)
    h = dt / n
    hh = 0.5 * h
    cap = min(vf0.grid.dxs) / h
    frozen = vf0.all_nodal or vf1.all_nodal
    degen_any = False
    for k in range(n):
        f0, f1 = k / n, (k + 1) / n
        fm = 0.5 * (f0 + f1)
        if k:  # x is wrapped
            first = _sample_one(vf0, vf1, memo, g, x, (f0,))
        k1 = _velocity_one(first, cap)
        k2 = stage([p + hh * v for p, v in zip(x, k1)], fm)
        k3 = stage([p + hh * v for p, v in zip(x, k2)], fm)
        k4 = stage([p + h * v for p, v in zip(x, k3)], f1)
        # a stencil nodal everywhere at both time levels freezes the particle
        degen = frozen or all(first[2])
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
    currently observed speeds, at most MAX_SUBSTEPS; a capped interval is
    counted and logs a warning.  The speeds observed at `pts` are also the first substep's
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
    """`advance_interval` on numpy arrays, positions held as one array per
    axis inside the interval."""
    grid = vf0.grid
    los, _, _, _, lengths = grid._stencil_lists
    read, inside = _sampler(vf0, vf1)
    x = [np.array(c) for c in pts.T]
    # a non-finite stage point reads a clipped corner; the end check raises
    with np.errstate(invalid="ignore"):
        first = read(x, (0.0, 1.0))
        peaks = [float(np.max(np.abs(c))) for level in first[0] for c in level]
        if not all(map(math.isfinite, peaks)):
            raise RuntimeError(_NAN_MSG)
        n = _substeps(max(peaks), dt, grid)
        h = dt / n
        hh, h6 = 0.5 * h, h / 6.0
        cap = min(grid.dxs) / h
        frozen = vf0.all_nodal or vf1.all_nodal
        degen_any = np.zeros(len(pts), dtype=bool)

        for k in range(n):
            f0, f1 = k / n, (k + 1) / n
            fm = 0.5 * (f0 + f1)
            if k:
                first = read(x, (f0,), wrap=False)
            k1 = _velocity(first, cap)
            k2 = _velocity(read([c * hh + p for p, c in zip(x, k1)], (fm,)), cap)
            k3 = _velocity(read([c * hh + p for p, c in zip(x, k2)], (fm,)), cap)
            k4 = _velocity(read([c * h + p for p, c in zip(x, k3)], (f1,)), cap)
            # a stencil nodal everywhere at both levels freezes the particle
            degen = inside.take(first[2], mode="clip") | frozen
            for i, (p, a, b, c, d) in enumerate(zip(x, k1, k2, k3, k4)):
                # the new point, wrapped, formed in place of k2
                b *= 2.0
                b += a
                b += np.multiply(c, 2.0, out=c)
                b += d
                b *= h6
                b += p
                np.copyto(b, p, where=degen)
                b -= los[i]
                fold(b, lengths[i])
                b += los[i]
                x[i] = b
            degen_any |= degen
    x = np.stack(x, axis=1)
    if not np.isfinite(x).all():
        raise RuntimeError(_NAN_MSG)
    return x, degen_any


def advance_group(vf0, vf1, pts, frozen, coupling, t0, t1):
    """Advance a particle group over [t0, t1] between two velocity fields.

    Half the gate kick, the adaptive interval, the other half kick.  A
    particle flagged degenerate joins `frozen` (updated in place; counted
    once in `frozen_particles`); frozen particles stay where they were at
    t0.  Returns the new positions.
    """
    global frozen_particles
    grid = vf0.grid
    kicked = gate_kick(grid, pts, coupling, t0, t1)
    new, degen = advance_interval(vf0, vf1, kicked, t1 - t0)
    new = gate_kick(grid, new, coupling, t0, t1)
    frozen_particles += int(np.count_nonzero(degen & ~frozen))
    frozen |= degen
    new[frozen] = pts[frozen]
    return new


def simulate_trajectory(record, x0):
    """Integrate one particle through an EvolutionRecord's snapshots."""
    return simulate_trajectories(record, np.asarray(x0, float)[None, :])[0]


class GuidedWalk:
    """Particles from x0s (N, D), guided through n waves' `group_field`s
    for N particles, fed one at a time.

    The first field is their start; each later one advances them from the
    one before with `advance_group`, and fills a row of `times` (n,) and
    `path` (n, N, D).  Only the last field is kept (a field that completes
    frees its wave; its `_table` serves the next interval too).  `frozen`
    (N,) flags frozen particles."""

    def __init__(self, coupling, x0s, n):
        self.coupling = coupling
        self.x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
        self.frozen = np.zeros(len(self.x0s), dtype=bool)
        self.times, self.path = np.empty(n), np.empty((n,) + self.x0s.shape)
        self._fed, self._field = 0, None

    def feed(self, vf1):
        """Advance to the field vf1; returns the positions (N, D) at its
        time."""
        vf0 = self._field
        k, self._field = self._fed, vf1
        if k == 0:
            pts = vf1.grid.wrap(self.x0s)
        else:
            pts = advance_group(vf0, vf1, self.path[k - 1], self.frozen,
                                self.coupling, vf0.time, vf1.time)
        self.times[k], self.path[k] = vf1.time, pts
        self._fed = k + 1
        return pts


def simulate_trajectories(record, x0s):
    """Integrate many particles at once (shared velocity fields).

    x0s: array (N, D) of initial configurations at record.times[0].
    Returns a list of Trajectory, one per particle, at every snapshot.
    """
    n = len(record.snapshots)
    walk = GuidedWalk(record.hamiltonian.coupling, x0s, n)
    for i in range(n):
        walk.feed(group_field(record.wave_at(i), record.params,
                              len(walk.frozen)))
    return [Trajectory(walk.times, walk.path[:, j, :], bool(walk.frozen[j]))
            for j in range(walk.path.shape[1])]

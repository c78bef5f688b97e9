"""Branch decomposition, interference, decoherence factor, conditional states.

A branch is the wave function multiplied by the indicator of a region mask on
a chosen axis subset; branches of one decomposition reconstruct the parent
exactly, so the density identity

    rho = sum_i |b_i|^2 + sum_{i<j} 2 Re(conj(b_i) b_j)

holds pointwise to rounding.  The decoherence factor r between two branches
is the normalized overlap of their conditional environment profiles; r -> 0
means the empty branch can no longer steer the particle.
"""

from dataclasses import dataclass

import numpy as np

from .fields import FieldError, WaveFunction, normalize
from .guidance import (
    Trajectory, interp_stencil, simulate_trajectories,
)

COVERAGE_TOL = 1e-6        # hard error if more probability mass is unmasked
SUPPORT_FLOOR = 1e-10      # branch support: density above this * its max


class BranchError(FieldError):
    pass


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Boolean region over a subset of axes, with a label."""

    axes: tuple
    array: np.ndarray  # bool, one axis per entry of `axes`
    label: str

    @staticmethod
    def from_array(axes, cells, label):
        return RegionMask(tuple(axes), np.asarray(cells, dtype=bool), label)


def halfspace_mask(grid, axis, threshold, side, label=None):
    """Mask of cells with coordinate < threshold ('below') or >= ('above')."""
    x = grid.axis_coords(axis)
    cells = x < threshold if side == "below" else x >= threshold
    if label is None:
        label = f"x{axis}{'<' if side == 'below' else '>='}{threshold:g}"
    return RegionMask.from_array((axis,), cells, label)


def interval_mask(grid, axis, lo, hi, label=None):
    x = grid.axis_coords(axis)
    cells = (x >= lo) & (x < hi)
    if label is None:
        label = f"x{axis}in[{lo:g},{hi:g})"
    return RegionMask.from_array((axis,), cells, label)


@dataclass
class Branch:
    """One wave-function component (not renormalized) with its mask label."""

    wave: WaveFunction
    label: str
    weight: float


def _indicator(grid, mask):
    """Mask broadcast to the full grid shape as float 0/1."""
    arr = mask.array.astype(float)
    if len(mask.axes) == 1:
        shp = [1] * grid.dims
        shp[mask.axes[0]] = grid.shape[mask.axes[0]]
        return arr.reshape(shp)
    # multi-axis masks: expand into full-rank array on the masked axes
    shp = [1] * grid.dims
    for a, n in zip(mask.axes, arr.shape):
        shp[a] = n
    order = np.argsort(mask.axes)
    arr = np.transpose(arr, order)
    return arr.reshape([grid.shape[a] if a in mask.axes else 1
                        for a in range(grid.dims)])


def decompose(psi, masks):
    """Split psi into branches by disjoint region masks.

    Errors on overlapping masks or if the probability mass left uncovered
    exceeds COVERAGE_TOL.
    """
    if not masks:
        raise BranchError("need at least one mask")
    axes = masks[0].axes
    if any(m.axes != axes for m in masks):
        raise BranchError("all masks of a decomposition must share one axis set")
    grid = psi.grid
    inds = [_indicator(grid, m) for m in masks]
    total = sum(inds)
    if np.any(total > 1.0 + 1e-12):
        raise BranchError("masks overlap")
    covered = sum(float(np.sum(np.abs(psi.amplitudes * ind) ** 2)) * grid.dV
                  for ind in inds)
    norm2 = float(np.sum(np.abs(psi.amplitudes) ** 2)) * grid.dV
    uncovered = norm2 - covered
    if uncovered > COVERAGE_TOL * max(norm2, 1e-300):
        raise BranchError(
            f"masks leave probability mass {uncovered:.3e} uncovered "
            f"(> {COVERAGE_TOL:g})")
    branches = []
    for m, ind in zip(masks, inds):
        amp = psi.amplitudes * ind
        w = float(np.sum(np.abs(amp) ** 2)) * grid.dV
        branches.append(Branch(WaveFunction(grid, amp, psi.time), m.label, w))
    return branches


def interference_term(b1, b2):
    """Pointwise 2 Re(conj(Psi1) Psi2) and its L1 norm.

    Accepts Branch or WaveFunction operands; returns (field array, L1).
    """
    w1 = b1.wave if isinstance(b1, Branch) else b1
    w2 = b2.wave if isinstance(b2, Branch) else b2
    if w1.grid != w2.grid:
        raise BranchError("interference operands must share one grid")
    fld = 2.0 * np.real(np.conj(w1.amplitudes) * w2.amplitudes)
    l1 = float(np.sum(np.abs(fld)) * w1.grid.dV)
    return fld, l1


def conditional_env_state(wave, env_axes):
    """Environment profile of a component: integral over non-env axes."""
    grid = wave.grid
    other = tuple(a for a in range(grid.dims) if a not in env_axes)
    dv = float(np.prod([grid.dxs[a] for a in other])) if other else 1.0
    chi = np.sum(wave.amplitudes, axis=other) * dv
    return chi


def overlap_factor(w1, w2, env_axes):
    """Normalized overlap r of two components' environment profiles."""
    chi1 = conditional_env_state(w1, env_axes)
    chi2 = conditional_env_state(w2, env_axes)
    n1 = np.sqrt(np.sum(np.abs(chi1) ** 2))
    n2 = np.sqrt(np.sum(np.abs(chi2) ** 2))
    if n1 < 1e-300 or n2 < 1e-300:
        raise BranchError("zero-norm conditional environment state; r undefined")
    return float(np.abs(np.vdot(chi1, chi2)) / (n1 * n2))


def decoherence_factor(psi, masks, env_axes):
    """r in [0, 1] for the two branches cut out by `masks`.

    masks live on the system/pointer axes; env_axes must be disjoint from
    them and nonempty.
    """
    if len(masks) != 2:
        raise BranchError("decoherence factor needs exactly two branches")
    env_axes = tuple(env_axes)
    if not env_axes:
        raise BranchError("env_axes must be nonempty")
    if set(env_axes) & set(masks[0].axes):
        raise BranchError("env_axes must be disjoint from mask axes")
    b1, b2 = decompose(psi, masks)
    total = b1.weight + b2.weight
    if b1.weight < 1e-12 * total or b2.weight < 1e-12 * total:
        raise BranchError("a branch has zero weight; r undefined")
    return overlap_factor(b1.wave, b2.wave, env_axes)


def effective_wavefunction(psi, conditioned_axes, values):
    """Slice psi at the actual configuration of the conditioned axes.

    Multilinear interpolation along each conditioned axis (periodic), then
    renormalization on the remaining axes.  Errors if the conditioned slice
    has negligible norm ("empty-branch conditioning").
    """
    conditioned_axes = tuple(conditioned_axes)
    values = tuple(float(v) for v in np.atleast_1d(values))
    if len(conditioned_axes) != len(values):
        raise BranchError("one value per conditioned axis required")
    grid = psi.grid
    if len(conditioned_axes) >= grid.dims:
        raise BranchError("cannot condition on every axis")
    amp = psi.amplitudes
    # interpolate axes one at a time, highest axis first so indices stay valid
    for axis, val in sorted(zip(conditioned_axes, values), reverse=True):
        if not (grid.los[axis] <= val < grid.his[axis]):
            raise BranchError(f"conditioned value {val} outside domain on axis {axis}")
        u = (val - grid.los[axis]) / grid.dxs[axis]
        j0 = int(np.floor(u)) % grid.shape[axis]
        j1 = (j0 + 1) % grid.shape[axis]
        f = u - np.floor(u)
        amp = (1.0 - f) * np.take(amp, j0, axis=axis) \
            + f * np.take(amp, j1, axis=axis)
    remaining = tuple(a for a in range(grid.dims) if a not in conditioned_axes)
    sub = grid.subgrid(remaining)
    out = WaveFunction(sub, amp, psi.time)
    if out.norm() < 1e-12:
        raise BranchError("empty-branch conditioning: slice norm underflow")
    return normalize(out)


def branch_occupancy(grid, X, masks):
    """Label of the mask containing the configuration's masked coordinates.

    Cells are resolved on the grid; a configuration on a boundary cell
    tie-breaks to the lowest mask index; returns "none" outside every mask.
    """
    coords = np.asarray(X, float)
    return str(occupancy_labels(grid, coords[None, :], masks)[0])


def occupancy_labels(grid, positions, masks):
    """Vectorized branch occupancy for positions of shape (N, D)."""
    positions = np.atleast_2d(np.asarray(positions, float))
    axes = masks[0].axes
    if any(m.axes != axes for m in masks):
        raise BranchError("masks must share one axis set")
    idx = []
    for a in axes:
        u = (positions[:, a] - grid.los[a]) / grid.dxs[a]
        idx.append(np.mod(np.floor(u).astype(np.int64), grid.shape[a]))
    idx = tuple(idx)
    labels = np.full(len(positions), "none", dtype=object)
    unassigned = np.ones(len(positions), dtype=bool)
    for m in masks:  # lowest index wins ties / first containing mask
        hit = m.array[idx] & unassigned
        labels[hit] = m.label
        unassigned &= ~hit
    return labels


@dataclass
class DeviationResult:
    """Max trajectory deviation between full-wave and branch-only guidance.

    `full` and `branch` are the two probes' whole trajectories, also past a
    truncation.
    """

    max_deviation: float
    time_of_max: float
    truncated: bool
    times: np.ndarray
    deviations: np.ndarray
    full: Trajectory
    branch: Trajectory


def _periodic_dev(grid, a, b):
    d = a - b
    lengths = np.asarray(grid.lengths)
    d = (d + lengths / 2.0) % lengths - lengths / 2.0
    return np.sqrt(np.sum(d * d, axis=-1))


def single_branch_error(full_record, branch_record, x0):
    """Guide the same particle under the full wave and under one branch.

    branch_record should evolve the (renormalized) occupied branch alone on
    the same grid and schedule.  Returns the max deviation over time; if the
    branch-only particle leaves the branch support (local density below
    SUPPORT_FLOOR of the max), the comparison is truncated there and flagged.
    """
    if full_record.grid != branch_record.grid:
        raise BranchError("records must share one grid")
    x0 = np.asarray(x0, float)
    tr_full = simulate_trajectories(full_record, x0[None, :])[0]
    tr_br = simulate_trajectories(branch_record, x0[None, :])[0]
    grid = full_record.grid

    times = tr_full.times
    devs = _periodic_dev(grid, tr_full.positions, tr_br.positions)

    truncated = False
    cut = len(times)
    snap_times = branch_record.times
    for i, t in enumerate(times):
        si = int(np.argmin(np.abs(snap_times - t)))
        amp = np.abs(branch_record.snapshots[si])
        corners_val = _density_at(grid, amp, tr_br.positions[i])
        if corners_val < SUPPORT_FLOOR * float(np.max(amp)) ** 2:
            truncated = True
            cut = i + 1
            break
    times, devs = times[:cut], devs[:cut]
    imax = int(np.argmax(devs))
    return DeviationResult(float(devs[imax]), float(times[imax]), truncated,
                           times, devs, tr_full, tr_br)


def _density_at(grid, absamp, point):
    flat, w = interp_stencil(grid, np.asarray(point, float)[None, :])
    val = 0.0
    for wc, a in zip(w[:, 0], absamp.reshape(-1).take(flat[:, 0])):
        val += float(wc) * float(a) ** 2
    return val

"""Branch decomposition, interference, decoherence factor, conditional states.

A branch is the wave function multiplied by the indicator of a region mask on
one axis; branches of one decomposition reconstruct the parent exactly, so the
density identity

    rho = sum_i |b_i|^2 + sum_{i<j} 2 Re(conj(b_i) b_j)

holds pointwise to rounding.  The decoherence factor r between two branches
is the normalized overlap of their conditional environment profiles; r -> 0
means the empty branch can no longer steer the particle.
"""

from dataclasses import dataclass

import numpy as np

from .fields import FieldError, WaveFunction, normalize
from .guidance import _stencil_one

COVERAGE_TOL = 1e-6        # hard error if more probability mass is unmasked
SUPPORT_FLOOR = 1e-10      # branch support: density above this * its max


class BranchError(FieldError):
    pass


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Boolean region over the cells of one axis, with a label."""

    axis: int
    cells: np.ndarray  # bool, one entry per cell of `axis`
    label: str


def halfspace_mask(grid, axis, threshold, side, label=None):
    """Mask of cells with coordinate < threshold ('below') or >= ('above')."""
    x = grid.axis_coords(axis)
    cells = x < threshold if side == "below" else x >= threshold
    if label is None:
        label = f"x{axis}{'<' if side == 'below' else '>='}{threshold:g}"
    return RegionMask(axis, cells, label)


@dataclass
class Branch:
    """One wave-function component (not renormalized) with its mask label."""

    wave: WaveFunction
    label: str
    weight: float


def _shared_axis(masks):
    """The one axis of `masks`; masks on different axes are an error."""
    if not masks:
        raise BranchError("need at least one mask")
    if any(m.axis != masks[0].axis for m in masks):
        raise BranchError("masks must share one axis")
    return masks[0].axis


def decompose(psi, masks):
    """Split psi into branches by disjoint region masks on one axis.

    Errors on masks on different axes, on overlapping masks, or if the
    probability mass left uncovered exceeds COVERAGE_TOL.
    """
    axis = _shared_axis(masks)
    grid = psi.grid
    inds = [grid._along(axis, m.cells.astype(float)) for m in masks]
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


def interference_term(w1, w2):
    """Pointwise 2 Re(conj(Psi1) Psi2) of two wave functions, and its L1
    norm: returns (field array, L1)."""
    if w1.grid != w2.grid:
        raise BranchError("interference operands must share one grid")
    fld = 2.0 * np.real(np.conj(w1.amplitudes) * w2.amplitudes)
    l1 = float(np.sum(np.abs(fld)) * w1.grid.dV)
    return fld, l1


def conditional_env_state(wave, env_axis):
    """Environment profile of a component: integral over the other axes."""
    grid = wave.grid
    other = tuple(a for a in range(grid.dims) if a != env_axis)
    dv = float(np.prod([grid.dxs[a] for a in other]))
    return np.sum(wave.amplitudes, axis=other) * dv


def overlap_factor(w1, w2, env_axis):
    """Normalized overlap r of two components' environment profiles."""
    chi1 = conditional_env_state(w1, env_axis)
    chi2 = conditional_env_state(w2, env_axis)
    n1 = np.sqrt(np.sum(np.abs(chi1) ** 2))
    n2 = np.sqrt(np.sum(np.abs(chi2) ** 2))
    if n1 < 1e-300 or n2 < 1e-300:
        raise BranchError("zero-norm conditional environment state; r undefined")
    return float(np.abs(np.vdot(chi1, chi2)) / (n1 * n2))


def effective_wavefunction(psi, axis, value):
    """Slice psi at the actual configuration `value` of one axis.

    Linear interpolation along that axis (periodic), then renormalization on
    the remaining axes.  Errors if the conditioned slice has negligible norm
    ("empty-branch conditioning").
    """
    value = float(value)
    grid = psi.grid
    if grid.dims < 2:
        raise BranchError("cannot condition on every axis")
    if not (grid.los[axis] <= value < grid.his[axis]):
        raise BranchError(f"conditioned value {value} outside domain on axis {axis}")
    u = (value - grid.los[axis]) / grid.dxs[axis]
    j0 = int(np.floor(u)) % grid.shape[axis]
    j1 = (j0 + 1) % grid.shape[axis]
    f = u - np.floor(u)
    amp = (1.0 - f) * np.take(psi.amplitudes, j0, axis=axis) \
        + f * np.take(psi.amplitudes, j1, axis=axis)
    sub = grid.subgrid([a for a in range(grid.dims) if a != axis])
    out = WaveFunction(sub, amp, psi.time)
    if out.norm() < 1e-12:
        raise BranchError("empty-branch conditioning: slice norm underflow")
    return normalize(out)


def occupancy_labels(grid, positions, masks):
    """Vectorized branch occupancy for positions of shape (N, D)."""
    positions = np.atleast_2d(np.asarray(positions, float))
    a = _shared_axis(masks)
    u = (positions[:, a] - grid.los[a]) / grid.dxs[a]
    idx = np.mod(np.floor(u).astype(np.int64), grid.shape[a])
    labels = np.full(len(positions), "none", dtype=object)
    unassigned = np.ones(len(positions), dtype=bool)
    for m in masks:  # lowest index wins ties / first containing mask
        hit = m.cells[idx] & unassigned
        labels[hit] = m.label
        unassigned &= ~hit
    return labels


@dataclass
class DeviationResult:
    """Max trajectory deviation between full-wave and branch-only guidance."""

    max_deviation: float
    time_of_max: float
    truncated: bool
    deviations: np.ndarray


def _periodic_dev(grid, a, b):
    d = a - b
    lengths = np.asarray(grid.lengths)
    d = (d + lengths / 2.0) % lengths - lengths / 2.0
    return np.sqrt(np.sum(d * d, axis=-1))


def single_branch_error(grid, times, full, branch, supported):
    """Deviation of the same particle guided by the full wave and by one branch.

    `full` and `branch` are the two probes' paths (T, D) at `times`, the
    second guided by the occupied branch alone; `supported[i]` flags whether
    the branch supported it at times[i] (`_supported`).  Returns the max
    deviation, cut and flagged `truncated` after the first unsupported time.
    """
    devs = _periodic_dev(grid, full, branch)
    left = np.flatnonzero(~np.asarray(supported, dtype=bool))
    truncated = len(left) > 0
    devs = devs[:left[0] + 1] if truncated else devs
    imax = int(np.argmax(devs))
    return DeviationResult(float(devs[imax]), float(times[imax]), truncated,
                           devs)


def _supported(grid, amp, point):
    """Whether a branch's amplitudes `amp` support a particle at `point`:
    the density on its stencil is not below SUPPORT_FLOOR of the maximum."""
    absamp = np.abs(amp)
    point = np.asarray(point, float).tolist()
    flat, w, _ = _stencil_one(grid._stencil_lists, point)
    val = 0.0
    for wc, a in zip(w, absamp.reshape(-1).take(flat)):
        val += wc * float(a) ** 2
    return not val < SUPPORT_FLOOR * float(np.max(absamp)) ** 2

"""Configuration-space grids, wave functions and densities.

Everything downstream (propagation, guidance, branch analysis) works on the
types defined here: a periodic uniform :class:`Grid` of 1-3 axes, a complex
:class:`WaveFunction` living on it, and real :class:`DensityField` values.
All operations are pure; none mutate their inputs.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NORM_TOL = 1e-9
BOUNDARY_TAIL = 1e-12


class FieldError(ValueError):
    """Invalid grid/field construction or incompatible operands."""


@dataclass(frozen=True)
class PhysicalParams:
    """hbar and per-axis masses (defaults 1.0, the unit system of the engine)."""

    hbar: float = 1.0
    masses: tuple = (1.0,)

    def __post_init__(self):
        if self.hbar <= 0:
            raise FieldError(f"hbar must be positive, got {self.hbar}")
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if any(m <= 0 for m in self.masses):
            raise FieldError(f"all masses must be positive, got {self.masses}")


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular periodic grid over 1-3 axes.

    Points along axis i are lo_i + j*dx_i for j in 0..n_i-1; the topology is
    periodic, hi_i identifies with lo_i.
    """

    shape: tuple
    los: tuple
    his: tuple

    @property
    def dims(self):
        return len(self.shape)

    @cached_property
    def dxs(self):
        return tuple((h - l) / n for n, l, h in zip(self.shape, self.los, self.his))

    @cached_property
    def strides(self):
        """Per axis, the step of the C-order raveled index along that axis."""
        return tuple(math.prod(self.shape[i + 1:]) for i in range(self.dims))

    @cached_property
    def _stencil_arrays(self):
        """los, dxs (float) and shape, strides (int64) as arrays."""
        return (np.asarray(self.los, dtype=float), np.asarray(self.dxs, dtype=float),
                np.asarray(self.shape, dtype=np.int64),
                np.asarray(self.strides, dtype=np.int64))

    @property
    def lengths(self):
        return tuple(h - l for l, h in zip(self.los, self.his))

    @property
    def dV(self):
        return float(np.prod(self.dxs))

    @property
    def volume(self):
        return float(np.prod(self.lengths))

    def axis_coords(self, axis):
        """Coordinate array along one axis."""
        n = self.shape[axis]
        return self.los[axis] + self.dxs[axis] * np.arange(n)

    def k_coords(self, axis):
        """Angular wavenumbers matching numpy FFT ordering along one axis."""
        n = self.shape[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.dxs[axis])

    def _along(self, axis, values):
        newshape = [1] * self.dims
        newshape[axis] = self.shape[axis]
        return values.reshape(newshape)

    def mesh(self, axis):
        """Axis coordinates broadcast to the full grid shape."""
        return self._along(axis, self.axis_coords(axis))

    def k_mesh(self, axis):
        """Axis wavenumbers broadcast to the full grid shape."""
        return self._along(axis, self.k_coords(axis))

    @cached_property
    def _wrap_arrays(self):
        return np.asarray(self.los, dtype=float), np.asarray(self.lengths, dtype=float)

    def wrap(self, coords):
        """Map coordinates into [lo, hi) per axis (periodic topology).

        Equal bit for bit to lo + mod(x - lo, L): `mod` is exact inside
        [0, L), so it runs only on offsets outside that range (or NaN).
        """
        los, lengths = self._wrap_arrays
        y = np.asarray(coords, dtype=float) - los
        outside = ~((y >= 0.0) & (y < lengths))
        if outside.any():
            y[outside] = np.mod(y[outside], np.broadcast_to(lengths, y.shape)[outside])
        y += los
        return y

    def subgrid(self, axes):
        """Grid restricted to a subset of axes (order as given)."""
        axes = tuple(axes)
        return Grid(
            tuple(self.shape[a] for a in axes),
            tuple(self.los[a] for a in axes),
            tuple(self.his[a] for a in axes),
        )


def make_grid(spec):
    """Build a Grid from a per-axis list of {points, lo, hi} dicts."""
    if not 1 <= len(spec) <= 3:
        raise FieldError(f"grid must have 1..3 axes, got {len(spec)}")
    shape, los, his = [], [], []
    for i, ax in enumerate(spec):
        n, lo, hi = int(ax["points"]), float(ax["lo"]), float(ax["hi"])
        if n < 8:
            raise FieldError(f"axis {i}: points must be >= 8, got {n}")
        if hi <= lo:
            raise FieldError(f"axis {i}: need hi > lo, got [{lo}, {hi})")
        shape.append(n)
        los.append(lo)
        his.append(hi)
    return Grid(tuple(shape), tuple(los), tuple(his))


@dataclass
class WaveFunction:
    """Complex amplitude field on a grid at a given time."""

    grid: Grid
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != self.grid.shape:
            raise FieldError(
                f"amplitude shape {self.amplitudes.shape} does not match "
                f"grid shape {self.grid.shape}"
            )

    def norm(self):
        """sqrt of the total probability on the grid."""
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dV))

    def copy(self):
        return WaveFunction(self.grid, self.amplitudes.copy(), self.time)


@dataclass
class DensityField:
    """Nonnegative real field on a grid (typically |psi|^2)."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise FieldError("density shape does not match grid shape")

    def total(self):
        return float(np.sum(self.values) * self.grid.dV)


def normalize(psi):
    """Return psi scaled to unit norm; error on (near-)zero input."""
    n = psi.norm()
    if n < 1e-300:
        raise FieldError("cannot normalize a zero wave function")
    return WaveFunction(psi.grid, psi.amplitudes / n, psi.time)


def init_gaussian(grid, center, sigma, momentum=None, params=None):
    """Normalized Gaussian packet exp(-(x-c)^2/(4 sigma^2) + i p.x/hbar).

    Warns if the packet amplitude at the domain boundary exceeds 1e-12 of its
    peak (periodic wrap-around would then contaminate the dynamics).
    """
    center = [float(c) for c in np.atleast_1d(center)]
    sigma = [float(s) for s in np.atleast_1d(sigma)]
    if momentum is None:
        momentum = [0.0] * grid.dims
    momentum = [float(p) for p in np.atleast_1d(momentum)]
    if not (len(center) == len(sigma) == len(momentum) == grid.dims):
        raise FieldError("center/sigma/momentum must each have one entry per axis")
    if any(s <= 0 for s in sigma):
        raise FieldError(f"sigma must be positive, got {sigma}")
    for i, c in enumerate(center):
        if not (grid.los[i] <= c < grid.his[i]):
            raise FieldError(f"center {c} outside domain on axis {i}")
    hbar = params.hbar if params is not None else 1.0

    amp = np.ones(grid.shape, dtype=np.complex128)
    for i in range(grid.dims):
        x = grid.mesh(i)
        amp = amp * np.exp(
            -((x - center[i]) ** 2) / (4.0 * sigma[i] ** 2)
            + 1j * momentum[i] * x / hbar
        )
    psi = normalize(WaveFunction(grid, amp))
    _warn_boundary_tail(psi)
    return psi


def _warn_boundary_tail(psi):
    peak = np.max(np.abs(psi.amplitudes))
    if peak == 0:
        return
    for axis in range(psi.grid.dims):
        for idx in (0, -1):
            sl = [slice(None)] * psi.grid.dims
            sl[axis] = idx
            edge = np.max(np.abs(psi.amplitudes[tuple(sl)]))
            if edge > BOUNDARY_TAIL * peak:
                warnings.warn(
                    f"packet tail at boundary of axis {axis} is "
                    f"{edge / peak:.2e} of peak (> {BOUNDARY_TAIL:g}); "
                    "enlarge the domain to avoid wrap-around",
                    stacklevel=3,
                )
                return


def superpose(components):
    """Weighted sum of wave functions on a common grid, renormalized.

    components: iterable of (complex coefficient, WaveFunction).
    """
    components = list(components)
    if not components:
        raise FieldError("superpose needs at least one component")
    grid = components[0][1].grid
    total = np.zeros(grid.shape, dtype=np.complex128)
    for c, psi in components:
        if psi.grid != grid:
            raise FieldError("superpose components must share one grid")
        total += complex(c) * psi.amplitudes
    out = WaveFunction(grid, total, components[0][1].time)
    if out.norm() < 1e-300:
        raise FieldError("superposition is identically zero")
    return normalize(out)


def density(psi):
    """Pointwise |psi|^2 as a DensityField."""
    return DensityField(psi.grid, np.abs(psi.amplitudes) ** 2, psi.time)


def marginal_density(psi, axes):
    """|psi|^2 integrated over the complementary axes.

    axes: the axes to KEEP (nonempty proper subset of the grid's axes).
    Returns a DensityField on the corresponding subgrid.
    """
    axes = tuple(axes)
    all_axes = tuple(range(psi.grid.dims))
    if not axes or set(axes) == set(all_axes):
        raise FieldError("axes must be a nonempty proper subset of grid axes")
    if any(a not in all_axes for a in axes):
        raise FieldError(f"unknown axis in {axes}")
    drop = tuple(a for a in all_axes if a not in axes)
    dv_drop = float(np.prod([psi.grid.dxs[a] for a in drop]))
    rho = np.sum(np.abs(psi.amplitudes) ** 2, axis=drop) * dv_drop
    # sum removes dropped axes, keeping remaining ones in grid order; reorder
    # to the caller's axis order
    kept_in_order = tuple(a for a in all_axes if a in axes)
    perm = [kept_in_order.index(a) for a in axes]
    rho = np.transpose(rho, perm)
    return DensityField(psi.grid.subgrid(axes), rho, psi.time)

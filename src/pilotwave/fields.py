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
    """Per-axis masses (default 1.0), in units where ħ = 1: masses, momenta,
    potential strengths and times absorb it."""

    masses: tuple = (1.0,)

    def __post_init__(self):
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
            np.mod(y, lengths, out=y, where=outside)
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

    @property
    def blocks(self):
        """One block of every axis: a WaveFunction is a single factor."""
        return (tuple(range(self.grid.dims)),)

    @property
    def factors(self):
        return [self.amplitudes]


def product_amplitudes(grid, blocks, factors):
    """The full amplitude array of `factors`, one per sorted block of axes:
    their outer product, each factor broadcast along its block's axes."""
    out = None
    for block, f in zip(blocks, factors):
        f = f.reshape([n if a in block else 1 for a, n in enumerate(grid.shape)])
        out = f if out is None else out * f
    return out


@dataclass
class ProductWave:
    """A wave function held as a product of factors over blocks of axes.

    `blocks` partition the grid's axes, each block sorted; `factors[k]` is
    an amplitude array on `grid.subgrid(blocks[k])`.  A WaveFunction is the
    case of one block.
    """

    grid: Grid
    blocks: tuple
    factors: list

    def __post_init__(self):
        self.blocks = tuple(tuple(b) for b in self.blocks)
        self.factors = [np.asarray(f, dtype=np.complex128) for f in self.factors]
        axes = [a for b in self.blocks for a in b]
        if (sorted(axes) != list(range(self.grid.dims)) or not all(self.blocks)
                or any(list(b) != sorted(b) for b in self.blocks)):
            raise FieldError(f"blocks {self.blocks} do not partition the grid's "
                             "axes into sorted blocks")
        if [f.shape for f in self.factors] != [self.grid.subgrid(b).shape
                                               for b in self.blocks]:
            raise FieldError("each factor needs the shape of its block's subgrid")

    @property
    def amplitudes(self):
        """The full amplitude array, formed anew on each read."""
        return product_amplitudes(self.grid, self.blocks, self.factors)


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


def normalize(psi):
    """Return psi scaled to unit norm; error on (near-)zero input."""
    n = psi.norm()
    if n < 1e-300:
        raise FieldError("cannot normalize a zero wave function")
    return WaveFunction(psi.grid, psi.amplitudes / n, psi.time)


def gaussian_factors(grid, blocks, center, sigma, momentum=None):
    """Normalized Gaussian packet exp(-(x-c)^2/(4 sigma^2) + i p.x),
    held as one factor per block of axes.

    The packet is a product over its axes, so each factor is its Gaussian on
    `grid.subgrid(block)`, normalized there.  Warns once if the amplitude at a
    domain boundary exceeds 1e-12 of the peak (periodic wrap-around would
    then contaminate the dynamics), naming the grid's axis.
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

    factors = []
    for block in blocks:
        sub = grid.subgrid(block)
        amp = np.ones(sub.shape, dtype=np.complex128)
        for i, a in enumerate(block):
            x = sub.mesh(i)
            amp = amp * np.exp(
                -((x - center[a]) ** 2) / (4.0 * sigma[a] ** 2)
                + 1j * momentum[a] * x
            )
        factors.append(normalize(WaveFunction(sub, amp)).amplitudes)
    psi = ProductWave(grid, blocks, factors)
    _warn_boundary_tail(psi)
    return psi


def init_gaussian(grid, center, sigma, momentum=None):
    """Normalized Gaussian packet on the whole grid: `gaussian_factors` with
    one block of every axis."""
    psi = gaussian_factors(grid, (tuple(range(grid.dims)),), center, sigma,
                           momentum)
    return WaveFunction(grid, psi.factors[0])


def _warn_boundary_tail(psi):
    """Warn at the first grid axis where the packet's boundary amplitude
    exceeds BOUNDARY_TAIL of its peak.

    Factor by factor: the ratio along an axis is that of the factor holding
    it, since the other factors scale edge and peak alike.
    """
    for block, amp in zip(psi.blocks, psi.factors):
        peak = np.max(np.abs(amp))
        if peak == 0:
            return
        for i, axis in enumerate(block):
            for idx in (0, -1):
                sl = [slice(None)] * amp.ndim
                sl[i] = idx
                edge = np.max(np.abs(amp[tuple(sl)]))
                if edge > BOUNDARY_TAIL * peak:
                    warnings.warn(
                        f"packet tail at boundary of axis {axis} is "
                        f"{edge / peak:.2e} of peak (> {BOUNDARY_TAIL:g}); "
                        "enlarge the domain to avoid wrap-around",
                        stacklevel=4,
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


def marginal_density(psi, axis):
    """|psi|^2 integrated over every axis but `axis`.

    Returns a DensityField on the one-axis subgrid; the grid needs two or
    more axes.
    """
    if psi.grid.dims < 2 or axis not in range(psi.grid.dims):
        raise FieldError(f"no marginal on axis {axis} of a "
                         f"{psi.grid.dims}-axis grid")
    drop = tuple(a for a in range(psi.grid.dims) if a != axis)
    dv_drop = float(np.prod([psi.grid.dxs[a] for a in drop]))
    rho = np.sum(np.abs(psi.amplitudes) ** 2, axis=drop) * dv_drop
    return DensityField(psi.grid.subgrid((axis,)), rho, psi.time)

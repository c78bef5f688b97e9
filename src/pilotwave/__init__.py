"""Pilot-wave dynamics engine.

Co-evolves wave functions (split-operator spectral propagation) with Bohmian
particle trajectories, and packages the decoherence / measurement /
preparation experiments built on top of them.
"""

__version__ = "0.1.0"

from .fields import (
    PhysicalParams, Grid, WaveFunction, DensityField,
    make_grid, init_gaussian, superpose, density, marginal_density, normalize,
)
from .propagate import (
    HamiltonianSpec, PotentialTerm, MeasurementCoupling, Schedule, evolve,
)
from .guidance import (
    VelocityField, Trajectory,
    velocity_field, simulate_trajectory,
)
from .ensemble import sample_initial, run_ensemble, equivariance_test, h_function
from .branches import (
    RegionMask, Branch, decompose, interference_term,
    effective_wavefunction, single_branch_error,
)

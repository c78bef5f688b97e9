"""Pre-packaged experiments assembling fields/propagate/guidance/branches.

Each runner takes a validated ScenarioSpec and produces a ScenarioReport whose
verdicts are derivable from the recorded metrics and the echoed thresholds
alone.  Every runner makes one streaming pass (`coevolve`): its components
are stepped together, particle bundles (single probes or whole ensembles)
advance at the observation times, and observers reduce each observation to
what the analyses need, so no full snapshot record is ever materialized.

Scenario kinds:
  interference  two converging packets, fringe check, empty-branch steering
  decoherence   interference plus an environment axis; r(t) decay and the
                with-env / no-env trajectory contrast (twin run embedded)
  measurement   von Neumann pointer displacement; Born occupancy statistics
                and effective-wave-function fidelity
  preparation   (s, a, e): environment-dressed apparatus, gate, then the
                full-wave vs prepared-eigenstate trajectory contrast
  relaxation    multimode box; coarse-grained H-function decay
"""

import copy
import hashlib
import json
import time as _time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import jsonschema

from .fields import (
    FieldError, PhysicalParams, ProductWave, WaveFunction, make_grid,
    gaussian_factors, init_gaussian, normalize, marginal_density,
)
from .propagate import (
    HamiltonianSpec, MeasurementCoupling, PotentialTerm, Schedule, evolve,
    _observed_steps,
)
from . import guidance
from .guidance import GuidedWalk, group_field, simulate_trajectories
from .ensemble import (
    Ensemble, rng_for, sample_initial, equivariance_test, h_function,
    _axis_density,
)
from .branches import (
    halfspace_mask, interference_term, overlap_factor,
    effective_wavefunction, occupancy_labels, single_branch_error,
    _periodic_dev, _supported,
)

KINDS = ("interference", "decoherence", "measurement", "preparation",
         "relaxation")

DEFAULT_THRESHOLDS = {
    "interference": {
        "fringe_rel_tol": 0.10, "l1_min": 0.1, "deviation_min_dx": 10.0,
        "symmetry_max_dx": 2.0, "degenerate_max_fraction": 1e-3,
        "l1_floor": 1e-3, "eq3_max": 1e-12, "equivariance_n_sigma": 3.0,
    },
    "decoherence": {
        "r_max": 1e-3, "deviation_max_dx": 2.0, "twin_deviation_min_dx": 10.0,
        "twin_l1_min": 0.1, "contrast_min": 5.0, "eq3_max": 1e-12,
    },
    "measurement": {
        "occupancy_n_sigma": 3.0, "fidelity_min": 0.99,
        "lobe_gap_rel_max": 1e-3, "degenerate_max_fraction": 1e-3,
        "eq3_max": 1e-12,
    },
    "preparation": {
        "r_max": 1e-3, "deviation_max_dx": 2.0, "twin_deviation_min_dx": 10.0,
        "lobe_gap_rel_max": 1e-3, "eq3_max": 1e-12,
    },
    "relaxation": {
        "h_drop_min": 0.5, "eq_h_max": 0.05, "min_particles": 1000,
        "degenerate_max_fraction": 1e-3,
    },
}


class SpecError(FieldError):
    """Invalid scenario specification; message names the offending key."""


# ---------------------------------------------------------------------------
# spec loading / validation / hashing

def _schema():
    with resources.files("pilotwave").joinpath(
            "schemas/scenario.schema.json").open() as fh:
        return json.load(fh)


# each kind's axis layout is fixed: the system is axis 0, the pointer axis 1
# (measurement, preparation) and the environment the last axis; the gate
# couples system -> pointer and the env coupling binds the environment and
# the axis before it
SYSTEM_AXIS = 0
POINTER_AXIS = 1
# interference's equilibrium ensemble advances at every 5th observation
ENSEMBLE_STRIDE = 5

# what each kind requires: grid axes and top-level or coupling blocks; a
# kind takes no other block but potentials and thresholds, and every kind
# with packets takes exactly two, whose analyses read packets 0 and 1
_REQUIRES = {
    "interference": (1, ("packets", "ensemble")),
    "decoherence": (2, ("packets", "couplings.env")),
    "measurement": (2, ("packets", "couplings.gate", "ensemble")),
    "preparation": (3, ("packets", "couplings.env", "couplings.gate")),
    "relaxation": (2, ("relaxation", "ensemble")),
}
_COMMON = ("kind", "seed", "grid", "physical", "schedule", "potentials",
           "thresholds")


def validate_spec_dict(d):
    """Schema plus kind-specific validation; raises SpecError naming the key."""
    try:
        jsonschema.validate(d, _schema())
    except jsonschema.ValidationError as e:
        path = ".".join(str(p) for p in e.absolute_path) or "(root)"
        raise SpecError(f"{path}: {e.message}") from None
    kind = d["kind"]
    ndim = len(d["grid"])
    if len(d["physical"]["masses"]) != ndim:
        raise SpecError("physical.masses: need one mass per grid axis")
    n_axes, blocks = _REQUIRES[kind]
    if ndim != n_axes:
        raise SpecError(f"grid: kind {kind!r} needs {n_axes} axes")
    for block in blocks:
        node = d
        for key in block.split("."):
            node = node.get(key) or {}
        if not node:
            raise SpecError(f"{block}: required for kind {kind!r}")
    taken = {*_COMMON, *blocks, *(b.split(".")[0] for b in blocks)}
    for block in [*d, *(f"couplings.{k}" for k in d.get("couplings", {}))]:
        if block not in taken:
            raise SpecError(f"{block}: not taken by kind {kind!r}")
    if "packets" in blocks:
        if len(d["packets"]) != 2:
            raise SpecError(f"packets: kind {kind!r} needs 2 packets, "
                            f"got {len(d['packets'])}")
        for i, p in enumerate(d["packets"]):
            for key in ("centers", "sigmas", "momenta"):
                if key in p and len(p[key]) != ndim:
                    raise SpecError(f"packets.{i}.{key}: need {ndim} entries")
        total = sum(p["coefficient"] ** 2 for p in d["packets"])
        if abs(total - 1.0) > 1e-9:
            raise SpecError("packets: squared coefficients must sum to 1")
        # measurement labels its branches by the pointer's two sides
        s0, s1 = (p["centers"][SYSTEM_AXIS] for p in d["packets"])
        if kind == "measurement" and s0 * s1 >= 0:
            raise SpecError("packets: kind 'measurement' needs its packets "
                            "on opposite sides of s = 0")
    thr = dict(DEFAULT_THRESHOLDS[kind])
    for k, v in d.get("thresholds", {}).items():
        if k not in thr:
            raise SpecError(f"thresholds.{k}: unknown threshold for kind {kind!r}")
        if not v > 0:
            raise SpecError(f"thresholds.{k}: must be positive")
        thr[k] = v
    out = copy.deepcopy(d)
    out["thresholds"] = thr
    return out


def apply_overrides(d, overrides):
    """Apply CLI 'dotted.path=value' overrides (values parsed as JSON)."""
    d = copy.deepcopy(d)
    for item in overrides:
        if "=" not in item:
            raise SpecError(f"override {item!r}: expected key=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        keys = path.split(".")
        node = d
        try:
            for k in keys[:-1]:
                node = node[int(k) if isinstance(node, list) else k]
            k = keys[-1]
            node[int(k) if isinstance(node, list) else k] = value
        except (KeyError, IndexError, ValueError, TypeError):
            raise SpecError(f"override {path!r}: no such key {k!r}") from None
    return d


def spec_hash(d):
    blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_spec(path, overrides=()):
    """Load, override, and validate a scenario spec file."""
    with open(path) as fh:
        return validate_spec_dict(apply_overrides(json.load(fh), overrides))


def builtin_spec(kind, overrides=()):
    """One of the shipped, calibrated scenario spec files."""
    if kind not in KINDS:
        raise SpecError(f"kind: unknown scenario kind {kind!r}")
    shipped = resources.files("pilotwave") / "specs" / f"{kind}.json"
    with resources.as_file(shipped) as path:
        return load_spec(path, overrides)


# ---------------------------------------------------------------------------
# spec -> simulation objects

def _grid_of(spec):
    return make_grid(spec["grid"])


def _schedule_of(spec):
    s = spec["schedule"]
    return Schedule(s["t_start"], s["t_end"], s["dt"], s.get("stride", 1))


def _env_axis(spec):
    """The environment: the last axis."""
    return len(spec["grid"]) - 1


def _potential_terms(spec):
    terms = [PotentialTerm(t["kind"], tuple(t["axes"]), dict(t["params"]))
             for t in spec.get("potentials", [])]
    env = spec.get("couplings", {}).get("env")
    if env is not None and env["strength"] != 0.0:
        e = _env_axis(spec)
        terms.append(PotentialTerm.make(
            "linear_coupling", (e - 1, e),
            window=(env["t_on"], env["t_off"]), strength=env["strength"]))
    return tuple(terms)


def _hamiltonian_of(spec):
    gate = spec.get("couplings", {}).get("gate")
    coupling = None
    if gate is not None and gate["strength"] != 0.0:
        coupling = MeasurementCoupling(SYSTEM_AXIS, POINTER_AXIS,
                                       gate["strength"], gate["t_on"],
                                       gate["t_off"])
    return HamiltonianSpec(_potential_terms(spec), coupling)


def _components_of(spec, grid, hamiltonian, schedule):
    """One (unnormalized) wave per packet: c_n times a unit Gaussian.

    Each is held as one factor per block of axes that the terms and gate
    acting in the schedule's first step couple (`_observed_steps` merges
    blocks as later bindings act), with c_n on the first factor.
    """
    blocks = hamiltonian.blocks(grid, schedule.t_start + 0.5 * schedule.dt)
    comps = []
    for p in spec["packets"]:
        psi = gaussian_factors(grid, blocks, p["centers"], p["sigmas"],
                               p.get("momenta"))
        comps.append(ProductWave(grid, blocks, [p["coefficient"] * psi.factors[0]]
                                 + psi.factors[1:]))
    return comps


def _simulation_of(spec):
    """Grid, physical parameters, schedule and Hamiltonian of a spec."""
    return (_grid_of(spec), PhysicalParams(tuple(spec["physical"]["masses"])),
            _schedule_of(spec), _hamiltonian_of(spec))


def _twin_spec(spec):
    """The lambda = 0 control: identical but with the env coupling off."""
    d = copy.deepcopy(spec)
    d["couplings"]["env"]["strength"] = 0.0
    return d


# ---------------------------------------------------------------------------
# streaming co-evolution engine

@dataclass
class Bundle:
    """Particles x0s (N, D) that `coevolve` advances as one group, guided by
    the components' sum (`source` None) or by component `source` alone, at
    every `stride`-th observation and the last."""

    x0s: np.ndarray
    source: int = None
    stride: int = 1


@dataclass
class StreamResult:
    times: np.ndarray                  # observation times
    probe_times: list                  # per bundle: the times it advanced to
    probe_paths: list                  # per bundle: paths (T_b, N, D)
    probe_degenerate: list             # per bundle: frozen flags (N,)
    observations: list                 # per observation: observer return value
    final_components: list             # WaveFunction per component


def coevolve(components, hamiltonian, schedule, params, bundles, observer=None):
    """Step all components through one schedule, advancing particle bundles.

    Components share the Hamiltonian (evolution is linear, so their sum is
    the full wave at all times); each is a WaveFunction, or a ProductWave
    factored like the others over blocks that no term couples yet, which
    merge as couplings first act (`_observed_steps`).  At each observation
    every `Bundle` due advances as its own group (`GuidedWalk`; a group's
    fastest particle sets its substeps) through one `group_field` per wave
    for its groups of one and one for the others.  Then the observer, if
    given, gets t, the full wave (a WaveFunction of the components' sum,
    formed once in component order, which the sum-guided bundles read), the
    list of component amplitude arrays and each bundle's positions (N, D)
    or None; its return values are collected."""
    grid = components[0].grid
    # the last observation's index: step 0, then one per stride of steps
    last = len(range(0, schedule.n_steps, schedule.stride))
    walks = [GuidedWalk(hamiltonian.coupling, b.x0s,
                        len(range(0, last, b.stride)) + 1) for b in bundles]
    amps, times, observations = [], [], []
    for i, t in enumerate(_observed_steps(components, hamiltonian, schedule,
                                          params, amps)):
        times.append(t)
        due = [i % b.stride == 0 or i == last for b in bundles]
        full = WaveFunction(grid, sum(amps[1:], amps[0]), t)
        waves = {k: full if k is None else WaveFunction(grid, amps[k], t)
                 for k in {b.source for b, d in zip(bundles, due) if d}}
        fields, positions = {}, []
        for b, walk, d in zip(bundles, walks, due):
            # group_field tells a group of one from larger ones
            key = b.source, len(walk.frozen) == 1
            if d and key not in fields:
                fields[key] = group_field(waves[b.source], params,
                                          len(walk.frozen))
            positions.append(walk.feed(fields[key]) if d else None)
        if observer is not None:
            observations.append(observer(t, full, amps, positions))
    return StreamResult(
        times=np.asarray(times),
        probe_times=[w.times for w in walks],
        probe_paths=[w.path for w in walks],
        probe_degenerate=[w.frozen for w in walks],
        observations=observations,
        final_components=[WaveFunction(grid, a, schedule.t_end) for a in amps],
    )


# ---------------------------------------------------------------------------
# report

@dataclass
class ScenarioReport:
    kind: str
    spec: dict
    spec_hash: str
    metrics: dict
    verdicts: dict
    verdict: str = ""
    twin: dict = None            # metrics of the embedded lambda=0 control
    runtime: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)

    def __post_init__(self):
        if not self.verdict:
            self.verdict = overall_verdict(self.verdicts)

    def to_dict(self):
        return {
            "kind": self.kind, "spec": self.spec, "spec_hash": self.spec_hash,
            "metrics": self.metrics, "verdicts": self.verdicts,
            "verdict": self.verdict, "twin": self.twin,
            "runtime": self.runtime, "artifacts": self.artifacts,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)


def _report(spec, t0, metrics, verdicts, twin=None):
    """Report of a run started at t0; a twin run steps the schedule twice."""
    steps = _schedule_of(spec).n_steps * (1 if twin is None else 2)
    return ScenarioReport(
        kind=spec["kind"], spec=spec, spec_hash=spec_hash(spec),
        metrics=metrics, verdicts=verdicts, twin=twin,
        runtime={"seconds": _time.time() - t0, "steps": steps})


def overall_verdict(verdicts):
    states = set(verdicts.values())
    if "fail" in states:
        return "fail"
    if "inconclusive" in states:
        return "inconclusive"
    return "pass"


def _vd(ok):
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# small analysis helpers

def _fringe_spacing(rho, x, window):
    """Mean distance between adjacent interior maxima of rho within |x|<window.

    Peak positions are refined by quadratic interpolation; returns NaN when
    fewer than two peaks are found.
    """
    sel = np.abs(x) < window
    r = rho[sel]
    xs = x[sel]
    peaks = []
    for i in range(1, len(r) - 1):
        if r[i] > r[i - 1] and r[i] >= r[i + 1] and r[i] > 0.05 * r.max():
            denom = r[i - 1] - 2.0 * r[i] + r[i + 1]
            delta = 0.0 if denom == 0 else 0.5 * (r[i - 1] - r[i + 1]) / denom
            peaks.append(xs[i] + delta * (xs[1] - xs[0]))
    if len(peaks) < 2:
        return float("nan")
    return float(np.mean(np.diff(peaks)))


def _eq3_residual(psi, axis, split):
    """Max pointwise residual of rho = |b_lo|^2 + |b_hi|^2 + cross term, for
    the branches `decompose` forms from the halfspaces of `axis` below and
    above `split`; they cover every cell, so its coverage check cannot fire.
    The max is taken slab by slab, so no full-grid branch array is held."""
    masks = [halfspace_mask(psi.grid, axis, split, side).cells.astype(float)
             for side in ("below", "above")]
    peaks = []
    for j in range(psi.grid.shape[axis]):
        amp = psi.amplitudes[(slice(None),) * axis + (j,)]
        lo, hi = (amp * m[j] for m in masks)
        acc = (np.abs(lo) ** 2 + np.abs(hi) ** 2
               + 2.0 * np.real(np.conj(lo) * hi))
        peaks.append(np.max(np.abs(np.abs(amp) ** 2 - acc)))
    return float(np.max(peaks))


def _order_preserved(positions):
    """1D no-crossing: initial sorted order is kept at every recorded time."""
    order = np.argsort(positions[0, :, 0])
    sorted_paths = positions[:, order, 0]
    return bool(np.all(np.diff(sorted_paths, axis=1) >= -1e-12))


def _lobe_metrics(psi):
    """Pointer lobes either side of 0.

    Returns the masses below and above 0 and the marginal density at 0
    relative to its maximum.
    """
    marg = marginal_density(psi, POINTER_AXIS).values
    coords = psi.grid.axis_coords(POINTER_AXIS)
    dx = coords[1] - coords[0]
    below = float(np.sum(marg[coords < 0.0]) * dx)
    above = float(np.sum(marg[coords >= 0.0]) * dx)
    gap_rel = float(marg[int(np.argmin(np.abs(coords)))] / marg.max())
    return below, above, gap_rel


def _index_at(times, t):
    """Index of the first time at or after t (to 1e-12), else the last."""
    return min(int(np.searchsorted(times, t - 1e-12)), len(times) - 1)


def _probe_start(spec):
    """The probe's start: the first packet's center."""
    return list(spec["packets"][0]["centers"])


@dataclass
class _PairStream:
    """What both two-packet runners read off one stream of their packets."""

    result: StreamResult       # bundles: full-wave probe, branch probe, extra
    l1: np.ndarray             # interference-term L1 per observation
    norm_drift: float          # of the full wave
    dev: object                # DeviationResult: full wave vs packet 0
    peak: object               # full wave's axis-0 density at the first L1 max
    mid: float                 # packets' midpoint on the system axis
    eq3: float                 # density identity at t=0, split at mid
    seen: list                 # per observation: observe's value


def _branch_pair(spec, extra=None, observe=None):
    """Stream both packets with two probes from packet 0's center, guided by
    the full wave and by packet 0 alone, then the bundles `extra(full0,
    mid)` gives for the full wave at t = 0 and the packets' midpoint.  The
    observer keeps L1, the full wave's norm, the branch probe's support flag
    (`_supported`), the full wave's axis-0 density at the first L1 maximum
    and observe(w0, w1, full) of both packets and their sum, if given."""
    grid, params, sched, H = _simulation_of(spec)
    comps = _components_of(spec, grid, H, sched)
    mid = 0.5 * (spec["packets"][0]["centers"][SYSTEM_AXIS]
                 + spec["packets"][1]["centers"][SYSTEM_AXIS])
    full0 = WaveFunction(grid, comps[0].amplitudes + comps[1].amplitudes)
    eq3 = _eq3_residual(full0, SYSTEM_AXIS, mid)
    x0 = np.array([_probe_start(spec)])
    bundles = [Bundle(x0), Bundle(x0, source=0),
               *(extra(full0, mid) if extra else ())]
    del full0  # not held while the components step
    peak = {"l1": -np.inf}

    def observer(t, full, amps, positions):
        w0, w1 = (WaveFunction(grid, a, t) for a in amps)
        l1 = interference_term(w0, w1)[1]
        # only a larger L1 moves the peak, as np.argmax takes the first
        if l1 > peak["l1"]:
            peak.update(l1=l1, density=_axis_density(full, SYSTEM_AXIS))
        return (l1, full.norm(), _supported(grid, amps[0], positions[1][0]),
                None if observe is None else observe(w0, w1, full))

    result = coevolve(comps, H, sched, params, bundles, observer)
    l1, norms, supported, seen = zip(*result.observations)
    full, branch = (p[:, 0] for p in result.probe_paths[:2])
    return _PairStream(
        result, np.asarray(l1),
        float(np.max(np.abs(np.subtract(norms, norms[0])))),
        single_branch_error(grid, result.times, full, branch, supported),
        peak["density"], mid, eq3, list(seen))


def _density_block(rho, axis, t):
    """Plot-source block: the 1D density `rho` along one axis."""
    return {"axis": int(axis), "t": float(t),
            "x": rho.grid.axis_coords(0).tolist(), "rho": rho.values.tolist()}


def _trajectory_block(times, paths, labels):
    """Plot-source block: a handful of labelled paths, each (T, D)."""
    return {"times": np.asarray(times).tolist(), "labels": list(labels),
            "paths": [np.asarray(p).tolist() for p in paths]}


def _some_paths(times, positions):
    """First 8 particle paths out of a bundle with shape (T, N, D)."""
    idx = range(min(8, positions.shape[1]))
    return _trajectory_block(times, [positions[:, j] for j in idx],
                             [f"particle_{j}" for j in idx])


# ---------------------------------------------------------------------------
# interference

def run_interference_scenario(spec):
    if spec["kind"] != "interference":
        raise SpecError("kind: expected interference")
    t0 = _time.time()
    thr = spec["thresholds"]
    grid = _grid_of(spec)
    dx = grid.dxs[0]
    n = spec["ensemble"]["n_particles"]

    def extra(full0, mid):
        """The symmetry probe at the midpoint and the equilibrium ensemble."""
        return [Bundle(np.array([[mid]])),
                Bundle(sample_initial(full0, n, spec["seed"]),
                       stride=ENSEMBLE_STRIDE)]

    # the axis-0 density at every observation, for the equivariance test
    pair = _branch_pair(spec, extra,
                        lambda w0, w1, full: _axis_density(full, 0))
    result, l1, times = pair.result, pair.l1, pair.result.times
    i_peak = int(np.argmax(l1))
    metrics = {"times": times.tolist(), "l1_series": l1.tolist(),
               "l1_peak": float(l1[i_peak]), "t_peak": float(times[i_peak]),
               "norm_drift": pair.norm_drift}
    verdicts = {}

    if l1[i_peak] < thr["l1_floor"]:
        verdicts["overlap_reached"] = "inconclusive"
    else:
        verdicts["overlap_reached"] = "pass"
        # fringe spacing at the recombination observation, near the midpoint
        k_rel = abs(spec["packets"][0].get("momenta", [0.0])[0]
                    - spec["packets"][1].get("momenta", [0.0])[0]) / 2.0
        expected = np.pi / k_rel if k_rel > 0 else float("nan")
        spacing = _fringe_spacing(pair.peak.values, grid.axis_coords(0),
                                  window=4.0 * expected)
        metrics["fringe_spacing"] = spacing
        metrics["fringe_expected"] = float(expected)
        ok = np.isfinite(spacing) and \
            abs(spacing - expected) <= thr["fringe_rel_tol"] * expected
        verdicts["fringe_spacing"] = _vd(ok)
        verdicts["l1_peak"] = _vd(l1[i_peak] >= thr["l1_min"])

    # empty-branch steering: full-wave vs single-branch guidance
    dev = pair.dev
    metrics["deviation_max"] = dev.max_deviation
    metrics["deviation_time"] = dev.time_of_max
    metrics["deviation_truncated"] = dev.truncated
    verdicts["empty_branch_steering"] = _vd(
        dev.max_deviation >= thr["deviation_min_dx"] * dx)

    # symmetry probe at the midpoint between the packets
    sym_dev = float(np.max(np.abs(result.probe_paths[2][:, 0, 0] - pair.mid)))
    metrics["symmetry_max_dev"] = sym_dev
    verdicts["symmetry"] = _vd(sym_dev <= thr["symmetry_max_dx"] * dx)

    # equilibrium ensemble: no-crossing, node safety, equivariance
    ens = Ensemble(result.probe_times[3], result.probe_paths[3],
                   result.probe_degenerate[3], spec["seed"])
    metrics["degenerate_fraction"] = ens.degenerate_fraction()
    metrics["order_preserved"] = _order_preserved(ens.positions)
    verdicts["no_crossing"] = _vd(metrics["order_preserved"])
    verdicts["node_safety"] = _vd(
        ens.degenerate_fraction() < thr["degenerate_max_fraction"])
    eq = equivariance_test(ens, pair.seen)
    metrics["equivariance"] = {
        "times": eq.times.tolist(), "tv": eq.tv.tolist(),
        "band_mean": eq.tv_band_mean.tolist(),
        "band_sigma": eq.tv_band_sigma.tolist(),
        "p_value": [None if np.isnan(p) else float(p) for p in eq.p_value],
    }
    verdicts["equivariance"] = _vd(eq.within_band(thr["equivariance_n_sigma"]))

    metrics["density"] = _density_block(pair.peak, 0, times[i_peak])
    metrics["trajectories"] = _some_paths(ens.times, ens.positions)

    # density identity on a halfspace decomposition at the start
    metrics["eq3_residual"] = pair.eq3
    verdicts["density_identity"] = _vd(metrics["eq3_residual"] <= thr["eq3_max"])
    return _report(spec, t0, metrics, verdicts)


# ---------------------------------------------------------------------------
# decoherence

def _decoherence_metrics(spec):
    """Branch evolution, r(t), L1(t), and the single-branch deviation."""
    e_ax = _env_axis(spec)
    pair = _branch_pair(
        spec, observe=lambda w0, w1, full: overlap_factor(w0, w1, e_ax))
    result, dev, times = pair.result, pair.dev, pair.result.times
    r_series = pair.seen
    i_gate = _index_at(times, spec["couplings"]["env"]["t_off"])
    i_rec = int(np.argmax(pair.l1))

    return {
        "times": times.tolist(),
        "r_series": r_series,
        "l1_series": pair.l1.tolist(),
        "r_gate_close": float(r_series[i_gate]),
        "t_gate_close": float(times[i_gate]),
        "l1_recombination": float(pair.l1[i_rec]),
        "t_recombination": float(times[i_rec]),
        "deviation_max": dev.max_deviation,
        "deviation_time": dev.time_of_max,
        "deviation_truncated": dev.truncated,
        "deviation_series": dev.deviations.tolist(),
        "norm_drift": pair.norm_drift,
        "eq3_residual": pair.eq3,
        "density": _density_block(pair.peak, SYSTEM_AXIS, times[i_rec]),
        "trajectories": _trajectory_block(
            times, [p[:, 0] for p in result.probe_paths],
            ["full_wave_probe", "single_branch_probe"]),
    }


def run_decoherence_scenario(spec):
    if spec["kind"] != "decoherence":
        raise SpecError("kind: expected decoherence")
    t0 = _time.time()
    thr = spec["thresholds"]
    dx = _grid_of(spec).dxs[SYSTEM_AXIS]

    metrics = _decoherence_metrics(spec)
    twin = _decoherence_metrics(_twin_spec(spec))

    verdicts = {
        "r_decay": _vd(metrics["r_gate_close"] < thr["r_max"]),
        "branch_autonomy": _vd(
            metrics["deviation_max"] <= thr["deviation_max_dx"] * dx),
        "twin_steering": _vd(
            twin["deviation_max"] >= thr["twin_deviation_min_dx"] * dx),
        "twin_interference": _vd(
            twin["l1_recombination"] >= thr["twin_l1_min"]),
        "twin_r_unity": _vd(
            max(abs(r - 1.0) for r in twin["r_series"]) <= 1e-9),
        "contrast": _vd(
            twin["deviation_max"] > thr["contrast_min"]
            * max(metrics["deviation_max"], 1e-300)),
        "density_identity": _vd(metrics["eq3_residual"] <= thr["eq3_max"]),
    }
    return _report(spec, t0, metrics, verdicts, twin)


# ---------------------------------------------------------------------------
# measurement

def _system_reference_record(spec, packet_index):
    """1D record of one system packet evolved under the system axis alone."""
    grid1 = make_grid([spec["grid"][SYSTEM_AXIS]])
    params1 = PhysicalParams((spec["physical"]["masses"][SYSTEM_AXIS],))
    p = spec["packets"][packet_index]
    psi = init_gaussian(grid1, [p["centers"][SYSTEM_AXIS]],
                        [p["sigmas"][SYSTEM_AXIS]],
                        [p.get("momenta", [0.0])[SYSTEM_AXIS]])
    return evolve(psi, _hamiltonian_of(spec).restrict((SYSTEM_AXIS,)),
                  _schedule_of(spec), params1)


def run_measurement_scenario(spec):
    if spec["kind"] != "measurement":
        raise SpecError("kind: expected measurement")
    t0 = _time.time()
    grid, params, sched, H = _simulation_of(spec)
    thr = spec["thresholds"]

    comps = _components_of(spec, grid, H, sched)
    n = spec["ensemble"]["n_particles"]
    x0s = sample_initial(WaveFunction(grid, comps[0].amplitudes
                                      + comps[1].amplitudes), n, spec["seed"])

    result = coevolve(comps, H, sched, params, [Bundle(x0s)])
    end0, end1 = result.final_components
    psi_end = WaveFunction(grid, end0.amplitudes + end1.amplitudes, sched.t_end)
    positions = result.probe_paths[0]           # (T, N, 2)

    metrics = {"times": result.times.tolist()}
    verdicts = {}

    # pointer marginal lobes at the end
    below, above, gap_rel = _lobe_metrics(psi_end)
    metrics["lobe_mass_below"] = below
    metrics["lobe_mass_above"] = above
    metrics["lobe_gap_rel"] = gap_rel
    weights = [p["coefficient"] ** 2 for p in spec["packets"]]
    metrics["born_weights"] = weights
    if gap_rel > thr["lobe_gap_rel_max"]:
        verdicts["pointer_separation"] = "fail"
        metrics["diagnostic"] = "pointer separation insufficient"
    else:
        verdicts["pointer_separation"] = "pass"

    # which displacement sign each packet produced, to pair masks with c_n:
    # the gate shifts the pointer by g*tau*s, so a packet at s<0 lands below 0
    gate = spec["couplings"]["gate"]
    tau = gate["t_off"] - gate["t_on"]
    sgn = 1.0 if gate["strength"] * tau > 0 else -1.0
    masks = []
    for p in spec["packets"]:
        s_c = p["centers"][SYSTEM_AXIS]
        side = "below" if sgn * s_c < 0 else "above"
        masks.append(halfspace_mask(grid, POINTER_AXIS, 0.0, side, f"R{side}"))

    labels = occupancy_labels(grid, positions[-1], masks)
    metrics["occupancy"] = {}
    metrics["fidelity"] = {}
    occupancy_ok, fidelity_ok = True, True
    for i, (m, w) in enumerate(zip(masks, weights)):
        frac = float(np.mean(labels == m.label))
        sig = np.sqrt(w * (1.0 - w) / n)
        band = thr["occupancy_n_sigma"] * sig
        metrics["occupancy"][m.label] = {
            "fraction": frac, "expected": w, "band": float(band)}
        if w > 0 and abs(frac - w) > max(band, 1e-12):
            occupancy_ok = False
        # effective wave at a representative occupant of this branch
        occupants = positions[-1][labels == m.label]
        if len(occupants) == 0:
            metrics["fidelity"][m.label] = None
            continue
        a_rep = float(np.median(occupants[:, POINTER_AXIS]))
        eff = effective_wavefunction(psi_end, POINTER_AXIS, a_rep)
        ref_rec = _system_reference_record(spec, i)
        ref = normalize(ref_rec.wave_at(-1))
        fid = float(abs(np.vdot(eff.amplitudes, ref.amplitudes))
                    * eff.grid.dV)
        metrics["fidelity"][m.label] = fid
        if fid < thr["fidelity_min"]:
            fidelity_ok = False
    verdicts["born_occupancy"] = _vd(occupancy_ok)
    verdicts["effective_fidelity"] = _vd(fidelity_ok)

    metrics["degenerate_fraction"] = float(np.mean(result.probe_degenerate[0]))
    verdicts["node_safety"] = _vd(
        metrics["degenerate_fraction"] < thr["degenerate_max_fraction"])

    metrics["density"] = _density_block(
        _axis_density(psi_end, POINTER_AXIS), POINTER_AXIS, sched.t_end)
    metrics["trajectories"] = _some_paths(result.times, positions)

    # identity check on the pointer's two halfspaces at 0
    metrics["eq3_residual"] = _eq3_residual(psi_end, POINTER_AXIS, 0.0)
    verdicts["density_identity"] = _vd(metrics["eq3_residual"] <= thr["eq3_max"])

    metrics["norm_end"] = float(psi_end.norm())
    return _report(spec, t0, metrics, verdicts)


# ---------------------------------------------------------------------------
# preparation

def _preparation_metrics(spec, tr_ref):
    """Metrics of one preparation run; `tr_ref` is the prepared eigenstate's
    trajectory on the system axis, which the env coupling and the gate do
    not touch."""
    grid, params, sched, H = _simulation_of(spec)
    e_ax = _env_axis(spec)
    gate = spec["couplings"]["gate"]

    comps = _components_of(spec, grid, H, sched)
    x0 = np.asarray(_probe_start(spec), float)

    obs_state = {"gate_close": None, "eq3": None}

    def observer(t, full, amps, positions):
        w1, w2 = (WaveFunction(grid, a, t) for a in amps)
        if obs_state["gate_close"] is None and t >= gate["t_off"]:
            below, above, gap = _lobe_metrics(full)
            obs_state["eq3"] = _eq3_residual(full, POINTER_AXIS, 0.0)
            obs_state["gate_close"] = {
                "t": t, "lobe_mass_below": below, "lobe_mass_above": above,
                "lobe_gap_rel": gap}
        return overlap_factor(w1, w2, e_ax), interference_term(w1, w2)[1]

    result = coevolve(comps, H, sched, params, [Bundle([x0])], observer)
    probe = result.probe_paths[0][:, 0]

    times = result.times
    # the reference trajectory has the same times (same schedule and stride)
    dev = _periodic_dev(grid.subgrid((SYSTEM_AXIS,)),
                        probe[:, [SYSTEM_AXIS]],
                        tr_ref.positions)
    post = times >= gate["t_off"]

    r_series, l1_series = (list(c) for c in zip(*result.observations))
    i_env = _index_at(times, spec["couplings"]["env"]["t_off"])

    return {
        "times": times.tolist(),
        "r_series": r_series,
        "l1_series": l1_series,
        "r_env_close": float(r_series[i_env]),
        "t_env_close": float(times[i_env]),
        "gate_close": obs_state["gate_close"],
        "eq3_residual": obs_state["eq3"],
        "deviation_series": dev.tolist(),
        "deviation_max_stage3": float(np.max(dev[post])),
        "deviation_max": float(np.max(dev)),
        "probe_degenerate": bool(result.probe_degenerate[0][0]),
        "norm_end": float(np.sqrt(sum(
            c.norm() ** 2 for c in result.final_components))),
        "density": _density_block(_axis_density(
            WaveFunction(grid, sum(c.amplitudes
                                   for c in result.final_components)),
            SYSTEM_AXIS), SYSTEM_AXIS, sched.t_end),
        "trajectories": _trajectory_block(
            times, [probe, tr_ref.positions],
            ["full_wave_probe", "prepared_eigenstate_probe"]),
    }


def run_preparation_scenario(spec):
    if spec["kind"] != "preparation":
        raise SpecError("kind: expected preparation")
    t0 = _time.time()
    thr = spec["thresholds"]
    dx = _grid_of(spec).dxs[SYSTEM_AXIS]

    # reference: the prepared eigenstate alone, on the system axis
    s0 = np.array([[_probe_start(spec)[SYSTEM_AXIS]]], float)
    tr_ref = simulate_trajectories(_system_reference_record(spec, 0), s0)[0]
    metrics = _preparation_metrics(spec, tr_ref)
    twin = _preparation_metrics(_twin_spec(spec), tr_ref)

    verdicts = {}
    if metrics["r_env_close"] < thr["r_max"]:
        verdicts["stage1_decoherence"] = "pass"
    else:
        # downstream stages still run (they already did); flag the failure
        verdicts["stage1_decoherence"] = "fail"
        metrics["diagnostic"] = "apparatus not environment-dressed"
    gc = metrics["gate_close"]
    verdicts["stage2_pointer_separation"] = _vd(
        gc is not None and gc["lobe_gap_rel"] <= thr["lobe_gap_rel_max"])
    verdicts["stage3_preparation"] = _vd(
        metrics["deviation_max_stage3"] <= thr["deviation_max_dx"] * dx)
    verdicts["twin_steering"] = _vd(
        twin["deviation_max_stage3"] >= thr["twin_deviation_min_dx"] * dx)
    verdicts["density_identity"] = _vd(
        metrics["eq3_residual"] is not None
        and metrics["eq3_residual"] <= thr["eq3_max"])
    return _report(spec, t0, metrics, verdicts, twin)


# ---------------------------------------------------------------------------
# relaxation

def _box_modes_state(grid, n_modes, seed):
    """Equal-amplitude superposition of plane-wave modes with random phases."""
    rng = rng_for(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_modes, n_modes))
    amp = np.zeros(grid.shape, dtype=complex)
    xs = grid.mesh(0)
    ys = grid.mesh(1)
    for i in range(n_modes):
        for j in range(n_modes):
            kx = 2.0 * np.pi * (i + 1) / grid.lengths[0]
            ky = 2.0 * np.pi * (j + 1) / grid.lengths[1]
            amp += np.exp(1j * (kx * xs + ky * ys + phases[i, j]))
    return normalize(WaveFunction(grid, amp))


def run_relaxation_scenario(spec):
    if spec["kind"] != "relaxation":
        raise SpecError("kind: expected relaxation")
    t0 = _time.time()
    grid, params, sched, H = _simulation_of(spec)
    thr = spec["thresholds"]
    rx = spec["relaxation"]
    n = spec["ensemble"]["n_particles"]

    psi0 = _box_modes_state(grid, rx["modes"], spec["seed"])
    # non-equilibrium start: uniform over the configured sub-box
    rng = rng_for(spec["seed"] + 1)
    box = np.asarray(rx["subbox"], dtype=float)
    x0 = box[:, 0] + rng.random((n, grid.dims)) * (box[:, 1] - box[:, 0])
    # and the equilibrium control: Born-sampled
    bundles = [Bundle(x0), Bundle(sample_initial(psi0, n, spec["seed"] + 2))]

    def observer(t, psi, amps, positions):
        """The norm, and H(t) of each bundle."""
        return psi.norm(), [h_function(x, psi, rx["coarse_len"])
                            for x in positions]

    result = coevolve([psi0], H, sched, params, bundles, observer)
    norms, h = (np.asarray(c) for c in zip(*result.observations))
    h_series = h[:, 0].tolist()
    degenerate = float(np.mean(result.probe_degenerate[0]))

    metrics = {
        "times": result.times.tolist(),
        "h_series": h_series,
        "h_initial": h_series[0],
        "h_final": h_series[-1],
        "degenerate_fraction": degenerate,
        "n_particles": n,
        "norm_drift": float(np.max(np.abs(norms - norms[0]))),
        "density": _density_block(_axis_density(result.final_components[0], 0),
                                  0, sched.t_end),
        "trajectories": _some_paths(result.times, result.probe_paths[0]),
    }
    h_eq = metrics["h_eq_series"] = h[:, 1].tolist()
    # too few particles for either ensemble's H(t) to decide a verdict
    small = n < thr["min_particles"]
    verdicts = {"equilibrium_flat": "inconclusive" if small
                else _vd(max(h_eq) <= thr["eq_h_max"])}
    if small:
        metrics["diagnostic"] = "statistical insufficiency: ensemble too small"
        verdicts["relaxation"] = "inconclusive"
    else:
        verdicts["relaxation"] = _vd(
            h_series[-1] <= (1.0 - thr["h_drop_min"]) * h_series[0])
    verdicts["node_safety"] = _vd(degenerate < thr["degenerate_max_fraction"])
    return _report(spec, t0, metrics, verdicts)


# ---------------------------------------------------------------------------

_RUNNERS = {
    "interference": run_interference_scenario,
    "decoherence": run_decoherence_scenario,
    "measurement": run_measurement_scenario,
    "preparation": run_preparation_scenario,
    "relaxation": run_relaxation_scenario,
}


def run_scenario(spec):
    """Dispatch a validated spec to its runner; the report's runtime counts
    the run's clamps: guidance's `substep_caps`, `speed_caps` and
    `frozen_particles`."""
    kind = spec.get("kind")
    if kind not in _RUNNERS:
        raise SpecError(f"kind: unknown scenario kind {kind!r}")
    counters = ("substep_caps", "speed_caps", "frozen_particles")
    before = [getattr(guidance, name) for name in counters]
    report = _RUNNERS[kind](spec)
    for name, n in zip(counters, before):
        report.runtime[name] = getattr(guidance, name) - n
    return report

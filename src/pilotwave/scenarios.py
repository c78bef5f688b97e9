"""Pre-packaged experiments assembling fields/propagate/guidance/branches.

Each runner takes a validated ScenarioSpec and produces a ScenarioReport whose
verdicts are derivable from the recorded metrics and the echoed thresholds
alone.  Large runs use a streaming co-evolution engine: branch components are
stepped together and probes (single particles or whole ensembles) advance
between observation times, so no full snapshot record is ever materialized.

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
    FieldError, PhysicalParams, WaveFunction, make_grid, init_gaussian,
    normalize, density, marginal_density,
)
from .propagate import (
    HamiltonianSpec, MeasurementCoupling, PotentialTerm, Schedule,
    SplitOperator, EvolutionRecord, evolve, _observed_steps,
)
from .guidance import velocity_field, advance_group, simulate_trajectories
from .ensemble import (
    rng_for, sample_initial, run_ensemble, equivariance_test, h_function,
)
from .branches import (
    halfspace_mask, decompose, interference_term, overlap_factor,
    effective_wavefunction, occupancy_labels, single_branch_error,
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
    need_dims = {"interference": 1, "decoherence": 2, "measurement": 2,
                 "preparation": 3, "relaxation": 2}
    if ndim != need_dims[kind]:
        raise SpecError(f"grid: kind {kind!r} needs {need_dims[kind]} axes")
    if kind == "relaxation":
        if "relaxation" not in d:
            raise SpecError("relaxation: required block missing for this kind")
    else:
        if not d.get("packets"):
            raise SpecError("packets: at least one packet required")
        for i, p in enumerate(d["packets"]):
            for key in ("centers", "sigmas"):
                if len(p[key]) != ndim:
                    raise SpecError(f"packets.{i}.{key}: need {ndim} entries")
            if "momenta" in p and len(p["momenta"]) != ndim:
                raise SpecError(f"packets.{i}.momenta: need {ndim} entries")
        total = sum(p["coefficient"] ** 2 for p in d["packets"])
        if abs(total - 1.0) > 1e-9:
            raise SpecError("packets: squared coefficients must sum to 1")
    if kind in ("decoherence", "preparation"):
        if "env" not in d.get("couplings", {}):
            raise SpecError("couplings.env: required for this kind")
    if kind in ("measurement", "preparation"):
        if "gate" not in d.get("couplings", {}):
            raise SpecError("couplings.gate: required for this kind")
    if kind in ("interference", "measurement", "relaxation") and "ensemble" not in d:
        raise SpecError("ensemble: required for this kind")
    if kind != "interference" and kind != "relaxation":
        roles = d.get("roles", {})
        needed = {"decoherence": ("system_axis", "env_axis"),
                  "measurement": ("system_axis", "pointer_axis"),
                  "preparation": ("system_axis", "pointer_axis", "env_axis")}
        for key in needed[kind]:
            if key not in roles:
                raise SpecError(f"roles.{key}: required for kind {kind!r}")
            if not 0 <= roles[key] < ndim:
                raise SpecError(f"roles.{key}: axis out of range")
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
        for k in keys[:-1]:
            k = int(k) if isinstance(node, list) else k
            try:
                nxt = node[k]
            except (KeyError, IndexError, ValueError, TypeError):
                raise SpecError(f"override {path!r}: no such key {k!r}") from None
            node = nxt
        last = int(keys[-1]) if isinstance(node, list) else keys[-1]
        node[last] = value
    return d


def spec_hash(d):
    blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_spec(path, overrides=()):
    """Load, override, and validate a scenario spec file."""
    with open(path) as fh:
        d = json.load(fh)
    if overrides:
        d = apply_overrides(d, overrides)
    return validate_spec_dict(d)


def builtin_spec(kind, overrides=()):
    """One of the shipped, calibrated scenario spec files."""
    if kind not in KINDS:
        raise SpecError(f"kind: unknown scenario kind {kind!r}")
    with resources.files("pilotwave").joinpath(f"specs/{kind}.json").open() as fh:
        d = json.load(fh)
    if overrides:
        d = apply_overrides(d, overrides)
    return validate_spec_dict(d)


# ---------------------------------------------------------------------------
# spec -> simulation objects

def _grid_of(spec):
    return make_grid(spec["grid"])


def _params_of(spec):
    p = spec["physical"]
    return PhysicalParams(p.get("hbar", 1.0), tuple(p["masses"]))


def _schedule_of(spec):
    s = spec["schedule"]
    return Schedule(s["t_start"], s["t_end"], s["dt"], s.get("stride", 1))


def _potential_terms(spec):
    terms = []
    for t in spec.get("potentials", []):
        window = tuple(t["window"]) if t.get("window") else None
        terms.append(PotentialTerm.make(t["kind"], t["axes"], window=window,
                                        **t["params"]))
    env = spec.get("couplings", {}).get("env")
    if env is not None and env["strength"] != 0.0:
        terms.append(PotentialTerm.make(
            "linear_coupling", env["axes"],
            window=(env["t_on"], env["t_off"]), strength=env["strength"]))
    return tuple(terms)


def _hamiltonian_of(spec):
    gate = spec.get("couplings", {}).get("gate")
    coupling = None
    if gate is not None and gate["strength"] != 0.0:
        coupling = MeasurementCoupling(gate["source_axis"], gate["target_axis"],
                                       gate["strength"], gate["t_on"],
                                       gate["t_off"])
    return HamiltonianSpec(_potential_terms(spec), coupling)


def _components_of(spec, grid, params):
    """One (unnormalized) wave per packet: c_n times a unit Gaussian."""
    comps = []
    for p in spec["packets"]:
        psi = init_gaussian(grid, p["centers"], p["sigmas"],
                            p.get("momenta"), params=params)
        comps.append(WaveFunction(grid, p["coefficient"] * psi.amplitudes,
                                  psi.time))
    return comps


def _twin_spec(spec):
    """The lambda = 0 control: identical but with the env coupling off."""
    d = copy.deepcopy(spec)
    d["couplings"]["env"]["strength"] = 0.0
    return d


# ---------------------------------------------------------------------------
# streaming co-evolution engine

@dataclass
class ProbeGroup:
    """Particles guided by the sum of a subset of the evolving components."""

    x0s: np.ndarray            # (N, D)
    components: tuple          # indices into the component list


@dataclass
class StreamResult:
    times: np.ndarray                  # observation times
    probe_paths: list                  # per group: (T, N, D)
    probe_degenerate: list             # per group: (N,) bool
    observations: list                 # per observation: observer return value
    final_components: list             # WaveFunction per component


def coevolve(components, hamiltonian, schedule, params, probe_groups=(),
             observer=None):
    """Step all components through one schedule, advancing probes in stride.

    Components share the Hamiltonian (evolution is linear, so their sum is
    the full wave at all times).  Probes advance over each observation
    interval, guided by the summed wave of their component subset.  The
    observer, if given, is called at every observation time with
    (t, list of amplitude arrays) and its return values are collected.
    """
    grid = components[0].grid
    op = SplitOperator(grid, params, hamiltonian, schedule.dt)
    amps = [c.amplitudes for c in components]

    def vfield(comps, t):
        total = amps[comps[0]]
        for ci in comps[1:]:
            total = total + amps[ci]
        return velocity_field(WaveFunction(grid, total, t), params)

    groups = []
    for g in probe_groups:
        pts = grid.wrap(np.atleast_2d(np.asarray(g.x0s, dtype=float)))
        groups.append({"pts": pts, "comps": tuple(g.components),
                       "frozen": np.zeros(len(pts), dtype=bool),
                       "path": [pts], "vf": None})

    times, observations = [], []
    for i, t in _observed_steps(op, amps, schedule):
        for g in groups:
            vf1 = vfield(g["comps"], t)
            if i > 0:
                g["pts"] = advance_group(g["vf"], vf1, g["pts"], g["frozen"],
                                         hamiltonian.coupling, times[-1], t)
                g["path"].append(g["pts"])
            g["vf"] = vf1
        times.append(t)
        if observer is not None:
            observations.append(observer(t, amps))

    return StreamResult(
        times=np.asarray(times),
        probe_paths=[np.asarray(g["path"]) for g in groups],
        probe_degenerate=[g["frozen"] for g in groups],
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


def load_report(path):
    with open(path) as fh:
        d = json.load(fh)
    return ScenarioReport(kind=d["kind"], spec=d["spec"],
                          spec_hash=d["spec_hash"], metrics=d["metrics"],
                          verdicts=d["verdicts"], verdict=d["verdict"],
                          twin=d.get("twin"), runtime=d.get("runtime", {}),
                          artifacts=d.get("artifacts", []))


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


def _eq3_residual(psi, masks):
    """Max pointwise residual of rho = sum |b_i|^2 + cross terms."""
    branches = decompose(psi, masks)
    rho = np.abs(psi.amplitudes) ** 2
    acc = np.zeros_like(rho)
    for b in branches:
        acc += np.abs(b.wave.amplitudes) ** 2
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            fld, _ = interference_term(branches[i], branches[j])
            acc += fld
    return float(np.max(np.abs(rho - acc)))


def _order_preserved(positions):
    """1D no-crossing: initial sorted order is kept at every recorded time."""
    order = np.argsort(positions[0, :, 0])
    sorted_paths = positions[:, order, 0]
    return bool(np.all(np.diff(sorted_paths, axis=1) >= -1e-12))


def _lobe_metrics(marg, coords, split=0.0):
    """Masses of the two pointer lobes and the relative density at the split."""
    dx = coords[1] - coords[0]
    below = float(np.sum(marg[coords < split]) * dx)
    above = float(np.sum(marg[coords >= split]) * dx)
    i_split = int(np.argmin(np.abs(coords - split)))
    gap_rel = float(marg[i_split] / marg.max())
    return below, above, gap_rel


def _full_record(branch_records):
    """EvolutionRecord of the summed (full) wave, reusing branch snapshots."""
    r0 = branch_records[0]
    snaps = []
    for i in range(len(r0.snapshots)):
        total = r0.snapshots[i].copy()
        for r in branch_records[1:]:
            total += r.snapshots[i]
        snaps.append(total)
    norms = np.asarray([float(np.sqrt(np.sum(np.abs(a) ** 2) * r0.grid.dV))
                        for a in snaps])
    return EvolutionRecord(grid=r0.grid, params=r0.params,
                           hamiltonian=r0.hamiltonian, schedule=r0.schedule,
                           times=r0.times.copy(), snapshots=snaps,
                           norms=norms,
                           energies=np.full(len(snaps), np.nan))


def _probe_start(spec, default):
    probe = spec.get("probe", {})
    return list(probe.get("start", default))


def _density_block(psi, axis, t):
    """Plot-source block: 1D marginal density along one axis."""
    if psi.grid.dims == 1:
        marg = density(psi)
    else:
        marg = marginal_density(psi, (axis,))
    return {"axis": int(axis), "t": float(t),
            "x": psi.grid.axis_coords(axis).tolist(),
            "rho": marg.values.tolist()}


def _trajectory_block(times, paths, labels):
    """Plot-source block: a handful of labelled paths, each (T, D)."""
    return {"times": np.asarray(times).tolist(), "labels": list(labels),
            "paths": [np.asarray(p).tolist() for p in paths]}


def _some_paths(times, positions, k=8):
    """First k particle paths out of a bundle with shape (T, N, D)."""
    n = positions.shape[1]
    idx = list(range(min(k, n)))
    return _trajectory_block(times, [positions[:, j] for j in idx],
                             [f"particle_{j}" for j in idx])


# ---------------------------------------------------------------------------
# interference

def run_interference_scenario(spec):
    if spec["kind"] != "interference":
        raise SpecError("kind: expected interference")
    t0 = _time.time()
    grid = _grid_of(spec)
    params = _params_of(spec)
    sched = _schedule_of(spec)
    H = _hamiltonian_of(spec)
    thr = spec["thresholds"]
    dx = grid.dxs[0]

    comps = _components_of(spec, grid, params)
    recs = [evolve(c, H, sched, params) for c in comps]
    times = recs[0].times

    metrics = {"times": times.tolist()}
    verdicts = {}

    if len(comps) < 2:
        # degenerate spec: a single packet has nothing to interfere with
        metrics["l1_series"] = [0.0] * len(times)
        metrics["l1_peak"] = 0.0
        verdicts["overlap_reached"] = "inconclusive"
        return ScenarioReport(
            kind="interference", spec=spec, spec_hash=spec_hash(spec),
            metrics=metrics, verdicts=verdicts,
            runtime={"seconds": _time.time() - t0, "steps": sched.n_steps})

    l1 = []
    for i in range(len(times)):
        _, v = interference_term(recs[0].wave_at(i), recs[1].wave_at(i))
        l1.append(v)
    l1 = np.asarray(l1)
    i_peak = int(np.argmax(l1))
    metrics["l1_series"] = l1.tolist()
    metrics["l1_peak"] = float(l1[i_peak])
    metrics["t_peak"] = float(times[i_peak])

    full = _full_record(recs)
    metrics["norm_drift"] = float(np.max(np.abs(full.norms - full.norms[0])))

    if l1[i_peak] < thr["l1_floor"]:
        verdicts["overlap_reached"] = "inconclusive"
    else:
        verdicts["overlap_reached"] = "pass"
        # fringe spacing at the recombination snapshot, near the midpoint
        k_rel = abs(spec["packets"][0].get("momenta", [0.0])[0]
                    - spec["packets"][1].get("momenta", [0.0])[0]) / 2.0
        expected = np.pi * params.hbar / k_rel if k_rel > 0 else float("nan")
        rho = density(full.wave_at(i_peak)).values
        spacing = _fringe_spacing(rho, grid.axis_coords(0),
                                  window=4.0 * expected)
        metrics["fringe_spacing"] = spacing
        metrics["fringe_expected"] = float(expected)
        ok = np.isfinite(spacing) and \
            abs(spacing - expected) <= thr["fringe_rel_tol"] * expected
        verdicts["fringe_spacing"] = _vd(ok)
        verdicts["l1_peak"] = _vd(l1[i_peak] >= thr["l1_min"])

    # empty-branch steering: full-wave vs single-branch guidance
    x0 = _probe_start(spec, spec["packets"][0]["centers"])
    dev = single_branch_error(full, recs[0], x0)
    metrics["deviation_max"] = dev.max_deviation
    metrics["deviation_time"] = dev.time_of_max
    metrics["deviation_truncated"] = dev.truncated
    verdicts["empty_branch_steering"] = _vd(
        dev.max_deviation >= thr["deviation_min_dx"] * dx)

    # symmetry probe at the midpoint between the packets
    mid = 0.5 * (spec["packets"][0]["centers"][0]
                 + spec["packets"][1]["centers"][0])
    tr_mid = simulate_trajectories(full, np.array([[mid]]))[0]
    sym_dev = float(np.max(np.abs(tr_mid.positions[:, 0] - mid)))
    metrics["symmetry_max_dev"] = sym_dev
    verdicts["symmetry"] = _vd(sym_dev <= thr["symmetry_max_dx"] * dx)

    # equilibrium ensemble: no-crossing, node safety, equivariance
    n = spec["ensemble"]["n_particles"]
    ens = run_ensemble(full, n, spec["seed"],
                       stride=spec["ensemble"].get("stride", 1))
    metrics["degenerate_fraction"] = ens.degenerate_fraction()
    metrics["order_preserved"] = _order_preserved(ens.positions)
    verdicts["no_crossing"] = _vd(metrics["order_preserved"])
    verdicts["node_safety"] = _vd(
        ens.degenerate_fraction() < thr["degenerate_max_fraction"])
    eq = equivariance_test(ens, full)
    metrics["equivariance"] = {
        "times": eq.times.tolist(), "tv": eq.tv.tolist(),
        "band_mean": eq.tv_band_mean.tolist(),
        "band_sigma": eq.tv_band_sigma.tolist(),
        "p_value": [None if np.isnan(p) else float(p) for p in eq.p_value],
    }
    verdicts["equivariance"] = _vd(eq.within_band(thr["equivariance_n_sigma"]))

    metrics["density"] = _density_block(full.wave_at(i_peak), 0,
                                        times[i_peak])
    metrics["trajectories"] = _some_paths(ens.times, ens.positions)

    # density identity on a halfspace decomposition at the start
    masks = [halfspace_mask(grid, 0, mid, "below", "left"),
             halfspace_mask(grid, 0, mid, "above", "right")]
    metrics["eq3_residual"] = _eq3_residual(full.wave_at(0), masks)
    verdicts["density_identity"] = _vd(metrics["eq3_residual"] <= thr["eq3_max"])

    return ScenarioReport(
        kind="interference", spec=spec, spec_hash=spec_hash(spec),
        metrics=metrics, verdicts=verdicts,
        runtime={"seconds": _time.time() - t0, "steps": sched.n_steps},
    )


# ---------------------------------------------------------------------------
# decoherence

def _decoherence_metrics(spec):
    """Branch evolution, r(t), L1(t), and the single-branch deviation."""
    grid = _grid_of(spec)
    params = _params_of(spec)
    sched = _schedule_of(spec)
    H = _hamiltonian_of(spec)
    env_axis = spec["roles"]["env_axis"]

    comps = _components_of(spec, grid, params)
    recs = [evolve(c, H, sched, params) for c in comps]
    times = recs[0].times

    r_series, l1_series = [], []
    for i in range(len(times)):
        w1, w2 = recs[0].wave_at(i), recs[1].wave_at(i)
        r_series.append(overlap_factor(w1, w2, (env_axis,)))
        _, v = interference_term(w1, w2)
        l1_series.append(v)
    r_series = np.asarray(r_series)
    l1_series = np.asarray(l1_series)

    env = spec["couplings"]["env"]
    i_gate = int(np.searchsorted(times, env["t_off"] - 1e-12))
    i_gate = min(i_gate, len(times) - 1)
    i_rec = int(np.argmax(l1_series))

    full = _full_record(recs)
    x0 = _probe_start(spec, spec["packets"][0]["centers"])
    dev = single_branch_error(full, recs[0], x0)

    sys_axis = spec["roles"]["system_axis"]
    mid = 0.5 * (spec["packets"][0]["centers"][sys_axis]
                 + spec["packets"][1]["centers"][sys_axis])
    masks = [halfspace_mask(grid, sys_axis, mid, "below", "left"),
             halfspace_mask(grid, sys_axis, mid, "above", "right")]
    eq3 = _eq3_residual(full.wave_at(0), masks)

    return {
        "times": times.tolist(),
        "r_series": r_series.tolist(),
        "l1_series": l1_series.tolist(),
        "r_gate_close": float(r_series[i_gate]),
        "t_gate_close": float(times[i_gate]),
        "l1_recombination": float(l1_series[i_rec]),
        "t_recombination": float(times[i_rec]),
        "deviation_max": dev.max_deviation,
        "deviation_time": dev.time_of_max,
        "deviation_truncated": dev.truncated,
        "deviation_series": dev.deviations.tolist(),
        "norm_drift": float(np.max(np.abs(full.norms - full.norms[0]))),
        "eq3_residual": eq3,
        "density": _density_block(full.wave_at(i_rec), sys_axis,
                                  times[i_rec]),
        "trajectories": _trajectory_block(
            dev.full.times, [dev.full.positions, dev.branch.positions],
            ["full_wave_probe", "single_branch_probe"]),
    }


def run_decoherence_scenario(spec):
    if spec["kind"] != "decoherence":
        raise SpecError("kind: expected decoherence")
    t0 = _time.time()
    thr = spec["thresholds"]
    dx = _grid_of(spec).dxs[spec["roles"]["system_axis"]]

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
    sched = _schedule_of(spec)
    return ScenarioReport(
        kind="decoherence", spec=spec, spec_hash=spec_hash(spec),
        metrics=metrics, verdicts=verdicts, twin=twin,
        runtime={"seconds": _time.time() - t0, "steps": 2 * sched.n_steps},
    )


# ---------------------------------------------------------------------------
# measurement

def _system_reference_record(spec, packet_index, sched=None):
    """1D record of one system packet evolved under the system axis alone."""
    sys_axis = spec["roles"]["system_axis"]
    gspec = [spec["grid"][sys_axis]]
    grid1 = make_grid(gspec)
    params1 = PhysicalParams(spec["physical"].get("hbar", 1.0),
                             (spec["physical"]["masses"][sys_axis],))
    p = spec["packets"][packet_index]
    psi = init_gaussian(grid1, [p["centers"][sys_axis]],
                        [p["sigmas"][sys_axis]],
                        [p.get("momenta", [0.0] * len(p["centers"]))[sys_axis]],
                        params=params1)
    terms = []
    for t in spec.get("potentials", []):
        if tuple(t["axes"]) == (sys_axis,):
            window = tuple(t["window"]) if t.get("window") else None
            terms.append(PotentialTerm.make(t["kind"], (0,), window=window,
                                            **t["params"]))
    H1 = HamiltonianSpec(tuple(terms))
    return evolve(psi, H1, sched or _schedule_of(spec), params1)


def run_measurement_scenario(spec):
    if spec["kind"] != "measurement":
        raise SpecError("kind: expected measurement")
    t0 = _time.time()
    grid = _grid_of(spec)
    params = _params_of(spec)
    sched = _schedule_of(spec)
    H = _hamiltonian_of(spec)
    thr = spec["thresholds"]
    ptr = spec["roles"]["pointer_axis"]

    comps = _components_of(spec, grid, params)
    full0 = WaveFunction(grid, sum(c.amplitudes for c in comps))
    n = spec["ensemble"]["n_particles"]
    x0s = sample_initial(full0, n, spec["seed"])

    result = coevolve([full0], H, sched, params,
                      probe_groups=[ProbeGroup(x0s, (0,))])
    psi_end = result.final_components[0]
    positions = result.probe_paths[0]           # (T, N, 2)
    degenerate = result.probe_degenerate[0]

    metrics = {"times": result.times.tolist()}
    verdicts = {}

    # pointer marginal lobes at the end
    marg = marginal_density(psi_end, (ptr,))
    a = grid.axis_coords(ptr)
    below, above, gap_rel = _lobe_metrics(marg.values, a, split=0.0)
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
        s_c = p["centers"][spec["roles"]["system_axis"]]
        side = "below" if sgn * s_c < 0 else "above"
        masks.append(halfspace_mask(grid, ptr, 0.0, side, f"R{side}"))

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
        a_rep = float(np.median(occupants[:, ptr]))
        eff = effective_wavefunction(psi_end, (ptr,), (a_rep,))
        ref_rec = _system_reference_record(spec, i)
        ref = normalize(ref_rec.wave_at(-1))
        fid = float(abs(np.vdot(eff.amplitudes, ref.amplitudes))
                    * eff.grid.dV)
        metrics["fidelity"][m.label] = fid
        if fid < thr["fidelity_min"]:
            fidelity_ok = False
    verdicts["born_occupancy"] = _vd(occupancy_ok)
    verdicts["effective_fidelity"] = _vd(fidelity_ok)

    metrics["degenerate_fraction"] = float(np.mean(degenerate))
    verdicts["node_safety"] = _vd(
        metrics["degenerate_fraction"] < thr["degenerate_max_fraction"])

    metrics["density"] = _density_block(psi_end, ptr, sched.t_end)
    metrics["trajectories"] = _some_paths(result.times, positions)

    # identity check on a proper pointer-axis partition (occupancy masks may
    # coincide for single-packet specs)
    part = [halfspace_mask(grid, ptr, 0.0, "below", "lo"),
            halfspace_mask(grid, ptr, 0.0, "above", "hi")]
    metrics["eq3_residual"] = _eq3_residual(psi_end, part)
    verdicts["density_identity"] = _vd(metrics["eq3_residual"] <= thr["eq3_max"])

    metrics["norm_end"] = float(psi_end.norm())

    return ScenarioReport(
        kind="measurement", spec=spec, spec_hash=spec_hash(spec),
        metrics=metrics, verdicts=verdicts,
        runtime={"seconds": _time.time() - t0, "steps": sched.n_steps},
    )


# ---------------------------------------------------------------------------
# preparation

def _preparation_metrics(spec):
    grid = _grid_of(spec)
    params = _params_of(spec)
    sched = _schedule_of(spec)
    H = _hamiltonian_of(spec)
    roles = spec["roles"]
    s_ax, a_ax, e_ax = roles["system_axis"], roles["pointer_axis"], roles["env_axis"]
    gate = spec["couplings"]["gate"]

    comps = _components_of(spec, grid, params)
    x0 = np.asarray(_probe_start(spec, spec["packets"][0]["centers"]), float)

    obs_state = {"a_coords": grid.axis_coords(a_ax), "gate_close": None,
                 "eq3": None}

    def observer(t, amps):
        w1 = WaveFunction(grid, amps[0], t)
        w2 = WaveFunction(grid, amps[1], t)
        r = overlap_factor(w1, w2, (e_ax,))
        _, l1 = interference_term(w1, w2)
        row = {"t": t, "r": r, "l1": l1}
        if obs_state["gate_close"] is None and t >= gate["t_off"]:
            total = WaveFunction(grid, amps[0] + amps[1], t)
            marg = marginal_density(total, (a_ax,))
            below, above, gap = _lobe_metrics(marg.values,
                                              obs_state["a_coords"])
            masks = [halfspace_mask(grid, a_ax, 0.0, "below", "lo"),
                     halfspace_mask(grid, a_ax, 0.0, "above", "hi")]
            obs_state["eq3"] = _eq3_residual(total, masks)
            obs_state["gate_close"] = {
                "t": t, "lobe_mass_below": below, "lobe_mass_above": above,
                "lobe_gap_rel": gap}
        return row

    result = coevolve(comps, H, sched, params,
                      probe_groups=[ProbeGroup(x0[None, :], (0, 1))],
                      observer=observer)

    # reference: the prepared eigenstate alone, on the system axis
    ref_rec = _system_reference_record(spec, 0, sched)
    s0 = np.array([[x0[s_ax]]])
    tr_ref = simulate_trajectories(ref_rec, s0)[0]

    times = result.times
    s_full = result.probe_paths[0][:, 0, s_ax]
    # align reference trajectory times (same schedule/stride, same times)
    s_ref = tr_ref.positions[:, 0]
    L = grid.lengths[s_ax]
    dev = np.abs((s_full - s_ref + L / 2.0) % L - L / 2.0)
    post = times >= gate["t_off"]

    env = spec["couplings"]["env"]
    r_series = np.asarray([row["r"] for row in result.observations])
    i_env = int(np.searchsorted(times, env["t_off"] - 1e-12))
    i_env = min(i_env, len(times) - 1)

    return {
        "times": times.tolist(),
        "r_series": r_series.tolist(),
        "l1_series": [row["l1"] for row in result.observations],
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
        "density": _density_block(
            WaveFunction(grid, sum(c.amplitudes
                                   for c in result.final_components)),
            s_ax, sched.t_end),
        "trajectories": _trajectory_block(
            times, [result.probe_paths[0][:, 0], tr_ref.positions],
            ["full_wave_probe", "prepared_eigenstate_probe"]),
    }


def run_preparation_scenario(spec):
    if spec["kind"] != "preparation":
        raise SpecError("kind: expected preparation")
    t0 = _time.time()
    thr = spec["thresholds"]
    grid = _grid_of(spec)
    dx = grid.dxs[spec["roles"]["system_axis"]]

    metrics = _preparation_metrics(spec)
    twin = _preparation_metrics(_twin_spec(spec))

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

    sched = _schedule_of(spec)
    return ScenarioReport(
        kind="preparation", spec=spec, spec_hash=spec_hash(spec),
        metrics=metrics, verdicts=verdicts, twin=twin,
        runtime={"seconds": _time.time() - t0, "steps": 2 * sched.n_steps},
    )


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
    grid = _grid_of(spec)
    params = _params_of(spec)
    sched = _schedule_of(spec)
    thr = spec["thresholds"]
    rx = spec["relaxation"]
    n = spec["ensemble"]["n_particles"]
    coarse_len = rx["coarse_len"]

    psi0 = _box_modes_state(grid, rx["modes"], spec["seed"])
    H = _hamiltonian_of(spec)
    rec = evolve(psi0, H, sched, params)

    # non-equilibrium start: uniform over the configured sub-box
    rng = rng_for(spec["seed"] + 1)
    box = np.asarray(rx["subbox"], dtype=float)
    x0 = box[:, 0] + rng.random((n, grid.dims)) * (box[:, 1] - box[:, 0])
    trajs = simulate_trajectories(rec, x0)
    positions = np.stack([tr.positions for tr in trajs], axis=1)
    degenerate = float(np.mean([tr.degenerate for tr in trajs]))

    h_series = [h_function(positions[i], rec.wave_at(i), coarse_len)
                for i in range(len(rec.times))]

    metrics = {
        "times": rec.times.tolist(),
        "h_series": h_series,
        "h_initial": h_series[0],
        "h_final": h_series[-1],
        "degenerate_fraction": degenerate,
        "n_particles": n,
        "norm_drift": float(np.max(np.abs(rec.norms - rec.norms[0]))),
        "density": _density_block(rec.wave_at(-1), 0, sched.t_end),
        "trajectories": _some_paths(rec.times, positions),
    }
    verdicts = {}

    if rx.get("equilibrium_control", True):
        xeq = sample_initial(psi0, n, spec["seed"] + 2)
        eq_trajs = simulate_trajectories(rec, xeq)
        eq_pos = np.stack([tr.positions for tr in eq_trajs], axis=1)
        h_eq = [h_function(eq_pos[i], rec.wave_at(i), coarse_len)
                for i in range(len(rec.times))]
        metrics["h_eq_series"] = h_eq
        verdicts["equilibrium_flat"] = _vd(max(h_eq) <= thr["eq_h_max"])

    if n < thr["min_particles"]:
        metrics["diagnostic"] = "statistical insufficiency: ensemble too small"
        verdicts["relaxation"] = "inconclusive"
    else:
        verdicts["relaxation"] = _vd(
            h_series[-1] <= (1.0 - thr["h_drop_min"]) * h_series[0])
    verdicts["node_safety"] = _vd(degenerate < thr["degenerate_max_fraction"])

    return ScenarioReport(
        kind="relaxation", spec=spec, spec_hash=spec_hash(spec),
        metrics=metrics, verdicts=verdicts,
        runtime={"seconds": _time.time() - t0, "steps": sched.n_steps},
    )


# ---------------------------------------------------------------------------

_RUNNERS = {
    "interference": run_interference_scenario,
    "decoherence": run_decoherence_scenario,
    "measurement": run_measurement_scenario,
    "preparation": run_preparation_scenario,
    "relaxation": run_relaxation_scenario,
}


def run_scenario(spec):
    """Dispatch a validated spec to its runner."""
    kind = spec.get("kind")
    if kind not in _RUNNERS:
        raise SpecError(f"kind: unknown scenario kind {kind!r}")
    return _RUNNERS[kind](spec)

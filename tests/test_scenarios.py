import json
import re
import tracemalloc

import numpy as np
import pytest

from pilotwave import guidance
from pilotwave.branches import decompose, halfspace_mask, interference_term
from pilotwave.fields import WaveFunction, make_grid, init_gaussian, density
from pilotwave.propagate import (
    HamiltonianSpec, MeasurementCoupling, PotentialTerm, Schedule, evolve,
)
from pilotwave.scenarios import (
    KINDS, DEFAULT_THRESHOLDS, SpecError,
    validate_spec_dict, apply_overrides, spec_hash, load_spec, builtin_spec,
    Bundle, coevolve, overall_verdict,
    run_interference_scenario, run_decoherence_scenario,
    run_measurement_scenario, run_relaxation_scenario,
    run_preparation_scenario, run_scenario, _eq3_residual, _hamiltonian_of,
    _twin_spec,
)

FAST_INTERFERENCE = (
    "grid.0.points=512", "ensemble.n_particles=2000",
    "schedule.t_end=2.0", "schedule.stride=10",
)
FAST_DECOHERENCE = (
    "grid.0.points=256", "grid.1.points=64",
    "schedule.dt=0.004", "schedule.stride=20",
)
FAST_MEASUREMENT = (
    "grid.0.points=128", "grid.1.points=128", "ensemble.n_particles=2000",
)


# ---------------------------------------------------------------------------
# spec validation / overrides / hashing

class TestSpecValidation:
    def test_builtin_specs_all_validate(self):
        for kind in KINDS:
            spec = builtin_spec(kind)
            assert spec["kind"] == kind
            assert set(DEFAULT_THRESHOLDS[kind]) <= set(spec["thresholds"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            builtin_spec("teleportation")

    def test_missing_packets_rejected(self):
        d = builtin_spec("interference")
        del d["packets"]
        with pytest.raises(SpecError, match="packets"):
            validate_spec_dict(d)

    def test_unnormalized_coefficients_rejected(self):
        d = builtin_spec("interference")
        d["packets"][0]["coefficient"] = 0.9
        with pytest.raises(SpecError, match="coefficients"):
            validate_spec_dict(d)

    def test_wrong_dimensionality_rejected(self):
        d = builtin_spec("decoherence")
        d["kind"] = "interference"
        with pytest.raises(SpecError, match="grid"):
            validate_spec_dict(d)

    def test_missing_env_coupling_rejected(self):
        d = builtin_spec("decoherence")
        del d["couplings"]["env"]
        with pytest.raises(SpecError, match="couplings.env"):
            validate_spec_dict(d)

    def test_unknown_threshold_rejected(self):
        d = builtin_spec("interference")
        d["thresholds"] = {"frobnication_max": 1.0}
        with pytest.raises(SpecError, match="thresholds.frobnication_max"):
            validate_spec_dict(d)

    def test_nonpositive_threshold_rejected(self):
        d = builtin_spec("interference")
        d["thresholds"] = {"l1_min": 0.0}
        with pytest.raises(SpecError, match="thresholds.l1_min"):
            validate_spec_dict(d)

    def test_threshold_override_merged_with_defaults(self):
        d = builtin_spec("interference", ("thresholds={\"l1_min\": 0.2}",))
        assert d["thresholds"]["l1_min"] == 0.2
        assert d["thresholds"]["fringe_rel_tol"] == \
            DEFAULT_THRESHOLDS["interference"]["fringe_rel_tol"]

    def test_schema_rejects_unknown_top_level_key(self):
        d = builtin_spec("interference")
        d["extra"] = 1
        with pytest.raises(SpecError, match="extra"):
            validate_spec_dict(d)

    # inputs every run used with one value are gone: hbar = 1, the probe
    # starts at packet 0's center, potentials are static and quadratic, and
    # the kind fixes the axis layout and interference's ensemble stride
    @pytest.mark.parametrize("kind, key, value, path", [
        ("interference", "physical.hbar", 1.0, r"physical: .*'hbar'"),
        ("interference", "probe", {"start": [-5.0]}, r"\(root\): .*'probe'"),
        ("preparation", "potentials.0.window", None,
         r"potentials\.0: .*'window'"),
        ("preparation", "potentials.0.kind", "gaussian_barrier",
         r"potentials\.0\.kind: 'gaussian_barrier'"),
        ("preparation", "potentials.0.kind", "custom_grid",
         r"potentials\.0\.kind: 'custom_grid'"),
        ("preparation", "roles",
         {"system_axis": 0, "pointer_axis": 1, "env_axis": 2},
         r"\(root\): .*'roles'"),
        ("measurement", "couplings.gate.source_axis", 0,
         r"couplings\.gate: .*'source_axis'"),
        ("measurement", "couplings.gate.target_axis", 1,
         r"couplings\.gate: .*'target_axis'"),
        ("decoherence", "couplings.env.axes", [0, 1],
         r"couplings\.env: .*'axes'"),
        ("interference", "ensemble.stride", 5, r"ensemble: .*'stride'"),
    ])
    def test_removed_inputs_rejected(self, kind, key, value, path):
        d = apply_overrides(builtin_spec(kind),
                            (f"{key}={json.dumps(value)}",))
        with pytest.raises(SpecError, match=path):
            validate_spec_dict(d)

    @pytest.mark.parametrize("kind", ["interference", "decoherence",
                                      "measurement", "preparation"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_packet_count_rejected(self, kind, count):
        # the two-packet analyses read packets 0 and 1, and no others
        d = builtin_spec(kind)
        packet = d["packets"][0]
        d["packets"] = [dict(packet, coefficient=count ** -0.5)
                        for _ in range(count)]
        with pytest.raises(SpecError, match=r"^packets: .* needs 2 packets, "
                           f"got {count}$"):
            validate_spec_dict(d)

    def test_measurement_packets_on_one_side_rejected(self):
        # both would land on one side of the pointer and share its label
        d = builtin_spec("measurement")
        d["packets"][1]["centers"][0] = -2.0
        with pytest.raises(SpecError, match=r"^packets: .* opposite sides"):
            validate_spec_dict(d)

    @pytest.mark.parametrize("kind, key, value", [
        ("decoherence", "ensemble", {"n_particles": 100}),
        ("preparation", "ensemble", {"n_particles": 100}),
        ("relaxation", "packets",
         [{"coefficient": 1.0, "centers": [0.0, 0.0], "sigmas": [1.0, 1.0]}]),
        ("interference", "relaxation",
         {"modes": 2, "subbox": [[0.0, 1.0]], "coarse_len": 0.5}),
        ("interference", "couplings", {}),
        ("decoherence", "couplings.gate",
         {"strength": 1.0, "t_on": 0.0, "t_off": 0.1}),
        ("measurement", "couplings.env",
         {"strength": 1.0, "t_on": 0.0, "t_off": 0.1}),
    ])
    def test_block_not_taken_rejected(self, kind, key, value):
        d = apply_overrides(builtin_spec(kind),
                            (f"{key}={json.dumps(value)}",))
        with pytest.raises(SpecError, match=rf"^{re.escape(key)}: not taken "
                           f"by kind '{kind}'$"):
            validate_spec_dict(d)

    # system axis 0, pointer axis 1, environment the last axis; the gate
    # couples system -> pointer, the env term binds the environment and the
    # axis before it
    @pytest.mark.parametrize("kind, H", [
        ("decoherence", HamiltonianSpec((PotentialTerm.make(
            "linear_coupling", (0, 1), window=(0.0, 0.3), strength=2.0),))),
        ("measurement", HamiltonianSpec(
            (), MeasurementCoupling(0, 1, 10.0, 0.2, 0.25))),
        ("preparation", HamiltonianSpec(
            (PotentialTerm.make("harmonic", (0,), omega=1.0),
             PotentialTerm.make("harmonic", (1,), omega=1.0),
             PotentialTerm.make("linear_coupling", (1, 2), window=(0.0, 0.3),
                                strength=5.0)),
            MeasurementCoupling(0, 1, 6.0, 0.35, 0.4))),
    ])
    def test_kind_fixes_the_axes(self, kind, H):
        assert _hamiltonian_of(builtin_spec(kind)) == H


class TestOverridesAndHash:
    def test_dotted_override_with_list_index(self):
        d = {"a": [{"b": 1}, {"b": 2}]}
        out = apply_overrides(d, ("a.1.b=7",))
        assert out["a"][1]["b"] == 7
        assert d["a"][1]["b"] == 2     # input untouched

    def test_override_values_parsed_as_json(self):
        d = {"x": None}
        assert apply_overrides(d, ("x=1.5",))["x"] == 1.5
        assert apply_overrides(d, ("x=true",))["x"] is True
        assert apply_overrides(d, ("x=[1,2]",))["x"] == [1, 2]
        assert apply_overrides(d, ("x=hello",))["x"] == "hello"

    def test_override_bad_path_rejected(self):
        with pytest.raises(SpecError, match="no such key"):
            apply_overrides({"a": {}}, ("a.b.c=1",))

    @pytest.mark.parametrize("item", [
        "grid.5=1", "packets.0.centers.3=1", "seed.x=1", "grid.a=1"])
    def test_override_bad_last_key_rejected(self, item):
        # a list index out of range or not an integer, or a key into a scalar
        with pytest.raises(SpecError, match="no such key"):
            apply_overrides(builtin_spec("interference"), (item,))

    def test_override_without_equals_rejected(self):
        with pytest.raises(SpecError, match="key=value"):
            apply_overrides({}, ("a.b",))

    def test_hash_changes_with_content_not_key_order(self):
        d1 = {"b": 2, "a": 1}
        d2 = {"a": 1, "b": 2}
        assert spec_hash(d1) == spec_hash(d2)
        assert spec_hash(d1) != spec_hash({"a": 1, "b": 3})

    def test_load_spec_applies_overrides_before_validation(self, tmp_path):
        p = tmp_path / "s.json"
        raw = builtin_spec("interference")
        del raw["thresholds"]
        p.write_text(json.dumps(raw))
        spec = load_spec(p, ("seed=7", "ensemble.n_particles=11"))
        assert spec["seed"] == 7
        assert spec["ensemble"]["n_particles"] == 11

    def test_twin_spec_only_disables_env(self):
        spec = builtin_spec("decoherence")
        twin = _twin_spec(spec)
        assert twin["couplings"]["env"]["strength"] == 0.0
        twin["couplings"]["env"]["strength"] = spec["couplings"]["env"]["strength"]
        assert twin == spec


# ---------------------------------------------------------------------------
# streaming co-evolution engine

class TestCoevolve:
    def test_matches_batch_evolution(self):
        g = make_grid([{"points": 128, "lo": -16.0, "hi": 16.0}])
        from pilotwave.fields import PhysicalParams
        params = PhysicalParams((1.0,))
        psi = init_gaussian(g, [-2.0], [1.0], [1.0])
        H = HamiltonianSpec(())
        sched = Schedule(0.0, 0.5, 0.005, 10)
        rec = evolve(psi, H, sched, params)
        res = coevolve([psi], H, sched, params,
                       [Bundle(np.array([[-2.0]]))])
        assert np.max(np.abs(res.final_components[0].amplitudes
                             - rec.wave_at(-1).amplitudes)) <= 1e-12

    def test_component_sum_is_linear(self):
        g = make_grid([{"points": 128, "lo": -16.0, "hi": 16.0}])
        from pilotwave.fields import PhysicalParams
        params = PhysicalParams((1.0,))
        pa = init_gaussian(g, [-3.0], [1.0], [1.0])
        pb = init_gaussian(g, [3.0], [1.0], [-1.0])
        total = WaveFunction(g, (pa.amplitudes + pb.amplitudes) / np.sqrt(2))
        H = HamiltonianSpec(())
        sched = Schedule(0.0, 0.5, 0.005, 10)
        res = coevolve([pa, pb], H, sched, params,
                       [Bundle(np.array([[0.0]]))])
        rec = evolve(total, H, sched, params)
        summed = (res.final_components[0].amplitudes
                  + res.final_components[1].amplitudes) / np.sqrt(2)
        assert np.max(np.abs(summed - rec.wave_at(-1).amplitudes)) <= 1e-10

    def test_probe_follows_wave(self):
        # packet moving at v = p/m: the probe at its center rides along
        g = make_grid([{"points": 256, "lo": -16.0, "hi": 16.0}])
        from pilotwave.fields import PhysicalParams
        params = PhysicalParams((1.0,))
        psi = init_gaussian(g, [-4.0], [1.0], [2.0])
        sched = Schedule(0.0, 2.0, 0.005, 20)
        res = coevolve([psi], HamiltonianSpec(()), sched, params,
                       [Bundle(np.array([[-4.0]]))])
        end = res.probe_paths[0][-1, 0, 0]
        assert end == pytest.approx(0.0, abs=0.05)


# ---------------------------------------------------------------------------
# verdict logic

class TestVerdicts:
    def test_overall_precedence(self):
        assert overall_verdict({"a": "pass", "b": "pass"}) == "pass"
        assert overall_verdict({"a": "pass", "b": "inconclusive"}) == "inconclusive"
        assert overall_verdict({"a": "inconclusive", "b": "fail"}) == "fail"

    def test_runner_rejects_mismatched_kind(self):
        spec = builtin_spec("interference", FAST_INTERFERENCE)
        with pytest.raises(SpecError, match="kind"):
            run_decoherence_scenario(spec)

    def test_run_scenario_dispatch_unknown(self):
        with pytest.raises(SpecError, match="kind"):
            run_scenario({"kind": "nope"})


class TestEq3Residual:
    """The density identity's residual, taken slab by slab, is the one of
    the full-grid branches that `decompose` forms."""

    @staticmethod
    def full_grid(psi, axis, split):
        lo, hi = decompose(psi, [halfspace_mask(psi.grid, axis, split, side)
                                 for side in ("below", "above")])
        acc = np.abs(lo.wave.amplitudes) ** 2 + np.abs(hi.wave.amplitudes) ** 2
        acc += interference_term(lo.wave, hi.wave)[0]
        return float(np.max(np.abs(np.abs(psi.amplitudes) ** 2 - acc)))

    @pytest.mark.parametrize("shape,axis", [((40,), 0), ((24, 20), 0),
                                            ((12, 16, 10), 1)])
    def test_matches_full_grid_branches(self, shape, axis):
        g = make_grid([{"points": n, "lo": -3.0, "hi": 4.0} for n in shape])
        rng = np.random.default_rng(9)
        amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        nan = amp.copy()
        nan.flat[7] = np.nan
        for a in (amp, nan):
            psi = WaveFunction(g, a)
            got, want = _eq3_residual(psi, axis, 0.4), self.full_grid(psi, axis, 0.4)
            assert np.array_equal(np.float64(got).view(np.int64),
                                  np.float64(want).view(np.int64))

    def test_holds_no_full_grid_array(self):
        g = make_grid([{"points": n, "lo": -4.0, "hi": 4.0} for n in (64, 64, 32)])
        rng = np.random.default_rng(10)
        psi = WaveFunction(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        tracemalloc.start()
        try:
            _eq3_residual(psi, 1, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < psi.amplitudes.nbytes / 4, peak


# ---------------------------------------------------------------------------
# runners (downscaled)

@pytest.fixture(scope="module")
def interference_report():
    return run_interference_scenario(builtin_spec("interference",
                                                  FAST_INTERFERENCE))


class TestInterferenceScenario:
    def test_substep_caps_counted(self, caplog, monkeypatch):
        # the interference benchmark workload at its seed: two intervals
        # need more than MAX_SUBSTEPS (256)
        spec = builtin_spec("interference", ("ensemble.n_particles=1000",
                                             "seed=20250824"))
        made = []
        local_field = guidance.local_field
        monkeypatch.setattr(guidance, "local_field",
                            lambda *a: made.append(1) or local_field(*a))
        with caplog.at_level("WARNING", logger="pilotwave.guidance"):
            report = run_scenario(spec)
        needs = [int(re.search(r"needs (\d+) substeps", r.getMessage())[1])
                 for r in caplog.records]
        assert needs == [731, 384]
        assert report.runtime["substep_caps"] == 2
        assert report.to_dict()["runtime"]["substep_caps"] == 2
        # no stage outruns the nodal speed cap, and no particle freezes
        assert report.runtime["speed_caps"] == 0
        assert report.runtime["frozen_particles"] == 0
        # 251 observations: the full-wave and symmetry probes share one
        # probe-local field, the branch probe reads its own
        assert len(made) == 2 * 251

    def test_clamp_counters_per_run(self, monkeypatch):
        # with cells below 1e-2 of the peak nodal, one particle freezes;
        # each run reports its own count
        monkeypatch.setattr(guidance, "EPS_NODE", 1e-2)
        spec = builtin_spec("interference", (
            "grid.0.points=512", "ensemble.n_particles=200",
            "schedule.t_end=1.0", "schedule.stride=10"))
        before = guidance.frozen_particles
        runs = [run_scenario(spec).runtime for _ in range(2)]
        assert [r["frozen_particles"] for r in runs] == [1, 1]
        assert guidance.frozen_particles - before == 2
        assert all(r["speed_caps"] == 0 for r in runs)

    def test_passes(self, interference_report):
        assert interference_report.verdict == "pass", \
            interference_report.verdicts

    def test_verdicts_derivable_from_metrics(self, interference_report):
        rep = interference_report
        thr = rep.spec["thresholds"]
        dx = 40.0 / rep.spec["grid"][0]["points"]
        assert rep.verdicts["l1_peak"] == (
            "pass" if rep.metrics["l1_peak"] >= thr["l1_min"] else "fail")
        assert rep.verdicts["empty_branch_steering"] == (
            "pass" if rep.metrics["deviation_max"]
            >= thr["deviation_min_dx"] * dx else "fail")

    def test_fringe_spacing_near_expected(self, interference_report):
        m = interference_report.metrics
        assert m["fringe_spacing"] == pytest.approx(
            m["fringe_expected"], rel=0.10)

    def test_report_round_trip(self, interference_report, tmp_path):
        p = tmp_path / "report.json"
        interference_report.save(p)
        back = json.loads(p.read_text())
        assert back["verdicts"] == interference_report.verdicts
        assert back["spec_hash"] == interference_report.spec_hash
        assert back["metrics"]["l1_peak"] == \
            interference_report.metrics["l1_peak"]

    def test_deterministic_rerun(self, interference_report):
        rerun = run_interference_scenario(
            builtin_spec("interference", FAST_INTERFERENCE))
        for key in ("l1_peak", "fringe_spacing", "deviation_max",
                    "symmetry_max_dev", "eq3_residual", "degenerate_fraction"):
            assert abs(rerun.metrics[key]
                       - interference_report.metrics[key]) <= 1e-12, key
        a = np.asarray(rerun.metrics["l1_series"])
        b = np.asarray(interference_report.metrics["l1_series"])
        assert np.max(np.abs(a - b)) <= 1e-12



@pytest.fixture(scope="module")
def decoherence_report():
    return run_decoherence_scenario(builtin_spec("decoherence",
                                                 FAST_DECOHERENCE))


@pytest.fixture(scope="module")
def measurement_report():
    return run_measurement_scenario(builtin_spec("measurement",
                                                 FAST_MEASUREMENT))


class TestDecoherenceScenario:
    @pytest.fixture
    def report(self, decoherence_report):
        return decoherence_report

    def test_passes(self, report):
        assert report.verdict == "pass", report.verdicts

    def test_r_decays_while_twin_stays_coherent(self, report):
        assert report.metrics["r_gate_close"] < 1e-3
        assert max(abs(r - 1.0) for r in report.twin["r_series"]) <= 1e-9

    def test_contrast(self, report):
        assert report.twin["deviation_max"] > 5 * report.metrics["deviation_max"]

    def test_twin_recovers_interference(self, report):
        assert report.twin["l1_recombination"] >= 0.1
        assert report.metrics["l1_recombination"] < \
            0.2 * report.twin["l1_recombination"]

    def test_holds_no_snapshot_record(self):
        # one 256x64 amplitude array is 256 KiB; the streamed run peaked at
        # 3.7 MiB of traced memory, and one holding the two packets' 31
        # snapshots each and their sum at 24.4 MiB; the bound, 32 arrays,
        # leaves 2.2x headroom above the stream
        spec = builtin_spec("decoherence", FAST_DECOHERENCE)
        tracemalloc.start()
        try:
            run_decoherence_scenario(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, peak


class TestMeasurementScenario:
    @pytest.fixture
    def report(self, measurement_report):
        return measurement_report

    def test_passes(self, report):
        assert report.verdict == "pass", report.verdicts

    def test_lobe_masses_match_born_weights(self, report):
        m = report.metrics
        assert m["lobe_mass_below"] == pytest.approx(0.9, abs=1e-3)
        assert m["lobe_mass_above"] == pytest.approx(0.1, abs=1e-3)

    def test_occupancy_within_band(self, report):
        for lab, row in report.metrics["occupancy"].items():
            assert abs(row["fraction"] - row["expected"]) <= row["band"], lab

    def test_fidelity(self, report):
        for lab, fid in report.metrics["fidelity"].items():
            assert fid >= 0.99, lab

    def test_steps_factored_components(self, monkeypatch):
        # both packets are held as 1-D factors, which jump until the gate
        # merges them at step 100; the gate's 25 steps are the only Strang
        # steps of the run, over both axes of the full grid
        from pilotwave import propagate
        steps, jumps = [], []
        step, free = (propagate.SplitOperator.step_array,
                      propagate.SplitOperator.free_flight)
        monkeypatch.setattr(propagate.SplitOperator, "step_array",
                            lambda op, amp, t, axes=None: steps.append(
                                (amp.shape, axes)) or step(op, amp, t, axes))
        monkeypatch.setattr(propagate.SplitOperator, "free_flight",
                            lambda op, amp, n, axes: jumps.append(
                                (amp.shape, n)) or free(op, amp, n, axes))
        rep = run_measurement_scenario(builtin_spec("measurement",
                                                    FAST_MEASUREMENT))
        assert rep.verdict == "pass", rep.verdicts
        # (the 1-D reference records of the fidelity check step (128,))
        assert [c for c in steps if c[0] != (128,)] == [((128, 128), (0, 1))] * 50
        # per component and observation: two 1-D jumps before the gate,
        # one full-grid jump after it
        assert jumps == [((128,), 5)] * 80 + [((128, 128), 5)] * 70

    def test_poor_separation_diagnosed(self):
        spec = builtin_spec("measurement", FAST_MEASUREMENT + (
            "couplings.gate.strength=0.4",))   # displacement << envelope
        rep = run_measurement_scenario(spec)
        assert rep.verdicts["pointer_separation"] == "fail"
        assert "pointer separation" in rep.metrics["diagnostic"]


class TestRelaxationScenario:
    def test_small_ensemble_inconclusive(self):
        spec = builtin_spec("relaxation", (
            "ensemble.n_particles=100", "schedule.t_end=0.2",
        ))
        rep = run_relaxation_scenario(spec)
        assert rep.verdicts["relaxation"] == "inconclusive"
        # the equilibrium control is as small
        assert rep.verdicts["equilibrium_flat"] == "inconclusive"
        assert "insufficiency" in rep.metrics["diagnostic"]
        assert rep.verdict != "fail"

    def test_h_function_starts_high_for_subbox_start(self):
        spec = builtin_spec("relaxation", (
            "ensemble.n_particles=2000", "schedule.t_end=0.1",
            "thresholds={\"min_particles\": 4000}",
        ))
        rep = run_relaxation_scenario(spec)
        # sub-box start is far from equilibrium; control ensemble is not
        # (sampling noise at n=2000 keeps the control near but not at zero)
        assert rep.metrics["h_initial"] > 1.0
        assert max(rep.metrics["h_eq_series"]) <= 0.2 * rep.metrics["h_initial"]


class TestPreparationSpec:
    def test_twin_disables_env_only(self):
        spec = builtin_spec("preparation")
        twin = _twin_spec(spec)
        assert twin["couplings"]["env"]["strength"] == 0.0
        assert twin["couplings"]["gate"] == spec["couplings"]["gate"]

    def test_kind_mismatch_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            run_preparation_scenario(builtin_spec("measurement"))

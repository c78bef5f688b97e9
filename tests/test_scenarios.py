import json

import numpy as np
import pytest

from pilotwave.fields import WaveFunction, make_grid, init_gaussian, density
from pilotwave.propagate import HamiltonianSpec, Schedule, evolve
from pilotwave.scenarios import (
    KINDS, DEFAULT_THRESHOLDS, SpecError,
    validate_spec_dict, apply_overrides, spec_hash, load_spec, builtin_spec,
    coevolve, overall_verdict, load_report,
    run_interference_scenario, run_decoherence_scenario,
    run_measurement_scenario, run_relaxation_scenario,
    run_preparation_scenario, run_scenario, _twin_spec,
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

    def test_missing_roles_rejected(self):
        d = builtin_spec("preparation")
        del d["roles"]["pointer_axis"]
        with pytest.raises(SpecError, match="roles.pointer_axis"):
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
        params = PhysicalParams(1.0, (1.0,))
        psi = init_gaussian(g, [-2.0], [1.0], [1.0], params=params)
        H = HamiltonianSpec(())
        sched = Schedule(0.0, 0.5, 0.005, 10)
        rec = evolve(psi, H, sched, params)
        res = coevolve([psi], H, sched, params)
        assert np.max(np.abs(res.final_components[0].amplitudes
                             - rec.wave_at(-1).amplitudes)) <= 1e-12

    def test_component_sum_is_linear(self):
        g = make_grid([{"points": 128, "lo": -16.0, "hi": 16.0}])
        from pilotwave.fields import PhysicalParams
        params = PhysicalParams(1.0, (1.0,))
        pa = init_gaussian(g, [-3.0], [1.0], [1.0], params=params)
        pb = init_gaussian(g, [3.0], [1.0], [-1.0], params=params)
        total = WaveFunction(g, (pa.amplitudes + pb.amplitudes) / np.sqrt(2))
        H = HamiltonianSpec(())
        sched = Schedule(0.0, 0.5, 0.005, 10)
        res = coevolve([pa, pb], H, sched, params)
        rec = evolve(total, H, sched, params)
        summed = (res.final_components[0].amplitudes
                  + res.final_components[1].amplitudes) / np.sqrt(2)
        assert np.max(np.abs(summed - rec.wave_at(-1).amplitudes)) <= 1e-10

    def test_no_probes_gives_empty_bundle(self):
        g = make_grid([{"points": 128, "lo": -16.0, "hi": 16.0}])
        from pilotwave.fields import PhysicalParams
        params = PhysicalParams(1.0, (1.0,))
        psi = init_gaussian(g, [0.0], [1.0], params=params)
        res = coevolve([psi], HamiltonianSpec(()), Schedule(0.0, 0.1, 0.01, 5),
                       params)
        assert res.probe_paths.shape == (3, 0, 1)
        assert res.probe_degenerate.shape == (0,)
        assert sum(int(np.sum(d)) for d in res.probe_degenerate) == 0

    def test_probe_follows_wave(self):
        # packet moving at v = p/m: the probe at its center rides along
        g = make_grid([{"points": 256, "lo": -16.0, "hi": 16.0}])
        from pilotwave.fields import PhysicalParams
        params = PhysicalParams(1.0, (1.0,))
        psi = init_gaussian(g, [-4.0], [1.0], [2.0], params=params)
        sched = Schedule(0.0, 2.0, 0.005, 20)
        res = coevolve([psi], HamiltonianSpec(()), sched, params,
                       np.array([[-4.0]]))
        end = res.probe_paths[-1, 0, 0]
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


# ---------------------------------------------------------------------------
# runners (downscaled)

@pytest.fixture(scope="module")
def interference_report():
    return run_interference_scenario(builtin_spec("interference",
                                                  FAST_INTERFERENCE))


class TestInterferenceScenario:
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
        back = load_report(p)
        assert back.verdicts == interference_report.verdicts
        assert back.spec_hash == interference_report.spec_hash
        assert back.metrics["l1_peak"] == interference_report.metrics["l1_peak"]

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

    def test_single_packet_inconclusive(self):
        spec = builtin_spec("interference", FAST_INTERFERENCE + (
            'packets=[{"coefficient": 1.0, "centers": [-5.0],'
            ' "sigmas": [0.7], "momenta": [3.0]}]',))
        rep = run_interference_scenario(spec)
        assert rep.verdicts["overlap_reached"] == "inconclusive"
        assert rep.verdict == "inconclusive"


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
            "relaxation.equilibrium_control=false",
        ))
        rep = run_relaxation_scenario(spec)
        assert rep.verdicts["relaxation"] == "inconclusive"
        assert "insufficiency" in rep.metrics["diagnostic"]
        assert rep.verdict != "fail"

    def test_h_function_starts_high_for_subbox_start(self):
        spec = builtin_spec("relaxation", (
            "ensemble.n_particles=2000", "schedule.t_end=0.1",
            "relaxation.equilibrium_control=true",
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

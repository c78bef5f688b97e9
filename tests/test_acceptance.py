"""Acceptance gate: one test per shipped criterion, at the stated tolerance.

Each test prints a single pass/fail line.  The scenario-level criteria reuse
one shipped-defaults run per kind (module-scoped fixtures), so the whole gate
runs in a few minutes; the 3D preparation run dominates.
"""

import json

import numpy as np
import pytest

from pilotwave.fields import PhysicalParams, density, make_grid, init_gaussian
from pilotwave.propagate import (
    HamiltonianSpec, PotentialTerm, Schedule, evolve,
)
from pilotwave.guidance import velocity_field, simulate_trajectories
from pilotwave.ensemble import run_ensemble, equivariance_test
from pilotwave.scenarios import (
    builtin_spec, run_interference_scenario, run_decoherence_scenario,
    run_measurement_scenario, run_preparation_scenario,
    run_relaxation_scenario,
)
from pilotwave.cli import main as cli_main


def criterion(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {state}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shipped-defaults scenario runs, shared across criteria

@pytest.fixture(scope="module")
def interference_report():
    return run_interference_scenario(builtin_spec("interference"))


@pytest.fixture(scope="module")
def decoherence_report():
    return run_decoherence_scenario(builtin_spec("decoherence"))


@pytest.fixture(scope="module")
def measurement_report():
    return run_measurement_scenario(builtin_spec("measurement"))


@pytest.fixture(scope="module")
def preparation_report():
    return run_preparation_scenario(builtin_spec("preparation"))


@pytest.fixture(scope="module")
def relaxation_report():
    return run_relaxation_scenario(builtin_spec("relaxation"))


def free_gaussian_record(sigma0=1.0, t_end=2.0, dt=1e-3, stride=20, n=1024):
    g = make_grid([{"points": n, "lo": -20.0, "hi": 20.0}])
    params = PhysicalParams((1.0,))
    psi = init_gaussian(g, [0.0], [sigma0])
    sched = Schedule(0.0, t_end, dt, stride)
    return evolve(psi, HamiltonianSpec(()), sched, params), g, params


# ---------------------------------------------------------------------------

def test_criterion_01_unitarity_and_conservation():
    # static harmonic trap, 10^4 steps
    g = make_grid([{"points": 512, "lo": -20.0, "hi": 20.0}])
    params = PhysicalParams((1.0,))
    psi = init_gaussian(g, [3.0], [1.0 / np.sqrt(2.0)])
    H = HamiltonianSpec((PotentialTerm.make("harmonic", (0,), omega=1.0),))
    rec = evolve(psi, H, Schedule(0.0, 10.0, 0.001, 500), params)
    norm_drift = float(np.max(np.abs(rec.norms - rec.norms[0])))
    e_drift = float(np.max(np.abs(rec.energies - rec.energies[0]))
                    / abs(rec.energies[0]))
    criterion(1, "unitarity & conservation",
              norm_drift <= 1e-9 and e_drift <= 1e-6,
              f"norm drift {norm_drift:.2e}, energy drift {e_drift:.2e}")


def test_criterion_02_free_gaussian_oracle():
    sigma0 = 1.0
    rec, g, params = free_gaussian_record(sigma0)

    def sigma(t):
        return sigma0 * np.sqrt(1.0 + (t / (2.0 * sigma0 ** 2)) ** 2)

    x0s = np.array([[0.5], [1.0], [1.5]])
    trajs = simulate_trajectories(rec, x0s)
    rel_errs = []
    for x0, tr in zip(x0s[:, 0], trajs):
        expected = x0 * sigma(2.0) / sigma0
        rel_errs.append(abs(tr.positions[-1, 0] - expected) / expected)
    traj_err = max(rel_errs)

    # velocity field vs closed form v = x t / (4 sigma0^4 + t^2), in the bulk
    i_mid = len(rec.times) // 2
    t = rec.times[i_mid]
    vf = velocity_field(rec.wave_at(i_mid), params)
    x = g.axis_coords(0)
    bulk = np.abs(x) <= 2.0 * sigma(t)
    v_exact = x * t / (4.0 * sigma0 ** 4 + t ** 2)
    v_err = float(np.max(np.abs(vf.components[0][bulk] - v_exact[bulk])))

    criterion(2, "free-Gaussian oracle",
              traj_err <= 1e-3 and v_err <= 1e-6,
              f"trajectory rel err {traj_err:.2e}, velocity err {v_err:.2e}")


def test_criterion_03_equivariance(interference_report):
    rec, _, _ = free_gaussian_record(stride=100)
    densities = [density(rec.wave_at(i)) for i in range(len(rec.times))]
    ens = run_ensemble(rec, 10_000, seed=11)
    rep = equivariance_test(ens, densities)
    free_ok = rep.within_band(3.0)

    slit_ok = interference_report.verdicts["equivariance"] == "pass"

    shifted = run_ensemble(rec, 10_000, seed=12)
    shifted.positions = shifted.positions + 1.0
    rep_neg = equivariance_test(shifted, densities)
    p_neg = float(np.nanmin(rep_neg.p_value))

    criterion(3, "equivariance",
              free_ok and slit_ok and p_neg < 1e-6,
              f"free-Gaussian band ok={free_ok}, double-slit ok={slit_ok}, "
              f"control p={p_neg:.1e}")


def test_criterion_04_density_identity(interference_report,
                                       decoherence_report,
                                       measurement_report,
                                       preparation_report):
    residuals = {
        "interference": interference_report.metrics["eq3_residual"],
        "decoherence": decoherence_report.metrics["eq3_residual"],
        "measurement": measurement_report.metrics["eq3_residual"],
        "preparation": preparation_report.metrics["eq3_residual"],
    }
    worst = max(residuals.values())
    criterion(4, "density identity",
              worst <= 1e-12, f"max residual {worst:.2e} ({residuals})")


def test_criterion_05_no_crossing(interference_report):
    m = interference_report.metrics
    criterion(5, "no-crossing & node safety",
              m["order_preserved"] and m["degenerate_fraction"] < 1e-3,
              f"order={m['order_preserved']}, "
              f"degenerate fraction {m['degenerate_fraction']:.2e}")


def test_criterion_06_decoherence_contrast(decoherence_report):
    m = decoherence_report.metrics
    tw = decoherence_report.twin
    dx = 40.0 / 512
    ok = (m["r_gate_close"] < 1e-3
          and m["deviation_max"] <= 2 * dx
          and tw["deviation_max"] >= 10 * dx
          and tw["l1_recombination"] >= 0.1)
    criterion(6, "decoherence contrast", ok,
              f"r={m['r_gate_close']:.1e}, dev={m['deviation_max']:.3f}, "
              f"twin dev={tw['deviation_max']:.2f}, "
              f"twin L1={tw['l1_recombination']:.2f}")


def test_criterion_07_born_pointer_statistics(measurement_report):
    occ = measurement_report.metrics["occupancy"]
    fid = measurement_report.metrics["fidelity"]
    occ_ok = all(abs(row["fraction"] - row["expected"]) <= 0.009 + 1e-12
                 for row in occ.values())
    fid_ok = all(f >= 0.99 for f in fid.values())
    criterion(7, "Born pointer statistics", occ_ok and fid_ok,
              f"occupancy {[round(r['fraction'], 4) for r in occ.values()]}, "
              f"fidelity {[round(f, 4) for f in fid.values()]}")


def test_criterion_08_preparation_pipeline(preparation_report):
    m = preparation_report.metrics
    tw = preparation_report.twin
    dx = 24.0 / 96
    ok = (m["deviation_max_stage3"] <= 2 * dx
          and tw["deviation_max_stage3"] >= 10 * dx)
    criterion(8, "preparation pipeline", ok,
              f"stage-iii dev={m['deviation_max_stage3']:.3f} (2dx={2*dx}), "
              f"twin dev={tw['deviation_max_stage3']:.2f} (10dx={10*dx})")


def test_criterion_09_relaxation(relaxation_report):
    m = relaxation_report.metrics
    drop_ok = m["h_final"] <= 0.5 * m["h_initial"]
    eq_ok = max(m["h_eq_series"]) <= 0.05
    criterion(9, "relaxation", drop_ok and eq_ok,
              f"H {m['h_initial']:.3f} -> {m['h_final']:.3f}, "
              f"equilibrium max {max(m['h_eq_series']):.3f}")


def test_criterion_10_determinism(tmp_path):
    spec = builtin_spec("interference", (
        "grid.0.points=512", "ensemble.n_particles=2000",
        "schedule.t_end=2.0", "schedule.stride=10"))
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", "--spec", str(p), "--out", str(out),
                         "--threads", "1"]) == 0
        outs.append(json.loads((out / "report.json").read_text()))
    same = outs[0]["metrics"] == outs[1]["metrics"] \
        and outs[0]["spec_hash"] == outs[1]["spec_hash"]
    criterion(10, "determinism", same,
              "bitwise-identical metrics across reruns at --threads 1")

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pilotwave
from pilotwave.cli import main, _sha256
from pilotwave.scenarios import builtin_spec

FAST_INTERFERENCE = dict(
    zip(("grid.0.points", "ensemble.n_particles", "schedule.t_end",
         "schedule.stride"), (512, 2000, 2.0, 10)))
FAST_DECOHERENCE = dict(
    zip(("grid.0.points", "grid.1.points", "schedule.dt", "schedule.stride"),
        (256, 64, 0.004, 20)))


def write_spec(tmp, kind, fast):
    spec = builtin_spec(kind, tuple(f"{k}={v}" for k, v in fast.items()))
    p = tmp / f"{kind}.json"
    p.write_text(json.dumps(spec))
    return p


@pytest.fixture(scope="module")
def interference_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_interference")
    spec = write_spec(tmp, "interference", FAST_INTERFERENCE)
    out = tmp / "run"
    code = main(["run", "--spec", str(spec), "--out", str(out),
                 "--threads", "1"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def decoherence_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_decoherence")
    spec = write_spec(tmp, "decoherence", FAST_DECOHERENCE)
    out = tmp / "run"
    code = main(["run", "--spec", str(spec), "--out", str(out),
                 "--threads", "1"])
    assert code == 0
    return out


class TestRun:
    def test_manifest_lists_artifacts_with_checksums(self, interference_run):
        manifest = json.loads((interference_run / "manifest.json").read_text())
        assert len(manifest["files"]) >= 3
        for name, digest in manifest["files"].items():
            assert _sha256(interference_run / name) == digest
        report = json.loads((interference_run / "report.json").read_text())
        assert manifest["spec_hash"] == report["spec_hash"]
        assert manifest["threads"] == 1
        assert manifest["tool_version"]

    def test_echoed_spec_matches_hash(self, interference_run):
        from pilotwave.scenarios import spec_hash
        spec = json.loads((interference_run / "spec.json").read_text())
        report = json.loads((interference_run / "report.json").read_text())
        assert spec_hash(spec) == report["spec_hash"]

    def test_invalid_dt_exit_1_names_key(self, tmp_path, capsys):
        spec = builtin_spec("interference")
        spec["schedule"]["dt"] = -0.001
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        code = main(["run", "--spec", str(p), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "schedule.dt" in capsys.readouterr().err

    def test_unparseable_spec_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code = main(["run", "--spec", str(p), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_bad_override_key_exit_1_one_line(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "interference", FAST_INTERFERENCE)
        code = main(["run", "--spec", str(spec), "--out", str(tmp_path / "o"),
                     "--set", "grid.5=1"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid spec: override 'grid.5'")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_below_one_exit_1_one_line(self, tmp_path, capsys,
                                               threads):
        spec = write_spec(tmp_path, "interference", FAST_INTERFERENCE)
        code = main(["run", "--spec", str(spec), "--out", str(tmp_path / "o"),
                     "--threads", threads])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --threads must be at least 1, got {threads}"]
        assert not (tmp_path / "o").exists()

    def test_nan_trajectory_exit_1_one_line(self, tmp_path, capsys,
                                            monkeypatch):
        def nan_run(spec):
            raise RuntimeError("NaN in trajectory output; regularization "
                               "failed")

        monkeypatch.setattr("pilotwave.cli.run_scenario", nan_run)
        spec = write_spec(tmp_path, "interference", FAST_INTERFERENCE)
        code = main(["run", "--spec", str(spec), "--out", str(tmp_path / "o"),
                     "--threads", "1"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: NaN in trajectory output; regularization "
                       "failed"]

    @pytest.mark.parametrize("kind, override", [
        # a misspelled parameter, a missing one, a second axis, an extra one
        ("measurement", 'potentials=[{"kind": "harmonic", "axes": [0], '
                        '"params": {"omgea": 1.0}}]'),
        ("measurement", 'potentials=[{"kind": "harmonic", "axes": [0], '
                        '"params": {}}]'),
        ("measurement", 'potentials=[{"kind": "harmonic", "axes": [0, 1], '
                        '"params": {"omega": 1.0}}]'),
        ("measurement", 'potentials=[{"kind": "harmonic", "axes": [0], '
                        '"params": {"omega": 1.0, "center": 0.0}}]'),
        # an env window that closes before it opens, or off the step grid
        ("decoherence", "couplings.env.t_off=-0.1"),
        ("decoherence", "couplings.env.t_off=0.301"),
    ])
    def test_malformed_term_exit_1_one_line(self, tmp_path, kind, override):
        spec = Path(pilotwave.__file__).parent / "specs" / f"{kind}.json"
        src = str(Path(pilotwave.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-m", "pilotwave.cli", "run", "--spec", str(spec),
             "--out", str(tmp_path / "o"), "--threads", "1", "--set", override],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=300)
        assert res.returncode == 1, res.stderr
        err = res.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("via", ["file", "set"])
    @pytest.mark.parametrize("kind, key, value", [
        # the kind fixes the axis layout and the ensemble stride
        ("decoherence", "roles.env_axis", 0),
        ("decoherence", "couplings.env.axes", [1, 1]),
        ("preparation", "couplings.gate.source_axis", 2),
        ("interference", "ensemble.stride", 5),
    ])
    def test_removed_layout_key_exit_1_one_line(self, tmp_path, capsys, via,
                                                kind, key, value):
        spec = builtin_spec(kind)
        overrides = ["--set", f"{key}={json.dumps(value)}"]
        if via == "file":
            *parents, last = key.split(".")
            node = spec
            for k in parents:
                node = node.setdefault(k, {})
            node[last] = value
            overrides = []
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        code = main(["run", "--spec", str(p), "--out", str(tmp_path / "o"),
                     *overrides])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_env_off_override_fails_by_design(self, tmp_path):
        spec = write_spec(tmp_path, "decoherence", FAST_DECOHERENCE)
        code = main(["run", "--spec", str(spec), "--out",
                     str(tmp_path / "run"), "--threads", "1",
                     "--set", "couplings.env.strength=0.0"])
        assert code == 2      # the decoherence criteria fail without coupling

    def test_seed_flag_overrides_spec_seed(self, tmp_path):
        spec = write_spec(tmp_path, "interference", FAST_INTERFERENCE)
        out = tmp_path / "run"
        assert main(["run", "--spec", str(spec), "--out", str(out),
                     "--seed", "42", "--threads", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 42
        echoed = json.loads((out / "spec.json").read_text())
        assert echoed["seed"] == 42

    def test_overrides_change_spec_hash(self, tmp_path, interference_run):
        spec = write_spec(tmp_path, "interference", FAST_INTERFERENCE)
        out = tmp_path / "run"
        assert main(["run", "--spec", str(spec), "--out", str(out),
                     "--seed", "42", "--threads", "1"]) == 0
        h1 = json.loads((out / "manifest.json").read_text())["spec_hash"]
        h2 = json.loads((interference_run /
                         "manifest.json").read_text())["spec_hash"]
        assert h1 != h2

    def test_single_thread_rerun_reproduces_metrics(self, tmp_path,
                                                    interference_run):
        spec = write_spec(tmp_path, "interference", FAST_INTERFERENCE)
        out = tmp_path / "run"
        assert main(["run", "--spec", str(spec), "--out", str(out),
                     "--threads", "1"]) == 0
        a = json.loads((out / "report.json").read_text())
        b = json.loads((interference_run / "report.json").read_text())
        assert a["metrics"] == b["metrics"]
        assert a["verdicts"] == b["verdicts"]


class TestImports:
    def test_run_leaves_scipy_stats_unloaded(self, tmp_path):
        # scipy.stats costs about 0.9 s and 40 MiB of every process's
        # set-up; an interference run, the one kind that computes a
        # chi-square, must not load it
        spec = write_spec(tmp_path, "interference", FAST_INTERFERENCE)
        out = tmp_path / "run"
        script = (
            "import sys\n"
            "from pilotwave import cli\n"
            f"code = cli.main(['run', '--spec', {str(spec)!r}, '--out', "
            f"{str(out)!r}, '--threads', '1', '--set', "
            "'ensemble.n_particles=400'])\n"
            "print(code, [m for m in sys.modules if m.startswith('scipy.stats')])\n")
        src = str(Path(pilotwave.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "0 []", res.stdout
        p_values = json.loads((out / "report.json").read_text())[
            "metrics"]["equivariance"]["p_value"]
        assert any(p is not None for p in p_values)


class TestReport:
    def test_summary_includes_every_verdict(self, interference_run, capsys):
        assert main(["report", "--run", str(interference_run)]) == 0
        out = capsys.readouterr().out
        report = json.loads((interference_run / "report.json").read_text())
        for name, v in report["verdicts"].items():
            assert name in out and v in out
        assert report["spec_hash"] in out
        for key in ("substep_caps", "speed_caps", "frozen_particles"):
            n = report["runtime"][key]
            assert f"{key.replace('_', ' ')}: {n} (" in out

    def test_read_only(self, interference_run, capsys):
        before = {p.name: _sha256(p) for p in interference_run.iterdir()
                  if p.is_file()}
        assert main(["report", "--run", str(interference_run)]) == 0
        after = {p.name: _sha256(p) for p in interference_run.iterdir()
                 if p.is_file()}
        assert before == after

    def test_tampered_file_named(self, interference_run, tmp_path, capsys):
        import shutil
        run = tmp_path / "copy"
        shutil.copytree(interference_run, run)
        (run / "metrics.csv").write_text("tampered\n")
        assert main(["report", "--run", str(run)]) == 1
        assert "metrics.csv" in capsys.readouterr().err

    def test_empty_dir_no_manifest(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 1
        assert "no manifest" in capsys.readouterr().err


class TestPlotdata:
    def test_metrics_columns(self, decoherence_run, tmp_path):
        out = tmp_path / "m.txt"
        assert main(["plotdata", "--run", str(decoherence_run),
                     "--what", "metrics", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("# columns:")][0]
        assert header.split(":")[1].split()[:3] == ["t", "r",
                                                    "interference_L1"]
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert len(data) > 10
        assert all(len(ln.split()) == len(header.split(":")[1].split())
                   for ln in data)

    def test_trajectory_blocks_blank_separated(self, decoherence_run,
                                               tmp_path):
        out = tmp_path / "t.txt"
        assert main(["plotdata", "--run", str(decoherence_run),
                     "--what", "trajectories", "--out", str(out)]) == 0
        text = out.read_text()
        blocks = [b for b in text.split("\n\n") if b.strip()]
        assert len(blocks) >= 2    # full-wave and single-branch probes
        assert "full_wave_probe" in text and "single_branch_probe" in text

    def test_density_columns(self, interference_run, tmp_path):
        out = tmp_path / "d.txt"
        assert main(["plotdata", "--run", str(interference_run),
                     "--what", "density", "--out", str(out)]) == 0
        data = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(data) == 512
        assert all(len(ln.split()) == 2 for ln in data)

    def test_unknown_series_lists_available(self, interference_run, tmp_path,
                                            capsys):
        assert main(["plotdata", "--run", str(interference_run),
                     "--what", "foo", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        for name in ("density", "metrics", "trajectories"):
            assert name in err

    def test_plotdata_does_not_mutate_run(self, interference_run, tmp_path):
        before = {p.name: _sha256(p) for p in interference_run.iterdir()
                  if p.is_file()}
        main(["plotdata", "--run", str(interference_run),
              "--what", "metrics", "--out", str(tmp_path / "m.txt")])
        after = {p.name: _sha256(p) for p in interference_run.iterdir()
                 if p.is_file()}
        assert before == after

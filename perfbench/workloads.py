"""Benchmark workloads and the correctness check every run must pass.

Each workload is one `pilotwave run` invocation: a shipped spec plus `--set`
overrides.  The `why` of each workload lives in BENCHMARK.json; the expected
metric values, recorded at the commit that introduced this benchmark, live in
expected.json next to this file.
"""

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Every workload is cut to a size whose run takes a few seconds, so that one
# measuring window holds several runs and their median is steady on a noisy
# host.  Each cut keeps the layer profile and the verdicts of the shipped spec.

# 1-D interference with 1000 Born-sampled particles instead of 10^4.
_INTERFERENCE = ["ensemble.n_particles=1000"]

# 2-D decoherence on a 256x64 grid instead of 512x128: arrays of 256 KiB,
# still inside the 2 MiB L2, and the same horizon, so the snapshot records
# of the evolve path are still held.
_DECOHERENCE = ["grid=" + json.dumps([{"points": 256, "lo": -20.0, "hi": 20.0},
                                      {"points": 64, "lo": -16.0, "hi": 16.0}])]

# 3-D preparation: 64 points on the system and pointer axes (a uniform 64^3
# grid makes stage1_decoherence fail, and 48 points leave stage2 at the edge
# of its threshold, so the environment axis keeps its 96 points), 6 MiB
# arrays, past L2; a horizon of 0.45 that still contains the environment
# window (0-0.3) and the gate (0.35-0.4); dt 0.0125, which lands on both
# window edges and gives the gate four steps.
_PREPARATION = [
    "grid=" + json.dumps([{"points": 64, "lo": -12.0, "hi": 12.0},
                          {"points": 64, "lo": -12.0, "hi": 12.0},
                          {"points": 96, "lo": -18.0, "hi": 18.0}]),
    "schedule.t_end=0.45", "schedule.dt=0.0125"]

WORKLOADS = {
    "interference": {
        "spec": "src/pilotwave/specs/interference.json",
        "overrides": _INTERFERENCE,
        "gated": None,  # None: every verdict must pass
    },
    "decoherence": {
        "spec": "src/pilotwave/specs/decoherence.json",
        "overrides": _DECOHERENCE,
        "gated": None,
    },
    "preparation_short": {
        "spec": "src/pilotwave/specs/preparation.json",
        "overrides": _PREPARATION,
        # twin_steering needs the full horizon; it is recorded, not gated
        "gated": ["stage1_decoherence", "stage2_pointer_separation",
                  "stage3_preparation", "density_identity"],
    },
}

# exit codes of `pilotwave run` for each overall verdict
_VERDICT_EXIT = {"pass": 0, "fail": 2, "inconclusive": 3}


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _lookup(report, dotted):
    node = report
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _close(got, want, t):
    if isinstance(want, bool) or want is None:
        return got == want
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and abs(got - want) <= t["abs"] + t["rel"] * abs(want))


def check_run(name, exit_code, report, seed, expected):
    """Problems found in one run's outcome; an empty list means correct.

    `report` is the parsed report.json (None if the run wrote none).  Every
    gated verdict must pass and the exit code must match the overall verdict.
    Recorded metrics must match `expected` within the tolerance named after
    the metric's last dotted component (else "default"), a list element by
    element; metrics listed under "seeded" are compared only at the seed
    they were recorded with, since only they depend on the workload seed.
    """
    if report is None:
        return [f"exit code {exit_code} and no report.json"]
    problems = []
    want_exit = _VERDICT_EXIT.get(report.get("verdict"))
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, verdict "
                        f"{report.get('verdict')!r} expects {want_exit}")
    gated = WORKLOADS[name]["gated"] or list(report["verdicts"])
    for v in gated:
        state = report["verdicts"].get(v)
        if state != "pass":
            problems.append(f"verdict {v}: {state}")

    exp = expected["workloads"][name]
    tol = expected["tolerance"]
    checks = dict(exp["metrics"])
    if seed == expected["seed"]:
        checks.update(exp["seeded"])
    for key, want in checks.items():
        got = _lookup(report, key)
        t = tol.get(key.rsplit(".", 1)[-1], tol["default"])
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                problems.append(f"{key}: not a list of {len(want)} values")
                continue
            bad = [i for i, (g, w) in enumerate(zip(got, want))
                   if not _close(g, w, t)]
            if bad:
                i = bad[0]
                problems.append(f"{key}[{i}] = {got[i]!r}, expected "
                                f"{want[i]!r} ({len(bad)} values differ)")
        elif not _close(got, want, t):
            problems.append(f"{key} = {got!r}, expected {want!r}")
    return problems

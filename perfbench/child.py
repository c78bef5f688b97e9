"""One benchmark process: `pilotwave run` through the real CLI path, timed.

    python3 perfbench/child.py MODE TIMINGS_JSON -- <pilotwave run arguments>

MODE is `run` (untraced), `trace` (spans recorded, see spans.py) or `setup`
(load the spec and exit).  Times are CLOCK_MONOTONIC readings, comparable
with the parent's, which notes the clock just before starting this process;
`maxrss_kib` is this process's peak resident memory.  The process exits with
the CLI's exit code.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
_now = time.monotonic


def main(argv):
    mode, timings_path = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    t = {}

    from pilotwave import cli, scenarios
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: pilotwave imported from {cli.__file__}, not {ROOT}/src",
              file=sys.stderr)
        return 1

    if mode == "setup":
        spec = cli_args[cli_args.index("--spec") + 1]
        sets = [cli_args[i + 1] for i, a in enumerate(cli_args) if a == "--set"]
        scenarios.load_spec(spec, sets)
        t["loaded"] = _now()
        code = 0
    else:
        load_spec, cmd_run = cli.load_spec, cli.cmd_run

        def timed_load(*a, **k):
            out = load_spec(*a, **k)
            t["loaded"] = _now()
            return out

        def timed_run(*a, **k):
            t["enter"] = _now()
            try:
                return cmd_run(*a, **k)
            finally:
                t["exit"] = _now()

        cli.load_spec, cli.cmd_run = timed_load, timed_run
        tracer = None
        if mode == "trace":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from spans import Tracer
            tracer = Tracer(run_id=Path(timings_path).parent.name)
            tracer.install()
        try:
            code = cli.main(["run", *cli_args])
        finally:
            if tracer is not None:
                tracer.uninstall()
            cli.load_spec, cli.cmd_run = load_spec, cmd_run
        if tracer is not None:
            tracer.calibrate()
            with open(Path(timings_path).with_name("spans.json"), "w") as fh:
                json.dump(tracer.dump(), fh)
    t["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(timings_path, "w") as fh:
        json.dump(t, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 e2ebench/run.py --workload {cold,compute,serve} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the workload untraced and prints its end-to-end
metrics; ``--trace 1`` runs the traced per-layer pass instead (see
``e2ebench/layers.py``) and writes a Chrome trace.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (rows,
sample counts, host facts, problems) goes to
``.bench_build/e2ebench/out/``.  Exit status: 0 when every checked
output was correct, 1 when any was not (a reference run that fails the
workload checker included), 2 when the checkout cannot be benchmarked,
3 when the run was interrupted or overran its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

PKG_ROOT = Path(__file__).resolve().parent.parent
if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
    sys.path.pop(0)
sys.path.insert(0, str(PKG_ROOT))

#: timed set-ups per run, one before the timed loop and the rest spread
#: through it; ``setup_s`` is their median
SETUP_REPS = 9
#: hard limit for one invocation, below the 180 s a run may take
DEADLINE_S = 170


class DeadlineExceeded(BaseException):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S}s")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="e2ebench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cold", "compute", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def preflight(repo: Path) -> str:
    """Why this directory cannot be benchmarked, or ``""``."""
    if not (repo / "src" / "repro" / "__init__.py").is_file():
        return f"no src/repro package under {repo.name!r}; run from a repository checkout"
    if not (repo / "examples" / "lol").is_dir():
        return "no examples/lol directory; run from a repository checkout"
    if shutil.which(os.environ.get("LOL_CC") or "cc") is None:
        return "no C compiler on PATH (cc or $LOL_CC); the c rows cannot run"
    return ""


def measure_untraced(wl, seconds: float):
    from e2ebench.hostinfo import cpu_times, steal_share

    setups = [wl.setup()]
    wl.warm()
    before, load = cpu_times(), os.getloadavg()[0]
    wl.measure(seconds, setups, SETUP_REPS - 1)
    after = cpu_times()
    try:
        metrics, details = wl.metrics(), wl.details()
    except ValueError:
        # A row without samples: every request of it failed, and the
        # run is reported as incorrect without metrics.
        if not wl.tally.failed:
            raise
        metrics, details = {}, {}
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
    during = {"steal_share": steal_share(before, after), "loadavg_1m_before": round(load, 2),
              "loadavg_1m_after": round(os.getloadavg()[0], 2), "setup_samples_s": setups}
    return metrics, details, during


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path.cwd()
    why = preflight(repo)
    if why:
        print(f"e2ebench: {why}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(repo / "src"))

    from e2ebench import hostinfo
    from e2ebench.hygiene import Interrupted, RunScope
    from e2ebench.programs import OracleError
    from e2ebench.workloads import WORKLOADS

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        with RunScope(repo, label) as scope:
            host = hostinfo.host_facts()
            wl = WORKLOADS[args.workload](scope, args.seed)
            try:
                wl.prepare()
            except OracleError as exc:
                for problem in exc.problems:
                    wl.tally.record("reference", [problem])
                metrics, details, during = {}, {}, {}
            else:
                if args.trace:
                    from e2ebench import layers

                    metrics, during = layers.traced_pass(wl, args.seconds, scope.out_dir / f"trace-{label}.json")
                    details = {}
                else:
                    metrics, details, during = measure_untraced(wl, args.seconds)
            finally:
                wl.close()
    except (KeyboardInterrupt, Interrupted, DeadlineExceeded) as exc:
        print(f"e2ebench: run aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    tally = wl.tally
    host.update(during)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "problems": tally.problems,
              "summaries": wl.summaries,
              "rows": {r.key: sorted(r.samples) for r in wl.rows},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()}}
    (scope.out_dir / f"result-{label}.json").write_text(json.dumps(record, indent=1))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:28s} {value:12.4f} {unit}")
    for name, (value, unit) in sorted(details.items()):
        print(f"  {args.workload}: {name:24s} {value:12.4f} {unit}")
    for name, s in wl.summaries.items():
        print(f"  {name}: {s['rows']} rows, {s['samples']} samples "
              f"(fewest in a row {s['fewest_row_samples']}), tail at p{s['tail_percentile']}")
    print("host " + json.dumps(host, sort_keys=True))
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

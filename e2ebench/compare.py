"""Compare two checkouts, parent and change, on the benchmark.

Usage::

    python3 e2ebench/compare.py --parent PARENT_DIR --change CHANGE_DIR \\
        [--workloads cold compute serve] [--pairs 10] [--seed 1000]

Both sides run this copy of the benchmark (identical benchmark code and
settings) against their own ``src/``, with the same seed and run length
(``run_seconds`` from ``BENCHMARK.json``), alternating which side runs
first.  For every workload x metric (the end-to-end metrics, then the
workload's own ones from its result record) it prints each side's
quartiles, the change's win share over the pairs (ties count for
neither side) and a verdict:

* ``improved`` — the change wins at least nine tenths of the pairs and
  the medians differ by more than the parent's own inter-quartile range,
  with no more failed operations than the parent;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — either side's run-to-run spread (inter-quartile range
  over median) is wider than the bound, unless every run of the change
  reads better than every run of the parent;
* ``no worse`` — otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

PKG_ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"

if __name__ == "__main__":
    sys.path.insert(0, str(PKG_ROOT))

from e2ebench.stats import quartiles, spread  # noqa: E402


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no result (exit {proc.returncode}): {proc.stderr[-300:]}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    record = checkout / ".bench_build" / "e2ebench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    result["details"] = json.loads(record.read_text())["details"] if record.is_file() else {}
    return result


def verdict(parent: List[float], change: List[float], lower_better: bool, bound: float,
            failed_parent: int, failed_change: int) -> Dict[str, object]:
    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    share = wins / len(parent)
    pq, cq = quartiles(parent), quartiles(change)
    sign = 1.0 if lower_better else -1.0
    worse_by = sign * (cq[1] - pq[1]) / pq[1]
    if (share >= 0.9 and better(cq[1], pq[1]) and abs(cq[1] - pq[1]) > pq[2] - pq[0]
            and failed_change <= failed_parent):
        word = "improved"
    elif worse_by > bound:
        word = "regressed"
    elif max(spread(parent), spread(change)) > bound and not all(
            better(c, p) for c in change for p in parent):
        word = "unresolved"
    else:
        word = "no worse"
    return {"parent": pq, "change": cq, "win_share": share, "worse_by": worse_by, "verdict": word}


def detail_spec(name: str, metrics: Dict[str, dict]) -> dict:
    """Direction and bound for a workload's own metric (``cold_vm_s.p50``,
    ``job_ms.tail``, ...): rates are better higher, times lower; the
    bound is the largest of the end-to-end bounds."""
    return {"better": "higher" if name.endswith("_per_s") else "lower",
            "bound": max(m["bound"] for m in metrics.values())}


def main(argv=None) -> int:
    spec = json.loads((PKG_ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(prog="e2ebench-compare", description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1000)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs: Dict[str, List[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_side(checkout, workload, seed, seconds))
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        rows = {}
        for group in ("metrics", "details"):
            every = runs["parent"] + runs["change"]
            for name in dict.fromkeys(n for r in every for n in r[group]):
                # A run with failed operations may lack metrics; compare
                # the pairs in which both sides have this one.
                pairs = [(p[group][name]["value"], c[group][name]["value"])
                         for p, c in zip(runs["parent"], runs["change"])
                         if name in p[group] and name in c[group]]
                if not pairs:
                    continue
                m = metrics.get(name, detail_spec(name, metrics))
                rows[name] = verdict([p for p, _ in pairs], [c for _, c in pairs],
                                     m["better"] == "lower", m["bound"],
                                     failed["parent"], failed["change"])
        report[workload] = {"failed": failed, "metrics": rows}
        print(f"\n{workload}: failed operations parent {failed['parent']}, change {failed['change']}")
        print(f"{'metric':24s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s} {'wins':>5s}  verdict")
        for name, row in rows.items():
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{name:24s} {fmt(row['parent']):>30s} {fmt(row['change']):>30s} "
                  f"{row['win_share']:5.0%}  {row['verdict']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

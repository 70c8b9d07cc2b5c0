"""Child-process roles, run as ``python3 -m e2ebench.probe <role> ...``.

Each role starts from a fresh interpreter so that it pays what a fresh
process pays; the parent times the whole process from spawn to exit.

* ``startup`` — time ``import repro`` and the first ``engine="vm"`` run
  in this process; prints their ``perf_counter`` intervals as JSON
  (``CLOCK_MONOTONIC``, so the parent can nest them in its own spans).
* ``setup-cold DIR`` — the cold workload's set-up: import the workload
  registry and write the deck's program files into ``DIR``.
* ``run-rows WHICH SEED OUT`` — import the package and run rows once
  (VM compile, native codegen and cache lookup, first execution):
  every compute row (``compute``, the compute workload's set-up) or the
  serve workload's ``c`` rows (``serve-c``).  Writes to the JSON file
  ``OUT`` the outputs, for the parent to judge, and the largest peak
  RSS of a native PE process, from ``RUSAGE_CHILDREN``: the PEs are
  this process's only children, the binaries being already built.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

TRIVIAL = "HAI 1.2\nVISIBLE \"O HAI \" ME\nKTHXBYE\n"


def startup() -> int:
    t0 = perf_counter()
    import repro

    t1 = perf_counter()
    result = repro.run_lolcode(TRIVIAL, 2, engine="vm", seed=1)
    t2 = perf_counter()
    if result.output != "O HAI 0\nO HAI 1\n":
        print(f"unexpected output {result.output!r}", file=sys.stderr)
        return 1
    print(json.dumps({"import": [t0, t1], "first_vm_run": [t1, t2]}))
    return 0


def setup_cold(deck_dir: str) -> int:
    from repro.workloads import all_workloads

    for w in all_workloads():
        if w.deterministic:
            Path(deck_dir, f"{w.name}.lol").write_text(w.source({}))
    return 0


def run_rows(which: str, seed: int, out: str) -> int:
    from repro import run_lolcode

    from e2ebench.programs import N_PES, compute_rows, serve_rows

    rows = compute_rows() if which == "compute" else [r for r in serve_rows() if r.engine == "c"]
    outputs = {}
    for row in rows:
        result = run_lolcode(row.source, N_PES, engine=row.engine,
                             executor=row.executor, seed=seed)
        outputs[row.key] = result.output
    maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    Path(out).write_text(json.dumps({"outputs": outputs, "native_maxrss_kb": maxrss}))
    return 0


def main(argv) -> int:
    role, *rest = argv
    if role == "startup":
        return startup()
    if role == "setup-cold":
        return setup_cold(rest[0])
    if role == "run-rows" and rest[0] in ("compute", "serve-c"):
        return run_rows(rest[0], int(rest[1]), rest[2])
    print(f"unknown probe role {role!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

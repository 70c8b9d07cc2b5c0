"""The program rows each workload runs, and their untimed oracles.

A row is one (program, engine, executor) combination at fixed sizes.
Interpreter-scale rows (``vm``) are sized so the dispatch loop dominates
a 40-160 ms call while the tree-walking ``ast`` oracle still fits in
set-up; native-scale rows (``c``) are sized so the generated C, not the
3-5 ms process spawn, dominates a 30-70 ms call; their reference is a
``c`` run judged by the workload checker alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

N_PES = 2

#: compute workload, interpreter scale (engine vm, thread executor)
VM_SIZES: Dict[str, Dict[str, int]] = {
    "nbody": {"particles": 32, "steps": 4},
    "heat2d": {"rows": 16, "cols": 32, "steps": 20},
    "heat3d": {"nz": 8, "nx": 8, "ny": 8, "steps": 12},
    "spmv": {"rows": 200, "nnzrow": 8},
    "sample_sort": {"keys": 140},
    "bfs": {"verts": 200, "rounds": 12},
    "pi_montecarlo": {"darts": 16000},
}
#: compute workload, native scale (engine c, process executor)
C_SIZES: Dict[str, Dict[str, int]] = {
    "nbody": {"particles": 512, "steps": 8},
    "heat2d": {"rows": 256, "cols": 512, "steps": 200},
    "heat3d": {"nz": 64, "nx": 64, "ny": 64, "steps": 80},
    "spmv": {"rows": 40000, "nnzrow": 16},
    "sample_sort": {"keys": 4000},
    "bfs": {"verts": 20000, "rounds": 40},
    "pi_montecarlo": {"darts": 1000000},
}
SERVE_KERNELS = (
    "ring", "transpose", "tree_reduce", "scan",
    "histogram", "bfs", "sample_sort", "spmv",
)
SERVE_CONFIGS = (("vm", "pool"), ("vm", "thread"), ("c", "process"))
COLD_EXAMPLES = ("ring", "locks", "barrier", "nbody2d_fixed")


@dataclass
class Row:
    key: str
    kernel: str
    engine: str
    executor: str
    source: str
    filename: str
    #: registry parameters; ``None`` for the example listings (no checker)
    params: Optional[Dict[str, int]] = None
    uses_random: bool = False
    #: engine of the reference run: the ``ast`` oracle, or ``c`` for
    #: native-scale rows and for ``c`` rows of programs that draw random
    #: numbers (the C ``rand()`` stream differs from the interpreters')
    ref: str = "ast"
    #: expected full output, filled in by :func:`prepare`
    expect: Optional[str] = None
    samples: List[float] = field(default_factory=list)


def _registry_row(kernel: str, params: Dict[str, int], engine: str, executor: str,
                  native_scale: bool = False) -> Row:
    from repro.compiler.native import uses_random
    from repro.workloads import get_workload

    source = get_workload(kernel).source(params)
    rand = uses_random(source)
    return Row(
        key=f"{engine}/{executor}/{kernel}", kernel=kernel, engine=engine,
        executor=executor, source=source, filename=f"<{kernel}>",
        params=dict(params), uses_random=rand,
        ref="c" if engine == "c" and (native_scale or rand) else "ast",
    )


def cold_rows(repo: Path, deck_dir: Path) -> List[Row]:
    """Registry kernels at default sizes plus the paper's example
    listings, each on ``vm`` and ``c``; sources are written to files
    because every request is a fresh ``lolrun`` process."""
    from repro.compiler.native import uses_random
    from repro.workloads import all_workloads

    programs = []
    for w in all_workloads():
        if not w.deterministic:
            continue  # nbody_racy: output varies run to run by design
        path = deck_dir / f"{w.name}.lol"
        path.write_text(w.source({}))
        programs.append((w.name, path, {}))
    for stem in COLD_EXAMPLES:
        programs.append((f"{stem}.lol", repo / "examples" / "lol" / f"{stem}.lol", None))
    rows = []
    for engine in ("vm", "c"):
        executor = "process" if engine == "c" else "thread"
        for kernel, path, params in programs:
            source = path.read_text()
            rand = uses_random(source)
            rows.append(Row(
                key=f"{engine}/{kernel}", kernel=kernel, engine=engine,
                executor=executor, source=source,
                filename=str(path.relative_to(repo)), params=params,
                uses_random=rand, ref="c" if engine == "c" and rand else "ast",
            ))
    return rows


def compute_rows() -> List[Row]:
    rows = [_registry_row(k, p, "vm", "thread") for k, p in VM_SIZES.items()]
    rows += [_registry_row(k, p, "c", "process", native_scale=True)
             for k, p in C_SIZES.items()]
    return rows


def serve_rows() -> List[Row]:
    return [
        _registry_row(k, {}, engine, executor)
        for engine, executor in SERVE_CONFIGS
        for k in SERVE_KERNELS
    ]


def deal(rows: Sequence[Row], rng: random.Random) -> Iterator[List[Row]]:
    """Endless passes over ``rows``, each pass a fresh shuffle, so every
    row gets the same number of samples after each whole pass."""
    while True:
        order = list(rows)
        rng.shuffle(order)
        yield order


# -- untimed preparation (runs in spawned helper processes) ----------------


def _reference(source: str, filename: str, engine: str, seed: int,
               kernel: str, params: Optional[Dict[str, int]]) -> tuple:
    from repro import run_lolcode
    from repro.workloads import get_workload

    executor = "process" if engine == "c" else "thread"
    result = run_lolcode(source, N_PES, engine=engine, executor=executor,
                         filename=filename, seed=seed)
    problems = []
    if params is not None:
        problems = get_workload(kernel).check(result, N_PES, params)
    return result.output, problems


def _build(source: str) -> None:
    from repro.compiler.native import build_native

    build_native(source, n_pes=N_PES)


class OracleError(RuntimeError):
    """Reference runs failed the workload checker; ``problems`` names
    each, and each counts as a failed operation."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def code_fingerprint(repo: Path) -> str:
    """Hash of every file of the package under test: a verified output
    is reused only by runs of exactly the same code."""
    digest = hashlib.sha256()
    root = repo / "src" / "repro"
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def prepare(rows: Sequence[Row], seed: int, verified_dir: Path, fingerprint: str,
            *, build_rows: Sequence[Row] = ()) -> None:
    """Fill every row's ``expect`` and warm the on-disk native cache.

    The expected output of a row is its reference run (``row.ref``: the
    ``ast`` oracle, or a ``c`` run where the oracle cannot apply), which
    must pass the workload checker first.  A timed result then has to
    match it bit for bit, which implies the checker's verdict without
    re-running checkers whose pure-Python references take seconds at
    native scale.  Verified outputs are kept in ``verified_dir`` keyed by
    code fingerprint, reference engine, source and (for programs that
    draw random numbers) seed, so later runs of the same code skip the
    reference run.  Two helper processes share the work; none is timed.
    """
    def key(row: Row) -> str:
        parts = [fingerprint, row.ref, row.source, str(seed) if row.uses_random else "-"]
        return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:32]

    verified_dir.mkdir(parents=True, exist_ok=True)
    missing: Dict[str, Row] = {}
    for row in rows:
        path = verified_dir / f"{key(row)}.json"
        if path.is_file():
            row.expect = json.loads(path.read_text())["output"]
        else:
            missing.setdefault(key(row), row)
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        refs = {k: pool.submit(_reference, r.source, r.filename, r.ref, seed,
                               r.kernel, r.params) for k, r in missing.items()}
        builds = [pool.submit(_build, r.source) for r in build_rows]
        for future in builds:
            future.result()
        failed = []
        for k, future in refs.items():
            output, problems = future.result()
            row = missing[k]
            if problems:
                failed.append(f"{row.ref} reference of {row.key}: {problems[0]}")
                continue
            (verified_dir / f"{k}.json").write_text(json.dumps({"row": row.key, "output": output}))
    if failed:
        raise OracleError(failed)
    for row in rows:
        if row.expect is None:
            row.expect = json.loads((verified_dir / f"{key(row)}.json").read_text())["output"]

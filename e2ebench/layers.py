"""The traced per-layer pass (``--trace 1``).

Every per-layer metric is timed from the benchmark's own files around
one public call of the layer, inside a span; the spans are written as a
Chrome trace at the end.  Each layer's calls sit under a per-request
*layer span* named after the layer, and ``<layer>.self_ms`` is the
median over those spans of the time their child spans do not cover
(interpreter boot and exit for ``startup``, socket and scheduling for
``service``, the benchmark's own glue elsewhere).

The pass first runs the workload's own requests, each row untraced and
traced back to back, and reports the difference as
``trace.overhead_pct``; end-to-end metrics never come from a traced
run.  The layer probes are the same on every workload.

Layer -> end-to-end metric it should move (workload):

==================================  =========================================
``startup.import_ms``,              ``cold_vm_s.p50``, ``cold_c_s.p50`` (cold)
``startup.first_vm_run_ms``
``lang.parse_ms``, ``lang.check_ms`` ``cold_*`` (cold)
``vm.compile_ms``                   ``cold_vm_s.p50`` (cold)
``vm.run_ms``                       ``vm_kernel_ms.p50`` (compute)
``compiler.codegen_ms``,            ``cold_c_s.p50`` (cold)
``compiler.cc_build_ms``
``compiler.cache_hit_ms``           ``job_c_ms.p50`` (serve)
``native.spawn_ms``                 ``job_c_ms.p50`` (serve)
``native.run_ms``                   ``c_kernel_ms.p50`` (compute)
``launch.thread_ms``                ``job_vm_thread_ms.p50`` (serve)
``launch.pool_ms``                  ``job_vm_pool_ms.p50`` (serve)
``shmem.*_us``                      ``job_vm_thread_ms.p50`` (serve)
``service.*``                       every ``job_*`` and ``jobs_per_s`` (serve)
==================================  =========================================
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from . import checks, programs, stats
from .hostinfo import cpu_times, steal_share
from .probe import TRIVIAL
from .programs import N_PES
from .spans import Spans
from .workloads import child_env, run_child

TRIVIAL_OUTPUT = "O HAI 0\nO HAI 1\n"
LAYERS = ("startup", "lang", "vm", "compiler", "native", "launch", "shmem", "service")
#: programs whose cold cc build is timed (one small, one stencil, one listing)
CC_BUILD_PROGRAMS = ("vm/ring", "vm/heat2d", "vm/nbody2d_fixed.lol")
SHMEM_OPS = 2000
#: share of ``--seconds`` spent measuring the tracing overhead
OVERHEAD_SHARE = 0.5

Metrics = Dict[str, Tuple[float, str]]


def _row_geomean(samples: Dict[str, List[float]]) -> float:
    return stats.geomean(statistics.median(xs) for xs in samples.values())


class LayerProbes:
    def __init__(self, wl, spans: Spans) -> None:
        self.wl = wl
        self.scope = wl.scope
        self.repo = wl.repo
        self.seed = wl.seed
        self.spans = spans
        self.tally = wl.tally
        self.metrics: Metrics = {}

    def timed(self, layer: str, call: str, fn, *args, **kwargs):
        """Run ``fn`` as one request: a layer span with one call span."""
        with self.spans.span(layer):
            with self.spans.span(f"{layer}.{call}") as sp:
                value = fn(*args, **kwargs)
        return value, sp.dur

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    # -- startup ---------------------------------------------------------------

    def startup(self) -> None:
        imports, firsts = [], []
        for _ in range(3):
            io = self.scope.scratch("startup-io")
            with self.spans.span("startup") as sp:
                status, out, err, _, _ = run_child(
                    [sys.executable, "-m", "e2ebench.probe", "startup"],
                    child_env(self.repo), io)
            if self.tally.record("startup", [] if status == 0 else [f"probe failed: {err[-200:]}"]):
                times = json.loads(out)
                for name, (t0, t1) in times.items():
                    self.spans.add(f"startup.{name}", t0, t1, sp)
                imports.append(times["import"][1] - times["import"][0])
                firsts.append(times["first_vm_run"][1] - times["first_vm_run"][0])
        self.put("startup.import_ms", statistics.median(imports) * 1e3, "ms")
        self.put("startup.first_vm_run_ms", statistics.median(firsts) * 1e3, "ms")

    # -- lang, vm compile, codegen over the cold deck ---------------------------

    def front_end(self, deck: List[programs.Row]) -> None:
        from repro.compiler.c_backend import compile_c
        from repro.lang.checker import check_program
        from repro.lang.parser import parse
        from repro.vm.compile import compile_program_vm

        parse_s: Dict[str, List[float]] = {}
        check_s: Dict[str, List[float]] = {}
        compile_s: Dict[str, List[float]] = {}
        codegen_s: Dict[str, List[float]] = {}
        for row in deck:
            for _ in range(3):
                with self.spans.span("lang"):
                    with self.spans.span("lang.parse") as sp:
                        tree = parse(row.source, row.filename)
                    parse_s.setdefault(row.kernel, []).append(sp.dur)
                    with self.spans.span("lang.check") as sp:
                        check_program(tree)
                    check_s.setdefault(row.kernel, []).append(sp.dur)
                _, dur = self.timed("vm", "compile", compile_program_vm, tree)
                compile_s.setdefault(row.kernel, []).append(dur)
                _, dur = self.timed("compiler", "codegen", compile_c, tree, row.filename, n_pes=N_PES)
                codegen_s.setdefault(row.kernel, []).append(dur)
        self.put("lang.parse_ms", _row_geomean(parse_s) * 1e3, "ms")
        self.put("lang.check_ms", _row_geomean(check_s) * 1e3, "ms")
        self.put("vm.compile_ms", _row_geomean(compile_s) * 1e3, "ms")
        self.put("compiler.codegen_ms", _row_geomean(codegen_s) * 1e3, "ms")

    # -- compiler: cc build (cold cache), cache hit, binary size ----------------

    def compiler(self, deck: List[programs.Row], serve: List[programs.Row]) -> None:
        from repro.compiler.native import build_native

        by_key = {r.key: r for r in deck}
        build_s: Dict[str, List[float]] = {}
        sizes = []
        for key in CC_BUILD_PROGRAMS:
            row = by_key[key]
            for _ in range(2):
                # A fresh cache directory, and the old one removed so the
                # in-process memo cannot answer: a real cc build.
                os.environ["LOL_CC_CACHE"] = str(self.scope.scratch("cc-cold"))
                binary, dur = self.timed("compiler", "cc_build", build_native, row.source, row.filename, n_pes=N_PES)
                build_s.setdefault(key, []).append(dur)
            sizes.append(binary.stat().st_size / 1024.0)
        os.environ["LOL_CC_CACHE"] = str(self.scope.dir / "cc")
        hit_s: Dict[str, List[float]] = {}
        for row in serve:
            build_native(row.source, n_pes=N_PES)
            for _ in range(5):
                _, dur = self.timed("compiler", "cache_hit", build_native, row.source, n_pes=N_PES)
                hit_s.setdefault(row.kernel, []).append(dur)
        self.put("compiler.cc_build_ms", _row_geomean(build_s) * 1e3, "ms")
        self.put("compiler.cache_hit_ms", _row_geomean(hit_s) * 1e3, "ms")
        self.put("compiler.binary_kb", stats.geomean(sizes), "KiB")

    # -- vm and native execution of the compute rows ----------------------------

    def execution(self, compute: List[programs.Row]) -> None:
        from repro.compiler.native import build_native, run_native
        from repro.interp import compile_vm_cached
        from repro.shmem import run_spmd

        vm_s: Dict[str, List[float]] = {}
        native_s: Dict[str, List[float]] = {}
        for row in compute:
            if row.engine == "vm":
                prog = compile_vm_cached(row.source, row.filename, False, False)
                fn = partial(run_spmd, prog.run, N_PES, seed=self.seed)
                layer, bucket = "vm", vm_s
            else:
                binary = build_native(row.source, n_pes=N_PES)
                fn = partial(run_native, binary, N_PES, seed=self.seed)
                layer, bucket = "native", native_s
            fn()  # warm
            for _ in range(3):
                result, dur = self.timed(layer, "run", fn)
                if self.tally.record(f"{layer}.run {row.key}", checks.judge_spmd(result, expect=row.expect)):
                    bucket.setdefault(row.kernel, []).append(dur)
        self.put("vm.run_ms", _row_geomean(vm_s) * 1e3, "ms")
        self.put("native.run_ms", _row_geomean(native_s) * 1e3, "ms")
        binary = build_native(TRIVIAL, n_pes=N_PES)
        spawn = []
        for _ in range(15):
            result, dur = self.timed("native", "spawn", run_native, binary, N_PES)
            if self.tally.record("native.spawn", checks.expect_problems(result.output, TRIVIAL_OUTPUT)):
                spawn.append(dur)
        self.put("native.spawn_ms", statistics.median(spawn) * 1e3, "ms")

    # -- launcher ---------------------------------------------------------------

    def launcher(self) -> None:
        from repro import run_lolcode
        from repro.service.pool import shutdown_default_pool

        try:
            for executor in ("thread", "pool"):
                run = partial(run_lolcode, TRIVIAL, N_PES, engine="vm", executor=executor)
                run()  # warm: compile cache, and the pool's worker processes
                times = []
                for _ in range(20):
                    result, dur = self.timed("launch", executor, run)
                    if self.tally.record(f"launch.{executor}", checks.expect_problems(result.output, TRIVIAL_OUTPUT)):
                        times.append(dur)
                self.put(f"launch.{executor}_ms", statistics.median(times) * 1e3, "ms")
        finally:
            shutdown_default_pool()

    # -- shmem ------------------------------------------------------------------

    def shmem(self, serve: List[programs.Row]) -> None:
        from repro import run_lolcode, run_spmd

        per_op: Dict[str, List[float]] = {}
        for _ in range(3):
            with self.spans.span("shmem") as layer:
                result = run_spmd(_shmem_loops, N_PES)
            for op, (t0, t1) in result.returns[0].items():
                self.spans.add(f"shmem.{op}", t0, t1, layer, ops=SHMEM_OPS)
                per_op.setdefault(op, []).append((t1 - t0) / SHMEM_OPS)
        for op, xs in per_op.items():
            self.put(f"shmem.{op}_us", statistics.median(xs) * 1e6, "us")
        ops, nbytes = [], []
        for row in serve:
            result = run_lolcode(row.source, N_PES, engine="vm", seed=self.seed, trace=True)
            self.tally.record(f"shmem.trace {row.key}", checks.judge_spmd(result, expect=row.expect))
            s = result.trace.summary()
            ops.append(s["puts"] + s["gets"] + s["barriers"] + s["locks"])
            nbytes.append(s["remote_bytes"])
        self.put("shmem.ops_per_job", statistics.mean(ops), "count")
        self.put("shmem.bytes_per_job", statistics.mean(nbytes), "bytes")

    # -- service ----------------------------------------------------------------

    def service(self, serve_wl) -> None:
        serve_wl.setup()
        client = serve_wl.client
        pings = []
        for _ in range(20):
            with self.spans.span("service.ping") as sp:
                client.ping()
            pings.append(sp.dur)
        self.put("service.ping_ms", statistics.median(pings) * 1e3, "ms")
        # Server timestamps are wall-clock; map them onto perf_counter.
        offset = time.time() - perf_counter()
        queue: Dict[str, List[float]] = {}
        execs: Dict[str, List[float]] = {}
        over: Dict[str, List[float]] = {}
        attempts = []
        for order in [serve_wl.rows] * 4:
            for row in order:
                with self.spans.span("service") as sp:
                    job = serve_wl.submit(row)
                if not self.tally.record(f"service {row.key}", checks.judge_job(job, expect=row.expect)):
                    continue
                seconds = job["result"]["seconds"]
                start = job["started_at"] - offset
                self.spans.add("service.queue", job["submitted_at"] - offset, start, sp)
                self.spans.add("service.exec", start, start + seconds, sp)
                queue.setdefault(row.key, []).append(job["started_at"] - job["submitted_at"])
                execs.setdefault(row.key, []).append(seconds)
                over.setdefault(row.key, []).append(sp.dur - seconds)
                attempts.append(job["result"].get("attempt_count", 1))
        serve_wl.close()
        # Queue waits can be 0 at the server's clock resolution: report
        # their plain median rather than a geometric mean.
        self.put("service.queue_ms", statistics.median(x for xs in queue.values() for x in xs) * 1e3, "ms")
        self.put("service.exec_ms", _row_geomean(execs) * 1e3, "ms")
        self.put("service.overhead_ms", _row_geomean(over) * 1e3, "ms")
        self.put("service.attempts_per_job", statistics.mean(attempts), "count")

    def self_times(self) -> None:
        for layer in LAYERS:
            self.put(f"{layer}.self_ms", statistics.median(self.spans.self_times(layer)) * 1e3, "ms")


def _shmem_loops(ctx) -> Dict[str, Tuple[float, float]]:
    """Per-op loops on one PE; both PEs run them in lock step."""
    from repro.lang.types import LolType

    ctx.alloc_array("e2e_buf", LolType.NUMBR, 64)
    ctx.alloc_scalar("e2e_lock", LolType.NUMBR, has_lock=True)
    other = (ctx.my_pe + 1) % ctx.n_pes
    ctx.barrier_all()
    spans = {}
    t0 = perf_counter()
    for _ in range(SHMEM_OPS):
        ctx.barrier_all()
    spans["barrier"] = (t0, perf_counter())
    ctx.barrier_all()
    t0 = perf_counter()
    for i in range(SHMEM_OPS):
        ctx.get("e2e_buf", other, i % 64)
    spans["get"] = (t0, perf_counter())
    ctx.barrier_all()
    t0 = perf_counter()
    for i in range(SHMEM_OPS):
        ctx.put("e2e_buf", i, other, i % 64)
    spans["put"] = (t0, perf_counter())
    ctx.barrier_all()
    t0 = perf_counter()
    for _ in range(SHMEM_OPS):
        ctx.set_lock("e2e_lock")
        ctx.clear_lock("e2e_lock")
    spans["lock"] = (t0, perf_counter())
    ctx.barrier_all()
    return spans


def trace_overhead(wl, spans: Spans, seconds: float) -> float:
    """Tracing overhead on the workload's own requests, in percent.

    Every request of a row is paired with one of the same row in the
    other mode, back to back, the first of the pair alternating between
    untraced and traced; whole pairs run until ``seconds`` elapse.  The
    result is the geometric mean over the rows sampled of their traced
    to untraced median ratio, so every row compared is sampled in both
    modes whichever rows the time allowed.
    """
    by_row: Dict[str, Tuple[List[float], List[float]]] = {}
    deadline = perf_counter() + seconds
    first = 0
    for row in (row for order in wl.passes() for row in order):
        if perf_counter() >= deadline:
            break
        got: List[List[float]] = [[], []]
        for traced in (first, 1 - first):
            wl.span = spans if traced else None
            n = len(row.samples)
            wl.request(row)
            got[traced] = row.samples[n:]
        first = 1 - first
        if got[0] and got[1]:
            pair = by_row.setdefault(row.key, ([], []))
            pair[0].extend(got[0])
            pair[1].extend(got[1])
    wl.span = None
    return (stats.geomean(statistics.median(t) / statistics.median(u)
                          for u, t in by_row.values()) - 1.0) * 100.0


def traced_pass(wl, seconds: float, trace_path: Path):
    """Run the traced pass for workload ``wl``; returns (metrics, facts)."""
    from .workloads import Cold, Compute, Serve

    spans = Spans()
    probes = LayerProbes(wl, spans)
    before = cpu_times()

    wl.setup()
    wl.warm()
    wl.reset_samples()
    probes.put("trace.overhead_pct", trace_overhead(wl, spans, seconds * OVERHEAD_SHARE), "%")
    wl.close()

    # Rows the probes need, whatever the workload: cold deck, compute
    # rows, serve rows, each with verified expected outputs.
    others = {}
    for cls in (Cold, Compute, Serve):
        other = wl if isinstance(wl, cls) else cls(wl.scope, wl.seed)
        if other is not wl:
            other.tally = wl.tally
            other.prepare()
        others[cls.name] = other
    deck = [r for r in others["cold"].rows if r.engine == "vm"]
    compute = others["compute"].rows
    serve_vm = [r for r in others["serve"].rows if r.executor == "thread"]

    probes.startup()
    probes.front_end(deck)
    probes.compiler(others["cold"].rows, serve_vm)
    probes.execution(compute)
    probes.launcher()
    probes.shmem(serve_vm)
    probes.service(others["serve"])
    probes.self_times()
    probes.put("trace.spans", float(len(spans.spans)), "count")
    spans.export_chrome(trace_path)
    facts = {"steal_share": steal_share(before, cpu_times()), "trace_file": str(trace_path)}
    return probes.metrics, facts

"""The three workloads: ``cold``, ``compute`` and ``serve``.

Each does one thing for the whole run, from one process, closed loop
with one request outstanding (at most two busy PEs on a 2-CPU host):

* ``cold`` — a student's edit-and-run loop: every request is a fresh
  ``python -m repro.cli prog.lol -np 2 --check warn`` process, alternating
  ``--engine vm`` and ``--engine c``; every ``c`` request gets an empty
  ``LOL_CC_CACHE`` so it pays the cc build.  Startup, parse, analysis,
  compile and cc dominate.
* ``compute`` — the paper's interpreted-vs-compiled comparison: warm
  in-process ``run_lolcode`` calls at np=2, ``vm``/``thread`` rows at
  interpreter scale and ``c``/``process`` rows at native scale.  The VM
  dispatch loop, the vectorizer and the generated C dominate.
* ``serve`` — a class submitting to a live ``lolserve serve`` child:
  one client, one job outstanding, default-size kernels on ``vm``/``pool``,
  ``vm``/``thread`` and ``c``/``process``.  Scheduler, socket, launch,
  SHMEM comm and native spawn dominate.

A workload object is driven as: :meth:`prepare` (untimed oracles and
native builds), :meth:`setup` once (timed), :meth:`warm` (untimed),
:meth:`measure` (the timed loop, with further timed set-ups spread
through it; ``setup_s`` is the median of all), :meth:`metrics`,
:meth:`close`.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import checks, programs, stats
from .hygiene import RunScope
from .programs import N_PES, Row

PKG_ROOT = Path(__file__).resolve().parent.parent
#: per-request limit; a request over it is killed and counted as failed
REQUEST_TIMEOUT = 60.0


def child_env(repo: Path, **extra: str) -> Dict[str, str]:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join([str(repo / "src"), str(PKG_ROOT)])
    return env


def run_child(cmd: Sequence[str], env: Dict[str, str], scratch: Path,
              timeout: float = REQUEST_TIMEOUT) -> Tuple[Optional[int], str, str, int, float]:
    """Run one child to completion: (status or None on timeout, stdout,
    stderr, peak RSS of its process tree in KiB, wall seconds).

    The child is reaped with ``wait4`` so its resource usage (which
    includes the descendants it waited for: cc, native PEs) is known.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - t0
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode == -9 and elapsed >= timeout
    return (None if timed_out else proc.returncode,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
            usage.ru_maxrss, elapsed)


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, KiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def children_of(pid: int) -> List[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(p) for p in text.split()]


class Workload:
    name = ""

    def __init__(self, scope: RunScope, seed: int) -> None:
        self.scope = scope
        self.repo = scope.repo
        self.seed = seed
        self.rng = random.Random(seed)
        self.tally = checks.Tally()
        self.rows: List[Row] = []
        self.summaries: Dict[str, dict] = {}
        self.wall = 0.0
        self.span = None  # set to a Spans recorder for traced runs
        self.verified = scope.out_dir.parent / "verified"
        self.fingerprint = programs.code_fingerprint(self.repo)

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> float:
        raise NotImplementedError

    def run_rows_probe(self, which: str) -> Tuple[float, int]:
        """Run rows in a fresh process (``probe run-rows``) and judge their
        outputs; returns the probe's wall seconds and the largest peak
        RSS (KiB) of a native PE process it started."""
        io = self.scope.scratch("probe-io")
        status, _, err, _, elapsed = run_child(
            [sys.executable, "-m", "e2ebench.probe", "run-rows", which, str(self.seed),
             str(io / "out.json")], child_env(self.repo), io)
        if status != 0:
            self.tally.record(f"probe {which}", [f"probe failed: {err[-200:]}"])
            return elapsed, 0
        result = json.loads((io / "out.json").read_text())
        by_key = {r.key: r for r in self.rows}
        for key, output in result["outputs"].items():
            self.tally.record(f"probe {key}", checks.expect_problems(output, by_key[key].expect))
        return elapsed, result["native_maxrss_kb"]

    def warm(self) -> None:
        pass

    def passes(self) -> Iterator[List[Row]]:
        """Endless shuffled passes over the rows (see :func:`programs.deal`)."""
        return programs.deal(self.rows, self.rng)

    def request(self, row: Row) -> None:
        """One timed request of ``row``, judged after its timer stops; a
        passing request appends its time to ``row.samples``."""
        raise NotImplementedError

    def measure(self, seconds: float, setups: List[float], reps: int) -> None:
        """The timed loop: whole passes over the rows, ending at the pass
        boundary nearest ``seconds``, so every row gets the same number
        of samples.  ``reps`` more set-ups, spread evenly over the loop
        (between two requests, their time left out of the loop's), are
        appended to ``setups``; host slow-downs then fall on set-up and
        requests alike, not on a burst of set-ups at the start.
        """
        due = [seconds * (i + 0.5) / reps for i in range(reps)]
        start, paused, n_passes = perf_counter(), 0.0, 0
        for order in self.passes():
            for row in order:
                if due and perf_counter() - start - paused >= due[0]:
                    due.pop(0)
                    t0 = perf_counter()
                    setups.append(self.setup())
                    paused += perf_counter() - t0
                self.request(row)
            self.after_pass()
            n_passes += 1
            elapsed = perf_counter() - start - paused
            if elapsed + elapsed / n_passes / 2 >= seconds:
                break
        self.wall = elapsed
        setups.extend(self.setup() for _ in due)

    def after_pass(self) -> None:
        pass

    def peak_rss_kb(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        pass

    #: how :func:`stats.row_summary` normalises samples for the tail
    normalise = "row"

    def summarise(self, name: str, rows: Sequence[Row]) -> dict:
        """Row statistics in ms; raises ``ValueError`` when a row has no
        samples (every request of it failed)."""
        summary = stats.row_summary(
            {r.key: [x * 1e3 for x in r.samples] for r in rows}, self.normalise)
        self.summaries[name] = summary
        return summary

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics every workload reports (``setup_s`` is
        added by the caller): median latency of its ``vm`` and ``c``
        requests, closed-loop request rate, peak RSS."""
        out = {}
        for engine in ("vm", "c"):
            s = self.summarise(f"{engine}_ms", [r for r in self.rows if r.engine == engine])
            out[f"{engine}_ms.p50"] = (s["p50"], "ms")
        completed = sum(len(r.samples) for r in self.rows)
        out["requests_per_s"] = (completed / self.wall, "1/s")
        out["peak_rss_mb"] = (self.peak_rss_kb() / 1024.0, "MB")
        return out

    def details(self) -> Dict[str, Tuple[float, str]]:
        """This workload's own metrics: the same medians under its own
        names, plus tails (called after :meth:`metrics`)."""
        return {}

    def reset_samples(self) -> None:
        for row in self.rows:
            row.samples.clear()

    def _request_span(self, row: Row):
        """A ``request`` span around one timed request in traced runs."""
        if self.span is None:
            return nullcontext()
        return self.span.span("request", workload=self.name, row=row.key)


class Cold(Workload):
    name = "cold"
    normalise = "p50"

    def prepare(self) -> None:
        deck = self.scope.scratch("deck")
        self.rows = programs.cold_rows(self.repo, deck)
        programs.prepare(self.rows, self.seed, self.verified, self.fingerprint)
        self.peak_kb = 0

    def setup(self) -> float:
        probe_dir = self.scope.scratch("setup-deck")
        status, _, err, _, elapsed = run_child(
            [sys.executable, "-m", "e2ebench.probe", "setup-cold", str(probe_dir)],
            child_env(self.repo), self.scope.scratch("setup-io"))
        self.tally.record("setup", [] if status == 0 else [f"set-up probe failed: {err[-200:]}"])
        return elapsed

    def passes(self) -> Iterator[List[Row]]:
        """Each pass is a fresh shuffle of the vm rows and of the c rows,
        taken alternately: vm, c, vm, c, ..."""
        by_engine = [[r for r in self.rows if r.engine == e] for e in ("vm", "c")]
        while True:
            for rows in by_engine:
                self.rng.shuffle(rows)
            yield [r for pair in zip(*by_engine) for r in pair]

    def request(self, row: Row) -> None:
        io = self.scope.scratch("cold-io")
        extra = {}
        if row.engine == "c":
            extra["LOL_CC_CACHE"] = str(self.scope.scratch("cold-cc"))
        cmd = [sys.executable, "-m", "repro.cli", row.filename, "-np", str(N_PES),
               "--check", "warn", "--engine", row.engine, "--seed", str(self.seed)]
        with self._request_span(row):
            status, out, err, maxrss, elapsed = run_child(
                cmd, child_env(self.repo, **extra), io)
        self.peak_kb = max(self.peak_kb, maxrss)
        problems = checks.judge_process(status, out, err, expect=row.expect)
        if self.tally.record(row.key, problems):
            row.samples.append(elapsed)

    def peak_rss_kb(self) -> int:
        """Largest peak RSS of a request's process tree (``wait4`` reports
        the largest of the lolrun process, cc and the native PEs)."""
        return self.peak_kb

    def details(self):
        return {f"cold_{engine}_s.{stat}": (self.summaries[f"{engine}_ms"][stat] / 1e3, "s")
                for engine in ("vm", "c") for stat in ("p50", "tail")}


class Compute(Workload):
    name = "compute"

    def prepare(self) -> None:
        self.rows = programs.compute_rows()
        programs.prepare(self.rows, self.seed, self.verified, self.fingerprint,
                         build_rows=[r for r in self.rows if r.engine == "c"])
        self.native_kb = 0

    def setup(self) -> float:
        elapsed, native_kb = self.run_rows_probe("compute")
        self.native_kb = max(self.native_kb, native_kb)
        return elapsed

    def call(self, row: Row):
        from repro import run_lolcode

        return run_lolcode(row.source, N_PES, engine=row.engine,
                           executor=row.executor, filename=row.filename, seed=self.seed)

    def judge(self, row: Row, result) -> List[str]:
        return checks.judge_spmd(result, expect=row.expect)

    def warm(self) -> None:
        for row in self.rows:
            self.tally.record(f"warm {row.key}", self.judge(row, self.call(row)))

    def request(self, row: Row) -> None:
        from repro.lang.errors import LolError

        with self._request_span(row):
            t0 = perf_counter()
            try:
                result = self.call(row)
            except LolError as exc:
                self.tally.record(row.key, [f"{type(exc).__name__}: {exc}"])
                return
            elapsed = perf_counter() - t0
        if self.tally.record(row.key, self.judge(row, result)):
            row.samples.append(elapsed)

    def peak_rss_kb(self) -> int:
        """This process's peak RSS plus, for each PE, the largest peak of
        a native PE process (measured by the set-up probe, which runs the
        same binaries on the same inputs)."""
        return vm_hwm_kb(os.getpid()) + N_PES * self.native_kb

    def details(self):
        return {f"{engine}_kernel_ms.{stat}": (self.summaries[f"{engine}_ms"][stat], "ms")
                for engine in ("vm", "c") for stat in ("p50", "tail")}


class Serve(Workload):
    name = "serve"

    def prepare(self) -> None:
        self.server: Optional[subprocess.Popen] = None
        self.client = None
        #: peak RSS (KiB) of each process of the live server: it and its pool workers
        self.server_kb: Dict[int, int] = {}
        self.peak_kb = 0
        self.rows = programs.serve_rows()
        programs.prepare(self.rows, self.seed, self.verified, self.fingerprint,
                         build_rows=[r for r in self.rows if r.engine == "c"])
        _, self.native_kb = self.run_rows_probe("serve-c")

    def sample_server(self) -> None:
        """Record the peak RSS of the server and its live children."""
        if self.server is None:
            return
        for pid in [self.server.pid, *children_of(self.server.pid)]:
            self.server_kb[pid] = max(self.server_kb.get(pid, 0), vm_hwm_kb(pid))

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.sample_server()
        self.peak_kb = max(self.peak_kb, sum(self.server_kb.values()))
        self.server_kb = {}
        try:
            self.client.shutdown()
        except Exception:  # noqa: BLE001 - already gone; reaped below
            pass
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None

    def submit(self, row: Row) -> dict:
        job_id = self.client.submit(workload=row.kernel, n_pes=N_PES, engine=row.engine,
                                    executor=row.executor, seed=self.seed)
        return self.client.wait(job_id, timeout=REQUEST_TIMEOUT)

    def setup(self) -> float:
        """Start a server, wait until it answers, and run one job of
        every row (pool workers spawned, programs compiled, binaries
        found in the on-disk cache).  A running server is stopped first."""
        from repro.service.client import ServiceClient
        from repro.service.scheduler import ServiceError

        self._stop_server()
        sock_dir = self.scope.scratch("sock")
        socket_path = os.path.relpath(sock_dir / "s.sock", self.repo)
        t0 = perf_counter()
        with open(sock_dir / "server.log", "wb") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.service.cli", "serve", "--socket", socket_path],
                env=child_env(self.repo), cwd=self.repo,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log)
        self.client = ServiceClient(socket_path, timeout=REQUEST_TIMEOUT)
        while True:
            try:
                self.client.request("ping")
                break
            except ServiceError:
                if self.server.poll() is not None or perf_counter() - t0 > REQUEST_TIMEOUT:
                    self.tally.record("setup", ["lolserve did not start"])
                    raise
                time.sleep(0.005)
        for row in self.rows:
            self.tally.record(f"warm {row.key}", checks.judge_job(self.submit(row), expect=row.expect))
        return perf_counter() - t0

    def request(self, row: Row) -> None:
        from repro.service.scheduler import ServiceError

        with self._request_span(row):
            t0 = perf_counter()
            try:
                job = self.submit(row)
            except ServiceError as exc:
                job = {"state": "error", "error": f"{type(exc).__name__}: {exc}"}
            elapsed = perf_counter() - t0
        if self.tally.record(row.key, checks.judge_job(job, expect=row.expect)):
            row.samples.append(elapsed)

    def after_pass(self) -> None:
        self.sample_server()

    def peak_rss_kb(self) -> int:
        """Peak RSS of the server plus its pool workers (the largest over
        the servers of a run), plus, for each PE, the largest peak of a
        native PE process (measured by a probe running the c rows)."""
        self.sample_server()
        return max(self.peak_kb, sum(self.server_kb.values())) + N_PES * self.native_kb

    def details(self):
        out = {}
        for executor in ("thread", "pool"):
            s = self.summarise(f"job_vm_{executor}_ms",
                               [r for r in self.rows if (r.engine, r.executor) == ("vm", executor)])
            out[f"job_vm_{executor}_ms.p50"] = (s["p50"], "ms")
        out["job_c_ms.p50"] = (self.summaries["c_ms"]["p50"], "ms")
        out["job_ms.tail"] = (self.summarise("job_ms", self.rows)["tail"], "ms")
        out["jobs_per_s"] = (sum(len(r.samples) for r in self.rows) / self.wall, "1/s")
        return out

    def close(self) -> None:
        self._stop_server()


WORKLOADS = {w.name: w for w in (Cold, Compute, Serve)}

"""The engine table: every per-engine decision the launcher, the CLIs,
the service, the bench and the fuzzer make, in one place.

Each :class:`Engine` row says how a PE runs the engine, whether it
counts ``max_steps``, whether it can record op traces, and whether its
PEs are native OS processes.  :func:`check_launch` turns those columns
into the refusals ``run_lolcode`` makes and that submitters
(``lolserve``, the CLIs) make up front, so an error message can only
ever name engines that exist.

``"c"`` is the paper's ``lcc`` pipeline: it has no Python PE body —
its PEs are the built binary, launched by :mod:`repro.compiler.native`
(imported only when a native run starts, so interpreter runs never
load the C backend).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .. import obs as _obs
from ..interp import compile_closures_cached, compile_vm_cached
from ..interp.interpreter import Interpreter
from ..lang.errors import LolParallelError
from ..lang.parser import parse_cached
from ..shmem.api import ShmemContext

#: ``run_pe(source, filename, max_steps, ctx)`` — one PE's engine body.
PeRunner = Callable[[str, str, Optional[int], ShmemContext], None]

EXECUTORS = ("thread", "process", "serial", "pool")


def _compile_span(fn, engine: str, ctx: ShmemContext, *args):
    """Call a cached compile front-end inside a ``compile`` span when
    tracing is armed (a cache hit shows up as a ~0-duration span)."""
    rt = _obs.ACTIVE
    if rt is None or not rt.trace_on:
        return fn(*args)
    with rt.tracer.span("compile", engine, tid=f"PE-{ctx.my_pe}"):
        return fn(*args)


def _run_ast(source, filename, max_steps, ctx) -> None:
    Interpreter(parse_cached(source, filename), ctx, max_steps=max_steps).run()


def _run_closure(source, filename, max_steps, ctx) -> None:
    # count_flops keys off whether tracing is on (FLOP accounting is
    # compiled into the closures).
    _compile_span(
        compile_closures_cached,
        "closure",
        ctx,
        source,
        filename,
        ctx.trace is not None,
    ).run(ctx)


def _run_vm(source, filename, max_steps, ctx) -> None:
    # The VM counts statement steps in its own dispatch loop, so a
    # max_steps limit never changes which engine runs.
    _compile_span(
        compile_vm_cached,
        "vm",
        ctx,
        source,
        filename,
        ctx.trace is not None,
        max_steps is not None,
    ).run(ctx, max_steps=max_steps)


@dataclass(frozen=True)
class Engine:
    """One execution engine's row in :data:`ENGINE_TABLE`."""

    name: str
    #: how a PE runs it; ``None`` for native engines, whose PEs are the
    #: built binary rather than a Python body
    run_pe: Optional[PeRunner]
    #: honours ``max_steps`` (counted natively, never by an engine swap)
    counts_steps: bool
    #: can record op traces (``trace=True``)
    traces: bool
    #: PEs are native OS processes (executor ``process``, or ``serial``
    #: at one PE), so no race detection
    native: bool


#: Reference engine (the oracle) first: bench differentials and the
#: fuzzer compare every other engine against the first row.
ENGINE_TABLE: dict[str, Engine] = {
    row.name: row
    for row in (
        Engine("ast", _run_ast, counts_steps=True, traces=True, native=False),
        Engine(
            "closure", _run_closure, counts_steps=False, traces=True, native=False
        ),
        Engine("vm", _run_vm, counts_steps=True, traces=True, native=False),
        Engine("c", None, counts_steps=False, traces=False, native=True),
    )
}

#: The engine every entry point uses when none is named.
DEFAULT_ENGINE = "closure"

ENGINES = tuple(ENGINE_TABLE)

#: Engines whose PEs run in Python (the fuzzer's and bench's default
#: matrix: native ``rand()`` output is not bit-comparable).
PYTHON_ENGINES = tuple(n for n, row in ENGINE_TABLE.items() if not row.native)


def _names(pred) -> str:
    return ", ".join(repr(n) for n, row in ENGINE_TABLE.items() if pred(row))


def engine_row(name: str, what: str = "engine") -> Engine:
    """The table row for ``name``; an unknown name is a typed error."""
    try:
        return ENGINE_TABLE[name]
    except (KeyError, TypeError):
        raise LolParallelError(
            f"unknown {what} {name!r} (choose from {ENGINES})"
        ) from None


def check_launch(
    engine: str,
    executor: str,
    n_pes: int,
    *,
    max_steps: Optional[int] = None,
    trace: bool = False,
    race_detection: bool = False,
    fallback_engine: Optional[str] = None,
) -> None:
    """Refuse a launch the engine table says cannot run as asked.

    Every refusal is a :class:`~repro.lang.errors.LolParallelError`
    raised before anything is compiled or spawned — never a silent
    fallback to a different engine.
    """
    if executor not in EXECUTORS:
        raise LolParallelError(
            f"unknown executor {executor!r} (choose from {EXECUTORS})"
        )
    row = engine_row(engine)
    if fallback_engine is not None:
        engine_row(fallback_engine, "fallback_engine")
        if fallback_engine == engine:
            raise LolParallelError(
                f"fallback_engine must differ from engine (both {engine!r})"
            )
    if row.native and executor not in ("process", "serial"):
        raise LolParallelError(
            f"engine={engine!r} runs PEs as native OS processes; use "
            f"executor='process' (got {executor!r})"
        )
    if executor == "serial" and n_pes != 1:
        raise LolParallelError(
            f"serial executor runs exactly 1 PE, got {n_pes}"
        )
    if max_steps is not None and not row.counts_steps:
        raise LolParallelError(
            f"engine={engine!r} does not support max_steps; use a "
            f"step-counting engine ({_names(lambda r: r.counts_steps)})"
        )
    if trace and not row.traces:
        raise LolParallelError(
            f"engine={engine!r} does not support op tracing; use a "
            f"tracing engine ({_names(lambda r: r.traces)})"
        )
    if race_detection and (row.native or executor in ("process", "pool")):
        raise LolParallelError("race detection requires the thread executor")

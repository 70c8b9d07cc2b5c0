"""``loltrace`` and ``lolprof`` — the observability CLIs.

* ``loltrace`` arms the tracing plane, runs a LOLCODE file or a
  registered workload under any executor/engine, and writes the merged
  timeline (all PEs, pool workers included) as Chrome trace-event JSON
  — drag the file into https://ui.perfetto.dev or ``chrome://tracing``.
* ``lolprof`` runs a program on the register-bytecode VM with the
  per-opcode profiler (:mod:`repro.obs.vmprof`) and prints a
  count/self-time table per opcode, aggregated across PEs.

Both follow the ``repro.cli`` conventions: ``main(argv) -> int``,
LOLCODE errors reported via their ``describe()`` form, exit code 0 on
success.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from .. import obs
from ..lang.errors import LolError


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fail(exc: LolError) -> int:
    print(exc.describe(), file=sys.stderr)
    return 1


def _parse_sets(pairs: Sequence[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects name=value, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            out[key.strip()] = int(value)
        except ValueError:
            raise SystemExit(f"--set {key}: not an integer: {value!r}")
    return out


def _resolve_source(args) -> tuple:
    """(source text, filename) from either a file or --workload."""
    if args.workload:
        from ..workloads import get_workload

        workload = get_workload(args.workload)
        params = workload.bind_params(_parse_sets(args.set), smoke=args.smoke)
        return workload.source_fn(params), f"<workload:{workload.name}>"
    if not args.source:
        raise SystemExit("need a source file or --workload NAME")
    return _read(args.source), args.source


def loltrace_main(argv: Optional[Sequence[str]] = None) -> int:
    from ..launcher.engines import DEFAULT_ENGINE, ENGINES

    parser = argparse.ArgumentParser(
        prog="loltrace",
        description="run parallel LOLCODE with structured tracing armed "
        "and export a Chrome trace-event JSON (opens in Perfetto)",
    )
    parser.add_argument(
        "source", nargs="?", help="input .lol file ('-' for stdin)"
    )
    parser.add_argument(
        "--workload", help="trace a registered workload instead of a file"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="use the workload's smoke sizes"
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="workload parameter override (repeatable)",
    )
    parser.add_argument("-np", "--n-pes", type=int, default=4, dest="n_pes")
    parser.add_argument(
        "--executor",
        choices=("thread", "process", "pool", "serial"),
        default="thread",
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default=DEFAULT_ENGINE
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "-o",
        "--out",
        default="trace.json",
        help="output path for the Chrome trace JSON (default trace.json)",
    )
    parser.add_argument(
        "--stdout",
        action="store_true",
        help="also echo the program's VISIBLE output",
    )
    args = parser.parse_args(argv)

    try:
        source, filename = _resolve_source(args)
    except LolError as exc:
        return _fail(exc)

    # Arm before launch: spawn-method workers inherit LOL_OBS from the
    # environment and self-arm, so their spans ride the reply pipes back.
    rt = obs.arm("trace,metrics")
    try:
        from ..launcher import run_lolcode

        result = run_lolcode(
            source,
            args.n_pes,
            executor=args.executor,
            filename=filename,
            seed=args.seed,
            engine=args.engine,
        )
    except LolError as exc:
        return _fail(exc)
    finally:
        summary = rt.tracer.summary()
        chrome = rt.tracer.export_chrome()
        obs.disarm()

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(chrome, fh, indent=1)
    if args.stdout:
        sys.stdout.write(result.output)
    by_cat = ", ".join(
        f"{k}={v['spans']}" for k, v in summary["by_cat"].items()
    )
    dropped = f", {summary['dropped']} dropped" if summary["dropped"] else ""
    print(
        f"loltrace: {summary['spans']} spans ({by_cat}){dropped}",
        file=sys.stderr,
    )
    print(
        f"loltrace: wrote {args.out} — open in https://ui.perfetto.dev",
        file=sys.stderr,
    )
    return 0


def lolprof_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lolprof",
        description="per-opcode VM profiler: run on the register-bytecode "
        "engine and print counts + self-time per opcode",
    )
    parser.add_argument(
        "source", nargs="?", help="input .lol file ('-' for stdin)"
    )
    parser.add_argument(
        "--workload", help="profile a registered workload instead of a file"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="use the workload's smoke sizes"
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE"
    )
    parser.add_argument("-np", "--n-pes", type=int, default=1, dest="n_pes")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--top", type=int, default=None, help="show only the N hottest opcodes"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the rows as JSON"
    )
    parser.add_argument(
        "--stdout",
        action="store_true",
        help="also echo the program's VISIBLE output",
    )
    args = parser.parse_args(argv)

    try:
        source, filename = _resolve_source(args)
    except LolError as exc:
        return _fail(exc)

    from ..interp import compile_vm_cached
    from ..shmem.runtime_threads import run_spmd
    from .vmprof import OpcodeProfile, ProfilingMachine, format_report

    profiles: list = []

    def pe_main(ctx):
        program = compile_vm_cached(source, filename, False, False)
        machine = ProfilingMachine(ctx)
        try:
            machine.run(program)
        finally:
            profiles.append(machine.profile)
        return None

    try:
        result = run_spmd(pe_main, args.n_pes, seed=args.seed)
    except LolError as exc:
        return _fail(exc)

    merged = OpcodeProfile()
    for profile in profiles:
        for op in range(len(merged.counts)):
            merged.counts[op] += profile.counts[op]
            merged.self_s[op] += profile.self_s[op]

    if args.stdout:
        sys.stdout.write(result.output)
    if args.json:
        print(
            json.dumps(
                {"summary": merged.summary(), "opcodes": merged.rows()},
                indent=2,
            )
        )
    else:
        print(format_report(merged, top=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover
    # ``python -m repro.obs.cli`` is the loltrace entry point; lolprof
    # is reachable as ``python -m repro.obs.cli prof ...`` for parity.
    _argv = sys.argv[1:]
    if _argv and _argv[0] == "prof":
        sys.exit(lolprof_main(_argv[1:]))
    sys.exit(loltrace_main(_argv))

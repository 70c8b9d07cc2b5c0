"""``lolfuzz`` — coverage-guided differential fuzzing CLI.

Subcommands::

    lolfuzz run       seeded fuzz loop (--iterations or --budget 60s)
    lolfuzz replay    re-run corpus files through the differential pipeline
    lolfuzz minimize  delta-debug a divergent program to a smaller repro
    lolfuzz gen       print the generated program for a seed (debugging)

Exit codes: 0 clean, 2 usage/input error, 4 divergence found (``run`` /
``replay``) or the input does not diverge (``minimize``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..launcher.engines import ENGINES, EXECUTORS
from .diff import DEFAULT_ENGINES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENT = 4


def _parse_budget(text: str) -> float:
    m = re.fullmatch(r"(\d+(?:\.\d+)?)\s*(s|m|h)?", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"bad budget {text!r} (try '60s' or '2m')")
    mult = {"s": 1.0, "m": 60.0, "h": 3600.0, None: 1.0}[m.group(2)]
    return float(m.group(1)) * mult


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-np", "--n-pes", type=int, default=4, dest="n_pes")
    p.add_argument("--seed", type=int, default=0, help="fuzzer RNG seed")
    p.add_argument("--engines", nargs="+", default=list(DEFAULT_ENGINES),
                   choices=ENGINES, metavar="ENGINE")
    p.add_argument("--executors", nargs="+", default=["thread"],
                   choices=EXECUTORS, metavar="EXECUTOR")
    p.add_argument("--max-steps", type=int, default=200_000)
    p.add_argument("--barrier-timeout", type=float, default=20.0)


def lolfuzz_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lolfuzz",
        description="coverage-guided differential fuzzer for parallel LOLCODE",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="fuzz until an iteration or time budget")
    _add_common(p_run)
    p_run.add_argument("--iterations", type=int, default=None)
    p_run.add_argument("--budget", type=_parse_budget, default=None,
                       metavar="TIME", help="wall-clock budget, e.g. 60s")
    p_run.add_argument("--corpus", type=Path, default=Path("fuzz-corpus"),
                       help="directory for minimized repros")
    p_run.add_argument("--stop-after", type=int, default=None,
                       help="stop after N findings")
    p_run.add_argument("--minimize-checks", type=int, default=150)
    p_run.add_argument("--json", action="store_true", help="emit stats as JSON")
    p_run.add_argument("-q", "--quiet", action="store_true")

    p_replay = sub.add_parser("replay", help="re-run corpus programs")
    _add_common(p_replay)
    p_replay.add_argument("paths", nargs="+", type=Path,
                          help=".lol files or corpus directories")
    p_replay.add_argument("--json", action="store_true")

    p_min = sub.add_parser("minimize", help="delta-debug one program")
    _add_common(p_min)
    p_min.add_argument("source", type=Path, help="input .lol file")
    p_min.add_argument("-o", "--out", type=Path, default=None,
                       help="write minimized repro here (default: stdout)")
    p_min.add_argument("--max-checks", type=int, default=250)

    p_gen = sub.add_parser("gen", help="print the program for a generator seed")
    p_gen.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.cmd == "run":
        return _cmd_run(args)
    if args.cmd == "replay":
        return _cmd_replay(args)
    if args.cmd == "minimize":
        return _cmd_minimize(args)
    if args.cmd == "gen":
        from .grammar import generate_source

        sys.stdout.write(generate_source(args.seed))
        return EXIT_OK
    return EXIT_USAGE  # pragma: no cover - argparse guards


def _cmd_run(args) -> int:
    from .fuzzer import Fuzzer

    if args.iterations is None and args.budget is None:
        args.iterations = 200
    log = (lambda _m: None) if args.quiet else (lambda m: print(f"[lolfuzz] {m}"))
    fuzzer = Fuzzer(
        seed=args.seed,
        n_pes=args.n_pes,
        engines=tuple(args.engines),
        executors=tuple(args.executors),
        max_steps=args.max_steps,
        barrier_timeout=args.barrier_timeout,
        corpus_dir=args.corpus,
        minimize_checks=args.minimize_checks,
        log=log,
    )
    stats = fuzzer.run(iterations=args.iterations, budget_s=args.budget,
                       stop_after=args.stop_after)
    payload = {
        "stats": stats.as_dict(),
        "findings": [f.meta() for f in fuzzer.findings],
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        d = stats.as_dict()
        print(
            f"[lolfuzz] {d['iterations']} iterations in {d['elapsed_s']:.1f}s: "
            f"{d['divergences']} divergence(s), {d['features']} coverage features, "
            f"{d['lint_discards'] + d['gate_discards']} discarded"
        )
        for f in fuzzer.findings:
            print(f"[lolfuzz]   {f.kind} on {', '.join(f.engines)} "
                  f"(iteration {f.iteration})")
    return EXIT_DIVERGENT if fuzzer.findings else EXIT_OK


def _iter_replay_paths(paths):
    from .corpus import iter_corpus, load_entry

    for p in paths:
        if p.is_dir():
            yield from iter_corpus(p)
        else:
            yield load_entry(p)


def _cmd_replay(args) -> int:
    from .corpus import replay_entry

    rows = []
    divergent = 0
    for entry in _iter_replay_paths(args.paths):
        result = replay_entry(
            entry,
            engines=tuple(args.engines),
            executors=tuple(args.executors),
            barrier_timeout=args.barrier_timeout,
        )
        rows.append({
            "path": str(entry.path),
            "status": result.status,
            "reason": result.reason,
            "divergences": [d.describe() for d in result.divergences],
        })
        if result.status == "divergent":
            divergent += 1
        if not args.json:
            mark = "DIVERGENT" if result.status == "divergent" else result.status
            print(f"[lolfuzz] {entry.path}: {mark}"
                  + (f" ({result.reason})" if result.reason else ""))
            for d in result.divergences:
                print(f"[lolfuzz]   {d.describe()}")
    if not rows:
        print("[lolfuzz] no corpus entries found", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    return EXIT_DIVERGENT if divergent else EXIT_OK


def _cmd_minimize(args) -> int:
    from ..lang.formatter import format_program
    from ..lang.parser import parse
    from .diff import program_is_divergent, run_differential
    from .grammar import program_size
    from .minimize import minimize_program

    source = args.source.read_text()
    result = run_differential(
        source, args.n_pes, engines=tuple(args.engines),
        executors=tuple(args.executors), seed=args.seed,
        max_steps=args.max_steps, barrier_timeout=args.barrier_timeout,
        filename=str(args.source),
    )
    if result.status != "divergent":
        print(f"[lolfuzz] {args.source}: not divergent ({result.status}"
              + (f": {result.reason}" if result.reason else "") + ")",
              file=sys.stderr)
        return EXIT_DIVERGENT
    match = (frozenset(d.engine for d in result.divergences),
             frozenset(d.outcome.kind for d in result.divergences))
    program = parse(source, str(args.source))

    def predicate(candidate) -> bool:
        return program_is_divergent(
            candidate, args.n_pes, engines=tuple(args.engines), seed=args.seed,
            max_steps=args.max_steps, barrier_timeout=args.barrier_timeout,
            match=match,
        )

    minimized = minimize_program(program, predicate, max_checks=args.max_checks)
    text = format_program(minimized)
    print(f"[lolfuzz] {program_size(program)} -> {program_size(minimized)} nodes",
          file=sys.stderr)
    if args.out is not None:
        args.out.write_text(text)
        print(f"[lolfuzz] wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(lolfuzz_main())

"""SPMD program launcher (the paper's ``coprsh``/``aprun`` analogue).

Re-exports the launcher-facing configuration spaces — ``EXECUTORS``
(thread/process/serial/pool) and the engine table
(:mod:`repro.launcher.engines`: ``ENGINES``, ``DEFAULT_ENGINE``,
``check_launch``) — so callers that build sweeps over them
(``repro.bench``, the CLIs, the service, the fuzzer) have one import
site.
"""

from .engines import (
    DEFAULT_ENGINE,
    ENGINE_TABLE,
    ENGINES,
    EXECUTORS,
    PYTHON_ENGINES,
    check_launch,
    engine_row,
)
from .spmd import const_eval, plan_from_program, run_file, run_lolcode

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_TABLE",
    "ENGINES",
    "EXECUTORS",
    "PYTHON_ENGINES",
    "check_launch",
    "engine_row",
    "const_eval",
    "plan_from_program",
    "run_file",
    "run_lolcode",
]

"""Correctness of every timed result, judged outside the timed interval.

A request counts as failed when its output differs from the expected
output computed in untimed set-up (a reference run that itself passed
the workload checker), when it ran on a fallback engine (``degraded``),
when the server-side workload checker reports anything but a pass,
when it raised a typed error, or when it timed out.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

#: Problems kept verbatim in the result file; the rest are only counted.
MAX_KEPT = 20


class Tally:
    """Attempted/failed counts plus the first few problems, by row."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, row: str, problems: Sequence[str]) -> bool:
        """Count one request; returns True when it passed."""
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        if len(self.problems) < MAX_KEPT:
            self.problems.append(f"{row}: {'; '.join(problems)}")
        return False


def expect_problems(output: str, expect: Optional[str]) -> List[str]:
    if expect is None or output == expect:
        return []
    return [f"output differs from the oracle ({output[:60]!r} vs {expect[:60]!r})"]


def judge_spmd(result, *, expect: str) -> List[str]:
    """Judge an in-process ``SpmdResult`` against its checker-verified
    reference output (see :func:`e2ebench.programs.prepare`)."""
    problems: List[str] = []
    if result.degraded:
        problems.append(f"degraded: {result.degraded_reason}")
    problems.extend(expect_problems(result.output, expect))
    return problems


def judge_job(job: Mapping, *, expect: Optional[str]) -> List[str]:
    """Judge a ``lolserve`` job description as ``wait`` returns it."""
    if job.get("state") != "done":
        return [f"job {job.get('state')}: {job.get('error', 'no error recorded')}"]
    row = job["result"]
    problems: List[str] = []
    if row.get("degraded"):
        problems.append(f"degraded: {row.get('degraded_reason')}")
    checker = row.get("checker")
    if checker != "pass":
        problems.append(f"checker: {checker!r}")
    problems.extend(expect_problems(row.get("output", ""), expect))
    return problems


def judge_process(
    returncode: Optional[int], stdout: str, stderr: str, *, expect: Optional[str]
) -> List[str]:
    """Judge one cold CLI request (``returncode`` None means timed out)."""
    if returncode is None:
        return ["timed out"]
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        return [f"exit status {returncode}: {tail[0][:200]}"]
    return expect_problems(stdout, expect)

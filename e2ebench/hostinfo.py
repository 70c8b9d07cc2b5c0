"""Host facts attached to every result: CPUs, steal, load, versions."""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Dict, List, Optional


def cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return []
    return [int(v) for v in fields[1:]]


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor stole between two samples.

    ``guest`` time is already counted in ``user``, so only the first
    eight fields (user .. steal) make up the total.
    """
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return round(delta[7] / total, 5) if total > 0 else 0.0


def cc_version() -> str:
    cc = os.environ.get("LOL_CC") or "cc"
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=10
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.splitlines()[0] if out else "unknown"


def host_facts() -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(),
        "cc": cc_version(),
        "kernel": platform.release(),
    }

"""Process and file hygiene for one benchmark run.

Every process a run starts — the ``lolserve`` child, its pool workers,
native PE processes, cold CLI requests, set-up probes — inherits an
owner token in ``$E2EBENCH_OWNER``.  At exit (normal, exception, Ctrl-C
or SIGTERM) the run kills and reaps every process carrying its token,
removes its scratch directory (socket, cc caches, world files under
``TMPDIR``) and the ``/dev/shm`` segments that appeared while it ran.
On entry it reports, and stops, processes whose token names an owner
that is no longer alive — strays of an earlier run that was killed —
and removes the scratch directories such runs left.

The run registers as a child subreaper, so descendants orphaned by a
dying ``lolserve`` are re-parented to it and can be reaped.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

OWNER_ENV = "E2EBENCH_OWNER"
_PR_SET_CHILD_SUBREAPER = 36
#: /dev/shm entries the program creates (native world dirs, Python
#: shared_memory segments); only new ones are removed at exit.
_SHM_PREFIXES = ("lol-world-", "psm_")
#: file in a run's scratch directory naming its owner token
_OWNER_FILE = "owner"


def _start_ticks(pid: int) -> Optional[str]:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Field 22 (start time), counted after the parenthesised comm.
    return stat.rsplit(")", 1)[1].split()[19]


def _owner_alive(token: str) -> bool:
    pid, _, ticks = token.partition(":")
    return pid.isdigit() and _start_ticks(int(pid)) == ticks


def tagged_processes() -> Dict[int, str]:
    """pid -> owner token of every readable process carrying one."""
    found: Dict[int, str] = {}
    needle = OWNER_ENV.encode() + b"="
    me = os.getpid()
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit() or int(entry.name) == me:
            continue
        try:
            environ = Path(entry.path, "environ").read_bytes()
        except OSError:
            continue
        for var in environ.split(b"\0"):
            if var.startswith(needle):
                found[int(entry.name)] = var[len(needle):].decode(errors="replace")
                break
    return found


def _cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()[:120]


def _kill_and_wait(pids: List[int], grace: float = 2.0) -> None:
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            _reap_children()
            pids = [p for p in pids if _start_ticks(p) is not None and not _zombie(p)]
            if not pids:
                return
            time.sleep(0.02)


def _zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _shm_entries() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(_SHM_PREFIXES)}
    except OSError:
        return set()


class Interrupted(BaseException):
    """Raised from SIGTERM so ``finally`` blocks run before exit."""


class RunScope:
    """Owns one run's scratch directory and descendant processes."""

    def __init__(self, repo: Path, label: str) -> None:
        self.repo = repo
        self.token = f"{os.getpid()}:{_start_ticks(os.getpid())}"
        self.dir = repo / ".bench_build" / "e2ebench" / f"{label}-{os.getpid()}"
        self.out_dir = repo / ".bench_build" / "e2ebench" / "out"
        self._shm_before: set = set()
        self._old_handlers: dict = {}
        self._closed = False

    def __enter__(self) -> "RunScope":
        strays = {
            pid: tok for pid, tok in tagged_processes().items()
            if not _owner_alive(tok)
        }
        for pid, tok in sorted(strays.items()):
            print(
                f"e2ebench: stray process {pid} ({_cmdline(pid)}) left by "
                f"an earlier run (owner {tok}); stopping it before measuring",
                file=sys.stderr,
            )
        if strays:
            _kill_and_wait(list(strays))
        try:
            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
            libc.prctl.restype = ctypes.c_int
            libc.prctl(_PR_SET_CHILD_SUBREAPER, 1)
        except (OSError, AttributeError):
            pass  # without a subreaper, orphans are still found by token
        self._remove_stale_dirs()
        self._shm_before = _shm_entries()
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        (self.dir / _OWNER_FILE).write_text(self.token)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        os.environ[OWNER_ENV] = self.token
        os.environ["TMPDIR"] = str(self.dir / "tmp")
        os.environ["LOL_CC_CACHE"] = str(self.dir / "cc")
        for sig in (signal.SIGTERM, signal.SIGHUP):
            self._old_handlers[sig] = signal.signal(sig, self._on_signal)
        return self

    def _remove_stale_dirs(self) -> None:
        """Remove scratch directories whose run is no longer alive."""
        for owner in self.dir.parent.glob(f"*/{_OWNER_FILE}"):
            try:
                token = owner.read_text()
            except OSError:
                continue
            if not _owner_alive(token):
                print(f"e2ebench: removing {owner.parent.name}, left by an earlier run "
                      f"(owner {token})", file=sys.stderr)
                shutil.rmtree(owner.parent, ignore_errors=True)

    def _on_signal(self, signum, frame) -> None:
        raise Interrupted(f"signal {signum}")

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop every tagged descendant and remove the run's files."""
        if self._closed:
            return
        self._closed = True
        mine = [pid for pid, tok in tagged_processes().items() if tok == self.token]
        if mine:
            _kill_and_wait(mine)
        _reap_children()
        shutil.rmtree(self.dir, ignore_errors=True)
        for name in _shm_entries() - self._shm_before:
            path = Path("/dev/shm", name)
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                try:
                    path.unlink()
                except OSError:
                    pass
        for sig, handler in self._old_handlers.items():
            signal.signal(sig, handler)

    def scratch(self, name: str) -> Path:
        """A fresh empty directory inside the run's scratch space."""
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

"""Host and process-tree measurements read from ``/proc``.

CPU seconds and RSS are summed over the benchmark process and every
descendant (the Ray GCS, raylet and worker processes it starts), so the
figures include the work Ray does on the benchmark's behalf.
"""

from __future__ import annotations

import os
import signal
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after its ')'
    return raw[raw.rindex(")") + 2:].split()


def _tree(root: int) -> list[tuple[int, list[str]]]:
    """(pid, stat fields) for ``root`` and all of its descendants."""
    stats = {}
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is None:
            continue
        pid = int(name)
        stats[pid] = f
        children.setdefault(int(f[1]), []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            out.append((pid, stats[pid]))
        todo.extend(children.get(pid, ()))
    return out


def cpu_ticks() -> tuple[int, int]:
    """(total, steal) jiffies from the aggregate ``/proc/stat`` line."""
    with open("/proc/stat") as fh:
        vals = [int(x) for x in fh.readline().split()[1:]]
    return sum(vals), (vals[7] if len(vals) > 7 else 0)


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    dt = after[0] - before[0]
    return 100.0 * (after[1] - before[1]) / dt if dt > 0 else 0.0


def loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


class TreeSampler:
    """Background thread that samples the process tree every
    ``interval_s``. It keeps the last CPU reading of every process it has
    seen, so the CPU of a worker that exits between two readings is kept
    (up to one interval) instead of lost, and it tracks the peak summed RSS
    since the last ``reset_peak``."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._cpu_ticks: dict[tuple[int, str], int] = {}
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def sample(self) -> None:
        procs = _tree(os.getpid())
        with self._lock:
            for pid, f in procs:
                # (pid, start time) names a process even if its pid is reused;
                # utime + stime only: cutime would count reaped children twice
                self._cpu_ticks[(pid, f[19])] = int(f[11]) + int(f[12])
            rss = sum(int(f[21]) for _, f in procs) * _PAGE / 1e6
            self.peak_mb = max(self.peak_mb, rss)

    def cpu_s(self) -> float:
        """CPU seconds used by every process of the tree seen so far."""
        self.sample()
        with self._lock:
            return sum(self._cpu_ticks.values()) / _TICK

    def n_seen(self) -> int:
        """Number of processes seen so far (new ones mark worker start-ups)."""
        with self._lock:
            return len(self._cpu_ticks)

    def reset_peak(self) -> None:
        with self._lock:
            self.peak_mb = 0.0

    def __enter__(self) -> "TreeSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def descendants() -> list[tuple[int, str]]:
    """(pid, start time) of every live descendant of this process."""
    return [(pid, f[19]) for pid, f in _tree(os.getpid()) if pid != os.getpid()]


def _alive(pid: int, start: str) -> bool:
    f = _stat_fields(pid)
    return f is not None and f[19] == start and f[0] != "Z"


def wait_gone(procs: list[tuple[int, str]], timeout_s: float) -> list[tuple[int, str]]:
    """Wait until every listed process has ended; returns those still alive."""
    deadline = time.monotonic() + timeout_s
    left = [p for p in procs if _alive(*p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = [p for p in left if _alive(*p)]
    return left


def kill(procs: list[tuple[int, str]]) -> None:
    for pid, start in procs:
        if _alive(pid, start):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

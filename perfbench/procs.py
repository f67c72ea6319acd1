"""The benchmark's process tree, read from /proc: the driver plus every
process it started (Ray's GCS, raylet, workers).  Resident memory is
summed over the tree."""

from __future__ import annotations

import os


def _stats() -> dict[int, list[str]]:
    """pid -> the fields of /proc/<pid>/stat after the command name."""
    out = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    out[int(d)] = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
    return out


def descendants(pid: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for p, f in _stats().items():
        if f[0] != "Z":
            kids.setdefault(int(f[1]), []).append(p)
    out, frontier = [], [pid]
    while frontier:
        new = kids.get(frontier.pop(), [])
        out.extend(new)
        frontier.extend(new)
    return out


def reap_zombies() -> None:
    """Wait for this process's ended children, so they leave the tree."""
    me = os.getpid()
    for p, f in _stats().items():
        if f[0] == "Z" and int(f[1]) == me:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass


def tree_rss_mb() -> float:
    me = os.getpid()
    total = 0
    for p in [me] + descendants(me):
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total / 1024

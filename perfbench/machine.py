"""Machine and version stamp attached to every benchmark result."""

from __future__ import annotations

import os
import platform
from pathlib import Path


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def llc_bytes() -> int | None:
    """Size of the highest-level cache of CPU 0, from sysfs."""
    best_level, best_size = 0, None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if not (level and size and level.isdigit()):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if int(level) >= best_level:
            best_level, best_size = int(level), value
    return best_size


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def stamp(root: Path, numpy_version: str, largest_input_order: int, order_cap: int) -> dict:
    """Machine and versions; array sizes are for int64 squares, to compare with the last-level cache."""
    llc = llc_bytes()
    cap_bytes = order_cap * order_cap * 8
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(root),
        "largest_input_bytes": largest_input_order**2 * 8,
        "order_cap_array_bytes": cap_bytes,
        "order_cap_array_fits_llc": None if llc is None else cap_bytes < llc,
        "memory_bandwidth_claim": False,
    }

"""The environment block every result carries, and the noise witness."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Dict, List

from .server import REPO_ROOT


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU.

    One closed-loop client means harness and program never compute at the
    same time, so they lose nothing by sharing a CPU — and every request
    is spared a wake-up across CPUs (an inter-processor interrupt and, on
    a virtual machine, an exit to the hypervisor) and a scheduler that
    moves both around.  Whatever else the box runs gets the other CPUs.
    The highest-numbered allowed CPU is taken: device interrupts tend to
    land on CPU 0.
    """
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # a sandbox may forbid it; the environment block shows the outcome
        pass


def calibration_ms() -> float:
    """A fixed pure-Python + memory-walk loop, timed.

    Run before every pass and round and reported beside every result, so
    that a noisy epoch is visible; never used to normalise a metric.
    """
    cells = _CALIBRATION_CELLS
    started = time.perf_counter()
    total = 0
    index = 0
    for _ in range(300_000):
        index = (index * 1103515245 + 12345) & 0xFFFFF
        total += cells[index]
    elapsed = (time.perf_counter() - started) * 1e3
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


#: 1 MiB walked at random: allocated once, so that calibrating inside a
#: measured process adds nothing to its peak memory between rounds
_CALIBRATION_CELLS = bytes(1 << 20)


def loadavg() -> List[float]:
    return list(os.getloadavg())


def commit() -> str:
    """The checkout's commit, or "unknown" when the checkout is not a git repository."""
    if not (REPO_ROOT / ".git").exists():  # never ask git to look outside the checkout
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(REPO_ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def start_block() -> Dict:
    block = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "calibration_ms": calibration_ms(),
    }
    if block["loadavg_start"][0] > block["nproc"]:
        print(
            f"warning: loadavg {block['loadavg_start'][0]:.2f} exceeds nproc "
            f"{block['nproc']}; timings will be inflated", file=sys.stderr,
        )
    return block

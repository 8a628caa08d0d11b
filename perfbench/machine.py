"""Machine block and the two reference figures that bound per-layer numbers.

Run as a script it prints the reference figures as one JSON line; the
benchmark runs it in a child process so the large copy arrays never count
toward the workload's own peak RSS.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ISOLATION = ("the harness measures only its own processes; it cannot pin CPUs, "
             "drop caches or keep other tenants off the machine")


def llc_bytes() -> int | None:
    """Size of the last-level cache, from /sys or else from ``lscpu``."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            with open(os.path.join(base, index, "level")) as h:
                level = int(h.read())
            with open(os.path.join(base, index, "size")) as h:
                size = _parse_size(h.read())
            if size and (best is None or level > best[0]):
                best = (level, size)
    except (OSError, ValueError):
        best = None
    if best is not None:
        return best[1]
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    for level in ("L3", "L2"):
        m = re.search(rf"^{level} cache:\s*([\d.]+\s*[KMG]i?B?)", text, re.M)
        if m:
            return _parse_size(m.group(1))
    return None


def _parse_size(text: str) -> int | None:
    m = re.match(r"\s*([\d.]+)\s*([KMG]?)", text)
    if not m:
        return None
    scale = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]
    return int(float(m.group(1)) * scale)


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as h:
            for line in h:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_block() -> dict:
    import numpy
    import scipy
    import yaml

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "isolation": ISOLATION,
    }


def reference_figures() -> dict:
    """``Generator.random(out=)`` ns per double and large-array copy GB/s."""
    import numpy as np

    rng = np.random.default_rng(0)
    buf = np.empty(1 << 22)
    rng.random(out=buf)
    fills = []
    for _ in range(5):
        t0 = time.perf_counter()
        rng.random(out=buf)
        fills.append(time.perf_counter() - t0)
    del buf
    llc = llc_bytes()
    # at least 4x the last-level cache, so the copy streams from memory
    nbytes = 4 * llc if llc else 512 << 20
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    copies = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copies.append(time.perf_counter() - t0)
    return {
        "machine.rng_fill_ns": 1e9 * statistics.median(fills) / (1 << 22),
        # bytes read plus bytes written, as STREAM counts a copy
        "machine.copy_gbps": 2 * src.nbytes / statistics.median(copies) / 1e9,
        "copy_array_bytes": src.nbytes,
        "llc_bytes": llc,
    }


if __name__ == "__main__":
    print(json.dumps(reference_figures()))
    sys.exit(0)

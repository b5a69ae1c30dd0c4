"""Statistics and provenance helpers of the benchmark (no repro imports).

Percentiles are exact: computed from the raw samples, never from
histogram buckets.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, Iterable, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples``, exactly.

    Linear interpolation between the two closest ranks (the default
    method of numpy's ``percentile``); raises on an empty sample.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return int(count * (100.0 - q) / 100.0)


def summary(
    values: Sequence[float], groups: Optional[Sequence[Any]] = None
) -> Dict[str, Any]:
    """Sample count, median, quartiles and reported value of repeats.

    Quartiles are ``statistics.quantiles(values, n=4)``, the method the
    run-to-run spread is judged by; with fewer than two values both
    quartiles equal the single value.  The reported ``value`` is the
    median, or, when ``groups`` names the input class of each value,
    the mean over classes of each class's median: classes that differ
    in cost then weigh the same however many repeats each one got.
    """
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    value = median
    if groups is not None:
        if len(groups) != len(values):
            raise ValueError("one group per value")
        classes: Dict[Any, list] = {}
        for group, item in zip(groups, values):
            classes.setdefault(group, []).append(item)
        value = statistics.fmean(
            statistics.median(items) for items in classes.values()
        )
    return {
        "n": len(values),
        "value": value,
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }


def digest(value: Any) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: str) -> Optional[str]:
    """The checkout's commit, or None outside a git repository."""
    try:
        completed = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
            # Never look for a repository above the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(
                os.path.realpath(root)
            )},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = completed.stdout.split()
    if completed.returncode != 0 or len(lines) != 2:
        return None
    toplevel, commit = lines
    if os.path.realpath(toplevel) != os.path.realpath(root):
        return None
    return commit


def source_digest(root: str) -> str:
    """sha256 over the program's sources (``src/**/*.py``), path-ordered.

    Identifies the measured code where no git metadata exists.
    """
    sha = hashlib.sha256()
    base = os.path.join(root, "src")
    paths = []
    for directory, _, files in os.walk(base):
        paths.extend(
            os.path.join(directory, name)
            for name in files if name.endswith(".py")
        )
    for path in sorted(paths):
        sha.update(os.path.relpath(path, base).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()


def cpu_ticks() -> Optional[Sequence[int]]:
    """The machine-wide CPU tick counters of ``/proc/stat`` (Linux)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:9]]


def steal_share(before, after) -> Optional[float]:
    """Share of CPU time the hypervisor took between two readings.

    Steal slows every process of a run alike, so it is recorded next
    to the results to explain run-to-run spread; no metric is scaled.
    """
    if before is None or after is None:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas)
    return deltas[7] / total if total > 0 else 0.0


def machine_stamp(root: str) -> Dict[str, Any]:
    """Where a result was measured: CPUs, versions and the commit."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0

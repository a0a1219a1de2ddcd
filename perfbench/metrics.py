"""The benchmark's own arithmetic: percentiles, counter-line parsing and the
derived per-layer ratios. Pure functions, tested by test_metrics.py."""

import math
import re

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


def percentile(xs, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    `q` of the samples at or below it."""
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"percentile share {q} outside (0, 1]")
    xs = sorted(xs)
    return xs[max(1, math.ceil(q * len(xs))) - 1]


def samples_beyond(n, q):
    """How many of `n` samples lie strictly above the nearest-rank
    percentile `q`."""
    return n - max(1, math.ceil(q * n))


def percentile_supported(n, q, tail=MIN_TAIL):
    """Whether `n` samples leave at least `tail` beyond percentile `q`."""
    return samples_beyond(n, q) >= tail


SUBMIT_PREFIX = "rh-submit: "
SUBMIT_FIELDS = (
    "id", "hash", "seed", "cached", "coalesced", "cache_hits", "executed",
    "checkpointed", "ckpt_skipped", "speculations", "duplicates", "evictions",
    "queue_depth", "queue_wait_ms", "rejected", "auth_failures", "cancelled",
    "workers",
)
_INT_FIELDS = {
    "seed", "cache_hits", "executed", "checkpointed", "ckpt_skipped",
    "speculations", "duplicates", "evictions", "queue_depth",
    "queue_wait_ms", "rejected", "auth_failures", "cancelled",
}
_WORKER = re.compile(r"^([^:,()]+):([a-z0-9_]+)\((\d+)\)$")


def parse_submit_line(line):
    """Parse the counter line `rh-cli submit` prints on stderr per job.

    The field list must match exactly, in order: a renamed, added or
    dropped field raises ValueError instead of reading as zero."""
    line = line.rstrip("\n")
    if not line.startswith(SUBMIT_PREFIX):
        raise ValueError(f"not an rh-submit counter line: {line!r}")
    pairs = line[len(SUBMIT_PREFIX):].split(" ")
    keys = [p.split("=", 1)[0] for p in pairs]
    if tuple(keys) != SUBMIT_FIELDS:
        raise ValueError(f"rh-submit fields changed: {keys}")
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"rh-submit field without a value: {pair!r}")
        key, value = pair.split("=", 1)
        if key in _INT_FIELDS:
            if not value.isdigit():
                raise ValueError(f"rh-submit {key}={value!r} is not a count")
            out[key] = int(value)
        elif key in ("cached", "coalesced"):
            if value not in ("true", "false"):
                raise ValueError(f"rh-submit {key}={value!r} is not a bool")
            out[key] = value == "true"
        elif key == "workers":
            out[key] = _parse_workers(value)
        else:
            out[key] = value
    return out


def _parse_workers(value):
    """`local-0:avx2(68),local-1:avx2(56)` -> {"local-0": 68, ...}."""
    workers = {}
    if not value:
        return workers
    for item in value.split(","):
        m = _WORKER.match(item)
        if not m:
            raise ValueError(f"rh-submit worker entry {item!r} is malformed")
        workers[m.group(1)] = workers.get(m.group(1), 0) + int(m.group(3))
    return workers


def max_worker_share(cells_by_worker):
    """The largest worker's share of one job's executed cells (0.5 for two
    balanced workers)."""
    total = sum(cells_by_worker.values())
    if total == 0:
        raise ValueError("no executed cells")
    return max(cells_by_worker.values()) / total


def exec_efficiency(serial_cell_s, threads, execute_wall_s):
    """Summed serial cell time over the time `threads` threads were held:
    1.0 when the executor keeps every thread busy."""
    if threads < 1 or execute_wall_s <= 0:
        raise ValueError("efficiency needs threads >= 1 and a positive wall")
    return serial_cell_s / (threads * execute_wall_s)


def round_robin_shares(n_cells, threads):
    """Cells per thread when `n_cells` are dealt round-robin, as the
    library's executor deals them."""
    threads = max(1, min(threads, n_cells))
    return {t: len(range(t, n_cells, threads)) for t in range(threads)}


def round_robin_waits(cell_s, threads):
    """Per-cell wait before its thread reaches it, for cells dealt
    round-robin over `threads` threads that start together."""
    threads = max(1, min(threads, len(cell_s)))
    waits, busy = [], [0.0] * threads
    for i, s in enumerate(cell_s):
        waits.append(busy[i % threads])
        busy[i % threads] += s
    return waits, max(busy) if cell_s else 0.0


# The calibration loop's time (`rh-perfbench calib`, 50M dependent xorshift
# steps on one thread) at the reference host speed: a 2-vCPU Sapphire
# Rapids KVM guest in its fast phase.
CALIB_REF_S = 0.12


def speed_factor(calib_s, ref_s=CALIB_REF_S):
    """Reference over measured calibration time (median of the samples):
    below 1 while the host runs this machine's vCPUs slower than the
    reference. A compute time times this factor is that time at the
    reference speed."""
    return ref_s / median(calib_s)

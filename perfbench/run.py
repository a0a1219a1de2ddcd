"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload hammer_grid|future_chips|service_mix
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds `perfbench/` (the measuring binary)
and the shipping `rh-cli` in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), runs the workload, checks every output, and prints the
host fingerprint, one line per metric with its unit, and as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import service  # noqa: E402

WORKLOADS = ("hammer_grid", "future_chips", "service_mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Build the measuring binary and rh-cli; exit non-zero on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--quiet", "-p", "rh-cli"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "rh-perfbench"), os.path.join(release, "rh-cli")


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint(threads):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def run(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True)
            return out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            return None

    return {
        "cpu_model": cpu,
        "nproc": threads,
        "rustc": run(["rustc", "-V"]) or "unknown",
        "git_rev": run(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None,
        "source_digest": source_digest(),
    }


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def perfbench(binary, args):
    """Run the measuring binary; its stdout is one JSON object."""
    out = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail(f"rh-perfbench {args[0]} exited {out.returncode}")
    return json.loads(out.stdout)


def m(value, unit):
    return {"value": value, "unit": unit}


def steal_s():
    """CPU steal so far, per CPU, in seconds (/proc/stat): time the
    hypervisor ran another tenant while this machine had work."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") / os.cpu_count()


# ---------------------------------------------------------------------------
# Per-layer metrics shared by every workload (from a traced sweep)
# ---------------------------------------------------------------------------

def sweep_layers(raw):
    """Per-layer metrics of a traced sweep (`trace` object of rh-perfbench)."""
    t = raw["trace"]
    acts = t["activations"]
    out = {"workload.fill_ns_per_act": m(t["fill_ns"] / acts, "ns/act")}
    mitigation_ns = 0
    for i, kind in enumerate(t["kinds"]):
        k_acts = t["kind_acts"][i]
        mitigation_ns += t["kind_ns"][i]
        out[f"mitigation.ns_per_act.{kind}"] = m(t["kind_ns"][i] / k_acts, "ns/act")
        out[f"mitigation.actions_per_kact.{kind}"] = m(
            1000 * t["kind_actions"][i] / k_acts, "1/kact")
    engine_self = t["plain_ns"] - t["fill_ns"] - mitigation_ns - t["device_ns"]
    out["engine.self_ns_per_act"] = m(engine_self / acts, "ns/act")
    out["engine.mean_run_len"] = m(acts / t["device_calls"], "act")
    out["device.ns_per_act"] = m(t["device_ns"] / acts, "ns/act")
    out["device.refresh_ns_per_act"] = m(t["device_refresh_ns"] / acts, "ns/act")
    out["device.refresh_rows_per_kact"] = m(1000 * t["refresh_rows"] / acts, "1/kact")
    out["device.refresh_all_calls"] = m(t["refresh_alls"], "count")
    out["device.reset_ms_per_cell"] = m(
        t["device_reset_ns"] / t["device_resets"] / 1e6, "ms")
    out["device.tables_build_s"] = m(metrics.median([s[1] for s in raw["setup"]]), "s")
    out["plan.build_s"] = m(metrics.median([s[0] for s in raw["setup"]]), "s")
    work_s = [ns / 1e9 for ns in t["cell_work_ns"]]
    out["exec.efficiency"] = m(metrics.exec_efficiency(
        sum(work_s), t["threads"], metrics.median(t["exec_walls"])), "ratio")
    c = t["codecs"]
    out["json.render_ms"] = m(metrics.median(c["render_s"]) * 1e3, "ms")
    out["json.doc_bytes"] = m(c["doc_bytes"], "B")
    out["proto.envelope_roundtrip_ms"] = m(metrics.median(c["envelope_s"]) * 1e3, "ms")
    out["proto.result_roundtrip_us"] = m(metrics.median(c["result_s"]) * 1e6, "us")
    out["trace.overhead"] = m(t["traced_ns"] / t["plain_ns"] - 1, "ratio")
    out["trace.unaccounted_share"] = m(1 - t["covered_ns"] / t["pass_wall_ns"], "ratio")
    return out


def inproc_service_layers(raw):
    """The serve/cache metrics of an in-process sweep, where the executor's
    threads stand in for workers: cells wait for their thread under the
    round-robin deal, every cell runs once, and nothing is cached."""
    t = raw["trace"]
    work_s = [ns / 1e9 for ns in t["cell_work_ns"]]
    grid, para = work_s[:t["grid_cells"]], work_s[t["grid_cells"]:]
    grid_waits, grid_wall = metrics.round_robin_waits(grid, t["threads"])
    para_waits, _ = metrics.round_robin_waits(para, t["threads"])
    waits = grid_waits + [grid_wall + w for w in para_waits]
    shares = metrics.round_robin_shares(len(grid), t["threads"])
    for thread, n in metrics.round_robin_shares(len(para), t["threads"]).items():
        shares[thread] = shares.get(thread, 0) + n
    return {
        "serve.queue_wait_ms": m(metrics.median(waits) * 1e3, "ms"),
        "serve.max_worker_share": m(metrics.max_worker_share(shares), "ratio"),
        "serve.overhead_ratio": m(1.0, "ratio"),
        "serve.useful_cell_share": m(1.0, "ratio"),
        "cache.hit_share": m(0.0, "ratio"),
        "cache.disk_bytes_per_cell": m(0.0, "B/cell"),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_inproc(args, binary, threads, digests):
    cmd = ["inproc", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--threads", str(threads)]
    raw = perfbench(binary, cmd + (["--trace"] if args.trace else []))
    errors = list(raw["errors"])
    attempted, failed = raw["attempted"], raw["failed"]
    recorded = digests["documents"][args.workload].get(str(args.seed))
    if recorded is not None and recorded != raw["digest"]:
        # Every measured document equals the reference, so all are wrong.
        errors.append(f"document digest {raw['digest']} != recorded {recorded}")
        failed = attempted
    if args.trace:
        errors += raw["trace"]["mismatches"]
        values = sweep_layers(raw)
        values.update(inproc_service_layers(raw))
    else:
        # Sweeps are compute: every time is taken at the reference speed.
        factor = metrics.speed_factor(raw["calib"])
        reps = [s * factor for s in raw["reps"]]
        mact = raw["acts_per_sweep"] / 1e6
        values = {
            "sim_mact_per_s": m(metrics.median([mact / s for s in reps]), "Mact/s"),
            "setup_s": m(min(p + t for p, t in raw["setup"]) * factor, "s"),
            "peak_rss_mb": m(raw["peak_rss_kb"] / 1024, "MB"),
            "jobs_per_s": m(len(reps) / sum(reps), "1/s"),
            "fresh_job_mean_ms": m(statistics.fmean(reps) * 1e3, "ms"),
            "fresh_job_p90_ms": m(metrics.percentile(reps, 0.9) * 1e3, "ms"),
            "cached_job_mean_ms": m(statistics.fmean(reps[1:]) * 1e3, "ms"),
            "large_job_s": m(metrics.median(reps), "s"),
        }
        note_samples("fresh_job_p90_ms", len(reps), 0.9)
    info = {"kernel": raw["kernel"], "threads": threads, "cells": raw["cells"],
            "device_tables": raw["tables"], "digest": raw["digest"]}
    if not args.trace:
        info["speed_factor"] = factor
    return values, attempted, failed, errors, info


def note_samples(name, n, q):
    if not metrics.percentile_supported(n, q):
        print(f"note: {name} rests on {n} samples, fewer than "
              f"{metrics.MIN_TAIL} beyond it", file=sys.stderr)


def run_service(args, binary, rhcli, threads, workdir):
    calib = perfbench(binary, ["calib"])["calib"]
    run = service.run_mix(rhcli, workdir, args.seed, args.seconds,
                          metrics.parse_submit_line)
    factor = metrics.speed_factor(calib + perfbench(binary, ["calib"])["calib"])
    errors = list(run.errors)
    jobs_file = os.path.join(workdir, "jobs.jsonl")
    with open(jobs_file, "w") as f:
        for index, config in run.checked:
            f.write(json.dumps({"index": index, "config": config}) + "\n")
    cmd = ["service-refs", "--jobs", jobs_file, "--replies",
           os.path.join(workdir, "replies"), "--threads", str(threads)]
    raw = perfbench(binary, cmd + (["--trace"] if args.trace else []))
    errors += raw["errors"] + raw.get("trace_errors", [])
    errors += raw.get("trace", {}).get("mismatches", [])
    # Timed jobs are checked entries 1.. (entry 0 is the warm-up).
    ok = raw["ok"][1:]
    attempted = run.sent
    failed = (run.sent - len(run.jobs)) + sum(1 for flag in ok if not flag)
    ref_s = raw["ref_s"][1:]
    if not run.jobs:
        return {}, max(attempted, 1), max(failed, 1), errors or ["no job completed"], {}

    fresh = [s for (job, s, _) in run.jobs if job.kind == "small"]
    large = [s for (job, s, _) in run.jobs if job.kind == "large"]
    cached = [s for (job, s, _) in run.jobs if job.kind == "resubmit"]
    large_ref = [r for (job, _, _), r in zip(run.jobs, ref_s) if job.kind == "large"]
    counters = [c for (_, _, c) in run.jobs]
    executed_acts = sum(c["executed"] * job.activations for (job, _, c) in run.jobs)
    if not (fresh and large and cached):
        errors.append("the run ended before every job kind completed once")
        return {}, attempted, max(failed, 1), errors, {}

    if args.trace:
        values = sweep_layers(raw)
        # Per executed job, so a coordinator that alternates which worker
        # gets nearly everything does not average out to "balanced".
        shares = [metrics.max_worker_share(c["workers"])
                  for c in counters if c["executed"]]
        executed = sum(c["executed"] for c in counters)
        duplicates = sum(c["duplicates"] for c in counters)
        resubmits = [c for (job, _, c) in run.jobs if job.kind == "resubmit"]
        values.update({
            # A mean: the counter is whole milliseconds, mostly 0 or 1.
            "serve.queue_wait_ms": m(statistics.fmean(
                [c["queue_wait_ms"] for (job, _, c) in run.jobs
                 if job.kind != "resubmit"]), "ms"),
            "serve.max_worker_share": m(metrics.median(shares), "ratio"),
            "serve.overhead_ratio": m(
                metrics.median(large) / metrics.median(large_ref), "ratio"),
            "serve.useful_cell_share": m(executed / (executed + duplicates), "ratio"),
            "cache.hit_share": m(
                sum(1 for c in resubmits if c["cached"]) / len(resubmits), "ratio"),
            "cache.disk_bytes_per_cell": m(run.disk_bytes / executed, "B/cell"),
        })
    else:
        values = {
            # Only the compute-bound figures (start-up, the default-size
            # job on one worker) are scaled to the reference host speed;
            # the rest wait mostly on fixed ~40 ms delayed-ACK stalls,
            # which a slower host does not lengthen.
            "sim_mact_per_s": m(executed_acts / 1e6 / run.elapsed_s, "Mact/s"),
            "setup_s": m(min(run.startup_s) * factor, "s"),
            "peak_rss_mb": m(run.peak_rss_mb, "MB"),
            "jobs_per_s": m(len(run.jobs) / run.elapsed_s, "1/s"),
            # Means, not medians: replies wait for one or two ~40 ms
            # delayed-ACK stalls, so latencies are bimodal and a median flips
            # between the modes from run to run.
            "fresh_job_mean_ms": m(statistics.fmean(fresh) * 1e3, "ms"),
            "fresh_job_p90_ms": m(metrics.percentile(fresh, 0.9) * 1e3, "ms"),
            "cached_job_mean_ms": m(statistics.fmean(cached) * 1e3, "ms"),
            "large_job_s": m(metrics.median(large) * factor, "s"),
        }
        note_samples("fresh_job_p90_ms", len(fresh), 0.9)
    info = {"kernel": raw["kernel"], "threads": threads, "jobs": len(run.jobs),
            "fresh_jobs": len(fresh), "resubmits": len(cached),
            "large_jobs": len(large), "speed_factor": factor}
    return values, attempted, failed, errors, info


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    digests = load_digests()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=digests["default_seed"])
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    # A termination signal unwinds through the `finally` blocks, which stop
    # every process the run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary, rhcli = build(target)
    threads = len(os.sched_getaffinity(0))
    workdir = os.path.join(target, "perfbench-work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    steal_before, wall_before = steal_s(), time.perf_counter()
    try:
        if args.workload == "service_mix":
            result = run_service(args, binary, rhcli, threads, workdir)
        else:
            result = run_inproc(args, binary, threads, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values, attempted, failed, errors, info = result
    info["steal_share"] = (steal_s() - steal_before) / (time.perf_counter() - wall_before)

    host = host_fingerprint(threads)
    host["settle_kernel"] = info.get("kernel", "unknown")
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "run": info}))
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name, v in values.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))


if __name__ == "__main__":
    main()

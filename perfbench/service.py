"""The service_mix workload: one warm `rh-cli serve` driven in a closed loop
by one `rh-cli submit` process fed configs on its stdin."""

import json
import os
import queue
import random
import signal
import subprocess
import threading
import time

# Serve start-ups per run; the fastest is `setup_s`. The last one stays up.
SETUP_REPEATS = 21
# Activation budget of a small job (the default grid otherwise), and of a
# default-size job (`SweepConfig::default()`).
SMALL_ACTIVATIONS = 5000
DEFAULT_ACTIVATIONS = 200_000
# Jobs come in shuffled blocks with a fixed mix, so every stretch of a run
# carries the same proportions: 13 small fresh, 6 resubmits, 1 default-size.
BLOCK = ("small",) * 13 + ("resubmit",) * 6 + ("large",)
# Longest a single reply or start-up may take before the run is failed.
REPLY_TIMEOUT_S = 120


class Job:
    def __init__(self, kind, config):
        self.kind = kind  # small | large | resubmit
        self.config = config
        self.activations = config.get("activations", DEFAULT_ACTIVATIONS)
        self.line = json.dumps(config, sort_keys=True)


def job_stream(seed):
    """The seeded job sequence: an endless generator of Jobs. Fresh jobs get
    seeds never used before in the run; resubmits repeat an earlier fresh
    config, chosen uniformly."""
    rng = random.Random(seed)
    used, fresh = set(), []

    def new_seed():
        while True:
            s = rng.getrandbits(48)
            if s not in used:
                used.add(s)
                return s

    first = True
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        if first:
            # A resubmit needs history: open the run with a small job.
            block.remove("small")
            block.insert(0, "small")
            first = False
        for kind in block:
            if kind == "resubmit":
                yield Job(kind, rng.choice(fresh).config)
                continue
            config = {"seed": new_seed()}
            if kind == "small":
                config["activations"] = SMALL_ACTIVATIONS
            job = Job(kind, config)
            fresh.append(job)
            yield job


def _pump(stream, sink):
    for line in stream:
        sink(line)


def _group_alive(pgid):
    """Whether any process in process group `pgid` is still running."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


class Serve:
    """One `rh-cli serve` in its own process group (it spawns its workers
    there), stopped by signalling the whole group."""

    def __init__(self, rhcli, workdir, name):
        self.cache = os.path.join(workdir, name, "cache")
        self.ckpt = os.path.join(workdir, name, "ckpt")
        os.makedirs(self.cache)
        os.makedirs(self.ckpt)
        self.log = []
        listening = queue.Queue()

        def sink(line):
            self.log.append(line)
            if "listening on " in line:
                listening.put(line.rsplit("listening on ", 1)[1].strip())

        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [rhcli, "serve", "--workers", "2", "--listen", "127.0.0.1:0",
             "--cache-dir", self.cache, "--checkpoint-dir", self.ckpt],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        threading.Thread(target=_pump, args=(self.proc.stderr, sink),
                         daemon=True).start()
        try:
            self.addr = listening.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            self.stop()
            raise RuntimeError("serve never printed 'listening on': "
                               + "".join(self.log[-5:]))
        self.startup_s = time.perf_counter() - start

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("serve has no VmHWM")

    def disk_bytes(self):
        total = 0
        for top in (self.cache, self.ckpt):
            for dirpath, _, files in os.walk(top):
                total += sum(os.path.getsize(os.path.join(dirpath, f))
                             for f in files)
        return total

    def stop(self):
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while _group_alive(pgid):
            if time.monotonic() > deadline:
                os.killpg(pgid, signal.SIGKILL)
                deadline = time.monotonic() + 10
            time.sleep(0.02)


class Client:
    """One `rh-cli submit` process: a line in, one document plus one
    counter line out, per job."""

    def __init__(self, rhcli, addr):
        self.proc = subprocess.Popen(
            [rhcli, "submit", "--connect", addr],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        self.docs, self.counters, self.other = (
            queue.Queue(), queue.Queue(), [])
        doc = []

        def on_stdout(line):
            doc.append(line)
            # A document ends at its unindented closing brace.
            if line == "}\n":
                self.docs.put("".join(doc)[:-1])
                doc.clear()

        def on_stderr(line):
            if line.startswith("rh-submit: "):
                self.counters.put(line)
            else:
                self.other.append(line)

        self.threads = [
            threading.Thread(target=_pump, args=(self.proc.stdout, on_stdout),
                             daemon=True),
            threading.Thread(target=_pump, args=(self.proc.stderr, on_stderr),
                             daemon=True),
        ]
        for t in self.threads:
            t.start()

    def submit(self, line):
        """Send one config and wait for its reply: (seconds, document,
        counter line). Raises RuntimeError when the client fails."""
        start = time.perf_counter()
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except OSError as e:
            raise RuntimeError(f"submit's stdin closed: {e}") from e
        deadline = start + REPLY_TIMEOUT_S
        while True:
            try:
                doc = self.docs.get(timeout=0.05)
                break
            except queue.Empty:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("submit failed: "
                                       + "".join(self.other[-5:]).strip())
        elapsed = time.perf_counter() - start
        counter = self.counters.get(timeout=REPLY_TIMEOUT_S)
        return elapsed, doc, counter

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for t in self.threads:
            t.join(timeout=5)


class MixRun:
    """Everything one service_mix run observed."""

    def __init__(self):
        self.startup_s = []
        self.jobs = []  # (Job, seconds, parsed counter line) per timed job
        self.elapsed_s = 0.0
        self.peak_rss_mb = 0.0
        self.disk_bytes = 0
        self.errors = []
        self.sent = 0  # timed jobs sent, answered or not
        self.checked = []  # (index, config) of every reply to verify


def run_mix(rhcli, workdir, seed, seconds, parse_counter):
    """Start serve SETUP_REPEATS times (keeping the last), warm it with one
    small job, then run the seeded job mix for `seconds` in a closed loop.
    Replies are written to `workdir/replies/<index>.json` for checking."""
    run = MixRun()
    replies = os.path.join(workdir, "replies")
    os.makedirs(replies)
    serve = None
    for i in range(SETUP_REPEATS):
        if serve is not None:
            serve.stop()
        serve = Serve(rhcli, workdir, f"serve-{i}")
        run.startup_s.append(serve.startup_s)
    client = Client(rhcli, serve.addr)
    try:
        jobs = job_stream(seed)
        warm = Job("warmup", {"seed": seed, "activations": SMALL_ACTIVATIONS})
        _, doc, _ = client.submit(warm.line)
        _save(replies, 0, doc)
        run.checked.append((0, warm.config))
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            job = next(jobs)
            run.sent += 1
            elapsed, doc, counter = client.submit(job.line)
            index = len(run.checked)
            _save(replies, index, doc)
            run.checked.append((index, job.config))
            run.jobs.append((job, elapsed, parse_counter(counter)))
        run.elapsed_s = time.perf_counter() - start
        run.peak_rss_mb = serve.peak_rss_mb()
    except (RuntimeError, ValueError, queue.Empty) as e:
        run.errors.append(str(e))
    finally:
        client.close()
        run.disk_bytes = serve.disk_bytes()
        serve.stop()
    return run


def _save(replies, index, doc):
    with open(os.path.join(replies, f"{index}.json"), "w") as f:
        f.write(doc)

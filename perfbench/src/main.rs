//! `rh-perfbench`: the measuring half of the repository benchmark.
//!
//! `perfbench/run.py` builds this binary and the shipping `rh-cli`, then
//! calls its subcommands and turns their raw measurements into the
//! reported metrics:
//!
//! * `inproc --workload W --seed S --seconds T --threads N [--trace]` runs
//!   an in-process workload. Untraced, it repeats `run_sweep` + `json::render`
//!   for `T` seconds after one untimed warm-up sweep, calibrates the host's
//!   speed before and after (see `calibrate`), and byte-checks every document
//!   against a reference computed beforehand with the scalar settle kernel.
//!   Traced, it times the library's layers from outside (see `trace.rs`).
//! * `service-refs --jobs F --replies D --threads N [--trace]` checks that
//!   every reply the service gave is byte-equal to `json::render(run_sweep(cfg))`
//!   of its config, timing each in-process sweep; traced, it also measures
//!   the codec layers and traces the first default-size config.
//! * `calib` prints host-speed calibration samples (see `calibrate`).
//!
//! Output is one JSON object on stdout. Failures of the benchmark itself
//! (bad arguments, unreadable files) exit 2; wrong program output is
//! reported in the object, never hidden.

mod trace;
mod workloads;

use rh_cli::engine::RunResult;
use rh_cli::exec::execute_cells_with_kernel;
use rh_cli::proto::{self, ResultEnvelope, WorkerStat};
use rh_cli::{json, run_sweep, run_sweep_with_kernel, SweepConfig, SweepOutput, SweepPlan};
use rh_core::{Kernel, KernelChoice};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 9;
/// Untraced sweeps per run, at least (more while time remains).
const MIN_REPS: usize = 3;
/// Library executions timed in a traced run for `exec.efficiency`.
const EXEC_REPEATS: usize = 3;
/// Repetitions of the codec timings in a traced run.
const CODEC_REPEATS: usize = 15;
/// Host-speed calibration: samples taken before and after the timed loop.
const CALIB_SAMPLES: usize = 5;
/// Steps of the calibration loop (about 0.12 s on a 2-vCPU Sapphire Rapids
/// KVM guest; `CALIB_REF_S` in `metrics.py` holds the reference time).
const CALIB_STEPS: u64 = 50_000_000;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    threads: usize,
    trace: bool,
    jobs: Option<PathBuf>,
    replies: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        threads: 1,
        trace: false,
        jobs: None,
        replies: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            o.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => o.seconds = value.parse().map_err(|e| bad(&e))?,
            "--threads" => o.threads = value.parse().map_err(|e| bad(&e))?,
            "--jobs" => o.jobs = Some(PathBuf::from(value)),
            "--replies" => o.replies = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("inproc") => parse_opts(&args[1..]).and_then(|o| inproc(&o)),
        Some("service-refs") => parse_opts(&args[1..]).and_then(|o| service_refs(&o)),
        Some("calib") => Ok(Obj::default()
            .list("calib", &calibrate(CALIB_SAMPLES))
            .done()),
        _ => Err("usage: rh-perfbench inproc|service-refs|calib [options]".into()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("rh-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// A JSON object assembled field by field (values are pre-rendered).
#[derive(Default)]
struct Obj(String);

impl Obj {
    fn raw(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "{}:{value}", proto::jstr(key));
        self
    }
    fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, proto::jstr(value))
    }
    fn list<T: std::fmt::Display>(self, key: &str, values: &[T]) -> Self {
        let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }
    fn strs(self, key: &str, values: &[String]) -> Self {
        let items: Vec<String> = values.iter().map(|v| proto::jstr(v)).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }
    fn done(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// FNV-1a 64 of a document: the digest `perfbench/digests.json` records.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set of this process (VmHWM), in KiB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Wall time of `samples` runs of a fixed dependent xorshift chain on this
/// thread. The chain is integer work no change to the repository can speed
/// up, so its time tracks only how fast the shared host runs this vCPU
/// (turbo, co-tenants on the core, steal).
fn calibrate(samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for _ in 0..std::hint::black_box(CALIB_STEPS) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            secs(t.elapsed())
        })
        .collect()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Properties every sweep document must have whatever the seed: the PARA
/// sweep is monotone (common random numbers), flip directions partition
/// the raw flips, and ECC never adds flips.
fn invariant_errors(out: &SweepOutput) -> Vec<String> {
    let mut errors = Vec::new();
    if !out.para_monotone {
        errors.push("para_monotone is false".to_string());
    }
    for r in out.grid.iter().chain(&out.para_sweep) {
        if r.flips_1to0 + r.flips_0to1 != r.total_flips {
            errors.push(format!(
                "{}/{}/{}: flip directions do not sum to total_flips",
                r.workload, r.mitigation, r.hc_first
            ));
        }
        if r.post_ecc_flips.is_some_and(|p| p > r.total_flips) {
            errors.push(format!(
                "{}/{}/{}: post-ECC flips exceed raw flips",
                r.workload, r.mitigation, r.hc_first
            ));
        }
    }
    errors
}

/// A sweep ready to measure: its set-up timed `SETUP_REPEATS` times (the
/// last repetition's plan and tables kept), and its reference document.
struct Prepared {
    /// `[plan_s, tables_s]` per set-up repetition.
    setup: Vec<String>,
    plan: SweepPlan,
    tables: trace::Tables,
    /// The document on the scalar settle kernel: thread count and kernel
    /// never change the bytes, so every measured sweep must reproduce it.
    reference: String,
    /// Violated document invariants (see [`invariant_errors`]).
    errors: Vec<String>,
}

fn prepare(cfg: &SweepConfig, threads: usize) -> Result<Prepared, String> {
    let mut setup = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let plan = SweepPlan::from_config(cfg)?;
        let plan_s = secs(t.elapsed());
        let t = Instant::now();
        let tables = trace::build_tables(&plan)?;
        setup.push(format!("[{plan_s},{}]", secs(t.elapsed())));
        last = Some((plan, tables));
    }
    let (plan, tables) = last.expect("at least one set-up repetition");
    let out = run_sweep_with_kernel(cfg, threads, KernelChoice::Scalar)?;
    Ok(Prepared {
        setup,
        plan,
        tables,
        reference: json::render(&out),
        errors: invariant_errors(&out),
    })
}

fn inproc(o: &Opts) -> Result<String, String> {
    let cfg = workloads::config(&o.workload, o.seed)?;
    let kernel = Kernel::auto();
    let Prepared {
        setup,
        plan,
        tables,
        reference,
        mut errors,
    } = prepare(&cfg, o.threads)?;
    let cells = plan.grid.len() + plan.para_sweep.len();

    let mut report = Obj::default()
        .str("kernel", kernel.name())
        .raw("threads", o.threads)
        .raw("cells", cells)
        .raw("tables", tables.len())
        .raw("acts_per_sweep", cells as u64 * cfg.activations)
        .list("setup", &setup)
        .str(
            "digest",
            &format!("{:#018x}", fnv1a64(reference.as_bytes())),
        )
        .raw("doc_bytes", reference.len());

    let (attempted, failed);
    if o.trace {
        let (fields, ok) = traced_inproc(&plan, &tables, o.threads, kernel, &reference)?;
        report = report.raw("trace", fields);
        attempted = 1;
        failed = u64::from(!ok || !errors.is_empty());
    } else {
        drop(tables);
        let reference_ok = errors.is_empty();
        let mut reps = Vec::new();
        let mut bad = 0u64;
        let mut calib = calibrate(CALIB_SAMPLES);
        // One untimed sweep on the measured kernel first, so timing starts
        // with warm caches and an allocator that has seen the sweep.
        run_sweep(&cfg, o.threads)?;
        let start = Instant::now();
        while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < o.seconds {
            let t = Instant::now();
            let out = run_sweep(&cfg, o.threads)?;
            let doc = json::render(&out);
            reps.push(secs(t.elapsed()));
            if doc != reference {
                bad += 1;
                errors.push(format!("sweep {} differs from the reference", reps.len()));
            }
        }
        calib.extend(calibrate(CALIB_SAMPLES));
        report = report.list("reps", &reps).list("calib", &calib);
        attempted = reps.len() as u64;
        failed = if reference_ok { bad } else { attempted };
    }
    Ok(report
        .raw("attempted", attempted)
        .raw("failed", failed)
        .strs("errors", &errors)
        .raw("peak_rss_kb", peak_rss_kb())
        .done())
}

/// The traced run of one sweep: codec timings, library execution walls,
/// and the serial traced pass. Returns the `trace` object and whether every
/// check held.
fn traced_inproc(
    plan: &SweepPlan,
    tables: &trace::Tables,
    threads: usize,
    kernel: Kernel,
    reference: &str,
) -> Result<(String, bool), String> {
    let mut exec_walls = Vec::new();
    let mut results: Vec<RunResult> = Vec::new();
    for _ in 0..EXEC_REPEATS {
        let t = Instant::now();
        let grid = execute_cells_with_kernel(plan, &plan.grid, threads, kernel);
        let para = execute_cells_with_kernel(plan, &plan.para_sweep, threads, kernel);
        exec_walls.push(secs(t.elapsed()));
        results = grid.into_iter().chain(para).collect();
    }
    let (grid, para) = results.split_at(plan.grid.len());
    let out = SweepOutput {
        config: plan.config.clone(),
        grid: grid.to_vec(),
        para_sweep: para.to_vec(),
        para_monotone: para
            .windows(2)
            .all(|w| w[1].total_flips <= w[0].total_flips),
    };
    let mut ok = json::render(&out) == reference;
    let (codecs, codecs_ok) = codec_timings(&out);
    ok &= codecs_ok;

    let t = trace::traced_pass(plan, tables, kernel, &results);
    ok &= t.mismatches.is_empty();
    let kinds: Vec<String> = trace::KINDS.iter().map(|k| proto::jstr(k)).collect();
    let fields = Obj::default()
        .raw("threads", threads)
        .list("exec_walls", &exec_walls)
        .raw("codecs", codecs)
        .raw("cells", t.cells)
        .raw("activations", t.activations)
        .raw("plain_ns", t.plain_ns)
        .raw("traced_ns", t.traced_ns)
        .list("cell_work_ns", &t.cell_work_ns)
        .raw("grid_cells", plan.grid.len())
        .raw("fill_ns", t.fill_ns)
        .raw("device_ns", t.device_ns)
        .raw("device_refresh_ns", t.device_refresh_ns)
        .raw("device_reset_ns", t.device_reset_ns)
        .raw("device_resets", t.device_resets)
        .raw("device_calls", t.device_calls)
        .raw("refresh_rows", t.refresh_rows)
        .raw("refresh_alls", t.refresh_alls)
        .list("kinds", &kinds)
        .list("kind_acts", &t.kind_acts)
        .list("kind_ns", &t.kind_ns)
        .list("kind_actions", &t.kind_actions)
        .raw("pass_wall_ns", t.pass_wall_ns)
        .raw("covered_ns", t.covered_ns)
        .strs("mismatches", &t.mismatches)
        .done();
    Ok((fields, ok))
}

/// Host time of `json::render` (per repetition), the document size, a
/// result envelope's encode + decode round trip carrying the document, and
/// one `RunResult`'s wire round trip. Every round trip must reproduce its input.
fn codec_timings(out: &SweepOutput) -> (String, bool) {
    let mut ok = true;
    let mut render_s = Vec::new();
    let mut doc = String::new();
    for _ in 0..CODEC_REPEATS {
        let t = Instant::now();
        doc = std::hint::black_box(json::render(out));
        render_s.push(secs(t.elapsed()));
    }
    let envelope = ResultEnvelope {
        id: "job-0".into(),
        config_hash: proto::config_hash(&out.config),
        seed: out.config.seed,
        served_from_cache: false,
        coalesced: false,
        cache_hits: 0,
        executed_cells: (out.grid.len() + out.para_sweep.len()) as u64,
        checkpoint_cells: 0,
        checkpoint_skipped: 0,
        speculations: 0,
        duplicate_cells: 0,
        evictions: 0,
        queue_depth: 0,
        queue_wait_ms: 0,
        rejected_submits: 0,
        auth_failures: 0,
        cancelled_jobs: 0,
        workers: vec![WorkerStat {
            worker: "local-0".into(),
            kernel: "avx2".into(),
            cells: 1,
        }],
        document: doc.clone(),
    };
    let mut envelope_s = Vec::new();
    for _ in 0..CODEC_REPEATS {
        let t = Instant::now();
        let line = envelope.encode();
        let back = ResultEnvelope::decode(&line);
        envelope_s.push(secs(t.elapsed()));
        ok &= back.is_ok_and(|b| b.document == doc);
    }
    let results: Vec<&RunResult> = out.grid.iter().chain(&out.para_sweep).collect();
    let mut result_s = Vec::new();
    for _ in 0..CODEC_REPEATS {
        let t = Instant::now();
        for r in &results {
            let line = proto::result_to_json(r);
            let back = proto::parse(&line).and_then(|v| proto::result_from_value(&v));
            ok &= back.is_ok_and(|b| trace::same_result(&b, r));
        }
        result_s.push(secs(t.elapsed()) / results.len() as f64);
    }
    let fields = Obj::default()
        .list("render_s", &render_s)
        .raw("doc_bytes", doc.len())
        .list("envelope_s", &envelope_s)
        .list("result_s", &result_s)
        .done();
    (fields, ok)
}

/// Check every service reply against `json::render(run_sweep(cfg))`.
///
/// `--jobs` is jsonl, one `{"index": i, "config": {...}}` per executed or
/// resubmitted job; `--replies` holds `<i>.json`, the document the client
/// printed for job `i`. Distinct configs are computed once.
fn service_refs(o: &Opts) -> Result<String, String> {
    let jobs_path = o.jobs.as_ref().ok_or("--jobs is required")?;
    let replies = o.replies.as_ref().ok_or("--replies is required")?;
    let text =
        std::fs::read_to_string(jobs_path).map_err(|e| format!("{}: {e}", jobs_path.display()))?;
    let mut docs: HashMap<String, (String, f64)> = HashMap::new();
    let mut first_large = None;
    let mut ok_flags = Vec::new();
    let mut ref_secs = Vec::new();
    let mut errors = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = proto::parse(line)?;
        let index = v
            .get("index")
            .and_then(proto::Value::as_u64)
            .ok_or("job line without an index")?;
        let config_value = v.get("config").ok_or("job line without a config")?;
        let cfg = proto::config_from_value(config_value)?;
        let key = proto::config_to_json(&cfg);
        if first_large.is_none() && cfg.activations == SweepConfig::default().activations {
            // The layers under the service's default-size jobs are traced
            // in process on the first one.
            first_large = Some(cfg.clone());
        }
        if !docs.contains_key(&key) {
            let t = Instant::now();
            let out = run_sweep(&cfg, o.threads)?;
            let doc = json::render(&out);
            docs.insert(key.clone(), (doc, secs(t.elapsed())));
        }
        let (doc, ref_s) = &docs[&key];
        let path = replies.join(format!("{index}.json"));
        let reply = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let ok = reply == doc.as_bytes();
        if !ok {
            errors.push(format!(
                "job {index}: reply differs from the in-process sweep"
            ));
        }
        ok_flags.push(u8::from(ok));
        ref_secs.push(*ref_s);
    }
    let mut report = Obj::default()
        .str("kernel", Kernel::auto().name())
        .list("ok", &ok_flags)
        .list("ref_s", &ref_secs)
        .strs("errors", &errors);
    if o.trace {
        let large = first_large.ok_or("no default-size job to trace")?;
        let p = prepare(&large, o.threads)?;
        let (fields, ok) =
            traced_inproc(&p.plan, &p.tables, o.threads, Kernel::auto(), &p.reference)?;
        if !ok || !p.errors.is_empty() {
            report = report.strs(
                "trace_errors",
                &["traced default-size sweep failed its checks".to_string()],
            );
        }
        report = report
            .list("setup", &p.setup)
            .raw("tables", p.tables.len())
            .raw("trace", fields);
    }
    Ok(report.done())
}

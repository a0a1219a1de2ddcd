//! `rh-cli bench` — the dependency-free benchmark harness that proves the
//! hot-path optimizations.
//!
//! The harness runs a **pinned reference sweep** — a realistic DDR4-class
//! geometry (16 banks × 32K rows/bank) across `HC_first ∈ {4096, 512, 128}`
//! (the paper's Section 8 generational→projected axis, where mitigation
//! overheads explode as chips weaken), all five mitigation arms, three
//! attack patterns, two stored-data patterns (the legacy model plus the
//! Section 5 worst-case row-stripe) under on-die ECC, 2M activations per
//! cell — twice through the identical experiment semantics:
//!
//! * **legacy**: the retained pre-optimization path — a fresh
//!   [`EagerDeviceState`] per cell (thresholds re-derived, eager
//!   O(total_rows) `refresh_all` zeroing, per-activation `powi`, full-scan
//!   flip-row counting), the **map-based counter mitigations**
//!   (`rh_mitigations::reference`: `HashMap` Graphene, nested-`BTreeMap`
//!   TRR) behind `Box<dyn Mitigation>`, and the unbatched step-at-a-time
//!   loop with one virtual workload call and one virtual mitigation call
//!   per activation;
//! * **optimized**: the shipping path — `Arc`-shared
//!   [`rh_core::DeviceTables`],
//!   epoch-based O(1) refresh, flat cache-resident counter tables
//!   (`FlatCounterTable`), batched workload pulls (`fill_batch`), and
//!   monomorphized `MitigationKind` dispatch (exactly what `rh-cli sweep`
//!   executes).
//!
//! Both paths must produce **identical** `RunResult`s for every cell — this
//! doubles as the benchmark's determinism/equivalence check (and as a
//! differential test of the flat counter tables against their map-based
//! references at full scale — and, since PR 5, of the Section 5 victim
//! model against the eager reference; since PR 6 the optimized path also
//! exercises the SoA settle kernels and the engine's activation-run
//! coalescer), and the run fails (non-zero exit) if it regresses. Each
//! cell is timed `--repeat` times per path and the minimum is reported, so
//! one scheduling hiccup cannot skew a cell. The report (`BENCH_6.json`)
//! records the toolchain (`rustc --version`), git revision, and the settle
//! kernel that ran (`--kernel`, resolved against the CPU and
//! `RH_FORCE_SCALAR`) alongside per-cell times, a per-mitigation
//! breakdown, and aggregate activations/sec for both paths.

use crate::engine::RunResult;
use crate::exec::{build_table_cache, cell_params, Worker};
use crate::plan::{CellSpec, SweepPlan, BLAST_RADIUS};
use crate::proto::jstr;
use crate::sweep::SweepConfig;
use rh_core::{DataPattern, Device, EagerDeviceState, Geometry, Kernel, KernelChoice};
use rh_mitigations::{reference::build_reference, ActionBuf, Mitigation, MitigationAction};
use rh_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// Options for one benchmark invocation.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Shrink the reference sweep for CI smoke runs (same shape, ~1/64 of
    /// the work: 4 banks × 8K rows, 100K activations/cell).
    pub quick: bool,
    /// Where to write the JSON report.
    pub out_path: String,
    /// Timing runs per cell per path; the minimum is reported.
    pub repeat: usize,
    /// Only run cells whose `pattern/workload/mitigation` label contains
    /// this.
    pub filter: Option<String>,
    /// Fail the run if aggregate optimized throughput lands below this
    /// (the CI perf guard hook; `None` disables).
    pub min_acts_per_sec: Option<f64>,
    /// Settle-kernel request for the optimized path (`--kernel`); resolved
    /// once per run and recorded in the report.
    pub kernel: KernelChoice,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            quick: false,
            out_path: "BENCH_6.json".to_string(),
            repeat: 3,
            filter: None,
            min_acts_per_sec: None,
            kernel: KernelChoice::default(),
        }
    }
}

/// The pinned reference sweep. Everything is fixed — seed, geometry, axes —
/// so successive benchmark runs (and CI runs across commits) measure the
/// same simulated work.
pub fn reference_config(quick: bool) -> SweepConfig {
    SweepConfig {
        seed: 0xBE7C4,
        activations: if quick { 100_000 } else { 2_000_000 },
        // The paper's generational→projected axis (Section 8 evaluates
        // mitigations as HC_first drops toward 128): the low end is where
        // increased-refresh-style mitigations become refresh-dominated —
        // exactly the load the epoch-based O(1) refresh targets.
        hc_firsts: vec![4096, 512, 128],
        sides: vec![8],
        para_probabilities: vec![0.004],
        // One legacy slice (comparable with BENCH_4's cells) plus one
        // Section 5 slice: the worst-case row-stripe pattern under on-die
        // ECC, timing the pattern-scaled settle path and the post-ECC scan.
        data_patterns: vec![DataPattern::Legacy, DataPattern::RowStripe],
        ecc_codeword_bits: 128,
        benign_fraction: 0.1,
        auto_refresh_interval: 32_000,
        geometry: if quick {
            Geometry {
                channels: 1,
                ranks: 1,
                banks: 4,
                rows_per_bank: 8 * 1024,
            }
        } else {
            // A realistic DDR4-class device: 16 banks × 32K rows/bank.
            Geometry {
                channels: 1,
                ranks: 1,
                banks: 16,
                rows_per_bank: 32 * 1024,
            }
        },
    }
}

/// Timing of one cell under both paths (minimum over `repeat` runs each).
#[derive(Debug, Clone)]
pub struct CellTiming {
    pub workload: String,
    pub mitigation: String,
    pub hc_first: u64,
    /// Stored data pattern of the cell (Section 5 axis).
    pub data_pattern: String,
    pub legacy_secs: f64,
    pub optimized_secs: f64,
}

/// Aggregate timing of all cells sharing one mitigation family (the name up
/// to its parameter list) — the per-mitigation breakdown that shows where
/// the counter-table rewrite lands.
#[derive(Debug, Clone)]
pub struct MitigationBreakdown {
    pub mitigation: String,
    pub cells: usize,
    pub legacy_secs: f64,
    pub optimized_secs: f64,
}

/// Full benchmark outcome.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub quick: bool,
    pub geometry: Geometry,
    pub activations_per_cell: u64,
    pub repeat: usize,
    pub filter: Option<String>,
    /// `rustc --version` of the ambient toolchain ("unknown" if absent).
    pub rustc_version: String,
    /// `git rev-parse --short HEAD` ("unknown" outside a checkout).
    pub git_revision: String,
    /// Settle kernel the optimized path actually ran (the `--kernel`
    /// request after resolution against the CPU and `RH_FORCE_SCALAR`) —
    /// recorded so throughput numbers are comparable across runs.
    pub kernel: Kernel,
    pub cells: Vec<CellTiming>,
    pub breakdown: Vec<MitigationBreakdown>,
    pub legacy_secs: f64,
    pub optimized_secs: f64,
    pub legacy_acts_per_sec: f64,
    pub optimized_acts_per_sec: f64,
    /// optimized_acts_per_sec / legacy_acts_per_sec.
    pub speedup: f64,
    /// Fastest single optimized cell, in activations/sec.
    pub peak_cell_acts_per_sec: f64,
    /// Whether every cell's results were identical across the two paths.
    pub equivalent: bool,
}

/// The pre-optimization engine loop: step-at-a-time, one virtual workload
/// call and one virtual mitigation call per activation. Semantics are
/// identical to [`run_experiment`]; only the dispatch/batching differs.
fn run_unbatched(
    device: &mut impl Device,
    workload: &mut dyn Workload,
    mitigation: &mut dyn Mitigation,
    activations: u64,
    auto_refresh_interval: u64,
    actions: &mut ActionBuf,
) -> RunResult {
    let geom = *device.geometry();
    for step in 1..=activations {
        let addr = workload.next_access();
        actions.clear();
        mitigation.on_activate(addr, &geom, actions);
        device.activate(addr);
        for action in actions.actions() {
            match *action {
                MitigationAction::RefreshRow(row) => device.refresh_row(row),
                MitigationAction::RefreshAll => device.refresh_all(),
            }
        }
        if auto_refresh_interval > 0 && step % auto_refresh_interval == 0 {
            device.refresh_all();
            mitigation.reset();
        }
    }
    RunResult {
        workload: workload.name(),
        mitigation: mitigation.name(),
        hc_first: device.params().hc_first,
        data_pattern: device.params().data_pattern.name().to_string(),
        activations,
        total_flips: device.total_flips(),
        flipped_rows: device.flipped_rows(),
        flips_per_mact: device.flips_per_mact(),
        refreshes_issued: device.refreshes_issued(),
        flips_1to0: device.flips_1to0(),
        flips_0to1: device.flips_0to1(),
        post_ecc_flips: device.post_ecc_flips(),
    }
}

/// Run one cell the pre-optimization way: fresh eager device (thresholds
/// re-derived per cell), map-based counter mitigations, fresh action
/// buffer, unbatched dyn-dispatch loop.
fn run_cell_legacy(plan: &SweepPlan, cell: &CellSpec) -> RunResult {
    let params = cell_params(plan, cell);
    let mut device = EagerDeviceState::new(plan.config.geometry, params, cell.seeds.device);
    // Boxed: the legacy loop pays the historical virtual call per access.
    let mut workload: Box<dyn Workload> = Box::new(
        cell.workload
            .build(
                &plan.config.geometry,
                plan.config.benign_fraction,
                cell.seeds.workload,
            )
            .expect("workloads are validated at plan time"),
    );
    let mut mitigation = build_reference(
        &cell.mitigation,
        cell.hc_first,
        BLAST_RADIUS,
        cell.seeds.mitigation,
    );
    run_unbatched(
        &mut device,
        workload.as_mut(),
        mitigation.as_mut(),
        cell.activations,
        cell.auto_refresh_interval,
        &mut ActionBuf::new(),
    )
}

fn results_identical(a: &RunResult, b: &RunResult) -> bool {
    a.workload == b.workload
        && a.mitigation == b.mitigation
        && a.hc_first == b.hc_first
        && a.data_pattern == b.data_pattern
        && a.activations == b.activations
        && a.total_flips == b.total_flips
        && a.flipped_rows == b.flipped_rows
        && a.flips_per_mact.to_bits() == b.flips_per_mact.to_bits()
        && a.refreshes_issued == b.refreshes_issued
        && a.flips_1to0 == b.flips_1to0
        && a.flips_0to1 == b.flips_0to1
        && a.post_ecc_flips == b.post_ecc_flips
}

/// `pattern/workload/mitigation` display label of a cell, for `--filter`
/// matching.
fn cell_label(plan: &SweepPlan, cell: &CellSpec) -> String {
    let workload = cell
        .workload
        .build(
            &plan.config.geometry,
            plan.config.benign_fraction,
            cell.seeds.workload,
        )
        .expect("workloads are validated at plan time")
        .name();
    let mitigation = cell
        .mitigation
        .build(&plan.config.geometry, cell.hc_first, BLAST_RADIUS, 0)
        .name();
    format!("{}/{workload}/{mitigation}", cell.data_pattern.name())
}

/// Output of an external command's first line, or "unknown". Used for the
/// report's toolchain/revision metadata — informational only, never part of
/// the timed or checked work.
fn tool_version(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(String::from))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Mitigation family: the name up to its parameter list.
fn family(mitigation: &str) -> &str {
    mitigation.split('(').next().unwrap_or(mitigation)
}

/// Run the reference sweep under both paths, timing each cell (minimum over
/// `repeat` runs per path), and check the paths agree on every result.
pub fn run_bench(opts: &BenchOptions) -> Result<BenchReport, String> {
    if opts.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    let cfg = reference_config(opts.quick);
    let plan = SweepPlan::from_config(&cfg)?;
    let cells: Vec<&CellSpec> = plan
        .grid
        .iter()
        .filter(|cell| match &opts.filter {
            Some(f) => cell_label(&plan, cell).contains(f.as_str()),
            None => true,
        })
        .collect();
    if cells.is_empty() {
        return Err(format!(
            "--filter '{}' matches no bench cells",
            opts.filter.as_deref().unwrap_or("")
        ));
    }
    let tables = build_table_cache(&plan, &plan.grid);
    let kernel = opts.kernel.resolve()?;
    let mut worker = Worker::with_kernel(kernel);

    // Warm up both paths on the first cell (page-faults the big vectors in)
    // so the timed loop measures steady-state throughput.
    let warm = cells[0];
    let _ = run_cell_legacy(&plan, warm);
    let _ = worker.run_cell(&plan, warm, &tables);

    // Repeats are interleaved — the repeat loop wraps the whole cell sweep
    // rather than hammering one cell `repeat` times back-to-back — so a
    // cell's timing samples land minutes apart and the reported minimum is
    // robust against transient load on the host (a slow window then costs
    // one sample of every cell instead of every sample of one cell).
    let mut lt = vec![f64::INFINITY; cells.len()];
    let mut ot = vec![f64::INFINITY; cells.len()];
    let mut results: Vec<Option<RunResult>> = vec![None; cells.len()];
    let mut equivalent = true;
    for rep in 0..opts.repeat {
        for (ci, cell) in cells.iter().enumerate() {
            let t0 = Instant::now();
            let legacy = run_cell_legacy(&plan, cell);
            lt[ci] = lt[ci].min(t0.elapsed().as_secs_f64());

            let t1 = Instant::now();
            let optimized = worker.run_cell(&plan, cell, &tables);
            ot[ci] = ot[ci].min(t1.elapsed().as_secs_f64());

            if rep == 0 {
                if !results_identical(&legacy, &optimized) {
                    equivalent = false;
                    eprintln!(
                        "bench equivalence FAILED: {} / {} — legacy flips {} vs optimized {}",
                        legacy.workload,
                        legacy.mitigation,
                        legacy.total_flips,
                        optimized.total_flips
                    );
                }
                results[ci] = Some(optimized);
            }
        }
    }

    let mut timings = Vec::with_capacity(cells.len());
    let mut legacy_secs = 0.0;
    let mut optimized_secs = 0.0;
    let mut peak = 0.0f64;
    for (ci, cell) in cells.iter().enumerate() {
        let result = results[ci].take().expect("first pass filled every cell");
        legacy_secs += lt[ci];
        optimized_secs += ot[ci];
        peak = peak.max(cell.activations as f64 / ot[ci]);
        timings.push(CellTiming {
            workload: result.workload,
            mitigation: result.mitigation,
            hc_first: cell.hc_first,
            data_pattern: result.data_pattern,
            legacy_secs: lt[ci],
            optimized_secs: ot[ci],
        });
    }

    // Per-mitigation-family aggregation, in first-seen (plan) order.
    let mut breakdown: Vec<MitigationBreakdown> = Vec::new();
    for t in &timings {
        let fam = family(&t.mitigation);
        let row = match breakdown.iter_mut().find(|b| b.mitigation == fam) {
            Some(row) => row,
            None => {
                breakdown.push(MitigationBreakdown {
                    mitigation: fam.to_string(),
                    cells: 0,
                    legacy_secs: 0.0,
                    optimized_secs: 0.0,
                });
                breakdown.last_mut().expect("just pushed")
            }
        };
        row.cells += 1;
        row.legacy_secs += t.legacy_secs;
        row.optimized_secs += t.optimized_secs;
    }

    let total_acts = (cells.len() as u64 * cfg.activations) as f64;
    let legacy_rate = total_acts / legacy_secs;
    let optimized_rate = total_acts / optimized_secs;
    Ok(BenchReport {
        quick: opts.quick,
        geometry: cfg.geometry,
        activations_per_cell: cfg.activations,
        repeat: opts.repeat,
        filter: opts.filter.clone(),
        rustc_version: tool_version("rustc", &["--version"]),
        git_revision: tool_version("git", &["rev-parse", "--short", "HEAD"]),
        kernel,
        cells: timings,
        breakdown,
        legacy_secs,
        optimized_secs,
        legacy_acts_per_sec: legacy_rate,
        optimized_acts_per_sec: optimized_rate,
        speedup: optimized_rate / legacy_rate,
        peak_cell_acts_per_sec: peak,
        equivalent,
    })
}

pub(crate) fn fnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// Render the report as a JSON document (the `BENCH_6.json` artifact).
pub fn render(report: &BenchReport) -> String {
    let mut rows = String::new();
    for (i, c) in report.cells.iter().enumerate() {
        let sep = if i + 1 < report.cells.len() { "," } else { "" };
        let _ = writeln!(
            rows,
            "    {{\"workload\": \"{}\", \"mitigation\": \"{}\", \"hc_first\": {}, \
             \"data_pattern\": \"{}\", \
             \"legacy_secs\": {}, \"optimized_secs\": {}, \"speedup\": {}}}{sep}",
            c.workload,
            c.mitigation,
            c.hc_first,
            c.data_pattern,
            fnum(c.legacy_secs),
            fnum(c.optimized_secs),
            fnum(c.legacy_secs / c.optimized_secs),
        );
    }
    let mut fams = String::new();
    for (i, b) in report.breakdown.iter().enumerate() {
        let sep = if i + 1 < report.breakdown.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            fams,
            "    {{\"mitigation\": \"{}\", \"cells\": {}, \"legacy_secs\": {}, \
             \"optimized_secs\": {}, \"speedup\": {}}}{sep}",
            b.mitigation,
            b.cells,
            fnum(b.legacy_secs),
            fnum(b.optimized_secs),
            fnum(b.legacy_secs / b.optimized_secs),
        );
    }
    let g = &report.geometry;
    format!(
        "{{\n  \"bench\": \"reference sweep (hc_first in {{4096,512,128}}, legacy+rowstripe \
         patterns, ECC(128), all mitigations)\",\n  \
         \"quick\": {},\n  \
         \"repeat\": {},\n  \
         \"filter\": {},\n  \
         \"rustc\": {},\n  \
         \"git_revision\": {},\n  \
         \"kernel\": {},\n  \
         \"geometry\": {{\"channels\": {}, \"ranks\": {}, \"banks\": {}, \"rows_per_bank\": {}}},\n  \
         \"activations_per_cell\": {},\n  \
         \"cells\": [\n{rows}  ],\n  \
         \"mitigation_breakdown\": [\n{fams}  ],\n  \
         \"legacy\": {{\"wall_secs\": {}, \"acts_per_sec\": {}}},\n  \
         \"optimized\": {{\"wall_secs\": {}, \"acts_per_sec\": {}, \"peak_cell_acts_per_sec\": {}}},\n  \
         \"speedup\": {},\n  \"equivalent\": {}\n}}",
        report.quick,
        report.repeat,
        report
            .filter
            .as_deref()
            .map_or("null".to_string(), jstr),
        jstr(&report.rustc_version),
        jstr(&report.git_revision),
        jstr(report.kernel.name()),
        g.channels,
        g.ranks,
        g.banks,
        g.rows_per_bank,
        report.activations_per_cell,
        fnum(report.legacy_secs),
        fnum(report.legacy_acts_per_sec),
        fnum(report.optimized_secs),
        fnum(report.optimized_acts_per_sec),
        fnum(report.peak_cell_acts_per_sec),
        fnum(report.speedup),
        report.equivalent,
    )
}

// ---------------------------------------------------------------------------
// Saturation bench (`bench --saturation` → BENCH_7.json)
// ---------------------------------------------------------------------------

/// Options for the distributed saturation benchmark.
#[derive(Debug, Clone)]
pub struct SaturationOptions {
    /// Shrink the per-cell activation budget for CI smoke runs.
    pub quick: bool,
    /// Where to write the JSON report.
    pub out_path: String,
    /// Worker-pool sizes to measure.
    pub worker_counts: Vec<usize>,
    /// Settle-kernel request propagated through the worker protocol.
    pub kernel: KernelChoice,
    /// Fail the run if the peak measured cells/sec lands below this (the
    /// CI perf guard hook; `None` disables).
    pub min_cells_per_sec: Option<f64>,
    /// Worker executable; defaults to the current executable (tests point
    /// it at the real `rh-cli` binary).
    pub worker_program: Option<std::path::PathBuf>,
}

impl Default for SaturationOptions {
    fn default() -> Self {
        Self {
            quick: false,
            out_path: "BENCH_7.json".to_string(),
            worker_counts: vec![1, 2, 4, 8],
            kernel: KernelChoice::default(),
            min_cells_per_sec: None,
            worker_program: None,
        }
    }
}

/// One measured pool size.
#[derive(Debug, Clone)]
pub struct SaturationPoint {
    pub workers: usize,
    pub wall_secs: f64,
    pub cells_per_sec: f64,
    pub acts_per_sec: f64,
    /// `worker:kernel(cells)` per worker, from the response envelope — the
    /// satellite requirement that the merged report records each worker's
    /// resolved kernel.
    pub worker_kernels: Vec<String>,
}

/// Full saturation-bench outcome (`BENCH_7.json`).
#[derive(Debug, Clone)]
pub struct SaturationReport {
    pub quick: bool,
    pub rustc_version: String,
    pub git_revision: String,
    /// The kernel request sent in every shard lease (workers resolve it
    /// locally; per-point resolutions are in [`SaturationPoint`]).
    pub kernel_request: KernelChoice,
    pub activations_per_cell: u64,
    /// Cells per submitted job (grid + PARA sweep).
    pub cells_per_job: u64,
    /// `std::thread::available_parallelism()` on the measuring host. A
    /// flat worker ladder on a 1-CPU host is expected (the pools time-slice
    /// one core), and readers of archived reports need the context to tell
    /// that apart from a real scaling regression.
    pub available_parallelism: usize,
    pub points: Vec<SaturationPoint>,
    pub peak_cells_per_sec: f64,
    /// Every pool size produced bytes identical to the in-process sweep.
    pub identical_bytes: bool,
}

/// Warn when the worker ladder cannot show scaling because the host has a
/// single CPU: every pool size time-slices the same core, so a flat curve
/// is the machine's fault, not the service's. Returns the warning to print
/// (separated from `run_saturation` so the trigger condition is testable).
fn flat_ladder_warning(parallelism: usize, points: &[SaturationPoint]) -> Option<String> {
    if parallelism > 1 || points.len() < 2 {
        return None;
    }
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for p in points {
        lo = lo.min(p.cells_per_sec);
        hi = hi.max(p.cells_per_sec);
    }
    // Less than 25% spread across the whole ladder counts as flat.
    if lo > 0.0 && hi / lo < 1.25 {
        Some(format!(
            "saturation: worker ladder is flat (spread {:.2}x) on a host with \
             available_parallelism=1 — pool sizes time-slice one core, so this \
             measures overhead, not scaling",
            hi / lo
        ))
    } else {
        None
    }
}

/// The saturation workload: the **default sweep config** — the exact job a
/// client submits with `{}` — so the measured cells/sec is the service's
/// real per-request throughput, not a synthetic microbenchmark.
pub fn saturation_config(quick: bool) -> SweepConfig {
    SweepConfig {
        activations: if quick { 40_000 } else { 200_000 },
        ..SweepConfig::default()
    }
}

/// Measure end-to-end service throughput (cells/sec, submit-to-envelope)
/// at each requested worker-pool size, verifying every merged document
/// byte-identical against the in-process sweep. Each pool size gets a
/// fresh coordinator so the result cache can never short-circuit a
/// measurement.
pub fn run_saturation(opts: &SaturationOptions) -> Result<SaturationReport, String> {
    if opts.worker_counts.is_empty() {
        return Err("--workers requires at least one pool size".to_string());
    }
    if opts.worker_counts.contains(&0) {
        return Err("--workers pool sizes must be at least 1".to_string());
    }
    let cfg = saturation_config(opts.quick);
    let reference = crate::sweep::run_sweep_with_kernel(
        &cfg,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        opts.kernel,
    )?;
    let reference_doc = crate::json::render(&reference);
    let cells_per_job = (reference.grid.len() + reference.para_sweep.len()) as u64;

    let mut points = Vec::with_capacity(opts.worker_counts.len());
    let mut identical = true;
    let mut peak = 0.0f64;
    for &workers in &opts.worker_counts {
        let coordinator = crate::serve::Coordinator::start(crate::serve::ServeOptions {
            workers,
            kernel: opts.kernel,
            worker_program: opts.worker_program.clone(),
            ..crate::serve::ServeOptions::default()
        })?;
        let t0 = Instant::now();
        let env = coordinator.submit(None, &cfg)?;
        let wall_secs = t0.elapsed().as_secs_f64();
        coordinator.shutdown();
        if env.document != reference_doc {
            identical = false;
            eprintln!(
                "saturation equivalence FAILED at {workers} workers: distributed document \
                 diverged from the in-process sweep"
            );
        }
        let cells_per_sec = cells_per_job as f64 / wall_secs;
        peak = peak.max(cells_per_sec);
        points.push(SaturationPoint {
            workers,
            wall_secs,
            cells_per_sec,
            acts_per_sec: (cells_per_job * cfg.activations) as f64 / wall_secs,
            worker_kernels: env
                .workers
                .iter()
                .map(|w| format!("{}:{}({})", w.worker, w.kernel, w.cells))
                .collect(),
        });
    }

    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(warning) = flat_ladder_warning(parallelism, &points) {
        eprintln!("{warning}");
    }

    Ok(SaturationReport {
        quick: opts.quick,
        rustc_version: tool_version("rustc", &["--version"]),
        git_revision: tool_version("git", &["rev-parse", "--short", "HEAD"]),
        kernel_request: opts.kernel,
        activations_per_cell: cfg.activations,
        cells_per_job,
        available_parallelism: parallelism,
        points,
        peak_cells_per_sec: peak,
        identical_bytes: identical,
    })
}

/// Render the saturation report (the `BENCH_7.json` artifact).
pub fn render_saturation(report: &SaturationReport) -> String {
    let mut rows = String::new();
    for (i, p) in report.points.iter().enumerate() {
        let sep = if i + 1 < report.points.len() { "," } else { "" };
        let kernels: Vec<String> = p.worker_kernels.iter().map(|k| jstr(k)).collect();
        let _ = writeln!(
            rows,
            "    {{\"workers\": {}, \"wall_secs\": {}, \"cells_per_sec\": {}, \
             \"acts_per_sec\": {}, \"worker_kernels\": [{}]}}{sep}",
            p.workers,
            fnum(p.wall_secs),
            fnum(p.cells_per_sec),
            fnum(p.acts_per_sec),
            kernels.join(", "),
        );
    }
    format!(
        "{{\n  \"bench\": \"distributed sweep saturation (default config via serve/worker, \
         byte-checked against in-process sweep)\",\n  \
         \"quick\": {},\n  \
         \"rustc\": {},\n  \
         \"git_revision\": {},\n  \
         \"kernel_request\": {},\n  \
         \"activations_per_cell\": {},\n  \
         \"cells_per_job\": {},\n  \
         \"available_parallelism\": {},\n  \
         \"points\": [\n{rows}  ],\n  \
         \"peak_cells_per_sec\": {},\n  \
         \"identical_bytes\": {}\n}}",
        report.quick,
        jstr(&report.rustc_version),
        jstr(&report.git_revision),
        jstr(report.kernel_request.name()),
        report.activations_per_cell,
        report.cells_per_job,
        report.available_parallelism,
        fnum(report.peak_cells_per_sec),
        report.identical_bytes,
    )
}

// ---------------------------------------------------------------------------
// Analysis bench (`bench --analysis` → BENCH_8.json)
// ---------------------------------------------------------------------------

/// Options for the closed-form evaluation throughput bench.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Drop the largest window from the grid for CI smoke runs.
    pub quick: bool,
    /// Where to write the JSON report.
    pub out_path: String,
    /// Timing runs per grid point; the minimum is reported.
    pub repeat: usize,
    /// Fail the run if the direct form's aggregate throughput lands below
    /// this many evaluations/sec (the CI perf guard hook; `None` disables).
    pub min_evals_per_sec: Option<f64>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            quick: false,
            out_path: "BENCH_8.json".to_string(),
            repeat: 3,
            min_evals_per_sec: None,
        }
    }
}

/// One timed `(mac, window)` grid point.
#[derive(Debug, Clone)]
pub struct AnalysisPoint {
    pub mac: u64,
    pub window: u64,
    /// Closed-form evaluations timed per form (all sampling rates ×
    /// the inner repetition count).
    pub evals: u64,
    pub direct_secs: f64,
    pub dual_secs: f64,
}

/// Full analysis-bench outcome (`BENCH_8.json`).
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    pub quick: bool,
    pub repeat: usize,
    pub rustc_version: String,
    pub git_revision: String,
    pub points: Vec<AnalysisPoint>,
    pub direct_evals_per_sec: f64,
    pub dual_evals_per_sec: f64,
    /// Bisection solves of `required_p` timed end to end.
    pub solves: u64,
    pub solver_secs: f64,
    pub solves_per_sec: f64,
    /// Largest `|direct − dual|` seen anywhere in the timed grid.
    pub max_divergence: f64,
    /// `max_divergence < 1e-9` — the tentpole's agreement contract,
    /// re-checked on every bench run at full grid scale.
    pub agreement: bool,
}

/// The sampling rates every grid point evaluates (the sweep's PARA axis
/// plus denser coverage toward deployable rates).
const ANALYSIS_PS: [f64; 5] = [0.001, 0.004, 0.016, 0.05, 0.2];

/// Time the closed forms and the inverse solver over a pinned
/// `(mac, window, p)` grid, verifying direct/dual agreement at every
/// point. Pure CPU arithmetic — no simulator involved — so this measures
/// (and guards) the cost of the analytical layer itself: crossval runs
/// thousands of these evaluations, and `configure` answers interactively.
pub fn run_analysis(opts: &AnalysisOptions) -> Result<AnalysisReport, String> {
    if opts.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    let macs: &[u64] = &[4, 8, 16, 32, 64];
    let windows: &[u64] = if opts.quick {
        &[1_000, 4_096]
    } else {
        &[1_000, 4_096, 16_384]
    };
    // Inner repetitions make each timing sample long enough to resolve: a
    // single O(window) direct evaluation is sub-microsecond.
    let inner: u64 = if opts.quick { 50 } else { 200 };

    let mut points = Vec::with_capacity(macs.len() * windows.len());
    let mut direct_secs_total = 0.0;
    let mut dual_secs_total = 0.0;
    let mut evals_total = 0u64;
    let mut max_divergence = 0.0f64;
    for &mac in macs {
        for &window in windows {
            // Agreement first (untimed): the bench doubles as the grid-scale
            // re-check of the 1e-9 contract.
            for &p in &ANALYSIS_PS {
                let direct = rh_analysis::p_fail_direct(p, mac, window);
                let dual = rh_analysis::p_fail_dual(p, mac, window);
                max_divergence = max_divergence.max((direct - dual).abs());
            }
            let evals = ANALYSIS_PS.len() as u64 * inner;
            let mut direct_secs = f64::INFINITY;
            let mut dual_secs = f64::INFINITY;
            for _ in 0..opts.repeat {
                let t0 = Instant::now();
                for _ in 0..inner {
                    for &p in &ANALYSIS_PS {
                        std::hint::black_box(rh_analysis::p_fail_direct(
                            std::hint::black_box(p),
                            mac,
                            window,
                        ));
                    }
                }
                direct_secs = direct_secs.min(t0.elapsed().as_secs_f64());
                let t1 = Instant::now();
                for _ in 0..inner {
                    for &p in &ANALYSIS_PS {
                        std::hint::black_box(rh_analysis::p_fail_dual(
                            std::hint::black_box(p),
                            mac,
                            window,
                        ));
                    }
                }
                dual_secs = dual_secs.min(t1.elapsed().as_secs_f64());
            }
            direct_secs_total += direct_secs;
            dual_secs_total += dual_secs;
            evals_total += evals;
            points.push(AnalysisPoint {
                mac,
                window,
                evals,
                direct_secs,
                dual_secs,
            });
        }
    }

    // The inverse solver, timed over the same mac axis at a medium window —
    // each solve is ~100 direct evaluations, the cost `configure` pays.
    let solver_targets: &[f64] = &[0.5, 0.1, 0.01];
    let solve_window = 4_096u64;
    let mut solver_secs = f64::INFINITY;
    let solves = (macs.len() * solver_targets.len()) as u64;
    for _ in 0..opts.repeat {
        let t0 = Instant::now();
        for &mac in macs {
            for &target in solver_targets {
                std::hint::black_box(rh_analysis::required_p(
                    mac,
                    solve_window,
                    std::hint::black_box(target),
                ));
            }
        }
        solver_secs = solver_secs.min(t0.elapsed().as_secs_f64());
    }

    Ok(AnalysisReport {
        quick: opts.quick,
        repeat: opts.repeat,
        rustc_version: tool_version("rustc", &["--version"]),
        git_revision: tool_version("git", &["rev-parse", "--short", "HEAD"]),
        points,
        direct_evals_per_sec: evals_total as f64 / direct_secs_total,
        dual_evals_per_sec: evals_total as f64 / dual_secs_total,
        solves,
        solver_secs,
        solves_per_sec: solves as f64 / solver_secs,
        max_divergence,
        agreement: max_divergence < 1e-9,
    })
}

/// Render the analysis report (the `BENCH_8.json` artifact).
pub fn render_analysis(report: &AnalysisReport) -> String {
    let mut rows = String::new();
    for (i, p) in report.points.iter().enumerate() {
        let sep = if i + 1 < report.points.len() { "," } else { "" };
        let _ = writeln!(
            rows,
            "    {{\"mac\": {}, \"window\": {}, \"evals\": {}, \
             \"direct_evals_per_sec\": {}, \"dual_evals_per_sec\": {}}}{sep}",
            p.mac,
            p.window,
            p.evals,
            fnum(p.evals as f64 / p.direct_secs),
            fnum(p.evals as f64 / p.dual_secs),
        );
    }
    format!(
        "{{\n  \"bench\": \"closed-form failure-model evaluation throughput \
         (direct recurrence, Markov dual, bisection solver)\",\n  \
         \"quick\": {},\n  \
         \"repeat\": {},\n  \
         \"rustc\": {},\n  \
         \"git_revision\": {},\n  \
         \"points\": [\n{rows}  ],\n  \
         \"direct_evals_per_sec\": {},\n  \
         \"dual_evals_per_sec\": {},\n  \
         \"solver\": {{\"solves\": {}, \"wall_secs\": {}, \"solves_per_sec\": {}}},\n  \
         \"max_divergence\": {},\n  \
         \"agreement\": {}\n}}",
        report.quick,
        report.repeat,
        jstr(&report.rustc_version),
        jstr(&report.git_revision),
        fnum(report.direct_evals_per_sec),
        fnum(report.dual_evals_per_sec),
        report.solves,
        fnum(report.solver_secs),
        fnum(report.solves_per_sec),
        // Divergence sits at the 1e-12 scale; fixed 3-decimal formatting
        // would flatten it to 0.000.
        if report.max_divergence.is_finite() {
            format!("{:e}", report.max_divergence)
        } else {
            "null".to_string()
        },
        report.agreement,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_configs_are_valid_plans() {
        for quick in [true, false] {
            let cfg = reference_config(quick);
            let plan = SweepPlan::from_config(&cfg).expect("reference config must plan");
            // 3 hc × 2 patterns × (single + double + many-sided(8)) × 5
            // mitigations.
            assert_eq!(plan.grid.len(), 90);
        }
    }

    #[test]
    fn legacy_and_optimized_paths_agree_on_a_small_cell() {
        let mut cfg = reference_config(true);
        cfg.activations = 20_000;
        cfg.geometry = Geometry::tiny(1024);
        let plan = SweepPlan::from_config(&cfg).unwrap();
        let tables = build_table_cache(&plan, &plan.grid);
        let mut worker = Worker::with_kernel(Kernel::auto());
        for cell in &plan.grid {
            let legacy = run_cell_legacy(&plan, cell);
            let optimized = worker.run_cell(&plan, cell, &tables);
            assert!(
                results_identical(&legacy, &optimized),
                "paths diverged on {} / {}",
                legacy.workload,
                legacy.mitigation
            );
        }
    }

    #[test]
    fn filter_selects_matching_cells_and_rejects_nonsense() {
        let opts = BenchOptions {
            quick: true,
            repeat: 1,
            filter: Some("no-such-cell".to_string()),
            ..BenchOptions::default()
        };
        assert!(run_bench(&opts).is_err());

        let cfg = reference_config(true);
        let plan = SweepPlan::from_config(&cfg).unwrap();
        let matching = plan
            .grid
            .iter()
            .filter(|c| cell_label(&plan, c).contains("graphene"))
            .count();
        assert_eq!(matching, 18, "3 hc × 2 patterns × 3 workloads of graphene");
        // The label's leading pattern component makes the axis filterable.
        let striped = plan
            .grid
            .iter()
            .filter(|c| cell_label(&plan, c).starts_with("rowstripe/"))
            .count();
        assert_eq!(striped, 45);
    }

    #[test]
    fn zero_repeat_is_rejected() {
        let opts = BenchOptions {
            repeat: 0,
            ..BenchOptions::default()
        };
        assert!(run_bench(&opts).is_err());
    }

    #[test]
    fn family_strips_parameter_list() {
        assert_eq!(family("graphene(k=64,t=512)"), "graphene");
        assert_eq!(family("none"), "none");
    }

    #[test]
    fn report_renders_valid_shape() {
        let report = BenchReport {
            quick: true,
            geometry: Geometry::tiny(64),
            activations_per_cell: 10,
            repeat: 3,
            filter: Some("trr".to_string()),
            rustc_version: "rustc 1.0 \"quoted\"".to_string(),
            git_revision: "abc1234".to_string(),
            kernel: Kernel::Scalar,
            cells: vec![CellTiming {
                workload: "w".into(),
                mitigation: "m(k=1)".into(),
                hc_first: 128,
                data_pattern: "rowstripe".into(),
                legacy_secs: 0.5,
                optimized_secs: 0.1,
            }],
            breakdown: vec![MitigationBreakdown {
                mitigation: "m".into(),
                cells: 1,
                legacy_secs: 0.5,
                optimized_secs: 0.1,
            }],
            legacy_secs: 0.5,
            optimized_secs: 0.1,
            legacy_acts_per_sec: 20.0,
            optimized_acts_per_sec: 100.0,
            speedup: 5.0,
            peak_cell_acts_per_sec: 100.0,
            equivalent: true,
        };
        let s = render(&report);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"speedup\": 5.000"));
        assert!(s.contains("\"equivalent\": true"));
        assert!(s.contains("\"repeat\": 3"));
        assert!(s.contains("\"filter\": \"trr\""));
        assert!(s.contains("\"rustc\": \"rustc 1.0 \\\"quoted\\\"\""));
        assert!(s.contains("\"kernel\": \"scalar\""));
        assert!(s.contains("\"mitigation_breakdown\""));
        assert!(s.contains("\"hc_first\": 128"));
        assert!(s.contains("\"data_pattern\": \"rowstripe\""));
        assert!(!s.contains("NaN"));
    }

    #[test]
    fn metadata_falls_back_to_unknown() {
        assert_eq!(tool_version("definitely-not-a-command-9q", &[]), "unknown");
    }

    #[test]
    fn saturation_rejects_empty_and_zero_pool_sizes() {
        let opts = SaturationOptions {
            worker_counts: vec![],
            ..SaturationOptions::default()
        };
        assert!(run_saturation(&opts).is_err());
        let opts = SaturationOptions {
            worker_counts: vec![1, 0],
            ..SaturationOptions::default()
        };
        assert!(run_saturation(&opts).is_err());
    }

    #[test]
    fn saturation_config_is_the_default_sweep_shape() {
        let full = saturation_config(false);
        let quick = saturation_config(true);
        assert_eq!(full.hc_firsts, SweepConfig::default().hc_firsts);
        assert_eq!(full.activations, 200_000);
        assert_eq!(quick.activations, 40_000);
        // Quick and full are the same *grid* — only the per-cell budget
        // shrinks, so scaling curves stay comparable.
        let full_plan = SweepPlan::from_config(&full).unwrap();
        let quick_plan = SweepPlan::from_config(&quick).unwrap();
        assert_eq!(full_plan.grid.len(), quick_plan.grid.len());
    }

    #[test]
    fn saturation_report_renders_valid_shape() {
        let report = SaturationReport {
            quick: true,
            rustc_version: "rustc 1.0".into(),
            git_revision: "abc".into(),
            kernel_request: KernelChoice::Scalar,
            activations_per_cell: 40_000,
            cells_per_job: 124,
            available_parallelism: 4,
            points: vec![SaturationPoint {
                workers: 2,
                wall_secs: 0.5,
                cells_per_sec: 248.0,
                acts_per_sec: 9_920_000.0,
                worker_kernels: vec!["local-0:scalar(70)".into(), "local-1:scalar(54)".into()],
            }],
            peak_cells_per_sec: 248.0,
            identical_bytes: true,
        };
        let s = render_saturation(&report);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"workers\": 2"));
        assert!(s.contains("\"cells_per_sec\": 248.000"));
        assert!(s.contains("\"kernel_request\": \"scalar\""));
        assert!(s.contains("\"available_parallelism\": 4"));
        assert!(s.contains("\"identical_bytes\": true"));
        assert!(s.contains("local-1:scalar(54)"));
        assert!(!s.contains("NaN"));
    }

    #[test]
    fn flat_ladder_warning_fires_only_on_single_cpu_flat_curves() {
        let point = |workers: usize, cells_per_sec: f64| SaturationPoint {
            workers,
            wall_secs: 1.0,
            cells_per_sec,
            acts_per_sec: cells_per_sec * 1000.0,
            worker_kernels: vec![],
        };
        let flat = vec![point(1, 100.0), point(2, 104.0), point(4, 98.0)];
        let scaling = vec![point(1, 100.0), point(2, 190.0), point(4, 350.0)];
        // Single CPU + flat curve: warn, naming the spread.
        let warning = flat_ladder_warning(1, &flat).expect("flat ladder on 1 CPU must warn");
        assert!(warning.contains("available_parallelism=1"), "{warning}");
        // Real scaling, one CPU claimed: the curve speaks for itself.
        assert_eq!(flat_ladder_warning(1, &scaling), None);
        // Multi-CPU host: a flat curve is a real finding, not noise.
        assert_eq!(flat_ladder_warning(4, &flat), None);
        // A single point has no spread to judge.
        assert_eq!(flat_ladder_warning(1, &flat[..1]), None);
    }
}

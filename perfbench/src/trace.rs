//! The traced run: per-layer host time for one sweep, measured from
//! outside the library.
//!
//! Every cell of the plan runs serially on one thread, four times:
//!
//! 1. **plain** — `run_experiment` over the real workload, mitigation and
//!    device, timed as one engine span (the serial cell time);
//! 2. **traced** — the same call through forwarding wrappers that record
//!    what crosses each layer boundary: the workload's batches (one clock
//!    pair per `fill_batch` chunk of 1024 activations), the mitigation's
//!    action counts and `reset` points, and the device call sequence. The
//!    wrappers forward `fill_batch`, `runs_commute` and `conflict_radius`,
//!    so batching and coalescing are unchanged and the result must equal
//!    the plain one;
//! 3. **mitigation replay** — a fresh mitigation fed the recorded address
//!    stream in chunks, one clock pair per chunk;
//! 4. **device replay** — a reset device fed the recorded call sequence in
//!    chunks (its flip counters must land on the cell's result), then the
//!    refresh calls alone.
//!
//! A clock pair costs about as much as a short device call, so no layer is
//! timed per call: the in-place run pays one clock pair per batch, and the
//! replays time whole chunks. Engine self time is the plain span minus the
//! fill, mitigation and device times.

use rh_cli::engine::{run_experiment, EngineScratch, RunResult};
use rh_cli::plan::{CellSpec, SweepPlan, BLAST_RADIUS};
use rh_core::{Device, DeviceState, DeviceTables, Geometry, Kernel, RowAddr, VictimModelParams};
use rh_mitigations::{ActionBuf, Mitigation, MitigationKind, MitigationSpec};
use rh_workloads::{BuiltWorkload, Workload};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;
use std::time::Instant;

/// Calls per timed replay chunk: long enough that the clock pair is a
/// small share of the chunk, short enough to interleave with `reset`
/// points at tREFW boundaries.
const REPLAY_CHUNK: usize = 1024;

/// The mitigation arms, in report order, keyed as the metrics name them.
pub const KINDS: [&str; 5] = ["none", "para", "graphene", "refresh", "trr"];

fn kind_of(spec: &MitigationSpec) -> usize {
    match spec {
        MitigationSpec::None => 0,
        MitigationSpec::Para { .. } => 1,
        MitigationSpec::Graphene { .. } => 2,
        MitigationSpec::IncreasedRefresh { .. } => 3,
        MitigationSpec::Trr { .. } => 4,
    }
}

/// Device tables per distinct `(hc_first, data pattern, device seed)`, as
/// the library's executor shares them.
pub type Tables = BTreeMap<(u64, rh_core::DataPattern, u64), Arc<DeviceTables>>;

/// The victim-model parameters a cell simulates (the sweep's `HC_first`
/// point plus the cell's data pattern and the sweep-wide ECC setting).
fn cell_params(plan: &SweepPlan, cell: &CellSpec) -> VictimModelParams {
    VictimModelParams {
        data_pattern: cell.data_pattern,
        ecc_codeword_bits: plan.config.ecc_codeword_bits,
        ..VictimModelParams::with_hc_first(cell.hc_first)
    }
}

/// Build every distinct `DeviceTables` the plan needs, one `DeviceTables::new`
/// call each.
pub fn build_tables(plan: &SweepPlan) -> Result<Tables, String> {
    let mut tables = Tables::new();
    for cell in plan.grid.iter().chain(&plan.para_sweep) {
        let key = (cell.hc_first, cell.data_pattern, cell.seeds.device);
        if let Entry::Vacant(slot) = tables.entry(key) {
            let t = DeviceTables::new(
                plan.config.geometry,
                cell_params(plan, cell),
                cell.seeds.device,
            )?;
            slot.insert(Arc::new(t));
        }
    }
    Ok(tables)
}

fn tables_of(tables: &Tables, cell: &CellSpec) -> Arc<DeviceTables> {
    Arc::clone(&tables[&(cell.hc_first, cell.data_pattern, cell.seeds.device)])
}

fn build_workload(plan: &SweepPlan, cell: &CellSpec) -> BuiltWorkload {
    cell.workload
        .build(
            &plan.config.geometry,
            plan.config.benign_fraction,
            cell.seeds.workload,
        )
        .expect("the plan validated every workload")
}

fn build_mitigation(plan: &SweepPlan, cell: &CellSpec) -> MitigationKind {
    cell.mitigation.build(
        &plan.config.geometry,
        cell.hc_first,
        BLAST_RADIUS,
        cell.seeds.mitigation,
    )
}

/// One device call as the engine made it.
#[derive(Clone, Copy)]
enum DevOp {
    Activate(RowAddr),
    Repeat(RowAddr, u64),
    RefreshRow(RowAddr),
    RefreshAll,
}

impl DevOp {
    fn apply(self, device: &mut DeviceState) {
        match self {
            DevOp::Activate(a) => device.activate(a),
            DevOp::Repeat(a, n) => device.activate_repeat(a, n),
            DevOp::RefreshRow(a) => device.refresh_row(a),
            DevOp::RefreshAll => device.refresh_all(),
        }
    }

    fn is_refresh(self) -> bool {
        matches!(self, DevOp::RefreshRow(_) | DevOp::RefreshAll)
    }
}

/// Workload wrapper: times each `fill_batch` chunk and records the stream.
struct TracedWorkload<'a> {
    inner: BuiltWorkload,
    fill_ns: u64,
    stream: &'a mut Vec<RowAddr>,
}

impl Workload for TracedWorkload<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn next_access(&mut self) -> RowAddr {
        let addr = self.inner.next_access();
        self.stream.push(addr);
        addr
    }

    fn fill_batch(&mut self, out: &mut Vec<RowAddr>, n: usize) {
        let t = Instant::now();
        self.inner.fill_batch(out, n);
        self.fill_ns += t.elapsed().as_nanos() as u64;
        self.stream.extend_from_slice(out);
    }
}

/// Mitigation wrapper: counts activations and actions, records where the
/// engine reset the mitigation (tREFW boundaries).
struct TracedMitigation<'a> {
    inner: MitigationKind,
    seen: u64,
    actions: u64,
    resets: &'a mut Vec<u64>,
}

impl Mitigation for TracedMitigation<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_activate(&mut self, addr: RowAddr, geom: &Geometry, out: &mut ActionBuf) {
        let before = out.len();
        self.inner.on_activate(addr, geom, out);
        self.seen += 1;
        self.actions += (out.len() - before) as u64;
    }

    fn reset(&mut self) {
        self.resets.push(self.seen);
        self.inner.reset();
    }
}

/// Device wrapper: forwards every call and records the mutating ones.
struct TracedDevice<'a> {
    inner: &'a mut DeviceState,
    ops: &'a mut Vec<DevOp>,
}

impl Device for TracedDevice<'_> {
    fn geometry(&self) -> &Geometry {
        Device::geometry(&*self.inner)
    }
    fn params(&self) -> &VictimModelParams {
        Device::params(&*self.inner)
    }
    fn activate(&mut self, addr: RowAddr) {
        self.ops.push(DevOp::Activate(addr));
        Device::activate(&mut *self.inner, addr);
    }
    fn activate_repeat(&mut self, addr: RowAddr, n: u64) {
        self.ops.push(DevOp::Repeat(addr, n));
        Device::activate_repeat(&mut *self.inner, addr, n);
    }
    fn runs_commute(&self, a: RowAddr, b: RowAddr) -> bool {
        Device::runs_commute(&*self.inner, a, b)
    }
    fn conflict_radius(&self) -> Option<u32> {
        Device::conflict_radius(&*self.inner)
    }
    fn refresh_row(&mut self, addr: RowAddr) {
        self.ops.push(DevOp::RefreshRow(addr));
        Device::refresh_row(&mut *self.inner, addr);
    }
    fn refresh_all(&mut self) {
        self.ops.push(DevOp::RefreshAll);
        Device::refresh_all(&mut *self.inner);
    }
    fn total_flips(&self) -> u64 {
        Device::total_flips(&*self.inner)
    }
    fn flipped_rows(&self) -> u64 {
        Device::flipped_rows(&*self.inner)
    }
    fn flips_per_mact(&self) -> f64 {
        Device::flips_per_mact(&*self.inner)
    }
    fn total_activations(&self) -> u64 {
        Device::total_activations(&*self.inner)
    }
    fn refreshes_issued(&self) -> u64 {
        Device::refreshes_issued(&*self.inner)
    }
    fn flips_1to0(&self) -> u64 {
        Device::flips_1to0(&*self.inner)
    }
    fn flips_0to1(&self) -> u64 {
        Device::flips_0to1(&*self.inner)
    }
    fn post_ecc_flips(&self) -> Option<u64> {
        Device::post_ecc_flips(&*self.inner)
    }
}

/// Field-by-field equality of two cell results (`flips_per_mact` by bits).
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
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

/// Top-level spans of the traced pass: their summed length against the
/// pass wall gives the time no layer span covers (they never overlap: one
/// thread, no nesting at this level).
struct Spans {
    covered_ns: u64,
}

impl Spans {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64) {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.covered_ns += ns;
        (out, ns)
    }
}

/// What the traced pass measured, summed over every cell.
#[derive(Default)]
pub struct TraceTotals {
    pub cells: u64,
    pub activations: u64,
    /// Plain `run_experiment` spans (serial cell time).
    pub plain_ns: u64,
    /// The same calls through the recording wrappers.
    pub traced_ns: u64,
    /// Per-cell build + reset + plain span, in plan order (grid, then PARA
    /// sweep): the work the executor deals.
    pub cell_work_ns: Vec<u64>,
    pub fill_ns: u64,
    pub device_ns: u64,
    pub device_refresh_ns: u64,
    pub device_reset_ns: u64,
    pub device_resets: u64,
    pub device_calls: u64,
    pub refresh_rows: u64,
    pub refresh_alls: u64,
    /// Per mitigation arm ([`KINDS`] order): activations, replay time,
    /// actions emitted.
    pub kind_acts: [u64; 5],
    pub kind_ns: [u64; 5],
    pub kind_actions: [u64; 5],
    pub pass_wall_ns: u64,
    pub covered_ns: u64,
    /// Cells whose traced or replayed outcome differed from the plain run
    /// or from the library's result.
    pub mismatches: Vec<String>,
}

/// Run the traced pass over every cell of `plan`; `expected` holds the
/// library's results in plan order (grid, then PARA sweep).
pub fn traced_pass(
    plan: &SweepPlan,
    tables: &Tables,
    kernel: Kernel,
    expected: &[RunResult],
) -> TraceTotals {
    let cells: Vec<&CellSpec> = plan.grid.iter().chain(&plan.para_sweep).collect();
    let geom = plan.config.geometry;
    let mut totals = TraceTotals::default();
    let mut spans = Spans { covered_ns: 0 };
    let mut scratch = EngineScratch::new();
    let mut stream: Vec<RowAddr> = Vec::new();
    let mut resets: Vec<u64> = Vec::new();
    let mut ops: Vec<DevOp> = Vec::new();
    let first = tables_of(tables, cells[0]);
    let mut device = DeviceState::with_tables_and_kernel(first, kernel);
    let pass = Instant::now();

    for (i, cell) in cells.iter().enumerate() {
        let cell_tables = tables_of(tables, cell);
        let kind = kind_of(&cell.mitigation);
        let label = format!(
            "{}/{:?}/{:?}/hc={}",
            cell.data_pattern.name(),
            cell.workload,
            cell.mitigation,
            cell.hc_first
        );

        // 1. Plain run.
        let ((mut workload, mut mitigation), build_ns) =
            spans.time(|| (build_workload(plan, cell), build_mitigation(plan, cell)));
        let ((), reset_ns) = spans.time(|| device.reset_for_cell(Arc::clone(&cell_tables)));
        let (plain, plain_ns) = spans.time(|| {
            run_experiment(
                &mut device,
                &mut workload,
                &mut mitigation,
                cell.activations,
                cell.auto_refresh_interval,
                &mut scratch,
            )
        });
        totals.device_reset_ns += reset_ns;
        totals.device_resets += 1;
        totals.plain_ns += plain_ns;
        totals.cell_work_ns.push(build_ns + reset_ns + plain_ns);
        if !same_result(&plain, &expected[i]) {
            totals
                .mismatches
                .push(format!("{label}: serial result differs from the library's"));
        }

        // 2. Traced run through the recording wrappers.
        stream.clear();
        resets.clear();
        ops.clear();
        let ((workload, mitigation), _) =
            spans.time(|| (build_workload(plan, cell), build_mitigation(plan, cell)));
        let ((), reset_ns) = spans.time(|| device.reset_for_cell(Arc::clone(&cell_tables)));
        totals.device_reset_ns += reset_ns;
        totals.device_resets += 1;
        let mut workload = TracedWorkload {
            inner: workload,
            fill_ns: 0,
            stream: &mut stream,
        };
        let mut mitigation = TracedMitigation {
            inner: mitigation,
            seen: 0,
            actions: 0,
            resets: &mut resets,
        };
        let (traced, traced_ns) = spans.time(|| {
            let mut traced_device = TracedDevice {
                inner: &mut device,
                ops: &mut ops,
            };
            run_experiment(
                &mut traced_device,
                &mut workload,
                &mut mitigation,
                cell.activations,
                cell.auto_refresh_interval,
                &mut scratch,
            )
        });
        totals.traced_ns += traced_ns;
        totals.fill_ns += workload.fill_ns;
        let traced_actions = mitigation.actions;
        if !same_result(&traced, &plain) {
            totals
                .mismatches
                .push(format!("{label}: traced result differs from the plain run"));
        }

        // 3. Mitigation replay over the recorded stream.
        let (fresh, _) = spans.time(|| build_mitigation(plan, cell));
        let ((replay_ns, replay_actions), _) =
            spans.time(|| replay_mitigation(fresh, &geom, &stream, &resets));
        if replay_actions != traced_actions {
            totals.mismatches.push(format!(
                "{label}: mitigation replay emitted {replay_actions} actions, the run {traced_actions}"
            ));
        }
        totals.kind_acts[kind] += cell.activations;
        totals.kind_ns[kind] += replay_ns;
        totals.kind_actions[kind] += traced_actions;

        // 4. Device replay: the whole call sequence, then refreshes alone.
        let ((), reset_ns) = spans.time(|| device.reset_for_cell(Arc::clone(&cell_tables)));
        totals.device_reset_ns += reset_ns;
        totals.device_resets += 1;
        let (device_ns, _) = spans.time(|| replay_device(&mut device, &ops));
        let replayed = RunResult {
            total_flips: device.total_flips(),
            flipped_rows: device.flipped_rows(),
            flips_per_mact: device.flips_per_mact(),
            refreshes_issued: device.refreshes_issued(),
            flips_1to0: device.flips_1to0(),
            flips_0to1: device.flips_0to1(),
            post_ecc_flips: device.post_ecc_flips(),
            ..plain.clone()
        };
        if !same_result(&replayed, &plain) {
            totals.mismatches.push(format!(
                "{label}: device replay does not reproduce the cell"
            ));
        }
        let refreshes: Vec<DevOp> = ops.iter().copied().filter(|op| op.is_refresh()).collect();
        let ((), reset_ns) = spans.time(|| device.reset_for_cell(Arc::clone(&cell_tables)));
        totals.device_reset_ns += reset_ns;
        totals.device_resets += 1;
        let (refresh_ns, _) = spans.time(|| replay_device(&mut device, &refreshes));
        totals.device_ns += device_ns;
        totals.device_refresh_ns += refresh_ns;

        for op in &ops {
            match op {
                DevOp::Activate(_) | DevOp::Repeat(..) => totals.device_calls += 1,
                DevOp::RefreshRow(_) => totals.refresh_rows += 1,
                DevOp::RefreshAll => totals.refresh_alls += 1,
            }
        }
        totals.cells += 1;
        totals.activations += cell.activations;
    }
    totals.pass_wall_ns = pass.elapsed().as_nanos() as u64;
    totals.covered_ns = spans.covered_ns;
    totals
}

/// Feed `stream` through `mitigation` in timed chunks, resetting it where
/// the engine did. Returns (nanoseconds, actions emitted).
fn replay_mitigation(
    mut mitigation: MitigationKind,
    geom: &Geometry,
    stream: &[RowAddr],
    resets: &[u64],
) -> (u64, u64) {
    let mut buf = ActionBuf::new();
    let mut ns = 0u64;
    let mut actions = 0u64;
    let mut resets = resets.iter().copied().peekable();
    let mut i = 0usize;
    while i < stream.len() {
        while resets.peek() == Some(&(i as u64)) {
            mitigation.reset();
            resets.next();
        }
        let next_reset = resets.peek().map_or(stream.len(), |&r| r as usize);
        let end = (i + REPLAY_CHUNK).min(next_reset).min(stream.len());
        let t = Instant::now();
        for &addr in &stream[i..end] {
            buf.clear();
            mitigation.on_activate(addr, geom, &mut buf);
            actions += buf.len() as u64;
        }
        ns += t.elapsed().as_nanos() as u64;
        i = end;
    }
    std::hint::black_box(&mitigation);
    (ns, actions)
}

/// Apply `ops` to `device` in timed chunks; returns nanoseconds.
fn replay_device(device: &mut DeviceState, ops: &[DevOp]) -> u64 {
    let mut ns = 0u64;
    for chunk in ops.chunks(REPLAY_CHUNK) {
        let t = Instant::now();
        for &op in chunk {
            op.apply(device);
        }
        ns += t.elapsed().as_nanos() as u64;
    }
    std::hint::black_box(device.total_flips());
    ns
}

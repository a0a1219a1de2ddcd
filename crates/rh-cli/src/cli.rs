//! Command-line parsing for every `rh-cli` subcommand.
//!
//! Lives in the library (rather than `main.rs`) so every parse and rejection
//! path is unit-testable. Each `parse_*_args` function returns one
//! [`Parsed<T>`] — `Help` or `Run(options)` — and reads its flags through
//! one private cursor. The cursor owns the flag currently being read and
//! has a typed reader per value shape (raw string, `FromStr`, at least 1,
//! positive finite rate, milliseconds, comma list), each naming the flag in
//! its rejection message, so a parser spends one line per flag. `-h`/
//! `--help` stops the walk wherever it appears; flags before it are read
//! (and rejected) in order. Parsing is purely syntactic; semantic
//! validation is shared with programmatic callers via
//! [`SweepConfig::validate`] and [`crate::configure::run_configure`].

use crate::bench::{AnalysisOptions, BenchOptions, SaturationOptions};
use crate::configure::ConfigureOptions;
use crate::faults::FaultPlan;
use crate::serve::{CancelOptions, ServeOptions, SubmitOptions};
use crate::sweep::SweepConfig;
use crate::worker::WorkerOptions;
use rh_core::KernelChoice;
use std::str::FromStr;
use std::time::Duration;

pub const USAGE: &str = "\
rh-cli — RowHammer mitigation sweep (Kim et al., ISCA 2020 reproduction)

USAGE:
    rh-cli sweep [OPTIONS]
    rh-cli bench [--quick] [--out <PATH>] [--repeat <N>] [--filter <SUBSTR>]
                 [--min-acts-per-sec <RATE>] [--kernel <K>]
    rh-cli bench --saturation [--quick] [--out <PATH>] [--workers <A,B,...>]
                 [--kernel <K>] [--min-cells-per-sec <RATE>]
    rh-cli bench --analysis [--quick] [--out <PATH>] [--repeat <N>]
                 [--min-evals-per-sec <RATE>]
    rh-cli configure --hc <N> --window <N> --target-pfail <P>
                     [--validate] [--trials <N>] [--seed <N>]
    rh-cli serve [--workers <N>] [--listen <ADDR>] [--kernel <K>]
                 [--cache-capacity <N>] [--checkpoint-dir <DIR>]
                 [--shard-cells <N>] [--config-epoch <N>]
                 [--fallback-after-ms <MS>] [--speculate-after-ms <MS>]
                 [--fault-plan <PLAN>] [--max-pending-jobs <N>]
                 [--max-jobs-per-client <N>] [--max-cells-per-client <N>]
                 [--target-lease-ms <MS>] [--handshake-timeout-ms <MS>]
                 [--auth-token-file <PATH>]
    rh-cli worker [--connect <ADDR>] [--fault-plan <PLAN>]
                  [--config-epoch <N>] [--retry <N>] [--backoff-ms <MS>]
                  [--auth-token-file <PATH>]
    rh-cli submit --connect <ADDR> [--timeout <SECS>]
                  [--job-deadline-ms <MS>] [--auth-token-file <PATH>]
    rh-cli cancel --connect <ADDR> --id <JOB> [--timeout <SECS>]
                  [--auth-token-file <PATH>]

SWEEP OPTIONS:
    --seed <N>              RNG seed for device + mitigations (default 0xC0FFEE)
    --activations <N>       activation budget per experiment cell (default 200000)
    --hc <A,B,...>          HC_first values to sweep (default 2000,4000,8000,16000)
    --sides <A,B,...>       many-sided aggressor counts, each >= 2 (default 2,4,8,16)
    --para-p <P1,P2,...>    PARA sampling probabilities (default 0.0,0.001,0.004,0.016)
    --data-pattern <P,...>  stored data patterns to sweep: legacy, solid,
                            checkerboard, rowstripe (default legacy; anything
                            beyond legacy adds per-result data_pattern and
                            1->0 / 0->1 flip-direction fields)
    --ecc <BITS>            enable on-die ECC with BITS cells per codeword
                            (corrects one flip per codeword; results then
                            report pre- and post-ECC flip counts; default off)
    --benign-fraction <F>   fraction of benign traffic mixed in (default 0.1)
    --refresh-interval <N>  auto-refresh (tREFW) period in activations,
                            0 disables (default 32000)
    --threads <N>           worker threads for cell execution; output is
                            byte-identical for any value (default: all cores)
    --kernel <K>            victim-settle kernel: auto, scalar, avx2
                            (default auto; output is byte-identical for any
                            kernel — the RH_FORCE_SCALAR env var overrides
                            every choice, for CI fallback coverage)
    -h, --help              print this help

BENCH OPTIONS:
    --quick                 shrink the reference sweep for CI smoke runs
    --out <PATH>            report path (default BENCH_6.json)
    --repeat <N>            timing runs per cell per path, min reported
                            (default 3)
    --filter <SUBSTR>       only run cells whose pattern/workload/mitigation
                            label contains SUBSTR (e.g. 'rowstripe/' selects
                            the Section 5 slice, 'graphene' one mitigation)
    --min-acts-per-sec <R>  exit non-zero if aggregate optimized throughput
                            falls below R (CI perf guard)
    --kernel <K>            settle kernel for the optimized path: auto,
                            scalar, avx2 (default auto; recorded in the
                            report so runs are comparable)

bench times the pinned reference sweep under the optimized hot path (flat
counter tables, batched engine, epoch-based refresh) and the retained
pre-optimization path (map-based counters, unbatched dyn dispatch, eager
refresh), verifies both produce identical results, and writes a JSON report
with before/after throughput plus a per-mitigation breakdown.

SATURATION BENCH OPTIONS (bench --saturation):
    --quick                 shrink the per-cell activation budget for CI
    --out <PATH>            report path (default BENCH_7.json)
    --workers <A,B,...>     worker-pool sizes to measure (default 1,2,4,8)
    --kernel <K>            settle-kernel request propagated to every worker
    --min-cells-per-sec <R> exit non-zero if peak throughput falls below R

bench --saturation measures the distributed service end to end: for each
pool size it starts a coordinator, spawns that many rh-cli worker
processes, submits the default sweep, and records cells/sec from submit to
merged envelope — byte-checking every merged document against the
in-process sweep.

ANALYSIS BENCH OPTIONS (bench --analysis):
    --quick                 drop the largest window from the timed grid
    --out <PATH>            report path (default BENCH_8.json)
    --repeat <N>            timing runs per grid point, min reported
                            (default 3)
    --min-evals-per-sec <R> exit non-zero if the direct form's aggregate
                            throughput falls below R evaluations/sec

bench --analysis times the rh-analysis closed forms (the direct recurrence
and the Markov-chain dual) and the required_p bisection solver over a
pinned (mac, window, p) grid, re-checks the two forms agree within 1e-9 at
every point, and writes a JSON report with per-point and aggregate
evaluation throughput.

CONFIGURE OPTIONS:
    --hc <N>                device HC_first in activations (required, >= 2)
    --window <N>            attack window in activations (required)
    --target-pfail <P>      failure-probability budget over the window,
                            in (0, 1] (required)
    --validate              run a seeded mini-sweep through the simulator
                            and check the recommendation's failure rate
                            lands inside the analytical confidence band
                            (exit non-zero when it does not)
    --trials <N>            windows the mini-sweep simulates (default 400)
    --seed <N>              mini-sweep root seed (default 0xC0FFEE)

configure answers \"what PARA sampling rate do I need\" from the closed-form
failure model (rh-analysis): it prints the smallest p whose analytical
failure probability meets the target, as JSON in the same hand-rolled
style as sweep. See docs/ARCHITECTURE.md, \"Analytical cross-validation\".

SERVE OPTIONS:
    --workers <N>           local worker processes to spawn (default 2)
    --listen <ADDR>         also accept clients and workers over TCP
                            (e.g. 127.0.0.1:4242; port 0 for ephemeral);
                            without it, configs are read as jsonl on stdin
    --kernel <K>            settle-kernel request sent with every shard
    --cache-capacity <N>    result-cache size in documents (default 128)
    --checkpoint-dir <DIR>  durable cell store: every merged cell is kept
                            as a checksummed jsonl record, so crashed jobs
                            resume and a restarted coordinator answers
                            fully stored jobs from disk; corrupt records
                            are skipped and counted, never served
                            (--cache-dir is a second spelling)
    --shard-cells <N>       max cells per shard lease (default 16)
    --config-epoch <N>      config generation; worker hellos announcing a
                            different epoch are rejected (default 0)
    --fallback-after-ms <MS> graceful degradation: a job stranded this long
                            with no live worker is executed in-process by
                            the submitting thread (default: off, fail fast)
    --speculate-after-ms <MS> floor of the straggler deadline; a lease with
                            no progress past max(floor, 16x the EWMA cell
                            time) is re-leased to another worker and the
                            duplicate results asserted bit-identical
                            (default 10000; 0 disables speculation)
    --fault-plan <PLAN>     coordinator-side fault injection; the useful
                            directives here are corrupt-cache-record=N
                            (clobber one byte of cell-store record N before
                            the startup scan), cancel-after-cells=N (cancel
                            the owning job after the Nth merged cell) and
                            slow-client=MS (delay every client reply)
    --max-pending-jobs <N>  admission bound: submits past N unfinished jobs
                            coordinator-wide get a clean reject naming
                            queue_full (default 64)
    --max-jobs-per-client <N> per-client concurrent unfinished-job quota;
                            excess submits are rejected with
                            client_job_quota (default 16)
    --max-cells-per-client <N> per-client quota on queued (not yet merged)
                            cells; rejects name client_cell_quota
                            (default 1000000)
    --target-lease-ms <MS>  adaptive shard sizing: widen or narrow leases
                            so each takes about MS of wall time, using
                            per-list EWMA cell times (PARA cells get much
                            wider shards than grid cells); 0 restores the
                            fixed --shard-cells width; merged output is
                            byte-identical at any setting (default 1500)
    --handshake-timeout-ms <MS> how long a fresh TCP connection gets to
                            produce its first protocol line, which also
                            bounds the auth challenge (default 10000)
    --auth-token-file <PATH> shared secret file; when set, every TCP worker
                            hello and client session must prove knowledge
                            of the token (challenge/response, constant-time
                            compare) or be rejected; local stdio workers
                            spawned by this coordinator are exempt

WORKER OPTIONS:
    --connect <ADDR>        attach to a coordinator over TCP (default:
                            speak the jsonl protocol over stdio, as when
                            spawned by serve)
    --fault-plan <PLAN>     deterministic fault schedule, comma-separated
                            key=value directives: crash-after-cells=N,
                            stall-after-cells=N, stall-ms=MS, drop-line=N,
                            garble-line=N, delay-connect-ms=MS, seed=S
                            (see docs/ARCHITECTURE.md, failure model)
    --config-epoch <N>      config generation announced in the hello; must
                            match the coordinator's (default 0)
    --retry <N>             reconnect attempts after a failed connect or a
                            dropped connection, with seeded exponential
                            backoff; a coordinator 'reject' is never
                            retried (default 0)
    --backoff-ms <MS>       base of the reconnect backoff (default 200)
    --auth-token-file <PATH> shared secret file matching the coordinator's;
                            proven in the hello (required when the
                            coordinator was started with one)

SUBMIT OPTIONS:
    --connect <ADDR>        coordinator address (required)
    --timeout <SECS>        bound the connect and each response wait; on
                            expiry submit exits nonzero naming the deadline
                            (default: wait forever)
    --job-deadline-ms <MS>  stamp every submitted config with a deadline;
                            the coordinator cancels jobs that outlive it
                            and submit exits nonzero (default: none)
    --auth-token-file <PATH> shared secret file; the session opens with an
                            authenticated client hello before any submit

submit reads jsonl sweep configs from stdin ('{}' is the default sweep),
sends each to the coordinator, prints each returned merged document
verbatim on stdout (byte-identical to 'rh-cli sweep' of the same config),
and reports cache/worker metadata on stderr.

CANCEL OPTIONS:
    --connect <ADDR>        coordinator address (required)
    --id <JOB>              job id given at submit time (required)
    --timeout <SECS>        bound the connect and the acknowledgement wait
    --auth-token-file <PATH> shared secret file, as for submit

cancel asks the coordinator to kill one in-flight job: queued shards are
dropped, leased shards are abandoned mid-shard by their workers, and the
waiting submit fails with the cancellation message. Exits nonzero when the
job is unknown or already finished.
";

/// Outcome of parsing one subcommand's arguments.
#[derive(Debug, Clone)]
pub enum Parsed<T> {
    /// `-h`/`--help` appeared; print usage and exit successfully.
    Help,
    /// Run the subcommand with these options.
    Run(T),
}

impl Parsed<()> {
    /// Build the options after a walk that did not stop at `--help`.
    fn then<T>(self, run: impl FnOnce() -> Result<T, String>) -> Result<Parsed<T>, String> {
        match self {
            Parsed::Help => Ok(Parsed::Help),
            Parsed::Run(()) => run().map(Parsed::Run),
        }
    }
}

/// Fully parsed invocation: the sweep config plus execution options that
/// must not influence results (and are therefore kept out of the config).
#[derive(Debug, Clone)]
pub struct CliArgs {
    pub config: SweepConfig,
    pub threads: usize,
    /// Settle-kernel request; like `threads`, it can never influence
    /// results, so it stays out of the config.
    pub kernel: KernelChoice,
}

/// The three `bench` modes.
#[derive(Debug, Clone)]
pub enum BenchMode {
    /// `bench`: the reference sweep, optimized path against legacy path.
    Bench(BenchOptions),
    /// `bench --saturation`: the distributed service throughput bench.
    Saturation(SaturationOptions),
    /// `bench --analysis`: closed-form evaluation throughput.
    Analysis(AnalysisOptions),
}

/// Cursor over one subcommand's argv: `flag` is the flag being read, and
/// each reader consumes the value after it.
struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl Flags<'_> {
    /// The raw value.
    fn value(&mut self) -> Result<String, String> {
        let flag = self.flag;
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value read by `read`, rejected as `invalid {flag} '{v}'`.
    fn parse_with<T>(&mut self, read: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        let v = self.value()?;
        read(&v).ok_or_else(|| format!("invalid {} '{v}'", self.flag))
    }

    /// The value parsed as `T`.
    fn parse<T: FromStr>(&mut self) -> Result<T, String> {
        self.parse_with(|v| v.parse().ok())
    }

    /// The value passed to `read`, whose errors stand as they are.
    fn with<T>(&mut self, read: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
        read(&self.value()?)
    }

    /// A number that must not be zero; `why` is the rejection.
    fn nonzero<T: FromStr + Default + PartialEq>(&mut self, why: &str) -> Result<T, String> {
        let n = self.parse()?;
        if n == T::default() {
            return Err(why.to_string());
        }
        Ok(n)
    }

    /// A count of at least 1.
    fn at_least_1<T: FromStr + Default + PartialEq>(&mut self) -> Result<T, String> {
        let why = format!("{} must be at least 1", self.flag);
        self.nonzero(&why)
    }

    /// A positive, finite rate (the `--min-*` floors).
    fn rate(&mut self) -> Result<f64, String> {
        let v = self.value()?;
        match v.parse::<f64>() {
            Ok(rate) if rate.is_finite() && rate > 0.0 => Ok(rate),
            Ok(_) => Err(format!("{} must be positive, got '{v}'", self.flag)),
            Err(_) => Err(format!("invalid {} '{v}'", self.flag)),
        }
    }

    /// Milliseconds as a duration.
    fn millis(&mut self) -> Result<Duration, String> {
        self.parse().map(Duration::from_millis)
    }

    /// A comma-separated list of `T`; see [`Flags::items`].
    fn list<T: FromStr>(&mut self) -> Result<Vec<T>, String> {
        let flag = self.flag;
        self.items(|x| {
            x.parse()
                .map_err(|_| format!("invalid value '{x}' for {flag}"))
        })
    }

    /// A comma-separated list read item by item, skipping empty items (so
    /// trailing commas are tolerated); an *effectively empty* list is
    /// rejected because no flag taking a list accepts zero values.
    fn items<T>(&mut self, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
        let values = self
            .value()?
            .split(',')
            .map(str::trim)
            .filter(|x| !x.is_empty())
            .map(item)
            .collect::<Result<Vec<T>, String>>()?;
        if values.is_empty() {
            return Err(format!("{} requires at least one value", self.flag));
        }
        Ok(values)
    }
}

/// Hand every flag in `args` to `each`, which reads the flag's value
/// through the cursor and returns false for a flag it does not know (then
/// rejected as `unknown {scope} '{flag}'`). `-h`/`--help` stops the walk.
fn walk(
    args: &[String],
    scope: &str,
    mut each: impl FnMut(&mut Flags) -> Result<bool, String>,
) -> Result<Parsed<()>, String> {
    let mut cursor = Flags {
        rest: args.iter(),
        flag: "",
    };
    while let Some(flag) = cursor.rest.next() {
        cursor.flag = flag;
        if flag == "-h" || flag == "--help" {
            return Ok(Parsed::Help);
        }
        if !each(&mut cursor)? {
            return Err(format!("unknown {scope} '{flag}'"));
        }
    }
    Ok(Parsed::Run(()))
}

/// `--timeout <SECS>` on submit and cancel.
fn timeout(f: &mut Flags) -> Result<Option<Duration>, String> {
    let secs = f.nonzero("--timeout must be at least 1 second")?;
    Ok(Some(Duration::from_secs(secs)))
}

/// Parse the arguments following the `bench` subcommand. `--saturation` or
/// `--analysis` anywhere switches to that mode's flag set (the modes share
/// `--quick`/`--out` but disagree about everything else).
pub fn parse_bench_args(args: &[String]) -> Result<Parsed<BenchMode>, String> {
    if args.iter().any(|a| a == "--saturation") {
        let mut o = SaturationOptions::default();
        return walk(args, "bench --saturation option", |f| {
            match f.flag {
                "--saturation" => {}
                "--quick" => o.quick = true,
                "--out" => o.out_path = f.value()?,
                "--workers" => {
                    o.worker_counts = f.list()?;
                    if o.worker_counts.contains(&0) {
                        return Err("--workers pool sizes must be at least 1".to_string());
                    }
                }
                "--kernel" => o.kernel = f.with(str::parse)?,
                "--min-cells-per-sec" => o.min_cells_per_sec = Some(f.rate()?),
                _ => return Ok(false),
            }
            Ok(true)
        })?
        .then(|| Ok(BenchMode::Saturation(o)));
    }
    if args.iter().any(|a| a == "--analysis") {
        let mut o = AnalysisOptions::default();
        return walk(args, "bench --analysis option", |f| {
            match f.flag {
                "--analysis" => {}
                "--quick" => o.quick = true,
                "--out" => o.out_path = f.value()?,
                "--repeat" => o.repeat = f.at_least_1()?,
                "--min-evals-per-sec" => o.min_evals_per_sec = Some(f.rate()?),
                _ => return Ok(false),
            }
            Ok(true)
        })?
        .then(|| Ok(BenchMode::Analysis(o)));
    }
    let mut o = BenchOptions::default();
    walk(args, "bench option", |f| {
        match f.flag {
            "--quick" => o.quick = true,
            "--out" => o.out_path = f.value()?,
            "--repeat" => o.repeat = f.at_least_1()?,
            "--filter" => o.filter = Some(f.value()?),
            "--kernel" => o.kernel = f.with(str::parse)?,
            "--min-acts-per-sec" => o.min_acts_per_sec = Some(f.rate()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?
    .then(|| Ok(BenchMode::Bench(o)))
}

/// Parse the arguments following the `configure` subcommand. Syntactic
/// errors are caught per flag; range checks that also guard programmatic
/// callers (hc >= 2, target in (0, 1]) live in
/// [`crate::configure::run_configure`].
pub fn parse_configure_args(args: &[String]) -> Result<Parsed<ConfigureOptions>, String> {
    let (mut hc_first, mut window, mut target_pfail) = (None, None, None);
    let mut o = ConfigureOptions::default();
    walk(args, "configure option", |f| {
        match f.flag {
            "--hc" => hc_first = Some(f.parse()?),
            "--window" => window = Some(f.parse()?),
            "--target-pfail" => target_pfail = Some(f.parse()?),
            "--validate" => o.validate = true,
            "--trials" => o.trials = f.parse()?,
            "--seed" => o.seed = f.parse_with(parse_u64_maybe_hex)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?
    .then(|| {
        o.hc_first = hc_first.ok_or("configure requires --hc <N>")?;
        o.window = window.ok_or("configure requires --window <N>")?;
        o.target_pfail = target_pfail.ok_or("configure requires --target-pfail <P>")?;
        Ok(o)
    })
}

/// Read a shared-secret token file for `--auth-token-file`: the secret is
/// the file's contents with surrounding whitespace trimmed (so a trailing
/// newline from `echo` never silently changes the token). Empty files are
/// rejected — an empty shared secret authenticates nobody on purpose.
fn read_token_file(path: &str) -> Result<String, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read --auth-token-file '{path}': {e}"))?;
    let token = raw.trim();
    if token.is_empty() {
        return Err(format!("--auth-token-file '{path}' is empty"));
    }
    Ok(token.to_string())
}

/// Parse the arguments following the `serve` subcommand.
pub fn parse_serve_args(args: &[String]) -> Result<Parsed<Box<ServeOptions>>, String> {
    let mut o = ServeOptions::default();
    // `--cache-dir` is a second spelling of `--checkpoint-dir`.
    let mut cache_dir = None;
    walk(args, "serve option", |f| {
        match f.flag {
            "--workers" => o.workers = f.parse()?,
            "--listen" => o.listen = Some(f.value()?),
            "--kernel" => o.kernel = f.with(str::parse)?,
            "--cache-capacity" => o.cache_capacity = f.at_least_1()?,
            "--checkpoint-dir" => o.checkpoint_dir = Some(f.value()?.into()),
            "--shard-cells" => o.shard_cells = f.at_least_1()?,
            "--cache-dir" => cache_dir = Some(f.value()?.into()),
            "--config-epoch" => o.config_epoch = f.parse()?,
            "--fallback-after-ms" => o.fallback_after = Some(f.millis()?),
            // 0 disables speculation outright rather than meaning
            // "speculate instantly" — an instant deadline would duplicate
            // every lease.
            "--speculate-after-ms" => {
                o.speculate_after = Some(f.millis()?).filter(|d| !d.is_zero())
            }
            "--fault-plan" => o.fault_plan = f.with(FaultPlan::parse)?,
            "--max-pending-jobs" => o.max_pending_jobs = f.at_least_1()?,
            "--max-jobs-per-client" => o.max_jobs_per_client = f.at_least_1()?,
            "--max-cells-per-client" => o.max_cells_per_client = f.at_least_1()?,
            // 0 is meaningful here: it turns the adaptive sizer off and
            // restores the fixed --shard-cells width.
            "--target-lease-ms" => o.target_lease_ms = f.parse()?,
            "--handshake-timeout-ms" => {
                o.handshake_timeout = Duration::from_millis(f.nonzero(
                    "--handshake-timeout-ms must be at least 1 (a zero deadline \
                     would reject every connection before its first line)",
                )?);
            }
            "--auth-token-file" => o.auth_token = Some(f.with(read_token_file)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?
    .then(|| {
        if o.checkpoint_dir.is_none() {
            o.checkpoint_dir = cache_dir;
        } else if cache_dir.is_some() {
            eprintln!("rh-serve: --cache-dir ignored: --checkpoint-dir names the cell store");
        }
        if o.workers == 0 && o.listen.is_none() && o.fallback_after.is_none() {
            return Err(
                "a coordinator with --workers 0 and no --listen could never execute anything \
                 (give it local workers, a listener for TCP workers to attach to, or \
                 --fallback-after-ms for in-process execution)"
                    .to_string(),
            );
        }
        Ok(Box::new(o))
    })
}

/// Parse the arguments following the `worker` subcommand.
pub fn parse_worker_args(args: &[String]) -> Result<Parsed<Box<WorkerOptions>>, String> {
    let mut o = WorkerOptions::default();
    walk(args, "worker option", |f| {
        match f.flag {
            "--connect" => o.connect = Some(f.value()?),
            "--fault-plan" => o.fault_plan = f.with(FaultPlan::parse)?,
            "--config-epoch" => o.config_epoch = f.parse()?,
            "--retry" => o.retries = f.parse()?,
            "--backoff-ms" => o.backoff_base_ms = f.at_least_1()?,
            "--auth-token-file" => o.auth_token = Some(f.with(read_token_file)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?
    .then(|| Ok(Box::new(o)))
}

/// Parse the arguments following the `submit` subcommand.
pub fn parse_submit_args(args: &[String]) -> Result<Parsed<SubmitOptions>, String> {
    let mut connect = None;
    let mut o = SubmitOptions::default();
    walk(args, "submit option", |f| {
        match f.flag {
            "--connect" => connect = Some(f.value()?),
            "--timeout" => o.timeout = timeout(f)?,
            "--job-deadline-ms" => {
                o.deadline_ms = Some(f.nonzero(
                    "--job-deadline-ms must be at least 1 (omit the flag for no deadline)",
                )?);
            }
            "--auth-token-file" => o.auth_token = Some(f.with(read_token_file)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?
    .then(|| {
        o.connect = connect.ok_or("submit requires --connect <ADDR>")?;
        Ok(o)
    })
}

/// Parse the arguments following the `cancel` subcommand.
pub fn parse_cancel_args(args: &[String]) -> Result<Parsed<CancelOptions>, String> {
    let (mut connect, mut id) = (None, None);
    let mut o = CancelOptions::default();
    walk(args, "cancel option", |f| {
        match f.flag {
            "--connect" => connect = Some(f.value()?),
            "--id" => id = Some(f.value()?),
            "--timeout" => o.timeout = timeout(f)?,
            "--auth-token-file" => o.auth_token = Some(f.with(read_token_file)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?
    .then(|| {
        o.connect = connect.ok_or("cancel requires --connect <ADDR>")?;
        o.id = id.ok_or("cancel requires --id <JOB>")?;
        Ok(o)
    })
}

/// Parse a u64 in decimal or `0x` hexadecimal.
pub fn parse_u64_maybe_hex(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parse the arguments following the `sweep` subcommand. Syntactic errors
/// are caught per flag; semantic cross-field validation is delegated to
/// [`SweepConfig::validate`] so the CLI and programmatic callers reject
/// exactly the same configs with the same messages.
pub fn parse_args(args: &[String]) -> Result<Parsed<CliArgs>, String> {
    let mut cfg = SweepConfig::default();
    let mut threads = default_threads();
    let mut kernel = KernelChoice::default();
    walk(args, "option", |f| {
        match f.flag {
            "--seed" => cfg.seed = f.parse_with(parse_u64_maybe_hex)?,
            "--activations" => cfg.activations = f.parse()?,
            "--hc" => cfg.hc_firsts = f.list()?,
            "--sides" => cfg.sides = f.list()?,
            "--para-p" => cfg.para_probabilities = f.list()?,
            // Item errors name the valid patterns, not just the bad token.
            "--data-pattern" => cfg.data_patterns = f.items(str::parse)?,
            "--ecc" => {
                cfg.ecc_codeword_bits = f.nonzero(
                    "--ecc codeword size must be at least 1 cell (omit the flag to \
                     disable ECC)",
                )?;
            }
            "--benign-fraction" => cfg.benign_fraction = f.parse()?,
            "--refresh-interval" => cfg.auto_refresh_interval = f.parse()?,
            "--threads" => threads = f.at_least_1()?,
            "--kernel" => kernel = f.with(str::parse)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?
    .then(|| {
        cfg.validate()?;
        Ok(CliArgs {
            config: cfg,
            threads,
            kernel,
        })
    })
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_core::DataPattern;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        match parse_args(&owned)? {
            Parsed::Run(a) => Ok(a),
            Parsed::Help => panic!("unexpected help invocation for {args:?}"),
        }
    }

    #[test]
    fn defaults_when_no_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.config.seed, 0xC0FFEE);
        assert_eq!(a.config.auto_refresh_interval, 32_000);
        assert_eq!(a.config.data_patterns, vec![DataPattern::Legacy]);
        assert_eq!(a.config.ecc_codeword_bits, 0);
        assert!(!a.config.extended_victim_model());
        assert!(a.threads >= 1);
        assert_eq!(a.kernel, KernelChoice::Auto);
    }

    #[test]
    fn kernel_flag_parses_and_rejects() {
        for (flag, want) in [
            ("auto", KernelChoice::Auto),
            ("scalar", KernelChoice::Scalar),
            ("avx2", KernelChoice::Avx2),
        ] {
            assert_eq!(parse(&["--kernel", flag]).unwrap().kernel, want);
        }
        let err = parse(&["--kernel", "sse2"]).unwrap_err();
        assert!(err.contains("unknown kernel 'sse2'"), "got '{err}'");
        assert!(parse(&["--kernel"]).is_err());
    }

    #[test]
    fn data_pattern_and_ecc_flags_parse() {
        let a = parse(&["--data-pattern", "legacy, rowstripe ,solid", "--ecc", "128"]).unwrap();
        assert_eq!(
            a.config.data_patterns,
            vec![
                DataPattern::Legacy,
                DataPattern::RowStripe,
                DataPattern::Solid
            ]
        );
        assert_eq!(a.config.ecc_codeword_bits, 128);
        assert!(a.config.extended_victim_model());
    }

    #[test]
    fn unknown_data_pattern_is_rejected_naming_the_valid_set() {
        let err = parse(&["--data-pattern", "legacy,zebra"]).unwrap_err();
        assert!(err.contains("unknown data pattern 'zebra'"), "got '{err}'");
        assert!(err.contains("rowstripe"), "error must list the valid set");
    }

    #[test]
    fn zero_and_oversized_ecc_codewords_are_rejected() {
        let err = parse(&["--ecc", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "got '{err}'");
        let err = parse(&["--ecc", "8193"]).unwrap_err();
        assert!(err.contains("exceeds"), "got '{err}'");
        assert!(parse(&["--ecc", "x"]).is_err());
        assert!(parse(&["--ecc"]).is_err());
        assert!(parse(&["--data-pattern", ","]).is_err());
        assert!(parse(&["--data-pattern"]).is_err());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--seed",
            "0xBEEF",
            "--activations",
            "5000",
            "--hc",
            "100,200",
            "--sides",
            "2,8",
            "--para-p",
            "0.01,0.001",
            "--benign-fraction",
            "0.25",
            "--refresh-interval",
            "0",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(a.config.seed, 0xBEEF);
        assert_eq!(a.config.activations, 5000);
        assert_eq!(a.config.hc_firsts, vec![100, 200]);
        assert_eq!(a.config.sides, vec![2, 8]);
        assert_eq!(a.config.para_probabilities, vec![0.01, 0.001], "raw order");
        assert_eq!(a.config.benign_fraction, 0.25);
        assert_eq!(a.config.auto_refresh_interval, 0);
        assert_eq!(a.threads, 3);
    }

    #[test]
    fn hex_and_decimal_seeds() {
        assert_eq!(parse_u64_maybe_hex("0xff"), Some(255));
        assert_eq!(parse_u64_maybe_hex("0XFF"), Some(255));
        assert_eq!(parse_u64_maybe_hex("255"), Some(255));
        assert_eq!(parse_u64_maybe_hex("0x"), None);
        assert_eq!(parse_u64_maybe_hex("zz"), None);
        assert_eq!(parse_u64_maybe_hex("-1"), None);
        assert_eq!(
            parse_u64_maybe_hex("0xffffffffffffffff"),
            Some(u64::MAX),
            "full 64-bit range"
        );
        assert_eq!(parse_u64_maybe_hex("0x10000000000000000"), None, "overflow");
    }

    #[test]
    fn list_parsing_tolerates_spacing_and_trailing_commas() {
        let a = parse(&["--hc", " 100 , 200 ,"]).unwrap();
        assert_eq!(a.config.hc_firsts, vec![100, 200]);
    }

    #[test]
    fn help_flag_wins_over_other_arguments() {
        for args in [&["-h"][..], &["--help"], &["--hc", "100", "--help"]] {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            assert!(matches!(parse_args(&owned), Ok(Parsed::Help)));
        }
    }

    #[test]
    fn para_p_kept_raw_normalization_happens_at_plan_time() {
        // Dedup/sort is owned by SweepConfig::normalized, not the parser,
        // so the reported config and executed grid can never disagree.
        let a = parse(&["--para-p", "0.01,0.0,0.01,0.001"]).unwrap();
        assert_eq!(a.config.para_probabilities, vec![0.01, 0.0, 0.01, 0.001]);
        let n = a.config.normalized();
        assert_eq!(n.para_probabilities, vec![0.0, 0.001, 0.01]);
    }

    #[test]
    fn rejection_paths_have_clear_errors() {
        for (args, needle) in [
            (
                &["--activations", "0"][..],
                "activations must be at least 1",
            ),
            (&["--activations", "x"], "--activations"),
            (&["--seed", "0x"], "--seed"),
            (&["--seed"], "requires a value"),
            (&["--hc", ","], "at least one value"),
            (&["--hc", "1,zero"], "invalid value 'zero'"),
            (&["--hc", "0"], "positive"),
            (&["--sides", "1"], "at least 2"),
            (&["--sides", ""], "at least one value"),
            (&["--para-p", ","], "at least one value"),
            (&["--para-p", "1.5"], "[0, 1]"),
            (&["--para-p", "nope"], "invalid value 'nope'"),
            (&["--benign-fraction", "2.0"], "[0, 1]"),
            (&["--refresh-interval", "-1"], "--refresh-interval"),
            (&["--threads", "0"], "--threads"),
            (&["--threads", "many"], "--threads"),
            (&["--frobnicate"], "unknown option"),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(
                err.contains(needle),
                "error for {args:?} was '{err}', expected to mention '{needle}'"
            );
        }
    }

    #[test]
    fn bench_args_parse_and_reject() {
        match parse_bench_args(&[]).unwrap() {
            Parsed::Run(BenchMode::Bench(o)) => {
                assert!(!o.quick);
                assert_eq!(o.out_path, "BENCH_6.json");
                assert_eq!(o.repeat, 3);
                assert_eq!(o.filter, None);
                assert_eq!(o.min_acts_per_sec, None);
                assert_eq!(o.kernel, KernelChoice::Auto);
            }
            other => panic!("unexpected invocation {other:?}"),
        }
        let owned: Vec<String> = [
            "--quick",
            "--out",
            "x.json",
            "--repeat",
            "5",
            "--filter",
            "graphene",
            "--min-acts-per-sec",
            "1000000",
            "--kernel",
            "scalar",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_bench_args(&owned).unwrap() {
            Parsed::Run(BenchMode::Bench(o)) => {
                assert!(o.quick);
                assert_eq!(o.out_path, "x.json");
                assert_eq!(o.repeat, 5);
                assert_eq!(o.filter.as_deref(), Some("graphene"));
                assert_eq!(o.min_acts_per_sec, Some(1_000_000.0));
                assert_eq!(o.kernel, KernelChoice::Scalar);
            }
            other => panic!("unexpected invocation {other:?}"),
        }
        for bad in [
            &["--out"][..],
            &["--bogus"],
            &["--repeat", "0"],
            &["--repeat", "x"],
            &["--filter"],
            &["--min-acts-per-sec", "-5"],
            &["--min-acts-per-sec", "NaN"],
            &["--min-acts-per-sec", "nope"],
            &["--kernel", "sse2"],
            &["--kernel"],
        ] {
            let owned: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_bench_args(&owned).is_err(),
                "{bad:?} must be rejected"
            );
        }
        assert!(matches!(
            parse_bench_args(&["--help".to_string()]),
            Ok(Parsed::Help)
        ));
    }

    #[test]
    fn saturation_args_parse_and_reject() {
        let owned: Vec<String> = [
            "--saturation",
            "--quick",
            "--out",
            "sat.json",
            "--workers",
            "1,2,4",
            "--kernel",
            "scalar",
            "--min-cells-per-sec",
            "10",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_bench_args(&owned).unwrap() {
            Parsed::Run(BenchMode::Saturation(o)) => {
                assert!(o.quick);
                assert_eq!(o.out_path, "sat.json");
                assert_eq!(o.worker_counts, vec![1, 2, 4]);
                assert_eq!(o.kernel, KernelChoice::Scalar);
                assert_eq!(o.min_cells_per_sec, Some(10.0));
            }
            other => panic!("unexpected invocation {other:?}"),
        }
        // --saturation anywhere in the args switches flag sets, and the
        // defaults ask for the BENCH_7 shape.
        match parse_bench_args(&["--saturation".to_string()]).unwrap() {
            Parsed::Run(BenchMode::Saturation(o)) => {
                assert_eq!(o.out_path, "BENCH_7.json");
                assert_eq!(o.worker_counts, vec![1, 2, 4, 8]);
            }
            other => panic!("unexpected invocation {other:?}"),
        }
        for bad in [
            &["--saturation", "--workers", "0"][..],
            &["--saturation", "--workers", "2,0"],
            &["--saturation", "--workers", "x"],
            &["--saturation", "--min-cells-per-sec", "-1"],
            &["--saturation", "--repeat", "3"], // bench-only flag
        ] {
            let owned: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_bench_args(&owned).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn serve_args_parse_and_reject() {
        match parse_serve_args(&[]).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.workers, 2);
                assert_eq!(o.listen, None);
                assert_eq!(o.cache_capacity, crate::cache::DEFAULT_CAPACITY);
                assert!(o.checkpoint_dir.is_none());
            }
            Parsed::Help => panic!("unexpected help"),
        }
        let owned: Vec<String> = [
            "--workers",
            "0",
            "--listen",
            "127.0.0.1:0",
            "--kernel",
            "scalar",
            "--cache-capacity",
            "7",
            "--checkpoint-dir",
            "/tmp/ckpt",
            "--shard-cells",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_serve_args(&owned).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.workers, 0);
                assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(o.kernel, KernelChoice::Scalar);
                assert_eq!(o.cache_capacity, 7);
                assert_eq!(
                    o.checkpoint_dir.as_deref(),
                    Some(std::path::Path::new("/tmp/ckpt"))
                );
                assert_eq!(o.shard_cells, 4);
            }
            Parsed::Help => panic!("unexpected help"),
        }
        for bad in [
            // A pool of zero local workers with nowhere for TCP workers to
            // attach can never make progress.
            &["--workers", "0"][..],
            &["--workers", "x"],
            &["--cache-capacity", "0"],
            &["--shard-cells", "0"],
            &["--bogus"],
        ] {
            let owned: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_serve_args(&owned).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn worker_and_submit_args_parse_and_reject() {
        match parse_worker_args(&[]).unwrap() {
            Parsed::Run(o) => assert_eq!(o.connect, None),
            Parsed::Help => panic!("unexpected help"),
        }
        let owned: Vec<String> = ["--connect", "127.0.0.1:9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_worker_args(&owned).unwrap() {
            Parsed::Run(o) => assert_eq!(o.connect.as_deref(), Some("127.0.0.1:9")),
            Parsed::Help => panic!("unexpected help"),
        }
        assert!(parse_worker_args(&["--bogus".to_string()]).is_err());

        let owned: Vec<String> = ["--connect", "127.0.0.1:9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_submit_args(&owned).unwrap() {
            Parsed::Run(o) => assert_eq!(o.connect, "127.0.0.1:9"),
            Parsed::Help => panic!("unexpected help"),
        }
        // submit without a coordinator address is meaningless.
        assert!(parse_submit_args(&[]).is_err());
        assert!(parse_submit_args(&["--bogus".to_string()]).is_err());
        assert!(matches!(
            parse_submit_args(&["--help".to_string()]),
            Ok(Parsed::Help)
        ));
    }

    #[test]
    fn chaos_flags_parse_and_reject() {
        let owned: Vec<String> = [
            "--cache-dir",
            "/tmp/rhcache",
            "--config-epoch",
            "7",
            "--fallback-after-ms",
            "250",
            "--speculate-after-ms",
            "400",
            "--fault-plan",
            "corrupt-cache-record=2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_serve_args(&owned).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(
                    o.checkpoint_dir.as_deref(),
                    Some(std::path::Path::new("/tmp/rhcache")),
                    "--cache-dir is a second spelling of --checkpoint-dir"
                );
                assert_eq!(o.config_epoch, 7);
                assert_eq!(
                    o.fallback_after,
                    Some(std::time::Duration::from_millis(250))
                );
                assert_eq!(
                    o.speculate_after,
                    Some(std::time::Duration::from_millis(400))
                );
                assert_eq!(o.fault_plan.corrupt_cache_records(), &[2]);
            }
            Parsed::Help => panic!("unexpected help"),
        }
        // Given both spellings, --checkpoint-dir wins.
        let owned: Vec<String> = ["--cache-dir", "/tmp/a", "--checkpoint-dir", "/tmp/b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_serve_args(&owned).unwrap() {
            Parsed::Run(o) => assert_eq!(
                o.checkpoint_dir.as_deref(),
                Some(std::path::Path::new("/tmp/b"))
            ),
            Parsed::Help => panic!("unexpected help"),
        }
        // --speculate-after-ms 0 disables speculation entirely.
        let owned: Vec<String> = ["--speculate-after-ms", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_serve_args(&owned).unwrap() {
            Parsed::Run(o) => assert_eq!(o.speculate_after, None),
            Parsed::Help => panic!("unexpected help"),
        }
        // --fallback-after-ms makes a workerless, listenerless coordinator
        // viable (it degrades to in-process execution).
        let owned: Vec<String> = ["--workers", "0", "--fallback-after-ms", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_serve_args(&owned).is_ok());
        // A malformed fault plan is rejected at parse time with the bad
        // directive named.
        let owned: Vec<String> = ["--fault-plan", "explode-now=1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_serve_args(&owned).unwrap_err();
        assert!(err.contains("explode-now"), "got '{err}'");

        let owned: Vec<String> = [
            "--connect",
            "127.0.0.1:9",
            "--fault-plan",
            "crash-after-cells=3,drop-line=2",
            "--config-epoch",
            "9",
            "--retry",
            "4",
            "--backoff-ms",
            "50",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_worker_args(&owned).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.fault_plan.crash_pending_at(), Some(3));
                assert_eq!(o.config_epoch, 9);
                assert_eq!(o.retries, 4);
                assert_eq!(o.backoff_base_ms, 50);
            }
            Parsed::Help => panic!("unexpected help"),
        }
        assert!(parse_worker_args(&["--backoff-ms".into(), "0".into()]).is_err());
        assert!(parse_worker_args(&["--fault-plan".into(), "drop-line=0".into()]).is_err());

        let owned: Vec<String> = ["--connect", "127.0.0.1:9", "--timeout", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_submit_args(&owned).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.timeout, Some(std::time::Duration::from_secs(5)));
            }
            Parsed::Help => panic!("unexpected help"),
        }
        assert!(parse_submit_args(&[
            "--connect".into(),
            "127.0.0.1:9".into(),
            "--timeout".into(),
            "0".into()
        ])
        .is_err());
    }

    /// Write a token file into a scratch dir and return its path.
    fn token_file(tag: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rh-cli-token-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("token");
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn job_manager_serve_flags_parse_and_reject() {
        let token = token_file("serve", "sekrit\n");
        let owned: Vec<String> = [
            "--max-pending-jobs",
            "3",
            "--max-jobs-per-client",
            "2",
            "--max-cells-per-client",
            "500",
            "--target-lease-ms",
            "0",
            "--handshake-timeout-ms",
            "1500",
            "--auth-token-file",
            token.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_serve_args(&owned).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.max_pending_jobs, 3);
                assert_eq!(o.max_jobs_per_client, 2);
                assert_eq!(o.max_cells_per_client, 500);
                assert_eq!(o.target_lease_ms, 0, "0 disables the adaptive sizer");
                assert_eq!(o.handshake_timeout, std::time::Duration::from_millis(1500));
                assert_eq!(o.auth_token.as_deref(), Some("sekrit"), "token is trimmed");
            }
            Parsed::Help => panic!("unexpected help"),
        }
        // Defaults: admission on with generous bounds, adaptive sizing on,
        // no auth.
        match parse_serve_args(&[]).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.max_pending_jobs, 64);
                assert_eq!(o.max_jobs_per_client, 16);
                assert_eq!(o.target_lease_ms, 1500);
                assert_eq!(o.handshake_timeout, std::time::Duration::from_secs(10));
                assert_eq!(o.auth_token, None);
            }
            Parsed::Help => panic!("unexpected help"),
        }
        for bad in [
            &["--max-pending-jobs", "0"][..],
            &["--max-pending-jobs", "x"],
            &["--max-jobs-per-client", "0"],
            &["--max-cells-per-client", "0"],
            &["--target-lease-ms", "soon"],
            // A zero handshake deadline would reject every connection.
            &["--handshake-timeout-ms", "0"],
            &["--auth-token-file", "/nonexistent/rh-token"],
        ] {
            let owned: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_serve_args(&owned).is_err(),
                "{bad:?} must be rejected"
            );
        }
        // An empty (or whitespace-only) token file authenticates nobody.
        let empty = token_file("serve-empty", " \n");
        let owned: Vec<String> = ["--auth-token-file", empty.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_serve_args(&owned).unwrap_err();
        assert!(err.contains("empty"), "got '{err}'");
    }

    #[test]
    fn auth_deadline_and_cancel_flags_parse_and_reject() {
        let token = token_file("client", "hunter2");
        // Worker side: the token lands in WorkerOptions.
        let owned: Vec<String> = [
            "--connect",
            "127.0.0.1:9",
            "--auth-token-file",
            token.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_worker_args(&owned).unwrap() {
            Parsed::Run(o) => assert_eq!(o.auth_token.as_deref(), Some("hunter2")),
            Parsed::Help => panic!("unexpected help"),
        }
        // Submit side: deadline and token.
        let owned: Vec<String> = [
            "--connect",
            "127.0.0.1:9",
            "--job-deadline-ms",
            "2500",
            "--auth-token-file",
            token.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_submit_args(&owned).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.deadline_ms, Some(2500));
                assert_eq!(o.auth_token.as_deref(), Some("hunter2"));
            }
            Parsed::Help => panic!("unexpected help"),
        }
        // Defaults stay off.
        let owned: Vec<String> = ["--connect", "127.0.0.1:9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_submit_args(&owned).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.deadline_ms, None);
                assert_eq!(o.auth_token, None);
            }
            Parsed::Help => panic!("unexpected help"),
        }
        assert!(parse_submit_args(&[
            "--connect".into(),
            "127.0.0.1:9".into(),
            "--job-deadline-ms".into(),
            "0".into()
        ])
        .is_err());

        // Cancel verb.
        let owned: Vec<String> = [
            "--connect",
            "127.0.0.1:9",
            "--id",
            "job-42",
            "--timeout",
            "5",
            "--auth-token-file",
            token.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_cancel_args(&owned).unwrap() {
            Parsed::Run(o) => {
                assert_eq!(o.connect, "127.0.0.1:9");
                assert_eq!(o.id, "job-42");
                assert_eq!(o.timeout, Some(std::time::Duration::from_secs(5)));
                assert_eq!(o.auth_token.as_deref(), Some("hunter2"));
            }
            Parsed::Help => panic!("unexpected help"),
        }
        // Both --connect and --id are mandatory; bad flags are named.
        assert!(parse_cancel_args(&[]).is_err());
        assert!(parse_cancel_args(&["--connect".into(), "127.0.0.1:9".into()]).is_err());
        assert!(parse_cancel_args(&["--id".into(), "job-42".into()]).is_err());
        assert!(parse_cancel_args(&["--bogus".into()]).is_err());
        assert!(matches!(
            parse_cancel_args(&["--help".to_string()]),
            Ok(Parsed::Help)
        ));
    }

    #[test]
    fn nan_para_p_is_rejected() {
        // f64::from_str accepts "NaN"; range validation must still catch it.
        let err = parse(&["--para-p", "NaN"]).unwrap_err();
        assert!(err.contains("[0, 1]"), "got '{err}'");
    }
}

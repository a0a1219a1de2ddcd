//! `rh-cli` — run the RowHammer mitigation sweep and print a JSON table.
//!
//! Thin binary shell: parsing lives in [`rh_cli::cli`] and the pipeline in
//! the library so both are unit-testable. See `rh-cli --help` for options.
//!
//! Every subcommand goes through [`dispatch`]: help prints the usage on
//! stdout, a parse error prints `error: …` and the usage on stderr. Run
//! errors print `error: …` alone, except for `sweep` and `configure`,
//! which add the usage as for a parse error.

use rh_cli::cli::{
    parse_args, parse_bench_args, parse_cancel_args, parse_configure_args, parse_serve_args,
    parse_submit_args, parse_worker_args, BenchMode, CliArgs, Parsed, USAGE,
};
use rh_cli::{
    bench, configure, json, run_cancel, run_serve, run_submit, run_sweep_with_kernel, run_worker,
};
use std::process::ExitCode;

/// Report `e` on stderr, followed by the usage when `usage`, and fail.
fn fail(e: &str, usage: bool) -> ExitCode {
    if usage {
        eprintln!("error: {e}\n\n{USAGE}");
    } else {
        eprintln!("error: {e}");
    }
    ExitCode::FAILURE
}

fn usage() -> ExitCode {
    print!("{USAGE}");
    ExitCode::SUCCESS
}

/// Print the usage for help, run parsed options, or report a parse error.
fn dispatch<T>(parsed: Result<Parsed<T>, String>, run: impl FnOnce(T) -> ExitCode) -> ExitCode {
    match parsed {
        Ok(Parsed::Help) => usage(),
        Ok(Parsed::Run(opts)) => run(opts),
        Err(e) => fail(&e, true),
    }
}

/// Exit code of a service verb (`serve`, `worker`, `submit`, `cancel`).
fn service(outcome: Result<(), String>) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e, false),
    }
}

fn run_sweep_command(a: CliArgs) -> ExitCode {
    match run_sweep_with_kernel(&a.config, a.threads, a.kernel) {
        Ok(out) => {
            println!("{}", json::render(&out));
            if out.para_monotone {
                ExitCode::SUCCESS
            } else {
                fail("PARA flip counts were not monotone in p", false)
            }
        }
        Err(e) => fail(&e, true),
    }
}

/// A finished bench report, ready for [`Report::finish`].
struct Report<'a> {
    out_path: &'a str,
    doc: String,
    summary: String,
    /// The mode's correctness invariant, broken: the report is wrong.
    broken: Option<String>,
    /// The `--min-*` floor, missed: the report is right but slow.
    below_floor: Option<String>,
}

impl Report<'_> {
    /// Write `--out`, print the document and the summary line, then fail
    /// on the invariant first and the floor second.
    fn finish(self) -> ExitCode {
        if let Err(e) = std::fs::write(self.out_path, format!("{}\n", self.doc)) {
            return fail(&format!("cannot write {}: {e}", self.out_path), false);
        }
        println!("{}", self.doc);
        eprintln!("{}", self.summary);
        match self.broken.or(self.below_floor) {
            Some(e) => fail(&e, false),
            None => ExitCode::SUCCESS,
        }
    }
}

fn run_bench_command(mode: BenchMode) -> ExitCode {
    let report = match &mode {
        BenchMode::Bench(o) => bench::run_bench(o).map(|r| Report {
            out_path: &o.out_path,
            doc: bench::render(&r),
            summary: format!(
                "bench: {:.2}x speedup ({:.0} -> {:.0} acts/sec), report at {}",
                r.speedup, r.legacy_acts_per_sec, r.optimized_acts_per_sec, o.out_path
            ),
            broken: (!r.equivalent).then(|| {
                "optimized and legacy paths diverged (determinism regression)".to_string()
            }),
            below_floor: o
                .min_acts_per_sec
                .filter(|&min| r.optimized_acts_per_sec < min)
                .map(|min| {
                    format!(
                        "optimized throughput {:.0} acts/sec below the \
                         --min-acts-per-sec floor of {min:.0} (perf regression)",
                        r.optimized_acts_per_sec
                    )
                }),
        }),
        BenchMode::Saturation(o) => bench::run_saturation(o).map(|r| Report {
            out_path: &o.out_path,
            doc: bench::render_saturation(&r),
            summary: format!(
                "saturation: peak {:.1} cells/sec over pools {:?}, report at {}",
                r.peak_cells_per_sec, o.worker_counts, o.out_path
            ),
            broken: (!r.identical_bytes).then(|| {
                "distributed documents diverged from the in-process sweep \
                 (determinism regression)"
                    .to_string()
            }),
            below_floor: o
                .min_cells_per_sec
                .filter(|&min| r.peak_cells_per_sec < min)
                .map(|min| {
                    format!(
                        "peak throughput {:.1} cells/sec below the \
                         --min-cells-per-sec floor of {min:.1} (perf regression)",
                        r.peak_cells_per_sec
                    )
                }),
        }),
        BenchMode::Analysis(o) => bench::run_analysis(o).map(|r| Report {
            out_path: &o.out_path,
            doc: bench::render_analysis(&r),
            summary: format!(
                "analysis: direct {:.0} evals/sec, dual {:.0} evals/sec, \
                 solver {:.0} solves/sec, report at {}",
                r.direct_evals_per_sec, r.dual_evals_per_sec, r.solves_per_sec, o.out_path
            ),
            broken: (!r.agreement).then(|| {
                format!(
                    "direct and dual closed forms diverged by {:e} (over the 1e-9 \
                     agreement contract)",
                    r.max_divergence
                )
            }),
            below_floor: o
                .min_evals_per_sec
                .filter(|&min| r.direct_evals_per_sec < min)
                .map(|min| {
                    format!(
                        "direct-form throughput {:.0} evals/sec below the \
                         --min-evals-per-sec floor of {min:.0} (perf regression)",
                        r.direct_evals_per_sec
                    )
                }),
        }),
    };
    match report {
        Ok(report) => report.finish(),
        Err(e) => fail(&e, false),
    }
}

fn run_configure_command(opts: configure::ConfigureOptions) -> ExitCode {
    let report = match configure::run_configure(&opts) {
        Ok(report) => report,
        Err(e) => return fail(&e, true),
    };
    println!("{}", configure::render_configure(&report));
    eprintln!(
        "configure: p = {} gives P_fail = {} over {} activations at HC_first {}",
        report.recommended_p, report.analytic_pfail, report.window, report.hc_first
    );
    if report.divergence >= 1e-9 {
        return fail(
            &format!(
                "direct and dual closed forms diverged by {:e} at the \
                 recommendation (over the 1e-9 agreement contract)",
                report.divergence
            ),
            false,
        );
    }
    if let Some(v) = &report.validation {
        eprintln!(
            "configure: validation {}/{} failures, band [{}, {}] vs analytic {}",
            v.failures, v.trials, v.band_lo, v.band_hi, report.analytic_pfail
        );
        if !v.pass {
            return fail(
                "the mini-sweep's failure rate is inconsistent with the \
                 analytical prediction (model or engine drift — see \
                 docs/ARCHITECTURE.md, analytical cross-validation)",
                false,
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("sweep") => dispatch(parse_args(rest), run_sweep_command),
        Some("bench") => dispatch(parse_bench_args(rest), run_bench_command),
        Some("configure") => dispatch(parse_configure_args(rest), run_configure_command),
        Some("serve") => dispatch(parse_serve_args(rest), |o| service(run_serve(*o))),
        Some("worker") => dispatch(parse_worker_args(rest), |o| service(run_worker(&o))),
        Some("submit") => dispatch(parse_submit_args(rest), |o| service(run_submit(&o))),
        Some("cancel") => dispatch(parse_cancel_args(rest), |o| service(run_cancel(&o))),
        Some("-h" | "--help") | None => usage(),
        Some(other) => fail(&format!("unknown command '{other}'"), true),
    }
}

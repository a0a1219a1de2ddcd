//! The `rh-cli` command-line contract, pinned byte for byte.
//!
//! Two halves:
//!
//! * **Parse golden.** Every argv in [`CORPUS`] goes through the library
//!   parser for its subcommand. The outcome — the `{:?}` of the parsed
//!   options (with the outcome enum's variant wrappers stripped, so the
//!   record names only the option struct), `Help`, or the exact rejection
//!   message — is compared against `tests/cli_contract.golden`. The corpus
//!   holds every argv the CI workflow, the service benchmark and the README
//!   run, one accepting case per flag and one case per rejection path.
//! * **Binary cases.** The built `rh-cli` is run for `--help` on every
//!   subcommand, an unknown subcommand, one parse error and one run error
//!   per subcommand, asserting the exit code, which stream carries the
//!   output, its first line and whether the usage text follows.
//!
//! Host-dependent values are pinned: the default `--threads` (all cores)
//! is recorded as `<host>`, and `@token`/`@empty` stand for token files
//! written to a scratch directory. A mismatch writes the full actual record
//! next to the test binary's scratch dir (`cli_contract.actual`) so the
//! two files can be diffed.

use rh_cli::cli::{
    parse_args, parse_bench_args, parse_cancel_args, parse_configure_args, parse_serve_args,
    parse_submit_args, parse_worker_args, USAGE,
};
use std::fmt::Debug;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// One argv per line, subcommand first, arguments separated by single
/// spaces; `''` is an empty argument and `~` a space inside one.
const CORPUS: &[&str] = &[
    // --- argv the CI workflow runs ---
    "sweep --activations 50000",
    "sweep --seed 0xC0FFEE --activations 60000 --threads 1",
    "sweep --seed 0xC0FFEE --activations 60000 --threads 4",
    "sweep --threads 8",
    "sweep --threads 8 --seed 1 --activations 1500000",
    "sweep --threads 8 --seed 2 --activations 1500000",
    "bench --quick --repeat 2 --out BENCH_smoke.json --min-acts-per-sec 1234567",
    "bench --saturation --quick --workers 1,2,4 --min-cells-per-sec 5 --out BENCH_7.json",
    "bench --analysis --quick --repeat 2 --out BENCH_8_smoke.json",
    "configure --hc 10 --window 2000 --target-pfail 0.5 --validate --trials 150",
    "serve --workers 0 --listen 127.0.0.1:47421",
    "serve --workers 0 --listen 127.0.0.1:47432 --speculate-after-ms 300",
    "serve --workers 2 --listen 127.0.0.1:47433 --checkpoint-dir chaos-cache",
    "serve --workers 2 --listen 127.0.0.1:47435 --checkpoint-dir chaos-cache --fault-plan corrupt-cache-record=1",
    "serve --workers 1 --listen 127.0.0.1:47441 --max-pending-jobs 1",
    "worker --connect 127.0.0.1:47421",
    "worker --connect 127.0.0.1:47431 --fault-plan crash-after-cells=5",
    "worker --connect 127.0.0.1:47432 --fault-plan stall-after-cells=2,stall-ms=120000",
    "submit --connect 127.0.0.1:47421",
    "submit --connect 127.0.0.1:47431 --timeout 300",
    // --- argv the service benchmark runs ---
    "serve --workers 2 --listen 127.0.0.1:0 --cache-dir bench/cache --checkpoint-dir bench/ckpt",
    "submit --connect 127.0.0.1:40000",
    // --- README examples ---
    "sweep",
    "sweep --hc 2000 --sides 8 --data-pattern legacy,solid,checkerboard,rowstripe --ecc 128",
    "configure --hc 8192 --window 64000 --target-pfail 0.001",
    "serve --workers 4",
    "serve --workers 0 --listen 127.0.0.1:4242 --checkpoint-dir /tmp/rh-cells",
    "worker --connect 127.0.0.1:4242",
    "submit --connect 127.0.0.1:4242",
    "cancel --connect ADDR --id JOB",
    "bench",
    "bench --quick",
    "bench --repeat 5 --filter graphene",
    "bench --saturation",
    "bench --saturation --quick --workers 1,2,4 --min-cells-per-sec 5",
    "bench --analysis",
    // --- sweep: every flag accepted ---
    "sweep --seed 12345",
    "sweep --seed 0XBEEF",
    "sweep --activations 7",
    "sweep --hc 100,200",
    "sweep --hc ~100~,~200~,",
    "sweep --sides 2,16",
    "sweep --para-p 0.01,0.0,0.01,0.001",
    "sweep --data-pattern solid",
    "sweep --data-pattern legacy,rowstripe,",
    "sweep --ecc 64",
    "sweep --benign-fraction 0.25",
    "sweep --refresh-interval 0",
    "sweep --threads 3",
    "sweep --kernel auto",
    "sweep --kernel scalar",
    "sweep --kernel avx2",
    "sweep -h",
    "sweep --help",
    "sweep --hc 100 --help",
    "sweep --seed 1 --seed 2",
    // --- sweep: every rejection ---
    "sweep --bogus",
    "sweep --bogus --help",
    "sweep --seed",
    "sweep --seed 0x",
    "sweep --seed zz",
    "sweep --activations",
    "sweep --activations x",
    "sweep --activations 0",
    "sweep --hc",
    "sweep --hc abc",
    "sweep --hc 0",
    "sweep --hc ,",
    "sweep --sides 1",
    "sweep --sides ''",
    "sweep --para-p 1.5",
    "sweep --para-p nope",
    "sweep --para-p NaN",
    "sweep --para-p ,",
    "sweep --data-pattern",
    "sweep --data-pattern zebra",
    "sweep --data-pattern legacy,zebra",
    "sweep --data-pattern ,",
    "sweep --ecc",
    "sweep --ecc 0",
    "sweep --ecc x",
    "sweep --ecc 9000",
    "sweep --benign-fraction 2.0",
    "sweep --benign-fraction x",
    "sweep --refresh-interval x",
    "sweep --refresh-interval -1",
    "sweep --threads",
    "sweep --threads 0",
    "sweep --threads many",
    "sweep --kernel",
    "sweep --kernel sse2",
    // --- bench: every flag accepted and rejected ---
    "bench --out x.json --repeat 1 --filter rowstripe/ --kernel scalar --min-acts-per-sec 0.5",
    "bench --min-acts-per-sec 1e6",
    "bench -h",
    "bench --quick --help",
    "bench --bogus",
    "bench --bogus --help",
    "bench --out",
    "bench --repeat",
    "bench --repeat 0",
    "bench --repeat x",
    "bench --repeat -1",
    "bench --filter",
    "bench --kernel",
    "bench --kernel sse2",
    "bench --min-acts-per-sec",
    "bench --min-acts-per-sec nope",
    "bench --min-acts-per-sec -5",
    "bench --min-acts-per-sec 0",
    "bench --min-acts-per-sec NaN",
    "bench --min-acts-per-sec inf",
    "bench --workers 2",
    // --- bench --saturation ---
    "bench --quick --saturation --kernel avx2 --workers 3",
    "bench --saturation --workers ~1,~8~,",
    "bench --saturation --help",
    "bench --analysis --saturation",
    "bench --saturation --saturation",
    "bench --saturation --out",
    "bench --saturation --workers",
    "bench --saturation --workers 0",
    "bench --saturation --workers 2,0",
    "bench --saturation --workers x",
    "bench --saturation --workers ,",
    "bench --saturation --kernel sse2",
    "bench --saturation --min-cells-per-sec",
    "bench --saturation --min-cells-per-sec -1",
    "bench --saturation --min-cells-per-sec x",
    "bench --saturation --min-cells-per-sec inf",
    "bench --saturation --repeat 3",
    "bench --saturation --bogus",
    // --- bench --analysis ---
    "bench --analysis --quick --out a.json --repeat 4 --min-evals-per-sec 1000",
    "bench --repeat 2 --analysis",
    "bench --analysis --help",
    "bench --analysis --analysis",
    "bench --analysis --out",
    "bench --analysis --repeat 0",
    "bench --analysis --repeat x",
    "bench --analysis --min-evals-per-sec",
    "bench --analysis --min-evals-per-sec -1",
    "bench --analysis --min-evals-per-sec x",
    "bench --analysis --min-evals-per-sec NaN",
    "bench --analysis --kernel scalar",
    "bench --analysis --filter x",
    // --- configure ---
    "configure --hc 2 --window 1 --target-pfail 1 --seed 0xff --trials 0",
    "configure --target-pfail 0.01 --window 100 --hc 300 --seed 77",
    "configure --help",
    "configure --hc 5 --help",
    "configure",
    "configure --hc 8192",
    "configure --hc 8192 --window 64000",
    "configure --window 64000 --target-pfail 0.001",
    "configure --hc",
    "configure --hc x --window 1 --target-pfail 0.5",
    "configure --hc 1 --window 10 --target-pfail 0.5",
    "configure --hc 10 --window",
    "configure --hc 10 --window -1 --target-pfail 0.5",
    "configure --hc 10 --window 10 --target-pfail",
    "configure --hc 10 --window 10 --target-pfail x",
    "configure --hc 10 --window 10 --target-pfail 0",
    "configure --hc 10 --window 10 --target-pfail 0.5 --trials",
    "configure --hc 10 --window 10 --target-pfail 0.5 --trials x",
    "configure --hc 10 --window 10 --target-pfail 0.5 --seed",
    "configure --hc 10 --window 10 --target-pfail 0.5 --seed 0xZZ",
    "configure --bogus",
    // --- serve: every flag accepted ---
    "serve --workers 3 --listen 127.0.0.1:0 --kernel scalar --cache-capacity 7 --shard-cells 4",
    "serve --checkpoint-dir ckpt",
    "serve --cache-dir cells",
    "serve --cache-dir a --checkpoint-dir b",
    "serve --checkpoint-dir b --cache-dir a",
    "serve --config-epoch 7",
    "serve --workers 0 --fallback-after-ms 250",
    "serve --fallback-after-ms 0",
    "serve --speculate-after-ms 400",
    "serve --speculate-after-ms 0",
    "serve --fault-plan corrupt-cache-record=2",
    "serve --fault-plan cancel-after-cells=3,slow-client=50",
    "serve --max-pending-jobs 3 --max-jobs-per-client 2 --max-cells-per-client 500",
    "serve --target-lease-ms 0",
    "serve --target-lease-ms 900",
    "serve --handshake-timeout-ms 1500",
    "serve --auth-token-file @token",
    "serve --help",
    "serve --workers 0 --help",
    // --- serve: every rejection ---
    "serve --bogus",
    "serve --workers",
    "serve --workers x",
    "serve --workers 0",
    "serve --listen",
    "serve --kernel sse2",
    "serve --cache-capacity",
    "serve --cache-capacity 0",
    "serve --cache-capacity x",
    "serve --checkpoint-dir",
    "serve --cache-dir",
    "serve --shard-cells 0",
    "serve --shard-cells x",
    "serve --config-epoch -1",
    "serve --fallback-after-ms x",
    "serve --speculate-after-ms x",
    "serve --fault-plan",
    "serve --fault-plan bogus=1",
    "serve --fault-plan corrupt-cache-record",
    "serve --max-pending-jobs 0",
    "serve --max-pending-jobs x",
    "serve --max-jobs-per-client 0",
    "serve --max-jobs-per-client x",
    "serve --max-cells-per-client 0",
    "serve --max-cells-per-client x",
    "serve --target-lease-ms soon",
    "serve --handshake-timeout-ms 0",
    "serve --handshake-timeout-ms x",
    "serve --auth-token-file",
    "serve --auth-token-file /nonexistent/rh-token",
    "serve --auth-token-file @empty",
    // --- worker ---
    "worker",
    "worker --connect 127.0.0.1:9 --fault-plan crash-after-cells=3,drop-line=2 --config-epoch 9 --retry 4 --backoff-ms 50",
    "worker --fault-plan garble-line=1,delay-connect-ms=5,seed=7",
    "worker --auth-token-file @token",
    "worker --help",
    "worker --bogus",
    "worker --connect",
    "worker --fault-plan drop-line=0",
    "worker --fault-plan explode-now=1",
    "worker --config-epoch x",
    "worker --retry",
    "worker --retry -1",
    "worker --backoff-ms 0",
    "worker --backoff-ms x",
    "worker --auth-token-file @empty",
    // --- submit ---
    "submit --connect 127.0.0.1:9 --timeout 5 --job-deadline-ms 2500 --auth-token-file @token",
    "submit --help",
    "submit --timeout 5 --help",
    "submit",
    "submit --timeout 5",
    "submit --connect",
    "submit --connect x --timeout",
    "submit --connect x --timeout 0",
    "submit --connect x --timeout x",
    "submit --connect x --job-deadline-ms 0",
    "submit --connect x --job-deadline-ms x",
    "submit --connect x --auth-token-file /nonexistent/rh-token",
    "submit --connect x --bogus",
    // --- cancel ---
    "cancel --connect 127.0.0.1:9 --id job-42 --timeout 5 --auth-token-file @token",
    "cancel --help",
    "cancel",
    "cancel --connect x",
    "cancel --id job-42",
    "cancel --connect x --id",
    "cancel --connect x --id j --timeout 0",
    "cancel --connect x --id j --timeout x",
    "cancel --connect x --id j --auth-token-file @empty",
    "cancel --bogus",
];

/// Scratch token files: `@token` holds a secret (with a trailing newline
/// the reader must trim), `@empty` only whitespace.
fn token_files() -> (String, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-contract");
    std::fs::create_dir_all(&dir).unwrap();
    let token = dir.join("token");
    let empty = dir.join("empty");
    std::fs::write(&token, "sekrit\n").unwrap();
    std::fs::write(&empty, " \n").unwrap();
    (
        token.to_str().unwrap().to_string(),
        empty.to_str().unwrap().to_string(),
    )
}

/// Strip outcome-enum wrappers (`Variant(...)`, possibly nested) so the
/// record is the option struct's own `{:?}`, or `Help`.
fn unwrap_variants(debug: &str) -> &str {
    let mut s = debug;
    loop {
        let ident = s
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .unwrap_or(s.len());
        if ident > 0 && s[ident..].starts_with('(') && s.ends_with(')') {
            s = &s[ident + 1..s.len() - 1];
        } else {
            return s;
        }
    }
}

fn record<T: Debug>(outcome: Result<T, String>) -> String {
    match outcome {
        Ok(parsed) => unwrap_variants(&format!("{parsed:?}")).to_string(),
        Err(e) => format!("error: {e}"),
    }
}

fn parse_line(line: &str, token: &str, empty: &str) -> String {
    let argv: Vec<String> = line
        .split(' ')
        .map(|a| match a {
            "''" => String::new(),
            "@token" => token.to_string(),
            "@empty" => empty.to_string(),
            a => a.replace('~', " "),
        })
        .collect();
    let args = &argv[1..];
    let out = match argv[0].as_str() {
        "sweep" => record(parse_args(args)),
        "bench" => record(parse_bench_args(args)),
        "configure" => record(parse_configure_args(args)),
        "serve" => record(parse_serve_args(args)),
        "worker" => record(parse_worker_args(args)),
        "submit" => record(parse_submit_args(args)),
        "cancel" => record(parse_cancel_args(args)),
        other => panic!("corpus line names no subcommand: {other}"),
    };
    let out = out.replace(token, "@token").replace(empty, "@empty");
    if argv[0] == "sweep" && !argv.iter().any(|a| a == "--threads") {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        return out.replace(&format!("threads: {host},"), "threads: <host>,");
    }
    out
}

#[test]
fn every_argv_parses_to_the_golden_record() {
    let (token, empty) = token_files();
    let mut actual = String::new();
    for line in CORPUS {
        actual.push_str(&format!("$ {line}\n{}\n", parse_line(line, &token, &empty)));
    }
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/cli_contract.golden");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != golden {
        let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_contract.actual");
        std::fs::write(&dump, &actual).unwrap();
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!(
            "parse outcomes differ from {} at line {} (actual record in {})\n  actual: {:?}\n  golden: {:?}",
            golden_path.display(),
            first + 1,
            dump.display(),
            actual.lines().nth(first),
            golden.lines().nth(first),
        );
    }
}

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn rh_cli(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_rh-cli"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn rh-cli");
    Run {
        code: out.status.code().expect("exited normally"),
        stdout: String::from_utf8(out.stdout).unwrap(),
        stderr: String::from_utf8(out.stderr).unwrap(),
    }
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for args in [
        &[][..],
        &["-h"],
        &["--help"],
        &["sweep", "--help"],
        &["sweep", "-h"],
        &["bench", "--help"],
        &["bench", "--saturation", "--help"],
        &["bench", "--analysis", "-h"],
        &["configure", "--help"],
        &["serve", "--help"],
        &["worker", "--help"],
        &["submit", "--help"],
        &["cancel", "--help"],
    ] {
        let run = rh_cli(args);
        assert_eq!(run.code, 0, "{args:?}");
        assert!(run.stdout == USAGE, "{args:?} must print exactly the usage");
        assert_eq!(run.stderr, "", "{args:?} writes nothing to stderr");
    }
}

/// Expected failure shape: exit 1, nothing on stdout, `first` as stderr's
/// first line, and the usage text after a blank line iff `usage`.
fn assert_fails(args: &[&str], first: &str, usage: bool) {
    let run = rh_cli(args);
    assert_eq!(run.code, 1, "{args:?}: {}", run.stderr);
    assert_eq!(run.stdout, "", "{args:?} prints nothing on stdout");
    assert_eq!(run.stderr.lines().next(), Some(first), "{args:?}");
    // eprintln! adds a newline after the usage's own.
    let with_usage = format!("{first}\n\n{USAGE}\n");
    if usage {
        assert!(run.stderr == with_usage, "{args:?} must end with the usage");
    } else {
        assert!(
            !run.stderr.contains("USAGE:"),
            "{args:?} must not print the usage"
        );
    }
}

#[test]
fn unknown_subcommand_and_parse_errors_print_usage_on_stderr() {
    assert_fails(&["frob"], "error: unknown command 'frob'", true);
    assert_fails(&["--bogus"], "error: unknown command '--bogus'", true);
    assert_fails(
        &["sweep", "--hc", "0"],
        "error: HC_first values must be positive",
        true,
    );
    assert_fails(
        &["bench", "--bogus"],
        "error: unknown bench option '--bogus'",
        true,
    );
    assert_fails(
        &["bench", "--saturation", "--workers", "0"],
        "error: --workers pool sizes must be at least 1",
        true,
    );
    assert_fails(
        &["bench", "--analysis", "--repeat", "0"],
        "error: --repeat must be at least 1",
        true,
    );
    assert_fails(&["configure"], "error: configure requires --hc <N>", true);
    assert_fails(
        &["serve", "--shard-cells", "0"],
        "error: --shard-cells must be at least 1",
        true,
    );
    assert_fails(
        &["worker", "--backoff-ms", "0"],
        "error: --backoff-ms must be at least 1",
        true,
    );
    assert_fails(&["submit"], "error: submit requires --connect <ADDR>", true);
    assert_fails(
        &["cancel", "--connect", "x"],
        "error: cancel requires --id <JOB>",
        true,
    );
}

#[test]
fn run_errors_print_usage_only_for_sweep_and_configure() {
    // configure's range checks run after parsing; its run errors keep the
    // usage text, like a parse error.
    let run = rh_cli(&[
        "configure",
        "--hc",
        "1",
        "--window",
        "10",
        "--target-pfail",
        "0.5",
    ]);
    assert_eq!(run.code, 1);
    assert!(run.stderr.starts_with("error: "), "{}", run.stderr);
    assert!(
        run.stderr.ends_with(&format!("\n\n{USAGE}\n")),
        "usage must follow"
    );
    // The service verbs and bench report run errors without it. An address
    // with no port fails before any lookup or connection attempt.
    assert_fails(
        &["bench", "--quick", "--filter", "no-such-cell"],
        "error: --filter 'no-such-cell' matches no bench cells",
        false,
    );
    for args in [
        &["serve", "--workers", "0", "--listen", "no-port"][..],
        &["worker", "--connect", "no-port"],
        &["submit", "--connect", "no-port"],
        &["cancel", "--connect", "no-port", "--id", "j"],
    ] {
        let run = rh_cli(args);
        assert_eq!(run.code, 1, "{args:?}: {}", run.stderr);
        assert_eq!(run.stdout, "", "{args:?}");
        let last = run.stderr.lines().last().unwrap_or_default();
        assert!(last.starts_with("error: "), "{args:?}: {}", run.stderr);
        assert!(
            !run.stderr.contains("USAGE:"),
            "{args:?} must not print the usage"
        );
    }
}

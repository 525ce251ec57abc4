//! `e2ebench`: one fixed-work story (OLTP, as-of near/far, as-of scan,
//! flashback, crash restart, interleaved in rounds) on three configurations of
//! the engine, driven through its public functions only. See `README.md`.

// The repository's clippy.toml bans wall-clock reads and `std::sync` locks in
// the engine's crates. A benchmark is where wall-clock reads belong, and this
// one takes no dependency for a lock it takes a dozen times a round.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod asof;
mod compare;
mod gen;
mod json;
mod marks;
mod noise;
mod probe;
mod report;
mod samples;
mod script;
mod selftest;
mod spec;
mod stats;
mod terminal;
mod trace;

use report::Outcome;
use script::{Run, RunOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: e2ebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
                [--out-dir <dir>] [--label <text>]
       e2ebench --compare <dir A> <dir B>
       e2ebench --pack <results dir> <dest dir>
       e2ebench --self-test | --glossary | --benchmark-json";

/// Where result and span files go unless `--out-dir` says otherwise: beside
/// the build, which every checkout ignores.
fn default_out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "bench/target".into(), PathBuf::from);
    target.join("e2ebench-out")
}

/// A finished run and what a person wants to see of it.
pub struct Finished {
    pub outcome: Outcome,
    report: samples::RunReport,
    self_times: Vec<(trace::Name, u64, Vec<trace::SelfTime>)>,
}

/// Set up, run the window, and (traced) run the probes. Writes the span file
/// when `out_dir` is given; prints nothing.
pub fn run_workload(
    opt: &RunOptions,
    label: &str,
    out_dir: Option<&Path>,
) -> Result<Finished, String> {
    let w = opt.workload;
    let nproc = noise::nproc();
    if w.generator_threads() > nproc {
        return Err(format!(
            "{} drives {} load-generating threads but this machine has {nproc} cores",
            w.name,
            w.generator_threads()
        ));
    }
    let (mut run, setup_s, load_rows_per_s) =
        Run::set_up(opt, Instant::now()).map_err(|e| format!("set-up failed: {e}"))?;
    let report = run
        .window(setup_s, load_rows_per_s)
        .map_err(|e| format!("run aborted: {e}"))?;
    if !opt.trace {
        let outcome = report::outcome(opt, label, &report, None);
        return Ok(Finished {
            outcome,
            report,
            self_times: Vec::new(),
        });
    }
    let tracers = [&run.tr, &run.tr2];
    if let Some(dir) = out_dir {
        let path = dir.join(format!("{}.trace.json", w.name));
        std::fs::write(&path, trace::spans_json(&tracers).compact())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let probes = probe::run_probes(&run, opt.seed).map_err(|e| format!("probe failed: {e}"))?;
    let outcome = report::outcome(opt, label, &report, Some((&tracers, &probes)));
    Ok(Finished {
        outcome,
        report,
        self_times: trace::self_time_tables(&tracers),
    })
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or(USAGE)?;
    let workload = spec::workload(name).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        args.value(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        })
    };
    let seed = number("--seed", spec::DEFAULT_SEED)?;
    let seconds = number("--seconds", spec::RUN_SECONDS)?;
    let trace = number("--trace", 0)? != 0;
    let out_dir = args
        .value("--out-dir")
        .map_or_else(default_out_dir, PathBuf::from);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let opt = RunOptions::full(workload, seed, seconds, trace);
    if opt.rounds < spec::MIN_SAMPLES {
        println!(
            "note: {seconds} s is {} rounds; below {} the per-operation medians rest on too few samples",
            opt.rounds,
            spec::MIN_SAMPLES
        );
    }
    println!(
        "{}: seed {seed}, {} rounds (fixed work for --seconds {seconds}), trace {}, {} generator thread(s) on {} cores",
        workload.name,
        opt.rounds,
        trace as u8,
        workload.generator_threads(),
        noise::nproc()
    );
    let done = run_workload(&opt, args.value("--label").unwrap_or(""), Some(&out_dir))?;
    let outcome = &done.outcome;
    trace::print_self_time_tables(&done.self_times);
    report::print_latencies(&done.report);
    outcome.print_table();
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
    for c in &outcome.unmet_claims {
        println!("CLAIM NOT MET: {c}");
    }
    if outcome.noisy {
        println!("noisy: the host stole CPU or the calibration loop spread; see bench.cpu_steal_pct, bench.calib_spread_pct");
    }
    let path = out_dir.join(format!("{}.s{seed}.t{}.json", workload.name, trace as u8));
    std::fs::write(&path, outcome.file_json()?.pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result: {}", path.display());
    println!("{}", outcome.result_line()?);
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.after(flag, 1)
    }

    fn after(&self, flag: &str, n: usize) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + n).map(String::as_str)
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let two_dirs = |flag: &str| -> Result<(PathBuf, PathBuf), String> {
        match (args.after(flag, 1), args.after(flag, 2)) {
            (Some(a), Some(b)) => Ok((a.into(), b.into())),
            _ => Err(USAGE.into()),
        }
    };
    let done = if args.has("--benchmark-json") {
        print!("{}", spec::benchmark_json());
        Ok(ExitCode::SUCCESS)
    } else if args.has("--glossary") {
        print!("{}", spec::glossary());
        Ok(ExitCode::SUCCESS)
    } else if args.has("--self-test") {
        selftest::run().map(|()| ExitCode::SUCCESS)
    } else if args.has("--compare") {
        two_dirs("--compare").and_then(|(a, b)| {
            Ok(if compare::compare(&a, &b)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        })
    } else if args.has("--pack") {
        two_dirs("--pack").and_then(|(a, b)| compare::pack(&a, &b).map(|()| ExitCode::SUCCESS))
    } else {
        measure(&args)
    };
    done.unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        ExitCode::from(2)
    })
}

//! `--self-test`: the statistics, the JSON round trip, the spec's invariants,
//! and a one-round miniature of every workload in which falsified marks must
//! turn `correct` false.

use crate::json::Json;
use crate::report::Outcome;
use crate::script::RunOptions;
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{noise, stats};
use rewind_tpcc::TpccScale;

type Check = Result<(), String>;

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

fn statistics() -> Check {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    ensure(close(stats::quantile(&v, 0.5), 5.5), || {
        "median of 1..=10".into()
    })?;
    ensure(
        close(stats::quantile(&v, 0.0), 1.0) && close(stats::quantile(&v, 1.0), 10.0),
        || "quantile ends".into(),
    )?;
    ensure(close(stats::quantile(&v, 0.95), 9.55), || {
        "p95 of 1..=10".into()
    })?;
    ensure(close(stats::median(&[3.0, 1.0, 2.0]), 2.0), || {
        "median sorts".into()
    })?;
    ensure(stats::median(&[]) == 0.0, || "median of nothing".into())?;
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let (q1, q2, q3) = stats::quartiles(&v);
    ensure(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25), || {
        format!("quartiles of 1..=10: {q1} {q2} {q3}")
    })?;
    ensure(close(stats::spread(&v), 1.0), || "spread of 1..=10".into())?;
    // the highest percentile with at least ten samples beyond it
    let n = |len: usize| stats::highest_supported_percentile(&vec![1.0; len], 10).0;
    ensure(
        n(50) == 50.0 && n(100) == 90.0 && n(200) == 95.0 && n(1_000) == 99.0 && n(10_000) == 99.9,
        || "highest supported percentile".into(),
    )?;
    // the median over rounds is not the mean of the rounds
    ensure(
        close(stats::median(&[100.0, 101.0, 99.0, 10.0, 102.0]), 100.0),
        || "median over rounds must shrug off one slow round".into(),
    )
}

fn json_round_trip() -> Check {
    let value = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(1234.0)),
        (
            "metrics",
            Json::obj([(
                "latency_ms",
                Json::obj([
                    ("value", Json::Num(1.203_456_789_012_3)),
                    ("unit", Json::Str("ms".into())),
                ]),
            )]),
        ),
        (
            "errors",
            Json::Arr(vec![Json::Str("a \"quoted\"\nline\\".into()), Json::Null]),
        ),
        ("tiny", Json::Num(1.5e-9)),
    ]);
    for text in [value.compact(), value.pretty()] {
        let back = Json::parse(&text).map_err(|e| format!("parse: {e} in {text}"))?;
        ensure(back == value, || {
            format!("JSON round trip changed the value: {text}")
        })?;
    }
    ensure(!value.compact().contains('\n'), || {
        "compact JSON is one line".into()
    })
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn spec_invariants() -> Check {
    ensure((2..=8).contains(&WORKLOADS.len()), || {
        "2 to 8 workloads".into()
    })?;
    ensure((1..=16).contains(&END_TO_END.len()), || {
        "1 to 16 end-to-end metrics".into()
    })?;
    ensure((1..=128).contains(&PER_LAYER.len()), || {
        "1 to 128 per-layer metrics".into()
    })?;
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        ensure(name_ok(n), || format!("name {n:?} is outside the alphabet"))?;
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    ensure(unique.len() == names.len(), || {
        "a name is used twice".into()
    })?;
    for w in &WORKLOADS {
        let why = spec::one_line(w.why);
        ensure(why.len() <= 200, || {
            format!("why of {} has {} characters", w.name, why.len())
        })?;
        ensure(w.rounds >= spec::MIN_SAMPLES, || {
            format!("{} has too few rounds", w.name)
        })?;
        ensure(w.rounds_for(spec::RUN_SECONDS) == w.rounds, || {
            "rounds_for(run_seconds)".into()
        })?;
        // Marks older than RETENTION_TXNS - 500 are dropped. A workload whose
        // only marks are its rounds' needs one within half a round of the far
        // distance; the terminal beside the looper marks every MARK_EVERY,
        // and digests the tables where the next round's scan will look.
        let batch = w.oltp_per_terminal as u64;
        ensure(
            if w.asof_beside_oltp {
                batch.is_multiple_of(spec::MARK_EVERY as u64)
                    && batch >= spec::SCAN_TXNS - spec::NEAR_TXNS
            } else {
                w.txns_per_round() as u64 / 2 + spec::FAR_TXNS < spec::RETENTION_TXNS - 500
            },
            || format!("{}: a step would find no mark where it looks", w.name),
        )?;
        for c in w.claims {
            ensure(PER_LAYER.iter().any(|m| m.name == c.metric), || {
                format!(
                    "{} claims {:?}, which is no per-layer metric",
                    w.name, c.metric
                )
            })?;
        }
    }
    // The limits of the driver's contract for BENCHMARK.json, which refuses a
    // file outside them before a single run: a bound is at most 0.25, and
    // setup_s is there, in seconds, with the largest bound.
    for m in &END_TO_END {
        ensure(unit_ok(m.unit), || format!("unit of {}", m.name))?;
        ensure(m.bound > 0.0 && m.bound <= 0.25, || {
            format!("bound of {}", m.name)
        })?;
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    ensure(
        setup.is_some_and(|m| m.unit == "s" && m.better == spec::Better::Lower),
        || "setup_s must be there, in s, lower is better".into(),
    )?;
    ensure(
        setup.is_some_and(|s| END_TO_END.iter().all(|m| m.bound <= s.bound)),
        || "setup_s has the largest bound".into(),
    )?;
    for m in &PER_LAYER {
        ensure(unit_ok(m.unit), || format!("unit of {}", m.name))?;
        ensure(!m.moves.is_empty() && !m.on.is_empty(), || {
            format!("{} must name what it should move, and where", m.name)
        })?;
        for e in m.moves.split(',') {
            ensure(END_TO_END.iter().any(|x| x.name == e), || {
                format!(
                    "{} should move {e:?}, which is no end-to-end metric",
                    m.name
                )
            })?;
        }
        for l in m.on.split(',') {
            ensure(WORKLOADS.iter().any(|w| w.letter.to_string() == l), || {
                format!("{} names workload {l:?}", m.name)
            })?;
        }
    }
    ensure(
        spec::NEAR_TXNS == (spec::GOOD_BEFORE_ASOF + 1) as u64,
        || "the bad batch and the good transactions put the newest mark NEAR_TXNS back".into(),
    )?;
    // BENCHMARK.json is a rendering of the spec, byte for byte
    let rendered = spec::benchmark_json();
    ensure(rendered.len() <= 64 * 1024, || {
        "BENCHMARK.json is over 64 KiB".into()
    })?;
    let checked_in = [
        concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"),
        "BENCHMARK.json",
    ]
    .iter()
    .find_map(|p| std::fs::read_to_string(p).ok())
    .ok_or("BENCHMARK.json not found beside bench/ or in the working directory")?;
    ensure(checked_in == rendered, || {
        "BENCHMARK.json differs from `e2ebench --benchmark-json`; regenerate it".into()
    })?;
    // and so are the README's tables
    ensure(
        include_str!("../README.md").contains(&spec::glossary()),
        || "bench/README.md does not carry the output of `e2ebench --glossary`".into(),
    )
}

/// One round at a scale a hundredth of the real one.
fn miniature(
    w: &'static spec::Workload,
    seed: u64,
    trace: bool,
    corrupt: bool,
) -> Result<Outcome, String> {
    let opt = RunOptions {
        workload: w,
        seed,
        rounds: 1,
        trace,
        scale: TpccScale {
            warehouses: 2,
            districts_per_warehouse: 4,
            customers_per_district: 30,
            items: 500,
            initial_orders_per_district: 30,
        },
        history_txns: 3 * spec::MARK_EVERY,
        // The miniature of a workload that spills has to spill too: its data
        // is about 360 pages.
        buffer_pages: w.buffer_pages.min(if w.device_delay_us > 0 {
            32
        } else {
            usize::MAX
        }),
        corrupt_marks: corrupt,
    };
    crate::run_workload(&opt, "self-test", None).map(|done| done.outcome)
}

fn miniatures() -> Check {
    // What must repeat exactly on oltp_resident (one client, no background
    // work), and change with the seed.
    const EXACT: [&str; 8] = [
        "log_bytes_per_txn",
        "wal.retained_log_mib",
        "repair.keys_examined",
        "repair.rows_applied",
        "repair.conflicts_skipped",
        "recovery.records_scanned",
        "recovery.records_redone",
        "recovery.records_undone",
    ];
    let exact = |o: &Outcome| -> Vec<u64> {
        EXACT
            .iter()
            .map(|m| {
                o.e2e
                    .get(m)
                    .or_else(|| o.layers.as_ref()?.get(m))
                    .map_or(0, |v| v.0.to_bits())
            })
            .collect()
    };
    for w in &WORKLOADS {
        if w.generator_threads() > noise::nproc() {
            println!(
                "  {}: skipped, it needs {} cores",
                w.name,
                w.generator_threads()
            );
            continue;
        }
        let exact_counts = w.name == "oltp_resident";
        let good = miniature(w, 1, true, false)?;
        ensure(good.correct() && good.attempted > 0, || {
            format!(
                "{}: the miniature must be correct, but: {:?}",
                w.name, good.errors
            )
        })?;
        ensure(good.unmet_claims.is_empty(), || {
            format!(
                "{}: the traffic is not what the workload claims: {:?}",
                w.name, good.unmet_claims
            )
        })?;
        let bad = miniature(w, 2, exact_counts, true)?;
        ensure(!bad.correct() && bad.failed > 0, || {
            format!("{}: falsified marks must turn `correct` false", w.name)
        })?;
        if exact_counts {
            let again = miniature(w, 1, true, false)?;
            ensure(exact(&good) == exact(&again), || {
                format!("{}: two runs of one seed disagree on {EXACT:?}", w.name)
            })?;
            ensure(exact(&good) != exact(&bad), || {
                format!("{}: another seed must change {EXACT:?}", w.name)
            })?;
        }
        println!(
            "  {}: {} operations correct; {} of {} failed once the marks were falsified",
            w.name, good.attempted, bad.failed, bad.attempted
        );
    }
    Ok(())
}

pub fn run() -> Result<(), String> {
    type Named = (&'static str, fn() -> Check);
    let checks: [Named; 4] = [
        ("statistics", statistics),
        ("json round trip", json_round_trip),
        ("spec invariants", spec_invariants),
        ("miniature of each workload", miniatures),
    ];
    for (name, check) in checks {
        println!("self-test: {name}");
        check().map_err(|e| format!("self-test failed: {name}: {e}"))?;
    }
    println!("self-test: ok");
    Ok(())
}

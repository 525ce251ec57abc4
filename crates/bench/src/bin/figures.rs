//! Regenerate every table and figure from the paper's evaluation (§6).
//!
//! ```text
//! cargo run -p rewind-bench --release --bin figures -- --all
//! cargo run -p rewind-bench --release --bin figures -- --fig7 --quick
//! ```
//!
//! Flags: `--fig5 --fig6 --fig7 --fig8 --fig9 --fig10 --fig11 --sec63
//! --sec64 --ablations --all --quick`.

use rewind_bench::*;

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let all = has("--all") || args.iter().all(|a| a == "--quick");
    let effort = if has("--quick") {
        Effort::quick()
    } else {
        Effort::full()
    };

    println!("# rewind — paper figure regeneration");
    println!(
        "# effort: {} warehouses, {} tx/min, {} min history, {} threads\n",
        effort.scale.warehouses, effort.txns_per_minute, effort.history_minutes, effort.threads
    );

    if all || has("--fig5") || has("--fig6") {
        run_fig5_fig6(&effort);
    }

    let need_sweep = all
        || [
            "--fig7", "--fig8", "--fig9", "--fig10", "--fig11", "--sec64",
        ]
        .iter()
        .any(|f| has(f));
    if need_sweep {
        run_fig7_to_11(&effort, all || has("--sec64"));
    }

    if all || has("--sec63") {
        run_sec63(&effort);
    }

    if all || has("--ablations") {
        run_ablations(&effort);
    }
}

fn run_fig5_fig6(effort: &Effort) {
    for (label, checkpoints) in [
        ("no checkpoints", false),
        ("30s-style checkpoint interval", true),
    ] {
        println!("## Figures 5 & 6 — logging overhead vs FPI interval N ({label})");
        println!(
            "{:>6} | {:>12} | {:>10} | {:>12} | {:>11}",
            "N", "tps (real)", "tpmC (sim)", "log MiB", "space ratio"
        );
        println!("{}", "-".repeat(64));
        match fig5_fig6(effort, checkpoints) {
            Ok(rows) => {
                for r in rows {
                    println!(
                        "{:>6} | {:>12.0} | {:>10.0} | {:>12.1} | {:>10.2}x",
                        if r.fpi_interval == 0 {
                            "off".to_string()
                        } else {
                            r.fpi_interval.to_string()
                        },
                        r.tps_real,
                        r.tpm_c,
                        r.log_bytes as f64 / (1 << 20) as f64,
                        r.space_ratio
                    );
                }
            }
            Err(e) => println!("error: {e}"),
        }
        println!();
    }
}

fn run_fig7_to_11(effort: &Effort, with_crossover: bool) {
    println!("## Figures 7-11 — as-of query vs full restore, by rewind distance");
    let exp = match prepare_asof_experiment(effort, 16) {
        Ok(e) => e,
        Err(e) => {
            println!("error preparing experiment: {e}");
            return;
        }
    };
    let max = effort.history_minutes;
    let distances: Vec<u64> = [1u64, 2, 4, 8, 12, 16, 24, 32]
        .iter()
        .copied()
        .filter(|&m| m < max)
        .collect();
    match fig7_to_fig11(&exp, &distances) {
        Ok(rows) => {
            println!("\n### Fig. 7 (SSD) / Fig. 8 (SAS): end-to-end seconds (log scale in paper)");
            println!(
                "{:>8} | {:>14} | {:>14} | {:>14} | {:>14}",
                "min back", "asof SSD (s)", "restore SSD(s)", "asof SAS (s)", "restore SAS(s)"
            );
            println!("{}", "-".repeat(78));
            for r in &rows {
                println!(
                    "{:>8} | {:>14.3} | {:>14.1} | {:>14.3} | {:>14.1}",
                    r.minutes_back,
                    secs(r.create_us_ssd + r.query_us_ssd),
                    secs(r.restore_us_ssd),
                    secs(r.create_us_sas + r.query_us_sas),
                    secs(r.restore_us_sas),
                );
            }

            println!("\n### Fig. 9 (SSD) / Fig. 10 (SAS): snapshot creation vs query seconds");
            println!(
                "{:>8} | {:>12} | {:>12} | {:>12} | {:>12} | {:>10}",
                "min back", "create SSD", "query SSD", "create SAS", "query SAS", "real ms"
            );
            println!("{}", "-".repeat(82));
            for r in &rows {
                println!(
                    "{:>8} | {:>12.3} | {:>12.3} | {:>12.3} | {:>12.3} | {:>10.1}",
                    r.minutes_back,
                    secs(r.create_us_ssd),
                    secs(r.query_us_ssd),
                    secs(r.create_us_sas),
                    secs(r.query_us_sas),
                    (r.create_us_real + r.query_us_real) as f64 / 1e3,
                );
            }

            println!("\n### Fig. 11: estimated undo log I/Os per as-of query");
            println!(
                "{:>8} | {:>12} | {:>14} | {:>14}",
                "min back", "undo IOs", "pages prepared", "records undone"
            );
            println!("{}", "-".repeat(56));
            for r in &rows {
                println!(
                    "{:>8} | {:>12} | {:>14} | {:>14}",
                    r.minutes_back, r.undo_log_ios, r.pages_prepared, r.records_undone
                );
            }
            println!();
        }
        Err(e) => println!("error: {e}"),
    }

    if with_crossover {
        println!("## §6.4 — backup/as-of crossover (SAS media)");
        println!(
            "{:>10} | {:>14} | {:>12} | {:>14} | {:>8}",
            "districts", "pages touched", "asof (s)", "restore (s)", "pick"
        );
        println!("{}", "-".repeat(70));
        match sec64_crossover(&exp, &[1, 4, 16, 40, 80]) {
            Ok(rows) => {
                for r in rows {
                    println!(
                        "{:>10} | {:>14} | {:>12.3} | {:>14.1} | {:>8}",
                        r.districts_queried,
                        r.pages_prepared,
                        secs(r.asof_us_sas),
                        secs(r.restore_us_sas),
                        match r.choice {
                            rewind_backup::PathChoice::AsOfQuery => "as-of",
                            rewind_backup::PathChoice::RestoreRollForward => "restore",
                        }
                    );
                }
            }
            Err(e) => println!("error: {e}"),
        }
        println!();
    }
}

fn run_sec63(effort: &Effort) {
    println!("## §6.3 — concurrent as-of queries during the TPC-C run");
    match sec63_concurrent(effort) {
        Ok(r) => {
            println!("baseline tpmC (real clock) : {:>12.0}", r.tpm_baseline);
            println!("tpmC with as-of loop       : {:>12.0}", r.tpm_with_asof);
            println!(
                "throughput retained        : {:>11.0}%",
                100.0 * r.tpm_with_asof / r.tpm_baseline.max(1e-9)
            );
            println!("snapshots created          : {:>12}", r.snapshots_created);
            println!(
                "avg snapshot creation      : {:>9.1} ms",
                r.avg_create_us as f64 / 1e3
            );
            println!(
                "avg as-of stock level      : {:>9.1} ms",
                r.avg_query_us as f64 / 1e3
            );
        }
        Err(e) => println!("error: {e}"),
    }
    println!();
}

fn run_ablations(effort: &Effort) {
    println!("## Ablation — §6.1 FPI skip on/off (deep rewind)");
    match ablation_fpi(effort) {
        Ok(rows) => {
            println!(
                "{:>6} | {:>14} | {:>10} | {:>10}",
                "N", "records undone", "undo IOs", "query ms"
            );
            println!("{}", "-".repeat(50));
            for r in rows {
                println!(
                    "{:>6} | {:>14} | {:>10} | {:>10.1}",
                    if r.fpi_interval == 0 {
                        "off".to_string()
                    } else {
                        r.fpi_interval.to_string()
                    },
                    r.records_undone,
                    r.undo_log_ios,
                    r.query_us_real as f64 / 1e3
                );
            }
        }
        Err(e) => println!("error: {e}"),
    }

    println!("\n## Ablation — log cache size vs undo stalls (same deep query)");
    match ablation_log_cache(effort) {
        Ok(rows) => {
            println!(
                "{:>12} | {:>10} | {:>10} | {:>12}",
                "cache blocks", "undo IOs", "hits", "query SAS(s)"
            );
            println!("{}", "-".repeat(54));
            for r in rows {
                println!(
                    "{:>12} | {:>10} | {:>10} | {:>12.3}",
                    r.cache_blocks,
                    r.undo_log_ios,
                    r.cache_hits,
                    r.query_us_sas as f64 / 1e6
                );
            }
        }
        Err(e) => println!("error: {e}"),
    }

    println!();
}

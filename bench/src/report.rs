//! From a run's samples to its named metrics, its result line and its file.

use crate::gen::TxnKind;
use crate::json::Json;
use crate::noise;
use crate::probe::Probes;
use crate::samples::{trace_overhead_pct, BatchSample, RunReport};
use crate::script::RunOptions;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, quantile, quartiles, sorted};
use crate::trace::{Name, Tracer};
use std::collections::BTreeMap;

/// A metric's value and how many samples are behind it (1 for a reading).
pub type Values = BTreeMap<&'static str, (f64, usize)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn put_median(v: &mut Values, name: &'static str, samples: &[f64]) {
    v.insert(name, (median(samples), samples.len()));
}

fn put(v: &mut Values, name: &'static str, value: f64) {
    v.insert(name, (value, 1));
}

pub fn end_to_end(r: &RunReport) -> Values {
    let s = &r.samples;
    let mut v = Values::new();
    let per_s: Vec<f64> = s
        .batches
        .iter()
        .map(|b| ratio(b.txns as f64, b.wall_s))
        .collect();
    put_median(&mut v, "txn_per_s", &per_s);
    let over_rounds =
        |f: fn(&BatchSample) -> f64| -> Vec<f64> { s.batches.iter().map(f).collect() };
    let samples = |kind: TxnKind| s.terminals.lat_us[kind as usize].len();
    let latency = |per_round: Vec<f64>, kind: TxnKind| (median(&per_round), samples(kind));
    v.insert(
        "new_order_us_p50",
        latency(over_rounds(|b| b.new_order_us_p50), TxnKind::NewOrder),
    );
    v.insert(
        "payment_us_p50",
        latency(over_rounds(|b| b.payment_us_p50), TxnKind::Payment),
    );
    let txns: u64 = s.batches.iter().map(|b| b.txns).sum();
    let log_bytes: u64 = s.batches.iter().map(|b| b.log_bytes).sum();
    put(
        &mut v,
        "log_bytes_per_txn",
        ratio(log_bytes as f64, txns as f64),
    );
    put_median(&mut v, "asof_near_ms_p50", &s.asof.near_ms);
    put_median(&mut v, "asof_far_ms_p50", &s.asof.far_ms);
    put_median(&mut v, "asof_scan_rows_per_s", &s.asof.scan_rows_per_s);
    put_median(&mut v, "flashback_ms_p50", &s.repair.flashback_ms);
    put_median(&mut v, "restart_ms_p50", &s.restart.restart_ms);
    put(&mut v, "setup_s", r.setup_s);
    v
}

/// The per-round series behind the OLTP metrics, the other steps' samples and
/// the calibration loop, for the result file.
fn by_round(r: &RunReport) -> Vec<(&'static str, Vec<f64>)> {
    let s = &r.samples;
    let batches = |f: fn(&BatchSample) -> f64| s.batches.iter().map(f).collect();
    vec![
        ("txn_per_s", batches(|b| ratio(b.txns as f64, b.wall_s))),
        ("new_order_us_p50", batches(|b| b.new_order_us_p50)),
        ("payment_us_p50", batches(|b| b.payment_us_p50)),
        ("asof_near_ms", s.asof.near_ms.clone()),
        ("asof_far_ms", s.asof.far_ms.clone()),
        ("asof_scan_rows_per_s", s.asof.scan_rows_per_s.clone()),
        ("flashback_ms", s.repair.flashback_ms.clone()),
        ("restart_ms", s.restart.restart_ms.clone()),
        ("calib_ns", s.calib_ns.clone()),
    ]
}

/// Fewest samples behind any per-operation end-to-end metric.
pub fn samples_min(e2e: &Values) -> usize {
    [
        "txn_per_s",
        "asof_near_ms_p50",
        "asof_far_ms_p50",
        "asof_scan_rows_per_s",
        "flashback_ms_p50",
        "restart_ms_p50",
    ]
    .iter()
    .map(|m| e2e[m].1)
    .min()
    .unwrap_or(0)
}

/// Durations of the spans called `name`, over all tracers, in `unit_ns`.
fn spans(tracers: &[&Tracer], name: Name, under: Option<Name>, unit_ns: f64) -> Vec<f64> {
    tracers
        .iter()
        .flat_map(|t| {
            t.spans
                .iter()
                .filter(move |s| {
                    s.name == name
                        && under.is_none_or(|u| {
                            t.spans.get(s.parent as usize).is_some_and(|p| p.name == u)
                        })
                })
                .map(move |s| s.dur_ns() as f64 / unit_ns)
        })
        .collect()
}

pub fn per_layer(
    r: &RunReport,
    e2e: &Values,
    tracers: &[&Tracer],
    p: &Probes,
    opt: &RunOptions,
) -> Values {
    let s = &r.samples;
    let w = opt.workload;
    let mut v = Values::new();
    let lat = |k: TxnKind| sorted(s.terminals.lat_us[k as usize].clone());
    let (new_order, payment) = (lat(TxnKind::NewOrder), lat(TxnKind::Payment));
    let p95: Vec<f64> = s.batches.iter().map(|b| b.new_order_us_p95).collect();
    put_median(&mut v, "tpcc.new_order_us_p95", &p95);
    put(&mut v, "tpcc.new_order_us_p99", quantile(&new_order, 0.99));
    put(&mut v, "tpcc.payment_us_p95", quantile(&payment, 0.95));
    put(
        &mut v,
        "tpcc.order_status_us_p50",
        quantile(&lat(TxnKind::OrderStatus), 0.5),
    );
    put(
        &mut v,
        "tpcc.delivery_us_p50",
        quantile(&lat(TxnKind::Delivery), 0.5),
    );
    put(
        &mut v,
        "tpcc.stock_level_us_p50",
        quantile(&lat(TxnKind::StockLevel), 0.5),
    );
    let all = sorted(s.terminals.lat_us.iter().flatten().copied().collect());
    put(&mut v, "core.mix_us_p99", quantile(&all, 0.99));

    // sums over the OLTP batches
    let sum = |f: fn(&BatchSample) -> u64| -> f64 { s.batches.iter().map(|b| f(b) as f64).sum() };
    let txns = sum(|b| b.txns);
    let thread_s: f64 = s.batches.iter().map(|b| b.wall_s).sum::<f64>() * w.terminals as f64;
    let (hits, misses) = (sum(|b| b.hits), sum(|b| b.misses));
    put(
        &mut v,
        "tpcc.retries_per_ktxn",
        ratio(1e3 * s.terminals.retries as f64, txns),
    );
    put(&mut v, "tpcc.load_rows_per_s", r.load_rows_per_s);
    put(
        &mut v,
        "buffer.pool_over_data",
        ratio(opt.buffer_pages as f64, r.data_pages as f64),
    );
    put(&mut v, "buffer.hit_ratio", ratio(hits, hits + misses));
    put(&mut v, "buffer.hits_per_txn", ratio(hits, txns));
    put(&mut v, "buffer.misses_per_txn", ratio(misses, txns));
    put(
        &mut v,
        "buffer.evictions_per_txn",
        ratio(sum(|b| b.evictions), txns),
    );
    put(&mut v, "buffer.map_contended", s.map_contended as f64);
    put(
        &mut v,
        "pagestore.page_reads_per_txn",
        ratio(sum(|b| b.page_reads), txns),
    );
    put(
        &mut v,
        "pagestore.page_writes_per_txn",
        ratio(sum(|b| b.page_writes), txns),
    );
    put(
        &mut v,
        "pagestore.scan_pages_per_read_op",
        ratio(s.asof.scan_page_reads as f64, s.asof.scan_read_ops as f64),
    );
    put(
        &mut v,
        "pagestore.redo_pages_per_read_op",
        ratio(s.restart.page_reads as f64, s.restart.read_ops as f64),
    );
    put(
        &mut v,
        "pagestore.pages_per_write_op",
        ratio(r.window_page_writes as f64, r.window_write_ops as f64),
    );
    put(&mut v, "pagestore.io_retries", r.io_retries as f64);
    put(
        &mut v,
        "wal.flushes_per_commit",
        ratio(
            sum(|b| b.log_flushes),
            s.terminals.flushing_completions as f64,
        ),
    );
    put(&mut v, "wal.flush_stall_us_p50", r.flush_stall.p50() as f64);
    let stall_s = sum(|b| b.flush_stall_us) / 1e6;
    put(&mut v, "wal.flush_busy_share", ratio(stall_s, thread_s));
    put(&mut v, "wal.retained_log_mib", r.retained_log_mib);
    // Inside a batch nothing reads or writes more than a page at a time, so
    // every page moved is one stall of the modeled device.
    let device_s = (sum(|b| b.page_reads) + sum(|b| b.page_writes)) * p.device_stall_us / 1e6;
    put(&mut v, "pagestore.device_stall_us", p.device_stall_us);
    put(
        &mut v,
        "pagestore.device_busy_share",
        ratio(device_s, thread_s),
    );
    put(
        &mut v,
        "bench.minor_faults_per_txn",
        ratio(sum(|b| b.minor_faults), txns),
    );

    // the unattributed share of OLTP time: what the probes' unit costs, times
    // the counts the engine publishes, do not explain
    let records = sum(|b| b.log_bytes) / 1024.0 * p.log_records_per_kib;
    let explained_s = (hits * p.hit_ns
        + misses * p.miss_ns
        + records * p.append_ns
        + 2.0 * records * p.lock_acquire_ns)
        / 1e9
        + device_s
        + stall_s;
    put(
        &mut v,
        "core.unattributed_share",
        1.0 - ratio(explained_s, thread_s).min(1.0),
    );
    put(&mut v, "core.peak_rss_mib", noise::peak_rss_mib());

    // spans
    let us = |name, under| spans(tracers, name, under, 1e3);
    let ms = |name, under| spans(tracers, name, under, 1e6);
    put_median(&mut v, "core.txn_body_us_p50", &us(Name::TxnBody, None));
    let commits = sorted(us(Name::Commit, None));
    v.insert(
        "core.commit_us_p50",
        (quantile(&commits, 0.50), commits.len()),
    );
    v.insert(
        "core.commit_us_p99",
        (quantile(&commits, 0.99), commits.len()),
    );
    put_median(&mut v, "core.rollback_us_p50", &us(Name::Rollback, None));
    put_median(
        &mut v,
        "core.checkpoint_ms_p50",
        &ms(Name::Checkpoint, None),
    );
    put_median(
        &mut v,
        "snapshot.create_ms_p50",
        &ms(Name::SnapCreate, None),
    );
    put_median(
        &mut v,
        "snapshot.first_query_ms_p50.near",
        &ms(Name::SnapFirstQuery, Some(Name::StepAsofNear)),
    );
    put_median(
        &mut v,
        "snapshot.first_query_ms_p50.far",
        &ms(Name::SnapFirstQuery, Some(Name::StepAsofFar)),
    );
    put_median(
        &mut v,
        "snapshot.undo_wait_ms_p50",
        &ms(Name::SnapUndoWait, None),
    );
    put_median(&mut v, "snapshot.drop_ms_p50", &ms(Name::SnapDrop, None));
    put_median(
        &mut v,
        "recovery.crash_teardown_ms",
        &ms(Name::CrashTeardown, None),
    );
    put_median(&mut v, "recovery.recover_ms", &ms(Name::Recover, None));

    // as-of counters
    let a = &s.asof;
    let queries = (a.near_ms.len() + a.far_ms.len()) as f64;
    put_median(&mut v, "snapshot.warm_query_us_p50", &a.warm_us);
    put(
        &mut v,
        "snapshot.side_hits_per_warm_query",
        ratio(a.warm_side_hits as f64, a.warm_queries as f64),
    );
    put(
        &mut v,
        "snapshot.pages_prepared_per_query",
        ratio(a.first_query_pages as f64, queries),
    );
    put(
        &mut v,
        "snapshot.scan_pages_prepared",
        ratio(a.scan_pages_prepared as f64, a.scans as f64),
    );
    put(
        &mut v,
        "pagestore.side_pages_per_snapshot",
        ratio(a.side_pages as f64, queries),
    );
    put(
        &mut v,
        "wal.log_read_ios_per_query",
        ratio(a.log_read_ios as f64, a.cycles as f64),
    );
    put(
        &mut v,
        "wal.log_cache_hit_ratio",
        ratio(
            a.log_cache_hits as f64,
            (a.log_cache_hits + a.log_read_ios) as f64,
        ),
    );
    put(
        &mut v,
        "recovery.prepare_page_us_p50",
        r.asof_prepare.p50() as f64,
    );
    put(
        &mut v,
        "recovery.records_undone_per_page",
        ratio(a.records_undone as f64, a.pages_prepared as f64),
    );
    put(
        &mut v,
        "recovery.fpi_restores_per_page",
        ratio(a.fpi_restores as f64, a.pages_prepared as f64),
    );

    // restart and repair
    let rs = &s.restart;
    put_median(&mut v, "recovery.analysis_ms", &rs.analysis_ms);
    put_median(&mut v, "recovery.redo_ms", &rs.redo_ms);
    put_median(&mut v, "recovery.undo_ms", &rs.undo_ms);
    put_median(&mut v, "recovery.unattributed_ms", &rs.unattributed_ms);
    put_median(&mut v, "recovery.records_scanned", &rs.records_scanned);
    put_median(&mut v, "recovery.records_redone", &rs.records_redone);
    put_median(&mut v, "recovery.records_undone", &rs.records_undone);
    put_median(&mut v, "recovery.redo_worker_skew", &rs.worker_skew);
    let rp = &s.repair;
    put_median(&mut v, "repair.harvest_ms", &rp.harvest_ms);
    put_median(&mut v, "repair.plan_ms", &rp.plan_ms);
    put_median(&mut v, "repair.apply_ms", &rp.apply_ms);
    put_median(&mut v, "repair.harvest_mib_per_s", &rp.harvest_mib_per_s);
    put_median(&mut v, "repair.keys_examined", &rp.keys_examined);
    put_median(&mut v, "repair.rows_applied", &rp.rows_applied);
    put_median(&mut v, "repair.conflicts_skipped", &rp.conflicts_skipped);

    // probes
    put(&mut v, "txn.lock_acquire_ns", p.lock_acquire_ns);
    put(&mut v, "access.get_ns", p.get_ns);
    put(&mut v, "access.pool_reads_per_get", p.pool_reads_per_get);
    put(&mut v, "access.scan_rows_per_s", p.scan_rows_per_s);
    put(&mut v, "buffer.hit_ns", p.hit_ns);
    put(&mut v, "buffer.miss_ns", p.miss_ns);
    put(&mut v, "wal.append_ns", p.append_ns);
    put(&mut v, "wal.get_record_ns", p.get_record_ns);
    put(&mut v, "wal.scan_mib_per_s", p.scan_mib_per_s);
    put(&mut v, "wal.split_search_us", p.split_search_us);

    // the run itself: what spans cost, over the window and round by round
    let by_round: Vec<f64> = s
        .batches
        .iter()
        .filter_map(|b| b.trace_overhead_pct)
        .collect();
    let (q1, _, q3) = quartiles(&by_round);
    let overall = s.terminals.by_side.as_ref().and_then(trace_overhead_pct);
    v.insert(
        "obs.trace_overhead_pct",
        (overall.unwrap_or(0.0), by_round.len()),
    );
    v.insert("obs.trace_overhead_iqr_pct", (q3 - q1, by_round.len()));
    put(&mut v, "bench.cpu_steal_pct", r.steal_pct);
    put(
        &mut v,
        "bench.calib_spread_pct",
        noise::calib_spread_pct(&s.calib_ns),
    );
    put(&mut v, "bench.window_s", r.window_s);
    put(
        &mut v,
        "bench.asof_beside_share",
        ratio(s.looper_beside_s, s.looper_s),
    );
    put(&mut v, "bench.samples_min", samples_min(e2e) as f64);
    put(
        &mut v,
        "bench.generator_threads",
        w.generator_threads() as f64,
    );
    v
}

/// Per transaction type: samples, median, and the highest percentile that
/// still has ten samples beyond it.
pub fn print_latencies(r: &RunReport) {
    println!("-- transaction latency over the OLTP batches, us --");
    let kinds = [
        "new_order",
        "payment",
        "order_status",
        "delivery",
        "stock_level",
    ];
    for (kind, lat) in kinds.iter().zip(&r.samples.terminals.lat_us) {
        let lat = sorted(lat.clone());
        let (p, tail) = highest_supported_percentile(&lat, 10);
        println!(
            "{kind:<14} n={:<6} p50 {:>10.1}   p{p:<4} {tail:>10.1}",
            lat.len(),
            quantile(&lat, 0.5)
        );
    }
}

/// The workload's traffic claims that this traced run's readings do not meet.
pub fn unmet_claims(w: &Workload, layers: &Values) -> Vec<String> {
    w.claims
        .iter()
        .filter_map(|c| {
            let got = layers.get(c.metric).map_or(f64::NAN, |v| v.0);
            let met = if c.at_least {
                got >= c.value
            } else {
                got <= c.value
            };
            (!met).then(|| {
                format!(
                    "{} is {got:.4}, {} claims {} {}",
                    c.metric,
                    w.name,
                    if c.at_least { "at least" } else { "at most" },
                    c.value
                )
            })
        })
        .collect()
}

pub fn is_noisy(r: &RunReport) -> bool {
    r.steal_pct > noise::STEAL_LIMIT_PCT
        || noise::calib_spread_pct(&r.samples.calib_ns) > noise::CALIB_LIMIT_PCT
}

/// `{"name": {"value": .., "unit": ".."}}` for the given metrics, in the
/// spec's order; a metric the run did not produce is an error.
fn metrics_json(values: &Values, names: &[(&'static str, &'static str)]) -> Result<Json, String> {
    names
        .iter()
        .map(|(name, unit)| {
            let (value, _) = values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            Ok((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str((*unit).into())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()
        .map(Json::Obj)
}

pub fn e2e_names() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

/// A finished run, as the result file and the result line carry it.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub rounds: usize,
    pub label: String,
    pub noisy: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Traced runs: what the workload claims of its traffic and did not show.
    pub unmet_claims: Vec<String>,
    /// Round by round, what tells a slow stretch of the host from a slow run.
    pub by_round: Vec<(&'static str, Vec<f64>)>,
    pub e2e: Values,
    pub layers: Option<Values>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`; the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub fn result_line(&self) -> Result<String, String> {
        let metrics = match &self.layers {
            Some(layers) => metrics_json(layers, &layer_names())?,
            None => metrics_json(&self.e2e, &e2e_names())?,
        };
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .compact())
    }

    /// The result file: the line's content plus what explains it.
    pub fn file_json(&self) -> Result<Json, String> {
        let mut metrics = match metrics_json(&self.e2e, &e2e_names())? {
            Json::Obj(f) => f,
            _ => unreachable!("metrics_json returns an object"),
        };
        if let Some(layers) = &self.layers {
            if let Json::Obj(f) = metrics_json(layers, &layer_names())? {
                metrics.extend(f);
            }
        }
        let samples = self
            .e2e
            .iter()
            .map(|(name, (_, n))| (name.to_string(), Json::Num(*n as f64)))
            .collect();
        Ok(Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Num(self.trace as u8 as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("label", Json::Str(self.label.clone())),
            ("nproc", Json::Num(noise::nproc() as f64)),
            ("kernel", Json::Str(noise::kernel())),
            ("noisy", Json::Bool(self.noisy)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "unmet_claims",
                Json::Arr(self.unmet_claims.iter().cloned().map(Json::Str).collect()),
            ),
            ("samples", Json::Obj(samples)),
            (
                "by_round",
                Json::Obj(
                    self.by_round
                        .iter()
                        .map(|(name, values)| {
                            let values = values.iter().map(|v| Json::Num(*v)).collect();
                            (name.to_string(), Json::Arr(values))
                        })
                        .collect(),
                ),
            ),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    /// Every metric by name and unit, for a person.
    pub fn print_table(&self) {
        let row = |name: &str, unit: &str, values: &Values| {
            if let Some((value, n)) = values.get(name) {
                println!("{name:<36} {value:>16.4} {unit:<6} (n={n})");
            }
        };
        println!(
            "-- end to end{} --",
            if self.trace {
                " (traced run: informational)"
            } else {
                ""
            }
        );
        for m in &END_TO_END {
            row(m.name, m.unit, &self.e2e);
        }
        if let Some(layers) = &self.layers {
            println!("-- per layer --");
            for m in &PER_LAYER {
                row(m.name, m.unit, layers);
            }
        }
    }
}

pub fn outcome(
    opt: &RunOptions,
    label: &str,
    r: &RunReport,
    layers: Option<(&[&Tracer], &Probes)>,
) -> Outcome {
    let e2e = end_to_end(r);
    let layers = layers.map(|(tracers, probes)| per_layer(r, &e2e, tracers, probes, opt));
    Outcome {
        workload: opt.workload.name,
        seed: opt.seed,
        trace: opt.trace,
        rounds: r.rounds,
        label: label.to_string(),
        noisy: is_noisy(r),
        attempted: r.samples.ops.attempted,
        failed: r.samples.ops.failed,
        errors: r.samples.ops.errors.clone(),
        unmet_claims: layers
            .as_ref()
            .map_or_else(Vec::new, |l| unmet_claims(opt.workload, l)),
        by_round: by_round(r),
        e2e,
        layers,
    }
}

//! `--compare <dir A> <dir B>`: do two sets of runs agree within the
//! benchmark's own bounds? And `--pack`, which folds a directory of result
//! files into one baseline file per workload.

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};
use std::path::Path;

/// The result files under `dir`: single runs, or baseline files holding a
/// `runs` array. Span files are skipped.
pub fn load_runs(dir: &Path) -> Result<Vec<Json>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        match json.get("runs").and_then(Json::as_arr) {
            Some(inner) => runs.extend(inner.iter().cloned()),
            None => runs.push(json),
        }
    }
    Ok(runs)
}

fn of_workload<'a>(runs: &'a [Json], workload: &str, trace: f64) -> Vec<&'a Json> {
    runs.iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(trace)
        })
        .collect()
}

fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn flagged(runs: &[&Json], key: &str, bad: bool) -> bool {
    runs.iter()
        .any(|r| r.get(key).and_then(Json::as_bool) == Some(bad))
}

/// Prints the comparison; `Ok(true)` when no metric of B is worse than A's by
/// more than its bound.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    println!("A = {}\nB = {}", a.display(), b.display());
    println!("diff is B against A, positive when B is worse; spread is (q3 - q1) / median");
    let (mut worse, mut better, mut unresolved) = (0, 0, 0);
    for w in &WORKLOADS {
        let (ra, rb) = (
            of_workload(&runs_a, w.name, 0.0),
            of_workload(&runs_b, w.name, 0.0),
        );
        if ra.is_empty() && rb.is_empty() {
            continue;
        }
        let noisy = flagged(&ra, "noisy", true) || flagged(&rb, "noisy", true);
        let incorrect = flagged(&ra, "correct", false) || flagged(&rb, "correct", false);
        println!(
            "\n{} (A: {} runs, B: {} runs){}{}",
            w.name,
            ra.len(),
            rb.len(),
            if noisy {
                "  [a run was marked noisy]"
            } else {
                ""
            },
            if incorrect {
                "  [a run was NOT correct]"
            } else {
                ""
            }
        );
        println!(
            "{:<22} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
            "metric", "A median", "spread", "B median", "spread", "diff", "bound"
        );
        for m in &END_TO_END {
            let (va, vb) = (values(&ra, m.name), values(&rb, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{:<22} missing on one side", m.name);
                unresolved += 1;
                continue;
            }
            let (median_a, median_b) = (quartiles(&va).1, quartiles(&vb).1);
            let (spread_a, spread_b) = (spread(&va), spread(&vb));
            let diff = m.better.worsening(median_a, median_b);
            // every run of one side better than every run of the other
            let separated = |good: &[f64], bad: &[f64]| {
                good.iter()
                    .all(|g| bad.iter().all(|x| m.better.worsening(*g, *x) > 0.0))
            };
            let verdict = if diff > m.bound {
                worse += 1;
                "worse"
            } else if diff < -m.bound {
                better += 1;
                "better"
            } else if (spread_a > m.bound || spread_b > m.bound)
                && !separated(&vb, &va)
                && !separated(&va, &vb)
            {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<22} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>+7.1}% {:>5.0}%  {}{}",
                m.name,
                median_a,
                100.0 * spread_a,
                median_b,
                100.0 * spread_b,
                100.0 * diff,
                100.0 * m.bound,
                verdict,
                if noisy && verdict != "ok" {
                    " (noisy host)"
                } else {
                    ""
                }
            );
        }
    }
    println!(
        "\nbeyond a bound: {worse} worse, {better} better; {unresolved} unresolved \
         (spread wider than the bound)"
    );
    Ok(worse == 0 && !flagged(&runs_b.iter().collect::<Vec<_>>(), "correct", false))
}

/// Fold the result files of `dir` into `<dest>/<workload>.json`, one per
/// workload, each holding every run of that workload.
pub fn pack(dir: &Path, dest: &Path) -> Result<(), String> {
    let runs = load_runs(dir)?;
    std::fs::create_dir_all(dest).map_err(|e| format!("{}: {e}", dest.display()))?;
    for w in &WORKLOADS {
        let mut mine: Vec<&Json> = of_workload(&runs, w.name, 0.0);
        mine.extend(of_workload(&runs, w.name, 1.0));
        let Some(first) = mine.first() else {
            continue;
        };
        let copy = |key: &str| first.get(key).cloned().unwrap_or(Json::Null);
        let file = Json::obj([
            ("workload", Json::Str(w.name.into())),
            ("label", copy("label")),
            ("nproc", copy("nproc")),
            ("kernel", copy("kernel")),
            ("runs", Json::Arr(mine.into_iter().cloned().collect())),
        ]);
        let path = dest.join(format!("{}.json", w.name));
        std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

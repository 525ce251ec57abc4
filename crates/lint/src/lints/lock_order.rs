//! `lock-order`: the annotated acquisition order is a DAG.
//!
//! Nested lock acquisitions are annotated at the acquisition site:
//!
//! ```text
//! // tidy: lock-order(pool_table < side_file) -- miss path installs into the side file
//! ```
//!
//! reading "`pool_table` is (somewhere) held while `side_file` is
//! acquired". All facts across the workspace form one directed graph;
//! any cycle means two code paths can acquire the same pair of locks in
//! opposite orders — a deadlock waiting for the right interleaving — and
//! fails the run, naming the cycle. Unlike a runtime lock witness this
//! costs nothing and fires before the interleaving is ever scheduled;
//! unlike a reviewer it never forgets PR 4's ordering while reading PR 9.

use std::collections::BTreeMap;

use crate::report::{Finding, LockOrderFact};

pub fn check(facts: &[LockOrderFact], out: &mut Vec<Finding>) {
    if facts.is_empty() {
        return;
    }
    // Adjacency: first → then. BTreeMap for deterministic reporting.
    let mut edges: BTreeMap<&str, Vec<&LockOrderFact>> = BTreeMap::new();
    for f in facts {
        edges.entry(f.first.as_str()).or_default().push(f);
    }
    // Iterative DFS with colouring; on a back edge, reconstruct the cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour: BTreeMap<&str, Colour> = BTreeMap::new();
    let nodes: Vec<&str> = facts
        .iter()
        .flat_map(|f| [f.first.as_str(), f.then.as_str()])
        .collect();
    for &n in &nodes {
        colour.entry(n).or_insert(Colour::White);
    }
    for &start in &nodes {
        if colour[start] != Colour::White {
            continue;
        }
        // Stack of (node, fact that led here).
        let mut path: Vec<(&str, Option<&LockOrderFact>)> = vec![(start, None)];
        let mut iters: Vec<usize> = vec![0];
        colour.insert(start, Colour::Grey);
        while let Some(&(node, _)) = path.last() {
            let idx = *iters.last().unwrap_or(&0);
            let next = edges.get(node).and_then(|v| v.get(idx)).copied();
            match next {
                Some(fact) => {
                    *iters.last_mut().expect("iters parallels path") += 1;
                    let to = fact.then.as_str();
                    match colour[to] {
                        Colour::Grey => {
                            // Cycle: slice of `path` from `to` onwards.
                            let pos = path.iter().position(|&(n, _)| n == to).unwrap_or(0);
                            let mut names: Vec<&str> =
                                path[pos..].iter().map(|&(n, _)| n).collect();
                            names.push(to);
                            out.push(Finding {
                                lint: "lock-order",
                                path: fact.path.clone(),
                                line: fact.line,
                                message: format!(
                                    "lock-order cycle: {} — two paths acquire \
                                     these locks in opposite orders (facts at: {})",
                                    names.join(" < "),
                                    path[pos..]
                                        .iter()
                                        .filter_map(|&(_, f)| f)
                                        .chain(std::iter::once(fact))
                                        .map(|f| format!("{}:{}", f.path, f.line))
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                ),
                            });
                            // One cycle report per run is enough to act on.
                            return;
                        }
                        Colour::White => {
                            colour.insert(to, Colour::Grey);
                            path.push((to, Some(fact)));
                            iters.push(0);
                        }
                        Colour::Black => {}
                    }
                }
                None => {
                    colour.insert(node, Colour::Black);
                    path.pop();
                    iters.pop();
                }
            }
        }
    }
}

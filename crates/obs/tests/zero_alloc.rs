//! Allocation proofs for the obs hot path, measured the hard way: a
//! counting `#[global_allocator]` and counter deltas around the measured
//! section (the same technique as `tests/zero_copy_asof.rs`).
//!
//! Two claims, both ROADMAP invariants:
//!
//! * recording an event or a histogram sample on an **enabled** handle
//!   performs zero allocations once the thread is warm;
//! * a **disabled** handle is inert — constructing it, recording into it
//!   and reading its timebase allocate nothing at all.
//!
//! The counters are per thread (`rewind_common::testalloc`), so a delta
//! read around a section sees only that section: the libtest harness and
//! any sibling test allocate on other threads.

use rewind_common::testalloc::{thread_allocations, CountingAllocator};
use rewind_obs::{EventKind, Obs, ObsConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let a0 = thread_allocations();
    f();
    thread_allocations() - a0
}

#[test]
fn hot_path_allocation_proofs() {
    // ---- disabled handle: fully inert ----
    // (Snapshot reads like `commit_latency()` allocate their bucket Vec by
    // design; the inertness claim covers construction and the hot path.)
    let disabled_allocs = allocs_of(|| {
        let off = Obs::new(&ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        });
        for i in 0..1_000u64 {
            off.record(EventKind::CommitDurable, i, i, 1);
            off.commit_latency_us(i);
            off.flush_stall_us(i);
            assert_eq!(off.now_us(), 0, "disabled timebase reads as 0");
        }
        assert!(!off.is_enabled());
        assert_eq!(off.events_recorded(), 0);
    });
    assert_eq!(
        disabled_allocs, 0,
        "disabled obs allocated {disabled_allocs} times (must be 0)"
    );
    let off = Obs::new(&ObsConfig {
        enabled: false,
        ..ObsConfig::default()
    });
    assert_eq!(off.commit_latency().count, 0);

    // ---- enabled handle: allocation-free once warm ----
    // Construction allocates (the ring, the histograms) — by design, once.
    // With the `enabled` cargo feature off, every handle is the inert one
    // already proven above — there is no enabled hot path to measure.
    let obs = Obs::new(&ObsConfig::default());
    if !cfg!(feature = "enabled") {
        assert!(!obs.is_enabled(), "feature off must force-disable obs");
        return;
    }
    assert!(obs.is_enabled());
    // Warm-up: thread-stripe assignment, timebase epoch, any lazy
    // thread-local setup.
    for i in 0..64u64 {
        obs.record(EventKind::CommitBegin, i, i, 0);
        obs.commit_latency_us(i);
        let _ = obs.now_us();
    }
    let warm_allocs = allocs_of(|| {
        for i in 0..10_000u64 {
            obs.record(EventKind::CommitDurable, i, i, 1);
            obs.commit_latency_us(i);
            obs.flush_stall_us(i * 3);
            obs.asof_prepare_us(i * 7);
            let _ = obs.now_us();
        }
    });
    assert_eq!(
        warm_allocs, 0,
        "warm record path allocated {warm_allocs} times over 10k events \
         (must be 0 — the ring and histograms are fixed-capacity)"
    );
    assert_eq!(obs.events_recorded(), 64 + 10_000);
    assert_eq!(obs.commit_latency().count, 64 + 10_000);
}

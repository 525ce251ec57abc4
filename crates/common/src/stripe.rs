//! Generic striped monotonic counters.
//!
//! Several hot paths in the engine (the log read path, the buffer pool's
//! hit path) bump counters on every access. A single shared atomic
//! would bounce its cache line between every core touching it, so the
//! counters are *striped*: [`COUNTER_STRIPES`] cache-line-isolated copies,
//! each thread incrementing only its own stripe (a fixed round-robin
//! assignment for the thread's lifetime). [`StripedCounters::sums`] adds the
//! stripes back up, so every recorded event appears in the aggregate exactly
//! once — striping moves contention, never accuracy.
//!
//! This helper extracts the idiom that `IoStats` (wal/file I/O accounting)
//! and the buffer pool's `PoolStats` previously re-implemented
//! token-for-token: the stripe constant, the `#[repr(align(128))]` padded
//! stripe struct, the thread-local stripe pick, and the sum-on-snapshot.
//! Both now wrap a `StripedCounters<N>` with named accessors; new striped
//! statistics should do the same rather than re-deriving the pattern.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of counter stripes. Power of two so the stripe pick is a mask; a
/// thread's increments are uncontended unless more than this many threads
/// are live at once (then stripes are shared, still correctly).
pub const COUNTER_STRIPES: usize = 16;

/// One cache-line-isolated stripe of `N` counters. The alignment keeps two
/// stripes from sharing a cache line, so threads incrementing different
/// stripes never bounce a line between cores.
#[derive(Debug)]
#[repr(align(128))]
struct Stripe<const N: usize>([AtomicU64; N]);

impl<const N: usize> Stripe<N> {
    fn new() -> Self {
        Stripe(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

static NEXT_STRIPE_SEED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Each thread gets a fixed stripe index for its lifetime (round-robin
    /// assignment). One assignment is shared by every `StripedCounters`
    /// instance — the stripe pick is a property of the thread, not of any
    /// particular counter set.
    static THREAD_STRIPE: usize =
        NEXT_STRIPE_SEED.fetch_add(1, Ordering::Relaxed) as usize & (COUNTER_STRIPES - 1);
}

/// The calling thread's stripe index. Public so striped structures built
/// *outside* this module (the observability layer's histograms and event
/// ring) share the same thread→stripe assignment as the counters — one
/// thread always lands on one stripe, whatever it is recording into.
#[inline]
pub fn thread_stripe() -> usize {
    THREAD_STRIPE.with(|s| *s)
}

/// `N` monotonically increasing `u64` counters, striped per thread.
///
/// Increments are `Relaxed` — these are statistics, not synchronization —
/// and [`StripedCounters::sums`] is an exact aggregate: the sum over all
/// stripes counts every recorded event exactly once. (Like any multi-word
/// statistics read, a snapshot taken while writers are active is not an
/// atomic cut across counters; quiesce first when exactness across counters
/// matters, as the serial-trace accounting tests do.)
#[derive(Debug)]
pub struct StripedCounters<const N: usize> {
    stripes: [Stripe<N>; COUNTER_STRIPES],
}

impl<const N: usize> StripedCounters<N> {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        StripedCounters {
            stripes: std::array::from_fn(|_| Stripe::new()),
        }
    }

    /// Add `n` to counter `counter` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, counter: usize, n: u64) {
        self.stripes[thread_stripe()].0[counter].fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 to counter `counter`.
    #[inline]
    pub fn incr(&self, counter: usize) {
        self.add(counter, 1);
    }

    /// Raise counter `counter` on the calling thread's stripe to at least
    /// `v` (a striped running maximum; read back with
    /// [`StripedCounters::max_of`]). Mixing `add` and `max_up` on the same
    /// counter index is a caller bug — `sums` would add stripe maxima.
    #[inline]
    pub fn max_up(&self, counter: usize, v: u64) {
        self.stripes[thread_stripe()].0[counter].fetch_max(v, Ordering::Relaxed);
    }

    /// Aggregate of a [`StripedCounters::max_up`]-maintained counter: the
    /// maximum over all stripes.
    pub fn max_of(&self, counter: usize) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0[counter].load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Exact aggregate of every counter (sum over stripes).
    pub fn sums(&self) -> [u64; N] {
        let mut out = [0u64; N];
        for stripe in &self.stripes {
            for (o, c) in out.iter_mut().zip(stripe.0.iter()) {
                *o += c.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Exact aggregate of one counter.
    pub fn sum(&self, counter: usize) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0[counter].load(Ordering::Relaxed))
            .sum()
    }
}

impl<const N: usize> Default for StripedCounters<N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_is_exact_across_more_threads_than_stripes() {
        let c = std::sync::Arc::new(StripedCounters::<3>::new());
        let threads = 2 * COUNTER_STRIPES;
        let per_thread = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.incr(0);
                        c.add(1, 2);
                        c.add(2, 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = threads as u64 * per_thread;
        assert_eq!(c.sums(), [n, 2 * n, 3 * n]);
        assert_eq!(c.sum(2), 3 * n);
    }

    #[test]
    fn stripes_are_cache_line_isolated() {
        assert!(std::mem::align_of::<Stripe<1>>() >= 128);
        assert!(std::mem::size_of::<Stripe<1>>() >= 128);
        // a stripe never spans into its neighbour's line
        assert_eq!(std::mem::size_of::<Stripe<8>>() % 128, 0);
    }
}

//! Admission control: the server-side half of the merge feedback loop.
//!
//! A table's [`hyrise_core::MergePolicy`] adapts *merges* to load (an
//! earlier trigger under writes, a smaller budget under memory pressure);
//! this module closes the loop from the other side by adapting *load* to
//! what the engine can absorb. Two independent valves:
//!
//! * **Reads** are gated on memory *and* on the worker pool's backlog:
//!   below a soft memory limit with a shallow pool queue they pass; while
//!   memory sits between the soft and hard limit **or** the pool's
//!   queued-but-unclaimed task count exceeds [`AdmissionConfig::pool_queue_limit`]
//!   (every worker busy and morsels piling up — adding queries would only
//!   deepen the backlog) they wait in a bounded queue; above the hard
//!   memory limit or after a bounded wait they are *shed* with a typed
//!   rejection. Both pressures are usually transient — a merge in flight
//!   holds both copies of a column, a queued morsel drains in
//!   microseconds. No read ever blocks unboundedly: the queue has a
//!   capacity and every queued read a deadline.
//! * **Writes** are gated on the race the paper's Equation 1 describes:
//!   the sustainable update rate is bounded by how fast merges drain the
//!   delta. The gate samples the insert rate and the merge drain rate
//!   over a sliding window; when the delta backlog exceeds a limit *and*
//!   inserts are outrunning merges, writers get a 429-style
//!   [`WriteAdmission::Throttle`] with a suggested back-off, until the
//!   backlog drains below a release fraction (hysteresis, so the valve
//!   does not flap at the boundary).
//!
//! Decisions are pure functions ([`decide_read`] / [`decide_write`]) over
//! sampled signals, so the boundary conditions are unit-testable without
//! a server, a table, or a clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Tuning knobs for an [`AdmissionGate`].
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Reads pass immediately while the sampled table memory is at or
    /// below this (bytes).
    pub memory_queue_limit: usize,
    /// Reads are shed outright while memory exceeds this (bytes); between
    /// the two limits they queue.
    pub memory_shed_limit: usize,
    /// Max reads waiting in the queue at once; arrivals beyond it shed.
    pub queue_capacity: usize,
    /// Max time a read waits before it sheds (the no-request-ever-hangs
    /// bound).
    pub queue_timeout: Duration,
    /// Reads queue while the shared worker pool reports more
    /// queued-but-unclaimed tasks than this — the workers are saturated
    /// and admitting more morsel-parallel queries would only deepen the
    /// backlog. The pool drains fast, so this queues rather than sheds.
    pub pool_queue_limit: usize,
    /// Re-sample interval while queued.
    pub queue_poll: Duration,
    /// Writes throttle once the delta backlog (unmerged rows) exceeds
    /// this while the insert rate also exceeds the merge drain rate.
    pub write_backlog_limit: usize,
    /// Hysteresis: a throttling table readmits writes only once its
    /// backlog falls below `write_backlog_limit * write_release_fraction`.
    pub write_release_fraction: f64,
    /// Back-off suggested to throttled writers.
    pub throttle_retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            memory_queue_limit: 1 << 30, // 1 GiB
            memory_shed_limit: 3 << 29,  // 1.5 GiB
            queue_capacity: 64,
            queue_timeout: Duration::from_millis(500),
            queue_poll: Duration::from_millis(2),
            // A few unclaimed tasks per hardware thread is normal fan-out
            // churn; beyond that the pool is saturated.
            pool_queue_limit: 4 * hyrise_core::pool::default_threads(),
            write_backlog_limit: 1 << 20, // 1M unmerged rows
            write_release_fraction: 0.5,
            throttle_retry_after: Duration::from_millis(25),
        }
    }
}

/// What [`decide_read`] says about one read arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadDecision {
    /// Run it now.
    Admit,
    /// Wait and re-sample (memory is elevated but below the shed line).
    Queue,
    /// Reject it (memory above the shed line, or the queue is full).
    Shed,
}

/// Pure read-admission decision over sampled signals.
///
/// `pool_queue_depth` is the worker pool's queued-but-unclaimed task
/// count; past [`AdmissionConfig::pool_queue_limit`] it queues the read
/// (never sheds on its own — the pool drains fast, memory does not).
/// `queued_others` is the number of *other* reads currently waiting (a
/// queued read excludes itself, so arrivals can fill the queue without
/// evicting the reads already in it).
pub fn decide_read(
    cfg: &AdmissionConfig,
    memory_bytes: usize,
    pool_queue_depth: usize,
    queued_others: usize,
) -> ReadDecision {
    if memory_bytes > cfg.memory_shed_limit {
        ReadDecision::Shed
    } else if memory_bytes <= cfg.memory_queue_limit && pool_queue_depth <= cfg.pool_queue_limit {
        ReadDecision::Admit
    } else if queued_others >= cfg.queue_capacity {
        ReadDecision::Shed
    } else {
        ReadDecision::Queue
    }
}

/// What [`decide_write`] says about one write arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteDecision {
    /// Run it now.
    Admit,
    /// Reject with a back-off: the delta is backed up and inserts are
    /// outrunning the merge drain.
    Throttle,
}

/// Pure write-admission decision over sampled signals.
///
/// `throttling` is the table's current valve state; the release threshold
/// sits below the engage threshold (`write_release_fraction`) so the
/// decision has hysteresis instead of flapping once the backlog oscillates
/// around the limit. While engaged, the valve stays closed until the
/// backlog drains regardless of the instantaneous rates (a merge round can
/// briefly out-pace a paused writer without meaning the crisis is over).
pub fn decide_write(
    cfg: &AdmissionConfig,
    backlog_rows: usize,
    insert_rate: f64,
    merge_rate: f64,
    throttling: bool,
) -> WriteDecision {
    if throttling {
        let release = cfg.write_backlog_limit as f64 * cfg.write_release_fraction;
        if (backlog_rows as f64) < release {
            WriteDecision::Admit
        } else {
            WriteDecision::Throttle
        }
    } else if backlog_rows > cfg.write_backlog_limit && insert_rate > merge_rate {
        WriteDecision::Throttle
    } else {
        WriteDecision::Admit
    }
}

/// Per-table sliding window the write valve samples its rates from, plus
/// the valve's hysteresis state. The server keeps one per catalog entry.
#[derive(Debug)]
pub struct RateWindow {
    at: Instant,
    inserted: u64,
    merged: u64,
    insert_rate: f64,
    merge_rate: f64,
    throttling: bool,
}

/// Minimum window width before rates are recomputed; below it the cached
/// rates are reused (sub-millisecond windows would just measure noise).
const MIN_WINDOW: Duration = Duration::from_millis(20);

impl RateWindow {
    /// A fresh window with zero rates.
    pub fn new() -> Self {
        Self {
            at: Instant::now(),
            inserted: 0,
            merged: 0,
            insert_rate: 0.0,
            merge_rate: 0.0,
            throttling: false,
        }
    }

    /// Feed the cumulative counters (rows ever inserted, rows ever moved
    /// by merges) and get back the windowed `(insert_rate, merge_rate)`
    /// in rows/second. This is Equation 1's accounting: the sustainable
    /// update rate over an interval is the updates divided by the wall
    /// time *including* the merge work the updates caused —
    /// [`hyrise_core::update_rate`] over the sampling window.
    pub fn observe(&mut self, inserted: u64, merged: u64) -> (f64, f64) {
        let elapsed = self.at.elapsed();
        if elapsed >= MIN_WINDOW {
            let secs = elapsed.as_secs_f64();
            let d_ins = inserted.saturating_sub(self.inserted);
            let d_mrg = merged.saturating_sub(self.merged);
            self.insert_rate = hyrise_core::update_rate(d_ins as usize, elapsed, Duration::ZERO);
            self.merge_rate = d_mrg as f64 / secs;
            self.at = Instant::now();
            self.inserted = inserted;
            self.merged = merged;
        }
        (self.insert_rate, self.merge_rate)
    }

    /// Current valve state.
    pub fn throttling(&self) -> bool {
        self.throttling
    }
}

impl Default for RateWindow {
    fn default() -> Self {
        Self::new()
    }
}

/// How one read fared at the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadAdmission {
    /// Admitted; `waited` is zero unless the read queued, `queued` says
    /// whether it did.
    Admit {
        /// Time spent waiting in the queue.
        waited: Duration,
        /// Whether the read passed through the queue at all.
        queued: bool,
    },
    /// Rejected after at most `queue_timeout`.
    Shed,
}

/// How one write fared at the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteAdmission {
    /// Admitted.
    Admit,
    /// Rejected; the client should back off for `retry_after`.
    Throttle {
        /// Suggested back-off.
        retry_after: Duration,
    },
}

/// The server's admission valve: pure decisions plus the counters that
/// make its behavior observable over the wire (`ServerStats`).
#[derive(Debug)]
pub struct AdmissionGate {
    cfg: AdmissionConfig,
    queued_now: AtomicU64,
    admitted_reads: AtomicU64,
    queued_reads: AtomicU64,
    shed_reads: AtomicU64,
    admitted_writes: AtomicU64,
    throttled_writes: AtomicU64,
}

/// Snapshot of an [`AdmissionGate`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Reads admitted without queueing.
    pub admitted_reads: u64,
    /// Reads admitted after a queue wait.
    pub queued_reads: u64,
    /// Reads rejected.
    pub shed_reads: u64,
    /// Writes admitted.
    pub admitted_writes: u64,
    /// Writes rejected by the throttle valve.
    pub throttled_writes: u64,
    /// Reads waiting in the queue right now.
    pub reads_queued_now: u64,
}

impl AdmissionGate {
    /// Build a gate with the given knobs.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            queued_now: AtomicU64::new(0),
            admitted_reads: AtomicU64::new(0),
            queued_reads: AtomicU64::new(0),
            shed_reads: AtomicU64::new(0),
            admitted_writes: AtomicU64::new(0),
            throttled_writes: AtomicU64::new(0),
        }
    }

    /// The gate's configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Gate one read. `memory` and `pool_depth` are re-sampled on every
    /// poll so a pressure spike that resolves (a merge commits and retires
    /// its spare copy; the pool drains its morsel backlog) lets queued
    /// reads through. Returns within `queue_timeout` + one poll, worst
    /// case — the no-hang guarantee the integration tests assert.
    pub fn admit_read(
        &self,
        mut memory: impl FnMut() -> usize,
        mut pool_depth: impl FnMut() -> usize,
    ) -> ReadAdmission {
        let start = Instant::now();
        let mut queued = false;
        loop {
            let others = (self.queued_now.load(Ordering::Relaxed) as usize)
                .saturating_sub(usize::from(queued));
            match decide_read(&self.cfg, memory(), pool_depth(), others) {
                ReadDecision::Admit => {
                    if queued {
                        self.queued_now.fetch_sub(1, Ordering::Relaxed);
                        self.queued_reads.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.admitted_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    return ReadAdmission::Admit {
                        waited: start.elapsed(),
                        queued,
                    };
                }
                ReadDecision::Shed => {
                    if queued {
                        self.queued_now.fetch_sub(1, Ordering::Relaxed);
                    }
                    self.shed_reads.fetch_add(1, Ordering::Relaxed);
                    return ReadAdmission::Shed;
                }
                ReadDecision::Queue => {
                    if !queued {
                        queued = true;
                        self.queued_now.fetch_add(1, Ordering::Relaxed);
                    }
                    if start.elapsed() >= self.cfg.queue_timeout {
                        self.queued_now.fetch_sub(1, Ordering::Relaxed);
                        self.shed_reads.fetch_add(1, Ordering::Relaxed);
                        return ReadAdmission::Shed;
                    }
                    std::thread::sleep(self.cfg.queue_poll);
                }
            }
        }
    }

    /// Gate one write against a table's rate window and current backlog.
    /// `inserted`/`merged` are the table's cumulative counters.
    pub fn admit_write(
        &self,
        window: &mut RateWindow,
        backlog_rows: usize,
        inserted: u64,
        merged: u64,
    ) -> WriteAdmission {
        let (insert_rate, merge_rate) = window.observe(inserted, merged);
        match decide_write(
            &self.cfg,
            backlog_rows,
            insert_rate,
            merge_rate,
            window.throttling,
        ) {
            WriteDecision::Admit => {
                window.throttling = false;
                self.admitted_writes.fetch_add(1, Ordering::Relaxed);
                WriteAdmission::Admit
            }
            WriteDecision::Throttle => {
                window.throttling = true;
                self.throttled_writes.fetch_add(1, Ordering::Relaxed);
                WriteAdmission::Throttle {
                    retry_after: self.cfg.throttle_retry_after,
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted_reads: self.admitted_reads.load(Ordering::Relaxed),
            queued_reads: self.queued_reads.load(Ordering::Relaxed),
            shed_reads: self.shed_reads.load(Ordering::Relaxed),
            admitted_writes: self.admitted_writes.load(Ordering::Relaxed),
            throttled_writes: self.throttled_writes.load(Ordering::Relaxed),
            reads_queued_now: self.queued_now.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            memory_queue_limit: 1_000,
            memory_shed_limit: 2_000,
            queue_capacity: 4,
            queue_timeout: Duration::from_millis(30),
            queue_poll: Duration::from_millis(1),
            pool_queue_limit: 8,
            write_backlog_limit: 100,
            write_release_fraction: 0.5,
            throttle_retry_after: Duration::from_millis(10),
        }
    }

    #[test]
    fn default_pool_queue_limit_follows_the_pool_size() {
        assert_eq!(
            AdmissionConfig::default().pool_queue_limit,
            4 * hyrise_core::pool::default_threads()
        );
    }

    #[test]
    fn read_decision_boundaries() {
        let c = cfg();
        // At the queue limit: still admitted (inclusive).
        assert_eq!(decide_read(&c, 1_000, 0, 0), ReadDecision::Admit);
        assert_eq!(decide_read(&c, 1_001, 0, 0), ReadDecision::Queue);
        // At the shed limit: still queued (inclusive); one past sheds.
        assert_eq!(decide_read(&c, 2_000, 0, 0), ReadDecision::Queue);
        assert_eq!(decide_read(&c, 2_001, 0, 0), ReadDecision::Shed);
        // Queue full: arrivals shed even in the queue band.
        assert_eq!(decide_read(&c, 1_500, 0, 3), ReadDecision::Queue);
        assert_eq!(decide_read(&c, 1_500, 0, 4), ReadDecision::Shed);
        // Low memory admits regardless of queue depth.
        assert_eq!(decide_read(&c, 999, 0, 4), ReadDecision::Admit);
    }

    #[test]
    fn deep_pool_queue_gates_reads() {
        let c = cfg();
        // At the pool limit (inclusive): still admitted.
        assert_eq!(decide_read(&c, 0, 8, 0), ReadDecision::Admit);
        // Past it: queue even with memory at zero — the workers are
        // saturated, not out of memory, so the read waits for the drain.
        assert_eq!(decide_read(&c, 0, 9, 0), ReadDecision::Queue);
        // A deep pool queue never sheds on its own...
        assert_eq!(decide_read(&c, 0, 10_000, 0), ReadDecision::Queue);
        // ...until the wait queue itself is full.
        assert_eq!(decide_read(&c, 0, 10_000, 4), ReadDecision::Shed);
        // Hard memory pressure sheds regardless of the pool.
        assert_eq!(decide_read(&c, 2_001, 0, 0), ReadDecision::Shed);
    }

    #[test]
    fn queued_read_admits_when_the_pool_drains() {
        let g = AdmissionGate::new(cfg());
        let polls = std::cell::Cell::new(0u32);
        let adm = g.admit_read(
            || 0,
            || {
                polls.set(polls.get() + 1);
                // Two polls of a saturated pool, then the backlog drains.
                if polls.get() <= 2 {
                    50
                } else {
                    0
                }
            },
        );
        match adm {
            ReadAdmission::Admit { queued, .. } => assert!(queued, "waited out the backlog"),
            other => panic!("{other:?}"),
        }
        assert_eq!(g.stats().queued_reads, 1);
    }

    #[test]
    fn write_decision_boundaries_and_hysteresis() {
        let c = cfg();
        // Backlog at the limit (inclusive): admitted.
        assert_eq!(
            decide_write(&c, 100, 10.0, 1.0, false),
            WriteDecision::Admit
        );
        // Over the limit but merges keeping up: admitted.
        assert_eq!(
            decide_write(&c, 101, 10.0, 10.0, false),
            WriteDecision::Admit
        );
        // Over the limit and inserts outrunning merges: throttled.
        assert_eq!(
            decide_write(&c, 101, 10.0, 9.9, false),
            WriteDecision::Throttle
        );
        // Hysteresis: once throttling, stays closed until below release
        // (50), even if rates momentarily invert.
        assert_eq!(
            decide_write(&c, 60, 0.0, 99.0, true),
            WriteDecision::Throttle
        );
        assert_eq!(
            decide_write(&c, 50, 0.0, 99.0, true),
            WriteDecision::Throttle
        );
        assert_eq!(decide_write(&c, 49, 99.0, 0.0, true), WriteDecision::Admit);
    }

    #[test]
    fn gate_admits_and_counts() {
        let g = AdmissionGate::new(cfg());
        match g.admit_read(|| 0, || 0) {
            ReadAdmission::Admit { queued, .. } => assert!(!queued),
            other => panic!("{other:?}"),
        }
        assert_eq!(g.stats().admitted_reads, 1);
        assert_eq!(g.stats().shed_reads, 0);
    }

    #[test]
    fn gate_sheds_above_hard_limit_immediately() {
        let g = AdmissionGate::new(cfg());
        let t = Instant::now();
        assert_eq!(g.admit_read(|| 5_000, || 0), ReadAdmission::Shed);
        assert!(t.elapsed() < Duration::from_millis(20), "no queue wait");
        assert_eq!(g.stats().shed_reads, 1);
    }

    #[test]
    fn queued_read_sheds_at_the_timeout_never_hangs() {
        let g = AdmissionGate::new(cfg());
        let t = Instant::now();
        // Memory pinned in the queue band: the read waits, then sheds.
        assert_eq!(g.admit_read(|| 1_500, || 0), ReadAdmission::Shed);
        let waited = t.elapsed();
        assert!(waited >= Duration::from_millis(30), "honored the queue");
        assert!(waited < Duration::from_secs(2), "bounded by the timeout");
        assert_eq!(g.stats().reads_queued_now, 0, "queue slot released");
    }

    #[test]
    fn queued_read_admits_when_pressure_resolves() {
        let g = AdmissionGate::new(cfg());
        let calls = std::cell::Cell::new(0u32);
        let adm = g.admit_read(
            || {
                calls.set(calls.get() + 1);
                // Two polls of pressure, then the merge "commits".
                if calls.get() <= 2 {
                    1_500
                } else {
                    100
                }
            },
            || 0,
        );
        match adm {
            ReadAdmission::Admit { queued, .. } => assert!(queued, "went through the queue"),
            other => panic!("{other:?}"),
        }
        assert_eq!(g.stats().queued_reads, 1);
        assert_eq!(
            g.stats().admitted_reads,
            0,
            "queued admits count separately"
        );
    }

    #[test]
    fn write_valve_engages_and_releases_through_the_gate() {
        let g = AdmissionGate::new(cfg());
        let mut w = RateWindow::new();
        // Warm the window so rates exist, then wait out MIN_WINDOW.
        w.observe(0, 0);
        std::thread::sleep(Duration::from_millis(25));
        // 1000 rows inserted, none merged: insert rate wins, backlog 200.
        let adm = g.admit_write(&mut w, 200, 1_000, 0);
        assert!(matches!(adm, WriteAdmission::Throttle { .. }));
        assert!(w.throttling());
        // Backlog drains below release: valve opens.
        let adm = g.admit_write(&mut w, 40, 1_000, 960);
        assert_eq!(adm, WriteAdmission::Admit);
        assert!(!w.throttling());
        let s = g.stats();
        assert_eq!(s.throttled_writes, 1);
        assert_eq!(s.admitted_writes, 1);
    }
}

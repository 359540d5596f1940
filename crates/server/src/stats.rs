//! Server observability: global atomic counters plus a fixed-capacity
//! latency ring for p50/p99 percentiles.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Samples kept for percentile estimation (newest overwrite oldest).
const RING_CAPACITY: usize = 4096;

/// A bounded ring of the most recent request latencies, in microseconds.
///
/// Percentiles are computed over the retained window by sorting a copy —
/// recording stays O(1) on the request path, the cost lands on the rare
/// `Stats` reader.
#[derive(Debug)]
pub struct LatencyRing {
    samples: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    buf: Vec<u64>,
    next: usize,
}

impl Default for LatencyRing {
    fn default() -> Self {
        LatencyRing {
            samples: Mutex::new(RingInner { buf: Vec::with_capacity(RING_CAPACITY), next: 0 }),
        }
    }
}

impl LatencyRing {
    /// Records one request latency.
    pub fn record(&self, micros: u64) {
        let mut inner = self.samples.lock().unwrap_or_else(|p| p.into_inner());
        if inner.buf.len() < RING_CAPACITY {
            inner.buf.push(micros);
        } else {
            let at = inner.next;
            inner.buf[at] = micros;
        }
        inner.next = (inner.next + 1) % RING_CAPACITY;
    }

    /// `(p50, p99)` over the retained window, `(0, 0)` when empty.
    pub fn percentiles(&self) -> (u64, u64) {
        let mut sorted = {
            let inner = self.samples.lock().unwrap_or_else(|p| p.into_inner());
            inner.buf.clone()
        };
        if sorted.is_empty() {
            return (0, 0);
        }
        sorted.sort_unstable();
        let at = |p: f64| sorted[((sorted.len() - 1) as f64 * p).floor() as usize];
        (at(0.50), at(0.99))
    }
}

/// Global server counters. All fields are monotonically increasing
/// except `sessions_active`.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Sessions ever accepted.
    pub sessions_opened: AtomicU64,
    /// Sessions currently being served.
    pub sessions_active: AtomicU64,
    /// Connections refused at the session cap.
    pub sessions_rejected: AtomicU64,
    /// Requests completed (including those answered with an error).
    pub requests: AtomicU64,
    /// Snapshot reads (`Query`, `DumpUniverse`, `Stats`, `Ping`).
    pub reads: AtomicU64,
    /// Writer-serialized requests (`Execute`, `Update`, `RefreshViews`).
    pub writes: AtomicU64,
    /// Requests answered with an error frame.
    pub errors: AtomicU64,
    /// Requests answered `E-TIMEOUT` after queueing past the request
    /// deadline.
    pub timeouts: AtomicU64,
    /// Frames rejected before dispatch (CRC, size cap, bad JSON).
    pub frames_rejected: AtomicU64,
    /// Framing + payload bytes received.
    pub bytes_in: AtomicU64,
    /// Framing + payload bytes sent.
    pub bytes_out: AtomicU64,
    /// Requests answered with an in-order `E-OVERLOAD` load-shed frame
    /// at the global pending-queue cap.
    pub load_shed: AtomicU64,
    /// Sessions closed by the idle reaper.
    pub sessions_reaped: AtomicU64,
    /// Coalesced write batches committed through the group-commit path
    /// (one log append + one fsync per batch).
    pub group_commits: AtomicU64,
    /// Updates acknowledged through those batches. Fsyncs saved by
    /// coalescing is `group_commit_records - group_commits`.
    pub group_commit_records: AtomicU64,
    /// High-water mark of requests queued across all sessions awaiting
    /// dispatch.
    pub queue_depth_peak: AtomicU64,
    /// Request latency window.
    pub latency: LatencyRing,
}

impl ServerStats {
    /// Bumps a counter (relaxed; these are statistics, not locks).
    pub fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// A serializable point-in-time copy. `plan_cache` supplies the
    /// shared snapshot-read plan cache's `(hits, misses)`.
    pub fn snapshot(&self, plan_cache: (u64, u64)) -> ServerStatsSnapshot {
        let (p50_us, p99_us) = self.latency.percentiles();
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerStatsSnapshot {
            sessions_opened: get(&self.sessions_opened),
            sessions_active: get(&self.sessions_active),
            sessions_rejected: get(&self.sessions_rejected),
            requests: get(&self.requests),
            reads: get(&self.reads),
            writes: get(&self.writes),
            errors: get(&self.errors),
            timeouts: get(&self.timeouts),
            frames_rejected: get(&self.frames_rejected),
            bytes_in: get(&self.bytes_in),
            bytes_out: get(&self.bytes_out),
            load_shed: get(&self.load_shed),
            sessions_reaped: get(&self.sessions_reaped),
            group_commits: get(&self.group_commits),
            group_commit_records: get(&self.group_commit_records),
            queue_depth_peak: get(&self.queue_depth_peak),
            p50_us,
            p99_us,
            plan_cache_hits: plan_cache.0,
            plan_cache_misses: plan_cache.1,
        }
    }

    /// Raises a high-water-mark counter to at least `depth`.
    pub fn raise_peak(counter: &AtomicU64, depth: u64) {
        let mut seen = counter.load(Ordering::Relaxed);
        while seen < depth {
            match counter.compare_exchange_weak(seen, depth, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }
}

/// Wire-portable copy of [`ServerStats`] (plus latency percentiles and
/// the shared read-path plan-cache hit counters).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStatsSnapshot {
    /// Sessions ever accepted.
    pub sessions_opened: u64,
    /// Sessions currently being served.
    pub sessions_active: u64,
    /// Connections refused at the session cap.
    pub sessions_rejected: u64,
    /// Requests completed (including errors).
    pub requests: u64,
    /// Snapshot reads.
    pub reads: u64,
    /// Writer-serialized requests.
    pub writes: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Deadline-exceeded requests.
    pub timeouts: u64,
    /// Frames rejected before dispatch.
    pub frames_rejected: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes sent.
    pub bytes_out: u64,
    /// In-order `E-OVERLOAD` load-shed answers. Optional on
    /// the wire: replies from servers predating the event loop decode
    /// as zero, and older clients ignore the field.
    #[serde(default)]
    pub load_shed: u64,
    /// Sessions closed by the idle reaper.
    #[serde(default)]
    pub sessions_reaped: u64,
    /// Coalesced write batches committed.
    #[serde(default)]
    pub group_commits: u64,
    /// Updates acknowledged through coalesced batches.
    #[serde(default)]
    pub group_commit_records: u64,
    /// High-water mark of queued requests across all sessions.
    #[serde(default)]
    pub queue_depth_peak: u64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Snapshot-read plans served from the shared cache.
    pub plan_cache_hits: u64,
    /// Snapshot-read plans compiled on miss.
    pub plan_cache_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_percentiles() {
        let ring = LatencyRing::default();
        assert_eq!(ring.percentiles(), (0, 0));
        for us in 1..=100 {
            ring.record(us);
        }
        let (p50, p99) = ring.percentiles();
        assert_eq!(p50, 50);
        assert_eq!(p99, 99);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = LatencyRing::default();
        for _ in 0..RING_CAPACITY {
            ring.record(1);
        }
        for _ in 0..RING_CAPACITY {
            ring.record(1000);
        }
        assert_eq!(ring.percentiles(), (1000, 1000));
    }
}

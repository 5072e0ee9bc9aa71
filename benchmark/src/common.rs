//! Pieces every workload shares: the seeded generator, percentiles, the
//! per-run result type and the benchmark's own span recorder.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::host::ThreadStat;

/// splitmix64: tiny, dependency-free and identical on every platform, so
/// a seed is the whole input description.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform draw in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// FNV-1a over a byte stream: the determinism digest of a run's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold one integer into the digest, byte by byte.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// What one execution (one deployment, one sub-seed) of a workload
/// produced. Everything here is virtual-clock or a count, and repeats
/// exactly for one sub-seed; the harness pools several parts per run.
#[derive(Debug, Default, Clone)]
pub struct Part {
    /// Operations attempted (requests, one-way messages or steps).
    pub ops: u64,
    /// Operations that errored, got a wrong or missing reply, or
    /// diverged from the golden run.
    pub failed: u64,
    /// Digest of every application-visible output and virtual timestamp.
    pub digest: u64,
    /// DES dispatches summed over the part's simulations.
    pub dispatches: u64,
    /// Host milliseconds spent in `CellPilotConfig::check`.
    pub check_ms: f64,
    /// Named virtual samples, pooled across parts (`lat` holds the
    /// per-operation latencies the percentiles are taken over).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Named totals, summed across parts.
    pub sums: BTreeMap<String, f64>,
    /// Named maxima, maximised across parts.
    pub maxes: BTreeMap<String, f64>,
    /// Why operations failed, for the report.
    pub errors: Vec<String>,
    /// Spans the benchmark recorded around its calls (traced runs).
    pub spans: Vec<Span>,
}

impl Part {
    /// Append one virtual sample to the group `name`.
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// Add `v` to the total `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.sums.entry(name.to_string()).or_default() += v;
    }

    /// Raise the maximum `name` to at least `v`.
    pub fn max(&mut self, name: &str, v: f64) {
        let e = self.maxes.entry(name.to_string()).or_insert(v);
        *e = e.max(v);
    }
}

/// Parts pooled into one: samples concatenated, totals summed, maxima
/// maximised, digests chained in part order.
pub fn pool(parts: &[Part]) -> Part {
    let mut out = Part::default();
    let mut digest = Digest::default();
    for p in parts {
        out.ops += p.ops;
        out.failed += p.failed;
        out.dispatches += p.dispatches;
        out.check_ms += p.check_ms;
        digest.u64(p.digest);
        for (k, v) in &p.samples {
            out.samples.entry(k.clone()).or_default().extend(v);
        }
        for (k, v) in &p.sums {
            out.add(k, *v);
        }
        for (k, v) in &p.maxes {
            out.max(k, *v);
        }
        out.errors.extend(p.errors.iter().cloned());
        out.spans.extend(p.spans.iter().cloned());
    }
    out.digest = digest.0;
    out
}

/// Sorted copy of the pooled sample group `name` (empty when absent).
pub fn sorted(p: &Part, name: &str) -> Vec<f64> {
    let mut v = p.samples.get(name).cloned().unwrap_or_default();
    v.sort_by(f64::total_cmp);
    v
}

/// The pooled total `name`, 0 when absent.
pub fn sum(p: &Part, name: &str) -> f64 {
    p.sums.get(name).copied().unwrap_or(0.0)
}

/// One span the benchmark recorded around a call into a layer. Host
/// times are ns since the span log was opened; virtual times are the
/// simulator's ns.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.front_write`.
    pub name: &'static str,
    /// Operation the span belongs to (request id, message index, step).
    pub op: u64,
    /// Host start, ns.
    pub host_start_ns: u64,
    /// Host end, ns.
    pub host_end_ns: u64,
    /// Virtual start, ns.
    pub virt_start_ns: u64,
    /// Virtual end, ns.
    pub virt_end_ns: u64,
}

/// In-memory span log, shared by the simulated processes of one run,
/// together with the simulation-thread snapshots taken from inside each
/// deployment. Disabled logs record nothing and cost one branch per call.
#[derive(Clone, Default)]
pub struct SpanLog {
    inner: Option<Arc<SpanState>>,
}

struct SpanState {
    opened: Instant,
    spans: Mutex<Vec<Span>>,
    /// Latest figures per thread id.
    threads: Mutex<BTreeMap<u64, ThreadStat>>,
}

impl SpanLog {
    /// A log that records.
    pub fn enabled() -> SpanLog {
        SpanLog {
            inner: Some(Arc::new(SpanState {
                opened: Instant::now(),
                spans: Mutex::new(Vec::new()),
                threads: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Run `f` inside a span named `name`; `now` reads the virtual clock.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        now: impl Fn() -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(inner) = &self.inner else {
            return f();
        };
        let virt_start_ns = now();
        let host_start_ns = inner.opened.elapsed().as_nanos() as u64;
        let out = f();
        let host_end_ns = inner.opened.elapsed().as_nanos() as u64;
        let virt_end_ns = now();
        inner.spans.lock().expect("span log poisoned").push(Span {
            name,
            op,
            host_start_ns,
            host_end_ns,
            virt_start_ns,
            virt_end_ns,
        });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner.spans.lock().expect("span log poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// Record the CPU time and context switches of every live simulation
    /// thread. Call from inside a deployment near its end, from each
    /// process that may outlive the others' exit; later snapshots of a
    /// thread replace earlier ones.
    pub fn snapshot_threads(&self) {
        if let Some(inner) = &self.inner {
            let now = crate::host::sim_threads();
            inner.threads.lock().expect("span log poisoned").extend(now);
        }
    }

    /// The latest snapshot of every thread seen.
    pub fn threads(&self) -> Vec<ThreadStat> {
        match &self.inner {
            Some(inner) => inner
                .threads
                .lock()
                .expect("span log poisoned")
                .values()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }
}

/// The longest virtual stretch (µs) during which some operation was
/// outstanding and none completed. `ops` holds `(start_ns, end_ns)` per
/// operation, all on one virtual clock.
pub fn outage_us(ops: &[(u64, u64)]) -> f64 {
    let mut by_end = ops.to_vec();
    by_end.sort_by_key(|&(s, e)| (e, s));
    // suffix_min[k]: earliest start among operations ending at or after
    // the k-th completion.
    let mut suffix_min = vec![u64::MAX; by_end.len() + 1];
    for k in (0..by_end.len()).rev() {
        suffix_min[k] = suffix_min[k + 1].min(by_end[k].0);
    }
    let mut worst = 0u64;
    let mut prev_end = 0u64;
    for (k, &(_, end)) in by_end.iter().enumerate() {
        let busy_from = suffix_min[k].max(prev_end);
        worst = worst.max(end.saturating_sub(busy_from));
        prev_end = end;
    }
    worst as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn outage_counts_only_time_with_work_outstanding() {
        // Idle time between operations is not an outage.
        assert_eq!(outage_us(&[(0, 1_000), (50_000, 52_000)]), 2.0);
        // Overlapping operations: the stretch from the first completion
        // to the second is the longest with nothing completing.
        assert_eq!(outage_us(&[(0, 1_000), (500, 9_000)]), 8.0);
        assert_eq!(outage_us(&[]), 0.0);
    }
}

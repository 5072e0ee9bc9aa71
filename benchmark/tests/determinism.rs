//! Virtual-clock results and per-layer counts repeat exactly for one
//! seed, and the open-loop tail moves with the seed.

use cp_benchmark::common::{percentile, sorted, Part, SpanLog};
use cp_benchmark::{bulk, chaos, layers, service};
use cp_trace::Recorder;

/// A traced sub-run with the recorder's counters folded in.
fn traced(run: fn(u64, bool, Recorder, SpanLog) -> Result<Part, String>, seed: u64) -> Part {
    let (rec, spans) = (Recorder::enabled(), SpanLog::enabled());
    let mut p = run(seed, false, rec.clone(), spans.clone()).expect("sub-run completes");
    layers::absorb_recorder(&mut p, &rec, &spans);
    p
}

/// Everything in a part that is virtual time or a count: host-clock
/// span durations and thread CPU figures are left out.
fn virtual_view(p: &Part) -> String {
    let samples: Vec<_> = p
        .samples
        .iter()
        .filter(|(k, _)| !k.ends_with(".host"))
        .collect();
    let sums: Vec<_> = p
        .sums
        .iter()
        .filter(|(k, _)| !k.starts_with("threads."))
        .collect();
    format!(
        "{} {} {} {} {:?} {:?} {:?}",
        p.ops, p.failed, p.digest, p.dispatches, samples, sums, p.maxes
    )
}

#[test]
fn same_seed_repeats_virtual_metrics_and_layer_counts() {
    for run in [service::run_once, bulk::run_once, chaos::run_once] {
        let a = traced(run, 11);
        let b = traced(run, 11);
        assert_eq!(a.failed, 0, "{:?}", a.errors);
        assert_eq!(virtual_view(&a), virtual_view(&b));
        // Tracing is schedule-invisible: the untraced run agrees too.
        let plain = run(11, false, Recorder::disabled(), SpanLog::default()).expect("sub-run");
        assert_eq!(plain.digest, a.digest);
    }
}

#[test]
fn open_loop_tail_moves_with_the_seed() {
    let p99 = |seed| {
        let p = service::run_once(seed, false, Recorder::disabled(), SpanLog::default())
            .expect("service sub-run");
        let lat = sorted(&p, "lat");
        (percentile(&lat, 0.5), percentile(&lat, 0.99))
    };
    let (p50_a, p99_a) = p99(1);
    let (_, p99_b) = p99(2);
    assert_ne!(p99_a, p99_b, "different seeds must give different tails");
    assert!(
        p99_a > p50_a,
        "p99 {p99_a} must exceed p50 {p50_a}: the tail is not a constant"
    );
}

//! Ties the benchmark's workloads to the repository's published
//! reproduction programs: where a workload runs the same deployment as
//! `cp-bench`, it must measure the same virtual time to the digit.

use cp_bench::{measure_table2, ServiceScenario};
use cp_benchmark::common::{sorted, SpanLog};
use cp_benchmark::service::{self, Route, Step, ROUTES};
use cp_benchmark::{bulk, common::percentile};
use cp_trace::Recorder;

#[test]
fn bulk_table2_cells_equal_measure_table2() {
    let published = measure_table2(bulk::REPS);
    let ours = bulk::table2(7).expect("Table II cells run");
    assert_eq!(published.len(), ours.len());
    for (p, &(t, bytes, us)) in published.iter().zip(&ours) {
        assert_eq!((p.chan_type, p.bytes), (t, bytes), "cell order");
        assert_eq!(
            format!("{:.3}", p.cellpilot_us),
            format!("{us:.3}"),
            "type {t} {bytes} B"
        );
        assert!(
            (p.cellpilot_us - us).abs() < 1e-9,
            "type {t} {bytes} B: {} vs {us}",
            p.cellpilot_us
        );
    }
}

#[test]
fn unloaded_routes_equal_repro_service() {
    // At 100 req/s the mean gap is 10 ms against a ~0.1 ms round trip, so
    // nearly every request finds the system idle: the per-route medians
    // are the unloaded latencies, and any virtual time the open-loop
    // generator or the collector charged would show up here.
    let ladder = [Step {
        rate_req_s: 100.0,
        requests: 150,
    }];
    let p = service::run(3, &ladder, 0, Recorder::disabled(), SpanLog::default())
        .expect("low-rate service run");
    assert_eq!(p.failed, 0, "{:?}", p.errors);
    for (route, scenario, published_us) in [
        (Route::Direct, ServiceScenario::Type2Direct, 58.34),
        (Route::LocalHop, ServiceScenario::Type4LocalHop, 85.49),
        (Route::RemoteHop, ServiceScenario::Type5RemoteHop, 100.59),
    ] {
        assert!(ROUTES.contains(&route));
        let ours = percentile(&sorted(&p, route.name()), 0.5);
        let closed = cp_bench::service(scenario, 1, 32, true)
            .expect("repro_service scenario")
            .latency_us
            .p50;
        assert_eq!(
            format!("{ours:.2}"),
            format!("{closed:.2}"),
            "{}",
            route.name()
        );
        assert_eq!(
            format!("{ours:.2}"),
            format!("{published_us:.2}"),
            "{}",
            route.name()
        );
    }
}

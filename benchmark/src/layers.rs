//! Per-layer metrics of the traced run: the runtime's own `Recorder`
//! counters and happens-before stream, the benchmark's spans, and the
//! per-thread host figures, each normalised per operation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cp_des::IncidentCategory;
use cp_trace::hb::HbOp;
use cp_trace::Recorder;

use crate::common::{median, sorted, sum, Part, SpanLog};

/// Every per-layer metric the traced run reports, with its unit. A
/// metric a workload does not exercise reads 0 (no Table II cell outside
/// `bulk-pingpong`, no retransmit without faults, no generator lag in a
/// closed loop).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.dispatches_per_op", "count"),
    ("des.host_ns_per_dispatch", "ns"),
    ("des.os_switches_per_op", "count"),
    ("des.cpu_per_wall", "ratio"),
    ("core.copilot_cpu_share", "ratio"),
    ("core.copilot_switches_per_op", "count"),
    ("core.spe_cpu_share", "ratio"),
    ("core.proxy_hops_per_op", "count"),
    ("core.chan_lat_p50_us.t1", "us"),
    ("core.chan_lat_p50_us.t2", "us"),
    ("core.chan_lat_p50_us.t3", "us"),
    ("core.chan_lat_p50_us.t4", "us"),
    ("core.chan_lat_p50_us.t5", "us"),
    ("core.front_write_host_us", "us"),
    ("core.front_read_host_us", "us"),
    ("core.front_write_virt_us", "us"),
    ("mpi.sends_per_op", "count"),
    ("mpi.wire_bytes_per_op", "B"),
    ("mpi.payload_per_wire", "ratio"),
    ("mpi.retransmits", "count"),
    ("net.link_drops", "count"),
    ("net.link_duplicates", "count"),
    ("net.heartbeats", "count"),
    ("net.outage_us", "us"),
    ("flow.backpressure_waits", "count"),
    ("flow.queue_hwm_max", "count"),
    ("cellsim.dma_issues_per_op", "count"),
    ("cellsim.mbox_msgs_per_op", "count"),
    ("gen.lag_p99_us", "us"),
    ("model.paper_err_pct", "%"),
    ("check.host_ms", "ms"),
    ("check.findings", "count"),
    ("trace.overhead_frac", "ratio"),
    ("host.wall_us_per_op", "us"),
    ("probe.des_handoff_ns", "ns"),
    ("probe.mpi_pingpong_host_us", "us"),
    ("probe.cellsim_dma_host_ns", "ns"),
    ("probe.cellsim_mbox_host_ns", "ns"),
    ("calib.spin_ns", "ns"),
    ("calib.condvar_ns", "ns"),
];

/// Whether an incident is a `cp-check` finding. Traced runs enable
/// `with_checks` to record the happens-before stream, which also runs
/// the wiring lints and the DMA race detector; what they report is a
/// static finding about the program, not a failed operation, and is
/// counted as `check.findings`. (The race detector does not yet see
/// MPI send/receive ordering, so one-sided ping-pong draws CP101
/// reports on accesses the reply message already orders.)
pub fn is_finding(category: IncidentCategory) -> bool {
    matches!(
        category,
        IncidentCategory::WiringLint | IncidentCategory::DmaRace
    )
}

/// Count the `cp-check` findings among a deployment's incidents.
pub fn count_findings(p: &mut Part, report: &cp_des::SimReport) {
    let n = report
        .incidents
        .iter()
        .filter(|i| is_finding(i.category))
        .count();
    p.add("check.findings", n as f64);
}

/// Fold one traced sub-run's recorder counters, spans and thread
/// snapshots into its part.
pub fn absorb_recorder(p: &mut Part, rec: &Recorder, spans: &SpanLog) {
    absorb_counters(p, rec);
    for s in spans.spans() {
        p.sample(
            &format!("span.{}.host", s.name),
            (s.host_end_ns - s.host_start_ns) as f64 / 1e3,
        );
        p.sample(
            &format!("span.{}.virt", s.name),
            (s.virt_end_ns - s.virt_start_ns) as f64 / 1e3,
        );
        p.spans.push(s);
    }
    for t in spans.threads() {
        // Co-Pilot service loops, watchers and pumps run on
        // `sim-copilot…` threads, SPE programs on `sim-node<N>.spe…`.
        let class = if t.comm.starts_with("sim-copilot") {
            "copilot"
        } else if t.comm.starts_with("sim-node") {
            "spe"
        } else {
            "other"
        };
        for c in ["all", class] {
            p.add(&format!("threads.{c}.cpu_ns"), t.cpu_ns as f64);
            p.add(&format!("threads.{c}.switches"), t.switches as f64);
        }
    }
}

/// Fold one deployment's recorder counters into `p`. A recorder must
/// serve one deployment only: the race detector replays its whole
/// happens-before stream, and streams of separate simulations do not
/// share a clock.
pub fn absorb_counters(p: &mut Part, rec: &Recorder) {
    let snap = rec.snapshot();
    p.add("mpi.sends", snap.mpi.sends as f64);
    p.add("mpi.wire_bytes", snap.mpi.wire_bytes as f64);
    p.add("mpi.payload_bytes", snap.mpi.payload_bytes as f64);
    p.add("mpi.retransmits", snap.mpi.retransmits as f64);
    p.add("net.link_drops", snap.net.link_drops as f64);
    p.add("net.link_duplicates", snap.net.link_duplicates as f64);
    p.add("net.heartbeats", snap.net.heartbeats as f64);
    p.add(
        "flow.backpressure_waits",
        snap.flow.backpressure_waits.values().sum::<u64>() as f64,
    );
    p.max(
        "flow.queue_hwm_max",
        snap.flow
            .queue_high_watermark
            .values()
            .copied()
            .max()
            .unwrap_or(0) as f64,
    );
    for t in &snap.channel_types {
        p.add("core.proxy_hops", t.proxy_hops as f64);
        if t.latency_us.count > 0 {
            p.sample(&format!("chan_p50.t{}", t.chan_type), t.latency_us.median);
        }
    }
    for e in rec.hb_events() {
        match e.op {
            // The runtime records its modelled MFC transfers as
            // local-store reads and writes; hand-coded code issues DMA.
            HbOp::DmaIssue { .. } | HbOp::LsRead { .. } | HbOp::LsWrite { .. } => {
                p.add("cellsim.dma_issues", 1.0)
            }
            // Co-Pilot event-queue traffic is not mailbox traffic.
            HbOp::MsgSend { queue, .. } if !queue.starts_with("co-queue") => {
                p.add("cellsim.mbox_msgs", 1.0)
            }
            _ => {}
        }
    }
}

/// The per-layer metrics. `plain_host_us` is the untraced host µs per
/// operation, `traced` the pooled traced sub-runs, `traced_host_us` and
/// `traced_wall_s` their host µs per operation and summed wall time,
/// `virt` the workload's own virtual figures.
pub fn per_layer(
    plain_host_us: f64,
    traced: &Part,
    traced_host_us: f64,
    traced_wall_s: f64,
    virt: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let ops = traced.ops.max(1) as f64;
    let mut m = BTreeMap::new();
    let dispatches_per_op = traced.dispatches as f64 / ops;
    m.insert("des.dispatches_per_op".into(), dispatches_per_op);
    m.insert(
        "des.host_ns_per_dispatch".into(),
        plain_host_us * 1e3 / dispatches_per_op.max(f64::MIN_POSITIVE),
    );
    let class = |c: &str| {
        (
            sum(traced, &format!("threads.{c}.cpu_ns")),
            sum(traced, &format!("threads.{c}.switches")),
        )
    };
    let (all_cpu, all_sw) = class("all");
    let (cp_cpu, cp_sw) = class("copilot");
    let (spe_cpu, _) = class("spe");
    m.insert("des.os_switches_per_op".into(), all_sw / ops);
    m.insert(
        "des.cpu_per_wall".into(),
        all_cpu / 1e9 / traced_wall_s.max(1e-9),
    );
    m.insert("core.copilot_cpu_share".into(), cp_cpu / all_cpu.max(1.0));
    m.insert("core.copilot_switches_per_op".into(), cp_sw / ops);
    m.insert("core.spe_cpu_share".into(), spe_cpu / all_cpu.max(1.0));
    m.insert(
        "core.proxy_hops_per_op".into(),
        sum(traced, "core.proxy_hops") / ops,
    );
    for t in 1..=5 {
        m.insert(
            format!("core.chan_lat_p50_us.t{t}"),
            median(&sorted(traced, &format!("chan_p50.t{t}"))),
        );
    }
    for (metric, group) in [
        ("core.front_write_host_us", "span.core.front_write.host"),
        ("core.front_read_host_us", "span.core.front_read.host"),
        ("core.front_write_virt_us", "span.core.front_write.virt"),
    ] {
        m.insert(metric.into(), median(&sorted(traced, group)));
    }
    m.insert("mpi.sends_per_op".into(), sum(traced, "mpi.sends") / ops);
    m.insert(
        "mpi.wire_bytes_per_op".into(),
        sum(traced, "mpi.wire_bytes") / ops,
    );
    // The recorder counts a message's payload at its send and again at
    // its receive; the useful bytes are one of the two.
    m.insert(
        "mpi.payload_per_wire".into(),
        sum(traced, "mpi.payload_bytes") / 2.0 / sum(traced, "mpi.wire_bytes").max(1.0),
    );
    for name in [
        "mpi.retransmits",
        "net.link_drops",
        "net.link_duplicates",
        "net.heartbeats",
        "flow.backpressure_waits",
        "check.findings",
    ] {
        m.insert(name.into(), sum(traced, name));
    }
    m.insert(
        "flow.queue_hwm_max".into(),
        traced
            .maxes
            .get("flow.queue_hwm_max")
            .copied()
            .unwrap_or(0.0),
    );
    m.insert(
        "cellsim.dma_issues_per_op".into(),
        sum(traced, "cellsim.dma_issues") / ops,
    );
    m.insert(
        "cellsim.mbox_msgs_per_op".into(),
        sum(traced, "cellsim.mbox_msgs") / ops,
    );
    m.insert(
        "trace.overhead_frac".into(),
        traced_host_us / plain_host_us.max(1e-9),
    );
    for name in ["gen.lag_p99_us", "net.outage_us", "model.paper_err_pct"] {
        m.insert(name.into(), virt.get(name).copied().unwrap_or(0.0));
    }
    m
}

/// Write the traced run's spans as JSON lines under `.bench_out/`,
/// returning the path.
pub fn write_spans(workload: &str, seed: u64, p: &Part) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let mut text = String::new();
    for s in &p.spans {
        let _ = writeln!(
            text,
            "{{\"name\": \"{}\", \"op\": {}, \"host_start_ns\": {}, \"host_end_ns\": {}, \
             \"virt_start_ns\": {}, \"virt_end_ns\": {}}}",
            s.name, s.op, s.host_start_ns, s.host_end_ns, s.virt_start_ns, s.virt_end_ns
        );
    }
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

//! `service-open`: an open-loop request/response service.
//!
//! A generator rank on the Xeon node issues seeded Poisson arrivals of
//! one-word (13 B on the wire, inside the 16 B eager budget) requests
//! over a fixed route mix — two SPE workers on each of three routes — and
//! a collector rank on the same node drains the replies with `select`
//! over a gather bundle. Latency runs from each request's *intended* send
//! time, so a stall is charged to every request it delays. The offered
//! rate steps through a fixed ladder spanning the knee, with a full drain
//! between steps.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cellpilot::{
    CellPilotConfig, CellPilotOpts, CpBundleUsage, CpChannel, CpProcess, OverloadPolicy,
    SpeProgram, CP_MAIN,
};
use cp_des::SimDuration;
use cp_simnet::NodeId;
use cp_trace::Recorder;

use crate::common::{outage_us, percentile, sorted, sum, Digest, Part, SpanLog, SplitMix64};

/// Workers answer `x` with `x ^ REPLY_SALT`, which an echo cannot fake.
pub const REPLY_SALT: i32 = 0x2A5A_5A5A;

/// The p99 latency limit a ladder step must meet, µs: about 3x the
/// slowest route's unloaded 100.59 µs. At 2.5x (250 µs) the limit met
/// the p99 curve where it is flattest, so seed-to-seed tail noise moved
/// the knee by several percent; at 300 µs the curve is twice as steep.
pub const LATENCY_LIMIT_US: f64 = 300.0;

/// In-flight requests a request channel admits before the generator
/// blocks (`OverloadPolicy::Block`).
pub const REQ_CAPACITY: usize = 4;

/// Workers per route.
pub const WORKERS_PER_ROUTE: usize = 2;

/// The three routes, in unit order.
pub const ROUTES: [Route; 3] = [Route::Direct, Route::LocalHop, Route::RemoteHop];

/// How a request reaches its worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Generator → node-0 SPE worker → collector.
    Direct,
    /// Generator → node-0 gateway SPE → node-0 worker SPE (type 4) →
    /// collector.
    LocalHop,
    /// Generator → node-0 gateway SPE → node-1 worker SPE (type 5) →
    /// collector.
    RemoteHop,
}

impl Route {
    /// The route's name, as `repro_service` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Route::Direct => "type2-direct",
            Route::LocalHop => "type4-local-hop",
            Route::RemoteHop => "type5-remote-hop",
        }
    }

    fn stride(self) -> usize {
        match self {
            Route::Direct => 2,
            Route::LocalHop | Route::RemoteHop => 3,
        }
    }
}

/// One step of the offered-rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, requests per virtual second.
    pub rate_req_s: f64,
    /// Requests issued in the step.
    pub requests: usize,
}

/// The benchmark's ladder: rates spanning the knee (about 25k req/s).
/// Pooled over a run's sub-runs, every step has at least ten samples
/// beyond its p99; the steps either side of the knee get the most.
pub const LADDER: [Step; 6] = [
    Step {
        rate_req_s: 10_000.0,
        requests: 300,
    },
    Step {
        rate_req_s: 16_000.0,
        requests: 2000,
    },
    Step {
        rate_req_s: 21_000.0,
        requests: 800,
    },
    Step {
        rate_req_s: 24_000.0,
        requests: 2000,
    },
    Step {
        rate_req_s: 27_000.0,
        requests: 2000,
    },
    Step {
        rate_req_s: 30_000.0,
        requests: 600,
    },
];

/// The step whose latencies `lat_p50_us` / `lat_p99_us` report.
pub const NOMINAL_STEP: usize = 1;

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Req {
    step: usize,
    unit: usize,
    at_ns: u64,
    x: i32,
}

/// The seeded schedule: per step, arrival offsets from the step start.
/// Every step replays the same unit-rate arrival pattern, route choices
/// and payloads, scaled to its rate (common random numbers), so the
/// ladder traces one smooth latency-versus-rate curve per seed.
fn schedule(seed: u64, ladder: &[Step]) -> Vec<Vec<Req>> {
    let mut rng = SplitMix64(seed ^ 0x05E7_71CE_0BE1_u64);
    let units = (ROUTES.len() * WORKERS_PER_ROUTE) as u64;
    let longest = ladder.iter().map(|s| s.requests).max().unwrap_or(0);
    let mut t = 0.0f64;
    let base: Vec<(f64, usize, i32)> = (0..longest)
        .map(|_| {
            t += -rng.unit().ln();
            let unit = rng.below(units) as usize;
            (t, unit, (rng.next_u64() & 0x3FFF_FFFF) as i32)
        })
        .collect();
    ladder
        .iter()
        .enumerate()
        .map(|(step, s)| {
            base[..s.requests]
                .iter()
                .map(|&(t, unit, x)| Req {
                    step,
                    unit,
                    at_ns: (t / s.rate_req_s * 1e9) as u64,
                    x,
                })
                .collect()
        })
        .collect()
}

/// Per-unit channel ids: (request channel, reply channel).
fn unit_channels() -> Vec<(usize, usize)> {
    let mut next = 0;
    let mut out = Vec::new();
    for route in ROUTES {
        for _ in 0..WORKERS_PER_ROUTE {
            out.push((next, next + route.stride() - 1));
            next += route.stride();
        }
    }
    out
}

/// A reply the collector received.
#[derive(Debug, Clone, Copy)]
struct Done {
    req: Req,
    done_ns: u64,
    ok: bool,
}

/// Book-keeping the generator and collector share. The simulation runs
/// one process at a time, so the lock is never contended.
#[derive(Default)]
struct Shared {
    /// Per unit, requests sent and not yet answered, in send order.
    pending: Vec<VecDeque<Req>>,
    done: Vec<Done>,
    lag_ns: Vec<u64>,
}

/// One deployment over the benchmark's [`LADDER`]; `zero` keeps the
/// deployment and issues no requests.
pub fn run_once(seed: u64, zero: bool, rec: Recorder, spans: SpanLog) -> Result<Part, String> {
    let ladder: Vec<Step> = LADDER
        .iter()
        .map(|s| Step {
            requests: if zero { 0 } else { s.requests },
            ..*s
        })
        .collect();
    run(seed, &ladder, NOMINAL_STEP, rec, spans)
}

/// Build the deployment, run `check()`, and run it over `ladder`,
/// reporting latencies of step `nominal` as `lat`.
pub fn run(
    seed: u64,
    ladder: &[Step],
    nominal: usize,
    rec: Recorder,
    spans: SpanLog,
) -> Result<Part, String> {
    let sched = Arc::new(schedule(seed, ladder));
    let units = unit_channels();
    let ack = CpChannel(units.last().map_or(0, |u| u.1 + 1));
    let shared = Arc::new(Mutex::new(Shared {
        pending: vec![VecDeque::new(); units.len()],
        ..Shared::default()
    }));

    let mut opts = CellPilotOpts::new().with_tracing(rec.clone());
    if rec.is_enabled() {
        // Records the happens-before stream (DMA, mailboxes).
        opts = opts.with_checks();
    }
    opts.mpi_costs = cp_bench::service_mpi_costs();
    // main on Cell node 0, ppe1 on Cell node 1, generator and collector
    // on the Xeon node.
    let placement = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(2)];
    let mut cfg = CellPilotConfig::new(cp_bench::service_spec(), placement, opts);
    let ppe1 = cfg
        .create_process("ppe1", 1, |cp, _| cp.run_and_wait_my_spes())
        .map_err(|e| e.to_string())?;

    let gen = {
        let (sched, shared, spans, units) =
            (sched.clone(), shared.clone(), spans.clone(), units.clone());
        cfg.create_process("gen", 2, move |cp, _| {
            for step in sched.iter() {
                let start = cp.ctx().now().as_nanos();
                for r in step {
                    let due = start + r.at_ns;
                    let now = cp.ctx().now().as_nanos();
                    if now < due {
                        cp.ctx().advance(SimDuration::from_nanos(due - now));
                    }
                    let r = Req { at_ns: due, ..*r };
                    {
                        let mut sh = shared.lock().expect("shared state");
                        sh.lag_ns.push(cp.ctx().now().as_nanos() - due);
                        sh.pending[r.unit].push_back(r);
                    }
                    let chan = CpChannel(units[r.unit].0);
                    spans
                        .span(
                            "core.front_write",
                            r.x as u64,
                            || cp.ctx().now().as_nanos(),
                            || cp.write_slice(chan, &[r.x]),
                        )
                        .expect("request write");
                }
                if !step.is_empty() {
                    // The collector acknowledges once the step has drained.
                    cp.read_vec::<i32>(ack).expect("drain ack");
                }
            }
            // A negative request retires each worker (and its gateway).
            for u in &units {
                cp.write_slice(CpChannel(u.0), &[-1]).expect("retire write");
            }
        })
        .map_err(|e| e.to_string())?
    };
    let coll = {
        let (sched, shared, spans, units) =
            (sched.clone(), shared.clone(), spans.clone(), units.clone());
        cfg.create_process("collector", 3, move |cp, _| {
            let gather = cellpilot::CpBundle(0);
            for step in sched.iter() {
                for _ in 0..step.len() {
                    let chan = cp.select(gather).expect("select");
                    let v = spans
                        .span(
                            "core.front_read",
                            0,
                            || cp.ctx().now().as_nanos(),
                            || cp.read_vec::<i32>(chan),
                        )
                        .expect("reply read");
                    let done_ns = cp.ctx().now().as_nanos();
                    let unit = units
                        .iter()
                        .position(|u| u.1 == chan.0)
                        .expect("reply channel belongs to a unit");
                    let mut sh = shared.lock().expect("shared state");
                    let req = sh.pending[unit].pop_front().expect("reply has a request");
                    let ok = v == [req.x ^ REPLY_SALT];
                    sh.done.push(Done { req, done_ns, ok });
                }
                if !step.is_empty() {
                    cp.write_slice(ack, &[0i32]).expect("drain ack");
                }
            }
            spans.snapshot_threads();
        })
        .map_err(|e| e.to_string())?
    };
    assert_eq!((gen.0, coll.0), (2, 3), "generator and collector ranks");

    let worker = SpeProgram::new("svc-worker", 2048, |spe, arg, _| {
        // `arg` is the unit's first channel; the reply channel is the
        // unit's last, so the worker reads the one before it.
        let (from, to) = (CpChannel(arg as usize >> 8), CpChannel(arg as usize & 0xFF));
        loop {
            let v = spe.read_vec::<i32>(from).expect("worker read");
            if v[0] < 0 {
                break;
            }
            spe.write_slice(to, &[v[0] ^ REPLY_SALT])
                .expect("worker reply");
        }
    });
    let gateway = SpeProgram::new("svc-gateway", 2048, |spe, arg, _| {
        let (from, to) = (CpChannel(arg as usize >> 8), CpChannel(arg as usize & 0xFF));
        loop {
            let v = spe.read_vec::<i32>(from).expect("gateway read");
            spe.write_slice(to, &v).expect("gateway forward");
            if v[0] < 0 {
                break;
            }
        }
    });
    let link = |from: usize, to: usize| ((from << 8) | to) as i32;

    let mut replies = Vec::new();
    let mut u = 0;
    for route in ROUTES {
        for _ in 0..WORKERS_PER_ROUTE {
            let (req_id, rsp_id) = units[u];
            let req = |cfg: &mut CellPilotConfig, to: CpProcess| {
                cfg.channel(gen, to)
                    .capacity(REQ_CAPACITY)
                    .overload_policy(OverloadPolicy::Block)
                    .eager()
                    .build()
            };
            let built = match route {
                Route::Direct => {
                    let wk = cfg
                        .create_spe_process(&worker, CP_MAIN, link(req_id, rsp_id))
                        .map_err(|e| e.to_string())?;
                    vec![req(&mut cfg, wk), cfg.channel(wk, coll).eager().build()]
                }
                Route::LocalHop | Route::RemoteHop => {
                    let parent = if route == Route::LocalHop {
                        CP_MAIN
                    } else {
                        ppe1
                    };
                    let gw = cfg
                        .create_spe_process(&gateway, CP_MAIN, link(req_id, req_id + 1))
                        .map_err(|e| e.to_string())?;
                    let wk = cfg
                        .create_spe_process(&worker, parent, link(req_id + 1, rsp_id))
                        .map_err(|e| e.to_string())?;
                    vec![
                        req(&mut cfg, gw),
                        cfg.channel(gw, wk).eager().build(),
                        cfg.channel(wk, coll).eager().build(),
                    ]
                }
            };
            let ids: Vec<usize> = built
                .into_iter()
                .map(|c| c.map(|c| c.0).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            assert_eq!(
                (ids[0], *ids.last().expect("unit has channels")),
                (req_id, rsp_id)
            );
            replies.push(CpChannel(rsp_id));
            u += 1;
        }
    }
    let ack_built = cfg.channel(coll, gen).build().map_err(|e| e.to_string())?;
    assert_eq!(ack_built, ack);
    cfg.create_bundle(CpBundleUsage::Gather, &replies)
        .map_err(|e| e.to_string())?;

    let t = Instant::now();
    let _findings = cfg.check();
    let check_ms = t.elapsed().as_secs_f64() * 1e3;
    let report = cfg
        .run(|cp| cp.run_and_wait_my_spes())
        .map_err(|e| e.to_string())?;

    let sh = std::mem::take(&mut *shared.lock().expect("shared state"));
    Ok(part(seed, nominal, &sched, sh, &report, check_ms))
}

fn part(
    seed: u64,
    nominal: usize,
    sched: &[Vec<Req>],
    sh: Shared,
    report: &cp_des::SimReport,
    check_ms: f64,
) -> Part {
    let mut p = Part {
        dispatches: report.dispatches,
        check_ms,
        ..Part::default()
    };
    crate::layers::count_findings(&mut p, report);
    let sent: usize = sched.iter().map(Vec::len).sum();
    p.ops = sent as u64;
    p.failed = (sent - sh.done.len()) as u64 + sh.done.iter().filter(|d| !d.ok).count() as u64;
    if p.failed > 0 {
        p.errors.push(format!(
            "seed {seed}: {} requests unanswered or wrong",
            p.failed
        ));
    }
    if let Some(inc) = report
        .incidents
        .iter()
        .find(|i| !crate::layers::is_finding(i.category))
    {
        p.failed = p.failed.max(1);
        p.errors.push(format!(
            "seed {seed}: unexpected incident {:?}: {}",
            inc.category, inc.detail
        ));
    }

    let mut digest = Digest::default();
    for d in &sh.done {
        digest.u64(d.req.at_ns);
        digest.u64(d.done_ns);
        digest.u64(d.req.x as u64);
    }
    digest.u64(report.end_time.as_nanos());
    p.digest = digest.0;

    for d in &sh.done {
        let lat = (d.done_ns - d.req.at_ns) as f64 / 1e3;
        p.sample(&format!("step{}", d.req.step), lat);
        if d.req.step == nominal {
            p.sample("lat", lat);
            p.sample(ROUTES[d.req.unit / WORKERS_PER_ROUTE].name(), lat);
        }
    }
    // Busy window per step: first intended send to last reply.
    for i in 0..sched.len() {
        let step = sh.done.iter().filter(|d| d.req.step == i);
        let first = step.clone().map(|d| d.req.at_ns).min();
        if let (Some(a), Some(b)) = (first, step.map(|d| d.done_ns).max()) {
            p.add("busy_us", (b - a) as f64 / 1e3);
        }
    }
    // Four payload bytes each way per request.
    p.add("payload_bytes", 8.0 * sh.done.len() as f64);
    let intervals: Vec<(u64, u64)> = sh.done.iter().map(|d| (d.req.at_ns, d.done_ns)).collect();
    p.max("outage_us", outage_us(&intervals));
    for &lag in &sh.lag_ns {
        p.sample("gen.lag", lag as f64 / 1e3);
    }
    p
}

/// Virtual metrics of the pooled parts, and the report lines.
pub fn finish(p: &Part) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut m = BTreeMap::new();
    let mut notes = Vec::new();
    let mut steps = Vec::new();
    for (i, step) in LADDER.iter().enumerate() {
        let v = sorted(p, &format!("step{i}"));
        let tail = crate::common::median(&v[v.len() - v.len() / 10..]);
        let (p50, p99) = (percentile(&v, 0.5), percentile(&v, 0.99));
        // A step holds when its tail meets the limit and its latest
        // tenth is not running away (no growing backlog).
        let holds = !v.is_empty() && p99 <= LATENCY_LIMIT_US && tail <= LATENCY_LIMIT_US;
        steps.push((step.rate_req_s, p99, holds));
        notes.push(format!(
            "step {:>6.0} req/s: n {:>6}  p50 {p50:>8.2} us  p99 {p99:>9.2} us  {}",
            step.rate_req_s,
            v.len(),
            if holds { "holds" } else { "over the limit" }
        ));
    }
    for route in ROUTES {
        let v = sorted(p, route.name());
        notes.push(format!(
            "nominal step, {}: p50 {:.2} us over {} requests",
            route.name(),
            percentile(&v, 0.5),
            v.len()
        ));
    }
    m.insert("max_rate_req_s".into(), max_rate(&steps));
    let busy = sum(p, "busy_us");
    m.insert(
        "throughput_mb_s".into(),
        if busy > 0.0 {
            sum(p, "payload_bytes") / busy
        } else {
            0.0
        },
    );
    m.insert(
        "gen.lag_p99_us".into(),
        percentile(&sorted(p, "gen.lag"), 0.99),
    );
    m.insert(
        "net.outage_us".into(),
        p.maxes.get("outage_us").copied().unwrap_or(0.0),
    );
    (m, notes)
}

/// The highest offered rate meeting the latency limit: the last holding
/// rung, moved toward the next rung by linear interpolation of p99
/// against the limit, so the figure does not jump a whole rung.
fn max_rate(steps: &[(f64, f64, bool)]) -> f64 {
    let Some(last_ok) = steps.iter().rposition(|s| s.2) else {
        return 0.0;
    };
    let (r0, p0, _) = steps[last_ok];
    match steps.get(last_ok + 1) {
        Some(&(r1, p1, _)) if p1 > p0 => {
            r0 + (r1 - r0) * ((LATENCY_LIMIT_US - p0) / (p1 - p0)).clamp(0.0, 1.0)
        }
        _ => r0,
    }
}

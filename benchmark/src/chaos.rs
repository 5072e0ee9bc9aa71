//! `chaos-fanout`: a stencil-like step loop under a seeded recoverable
//! fault plan.
//!
//! The root PPE broadcasts each step through a coalesced broadcast
//! bundle to eight SPEs, four on each Cell. The SPEs form a ring and swap
//! halos with both neighbours (type 4 inside a Cell, type 5 across), then
//! reply through a gather bundle. Every channel is `capacity(2)` with
//! `Block`. The plan drops, delays and duplicates messages between the
//! Cells, crashes one SPE under supervision and kills node 1's Co-Pilot
//! mid-run (the standby takes over). Each step's gathered output must be
//! byte-identical to the same seed's fault-free (golden) run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cellpilot::{
    CellPilotConfig, CellPilotOpts, CpBundle, CpBundleUsage, CpChannel, OverloadPolicy, SpeProgram,
    SupervisionPolicy, CP_MAIN,
};
use cp_des::{IncidentCategory, SimDuration, SimTime};
use cp_pilot::PiValue;
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, RetryPolicy};
use cp_trace::Recorder;

use crate::common::{outage_us, percentile, sorted, Digest, Part, SpanLog, SplitMix64};

/// SPEs per Cell node in the ring.
pub const SPES_PER_CELL: usize = 4;
/// Ring size.
pub const RING: usize = 2 * SPES_PER_CELL;
/// Steps per sub-run.
pub const STEPS: usize = 150;
/// Credits per channel.
pub const CAPACITY: usize = 2;

/// Channel ids, in creation order: broadcast members, gather members,
/// then per ring edge `e` (SPE `e` to SPE `e+1`) the rightward and the
/// leftward channel.
fn bcast(i: usize) -> CpChannel {
    CpChannel(i)
}
fn gather(i: usize) -> CpChannel {
    CpChannel(RING + i)
}
fn rightward(e: usize) -> CpChannel {
    CpChannel(2 * RING + 2 * e)
}
fn leftward(e: usize) -> CpChannel {
    CpChannel(2 * RING + 2 * e + 1)
}

/// The per-step input the root broadcasts to SPE `i`.
fn input(seed: u64, step: usize, i: usize) -> i32 {
    SplitMix64(seed ^ ((step as u64) << 8) ^ i as u64).next_u64() as i32
}

/// One SPE of the ring: `arg` is its ring position.
fn ring_program(steps: usize, spans: SpanLog) -> SpeProgram {
    SpeProgram::new("ring", 4096, move |spe, arg, _| {
        let i = arg as usize;
        let left = (i + RING - 1) % RING;
        let read1 = |c: CpChannel| spe.read_vec::<i32>(c).expect("ring read")[0];
        let write1 = |c: CpChannel, v: i32| spe.write_slice(c, &[v]).expect("ring write");
        let mut state = [i as i32, (i as i32).wrapping_mul(7919)];
        for s in 0..steps {
            let v = spe.read_vec::<i32>(bcast(i)).expect("step input");
            state[0] = state[0].wrapping_mul(31).wrapping_add(v[1]);
            // Two phases, so synchronous writes never wait on each other:
            // even edges first, then odd ones; on each edge the lower SPE
            // writes first and the upper SPE reads first.
            let (from_left, from_right);
            if i.is_multiple_of(2) {
                write1(rightward(i), state[0]);
                from_right = read1(leftward(i));
                from_left = read1(rightward(left));
                write1(leftward(left), state[0]);
            } else {
                from_left = read1(rightward(left));
                write1(leftward(left), state[0]);
                write1(rightward(i), state[0]);
                from_right = read1(leftward(i));
            }
            state[1] = state[1].rotate_left(5) ^ from_left.wrapping_add(from_right);
            if s + 1 == steps {
                // This SPE exits right after its last reply.
                spans.snapshot_threads();
            }
            spe.write_slice(gather(i), &[i as i32, v[0], state[0], state[1]])
                .expect("step reply");
        }
    })
}

/// What the root saw: per step, its interval and the gathered rows.
#[derive(Default)]
struct Root {
    steps: Vec<(u64, u64, Vec<Vec<i32>>)>,
    errors: Vec<String>,
}

/// One deployment of the ring under `plan` (none for the golden run).
fn deploy(
    seed: u64,
    steps: usize,
    plan: Option<FaultPlan>,
    rec: Recorder,
    spans: &SpanLog,
) -> Result<(Root, cp_des::SimReport, f64), String> {
    let mut opts = CellPilotOpts::new()
        .with_supervision(SupervisionPolicy {
            max_restarts: 2,
            restart_delay: SimDuration::from_micros(50),
        })
        .with_tracing(rec.clone());
    if rec.is_enabled() {
        // Records the happens-before stream (DMA, mailboxes).
        opts = opts.with_checks();
    }
    if let Some(plan) = plan {
        opts = opts
            .with_faults(Arc::new(plan))
            .with_retry(RetryPolicy::default());
    }
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::new(spec, vec![NodeId(0), NodeId(1)], opts);
    let err = |e: cellpilot::CpError| e.to_string();
    let ppe1 = cfg
        .create_process("ppe1", 1, |cp, _| cp.run_and_wait_my_spes())
        .map_err(err)?;
    let prog = ring_program(steps, spans.clone());
    let spes: Vec<_> = (0..RING)
        .map(|i| {
            let parent = if i < SPES_PER_CELL { CP_MAIN } else { ppe1 };
            cfg.create_spe_process(&prog, parent, i as i32)
        })
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let bounded = |cfg: &mut CellPilotConfig, from, to| {
        cfg.channel(from, to)
            .capacity(CAPACITY)
            .overload_policy(OverloadPolicy::Block)
            .build()
            .map_err(err)
    };
    let mut members = Vec::new();
    for &s in &spes {
        members.push(bounded(&mut cfg, CP_MAIN, s)?);
    }
    let mut replies = Vec::new();
    for &s in &spes {
        replies.push(bounded(&mut cfg, s, CP_MAIN)?);
    }
    for e in 0..RING {
        let (a, b) = (spes[e], spes[(e + 1) % RING]);
        let r = bounded(&mut cfg, a, b)?;
        let l = bounded(&mut cfg, b, a)?;
        assert_eq!((r, l), (rightward(e), leftward(e)), "ring channel ids");
    }
    let bb = cfg
        .create_bundle(CpBundleUsage::Broadcast, &members)
        .map_err(err)?;
    cfg.coalesce_bundle(bb, RING, 50.0).map_err(err)?;
    let gb = cfg
        .create_bundle(CpBundleUsage::Gather, &replies)
        .map_err(err)?;
    assert_eq!((bb, gb), (CpBundle(0), CpBundle(1)), "bundle ids");

    let t = Instant::now();
    let _findings = cfg.check();
    let check_ms = t.elapsed().as_secs_f64() * 1e3;

    let root = Arc::new(Mutex::new(Root::default()));
    let (out, spans) = (root.clone(), spans.clone());
    let report = cfg
        .run(move |cp| {
            let tasks = cp.run_my_spes();
            let now = || cp.ctx().now().as_nanos();
            for s in 0..steps {
                let t0 = now();
                let sent = spans.span("core.front_write", s as u64, now, || {
                    let mut co = cp.coalescer(bb)?;
                    for i in 0..RING {
                        let v = PiValue::Int32(vec![s as i32, input(seed, s, i)]);
                        co.write(bcast(i), "%*d", &[v])?;
                    }
                    co.flush()
                });
                let rows = spans.span("core.front_read", s as u64, now, || cp.gather(gb, "%*d"));
                let t1 = now();
                let mut o = out.lock().expect("root state");
                match (sent, rows) {
                    (Ok(()), Ok(rows)) => {
                        let rows = rows
                            .into_iter()
                            .map(|r| match r.as_slice() {
                                [PiValue::Int32(v)] => v.clone(),
                                other => vec![-1, other.len() as i32],
                            })
                            .collect();
                        o.steps.push((t0, t1, rows));
                    }
                    (a, b) => {
                        o.errors
                            .push(format!("step {s}: broadcast {a:?}, gather {:?}", b.err()));
                        break;
                    }
                }
            }
            spans.snapshot_threads();
            for t in tasks {
                cp.wait_spe(t);
            }
        })
        .map_err(|e| e.to_string())?;
    let root = std::mem::take(&mut *root.lock().expect("root state"));
    Ok((root, report, check_ms))
}

/// The seeded recoverable plan over a run of virtual length `horizon`:
/// single-message drops (each within the retry budget) and duplicates
/// scattered over both inter-Cell links, an open-ended delay (open so
/// that no message overtakes another), one SPE crash under supervision
/// and one Co-Pilot kill on node 1 mid-run.
pub fn plan(seed: u64, horizon: SimTime) -> FaultPlan {
    let mut rng = SplitMix64(seed ^ 0xC4A0_5FA1);
    let h = horizon.as_nanos().max(1);
    let (n0, n1) = (NodeId(0), NodeId(1));
    let mut plan = FaultPlan::new();
    // Link faults are matched in plan order, so drops and duplicates go
    // ahead of the open-ended delay on the same link.
    for k in 0..LINK_FAULTS {
        for (from, to) in [(n0, n1), (n1, n0)] {
            // One fault per slice of the run, at a seeded point in it.
            let at = h * k / LINK_FAULTS + rng.below(h / LINK_FAULTS / 2);
            let window = (SimTime(at), SimTime(at + h / 200));
            plan = if rng.below(2) == 0 {
                plan.drop_link(from, to, window.0, window.1, 1)
            } else {
                plan.duplicate_link(from, to, window.0, window.1, 1)
            };
        }
    }
    let delay_at = SimTime(h / 20 + rng.below(h / 2));
    let crash_at = SimTime(h / 10 + rng.below(h * 6 / 10));
    let kill_at = SimTime(h * 35 / 100 + rng.below(h * 3 / 10));
    // Process ids: main 0, ppe1 1, then the ring's SPEs in order.
    let crash_proc = 2 + rng.below(RING as u64) as usize;
    plan.delay_link(
        n0,
        n1,
        delay_at,
        SimTime(u64::MAX),
        SimDuration::from_micros(5 + rng.below(20)),
    )
    .crash_spe(crash_proc, crash_at)
    .kill_copilot(n1, kill_at)
}

/// Drop-or-duplicate faults per inter-Cell link direction per run.
const LINK_FAULTS: u64 = 8;

/// Leading steps left out of the latency samples: they include loading
/// the SPE programs.
pub const WARMUP_STEPS: usize = 2;

/// Incidents the plan accounts for.
const PLANNED: [IncidentCategory; 4] = [
    IncidentCategory::SpeCrash,
    IncidentCategory::SpeRestart,
    IncidentCategory::CopilotDeath,
    IncidentCategory::CopilotFailover,
];

/// One sub-run: the golden run, then the faulted run checked against it.
pub fn run_once(seed: u64, zero: bool, rec: Recorder, spans: SpanLog) -> Result<Part, String> {
    let steps = if zero { 0 } else { STEPS };
    let mut p = Part::default();
    let (golden, greport, check_ms) =
        deploy(seed, steps, None, Recorder::disabled(), &SpanLog::default())?;
    p.check_ms += check_ms;
    p.dispatches += greport.dispatches;
    let faults = plan(seed, greport.end_time);
    let (run, report, check_ms) = deploy(seed, steps, Some(faults), rec, &spans)?;
    p.check_ms += check_ms;
    p.dispatches += report.dispatches;
    crate::layers::count_findings(&mut p, &report);
    if steps == 0 {
        return Ok(p);
    }
    p.ops = steps as u64;
    p.errors
        .extend(golden.errors.iter().chain(&run.errors).cloned());

    let mut digest = Digest::default();
    for (k, want) in golden.steps.iter().enumerate() {
        match run.steps.get(k) {
            Some(got) if got.2 == want.2 => {
                digest.u64(got.0);
                digest.u64(got.1);
            }
            _ => {
                p.failed += 1;
                if p.failed == 1 {
                    p.errors.push(format!(
                        "seed {seed}: step {k} diverged from the golden run"
                    ));
                }
            }
        }
    }
    p.failed += (steps - golden.steps.len().min(steps)) as u64;
    for row in golden.steps.iter().flat_map(|s| &s.2) {
        for &v in row {
            digest.u64(v as u64);
        }
    }
    p.digest = digest.0;

    let mut seen = Vec::new();
    for inc in &report.incidents {
        if PLANNED.contains(&inc.category) {
            seen.push(inc.category);
        } else if !crate::layers::is_finding(inc.category) {
            p.failed += 1;
            p.errors.push(format!(
                "seed {seed}: unplanned {:?}: {}",
                inc.category, inc.detail
            ));
        }
    }
    if !seen.contains(&IncidentCategory::CopilotFailover) {
        p.errors.push(format!(
            "seed {seed}: the Co-Pilot kill did not exercise failover"
        ));
    }

    let intervals: Vec<(u64, u64)> = run.steps.iter().map(|s| (s.0, s.1)).collect();
    for &(t0, t1) in intervals.iter().skip(WARMUP_STEPS) {
        p.sample("lat", (t1 - t0) as f64 / 1e3);
    }
    p.max("outage_us", outage_us(&intervals));
    if let (Some(first), Some(last)) = (intervals.first(), intervals.last()) {
        p.add("busy_us", (last.1 - first.0) as f64 / 1e3);
    }
    // Per step: two words down and four up per SPE, plus one halo word
    // each way on every ring edge; four bytes a word.
    p.add("payload_bytes", (steps * RING * (2 + 4 + 2) * 4) as f64);
    Ok(p)
}

/// Virtual metrics of the pooled parts, and the report lines.
pub fn finish(p: &Part) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut m = BTreeMap::new();
    let busy = crate::common::sum(p, "busy_us").max(f64::MIN_POSITIVE);
    m.insert(
        "throughput_mb_s".into(),
        crate::common::sum(p, "payload_bytes") / busy,
    );
    m.insert("max_rate_req_s".into(), p.ops as f64 / busy * 1e6);
    let outage = p.maxes.get("outage_us").copied().unwrap_or(0.0);
    m.insert("net.outage_us".into(), outage);
    let lat = sorted(p, "lat");
    let notes = vec![format!(
        "outage_us = {outage:.2} (longest gap between completed steps); step p50 {:.2} us",
        percentile(&lat, 0.5)
    )];
    (m, notes)
}

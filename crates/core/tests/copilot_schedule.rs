//! Schedule pins for the Co-Pilot's service paths.
//!
//! Each scenario drives one family of Co-Pilot work — type-4 pairing and
//! type-5 relaying (eager and rendezvous), an OP_POLL farm, multicast and
//! coalesced-bundle fan-out, a scripted stall, and a kill with standby
//! failover — and pins the kernel's `(end_time, dispatches, processes)`,
//! the incident log and the rendered CellPilot trace by digest. The values
//! are the logical schedule: how the Co-Pilot is hosted (thread or
//! reactor) must not move any of them.

use cellpilot::{
    render_trace, CellPilotConfig, CellPilotOpts, CpBundleUsage, CpChannel, CpProcess, SpeProgram,
    TraceEvent, TraceOp, CP_MAIN,
};
use cp_des::{SimDuration, SimReport, SimTime};
use cp_pilot::PiValue;
use cp_simnet::{ClusterSpec, FaultPlan, NodeId};
use std::sync::Arc;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// What a scenario pins: end time (ns), dispatches, processes, incident
/// digest and trace digest.
type Pin = (u64, u64, usize, u64, u64);

fn pin_of(report: &SimReport, trace: &[TraceEvent]) -> Pin {
    let incidents: String = report
        .incidents
        .iter()
        .map(|i| format!("{} {} {} {}\n", i.at, i.process, i.category, i.detail))
        .collect();
    (
        report.end_time.as_nanos(),
        report.dispatches,
        report.processes,
        fnv1a(&incidents),
        fnv1a(&render_trace(trace)),
    )
}

/// Run `scenario` twice (replay must be identical) and compare with `want`.
fn assert_pinned(name: &str, want: Pin, scenario: impl Fn() -> (SimReport, Vec<TraceEvent>)) {
    let (r1, t1) = scenario();
    let (r2, t2) = scenario();
    let (a, b) = (pin_of(&r1, &t1), pin_of(&r2, &t2));
    assert_eq!(a, b, "{name}: replay diverged");
    assert_eq!(
        a, want,
        "{name}: schedule pin drifted; got {a:?}, incidents {:?}",
        r1.incidents
    );
}

fn cfg(plan: Option<FaultPlan>) -> CellPilotConfig {
    let mut opts = CellPilotOpts::new().with_trace();
    if let Some(p) = plan {
        opts = opts.with_faults(Arc::new(p));
    }
    CellPilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), opts)
}

fn payload(words: usize) -> Vec<i32> {
    (0..words as i32).map(|i| i.wrapping_mul(7919)).collect()
}

/// An SPE echo pair `x -> y -> x`, with `y` on the other Cell node when
/// `y_remote`.
/// Three round trips of `words` i32s; `eager` marks both channels eager.
fn spe_echo(y_remote: bool, words: usize, eager: bool) -> (SimReport, Vec<TraceEvent>) {
    let mut cfg = cfg(None);
    let format = format!("%{words}d");
    let fx = format.clone();
    let x = SpeProgram::new("x", 2048, move |spe, _, _| {
        for _ in 0..3 {
            spe.write_slice(CpChannel(0), &payload(words)).unwrap();
            let v = spe.read(CpChannel(1), &fx).unwrap();
            assert_eq!(v, vec![PiValue::Int32(payload(words))]);
        }
    });
    let y = SpeProgram::new("y", 2048, move |spe, _, _| {
        for _ in 0..3 {
            let v = spe.read(CpChannel(0), &format).unwrap();
            spe.write(CpChannel(1), &format, &v).unwrap();
        }
    });
    let y_parent = if y_remote {
        cfg.create_process("parent", 0, |cp, _| cp.run_and_wait_my_spes())
            .unwrap()
    } else {
        CP_MAIN
    };
    let px = cfg.create_spe_process(&x, CP_MAIN, 0).unwrap();
    let py = cfg.create_spe_process(&y, y_parent, 0).unwrap();
    for (a, b) in [(px, py), (py, px)] {
        let ch = cfg.channel(a, b);
        if eager { ch.eager() } else { ch }.build().unwrap();
    }
    cfg.run_traced(move |cp| cp.run_and_wait_my_spes()).unwrap()
}

#[test]
fn type4_eager_schedule_is_pinned() {
    assert_pinned(
        "type-4 eager",
        (
            756_589,
            222,
            23,
            0xcbf2_9ce4_8422_2325,
            0xd02e_ac7b_f29f_a730,
        ),
        || spe_echo(false, 3, true),
    );
}

#[test]
fn type4_rendezvous_schedule_is_pinned() {
    assert_pinned(
        "type-4 rendezvous",
        (
            2_981_233,
            222,
            23,
            0xcbf2_9ce4_8422_2325,
            0x8738_90b0_88b4_f471,
        ),
        || spe_echo(false, 4500, false),
    );
}

#[test]
fn type5_eager_schedule_is_pinned() {
    assert_pinned(
        "type-5 eager",
        (
            1_245_033,
            265,
            24,
            0xcbf2_9ce4_8422_2325,
            0xd172_fe90_fdb0_3a03,
        ),
        || spe_echo(true, 3, true),
    );
}

/// 18 000 bytes per message: above the 16 KiB MPI eager limit, so each
/// Co-Pilot-to-Co-Pilot leg is an RTS/CTS rendezvous.
#[test]
fn type5_rendezvous_schedule_is_pinned() {
    assert_pinned(
        "type-5 rendezvous",
        (
            8_273_421,
            283,
            24,
            0xcbf2_9ce4_8422_2325,
            0xbb38_62b9_c102_e76d,
        ),
        || spe_echo(true, 4500, false),
    );
}

/// SPE workers poll their task channels (OP_POLL through the Co-Pilot)
/// while main deals tasks out late, on both Cell nodes.
#[test]
fn op_poll_farm_schedule_is_pinned() {
    assert_pinned(
        "OP_POLL farm",
        (
            1_821_125,
            751,
            26,
            0xcbf2_9ce4_8422_2325,
            0x272d_bf0b_acdc_a1df,
        ),
        || {
            let mut cfg = cfg(None);
            let worker = SpeProgram::new("worker", 2048, |spe, _, _| {
                let w = spe.index() as usize;
                let (task, result) = (CpChannel(2 * w), CpChannel(2 * w + 1));
                for _ in 0..2 {
                    while !spe.channel_has_data(task).unwrap() {
                        spe.ctx().advance(SimDuration::from_micros(20));
                    }
                    let v = spe.read_vec::<i32>(task).unwrap();
                    spe.write_slice(result, &[v[0] * 2]).unwrap();
                }
            });
            let host = cfg
                .create_process("host", 0, |cp, _| cp.run_and_wait_my_spes())
                .unwrap();
            let mut chans = Vec::new();
            for w in 0..4 {
                let parent = if w < 2 { CP_MAIN } else { host };
                let s = cfg.create_spe_process(&worker, parent, w).unwrap();
                let task = cfg.channel(CP_MAIN, s).build().unwrap();
                let result = cfg.channel(s, CP_MAIN).build().unwrap();
                chans.push((task, result));
            }
            cfg.run_traced(move |cp| {
                let mut ts = Vec::new();
                for p in 0..cp.process_count() {
                    if let Ok(t) = cp.run_spe(CpProcess(p), 0, 0) {
                        ts.push(t);
                    }
                }
                for round in 0..2 {
                    for (i, &(task, _)) in chans.iter().enumerate() {
                        cp.ctx().advance(SimDuration::from_micros(90));
                        cp.write_slice(task, &[(10 * round + i) as i32]).unwrap();
                    }
                    for (i, &(_, result)) in chans.iter().enumerate() {
                        assert_eq!(
                            cp.read_vec::<i32>(result).unwrap(),
                            vec![2 * (10 * round + i) as i32]
                        );
                    }
                }
                for t in ts {
                    cp.wait_spe(t);
                }
            })
            .unwrap()
        },
    );
}

/// Build a broadcast bundle from main to two SPEs on each Cell node (and
/// optionally coalesce it); each SPE reads `rounds` messages.
fn fan_out(coalesce: bool) -> (SimReport, Vec<TraceEvent>) {
    let rounds = 3;
    let mut cfg = cfg(None);
    let reader = SpeProgram::new("reader", 2048, move |spe, _, _| {
        let chan = CpChannel(spe.index() as usize);
        for r in 0..rounds {
            let v = spe.read_vec::<i32>(chan).unwrap();
            // Coalesced writes carry the member index; a broadcast carries
            // one payload to every member.
            let member = if coalesce { spe.index() } else { -1 };
            assert_eq!(v, vec![r, member]);
        }
    });
    let host = cfg
        .create_process("host", 0, |cp, _| cp.run_and_wait_my_spes())
        .unwrap();
    let mut chans = Vec::new();
    for i in 0..4 {
        let parent = if i < 2 { CP_MAIN } else { host };
        let s = cfg.create_spe_process(&reader, parent, i).unwrap();
        let ch = cfg.channel(CP_MAIN, s);
        chans.push(if coalesce { ch.eager() } else { ch }.build().unwrap());
    }
    let bundle = cfg.create_bundle(CpBundleUsage::Broadcast, &chans).unwrap();
    if coalesce {
        cfg.coalesce_bundle(bundle, 4, 50.0).unwrap();
    }
    cfg.run_traced(move |cp| {
        let mut ts = Vec::new();
        for p in 0..cp.process_count() {
            if let Ok(t) = cp.run_spe(CpProcess(p), 0, 0) {
                ts.push(t);
            }
        }
        for r in 0..rounds {
            if coalesce {
                let mut co = cp.coalescer(bundle).unwrap();
                for (i, &c) in chans.iter().enumerate() {
                    co.write(c, "%2d", &[PiValue::Int32(vec![r, i as i32])])
                        .unwrap();
                }
                co.flush().unwrap();
            } else {
                cp.broadcast(bundle, "%2d", &[PiValue::Int32(vec![r, -1])])
                    .unwrap();
            }
        }
        for t in ts {
            cp.wait_spe(t);
        }
    })
    .unwrap()
}

#[test]
fn mcast_schedule_is_pinned() {
    assert_pinned(
        "mcast",
        (
            640_427,
            270,
            26,
            0xcbf2_9ce4_8422_2325,
            0x08f7_09a8_0fab_02dd,
        ),
        || fan_out(false),
    );
}

#[test]
fn bundle_schedule_is_pinned() {
    assert_pinned(
        "bundle",
        (
            464_417,
            287,
            26,
            0xcbf2_9ce4_8422_2325,
            0x6f79_1596_88a2_3f16,
        ),
        || fan_out(true),
    );
}

/// A five-round SPE ↔ main ping-pong on node 0 under `plan`.
fn ping_pong(plan: Option<FaultPlan>) -> (SimReport, Vec<TraceEvent>) {
    let mut cfg = cfg(plan);
    let writer = SpeProgram::new("writer", 2048, |spe, _, _| {
        for i in 0..5i32 {
            spe.write_slice(CpChannel(0), &[i, i * i, i + 100]).unwrap();
            assert_eq!(spe.read_vec::<i32>(CpChannel(1)).unwrap(), vec![i]);
        }
    });
    let s = cfg.create_spe_process(&writer, CP_MAIN, 0).unwrap();
    let data = cfg.channel(s, CP_MAIN).build().unwrap();
    let ack = cfg.channel(CP_MAIN, s).build().unwrap();
    cfg.run_traced(move |cp| {
        let t = cp.run_spe(s, 0, 0).unwrap();
        for i in 0..5i32 {
            assert_eq!(cp.read_vec::<i32>(data).unwrap(), vec![i, i * i, i + 100]);
            cp.write_slice(ack, &[i]).unwrap();
        }
        cp.wait_spe(t);
    })
    .unwrap()
}

#[test]
fn copilot_stall_schedule_is_pinned() {
    assert_pinned(
        "stall",
        (
            2_856_039,
            248,
            22,
            0x06cf_ddbe_5813_7e22,
            0x43b6_5d6c_952e_ce6a,
        ),
        || {
            ping_pong(Some(FaultPlan::new().stall_copilot(
                NodeId(0),
                SimTime(300_000),
                SimDuration::from_millis(2),
            )))
        },
    );
}

#[test]
fn copilot_failover_schedule_is_pinned() {
    // Kill the primary at main's third read of the fault-free run.
    let (_, golden) = ping_pong(None);
    let kill_at = golden
        .iter()
        .filter(|e| e.op == TraceOp::RankRead && e.process == "main")
        .nth(2)
        .expect("five rank reads")
        .at;
    assert_pinned(
        "failover",
        (
            1_997_112,
            264,
            26,
            0x58e7_323b_9199_17ed,
            0xa180_632d_0884_d75b,
        ),
        || ping_pong(Some(FaultPlan::new().kill_copilot(NodeId(0), kill_at))),
    );
}

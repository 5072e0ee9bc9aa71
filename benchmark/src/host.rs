//! Host-clock instruments: per-thread CPU and context switches from
//! `/proc/self/task`, peak RSS, and the isolated substrate probes and
//! machine calibration loops of the traced run.
//!
//! Simulation threads exit with their deployment, and a bulk-pingpong
//! deployment lives for milliseconds, so a background sampler would miss
//! most of them. Instead each workload's driving process reads the
//! thread table from inside the simulation once its last operation has
//! completed, while every thread of the deployment is still alive.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use cp_cellsim::{CellCosts, CellNode, DmaDir, Mailboxes};
use cp_des::{SimDuration, Simulation};
use cp_mpisim::{mpirun, MpiCosts};
use cp_simnet::{ClusterSpec, NodeId};

use crate::common::median;

/// CPU time and context switches of one OS thread.
#[derive(Debug, Clone, Default)]
pub struct ThreadStat {
    /// Thread name as the kernel keeps it (first 15 bytes).
    pub comm: String,
    /// CPU time on the clock, ns (`schedstat`).
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub switches: u64,
}

fn read_task(dir: &std::path::Path) -> Option<ThreadStat> {
    let comm = fs::read_to_string(dir.join("comm"))
        .ok()?
        .trim()
        .to_string();
    let cpu_ns = fs::read_to_string(dir.join("schedstat"))
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    let status = fs::read_to_string(dir.join("status")).ok()?;
    let switches = status
        .lines()
        .filter(|l| l.contains("ctxt_switches:"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum();
    Some(ThreadStat {
        comm,
        cpu_ns,
        switches,
    })
}

/// Every live simulation thread (`sim-*`) of this process, with its
/// thread id.
pub fn sim_threads() -> Vec<(u64, ThreadStat)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid = e.file_name().to_str()?.parse().ok()?;
        Some((tid, read_task(&e.path())?))
    })
    .filter(|(_, t)| t.comm.starts_with("sim-"))
    .collect()
}

/// CPU time this process has used, user plus system, in seconds,
/// including threads that have exited (`/proc/self/stat`, in the fixed
/// 100 Hz `USER_HZ` units of the proc ABI). On a virtual machine it
/// leaves out time the hypervisor gave to other guests.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |n: usize| {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(14) + field(15)) / 100.0
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of three timings of `f`, divided by `per`.
fn timed(per: f64, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per
        })
        .collect();
    median(&v)
}

/// The isolated substrate probes and calibration loops, ns or µs per
/// operation as each name says.
pub fn probes() -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();

    // DES kernel: two processes trading the CPU every step.
    const STEPS: u64 = 5000;
    m.insert(
        "probe.des_handoff_ns".into(),
        timed((2 * STEPS) as f64, || {
            let mut sim = Simulation::new();
            for p in 0..2 {
                sim.spawn(&format!("p{p}"), |ctx| {
                    for _ in 0..STEPS {
                        ctx.advance(SimDuration::from_nanos(10));
                    }
                });
            }
            black_box(sim.run().expect("handoff probe"));
        }),
    );

    // MPI: a two-rank ping-pong, µs of host time per round trip.
    const ROUNDS: usize = 200;
    m.insert(
        "probe.mpi_pingpong_host_us".into(),
        timed(ROUNDS as f64 * 1e3, || {
            let spec = ClusterSpec::two_cells_one_xeon();
            mpirun(
                &spec,
                vec![NodeId(0), NodeId(1)],
                MpiCosts::default(),
                |comm| {
                    for _ in 0..ROUNDS {
                        if comm.rank() == 0 {
                            comm.send(1, 0, &[1u8]);
                            black_box(comm.recv(Some(1), Some(0)));
                        } else {
                            let msg = comm.recv(Some(0), Some(0));
                            comm.send_bytes(0, 0, msg.dtype, msg.count, msg.data);
                        }
                    }
                },
            )
            .expect("mpi probe");
        }),
    );

    // Cell node: MFC DMA get plus tag wait.
    const DMAS: u32 = 2000;
    m.insert(
        "probe.cellsim_dma_host_ns".into(),
        timed(f64::from(DMAS), || {
            let cell = CellNode::new(0, 8, 1 << 20, CellCosts::default());
            let mut sim = Simulation::new();
            sim.spawn("spu", move |ctx| {
                let buf = cell.mem.alloc(1024, 16).expect("main memory");
                let ls = cell.spes[0].ls.alloc(1024, 16).expect("local store");
                for i in 0..DMAS {
                    let tag = i % 16;
                    cell.dma(ctx, 0, DmaDir::Get, tag, ls, buf, 1024)
                        .expect("dma");
                    cell.dma_wait(ctx, 0, 1 << tag);
                }
            });
            black_box(sim.run().expect("dma probe"));
        }),
    );

    // Cell node: SPU-to-PPE outbound mailbox words.
    const WORDS: u32 = 2000;
    m.insert(
        "probe.cellsim_mbox_host_ns".into(),
        timed(f64::from(WORDS), || {
            let mb = Arc::new(Mailboxes::new("probe"));
            let mut sim = Simulation::new();
            let (tx, rx) = (mb.clone(), mb);
            sim.spawn("spu", move |ctx| {
                for w in 0..WORDS {
                    tx.spu_write_outbox(ctx, &CellCosts::default(), w);
                }
            });
            sim.spawn("ppe", move |ctx| {
                for _ in 0..WORDS {
                    black_box(rx.ppe_read_outbox(ctx, &CellCosts::default()));
                }
            });
            black_box(sim.run().expect("mailbox probe"));
        }),
    );

    // Machine calibration: a spinning and a Mutex+Condvar baton pass
    // between two threads, ns per pass.
    const PASSES: u64 = 20_000;
    m.insert(
        "calib.spin_ns".into(),
        timed(PASSES as f64, || {
            let turn = Arc::new(AtomicU64::new(0));
            let other = {
                let turn = turn.clone();
                thread::spawn(move || {
                    for i in 0..PASSES {
                        while turn.load(Ordering::Acquire) != 2 * i + 1 {
                            std::hint::spin_loop();
                        }
                        turn.store(2 * i + 2, Ordering::Release);
                    }
                })
            };
            for i in 0..PASSES {
                turn.store(2 * i + 1, Ordering::Release);
                while turn.load(Ordering::Acquire) != 2 * i + 2 {
                    std::hint::spin_loop();
                }
            }
            other.join().expect("spin partner");
        }) / 2.0,
    );
    const BATONS: u64 = 5_000;
    m.insert(
        "calib.condvar_ns".into(),
        timed(BATONS as f64, || {
            let baton = Arc::new((Mutex::new(0u64), Condvar::new()));
            let other = {
                let baton = baton.clone();
                thread::spawn(move || {
                    let (lock, cv) = &*baton;
                    let mut turn = lock.lock().expect("baton");
                    for i in 0..BATONS {
                        while *turn != 2 * i + 1 {
                            turn = cv.wait(turn).expect("baton");
                        }
                        *turn += 1;
                        cv.notify_one();
                    }
                })
            };
            {
                let (lock, cv) = &*baton;
                let mut turn = lock.lock().expect("baton");
                for i in 0..BATONS {
                    *turn = 2 * i + 1;
                    cv.notify_one();
                    while *turn != 2 * i + 2 {
                        turn = cv.wait(turn).expect("baton");
                    }
                }
            }
            other.join().expect("condvar partner");
        }) / 2.0,
    );
    m
}

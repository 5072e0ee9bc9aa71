//! `bulk-pingpong`: a closed loop, one ping-pong pair per cell of the
//! matrix {types 1–5 two-sided, types 2–5 one-sided} × {1 B, 1600 B,
//! three seeded sizes up to 16 000 B}, on the paper's GigE
//! two-Cells-one-Xeon cluster with eager inlining off.
//!
//! The deployments mirror `cp_bench::pingpong` exactly (same endpoints,
//! formats and warm-up), so the ten two-sided 1 B / 1600 B cells
//! reproduce Table II as `cp_bench::measure_table2` measures it; the
//! payloads are seeded and every returned byte is checked.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cellpilot::{
    CellPilot, CellPilotConfig, CellPilotOpts, CpChannel, CpProcess, SpeProgram, CP_MAIN,
};
use cp_pilot::PiValue;
use cp_simnet::ClusterSpec;
use cp_trace::Recorder;

use crate::common::{percentile, sorted, sum, Digest, Part, SpanLog, SplitMix64};

/// Untimed rounds before the timed ones, as in `cp_bench::pingpong`.
pub use cp_bench::WARMUP;

/// Timed rounds per cell.
pub const REPS: usize = 20;

/// The two CellPilot cells the cost model was calibrated on (type 2 pins
/// the Co-Pilot dispatch cost, type 4 the pair-poll cost, both at 1 B);
/// `paper_err_pct` averages over the other eight.
pub const CALIBRATION_CELLS: [(u8, usize); 2] = [(2, 1), (4, 1)];

/// The payload sizes of one sub-run: Table II's two plus three seeded
/// sizes, each from a narrow band (2–2.3 KB, 6–6.6 KB, 15–16 KB) so that
/// seeds vary the inputs without changing how much work a run is.
pub fn sizes(seed: u64) -> [usize; 5] {
    let mut rng = SplitMix64(seed ^ 0xB0_1C_5E_ED);
    let mut band = |lo: u64, width: u64| (lo + rng.below(width)) as usize;
    [1, 1600, band(2048, 256), band(6144, 512), band(15_360, 640)]
}

/// The Pilot format of a payload of `bytes`: Table II's `%b` and
/// `%100Lf`, a byte array otherwise.
fn format_for(bytes: usize) -> String {
    match bytes {
        1 => "%b".to_string(),
        1600 => "%100Lf".to_string(),
        n => format!("%{n}b"),
    }
}

/// A seeded payload of `bytes` wire bytes.
fn payload(rng: &mut SplitMix64, bytes: usize) -> PiValue {
    match bytes {
        1600 => PiValue::LongDouble(
            (0..100)
                .map(|_| cp_mpisim::LongDouble((rng.below(1 << 40)) as f64))
                .collect(),
        ),
        n => PiValue::Byte(
            (0..n.div_ceil(8))
                .flat_map(|_| rng.next_u64().to_le_bytes())
                .take(n)
                .collect(),
        ),
    }
}

/// What the initiator of one cell measured.
#[derive(Debug, Default)]
struct CellOut {
    /// Virtual ns per timed round.
    rounds_ns: Vec<u64>,
    /// Rounds whose reply differed from the request.
    bad: u64,
    digest: Digest,
}

/// The initiator's loop: `total` rounds, the first `WARMUP` untimed.
#[allow(clippy::too_many_arguments)]
fn initiate(
    now: &dyn Fn() -> u64,
    write: &dyn Fn(&[PiValue]) -> Result<(), cellpilot::CpError>,
    read: &dyn Fn() -> Result<Vec<PiValue>, cellpilot::CpError>,
    total: usize,
    bytes: usize,
    payload_seed: u64,
    spans: &SpanLog,
    out: &Mutex<CellOut>,
) {
    let mut rng = SplitMix64(payload_seed);
    for r in 0..total {
        let data = payload(&mut rng, bytes);
        let t0 = now();
        let sent = spans.span("core.front_write", r as u64, now, || {
            write(std::slice::from_ref(&data))
        });
        let got = spans.span("core.front_read", r as u64, now, read);
        let t1 = now();
        let mut o = out.lock().expect("cell result");
        match (sent, got) {
            (Ok(()), Ok(v)) if v.len() == 1 && v[0] == data => {}
            _ => o.bad += 1,
        }
        if r >= WARMUP {
            o.rounds_ns.push(t1 - t0);
            o.digest.u64(t1 - t0);
        }
    }
    spans.snapshot_threads();
}

/// Echo `total` messages from channel 0 back on channel 1.
fn echo(
    read: impl Fn() -> Vec<PiValue>,
    write: impl Fn(&[PiValue]),
    total: usize,
    spans: &SpanLog,
) {
    for r in 0..total {
        let v = read();
        if r + 1 == total {
            // The echo may exit before the initiator's final snapshot.
            spans.snapshot_threads();
        }
        write(&v);
    }
}

/// One cell's deployment. `rounds` is `WARMUP + REPS`, or 0 for the
/// zero-op run.
#[allow(clippy::too_many_arguments)]
fn cell(
    chan_type: u8,
    bytes: usize,
    one_sided: bool,
    rounds: usize,
    payload_seed: u64,
    rec: Recorder,
    spans: &SpanLog,
    check_ms: &mut f64,
) -> Result<(CellOut, cp_des::SimReport), String> {
    let mut opts = CellPilotOpts::new().with_tracing(rec.clone());
    if rec.is_enabled() {
        // Records the happens-before stream (DMA, mailboxes).
        opts = opts.with_checks();
    }
    let mut cfg = CellPilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), opts);
    let out = Arc::new(Mutex::new(CellOut::default()));
    let fmt = format_for(bytes);
    let (c0, c1) = (CpChannel(0), CpChannel(1));

    let rank_echo = {
        let (fmt, spans) = (fmt.clone(), spans.clone());
        move |cp: &CellPilot, _: i32| {
            echo(
                || cp.read(c0, &fmt).expect("echo read"),
                |v| cp.write(c1, &fmt, v).expect("echo write"),
                rounds,
                &spans,
            )
        }
    };
    let spe_echo = {
        let (fmt, spans) = (fmt.clone(), spans.clone());
        SpeProgram::new("echo", 2048, move |spe, _, _| {
            echo(
                || spe.read(c0, &fmt).expect("echo read"),
                |v| spe.write(c1, &fmt, v).expect("echo write"),
                rounds,
                &spans,
            )
        })
    };
    let spe_init = {
        let (fmt, out, spans) = (fmt.clone(), out.clone(), spans.clone());
        SpeProgram::new("ping", 2048, move |spe, _, _| {
            initiate(
                &|| spe.ctx().now().as_nanos(),
                &|v| spe.write(c0, &fmt, v),
                &|| spe.read(c1, &fmt),
                rounds,
                bytes,
                payload_seed,
                &spans,
                &out,
            )
        })
    };
    let chan = |cfg: &mut CellPilotConfig, from: CpProcess, to: CpProcess, spe_reader: bool| {
        let b = cfg.channel(from, to);
        let b = if one_sided && spe_reader {
            b.one_sided()
        } else {
            b
        };
        b.build().map(|_| ()).map_err(|e| e.to_string())
    };
    let err = |e: cellpilot::CpError| e.to_string();
    match chan_type {
        1 => {
            let peer = cfg.create_process("echo-ppe", 0, rank_echo).map_err(err)?;
            chan(&mut cfg, CP_MAIN, peer, false)?;
            chan(&mut cfg, peer, CP_MAIN, false)?;
        }
        2 => {
            let spe = cfg.create_spe_process(&spe_echo, CP_MAIN, 0).map_err(err)?;
            chan(&mut cfg, CP_MAIN, spe, true)?;
            chan(&mut cfg, spe, CP_MAIN, false)?;
        }
        3 => {
            let parent = cfg
                .create_process("remote-parent", 0, |cp, _| cp.run_and_wait_my_spes())
                .map_err(err)?;
            let spe = cfg.create_spe_process(&spe_echo, parent, 0).map_err(err)?;
            chan(&mut cfg, CP_MAIN, spe, true)?;
            chan(&mut cfg, spe, CP_MAIN, false)?;
        }
        4 => {
            let a = cfg.create_spe_process(&spe_init, CP_MAIN, 0).map_err(err)?;
            let b = cfg.create_spe_process(&spe_echo, CP_MAIN, 1).map_err(err)?;
            chan(&mut cfg, a, b, true)?;
            chan(&mut cfg, b, a, true)?;
        }
        5 => {
            let parent = cfg
                .create_process("remote-parent", 0, |cp, _| cp.run_and_wait_my_spes())
                .map_err(err)?;
            let a = cfg.create_spe_process(&spe_init, CP_MAIN, 0).map_err(err)?;
            let b = cfg.create_spe_process(&spe_echo, parent, 0).map_err(err)?;
            chan(&mut cfg, a, b, true)?;
            chan(&mut cfg, b, a, true)?;
        }
        other => return Err(format!("no channel type {other}")),
    }
    let t = Instant::now();
    let _findings = cfg.check();
    *check_ms += t.elapsed().as_secs_f64() * 1e3;

    let (main_out, main_spans, main_fmt) = (out.clone(), spans.clone(), fmt);
    let report = cfg
        .run(move |cp| {
            let tasks = cp.run_my_spes();
            if chan_type <= 3 {
                initiate(
                    &|| cp.ctx().now().as_nanos(),
                    &|v| cp.write(c0, &main_fmt, v),
                    &|| cp.read(c1, &main_fmt),
                    rounds,
                    bytes,
                    payload_seed,
                    &main_spans,
                    &main_out,
                );
            }
            for t in tasks {
                cp.wait_spe(t);
            }
        })
        .map_err(|e| e.to_string())?;
    let out = std::mem::take(&mut *out.lock().expect("cell result"));
    Ok((out, report))
}

/// Mean one-way latency of a cell, µs, computed as
/// `cp_bench::pingpong` does: timed virtual time over twice the rounds.
fn one_way_mean_us(rounds_ns: &[u64]) -> f64 {
    let total_ns: u64 = rounds_ns.iter().sum();
    cp_des::SimDuration::from_nanos(total_ns).as_micros_f64() / (2.0 * rounds_ns.len() as f64)
}

/// Mean one-way latency of each two-sided Table II cell, µs, in
/// `measure_table2` order: `(type, bytes, µs)`.
pub fn table2(seed: u64) -> Result<Vec<(u8, usize, f64)>, String> {
    let mut check_ms = 0.0;
    let mut out = Vec::new();
    for t in 1..=5u8 {
        for bytes in [1, 1600] {
            let (c, _) = cell(
                t,
                bytes,
                false,
                WARMUP + REPS,
                seed,
                Recorder::disabled(),
                &SpanLog::default(),
                &mut check_ms,
            )?;
            out.push((t, bytes, one_way_mean_us(&c.rounds_ns)));
        }
    }
    Ok(out)
}

/// One sub-run: every cell of the matrix, in order.
pub fn run_once(seed: u64, zero: bool, rec: Recorder, spans: SpanLog) -> Result<Part, String> {
    let rounds = if zero { 0 } else { WARMUP + REPS };
    let mut p = Part::default();
    let mut digest = Digest::default();
    let mut rng = SplitMix64(seed);
    let mut held_out = Vec::new();
    for (one_sided, types) in [(false, 1..=5u8), (true, 2..=5u8)] {
        for t in types {
            for bytes in sizes(seed) {
                // A recorder per deployment: see `layers::absorb_counters`.
                let cell_rec = if rec.is_enabled() {
                    Recorder::enabled()
                } else {
                    Recorder::disabled()
                };
                let (c, report) = cell(
                    t,
                    bytes,
                    one_sided,
                    rounds,
                    rng.next_u64(),
                    cell_rec.clone(),
                    &spans,
                    &mut p.check_ms,
                )?;
                if cell_rec.is_enabled() {
                    crate::layers::absorb_counters(&mut p, &cell_rec);
                }
                p.dispatches += report.dispatches;
                crate::layers::count_findings(&mut p, &report);
                p.ops += 2 * rounds as u64;
                p.failed += 2 * c.bad;
                if c.bad > 0 {
                    p.errors.push(format!(
                        "type {t} {bytes} B{}: {} replies differ from their requests",
                        if one_sided { " one-sided" } else { "" },
                        c.bad
                    ));
                }
                if let Some(inc) = report
                    .incidents
                    .iter()
                    .find(|i| !crate::layers::is_finding(i.category))
                {
                    p.failed += 1;
                    p.errors.push(format!(
                        "unexpected incident {:?}: {}",
                        inc.category, inc.detail
                    ));
                }
                digest.u64(c.digest.0);
                if rounds == 0 {
                    continue;
                }
                let exchange_ns: u64 = c.rounds_ns.iter().sum();
                p.add("exchange_us", exchange_ns as f64 / 1e3);
                p.add("payload_bytes", (2 * bytes * c.rounds_ns.len()) as f64);
                p.add("messages", 2.0 * c.rounds_ns.len() as f64);
                for &ns in &c.rounds_ns {
                    p.sample("lat", ns as f64 / 2e3);
                    p.max("outage_us", ns as f64 / 2e3);
                }
                let paper_col = match bytes {
                    1 => Some(0),
                    1600 => Some(1),
                    _ => None,
                };
                if let (false, Some(col)) = (one_sided, paper_col) {
                    if !CALIBRATION_CELLS.contains(&(t, bytes)) {
                        let paper = cp_bench::PAPER_TABLE2[usize::from(t - 1)][col].0;
                        held_out.push((one_way_mean_us(&c.rounds_ns) - paper).abs() / paper);
                    }
                }
            }
        }
    }
    if !held_out.is_empty() {
        p.sample(
            "paper_err_pct",
            100.0 * held_out.iter().sum::<f64>() / held_out.len() as f64,
        );
    }
    p.digest = digest.0;
    Ok(p)
}

/// Virtual metrics of the pooled parts, and the report lines.
pub fn finish(p: &Part) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut m = BTreeMap::new();
    let exchange_us = sum(p, "exchange_us").max(f64::MIN_POSITIVE);
    m.insert(
        "throughput_mb_s".into(),
        sum(p, "payload_bytes") / exchange_us,
    );
    m.insert(
        "max_rate_req_s".into(),
        sum(p, "messages") / exchange_us * 1e6,
    );
    m.insert(
        "net.outage_us".into(),
        p.maxes.get("outage_us").copied().unwrap_or(0.0),
    );
    let err = sorted(p, "paper_err_pct");
    m.insert("model.paper_err_pct".into(), percentile(&err, 0.5));
    let notes = vec![format!(
        "paper_err_pct = {:.3} % (eight held-out Table II cells)",
        percentile(&err, 0.5)
    )];
    (m, notes)
}

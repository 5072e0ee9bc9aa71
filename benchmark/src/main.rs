//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <service-open|bulk-pingpong|chaos-fanout|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics (and writes the span trace under `.bench_out/`). The last
//! line of standard output is one JSON object; the exit code is non-zero
//! when any output check failed. `all` runs each workload in its own
//! process, one after the other.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use cp_benchmark::common::{median, percentile, pool, sorted, Part, SpanLog, SplitMix64};
use cp_benchmark::{bulk, chaos, host, layers, service};
use cp_trace::Recorder;

type RunOnce = fn(u64, bool, Recorder, SpanLog) -> Result<Part, String>;
type Finish = fn(&Part) -> (BTreeMap<String, f64>, Vec<String>);

/// One workload as the harness drives it.
struct Workload {
    name: &'static str,
    run_once: RunOnce,
    finish: Finish,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "service-open",
        run_once: service::run_once,
        finish: service::finish,
    },
    Workload {
        name: "bulk-pingpong",
        run_once: bulk::run_once,
        finish: bulk::finish,
    },
    Workload {
        name: "chaos-fanout",
        run_once: chaos::run_once,
        finish: chaos::finish,
    },
];

/// Sub-runs, each a deployment with its own sub-seed, whose pooled
/// results give the virtual metrics. Fixed, so virtual figures do not
/// depend on how fast the host is.
const SUB_RUNS: u64 = 8;

/// Sub-runs of each half of the traced run.
const TRACED_SUB_RUNS: u64 = 3;

/// Zero-op deployments timed before the first sub-run (one more precedes
/// every sub-run); `setup_s` is the median of all of them.
const SETUP_WARMUP: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The `k`-th sub-seed of `seed`.
fn sub_seed(seed: u64, k: u64) -> u64 {
    SplitMix64(seed.wrapping_mul(0x100_0000_01B3) ^ k).next_u64()
}

/// Run one sub-run and time it on the host clock.
fn timed_part(
    w: &Workload,
    seed: u64,
    zero: bool,
    rec: Recorder,
    spans: SpanLog,
) -> (Result<Part, String>, Timing) {
    let (t, cpu) = (Instant::now(), host::process_cpu_s());
    let p = (w.run_once)(seed, zero, rec, spans);
    let timing = Timing {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_s() - cpu,
    };
    (p, timing)
}

/// Host wall and CPU seconds of one sub-run.
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall_s: f64,
    cpu_s: f64,
}

/// Median wall and median CPU time of a set of timings.
fn median_timing(t: &[Timing]) -> Timing {
    let wall: Vec<f64> = t.iter().map(|t| t.wall_s).collect();
    let cpu: Vec<f64> = t.iter().map(|t| t.cpu_s).collect();
    Timing {
        wall_s: median(&wall),
        cpu_s: median(&cpu),
    }
}

/// What the measured phase produced.
struct Measured {
    pooled: Part,
    /// Host time and operations of every timed sub-run.
    timed: Vec<(Timing, u64)>,
    wall_s: f64,
    parts: Vec<Part>,
}

impl Measured {
    /// Host wall µs per operation, net of the zero-op deployment: one
    /// value per timed sub-run.
    fn wall_us(&self, zero: Timing) -> Vec<f64> {
        self.timed
            .iter()
            .map(|&(t, ops)| (t.wall_s - zero.wall_s).max(0.0) * 1e6 / ops.max(1) as f64)
            .collect()
    }

    /// Host CPU µs per operation over every timed sub-run together, net
    /// of the zero-op deployments. Process CPU time counts in 10 ms
    /// ticks, so it is summed over the whole run rather than taken per
    /// sub-run.
    fn cpu_us(&self, zero: Timing) -> f64 {
        let cpu: f64 = self.timed.iter().map(|(t, _)| t.cpu_s - zero.cpu_s).sum();
        let ops: u64 = self.timed.iter().map(|(_, ops)| ops).sum();
        cpu.max(0.0) * 1e6 / ops.max(1) as f64
    }
}

/// Time one zero-op deployment into `setup` (and its `check()` into
/// `check_ms`).
fn time_setup(
    w: &Workload,
    seed: u64,
    setup: &mut Vec<Timing>,
    check_ms: &mut Vec<f64>,
    errors: &mut Vec<String>,
) {
    match timed_part(
        w,
        sub_seed(seed, 0),
        true,
        Recorder::disabled(),
        SpanLog::default(),
    ) {
        (Ok(p), timing) => {
            setup.push(timing);
            check_ms.push(p.check_ms);
        }
        (Err(e), _) => errors.push(format!("zero-op deployment sank: {e}")),
    }
}

/// Run sub-runs `0..n` (plus, when `seconds` is left over, repeats of
/// them that must reproduce their digests exactly). A zero-op deployment
/// is timed before each, so set-up samples span the whole run.
#[allow(clippy::too_many_arguments)]
fn measure(
    w: &Workload,
    seed: u64,
    n: u64,
    seconds: Option<u64>,
    traced: bool,
    setup: &mut Vec<Timing>,
    check_ms: &mut Vec<f64>,
    errors: &mut Vec<String>,
) -> Measured {
    let start = Instant::now();
    let mut parts = Vec::new();
    let mut timed = Vec::new();
    let run = |k: u64, errors: &mut Vec<String>| -> Option<(Part, Timing)> {
        let (rec, spans) = if traced {
            (Recorder::enabled(), SpanLog::enabled())
        } else {
            (Recorder::disabled(), SpanLog::default())
        };
        match timed_part(w, sub_seed(seed, k), false, rec.clone(), spans.clone()) {
            (Ok(mut p), wall) => {
                if traced {
                    layers::absorb_recorder(&mut p, &rec, &spans);
                }
                Some((p, wall))
            }
            (Err(e), _) => {
                errors.push(format!("sub-run {k} sank: {e}"));
                None
            }
        }
    };
    for k in 0..n {
        time_setup(w, seed, setup, check_ms, errors);
        if let Some((p, wall)) = run(k, errors) {
            timed.push((wall, p.ops));
            parts.push(p);
        }
    }
    if let Some(seconds) = seconds {
        let mut k = 0;
        while start.elapsed() < Duration::from_secs(seconds) && !parts.is_empty() {
            let i = k % parts.len();
            time_setup(w, seed, setup, check_ms, errors);
            if let Some((p, wall)) = run(i as u64, errors) {
                if p.digest != parts[i].digest {
                    errors.push(format!("sub-run {i} did not repeat its virtual results"));
                }
                timed.push((wall, p.ops));
            }
            k += 1;
        }
    }
    Measured {
        pooled: pool(&parts),
        timed,
        wall_s: start.elapsed().as_secs_f64(),
        parts,
    }
}

fn fmt_json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // A non-finite value already fails the run; keep the JSON valid.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_workload(w: &Workload, args: &Args) -> ExitCode {
    let mut errors = Vec::new();
    println!(
        "workload {} seed {} trace {}",
        w.name,
        args.seed,
        u8::from(args.trace)
    );

    // Set-up: configuration, channels, bundles, check() and a zero-op
    // run; a few up front, then one before every sub-run.
    let mut setup = Vec::new();
    let mut check_ms = Vec::new();
    for _ in 0..SETUP_WARMUP {
        time_setup(w, args.seed, &mut setup, &mut check_ms, &mut errors);
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (attempted, failed);
    if !args.trace {
        let m = measure(
            w,
            args.seed,
            SUB_RUNS,
            Some(args.seconds),
            false,
            &mut setup,
            &mut check_ms,
            &mut errors,
        );
        let zero = median_timing(&setup);
        let setup_s = zero.wall_s;
        let host_us = m.wall_us(zero);
        let p = &m.pooled;
        let lat = sorted(p, "lat");
        let (virt, notes) = (w.finish)(p);
        for n in notes {
            println!("  {n}");
        }
        let p99 = percentile(&lat, 0.99);
        let beyond = lat.len() - (0.99 * lat.len() as f64).ceil() as usize;
        println!(
            "  latency samples {}, {} ranked beyond p99; sub-runs {} + {} repeats in {:.1} s",
            lat.len(),
            beyond,
            m.parts.len(),
            m.timed.len().saturating_sub(m.parts.len()),
            m.wall_s
        );
        if beyond < 10 {
            errors.push(format!("only {beyond} latency samples beyond p99"));
        }
        attempted = p.ops;
        failed = p.failed;
        metrics.push(("lat_p50_us".into(), percentile(&lat, 0.5), "us"));
        metrics.push(("lat_p99_us".into(), p99, "us"));
        metrics.push(("throughput_mb_s".into(), virt["throughput_mb_s"], "MB/s"));
        metrics.push(("max_rate_req_s".into(), virt["max_rate_req_s"], "1/s"));
        // Wall time moves with other guests on a shared machine (CPU
        // steal stretches every thread handoff); the gated host figure is
        // CPU time, and wall time is printed beside it.
        println!("  host_us_per_op (wall) = {}", median(&host_us));
        metrics.push(("host_cpu_us_per_op".into(), m.cpu_us(zero), "us"));
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("peak_rss_mb".into(), host::peak_rss_mb(), "MB"));
        for (name, v) in &virt {
            if name.contains('.') {
                println!("  {name} = {v}");
            }
        }
        println!(
            "  failed_op_frac = {}",
            failed as f64 / attempted.max(1) as f64
        );
        errors.extend(p.errors.iter().cloned());
    } else {
        // Sub-runs untraced for the first half of the time (the overhead
        // baseline), then the same sub-runs traced for the second half:
        // tracing must not move virtual time.
        let half = Some(args.seconds / 2);
        let plain = measure(
            w,
            args.seed,
            TRACED_SUB_RUNS,
            half,
            false,
            &mut setup,
            &mut check_ms,
            &mut errors,
        );
        let traced = measure(
            w,
            args.seed,
            TRACED_SUB_RUNS,
            half,
            true,
            &mut setup,
            &mut check_ms,
            &mut errors,
        );
        let zero = median_timing(&setup);
        for (a, b) in plain.parts.iter().zip(&traced.parts) {
            if a.digest != b.digest {
                errors.push("tracing changed a sub-run's virtual results".into());
            }
        }
        let (virt, _) = (w.finish)(&traced.pooled);
        let mut l = layers::per_layer(
            median(&plain.wall_us(zero)),
            &traced.pooled,
            median(&traced.wall_us(zero)),
            // Thread CPU comes from the first pass over the sub-runs only.
            traced
                .timed
                .iter()
                .take(traced.parts.len())
                .map(|t| t.0.wall_s)
                .sum(),
            &virt,
        );
        l.insert("check.host_ms".into(), median(&check_ms));
        l.insert("host.wall_us_per_op".into(), median(&plain.wall_us(zero)));
        l.extend(host::probes());
        let spans_path = layers::write_spans(w.name, args.seed, &traced.pooled);
        match spans_path {
            Ok(path) => println!("  span trace written to {path}"),
            Err(e) => errors.push(format!("span trace not written: {e}")),
        }
        attempted = traced.pooled.ops;
        failed = traced.pooled.failed;
        for (name, unit) in layers::PER_LAYER {
            metrics.push((
                (*name).to_string(),
                l.get(*name).copied().unwrap_or(0.0),
                unit,
            ));
        }
        errors.extend(traced.pooled.errors.iter().cloned());
    }

    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    for e in &errors {
        println!("  CHECK FAILED: {e}");
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let correct = errors.is_empty() && failed == 0 && finite && attempted > 0;
    let failed = if correct { 0 } else { failed.max(1) };
    println!("{}", fmt_json(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        // Each workload in its own process, never two at once.
        let exe = std::env::current_exe().expect("own executable path");
        let mut ok = true;
        for w in &WORKLOADS {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .status();
            ok &= matches!(status, Ok(s) if s.success());
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match WORKLOADS.iter().find(|w| w.name == args.workload) {
        Some(w) => run_workload(w, &args),
        None => {
            eprintln!("unknown workload {}", args.workload);
            ExitCode::from(2)
        }
    }
}

//! GeoTP benchmark: end-to-end and per-layer metrics of the simulator,
//! driven only through its public session API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ycsb_paper --seed 42 --seconds 18 --trace 0
//! ```
//!
//! `--trace 0` makes `--seconds` ÷ (the workload's nominal run time)
//! untraced runs on seeds derived from `--seed`, pools them and reports the
//! end-to-end metrics. `--trace 1` runs the seed three times — untraced,
//! traced with the benchmark's own spans and allocation counts, and with the
//! program's own telemetry collector — and reports the per-layer metrics. Both check the correctness gates; the last line of
//! standard output is one JSON object, and the exit code is non-zero when a
//! gate fails. `perfbench/README.md` defines every metric.

mod alloc;
mod calib;
mod scenario;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use geotp::middleware::ABORT_REASONS;
use geotp::telemetry::SPAN_KINDS;

use crate::alloc::Layer;
use crate::scenario::{Mode, PaceSample, RunReport, Workload};
use crate::stats::{interquartile_mean, median, per_txn, percentile};
use crate::trace::Kind;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Fewest setups whose median `setup_s` reports.
const MIN_SETUPS: usize = 3;
/// Setups are repeated until they add up to this many wall seconds, so a
/// cheap setup's median rests on more samples than a host hiccup.
const MIN_SETUP_SECONDS: f64 = 3.0;
/// Most untraced runs (seeds) one invocation makes.
const MAX_RUNS: usize = 32;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 18;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// What the value was computed from, for the human-readable table.
    samples: String,
}

#[derive(Default)]
struct Report {
    /// Transactions attempted in the measurement window.
    attempted: u64,
    metrics: Vec<Metric>,
    failures: Vec<String>,
}

impl Report {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: samples.into(),
        });
    }

    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// A memory figure of this process (`VmHWM`, `VmRSS`), MB.
fn vm_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Build the reference kernel's table; returns the resident MB it added.
fn build_reference() -> Result<f64, String> {
    let before = vm_mb("VmRSS")?;
    calib::reference();
    Ok(vm_mb("VmRSS")? - before)
}

/// Medians of the commits per wall second and of the reference pass's wall
/// seconds over `pace`; zeros for no intervals.
fn pace_medians(pace: &[PaceSample]) -> (f64, f64) {
    let rates: Vec<f64> = pace.iter().map(|p| p.rate).collect();
    let passes: Vec<f64> = pace.iter().map(|p| p.pass_s).collect();
    (
        median(&rates).unwrap_or(0.0),
        median(&passes).unwrap_or(0.0),
    )
}

/// Gates every run must pass.
fn check_run(report: &mut Report, label: &str, run: &RunReport) {
    let exact = &run.exact;
    let tally = &exact.tally;
    report.gate(tally.committed > 0, || {
        format!("{label}: nothing committed")
    });
    report.gate(exact.undecided == 0, || {
        format!(
            "{label}: {} prepared branches left undecided",
            exact.undecided
        )
    });
    report.gate(exact.violations.is_empty(), || {
        format!(
            "{label}: TPC-C consistency violations: {:?}",
            exact.violations
        )
    });
    if let Some((expected, found)) = exact.conservation {
        report.gate(expected == found, || {
            format!("{label}: usertable sums to {found}, committed deltas say {expected}")
        });
    }
    report.gate(tally.late_arrivals == 0, || {
        format!(
            "{label}: {} open-loop arrivals issued after their due instant",
            tally.late_arrivals
        )
    });
}

/// The latency figures of the end-to-end table.
fn latency_metrics(report: &mut Report, tally: &scenario::Tally) {
    for (name, per_mille) in [
        ("latency_p50_ms", 500),
        ("latency_p99_ms", 990),
        ("latency_p999_ms", 999),
    ] {
        match percentile(&tally.latencies, per_mille) {
            Some(p) => {
                report.gate(p.supported(), || {
                    format!("{name}: only {} samples beyond it (need 10)", p.beyond)
                });
                report.add(name, ms(p.value), "virtual_ms", format!("n={}", p.samples));
            }
            None => report.gate(false, || format!("{name}: no samples")),
        }
    }
    // Distributed transactions with and without the farthest source form
    // two latency modes of nearly equal weight on `ycsb_paper`, so their
    // median jumps between the modes from seed to seed; the interquartile
    // mean does not.
    let dist = &tally.dist_latencies;
    match interquartile_mean(dist) {
        Some(us) => report.add(
            "dist_latency_iqm_ms",
            us / 1e3,
            "virtual_ms",
            format!("n={}", dist.len()),
        ),
        None => report.gate(false, || "dist_latency_iqm_ms: no samples".to_string()),
    }
}

fn end_to_end(args: &Args) -> Report {
    let mut report = Report::default();
    let reference_mb = match build_reference() {
        Ok(mb) => mb,
        Err(e) => {
            report.gate(false, || e);
            0.0
        }
    };
    let count = (args.seconds / args.workload.nominal_run_seconds()).clamp(1, MAX_RUNS as u64);
    let mut runs: Vec<RunReport> = Vec::new();
    for i in 0..count {
        let seed = scenario::sub_seed(args.seed, i);
        let run = scenario::run(args.workload, seed, Mode::Plain, args.workload.window());
        eprintln!(
            "run {} (seed {seed}): setup {:.3}s, drive {:.3}s, {} committed",
            i + 1,
            run.setup_s,
            run.run_s,
            run.exact.tally.committed
        );
        check_run(&mut report, &format!("run {} (seed {seed})", i + 1), &run);
        runs.push(run);
    }
    let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < MIN_SETUP_SECONDS {
        setups.push(scenario::setup_only(args.workload, args.seed));
    }
    eprintln!("setups (s): {setups:.4?}");

    let mut tally = scenario::Tally::default();
    for run in &runs {
        tally.merge(&run.exact.tally);
    }
    tally.sort();
    let drive_s: f64 = runs.iter().map(|r| r.run_s).sum();
    let pace: Vec<PaceSample> = runs.iter().flat_map(|r| r.pace.iter().copied()).collect();
    let per_pass: Vec<f64> = pace.iter().map(PaceSample::per_pass).collect();
    let (rate, pass_s) = pace_medians(&pace);
    eprintln!(
        "pace: {} intervals over {drive_s:.3}s of drive: median {rate:.0} committed per wall s, reference pass {:.1} us",
        pace.len(),
        pass_s * 1e6
    );
    match median(&per_pass) {
        Some(v) => report.add(
            "committed_per_ref_pass",
            v,
            "1/pass",
            format!(
                "median of {} intervals over {} seeds",
                pace.len(),
                runs.len()
            ),
        ),
        None => report.gate(false, || "no pace interval completed".to_string()),
    }
    report.add(
        "setup_s",
        median(&setups).expect("at least one setup"),
        "s",
        format!("median of {} setups", setups.len()),
    );
    match vm_mb("VmHWM") {
        Ok(mb) => report.add(
            "peak_rss_mb",
            mb - reference_mb,
            "MB",
            format!("VmHWM less the reference table's {reference_mb:.1} MB"),
        ),
        Err(e) => report.gate(false, || e),
    }
    let (_, measure) = args.workload.window();
    let window_s = measure.as_secs_f64() * runs.len() as f64;
    report.add(
        "virtual_tps",
        tally.committed as f64 / window_s,
        "1/virtual_s",
        format!("{} committed in {window_s}s virtual", tally.committed),
    );
    latency_metrics(&mut report, &tally);
    let attempts = tally.attempts();
    report.attempted = attempts;
    report.add(
        "abort_ratio",
        (attempts - tally.committed) as f64 / attempts as f64,
        "ratio",
        format!("n={attempts}"),
    );
    report
}

/// Busy wall time (µs) of every span of `kind`.
fn busy_us(trace: &trace::Trace, busy: &[u64], kind: Kind) -> Vec<u64> {
    let mut v: Vec<u64> = trace
        .spans
        .iter()
        .zip(busy)
        .filter(|(s, _)| s.kind == kind)
        .map(|(_, b)| *b)
        .collect();
    v.sort_unstable();
    v
}

fn per_layer(args: &Args) -> Report {
    let mut report = Report::default();
    calib::reference();
    let window = args.workload.layer_window();
    let plain = scenario::run(args.workload, args.seed, Mode::Plain, window);
    eprintln!("untraced: drive {:.3}s", plain.run_s);
    let traced = scenario::run(args.workload, args.seed, Mode::Traced, window);
    eprintln!("traced: drive {:.3}s", traced.run_s);
    let reference = scenario::run(args.workload, args.seed, Mode::Telemetry, window);
    eprintln!("telemetry: drive {:.3}s", reference.run_s);

    check_run(&mut report, "untraced run", &plain);
    check_run(&mut report, "traced run", &traced);
    report.gate(plain.exact == traced.exact, || {
        "the traced run's virtual results and counts differ from the untraced run's".to_string()
    });
    let telemetry = reference.telemetry.as_ref().expect("telemetry run summary");
    let tally = &plain.exact.tally;
    if args.workload.closed_loop() {
        let ours = (tally.committed, tally.aborted + tally.shed);
        let theirs = (telemetry.committed, telemetry.aborted);
        report.gate(ours == theirs, || {
            format!(
                "run_session_benchmark commits/aborts {theirs:?}, the benchmark's terminals {ours:?}"
            )
        });
    } else {
        check_run(&mut report, "telemetry run", &reference);
    }

    let n = tally.committed;
    let k = &plain.exact.counters;
    let count = |name: &str, value: u64, unit: &'static str, report: &mut Report| {
        report.add(
            name,
            per_txn(value as f64, n),
            unit,
            format!("{value} / {n} committed"),
        );
    };
    count("simrt.polls_per_txn", k.polls, "1/txn", &mut report);
    count("simrt.timers_per_txn", k.timers, "1/txn", &mut report);
    count("simrt.tasks_per_txn", k.tasks, "1/txn", &mut report);
    count(
        "simrt.clock_advances_per_txn",
        k.clock_advances,
        "1/txn",
        &mut report,
    );

    let t = traced.trace.as_ref().expect("traced run trace");
    let busy = trace::busy_ns(t);
    let run_span = t
        .spans
        .iter()
        .find(|s| s.kind == Kind::Run)
        .expect("run span");
    let segments: Vec<(u64, u64)> = t.segments.iter().map(|s| (s.start, s.end)).collect();
    let outside = stats::self_time(run_span.start, run_span.end, &segments);
    report.add(
        "simrt.self_wall_share",
        outside as f64 / (run_span.end - run_span.start) as f64,
        "ratio",
        format!("{} timed polls", segments.len()),
    );

    count("net.messages_per_txn", k.messages, "1/txn", &mut report);
    count(
        "datasource.statements_per_txn",
        k.statements,
        "1/txn",
        &mut report,
    );
    count(
        "datasource.decentralized_prepares_per_txn",
        k.decentralized_prepares,
        "1/txn",
        &mut report,
    );
    count(
        "datasource.early_aborts_per_txn",
        k.early_aborts,
        "1/txn",
        &mut report,
    );
    count(
        "datasource.failed_statements_per_txn",
        k.failed_statements,
        "1/txn",
        &mut report,
    );

    let grants = k.lock_immediate + k.lock_waited;
    report.add(
        "storage.lock_waited_share",
        if grants == 0 {
            0.0
        } else {
            k.lock_waited as f64 / grants as f64
        },
        "ratio",
        format!("{} of {grants} grants", k.lock_waited),
    );
    report.add(
        "storage.lock_wait_ms_per_txn",
        per_txn(ms(k.lock_wait_us), n),
        "virtual_ms/txn",
        format!("{} us / {n} committed", k.lock_wait_us),
    );
    count(
        "storage.lock_timeouts_per_txn",
        k.lock_timeouts,
        "1/txn",
        &mut report,
    );
    report.add(
        "storage.contention_span_ms",
        if k.contention_span_samples == 0 {
            0.0
        } else {
            ms(k.contention_span_us) / k.contention_span_samples as f64
        },
        "virtual_ms",
        format!("mean of {} spans", k.contention_span_samples),
    );
    count(
        "storage.wal_flushes_per_txn",
        k.wal_flushes,
        "1/txn",
        &mut report,
    );
    count(
        "storage.snapshot_reads_per_txn",
        k.snapshot_reads,
        "1/txn",
        &mut report,
    );
    count(
        "storage.gc_passes_per_txn",
        k.gc_passes,
        "1/txn",
        &mut report,
    );
    count(
        "storage.versions_gced_per_txn",
        k.versions_gced,
        "1/txn",
        &mut report,
    );

    for (name, kind) in [
        ("begin", Kind::Begin),
        ("execute", Kind::Execute),
        ("commit", Kind::Commit),
    ] {
        let sample = busy_us(t, &busy, kind);
        for (suffix, per_mille) in [("p50", 500), ("p99", 990)] {
            let value = percentile(&sample, per_mille).map_or(0.0, |p| p.value as f64 / 1e3);
            report.add(
                format!("middleware.{name}_wall_us_{suffix}"),
                value,
                "us",
                format!("n={} calls", sample.len()),
            );
        }
    }
    for (i, name) in [
        "queue_ms",
        "analysis_ms",
        "admission_delay_ms",
        "execution_ms",
        "prepare_wait_ms",
        "log_flush_ms",
        "commit_ms",
    ]
    .iter()
    .enumerate()
    {
        report.add(
            format!("middleware.{name}"),
            per_txn(ms(tally.breakdown[i]), n),
            "virtual_ms",
            format!("mean of {n} committed"),
        );
    }
    report.add(
        "middleware.postpone_ms_per_txn",
        per_txn(ms(k.postpone_us), n),
        "virtual_ms/txn",
        format!("{} us / {n} committed", k.postpone_us),
    );
    let attempts = tally.attempts();
    report.attempted = attempts;
    for reason in ABORT_REASONS {
        let count = tally.by_reason[reason.ordinal()];
        report.add(
            format!("middleware.abort_share.{}", reason.label()),
            count as f64 / attempts as f64,
            "ratio",
            format!("{count} of {attempts} attempts"),
        );
    }
    report.add(
        "middleware.read_only_share",
        per_txn(tally.read_only as f64, n),
        "ratio",
        format!("{} of {n} committed", tally.read_only),
    );

    report.add(
        "cluster.shed_per_offered",
        if tally.offered == 0 {
            0.0
        } else {
            tally.shed as f64 / tally.offered as f64
        },
        "ratio",
        format!("{} of {} offered", tally.shed, tally.offered),
    );
    report.add(
        "cluster.queue_ms_p99",
        percentile(&tally.queue, 990).map_or(0.0, |p| ms(p.value)),
        "virtual_ms",
        format!("n={}", tally.queue.len()),
    );

    let generate: u64 = busy_us(t, &busy, Kind::Generate).iter().sum();
    report.add(
        "workloads.generate_wall_us_per_txn",
        per_txn(generate as f64 / 1e3, n),
        "us/txn",
        format!(
            "{} generator calls",
            t.spans.iter().filter(|s| s.kind == Kind::Generate).count()
        ),
    );
    report.add(
        "workloads.load_wall_s",
        median(&[plain.load_s, traced.load_s, reference.load_s]).expect("three loads"),
        "s",
        "median of 3 loads",
    );

    let counts = traced.alloc.expect("traced run allocation counts");
    for layer in [Layer::Simrt, Layer::Middleware, Layer::Workloads] {
        let i = layer as usize;
        report.add(
            format!("alloc.count_per_txn.{}", layer.label()),
            per_txn(counts.count[i] as f64, n),
            "1/txn",
            format!("{} allocations", counts.count[i]),
        );
        report.add(
            format!("alloc.bytes_per_txn.{}", layer.label()),
            per_txn(counts.bytes[i] as f64, n),
            "B/txn",
            format!("{} bytes", counts.bytes[i]),
        );
    }
    report.add(
        "alloc.live_bytes_peak",
        counts.live_peak as f64,
        "B",
        "peak live-heap growth over the run",
    );

    let (rate, pass_s) = pace_medians(&plain.pace);
    report.add(
        "committed_per_wall_s",
        rate,
        "1/s",
        format!(
            "median of {} intervals of the untraced run",
            plain.pace.len()
        ),
    );
    report.add(
        "ref_pass_us",
        pass_s * 1e6,
        "us",
        format!("median of {} reference passes", plain.pace.len()),
    );

    report.add(
        "telemetry.overhead_ratio",
        traced.run_s / plain.run_s,
        "ratio",
        format!("{:.3}s traced / {:.3}s untraced", traced.run_s, plain.run_s),
    );
    report.add(
        "telemetry.spans_per_txn",
        per_txn(telemetry.spans as f64, telemetry.committed),
        "1/txn",
        format!(
            "{} spans / {} committed",
            telemetry.spans, telemetry.committed
        ),
    );
    for kind in SPAN_KINDS {
        let us = telemetry.critical_us[kind.ordinal()];
        report.add(
            format!("telemetry.critical_path_share.{}", kind.label()),
            if telemetry.total_us == 0 {
                0.0
            } else {
                us as f64 / telemetry.total_us as f64
            },
            "ratio",
            format!("{} txns", telemetry.txns),
        );
    }

    let path = out_dir().join(format!("{}.trace.json", args.workload.name()));
    let overhead = traced.run_s / plain.run_s;
    let about = [
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("telemetry.overhead_ratio", overhead.to_string()),
    ];
    match trace::write_chrome(&path, t, &busy, &about) {
        Ok(()) => eprintln!(
            "trace: {} spans -> {} (telemetry.overhead_ratio {overhead:.3})",
            t.spans.len(),
            path.display(),
        ),
        Err(e) => report.gate(false, || format!("writing {}: {e}", path.display())),
    }
    report
}

/// The benchmark's output directory (`perfbench/out`).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let mut report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .failures
                .push(format!("{} is not a finite number", m.name));
        }
    }

    for m in &report.metrics {
        eprintln!(
            "{:<48} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for failure in &report.failures {
        eprintln!("GATE FAILED: {failure}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failures.len(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The three workloads: deployment, load loops and what one run measures.
//!
//! Every run builds a fresh single-worker simulator, sets the deployment up
//! (timed), drives it through the public session API with the benchmark's
//! own closed- or open-loop terminals (timed), lets in-flight decisions
//! settle, then reads the program's public statistics.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use geotp::cluster::{build_tier, AdmissionPolicy, ClusterConfig, CoordinatorCluster, TierLayout};
use geotp::middleware::{MiddlewareStats, ABORT_REASONS};
use geotp::net::{Network, PAPER_DEFAULT_RTTS_MS};
use geotp::prelude::*;
use geotp::simrt::{join_all, now, sleep, sleep_until, spawn, RuntimeBuilder};
use geotp::storage::{EngineConfig, IsolationLevel};
use geotp::telemetry::{self, SPAN_KINDS};
use geotp::workloads::consistency_violations;
use geotp::{DataSource, USERTABLE};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alloc::{self, AllocCounts, Layer};
use crate::calib::{self, Reference};
use crate::trace::{self, Kind, Trace};

/// Initial integer value of every YCSB row (`YcsbGenerator::load`).
const YCSB_INITIAL: i64 = 10_000;
/// Longest the post-run settle waits for prepared branches to be decided.
const SETTLE_LIMIT: Duration = Duration::from_secs(30);
/// Shortest wall interval of one pace sample.
const PACE_INTERVAL: Duration = Duration::from_millis(100);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper YCSB on 1M rows/node, 256 closed-loop terminals, 2PL.
    YcsbPaper,
    /// Paper TPC-C, 16 warehouses/node, 64 closed-loop terminals, 2PL.
    TpccPaper,
    /// Read-mostly YCSB through a two-coordinator tier, open loop, MVCC
    /// snapshot reads.
    YcsbSnapshotTier,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::YcsbPaper,
        Workload::TpccPaper,
        Workload::YcsbSnapshotTier,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbPaper => "ycsb_paper",
            Workload::TpccPaper => "tpcc_paper",
            Workload::YcsbSnapshotTier => "ycsb_snapshot_tier",
        }
    }

    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall seconds one untraced run is budgeted on a 2-CPU host: `--seconds`
    /// divided by this is the number of seeds one invocation runs. It is a
    /// constant, not a measurement, so the seeds and the virtual results
    /// of an invocation are a function of its arguments alone. A
    /// `tpcc_paper` run takes about 6 s, but its virtual metrics vary so
    /// little from seed to seed that two seeds are enough, and the
    /// invocations of all three workloads must fit one time budget.
    pub fn nominal_run_seconds(self) -> u64 {
        match self {
            Workload::YcsbPaper => 6,
            Workload::TpccPaper => 9,
            Workload::YcsbSnapshotTier => 40,
        }
    }

    /// Whether the workload runs closed-loop terminals (and so can be
    /// replayed by `run_session_benchmark`).
    pub fn closed_loop(self) -> bool {
        !matches!(self, Workload::YcsbSnapshotTier)
    }

    /// Virtual warm-up and measurement window of an end-to-end run.
    pub fn window(self) -> (Duration, Duration) {
        match self {
            Workload::YcsbPaper => (Duration::from_secs(2), Duration::from_secs(120)),
            Workload::TpccPaper => (Duration::from_secs(2), Duration::from_secs(240)),
            // 13 s at 1 000 arrivals/s leaves more than 10 committed samples
            // beyond p99.9.
            Workload::YcsbSnapshotTier => (Duration::from_millis(500), Duration::from_secs(13)),
        }
    }

    /// Virtual warm-up and measurement window of the three per-layer runs.
    /// The closed loops keep their end-to-end window, at which parity with
    /// `run_session_benchmark` is checked. The open loop's per-layer figures
    /// are per-transaction ratios, and three full windows (~40 s of wall
    /// time each) would not fit in one invocation's time limit.
    pub fn layer_window(self) -> (Duration, Duration) {
        match self {
            Workload::YcsbSnapshotTier => (Duration::from_millis(500), Duration::from_secs(4)),
            _ => self.window(),
        }
    }
}

/// Closed-loop terminals of `ycsb_paper`.
const YCSB_TERMINALS: usize = 256;
/// Rows per data source of `ycsb_paper`.
const YCSB_ROWS: u64 = 1_000_000;
/// Closed-loop terminals of `tpcc_paper`.
const TPCC_TERMINALS: usize = 64;
/// Warehouses per data source of `tpcc_paper`.
const TPCC_WAREHOUSES: u32 = 16;
/// Rows per data source of `ycsb_snapshot_tier`.
const TIER_ROWS: u64 = 100_000;
/// Coordinators of `ycsb_snapshot_tier`.
const TIER_COORDINATORS: usize = 2;
/// Worker capacity per coordinator of `ycsb_snapshot_tier`.
const TIER_MAX_INFLIGHT: usize = 128;
/// Open-loop offered load of `ycsb_snapshot_tier`.
const TIER_ARRIVALS_PER_SEC: u64 = 1_000;
/// Client sessions the open-loop arrivals cycle over.
const TIER_SESSIONS: u64 = 256;
/// Extra arrivals due together in the middle of the window. At 1 000/s about
/// a hundred transactions are in flight, far below the tier's 256 worker
/// slots, so without this flash crowd admission would pass every arrival
/// straight through; with it, arrivals queue and some are shed.
const TIER_BURST: usize = 512;

/// What a run records besides the untraced measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end measurement.
    Plain,
    /// The benchmark's own spans and allocation counts.
    Traced,
    /// The program's own telemetry collector installed. Closed-loop
    /// workloads run through `run_session_benchmark` (the parity
    /// reference); the open loop runs its own load loop.
    Telemetry,
}

/// Deterministic counters read from the program's public statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub polls: u64,
    pub timers: u64,
    pub tasks: u64,
    pub clock_advances: u64,
    pub messages: u64,
    pub statements: u64,
    pub decentralized_prepares: u64,
    pub early_aborts: u64,
    pub failed_statements: u64,
    pub lock_immediate: u64,
    pub lock_waited: u64,
    pub lock_timeouts: u64,
    pub lock_wait_us: u64,
    pub contention_span_us: u64,
    pub contention_span_samples: u64,
    pub wal_flushes: u64,
    pub snapshot_reads: u64,
    pub gc_passes: u64,
    pub versions_gced: u64,
    pub postpone_us: u64,
}

/// Per-outcome tallies of one run's measurement window. Every field is a
/// function of the seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub committed: u64,
    /// Non-commits other than refusals and sheds.
    pub aborted: u64,
    pub refused: u64,
    pub shed: u64,
    /// Arrivals due inside the window (open loop only).
    pub offered: u64,
    pub read_only: u64,
    /// Non-commits per [`AbortReason::ordinal`].
    pub by_reason: [u64; ABORT_REASONS.len()],
    /// Committed latencies, µs (sorted once the run ends).
    pub latencies: Vec<u64>,
    /// Committed latencies of distributed transactions, µs.
    pub dist_latencies: Vec<u64>,
    /// Admission-queue time of committed transactions, µs.
    pub queue: Vec<u64>,
    /// Sums over committed transactions of the latency breakdown, µs:
    /// queue, analysis, admission delay, execution, prepare wait, log
    /// flush, commit.
    pub breakdown: [u64; 7],
    /// Sum of the integer deltas of every committed transaction of the run
    /// (warm-up and drain included), for the conservation check.
    pub committed_delta: i64,
    /// Open-loop arrivals issued after their due instant.
    pub late_arrivals: u64,
}

impl Tally {
    fn record(
        &mut self,
        outcome: &TxnOutcome,
        spec: &TransactionSpec,
        latency: Duration,
        in_window: bool,
    ) {
        let previous = alloc::enter(Layer::Perfbench);
        if outcome.committed {
            self.committed_delta += spec
                .all_ops()
                .map(|op| match op {
                    ClientOp::AddInt { delta, .. } => *delta,
                    _ => 0,
                })
                .sum::<i64>();
        }
        if in_window {
            if outcome.committed {
                let us = latency.as_micros() as u64;
                self.committed += 1;
                self.latencies.push(us);
                if outcome.distributed {
                    self.dist_latencies.push(us);
                }
                if outcome.read_only {
                    self.read_only += 1;
                }
                let b = outcome.breakdown;
                self.queue.push(b.queue_time.as_micros() as u64);
                for (sum, part) in self.breakdown.iter_mut().zip([
                    b.queue_time,
                    b.analysis,
                    b.admission_delay,
                    b.execution,
                    b.prepare_wait,
                    b.log_flush,
                    b.commit,
                ]) {
                    *sum += part.as_micros() as u64;
                }
            } else {
                if outcome.is_refusal() {
                    self.refused += 1;
                } else if outcome.is_overloaded() {
                    self.shed += 1;
                } else {
                    self.aborted += 1;
                }
                if let Some(reason) = outcome.abort_reason {
                    self.by_reason[reason.ordinal()] += 1;
                }
            }
        }
        alloc::leave(previous);
    }

    /// Pool `other` into this tally.
    pub fn merge(&mut self, other: &Tally) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.refused += other.refused;
        self.shed += other.shed;
        self.offered += other.offered;
        self.read_only += other.read_only;
        for (a, b) in self.by_reason.iter_mut().zip(other.by_reason) {
            *a += b;
        }
        self.latencies.extend_from_slice(&other.latencies);
        self.dist_latencies.extend_from_slice(&other.dist_latencies);
        self.queue.extend_from_slice(&other.queue);
        for (a, b) in self.breakdown.iter_mut().zip(other.breakdown) {
            *a += b;
        }
        self.committed_delta += other.committed_delta;
        self.late_arrivals += other.late_arrivals;
    }

    /// Sort the latency samples (before taking percentiles).
    pub fn sort(&mut self) {
        self.latencies.sort_unstable();
        self.dist_latencies.sort_unstable();
        self.queue.sort_unstable();
    }

    /// Every outcome that finished inside the window.
    pub fn attempts(&self) -> u64 {
        self.committed + self.aborted + self.refused + self.shed
    }
}

/// One pace interval of a drive.
#[derive(Debug, Clone, Copy)]
pub struct PaceSample {
    /// Commits per wall second over the interval.
    pub rate: f64,
    /// Mean wall seconds of the reference passes just before and just
    /// after the interval.
    pub pass_s: f64,
}

impl PaceSample {
    /// Commits in the wall time of one reference pass.
    pub fn per_pass(&self) -> f64 {
        self.rate * self.pass_s
    }
}

/// The wall-clock pace of an untraced drive: commits per wall second over
/// consecutive intervals of at least [`PACE_INTERVAL`], each closed by the
/// commit that ends it and followed by one pass of the reference kernel.
/// Kernel passes are left out of every interval.
struct Pace {
    reference: &'static Reference,
    commits: Cell<u64>,
    /// Instant and commit count at which the open interval began.
    mark: Cell<(Instant, u64)>,
    /// Wall time of the latest reference pass.
    last_pass: Cell<Duration>,
    /// Wall time of every reference pass so far.
    passes: Cell<Duration>,
    samples: RefCell<Vec<PaceSample>>,
}

impl Pace {
    fn new(reference: &'static Reference) -> Pace {
        let pass = reference.pass();
        Pace {
            reference,
            commits: Cell::new(0),
            mark: Cell::new((Instant::now(), 0)),
            last_pass: Cell::new(pass),
            passes: Cell::new(Duration::ZERO),
            samples: RefCell::new(Vec::new()),
        }
    }

    fn commit(&self) {
        let commits = self.commits.get() + 1;
        self.commits.set(commits);
        let (since, base) = self.mark.get();
        let elapsed = since.elapsed();
        if elapsed >= PACE_INTERVAL {
            let pass = self.reference.pass();
            self.samples.borrow_mut().push(PaceSample {
                rate: (commits - base) as f64 / elapsed.as_secs_f64(),
                pass_s: (self.last_pass.get() + pass).as_secs_f64() / 2.0,
            });
            self.last_pass.set(pass);
            self.passes.set(self.passes.get() + pass);
            self.mark.set((Instant::now(), commits));
        }
    }
}

/// Everything the benchmark checks and reports about one run that must
/// repeat exactly for a seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exact {
    pub tally: Tally,
    pub counters: Counters,
    /// Prepared branches still undecided after the settle.
    pub undecided: usize,
    /// TPC-C consistency violations after the run.
    pub violations: Vec<String>,
    /// YCSB conservation: (expected, found) sum of the usertable.
    pub conservation: Option<(i64, i64)>,
}

/// The program's own telemetry over a [`Mode::Telemetry`] run.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySummary {
    /// Spans the program's tracer recorded.
    pub spans: u64,
    /// Transactions whose critical path was attributed.
    pub txns: u64,
    /// Critical-path micros per [`SpanKind`] ordinal.
    pub critical_us: [u64; SPAN_KINDS.len()],
    /// Total attributed micros.
    pub total_us: u64,
    /// Committed transactions of the run (for per-txn normalisation).
    pub committed: u64,
    /// Non-commits `run_session_benchmark` counted (closed loop only).
    pub aborted: u64,
}

/// What one run measured.
pub struct RunReport {
    pub exact: Exact,
    /// Build plus load, wall seconds.
    pub setup_s: f64,
    /// The load alone, wall seconds.
    pub load_s: f64,
    /// The drive phase, wall seconds (warm-up, window and its last
    /// outcomes), reference passes left out.
    pub run_s: f64,
    /// The pace intervals of a [`Mode::Plain`] drive.
    pub pace: Vec<PaceSample>,

    /// Spans of a [`Mode::Traced`] run.
    pub trace: Option<Trace>,
    /// Allocation counts of a [`Mode::Traced`] run.
    pub alloc: Option<AllocCounts>,
    /// The program's telemetry of a [`Mode::Telemetry`] run.
    pub telemetry: Option<TelemetrySummary>,
}

/// The transaction mix a deployment runs.
#[derive(Clone)]
enum Mix {
    Ycsb(Rc<YcsbGenerator>),
    /// YCSB whose read-only transactions go unannotated, so the
    /// coordinator's snapshot-read fast path commits them.
    SnapshotYcsb(Rc<YcsbGenerator>),
    Tpcc(Rc<TpccGenerator>),
}

impl Mix {
    fn next(&self, rng: &mut StdRng) -> TransactionSpec {
        match self {
            Mix::Ycsb(g) => g.generate(rng).0,
            Mix::SnapshotYcsb(g) => {
                let spec = g.generate(rng).0;
                if spec.all_ops().any(ClientOp::is_write) {
                    spec
                } else {
                    spec.without_annotation()
                }
            }
            Mix::Tpcc(g) => g.generate(rng).0,
        }
    }

    fn workload_mix(&self) -> WorkloadMix {
        match self {
            Mix::Ycsb(g) => WorkloadMix::Ycsb(Rc::clone(g)),
            Mix::Tpcc(g) => WorkloadMix::Tpcc(Rc::clone(g)),
            Mix::SnapshotYcsb(_) => {
                unreachable!("the open loop has no run_session_benchmark replay")
            }
        }
    }
}

enum Target {
    Single(Cluster),
    Tier(Rc<CoordinatorCluster>),
}

struct Deployment {
    target: Target,
    sources: Vec<Rc<DataSource>>,
    net: Rc<Network>,
    mix: Mix,
    partitioner: Partitioner,
    tpcc: Option<TpccConfig>,
    /// YCSB usertable rows across every source.
    ycsb_rows: Option<u64>,
}

impl Deployment {
    fn middleware_stats(&self) -> Vec<MiddlewareStats> {
        match &self.target {
            Target::Single(cluster) => vec![cluster.middleware().stats()],
            Target::Tier(cluster) => (0..cluster.config().coordinators as u32)
                .map(|c| cluster.middleware(c).stats())
                .collect(),
        }
    }

    fn shutdown(&self) {
        if let Target::Tier(cluster) = &self.target {
            cluster.stop();
        }
    }
}

/// Build and load `workload`'s deployment; returns it with the load's wall
/// seconds.
fn setup(workload: Workload, seed: u64) -> (Deployment, f64) {
    match workload {
        Workload::YcsbPaper => {
            let cluster = ClusterBuilder::new()
                .seed(seed)
                .paper_default_sources()
                .records_per_node(YCSB_ROWS)
                .protocol(Protocol::geotp())
                .build();
            let ycsb = YcsbConfig::new(4, YCSB_ROWS)
                .with_contention(Contention::Medium)
                .with_distributed_ratio(0.2);
            let generator = Rc::new(YcsbGenerator::new(ycsb));
            let load = Instant::now();
            generator.load(cluster.data_sources());
            let load_s = load.elapsed().as_secs_f64();
            let deployment = Deployment {
                sources: cluster.data_sources().to_vec(),
                net: Rc::clone(cluster.network()),
                partitioner: cluster.partitioner(),
                target: Target::Single(cluster),
                mix: Mix::Ycsb(generator),
                tpcc: None,
                ycsb_rows: Some(4 * YCSB_ROWS),
            };
            (deployment, load_s)
        }
        Workload::TpccPaper => {
            let tpcc = TpccConfig::new(4, TPCC_WAREHOUSES).with_distributed_ratio(0.2);
            let cluster = ClusterBuilder::new()
                .seed(seed)
                .paper_default_sources()
                .partitioner(tpcc.partitioner())
                .protocol(Protocol::geotp())
                .build();
            let generator = Rc::new(TpccGenerator::new(tpcc.clone()));
            let load = Instant::now();
            generator.load(cluster.data_sources());
            let load_s = load.elapsed().as_secs_f64();
            let deployment = Deployment {
                sources: cluster.data_sources().to_vec(),
                net: Rc::clone(cluster.network()),
                partitioner: cluster.partitioner(),
                target: Target::Single(cluster),
                mix: Mix::Tpcc(generator),
                tpcc: Some(tpcc),
                ycsb_rows: None,
            };
            (deployment, load_s)
        }
        Workload::YcsbSnapshotTier => {
            let (net, sources) = build_tier(&TierLayout {
                seed,
                coordinators: TIER_COORDINATORS,
                ds_rtts_ms: PAPER_DEFAULT_RTTS_MS.to_vec(),
                control_rtt_ms: 2,
                engine: EngineConfig {
                    isolation: IsolationLevel::SnapshotRead,
                    ..EngineConfig::default()
                },
                agent_lan_rtt: Duration::from_micros(500),
            });
            // 10 % distributed: at 20 % the share of commits on the 0 and
            // 27 ms sources sits near one half, so the median latency flips
            // between their mode (~57 ms) and the 73 ms source's (~147 ms)
            // from seed to seed.
            let ycsb = YcsbConfig {
                read_ratio: 0.95,
                ..YcsbConfig::new(4, TIER_ROWS)
                    .with_contention(Contention::Medium)
                    .with_distributed_ratio(0.1)
            };
            let generator = Rc::new(YcsbGenerator::new(ycsb));
            let load = Instant::now();
            generator.load(&sources);
            let load_s = load.elapsed().as_secs_f64();
            let mut config =
                ClusterConfig::new(TIER_COORDINATORS, Protocol::geotp(), ycsb.partitioner());
            // The single-middleware deployments' costs (`ClusterBuilder`
            // defaults), so the three workloads price a transaction alike.
            config.analysis_cost = Duration::from_millis(1);
            config.log_flush_cost = Duration::from_micros(500);
            config.max_inflight = TIER_MAX_INFLIGHT;
            config.snapshot_reads = true;
            config.seed = seed;
            config.admission = AdmissionPolicy::bounded(TIER_MAX_INFLIGHT, Duration::from_secs(1));
            let cluster = CoordinatorCluster::build(config, Rc::clone(&net), &sources);
            cluster.start();
            let deployment = Deployment {
                target: Target::Tier(cluster),
                sources,
                net,
                mix: Mix::SnapshotYcsb(generator),
                partitioner: ycsb.partitioner(),
                tpcc: None,
                ycsb_rows: Some(4 * TIER_ROWS),
            };
            (deployment, load_s)
        }
    }
}

/// The seed of an invocation's `index`-th run: the invocation's own seed
/// first, then seeds derived from it (SplitMix64).
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn runtime(seed: u64) -> geotp::Runtime {
    RuntimeBuilder::new().seed(seed).build()
}

/// Build and load `workload` once, then tear it down; returns the setup's
/// wall seconds.
pub fn setup_only(workload: Workload, seed: u64) -> f64 {
    let mut rt = runtime(seed);
    rt.block_on(async move {
        let started = Instant::now();
        let (deployment, _) = setup(workload, seed);
        let setup_s = started.elapsed().as_secs_f64();
        deployment.shutdown();
        setup_s
    })
}

/// Run `workload` once at `seed` in `mode` over `window` (virtual warm-up
/// and measurement).
pub fn run(workload: Workload, seed: u64, mode: Mode, window: (Duration, Duration)) -> RunReport {
    let mut rt = runtime(seed);
    let (warmup, measure) = window;
    let mut report = rt.block_on(async move {
        let started = Instant::now();
        let (deployment, load_s) = setup(workload, seed);
        let setup_s = started.elapsed().as_secs_f64();

        let collector = (mode == Mode::Telemetry).then(telemetry::install);
        if mode == Mode::Traced {
            trace::start();
            alloc::start();
        }
        let run_span = trace::open(Kind::Run, trace::ROOT, 0, 0);
        let layer = alloc::enter(Layer::Simrt);
        let pace = (mode == Mode::Plain).then(|| Rc::new(Pace::new(calib::reference())));
        let driven = Instant::now();
        let mut reference = None;
        let mut tally = match (&deployment.target, mode) {
            (Target::Single(cluster), Mode::Telemetry) => {
                let report = run_session_benchmark(
                    Rc::clone(cluster.middleware()),
                    deployment.mix.workload_mix(),
                    SessionDriverConfig::new(DriverConfig {
                        terminals: terminals(workload),
                        warmup,
                        measure,
                        seed,
                    }),
                )
                .await;
                reference = Some((report.metrics.committed(), report.metrics.aborted()));
                Tally::default()
            }
            (Target::Single(cluster), _) => {
                closed_loop(
                    Rc::clone(cluster.middleware()),
                    deployment.mix.clone(),
                    terminals(workload),
                    window,
                    seed,
                    run_span,
                    pace.clone(),
                )
                .await
            }
            (Target::Tier(cluster), _) => {
                open_loop(
                    Rc::clone(cluster),
                    deployment.mix.clone(),
                    warmup,
                    measure,
                    seed,
                    run_span,
                    pace.clone(),
                )
                .await
            }
        };
        let passes = pace.as_ref().map_or(Duration::ZERO, |p| p.passes.get());
        let run_s = (driven.elapsed() - passes).as_secs_f64();
        alloc::leave(layer);
        trace::close(run_span);
        let (trace, alloc_counts) = if mode == Mode::Traced {
            (Some(trace::stop()), Some(alloc::stop()))
        } else {
            (None, None)
        };

        let undecided = settle(&deployment.sources).await;
        let telemetry = collector.map(|_| {
            let collected = telemetry::uninstall().expect("collector installed above");
            let (committed, aborted) = reference.unwrap_or((tally.committed, tally.aborted));
            summarize_telemetry(&collected, committed, aborted)
        });
        tally.sort();
        let violations = deployment
            .tpcc
            .as_ref()
            .map(|config| consistency_violations(config, &deployment.sources))
            .unwrap_or_default();
        let conservation = match (deployment.ycsb_rows, reference) {
            (Some(rows), None) => Some((
                rows as i64 * YCSB_INITIAL + tally.committed_delta,
                usertable_sum(&deployment, rows),
            )),
            _ => None,
        };
        let counters = read_counters(&deployment);
        deployment.shutdown();
        RunReport {
            exact: Exact {
                tally,
                counters,
                undecided,
                violations,
                conservation,
            },
            setup_s,
            load_s,
            run_s,
            pace: pace.map(|p| p.samples.take()).unwrap_or_default(),
            trace,
            alloc: alloc_counts,
            telemetry,
        }
    });
    let m = rt.metrics();
    let c = &mut report.exact.counters;
    c.polls = m.polls;
    c.timers = m.timers_registered;
    c.tasks = m.tasks_spawned;
    c.clock_advances = m.clock_advances;
    report
}

fn terminals(workload: Workload) -> usize {
    match workload {
        Workload::YcsbPaper => YCSB_TERMINALS,
        Workload::TpccPaper => TPCC_TERMINALS,
        Workload::YcsbSnapshotTier => unreachable!("the snapshot tier runs open loop"),
    }
}

/// Drive one transaction through the session front door with every call
/// timed — `Session::run_spec` spelled out (begin, one round per spec
/// round with the last one annotated, commit).
async fn run_txn(
    session: &mut Session,
    spec: &TransactionSpec,
    parent: u32,
    txn: u64,
    lane: u32,
) -> TxnOutcome {
    let mut handle = match trace::call(Kind::Begin, parent, txn, lane, session.begin()).await {
        Ok(handle) => handle,
        Err(refused) => return refused.outcome,
    };
    let rounds = spec.rounds.len();
    for (idx, round) in spec.rounds.iter().enumerate() {
        let last = spec.annotate_last && idx + 1 == rounds;
        let executed = trace::call(
            Kind::Execute,
            parent,
            txn,
            lane,
            handle.execute_round(round, last),
        )
        .await;
        if let Err(error) = executed {
            return error.outcome;
        }
    }
    trace::call(Kind::Commit, parent, txn, lane, handle.commit()).await
}

/// Closed-loop terminals: each connects one session and submits its next
/// transaction as soon as the previous one concludes. Terminal RNG
/// streams, session ids and the refusal back-off are those of
/// `run_session_benchmark`, so both replay the same schedule.
async fn closed_loop(
    service: Rc<Middleware>,
    mix: Mix,
    terminals: usize,
    (warmup, measure): (Duration, Duration),
    seed: u64,
    run_span: u32,
    pace: Option<Rc<Pace>>,
) -> Tally {
    let measure_start = now() + warmup;
    let end = measure_start + measure;
    let next_txn = Rc::new(Cell::new(0u64));
    let mut handles = Vec::with_capacity(terminals);
    for terminal in 0..terminals {
        let service = Rc::clone(&service);
        let mix = mix.clone();
        let next_txn = Rc::clone(&next_txn);
        let pace = pace.clone();
        let lane = terminal as u32;
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(terminal as u64),
        );
        handles.push(spawn(async move {
            let mut tally = Tally::default();
            let mut session = SessionService::connect(&service, terminal as u64);
            loop {
                if now() >= end {
                    break;
                }
                let txn = next_txn.replace(next_txn.get() + 1);
                let txn_span = trace::open(Kind::Txn, run_span, txn, lane);
                let spec =
                    trace::call_sync(Kind::Generate, txn_span, txn, lane, || mix.next(&mut rng));
                let outcome = run_txn(&mut session, &spec, txn_span, txn, lane).await;
                trace::close(txn_span);
                if let Some(pace) = pace.as_ref().filter(|_| outcome.committed) {
                    pace.commit();
                }
                let finished = now();
                let in_window = finished >= measure_start && finished < end;
                tally.record(&outcome, &spec, outcome.latency, in_window);
                if outcome.is_refusal() {
                    sleep(Duration::from_millis(250)).await;
                }
            }
            tally
        }));
    }
    let mut merged = Tally::default();
    for tally in join_all(handles).await {
        merged.merge(&tally);
    }
    merged
}

/// Open-loop arrivals: evenly spaced at the offered rate regardless of
/// completions, plus [`TIER_BURST`] more due together in the middle of the
/// window. Each arrival is its own task on session `arrival % sessions`,
/// its latency timed from its due instant.
async fn open_loop(
    cluster: Rc<CoordinatorCluster>,
    mix: Mix,
    warmup: Duration,
    measure: Duration,
    seed: u64,
    run_span: u32,
    pace: Option<Rc<Pace>>,
) -> Tally {
    let start = now();
    let measure_start = start + warmup;
    let end = measure_start + measure;
    let interval = Duration::from_micros(1_000_000 / TIER_ARRIVALS_PER_SEC);
    let ticks = ((warmup + measure).as_micros() / interval.as_micros()) as u32;
    let mut schedule: Vec<_> = (0..ticks).map(|tick| start + interval * tick).collect();
    let burst_at = measure_start + measure / 2;
    let at = schedule.partition_point(|&due| due < burst_at);
    schedule.splice(at..at, std::iter::repeat_n(burst_at, TIER_BURST));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e_55ed_0b5e_55ed);
    let tally = Rc::new(RefCell::new(Tally::default()));
    let mut tasks = Vec::with_capacity(schedule.len());
    for (arrival, due) in (0u64..).zip(schedule) {
        sleep_until(due).await;
        let lane = (arrival % TIER_SESSIONS) as u32;
        let txn_span = trace::open(Kind::Txn, run_span, arrival, lane);
        let spec = trace::call_sync(Kind::Generate, txn_span, arrival, lane, || {
            mix.next(&mut rng)
        });
        if due >= measure_start && due < end {
            tally.borrow_mut().offered += 1;
        }
        let cluster = Rc::clone(&cluster);
        let tally = Rc::clone(&tally);
        let pace = pace.clone();
        tasks.push(spawn(async move {
            if now() > due {
                tally.borrow_mut().late_arrivals += 1;
            }
            let mut session = cluster.connect(arrival % TIER_SESSIONS);
            let outcome = run_txn(&mut session, &spec, txn_span, arrival, lane).await;
            trace::close(txn_span);
            if let Some(pace) = pace.as_ref().filter(|_| outcome.committed) {
                pace.commit();
            }
            let finished = now();
            let in_window = finished >= measure_start && finished < end;
            tally
                .borrow_mut()
                .record(&outcome, &spec, finished.duration_since(due), in_window);
        }));
    }
    join_all(tasks).await;
    Rc::try_unwrap(tally)
        .map(RefCell::into_inner)
        .unwrap_or_else(|shared| shared.borrow().clone())
}

fn undecided(sources: &[Rc<DataSource>]) -> usize {
    sources
        .iter()
        .map(|s| s.engine().prepared_xids().len())
        .sum()
}

/// Let decisions still in flight when the last client returned reach every
/// branch; returns the prepared branches left undecided.
async fn settle(sources: &[Rc<DataSource>]) -> usize {
    let deadline = now() + SETTLE_LIMIT;
    while undecided(sources) > 0 && now() < deadline {
        sleep(Duration::from_millis(100)).await;
    }
    undecided(sources)
}

fn usertable_sum(deployment: &Deployment, rows: u64) -> i64 {
    (0..rows)
        .map(|row| {
            let key = GlobalKey::new(USERTABLE, row);
            let ds = deployment.partitioner.route(key) as usize;
            deployment.sources[ds]
                .engine()
                .peek(key.storage_key())
                .and_then(|r| r.int_value())
                .unwrap_or(0)
        })
        .sum()
}

fn read_counters(deployment: &Deployment) -> Counters {
    let mut c = Counters {
        messages: deployment.net.total_messages(),
        ..Counters::default()
    };
    for source in &deployment.sources {
        let ds = source.stats();
        c.statements += ds.statements;
        c.decentralized_prepares += ds.decentralized_prepares;
        c.early_aborts += ds.early_aborts_sent;
        c.failed_statements += ds.failed_statements;
        let engine = source.engine();
        let locks = engine.lock_stats();
        c.lock_immediate += locks.immediate_grants;
        c.lock_waited += locks.waited_grants;
        c.lock_timeouts += locks.timeouts;
        c.lock_wait_us += locks.total_wait_micros;
        let es = engine.stats();
        c.contention_span_us += es.total_contention_span_micros;
        c.contention_span_samples += es.contention_span_samples;
        c.snapshot_reads += es.snapshot_reads;
        c.wal_flushes += engine.wal().flush_count();
        let mvcc = engine.version_store().stats();
        c.gc_passes += mvcc.gc_passes;
        c.versions_gced += mvcc.versions_gced;
    }
    for stats in deployment.middleware_stats() {
        c.postpone_us += stats.total_postpone_micros;
    }
    c
}

/// Span count and aggregate critical path of the program's own trace.
fn summarize_telemetry(
    collected: &telemetry::Telemetry,
    committed: u64,
    aborted: u64,
) -> TelemetrySummary {
    let spans = collected.tracer.spans();
    let mut order: Vec<(u64, u32)> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id.gtrid, i as u32))
        .collect();
    order.sort_unstable();
    let mut summary = TelemetrySummary {
        spans: spans.len() as u64,
        committed,
        aborted,
        ..TelemetrySummary::default()
    };
    let mut group = Vec::new();
    for chunk in order.chunk_by(|a, b| a.0 == b.0) {
        group.clear();
        group.extend(chunk.iter().map(|&(_, i)| spans[i as usize]));
        if let Some(path) = telemetry::critical_path(&group, chunk[0].0) {
            summary.txns += 1;
            summary.total_us += path.total_micros;
            for kind in SPAN_KINDS {
                summary.critical_us[kind.ordinal()] += path.micros(kind);
            }
        }
    }
    summary
}

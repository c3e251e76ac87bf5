//! Layered benchmark of the Algorithm 1 → figure pipeline.
//!
//! One process runs one workload (see `README.md` for why each exists):
//!
//! * untraced (`--trace 0`): repeated set-ups and workload iterations for
//!   `--seconds`, reporting the end-to-end metrics as medians;
//! * traced (`--trace 1`): one untraced reference iteration, then one
//!   iteration with in-memory spans around every layer call, reporting the
//!   per-layer metrics.
//!
//! Every run checks its outputs; failed checks and failed jobs are counted
//! and fail the run.

pub mod stats;
pub mod trace;
mod workloads;

use stats::{median, tail, Fnv};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use trace::{Scope, SpanTree, Tracer};
use tugal_netsim::runner::{ExperimentRunner, JobOutcome, JobRecord, SeriesSpec};
use tugal_netsim::{NoopObserver, ProfileReport};
use tugal_topology::{Dragonfly, DragonflyParams};

/// The end-to-end metrics, `(name, unit)`, in output order.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics of the traced run, `(name, unit)`, in output
/// order.  Times of layers that some workloads never call are shares of
/// the traced workload's wall-clock, so a bypassed layer reads 0 as a
/// share rather than as a time.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("topology.build_ms", "ms"),
    ("traffic.demands_ms", "ms"),
    ("routing.table_build_ms", "ms"),
    ("routing.vlb_paths", "count"),
    ("core.balance_share", "share"),
    ("core.balance_removed", "count"),
    ("core.step1_share", "share"),
    ("core.step1_imbalance", "ratio"),
    ("core.step2_share", "share"),
    ("core.step2_sim_share", "share"),
    ("model.solve_share", "share"),
    ("model.solves", "count"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_solve", "ratio"),
    ("lp.refactorizations", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    ("lp.solve_share", "share"),
    ("netsim.phase.alloc_share", "share"),
    ("netsim.phase.advance_share", "share"),
    ("netsim.phase.inject_share", "share"),
    ("netsim.phase.transmit_share", "share"),
    ("netsim.phase.barrier_share", "share"),
    ("netsim.boundary_batches", "count"),
    ("netsim.shard_speedup", "ratio"),
    ("runner.idle_share", "share"),
    ("trace.overhead", "ratio"),
    ("trace.accounted_share", "share"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold Algorithm 1 (`compute_tvlb`) on dfly(4,8,4,9).
    Alg1Ref,
    /// A fig6-shaped latency sweep with a pinned T-VLB rule.
    FigureRef,
    /// The fig_faults nested global-cable fault chain.
    FaultsRef,
    /// One UGAL-L UR job at a time, partitioned over two shards.
    Shard2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Alg1Ref,
        Workload::FigureRef,
        Workload::FaultsRef,
        Workload::Shard2,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Alg1Ref => "alg1-ref",
            Workload::FigureRef => "figure-ref",
            Workload::FaultsRef => "faults-ref",
            Workload::Shard2 => "shard-2",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// How long the untraced run keeps iterating.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Every workload on small topologies (the benchmark's own tests).
    pub tiny: bool,
    /// Adds one deliberately failing check (tests the failure path).
    pub inject_check_failure: bool,
}

/// Counts output checks; a failed check is reported on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// The checks of a fresh run: empty, or holding the failure that
    /// `--inject-check-failure` asks for.
    pub fn for_run(opts: &Opts) -> Self {
        let mut checks = Checks::default();
        if opts.inject_check_failure {
            checks.check(false, || "injected by --inject-check-failure".to_string());
        }
        checks
    }

    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check FAILED: {}", what());
        }
    }
}

/// One simulation job as the runner reported it.
#[derive(Debug, Clone)]
pub struct JobStat {
    /// Host milliseconds the job took.
    pub ms: f64,
    /// Whether the job ended `JobOutcome::Ok` with packets delivered.
    pub ok: bool,
    /// Engine profile (profiled batches only).
    pub profile: Option<ProfileReport>,
}

/// What one workload iteration did.
#[derive(Debug, Clone, Default)]
pub struct Iter {
    /// Wall-clock of the iteration, in seconds.
    pub wall_s: f64,
    /// CPU seconds the process spent in the iteration, over all threads.
    pub cpu_s: f64,
    /// Digest over the exact bits of the iteration's results.
    pub digest: u64,
    /// Runner jobs, in schedule order.
    pub jobs: Vec<JobStat>,
    /// Runner batches as `(wall ms, summed job ms, worker threads)`.
    pub batches: Vec<(f64, f64, usize)>,
    /// LP solves the iteration performed.
    pub lp_solves: u64,
    /// Simulated cycles (jobs × configured cycles per job).
    pub sim_cycles: u64,
}

/// The outcome of a run: metrics in output order plus informational
/// lines.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// `(name, value, unit)` of the metrics in the final JSON line.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the JSON line.
    pub info: Vec<String>,
    /// Operations attempted (jobs, LP solves and checks).
    pub attempted: u64,
    /// Operations failed (failed jobs and failed checks).
    pub failed: u64,
}

impl Report {
    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Worker threads the benchmark lets rayon and the runner use: the host's
/// parallelism, capped at 2 so runs on larger hosts do the same work in
/// the same shape.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Builds a dragonfly from fixed, known-valid parameters.
pub fn dfly(p: u32, a: u32, h: u32, g: u32) -> Arc<Dragonfly> {
    Arc::new(
        Dragonfly::new(DragonflyParams::new(p, a, h, g))
            .unwrap_or_else(|e| panic!("dfly({p},{a},{h},{g}): {e:?}")),
    )
}

/// Runs one flat runner batch inside a `runner.batch` span and folds the
/// job records into `iter` (job stats, digest, batch timing).  Every job
/// must end `Ok` with packets delivered.
#[allow(clippy::too_many_arguments)]
pub fn run_batch(
    scope: Scope,
    topo: &Arc<Dragonfly>,
    series: &[SeriesSpec],
    rates: &[f64],
    seeds: &[u64],
    profile: bool,
    iter: &mut Iter,
    digest: &mut Fnv,
) -> Vec<JobRecord> {
    let mut runner = ExperimentRunner::new(topo.clone()).with_profiling(profile);
    for s in series {
        runner = runner.series(SeriesSpec {
            label: s.label.clone(),
            provider: s.provider.clone(),
            pattern: s.pattern.clone(),
            routing: s.routing,
            cfg: s.cfg.clone(),
            faults: s.faults.clone(),
        });
    }
    let (_, summary, records) = scope.child("runner.batch", |_| {
        runner
            .run_recorded(rates, seeds, |_| NoopObserver)
            .unwrap_or_else(|e| panic!("invalid batch: {e}"))
    });
    let threads = bench_threads().min(records.len().max(1));
    iter.batches.push((
        summary.wall_ms,
        records.iter().map(|r| r.elapsed_ms).sum(),
        threads,
    ));
    for r in &records {
        let cycles = series[r.series].cfg.total_cycles();
        iter.sim_cycles += cycles;
        digest
            .str(&r.label)
            .f64(r.rate)
            .u64(r.seed)
            .str(r.outcome.name());
        let ok = match &r.outcome {
            JobOutcome::Ok(res) => {
                digest
                    .f64(res.avg_latency)
                    .f64(res.throughput)
                    .f64(res.avg_hops)
                    .u64(res.delivered)
                    .u64(res.injected)
                    .u64(res.saturated as u64)
                    .f64(res.vlb_fraction)
                    .f64(res.latency_p50)
                    .f64(res.latency_p99)
                    .f64(res.max_channel_util);
                res.delivered > 0
            }
            _ => false,
        };
        iter.jobs.push(JobStat {
            ms: r.elapsed_ms,
            ok,
            profile: r.profile.clone(),
        });
    }
    records
}

/// Builds a set-up repeatedly, appending each build's seconds to `times`,
/// and returns the last build: at least `min_reps` builds, and until half a
/// second of set-up has been measured.  `inspect` sees every build, outside
/// the timed part.
pub fn timed_setups<S>(
    times: &mut Vec<f64>,
    min_reps: usize,
    mut f: impl FnMut() -> S,
    mut inspect: impl FnMut(&S),
) -> S {
    let (mut reps, mut total) = (0, 0.0);
    loop {
        let t = Instant::now();
        let s = f();
        let dt = t.elapsed().as_secs_f64();
        inspect(&s);
        times.push(dt);
        reps += 1;
        total += dt;
        if reps >= min_reps && total >= 0.5 {
            return s;
        }
    }
}

/// Runs iterations until `seconds` have elapsed (at least one).
pub fn iterate(seconds: f64, mut f: impl FnMut() -> Iter) -> Vec<Iter> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        let cpu = stats::process_cpu_s();
        let mut it = f();
        it.wall_s = t.elapsed().as_secs_f64();
        it.cpu_s = stats::process_cpu_s() - cpu;
        out.push(it);
        if start.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Folds an untraced run into its report: the end-to-end metrics as
/// medians over iterations, and the informational job/LP rates.
pub fn end_to_end_report(
    opts: &Opts,
    config_digest: u64,
    setup_s: f64,
    iters: &[Iter],
    mut checks: Checks,
) -> Report {
    let first = &iters[0];
    for (i, it) in iters.iter().enumerate().skip(1) {
        checks.check(it.digest == first.digest, || {
            format!("iteration {i} outputs differ from iteration 0 (same inputs)")
        });
    }
    let jobs: Vec<f64> = iters
        .iter()
        .flat_map(|it| it.jobs.iter().map(|j| j.ms))
        .collect();
    let failed_jobs = iters
        .iter()
        .flat_map(|it| &it.jobs)
        .filter(|j| !j.ok)
        .count() as u64;
    let lp_solves: u64 = iters.iter().map(|it| it.lp_solves).sum();
    let wall_s = median(&iters.iter().map(|it| it.wall_s).collect::<Vec<_>>());
    let values = [wall_s, setup_s, stats::peak_rss_mb()];
    checks.check(values.iter().all(|v| v.is_finite() && *v > 0.0), || {
        format!("end-to-end metrics {values:?} are not all positive numbers")
    });
    let attempted = jobs.len() as u64 + lp_solves + checks.attempted;
    let failed = failed_jobs + checks.failed;
    let rate = |f: &dyn Fn(&Iter) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());

    let mut info = header(opts, config_digest, first.digest);
    info.push(format!(
        "# iterations {} wall_s {:?} cpu_s {:?}",
        iters.len(),
        iters.iter().map(|it| it.wall_s).collect::<Vec<_>>(),
        iters.iter().map(|it| it.cpu_s).collect::<Vec<_>>()
    ));
    if jobs.is_empty() {
        for m in [
            "jobs_per_s",
            "sim_cycles_per_s",
            "job_ms_p50",
            "job_ms_tail",
        ] {
            info.push(format!(
                "{m} n/a (no runner jobs: Step-2 simulations run inside compute_tvlb)"
            ));
        }
    } else {
        let (t, pct, n) = tail(&jobs);
        info.push(format!(
            "jobs_per_s {} 1/s",
            rate(&|it| it.jobs.len() as f64 / it.wall_s)
        ));
        info.push(format!(
            "sim_cycles_per_s {} 1/s",
            rate(&|it| it.sim_cycles as f64 / it.wall_s)
        ));
        info.push(format!(
            "job_ms_p50 {} ms (n={})",
            median(&jobs),
            jobs.len()
        ));
        info.push(format!("job_ms_tail {t} ms (p{pct:.1} of n={n})"));
    }
    if lp_solves > 0 {
        info.push(format!(
            "lp_per_s {} 1/s",
            rate(&|it| it.lp_solves as f64 / it.wall_s)
        ));
    } else {
        info.push("lp_per_s n/a (no LP solves on this workload)".to_string());
    }
    info.push(format!(
        "failed_frac {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    ));

    Report {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u.to_string()))
            .collect(),
        info,
        attempted,
        failed,
    }
}

fn header(opts: &Opts, config_digest: u64, outputs_digest: u64) -> Vec<String> {
    vec![
        format!(
            "# perfbench {} seed={} trace={} tiny={} host_threads={} bench_threads={}",
            opts.workload.name(),
            opts.seed,
            opts.trace as u8,
            opts.tiny as u8,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            bench_threads()
        ),
        format!("config_digest {config_digest:016x}"),
        format!("outputs_digest {outputs_digest:016x}"),
    ]
}

/// Per-layer values a workload measured directly (counters returned by the
/// layer calls), merged with the span-derived ones by [`traced_report`].
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric name → value; names must come from [`PER_LAYER`].
    pub values: BTreeMap<&'static str, f64>,
    /// Informational `name value unit` lines.
    pub info: Vec<String>,
}

impl Layers {
    /// Sets one per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// Adds the LP counters of a set of solves.
    pub fn lp(&mut self, lp: &tugal_model::LpStats, window_s: f64) {
        self.set("lp.solves", lp.solves as f64);
        self.set("lp.pivots", lp.pivots as f64);
        self.set(
            "lp.pivots_per_solve",
            lp.pivots as f64 / lp.solves.max(1) as f64,
        );
        self.set("lp.refactorizations", lp.refactorizations as f64);
        self.set(
            "lp.warm_hit_ratio",
            lp.warm_hits as f64 / lp.warm_attempts.max(1) as f64,
        );
        self.set("lp.solve_share", lp.wall_ms / 1e3 / window_s);
        self.info.push(format!("lp.solve_ms {} ms", lp.wall_ms));
    }

    /// Engine phase shares and boundary counters over the profiled jobs.
    pub fn engine(&mut self, jobs: &[JobStat]) {
        let mut agg = ProfileReport::default();
        for p in jobs.iter().filter_map(|j| j.profile.as_ref()) {
            agg.absorb(p);
        }
        let wall = agg.wall_ns().max(1) as f64;
        for (name, phase) in [
            ("netsim.phase.alloc_share", tugal_netsim::Phase::Alloc),
            ("netsim.phase.advance_share", tugal_netsim::Phase::Advance),
            ("netsim.phase.inject_share", tugal_netsim::Phase::Inject),
            ("netsim.phase.transmit_share", tugal_netsim::Phase::Transmit),
            ("netsim.phase.barrier_share", tugal_netsim::Phase::Barrier),
        ] {
            self.set(name, agg.phase_total(phase) as f64 / wall);
        }
        self.set(
            "netsim.boundary_batches",
            agg.shards.iter().map(|s| s.batches_flushed).sum::<u64>() as f64,
        );
    }

    /// Runner idle share: 1 − Σ job ms ÷ (batch wall × worker threads),
    /// over every batch of the iteration.
    pub fn runner(&mut self, it: &Iter) {
        let capacity: f64 = it.batches.iter().map(|(w, _, t)| w * *t as f64).sum();
        let busy: f64 = it.batches.iter().map(|(_, b, _)| b).sum();
        if capacity > 0.0 {
            self.set("runner.idle_share", (1.0 - busy / capacity).max(0.0));
        }
    }
}

/// Folds a traced run into its report.  `tree` holds two root spans,
/// `setup` and `iteration` (together the traced window); `reference` is the
/// untraced iteration on the same set-up, the base of `trace.overhead`.
#[allow(clippy::too_many_arguments)]
pub fn traced_report(
    opts: &Opts,
    config_digest: u64,
    tree: &SpanTree,
    traced: &Iter,
    reference: &Iter,
    compare_outputs: bool,
    mut layers: Layers,
    mut checks: Checks,
) -> Report {
    if compare_outputs {
        checks.check(traced.digest == reference.digest, || {
            "traced iteration outputs differ from the untraced reference".to_string()
        });
    }
    let setup = tree.total_s("setup");
    let iteration = tree.total_s("iteration");
    let window_s = setup + iteration;
    let ms = |prefix: &str| 1e3 * tree.self_s(prefix);
    layers.set("topology.build_ms", ms("topology."));
    layers.set("traffic.demands_ms", ms("traffic."));
    layers.set("routing.table_build_ms", ms("routing."));
    layers.set("core.balance_share", tree.self_s("core.balance") / window_s);
    layers.set("model.solve_share", tree.total_s("model.solve") / window_s);
    let solves = tree.durations_s("model.solve");
    layers.set("model.solves", solves.len() as f64);
    if !solves.is_empty() {
        let ms: Vec<f64> = solves.iter().map(|s| s * 1e3).collect();
        let (t, pct, n) = tail(&ms);
        layers
            .info
            .push(format!("model.solve_ms_p50 {} ms (n={n})", median(&ms)));
        layers
            .info
            .push(format!("model.solve_ms_tail {t} ms (p{pct:.1} of n={n})"));
    }
    layers.info.push(format!(
        "core.balance_ms {} ms",
        1e3 * tree.total_s("core.balance")
    ));
    layers.set("trace.overhead", iteration / reference.wall_s);
    // Share of the window covered by layer spans: everything but the self
    // time of the `setup` and `iteration` roots.
    let accounted = window_s - tree.self_s("setup") - tree.self_s("iteration");
    layers.set("trace.accounted_share", accounted / window_s);
    layers.info.push(format!(
        "window_s {window_s} s (setup {setup} s, iteration {iteration} s, untraced reference {} s)",
        reference.wall_s
    ));

    checks.check(layers.values.values().all(|v| v.is_finite()), || {
        format!("per-layer metrics are not all numbers: {:?}", layers.values)
    });
    let failed_jobs = traced
        .jobs
        .iter()
        .chain(&reference.jobs)
        .filter(|j| !j.ok)
        .count() as u64;
    let attempted = (traced.jobs.len() + reference.jobs.len()) as u64
        + traced.lp_solves
        + reference.lp_solves
        + checks.attempted;
    let failed = failed_jobs + checks.failed;

    let mut info = header(opts, config_digest, traced.digest);
    info.extend(layers.info);
    info.push(format!(
        "failed_frac {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    Report {
        metrics: PER_LAYER
            .iter()
            .map(|&(n, u)| {
                (
                    n.to_string(),
                    layers.values.get(n).copied().unwrap_or(0.0),
                    u.to_string(),
                )
            })
            .collect(),
        info,
        attempted,
        failed,
    }
}

/// Writes the trace of a run under `out/` in the benchmark's directory and
/// returns the path.
pub fn write_trace(opts: &Opts, tracer: &Tracer) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}{}.json",
        opts.workload.name(),
        opts.seed,
        if opts.tiny { "-tiny" } else { "" }
    ));
    std::fs::write(&path, tracer.to_json())?;
    Ok(path)
}

/// Runs one workload as `opts` asks and returns its report.
pub fn run(opts: &Opts) -> Report {
    match opts.workload {
        Workload::Alg1Ref => workloads::run(&workloads::alg1::Alg1::new(opts), opts),
        Workload::FigureRef => workloads::run(&workloads::figure::Figure::new(opts), opts),
        Workload::FaultsRef => workloads::run(&workloads::faults::Faults::new(opts), opts),
        Workload::Shard2 => workloads::run(&workloads::shard::Shard::new(opts), opts),
    }
}

//! The workloads, each a [`Bench`]: a set-up, a timed iteration, output
//! checks, and the per-layer counters only a traced run collects.

pub mod alg1;
pub mod faults;
pub mod figure;
pub mod shard;

use crate::stats::{median, Fnv};
use crate::trace::{Scope, SpanTree, Tracer};
use crate::{
    end_to_end_report, iterate, timed_setups, traced_report, write_trace, Checks, Iter, Layers,
    Opts, Report,
};
use std::sync::Arc;
use std::time::Instant;
use tugal::BalanceOptions;
use tugal_routing::{PathTable, TableProvider, VlbRule};
use tugal_topology::Dragonfly;

/// The T-VLB rule pinned by the simulation workloads (the dense-topology
/// outcome `perf` pins too), so changes to Algorithm 1 do not change their
/// work.
pub const TVLB_RULE: VlbRule = VlbRule::ClassLimit {
    max_hops: 4,
    frac_next: 0.6,
};

/// Table seed of the pinned T-VLB construction.
pub const TVLB_TABLE_SEED: u64 = 0x7065;

/// The two replication seeds of a sweep point, derived from the run seed.
pub fn sim_seeds(seed: u64) -> [u64; 2] {
    let s = seed.wrapping_mul(2).wrapping_add(1);
    [s, s.wrapping_add(1)]
}

/// The conventional all-paths table and the pinned, balance-adjusted
/// T-VLB table, each built inside its layer's span, plus what the balance
/// adjustment removed.
pub fn candidate_providers(
    scope: Scope,
    topo: &Arc<Dragonfly>,
) -> (PathTable, PathTable, tugal::BalanceReport) {
    let ugal = scope.child("routing.table_build", |_| PathTable::build_all(topo));
    let mut tvlb = scope.child("routing.table_build", |_| {
        PathTable::build_with_rule(topo, TVLB_RULE, TVLB_TABLE_SEED)
    });
    let report = scope.child("core.balance", |_| {
        tugal::balance::adjust(&mut tvlb, topo, &BalanceOptions::default())
    });
    (ugal, tvlb, report)
}

/// Wraps a table as a provider (the arena compile is routing-layer work).
pub fn provider(scope: Scope, topo: &Arc<Dragonfly>, table: PathTable) -> Arc<TableProvider> {
    scope.child("routing.table_build", |_| {
        Arc::new(TableProvider::new(topo.clone(), table))
    })
}

/// Digest of a provider's candidate paths.
pub fn table_digest(provider: &TableProvider) -> u64 {
    Fnv::default().bytes(&provider.table().to_bytes()).finish()
}

/// One workload.
pub trait Bench {
    /// Everything built before the first solve or job.
    type Setup;
    /// What an iteration computed, kept for the checks.
    type Out;

    /// Digest of every parameter that defines the workload's work.
    fn config_digest(&self) -> u64;

    /// Builds the set-up (topology, tables, balance, patterns).
    fn setup(&self, scope: Scope) -> Self::Setup;

    /// Digest of the set-up's balance-adjusted T-VLB table, where it has
    /// one.  Two builds from the same inputs should agree; the run reports
    /// whether they did.
    fn setup_digest(&self, _setup: &Self::Setup) -> Option<u64> {
        None
    }

    /// Whether the traced iteration recomputes exactly the untraced one, so
    /// their output digests must be equal.  `alg1-ref` drives a different
    /// path (stepwise calls instead of `compute_tvlb`) that rebuilds its
    /// own Step-2 tables, and compares rule and Step-1 means instead.
    fn traced_reproduces_reference(&self) -> bool {
        true
    }

    /// One timed iteration; `traced` is set on the traced run, where
    /// engine profiling is on and spans are recorded through `scope`.
    fn iteration(&self, setup: &Self::Setup, scope: Scope, traced: bool) -> (Iter, Self::Out);

    /// Output checks that need more than the iteration itself computed
    /// (oracles, re-solves); run once per run, outside the timed window.
    fn verify(&self, setup: &Self::Setup, out: &Self::Out, checks: &mut Checks);

    /// Per-layer counters of the traced run, plus checks that compare the
    /// traced iteration with the untraced reference.  `window_s` is the
    /// traced set-up plus iteration.
    #[allow(clippy::too_many_arguments)]
    fn layers(
        &self,
        setup: &Self::Setup,
        reference: &Self::Out,
        traced: &Self::Out,
        traced_iter: &Iter,
        tree: &SpanTree,
        window_s: f64,
        layers: &mut Layers,
        checks: &mut Checks,
    );
}

/// Runs `bench` as `opts` asks: untraced end-to-end, or traced per-layer.
pub fn run<B: Bench>(bench: &B, opts: &Opts) -> Report {
    let mut checks = Checks::for_run(opts);
    if !opts.trace {
        // Set-up is timed in two batches, before and after the iterations,
        // so its median spans the run instead of one moment of host load.
        let (mut times, mut digests) = (Vec::new(), Vec::new());
        let build = || bench.setup(Scope::off());
        let setup = timed_setups(&mut times, 2, build, |s| {
            digests.extend(bench.setup_digest(s))
        });
        let mut first = None;
        let iters = iterate(opts.seconds, || {
            let (it, out) = bench.iteration(&setup, Scope::off(), false);
            first.get_or_insert(out);
            it
        });
        bench.verify(&setup, first.as_ref().expect("one iteration"), &mut checks);
        drop(setup);
        timed_setups(&mut times, 1, build, |s| {
            digests.extend(bench.setup_digest(s))
        });
        let setup_s = median(&times);
        let mut report = end_to_end_report(opts, bench.config_digest(), setup_s, &iters, checks);
        if let Some(d0) = digests.first() {
            let same = digests.iter().all(|d| d == d0);
            report.info.push(format!(
                "# setup_builds_identical {same} ({} builds of the T-VLB table{})",
                digests.len(),
                if same {
                    ""
                } else {
                    "; tugal::balance::adjust broke ties in hash-map order"
                }
            ));
        }
        return report;
    }

    // One traced set-up feeds both the untraced reference iteration (the
    // base of `trace.overhead`, and the result the traced iteration must
    // reproduce bit-for-bit) and the traced iteration.
    let tracer = Tracer::new(
        Fnv::default()
            .str(opts.workload.name())
            .u64(opts.seed)
            .u64(std::process::id() as u64)
            .finish(),
    );
    let root = Scope::root(&tracer);
    let setup = root.child("setup", |s| bench.setup(s));
    let timed = |scope: Scope, traced: bool| {
        let t = Instant::now();
        let (mut it, out) = bench.iteration(&setup, scope, traced);
        it.wall_s = t.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        (it, out)
    };
    let (reference, ref_out) = timed(Scope::off(), false);
    let (traced, out) = root.child("iteration", |i| timed(i, true));
    bench.verify(&setup, &out, &mut checks);
    let tree = SpanTree::new(tracer.spans());
    let window_s = tree.total_s("setup") + tree.total_s("iteration");
    let mut layers = Layers::default();
    bench.layers(
        &setup,
        &ref_out,
        &out,
        &traced,
        &tree,
        window_s,
        &mut layers,
        &mut checks,
    );
    let mut report = traced_report(
        opts,
        bench.config_digest(),
        &tree,
        &traced,
        &reference,
        bench.traced_reproduces_reference(),
        layers,
        checks,
    );
    match write_trace(opts, &tracer) {
        Ok(path) => report.info.push(format!("# trace {}", path.display())),
        Err(e) => report.info.push(format!("# trace not written: {e}")),
    }
    report
}

//! `shard-2`: single UGAL-L uniform-random jobs on dfly(4,7,4,8), each one
//! runner batch of one job with the engine partitioned over two shards —
//! the barriers and boundary mailboxes a full sweep never exercises.

use super::Bench;
use crate::stats::{median, Fnv};
use crate::trace::{Scope, SpanTree};
use crate::{dfly, run_batch, Checks, Iter, Layers, Opts};
use std::sync::Arc;
use tugal_netsim::runner::{JobOutcome, SeriesSpec};
use tugal_netsim::{Config, RoutingAlgorithm, SimResult};
use tugal_routing::{PathProvider, TableProvider};
use tugal_topology::Dragonfly;
use tugal_traffic::{TrafficPattern, Uniform};

/// Offered load of every job.
const RATE: f64 = 0.2;

/// The workload's parameters.
pub struct Shard {
    params: (u32, u32, u32, u32),
    seeds: Vec<u64>,
}

/// Topology and the conventional all-paths provider.
pub struct Setup {
    topo: Arc<Dragonfly>,
    provider: Arc<dyn PathProvider>,
    pattern: Arc<dyn TrafficPattern>,
    vlb_paths: u64,
}

/// Result and host milliseconds of every job, in order.
pub type Out = Vec<(Option<SimResult>, f64)>;

impl Shard {
    /// The workload for `opts` (dfly(2,3,2,4), whose 4 groups split over
    /// two shards, in tiny mode).
    pub fn new(opts: &Opts) -> Self {
        let (params, jobs) = if opts.tiny {
            ((2, 3, 2, 4), 2)
        } else {
            ((4, 7, 4, 8), 8)
        };
        let base = opts.seed.wrapping_mul(1000).wrapping_add(1);
        Shard {
            params,
            seeds: (0..jobs).map(|i| base.wrapping_add(i)).collect(),
        }
    }

    fn spec(&self, s: &Setup, shards: u32) -> SeriesSpec {
        let mut cfg = Config::quick().for_routing(RoutingAlgorithm::UgalL);
        cfg.shards = shards;
        SeriesSpec {
            label: format!("UGAL-L UR shards={shards}"),
            provider: s.provider.clone(),
            pattern: s.pattern.clone(),
            routing: RoutingAlgorithm::UgalL,
            cfg,
            faults: None,
        }
    }

    /// Every job as its own one-job batch at `shards` shards.
    fn jobs(&self, s: &Setup, scope: Scope, shards: u32, profile: bool) -> (Iter, Out) {
        let spec = [self.spec(s, shards)];
        let mut it = Iter::default();
        let mut digest = Fnv::default();
        let mut out = Vec::new();
        for &seed in &self.seeds {
            let records = run_batch(
                scope,
                &s.topo,
                &spec,
                &[RATE],
                &[seed],
                profile,
                &mut it,
                &mut digest,
            );
            out.extend(records.into_iter().map(|r| match r.outcome {
                JobOutcome::Ok(res) => (Some(res), r.elapsed_ms),
                _ => (None, r.elapsed_ms),
            }));
        }
        it.digest = digest.finish();
        (it, out)
    }
}

impl Bench for Shard {
    type Setup = Setup;
    type Out = Out;

    fn config_digest(&self) -> u64 {
        let (p, a, h, g) = self.params;
        Fnv::default()
            .str("shard-2")
            .str(&format!("dfly({p},{a},{h},{g}) UR rate {RATE} shards 2"))
            .str(&format!("{:?}", self.seeds))
            .str(&format!("{:?}", Config::quick()))
            .finish()
    }

    fn setup(&self, scope: Scope) -> Setup {
        let (p, a, h, g) = self.params;
        let topo = scope.child("topology.build", |_| dfly(p, a, h, g));
        let table = scope.child("routing.table_build", |_| {
            tugal_routing::PathTable::build_all(&topo)
        });
        let vlb_paths = table.total_vlb_paths();
        let provider = scope.child("routing.table_build", |_| {
            Arc::new(TableProvider::new(topo.clone(), table)) as Arc<dyn PathProvider>
        });
        let pattern = scope.child("traffic.demands", |_| {
            Arc::new(Uniform::new(&topo)) as Arc<dyn TrafficPattern>
        });
        Setup {
            topo,
            provider,
            pattern,
            vlb_paths,
        }
    }

    fn iteration(&self, s: &Setup, scope: Scope, traced: bool) -> (Iter, Out) {
        self.jobs(s, scope, 2, traced)
    }

    fn verify(&self, _: &Setup, out: &Out, checks: &mut Checks) {
        checks.check(out.len() == self.seeds.len(), || {
            format!("shard-2 ran {} jobs", out.len())
        });
    }

    fn layers(
        &self,
        s: &Setup,
        reference: &Out,
        _: &Out,
        it: &Iter,
        _: &SpanTree,
        _: f64,
        layers: &mut Layers,
        checks: &mut Checks,
    ) {
        // The same jobs on the sequential engine: the shard-parity oracle
        // and the base of the speedup (both sides unprofiled).
        let (_, sequential) = self.jobs(s, Scope::off(), 1, false);
        for (i, (one, two)) in sequential.iter().zip(reference).enumerate() {
            checks.check(one.0.is_some() && one.0 == two.0, || {
                format!("job {i}: 2-shard result differs from the 1-shard result")
            });
        }
        let ms = |o: &Out| median(&o.iter().map(|j| j.1).collect::<Vec<_>>());
        layers.set("netsim.shard_speedup", ms(&sequential) / ms(reference));
        layers.info.push(format!(
            "netsim.job_ms_p50 {} ms at 1 shard, {} ms at 2 shards",
            ms(&sequential),
            ms(reference)
        ));
        layers.set("routing.vlb_paths", s.vlb_paths as f64);
        layers.engine(&it.jobs);
        layers.runner(it);
    }
}

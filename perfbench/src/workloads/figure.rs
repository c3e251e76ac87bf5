//! `figure-ref`: the fig6 shape — latency vs offered load on dfly(4,8,4,9)
//! under shift(2,0) for UGAL-L, T-UGAL-L, PAR and T-PAR — with the T-VLB
//! rule pinned, through one flat `ExperimentRunner` batch.  The engine and
//! the runner do all the work; the LP does none.

use super::{
    candidate_providers, provider, sim_seeds, table_digest, Bench, TVLB_RULE, TVLB_TABLE_SEED,
};
use crate::stats::Fnv;
use crate::trace::{Scope, SpanTree};
use crate::{dfly, run_batch, Checks, Iter, Layers, Opts};
use std::sync::Arc;
use tugal_netsim::runner::SeriesSpec;
use tugal_netsim::{Config, RoutingAlgorithm};
use tugal_routing::{PathProvider, TableProvider};
use tugal_topology::Dragonfly;
use tugal_traffic::{Shift, TrafficPattern};

/// The workload's parameters.
pub struct Figure {
    params: (u32, u32, u32, u32),
    rates: Vec<f64>,
    seeds: [u64; 2],
}

/// Topology, the two candidate tables and the four series.
pub struct Setup {
    topo: Arc<Dragonfly>,
    tvlb: Arc<TableProvider>,
    series: Vec<SeriesSpec>,
    vlb_paths: u64,
    balance_removed: usize,
}

impl Figure {
    /// The workload for `opts` (dfly(2,4,2,5) and fewer loads in tiny mode).
    pub fn new(opts: &Opts) -> Self {
        let (params, max, steps) = if opts.tiny {
            ((2, 4, 2, 5), 0.4, 4)
        } else {
            ((4, 8, 4, 9), 0.5, 10)
        };
        Figure {
            params,
            rates: (1..=steps).map(|i| max * i as f64 / steps as f64).collect(),
            seeds: sim_seeds(opts.seed),
        }
    }
}

impl Bench for Figure {
    type Setup = Setup;
    /// Jobs the batch ran.
    type Out = usize;

    fn config_digest(&self) -> u64 {
        let (p, a, h, g) = self.params;
        Fnv::default()
            .str("figure-ref")
            .str(&format!("dfly({p},{a},{h},{g}) shift(2,0)"))
            .str(&format!("{TVLB_RULE:?} seed {TVLB_TABLE_SEED:#x}"))
            .str(&format!("{:?} {:?}", self.rates, self.seeds))
            .str(&format!("{:?}", Config::quick()))
            .finish()
    }

    fn setup_digest(&self, s: &Setup) -> Option<u64> {
        Some(table_digest(&s.tvlb))
    }

    fn setup(&self, scope: Scope) -> Setup {
        let (p, a, h, g) = self.params;
        let topo = scope.child("topology.build", |_| dfly(p, a, h, g));
        let (ugal, tvlb, report) = candidate_providers(scope, &topo);
        let vlb_paths = ugal.total_vlb_paths() + tvlb.total_vlb_paths();
        let tvlb = provider(scope, &topo, tvlb);
        let ugal: Arc<dyn PathProvider> = provider(scope, &topo, ugal);
        let tvlb_dyn: Arc<dyn PathProvider> = tvlb.clone();
        let pattern = scope.child("traffic.demands", |_| {
            Arc::new(Shift::new(&topo, 2, 0)) as Arc<dyn TrafficPattern>
        });
        let series = [
            ("UGAL-L", &ugal, RoutingAlgorithm::UgalL),
            ("T-UGAL-L", &tvlb_dyn, RoutingAlgorithm::UgalL),
            ("PAR", &ugal, RoutingAlgorithm::Par),
            ("T-PAR", &tvlb_dyn, RoutingAlgorithm::Par),
        ]
        .into_iter()
        .map(|(label, provider, routing)| SeriesSpec {
            label: label.to_string(),
            provider: provider.clone(),
            pattern: pattern.clone(),
            routing,
            cfg: Config::quick().for_routing(routing),
            faults: None,
        })
        .collect();
        Setup {
            topo,
            tvlb,
            series,
            vlb_paths,
            balance_removed: report.removed_local + report.removed_global,
        }
    }

    fn iteration(&self, s: &Setup, scope: Scope, traced: bool) -> (Iter, usize) {
        let mut it = Iter::default();
        let mut digest = Fnv::default();
        run_batch(
            scope,
            &s.topo,
            &s.series,
            &self.rates,
            &self.seeds,
            traced,
            &mut it,
            &mut digest,
        );
        it.digest = digest.finish();
        let jobs = it.jobs.len();
        (it, jobs)
    }

    fn verify(&self, _: &Setup, jobs: &usize, checks: &mut Checks) {
        checks.check(*jobs == 4 * self.rates.len() * 2, || {
            format!("figure-ref ran {jobs} jobs")
        });
    }

    fn layers(
        &self,
        s: &Setup,
        _: &usize,
        _: &usize,
        it: &Iter,
        _: &SpanTree,
        _: f64,
        layers: &mut Layers,
        _: &mut Checks,
    ) {
        layers.set("routing.vlb_paths", s.vlb_paths as f64);
        layers.set("core.balance_removed", s.balance_removed as f64);
        layers.engine(&it.jobs);
        layers.runner(it);
    }
}

//! `faults-ref`: the fig_faults shape on dfly(4,8,4,9) — the nested
//! global-cable fault chain 0 / 2.5 / 5 / 10% under UR and shift(1,0),
//! with degraded tables, immediate fault schedules, and one warm-started
//! model chain per rule along the fault superset chain.

use super::{
    candidate_providers, provider, sim_seeds, table_digest, Bench, TVLB_RULE, TVLB_TABLE_SEED,
};
use crate::stats::Fnv;
use crate::trace::{Scope, SpanTree};
use crate::{dfly, run_batch, Checks, Iter, Layers, Opts};
use std::sync::Arc;
use tugal_model::{
    modeled_throughput, modeled_throughput_degraded_warm, LpStats, ModelVariant, ModelWarmCache,
};
use tugal_netsim::runner::{JobOutcome, SeriesSpec};
use tugal_netsim::{Config, FaultSchedule, RoutingAlgorithm, SimResult};
use tugal_routing::{PathProvider, TableProvider, VlbRule};
use tugal_topology::{Degraded, Dragonfly, FaultSet};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

/// Failed fraction of global cables along the chain; each larger fraction
/// is a superset of the smaller ones (one shuffle per seed).
const FRACTIONS: [f64; 4] = [0.0, 0.025, 0.05, 0.10];

/// Base seed of the fault samples (the `fig_faults` value).
const FAULT_SEED: u64 = 0xFA17;

/// Conventional UGAL and the pinned T-VLB, each with the table seed its
/// degraded table regenerates dead subsets under.  Each rule also runs one
/// model chain.
const RULES: [(VlbRule, u64); 2] = [(VlbRule::All, 0), (TVLB_RULE, TVLB_TABLE_SEED)];

/// The workload's parameters.
pub struct Faults {
    params: (u32, u32, u32, u32),
    rates: Vec<f64>,
    seeds: [u64; 2],
    fault_seed: u64,
}

/// Pristine tables, patterns and the fault chain's views and schedules.
pub struct Setup {
    topo: Arc<Dragonfly>,
    /// Conventional all-paths and pinned T-VLB providers.
    pristine: [Arc<TableProvider>; 2],
    patterns: [(&'static str, Arc<dyn TrafficPattern>); 2],
    shift_demands: Vec<(u32, u32, u32)>,
    degraded: Vec<Degraded>,
    schedules: Vec<Arc<FaultSchedule>>,
    vlb_paths: u64,
    balance_removed: usize,
}

/// What an iteration computed.
pub struct Out {
    /// Warm-chain θ per (rule, fraction), in chain order.
    thetas: Vec<f64>,
    /// The chains' caches after their last solve.
    caches: Vec<ModelWarmCache>,
    /// Results of the pristine batch and of each fraction's batch: per
    /// batch, per series label, the job results in schedule order.
    batches: Vec<Vec<(String, Vec<Option<SimResult>>)>>,
}

impl Faults {
    /// The workload for `opts` (dfly(2,4,2,5) and two loads in tiny mode).
    pub fn new(opts: &Opts) -> Self {
        let (params, rates) = if opts.tiny {
            ((2, 4, 2, 5), vec![0.1, 0.2])
        } else {
            ((4, 8, 4, 9), vec![0.1, 0.2, 0.3])
        };
        Faults {
            params,
            rates,
            seeds: sim_seeds(opts.seed),
            fault_seed: FAULT_SEED.wrapping_add(opts.seed),
        }
    }

    fn solve(&self, s: &Setup, deg: &Degraded, rule: VlbRule, cache: &mut ModelWarmCache) -> f64 {
        modeled_throughput_degraded_warm(
            &s.topo,
            deg,
            &s.shift_demands,
            rule,
            ModelVariant::DrawProportional,
            cache,
        )
        .map_or(f64::NAN, |m| m.theta)
    }
}

impl Bench for Faults {
    type Setup = Setup;
    type Out = Out;

    fn config_digest(&self) -> u64 {
        let (p, a, h, g) = self.params;
        Fnv::default()
            .str("faults-ref")
            .str(&format!("dfly({p},{a},{h},{g}) UR shift(1,0)"))
            .str(&format!("{RULES:?} seed {TVLB_TABLE_SEED:#x}"))
            .str(&format!("{FRACTIONS:?} fault seed {:#x}", self.fault_seed))
            .str(&format!("{:?} {:?}", self.rates, self.seeds))
            .str(&format!("{:?}", Config::quick()))
            .finish()
    }

    fn setup_digest(&self, s: &Setup) -> Option<u64> {
        Some(table_digest(&s.pristine[1]))
    }

    fn setup(&self, scope: Scope) -> Setup {
        let (p, a, h, g) = self.params;
        let topo = scope.child("topology.build", |_| dfly(p, a, h, g));
        let (ugal, tvlb, report) = candidate_providers(scope, &topo);
        let vlb_paths = ugal.total_vlb_paths() + tvlb.total_vlb_paths();
        let pristine = [provider(scope, &topo, ugal), provider(scope, &topo, tvlb)];
        let (patterns, shift_demands) = scope.child("traffic.demands", |_| {
            let shift = Shift::new(&topo, 1, 0);
            let demands = shift.demands().expect("shift patterns have demands");
            let patterns: [(&str, Arc<dyn TrafficPattern>); 2] = [
                ("UR", Arc::new(Uniform::new(&topo))),
                ("SHIFT", Arc::new(shift)),
            ];
            (patterns, demands)
        });
        let (degraded, schedules) = FRACTIONS
            .iter()
            .map(|&f| {
                scope.child("topology.degrade", |_| {
                    let faults = if f == 0.0 {
                        FaultSet::empty()
                    } else {
                        FaultSet::sample_global_links(&topo, f, self.fault_seed)
                    };
                    (
                        topo.degrade(&faults),
                        Arc::new(FaultSchedule::immediate(faults)),
                    )
                })
            })
            .unzip();
        Setup {
            topo,
            pristine,
            patterns,
            shift_demands,
            degraded,
            schedules,
            vlb_paths,
            balance_removed: report.removed_local + report.removed_global,
        }
    }

    fn iteration(&self, s: &Setup, scope: Scope, traced: bool) -> (Iter, Out) {
        let mut it = Iter::default();
        let mut digest = Fnv::default();
        let mut thetas = Vec::new();
        let mut caches = Vec::new();
        scope.child("model.chain", |chain| {
            for (rule, _) in RULES {
                let mut cache = ModelWarmCache::new();
                for deg in &s.degraded {
                    let theta =
                        chain.child("model.solve", |_| self.solve(s, deg, rule, &mut cache));
                    digest.f64(theta);
                    thetas.push(theta);
                }
                caches.push(cache);
            }
        });
        it.lp_solves = thetas.len() as u64;

        // The pristine batch, then one batch per fraction over tables
        // degraded from the pristine ones (regenerating T-VLB subsets whose
        // paths all died), with the fraction's schedule attached.
        let mut batches = Vec::new();
        for fi in std::iter::once(None).chain((0..FRACTIONS.len()).map(Some)) {
            let providers: Vec<(String, Arc<dyn PathProvider>)> = match fi {
                None => ["UGAL-L", "T-UGAL-L"]
                    .into_iter()
                    .zip(&s.pristine)
                    .map(|(tag, p)| (tag.to_string(), p.clone() as Arc<dyn PathProvider>))
                    .collect(),
                Some(fi) => ["UGAL", "T-UGAL"]
                    .into_iter()
                    .zip(s.pristine.iter().zip(RULES))
                    .map(|(tag, (p, (rule, seed)))| {
                        let table = scope.child("routing.degrade", |_| {
                            let mut table = p.table().clone();
                            table.degrade(&s.topo, &s.degraded[fi], rule, seed);
                            table
                        });
                        let label = format!("{tag} f={:.1}%", 100.0 * FRACTIONS[fi]);
                        (
                            label,
                            provider(scope, &s.topo, table) as Arc<dyn PathProvider>,
                        )
                    })
                    .collect(),
            };
            let series: Vec<SeriesSpec> = s
                .patterns
                .iter()
                .flat_map(|(ptag, pattern)| {
                    providers.iter().map(move |(tag, provider)| SeriesSpec {
                        label: format!("{ptag} {tag}"),
                        provider: provider.clone(),
                        pattern: pattern.clone(),
                        routing: RoutingAlgorithm::UgalL,
                        cfg: Config::quick().for_routing(RoutingAlgorithm::UgalL),
                        faults: fi.map(|fi| s.schedules[fi].clone()),
                    })
                })
                .collect();
            let records = run_batch(
                scope,
                &s.topo,
                &series,
                &self.rates,
                &self.seeds,
                traced,
                &mut it,
                &mut digest,
            );
            batches.push(
                series
                    .iter()
                    .enumerate()
                    .map(|(si, spec)| {
                        let results = records
                            .iter()
                            .filter(|r| r.series == si)
                            .map(|r| match &r.outcome {
                                JobOutcome::Ok(res) => Some(res.clone()),
                                _ => None,
                            })
                            .collect();
                        (spec.label.clone(), results)
                    })
                    .collect(),
            );
        }
        it.digest = digest.finish();
        (
            it,
            Out {
                thetas,
                caches,
                batches,
            },
        )
    }

    fn verify(&self, s: &Setup, out: &Out, checks: &mut Checks) {
        let n = FRACTIONS.len();
        for (ri, (rule, _)) in RULES.into_iter().enumerate() {
            for (fi, deg) in s.degraded.iter().enumerate() {
                let warm = out.thetas[ri * n + fi];
                let cold = self.solve(s, deg, rule, &mut ModelWarmCache::new());
                checks.check(warm.is_finite() && warm.to_bits() == cold.to_bits(), || {
                    format!("{rule} f={}: warm θ {warm} != cold θ {cold}", FRACTIONS[fi])
                });
            }
            // The chain head runs the degraded machinery with no faults and
            // must reproduce the pristine model exactly.
            let pristine = modeled_throughput(
                &s.topo,
                &s.shift_demands,
                rule,
                ModelVariant::DrawProportional,
            )
            .map_or(f64::NAN, |t| t);
            checks.check(out.thetas[ri * n].to_bits() == pristine.to_bits(), || {
                format!("{rule}: zero-failure θ differs from the pristine model")
            });
            // Re-solving the chain's last instance reuses the carried basis.
            let mut reuse = out.caches[ri].clone();
            let again = self.solve(s, &s.degraded[n - 1], rule, &mut reuse);
            let extra = reuse.stats.pivots - out.caches[ri].stats.pivots;
            let last = out.thetas[ri * n + n - 1];
            checks.check(again.to_bits() == last.to_bits() && extra == 0, || {
                format!("{rule}: exact re-solve of the last fraction gave θ {again} (chain {last}) in {extra} pivots")
            });
        }
        // The zero-failure batch ran through empty degraded tables and an
        // attached empty schedule and must reproduce the pristine batch.
        for ((label, pristine), (_, zero)) in out.batches[0].iter().zip(&out.batches[1]) {
            checks.check(!pristine.is_empty() && pristine == zero, || {
                format!("{label}: zero-failure run diverged from the pristine run")
            });
        }
    }

    fn layers(
        &self,
        s: &Setup,
        _: &Out,
        traced: &Out,
        it: &Iter,
        _: &SpanTree,
        window_s: f64,
        layers: &mut Layers,
        _: &mut Checks,
    ) {
        let mut lp = LpStats::default();
        for c in &traced.caches {
            lp.merge(&c.stats);
        }
        layers.lp(&lp, window_s);
        layers.set("routing.vlb_paths", s.vlb_paths as f64);
        layers.set("core.balance_removed", s.balance_removed as f64);
        layers.engine(&it.jobs);
        layers.runner(it);
    }
}

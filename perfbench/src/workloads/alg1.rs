//! `alg1-ref`: cold Algorithm 1 (`compute_tvlb`) on dfly(4,8,4,9) with the
//! figure harnesses' quick configuration (8 TYPE_1 + 4 TYPE_2 Step-1
//! patterns, 2 Step-2 evaluation patterns, resolution 0.04).  No disk
//! cache is involved.
//!
//! The untraced run times `compute_tvlb` itself.  The traced run drives the
//! same algorithm step by step through the public `tugal` calls, with a
//! span around each layer call, and must pick `compute_tvlb`'s rule from
//! bit-identical Step-1 means.

use super::Bench;
use crate::stats::Fnv;
use crate::trace::{Scope, SpanTree};
use crate::{dfly, Checks, Iter, Layers, Opts};
use rayon::prelude::*;
use std::sync::Arc;
use tugal::sweep::candidate_regions;
use tugal::{compute_tvlb, conventional_provider, table1_points, SweepOutcome, TUgalConfig};
use tugal_model::{modeled_throughput_multi, modeled_throughput_warm, LpStats, ModelWarmCache};
use tugal_netsim::{saturation_throughput, SweepOptions};
use tugal_routing::{PathProvider, PathTable, TableProvider, VlbRule};
use tugal_topology::Dragonfly;
use tugal_traffic::{type_1_set, type_2_set, TrafficPattern};

/// The workload's parameters.
pub struct Alg1 {
    params: (u32, u32, u32, u32),
    cfg: TUgalConfig,
}

/// Algorithm 1's set-up is the topology alone: `compute_tvlb` builds its
/// patterns and tables itself.
pub struct Setup {
    topo: Arc<Dragonfly>,
}

/// One Step-2 candidate: rule, mean saturation throughput, mean VLB hops.
type Score = (VlbRule, f64, f64);

/// Switch-level `(src, dst, flows)` demands of one Step-1 pattern.
type Demands = Vec<(u32, u32, u32)>;

/// Algorithm 1's result, from `compute_tvlb` or from the stepwise run.
pub struct Out {
    sweep: Vec<SweepOutcome>,
    candidates: Vec<VlbRule>,
    scores: Vec<Score>,
    chosen: VlbRule,
    mean_hops_all: f64,
    mean_hops_tvlb: f64,
    /// Stepwise run only: the Step-1 demand sets and per-pattern model
    /// values (rows in pattern order, columns in Table-1 order).
    step1: Option<(Vec<Demands>, Vec<Vec<f64>>)>,
    /// Stepwise run only: VLB paths over the candidate tables and paths
    /// the balance adjustment removed.
    tables: (u64, usize),
}

impl Out {
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for o in &self.sweep {
            h.str(&o.rule.to_string()).f64(o.mean).f64(o.sem);
        }
        for r in &self.candidates {
            h.str(&r.to_string());
        }
        for (r, t, hops) in &self.scores {
            h.str(&r.to_string()).f64(*t).f64(*hops);
        }
        h.str(&self.chosen.to_string())
            .f64(self.mean_hops_all)
            .f64(self.mean_hops_tvlb)
            .finish()
    }
}

/// Index of the winning candidate, exactly as `compute_tvlb` picks it:
/// highest throughput, with candidates within one bisection step tied and
/// the shorter set winning the tie.
fn select(scores: &[Score], resolution: f64) -> usize {
    let eps = resolution * 1.01;
    (0..scores.len())
        .max_by(|&a, &b| {
            let (sa, sb) = (&scores[a], &scores[b]);
            if (sa.1 - sb.1).abs() <= eps {
                sb.2.total_cmp(&sa.2)
            } else {
                sa.1.total_cmp(&sb.1)
            }
        })
        .expect("at least one candidate")
}

impl Alg1 {
    /// The workload for `opts` (dfly(2,4,2,5) with `TUgalConfig::quick`
    /// in tiny mode).
    pub fn new(opts: &Opts) -> Self {
        let mut cfg = TUgalConfig::quick();
        let params = if opts.tiny {
            (2, 4, 2, 5)
        } else {
            cfg.sweep.type1_sample = Some(8);
            cfg.sweep.type2_count = 4;
            (4, 8, 4, 9)
        };
        // The seed varies Step 2's inputs (table sampling, evaluation
        // patterns, simulation seed); the Step-1 suite stays the harness's.
        cfg.seed = cfg.seed.wrapping_add(opts.seed);
        Alg1 { params, cfg }
    }

    /// The Step-1 demand sets, in `coarse_grain_sweep`'s order.
    fn step1_demands(&self, topo: &Dragonfly) -> Vec<Demands> {
        let t1 = type_1_set(topo);
        let mut demands: Vec<Demands> = match self.cfg.sweep.type1_sample {
            Some(n) if n < t1.len() => {
                let step = (t1.len() / n.max(1)).max(1);
                t1.iter()
                    .step_by(step)
                    .take(n)
                    .map(|p| p.demands().unwrap())
                    .collect()
            }
            _ => t1.iter().map(|p| p.demands().unwrap()).collect(),
        };
        for p in type_2_set(topo, self.cfg.sweep.type2_count, self.cfg.sweep.seed) {
            demands.push(p.demands().unwrap());
        }
        demands
    }

    /// Algorithm 1 driven step by step, a span around every layer call.
    fn stepwise(&self, topo: &Arc<Dragonfly>, scope: Scope) -> Out {
        let cfg = &self.cfg;
        let rules = table1_points();
        let (sweep, step1) = scope.child("core.step1", |s1| {
            let demands = s1.child("traffic.demands", |_| self.step1_demands(topo));
            let per_pattern: Vec<Vec<f64>> = demands
                .par_iter()
                .map(|d| {
                    s1.child("model.solve", |_| {
                        modeled_throughput_multi(topo, d, &rules, cfg.sweep.variant)
                            .expect("throughput model failed")
                    })
                })
                .collect();
            // The aggregation of `coarse_grain_sweep`, operation for
            // operation, so the means match bit-for-bit.
            let n = per_pattern.len() as f64;
            let sweep = rules
                .iter()
                .enumerate()
                .map(|(ri, &rule)| {
                    let values: Vec<f64> = per_pattern.iter().map(|row| row[ri]).collect();
                    let mean = values.iter().sum::<f64>() / n;
                    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n.max(1.0);
                    SweepOutcome {
                        rule,
                        mean,
                        sem: (var / n.max(1.0)).sqrt(),
                    }
                })
                .collect::<Vec<_>>();
            (sweep, (demands, per_pattern))
        });

        scope.child("core.step2", |s2| {
            let mut candidates = s2.child("core.candidates", |_| candidate_regions(&sweep));
            let has_frac5 = candidates.iter().any(|r| {
                matches!(r, VlbRule::ClassLimit { max_hops: 4, frac_next } if *frac_next > 0.0 && *frac_next < 1.0)
            });
            if has_frac5 {
                candidates.push(VlbRule::Strategic { first_seg: 2 });
                candidates.push(VlbRule::Strategic { first_seg: 3 });
            }
            let sim_cfg = cfg.sim.clone().for_routing(cfg.routing);
            let opts = SweepOptions {
                seeds: vec![cfg.seed],
                resolution: cfg.eval_resolution,
            };
            let mut scores = Vec::new();
            let mut providers: Vec<Arc<dyn PathProvider>> = Vec::new();
            let (mut vlb_paths, mut removed) = (0, 0);
            for &rule in &candidates {
                let mut table = s2.child("routing.table_build", |_| {
                    PathTable::build_with_rule(topo, rule, cfg.seed)
                });
                let report = s2.child("core.balance", |_| {
                    tugal::balance::adjust(&mut table, topo, &cfg.balance)
                });
                vlb_paths += table.total_vlb_paths();
                removed += report.removed_local + report.removed_global;
                let provider = s2.child("routing.table_build", |_| {
                    Arc::new(TableProvider::new(topo.clone(), table)) as Arc<dyn PathProvider>
                });
                let patterns: Vec<Arc<dyn TrafficPattern>> = s2.child("traffic.demands", |_| {
                    type_2_set(topo, cfg.eval_patterns, cfg.seed ^ 0xABCD)
                        .into_iter()
                        .map(|p| Arc::new(p) as Arc<dyn TrafficPattern>)
                        .collect()
                });
                let mut sum = 0.0;
                for pattern in &patterns {
                    sum += s2.child("netsim.saturation", |_| {
                        saturation_throughput(topo, &provider, pattern, cfg.routing, &sim_cfg, &opts)
                    });
                }
                scores.push((
                    rule,
                    sum / patterns.len().max(1) as f64,
                    provider.mean_vlb_hops(),
                ));
                providers.push(provider);
            }
            let best = select(&scores, cfg.eval_resolution);
            let mean_hops_all = s2.child("routing.table_build", |_| {
                conventional_provider(topo.clone(), cfg.max_table_switches).mean_vlb_hops()
            });
            Out {
                sweep,
                candidates,
                chosen: scores[best].0,
                mean_hops_tvlb: providers[best].mean_vlb_hops(),
                scores,
                mean_hops_all,
                step1: Some(step1),
                tables: (vlb_paths, removed),
            }
        })
    }

    /// Replays the Step-1 solves as one `ModelWarmCache` chain per pattern
    /// (the chain `modeled_throughput_multi` runs internally) to read the
    /// LP counters; every replayed value must equal the sweep's.
    fn replay_lp(&self, topo: &Dragonfly, out: &Out, checks: &mut Checks) -> LpStats {
        let (demands, per_pattern) = out.step1.as_ref().expect("stepwise output");
        let rules = table1_points();
        let chains: Vec<(Vec<f64>, LpStats)> = demands
            .par_iter()
            .map(|d| {
                let mut cache = ModelWarmCache::new();
                let values = rules
                    .iter()
                    .map(|&rule| {
                        modeled_throughput_warm(topo, d, rule, self.cfg.sweep.variant, &mut cache)
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                (values, cache.stats)
            })
            .collect();
        let mut stats = LpStats::default();
        for (pi, (values, s)) in chains.iter().enumerate() {
            stats.merge(s);
            let same = values
                .iter()
                .zip(&per_pattern[pi])
                .all(|(a, b)| a.to_bits() == b.to_bits());
            checks.check(same, || {
                format!("pattern {pi}: warm-chain replay differs from modeled_throughput_multi")
            });
        }
        stats
    }

    fn step1_lps(&self, topo: &Dragonfly) -> u64 {
        (self.step1_demands(topo).len() * table1_points().len()) as u64
    }
}

impl Bench for Alg1 {
    type Setup = Setup;
    type Out = Out;

    fn traced_reproduces_reference(&self) -> bool {
        false
    }

    fn config_digest(&self) -> u64 {
        let (p, a, h, g) = self.params;
        Fnv::default()
            .str("alg1-ref")
            .str(&format!("dfly({p},{a},{h},{g})"))
            .u64(self.cfg.digest())
            .finish()
    }

    fn setup(&self, scope: Scope) -> Setup {
        let (p, a, h, g) = self.params;
        Setup {
            topo: scope.child("topology.build", |_| dfly(p, a, h, g)),
        }
    }

    fn iteration(&self, s: &Setup, scope: Scope, traced: bool) -> (Iter, Out) {
        let out = if traced {
            self.stepwise(&s.topo, scope)
        } else {
            let r = compute_tvlb(s.topo.clone(), &self.cfg);
            Out {
                sweep: r.report.sweep,
                candidates: r.report.candidates,
                scores: r
                    .report
                    .scores
                    .iter()
                    .map(|c| (c.rule, c.throughput, c.mean_vlb_hops))
                    .collect(),
                chosen: r.chosen,
                mean_hops_all: r.report.mean_hops_all,
                mean_hops_tvlb: r.report.mean_hops_tvlb,
                step1: None,
                tables: (0, 0),
            }
        };
        let it = Iter {
            digest: out.digest(),
            lp_solves: self.step1_lps(&s.topo),
            ..Iter::default()
        };
        (it, out)
    }

    fn verify(&self, s: &Setup, out: &Out, checks: &mut Checks) {
        checks.check(out.sweep.len() == table1_points().len(), || {
            format!("Step 1 scored {} Table-1 points", out.sweep.len())
        });
        checks.check(
            out.sweep.iter().all(|o| o.mean.is_finite() && o.mean > 0.0),
            || "a Step-1 mean is not a positive number".to_string(),
        );
        checks.check(
            out.scores.len() == out.candidates.len()
                && out.candidates.contains(&VlbRule::All)
                && out
                    .scores
                    .iter()
                    .all(|sc| sc.1.is_finite() && (0.0..=1.0).contains(&sc.1)),
            || "Step-2 scores do not cover the candidates with throughputs in [0, 1]".to_string(),
        );
        let best = select(&out.scores, self.cfg.eval_resolution);
        checks.check(out.chosen == out.scores[best].0, || {
            format!("chosen {} is not the best-scoring candidate", out.chosen)
        });
        checks.check(out.mean_hops_tvlb <= out.mean_hops_all + 1e-9, || {
            format!(
                "T-VLB mean hops {} exceed the conventional {}",
                out.mean_hops_tvlb, out.mean_hops_all
            )
        });
        checks.check(s.topo.num_switches() <= self.cfg.max_table_switches, || {
            "topology too large for explicit Step-2 tables".to_string()
        });
    }

    fn layers(
        &self,
        s: &Setup,
        reference: &Out,
        traced: &Out,
        _: &Iter,
        tree: &SpanTree,
        window_s: f64,
        layers: &mut Layers,
        checks: &mut Checks,
    ) {
        checks.check(traced.chosen == reference.chosen, || {
            format!(
                "stepwise Algorithm 1 chose {} but compute_tvlb chose {}",
                traced.chosen, reference.chosen
            )
        });
        let same_means = traced.sweep.len() == reference.sweep.len()
            && traced.sweep.iter().zip(&reference.sweep).all(|(a, b)| {
                a.rule == b.rule
                    && a.mean.to_bits() == b.mean.to_bits()
                    && a.sem.to_bits() == b.sem.to_bits()
            });
        checks.check(same_means, || {
            "stepwise Step-1 means differ from compute_tvlb's".to_string()
        });
        // Both runs build their own balance-adjusted Step-2 tables, and
        // `balance::adjust` is not repeatable (see README), so equal scores
        // are reported rather than required.
        let same_scores = traced.scores.len() == reference.scores.len()
            && traced.scores.iter().zip(&reference.scores).all(|(a, b)| {
                a.0 == b.0 && a.1.to_bits() == b.1.to_bits() && a.2.to_bits() == b.2.to_bits()
            });
        layers
            .info
            .push(format!("# step2_scores_identical {same_scores}"));

        let step1 = tree.total_s("core.step1");
        let step2 = tree.total_s("core.step2");
        let sim = tree.total_s("netsim.saturation");
        let solves = tree.durations_s("model.solve");
        let mean = solves.iter().sum::<f64>() / solves.len().max(1) as f64;
        let slowest = solves.iter().copied().fold(0.0, f64::max);
        layers.set("core.step1_share", step1 / window_s);
        layers.set("core.step2_share", step2 / window_s);
        layers.set("core.step2_sim_share", sim / window_s);
        layers.set(
            "core.step1_imbalance",
            slowest / mean.max(f64::MIN_POSITIVE),
        );
        layers.info.push(format!("core.step1_s {step1} s"));
        layers.info.push(format!("core.step2_s {step2} s"));
        layers.info.push(format!("core.step2_sim_s {sim} s"));
        layers.info.push(format!("# T-VLB = {}", traced.chosen));
        layers.set("routing.vlb_paths", traced.tables.0 as f64);
        layers.set("core.balance_removed", traced.tables.1 as f64);

        let t = std::time::Instant::now();
        let lp = self.replay_lp(&s.topo, traced, checks);
        layers.lp(&lp, window_s);
        layers.info.push(format!(
            "# lp counters from a warm-chain replay of Step 1 ({} s, outside the window)",
            t.elapsed().as_secs_f64()
        ));
    }
}

//! Algorithm 1 end-to-end: compute T-VLB for any `dfly(p, a, h, g)`.

use crate::balance::{self, BalanceOptions, BalanceReport};
use crate::sweep::{candidate_regions, coarse_grain_sweep, SweepConfig, SweepOutcome};
use rayon::prelude::*;
use std::sync::Arc;
use tugal_netsim::{saturation_throughput, Config as SimConfig, RoutingAlgorithm, SweepOptions};
use tugal_routing::{PathProvider, PathTable, RuleProvider, TableProvider, VlbRule};
use tugal_topology::Dragonfly;
use tugal_traffic::{type_2_set, TrafficPattern};

/// Everything Algorithm 1 needs beyond the topology.
#[derive(Debug, Clone)]
pub struct TUgalConfig {
    /// Step-1 sweep controls.
    pub sweep: SweepConfig,
    /// Load-balance adjustment thresholds.
    pub balance: BalanceOptions,
    /// Simulator settings for the Step-2 evaluation.
    pub sim: SimConfig,
    /// Routing algorithm used to score candidates in Step 2 (the paper
    /// simulates its practical UGAL variants; UGAL-L is the default).
    pub routing: RoutingAlgorithm,
    /// Number of TYPE_2 patterns simulated in Step 2 (the paper uses 5).
    pub eval_patterns: usize,
    /// Bisection resolution for the per-candidate saturation-throughput
    /// measurement of Step 2.
    pub eval_resolution: f64,
    /// Seed for table materialization and pattern generation.
    pub seed: u64,
    /// Above this many switches, explicit tables are not materialized;
    /// candidates are evaluated through the O(1)-memory rule sampler and
    /// the balance-adjustment step is skipped (documented deviation for
    /// very large networks).
    pub max_table_switches: usize,
}

impl Default for TUgalConfig {
    fn default() -> Self {
        TUgalConfig {
            sweep: SweepConfig::default(),
            balance: BalanceOptions::default(),
            sim: SimConfig::quick(),
            routing: RoutingAlgorithm::UgalL,
            eval_patterns: 5,
            eval_resolution: 0.02,
            seed: 0x7065,
            max_table_switches: 300,
        }
    }
}

impl TUgalConfig {
    /// CI-speed settings (small sweeps, short simulations).
    pub fn quick() -> Self {
        TUgalConfig {
            sweep: SweepConfig::quick(),
            eval_patterns: 2,
            eval_resolution: 0.04,
            ..Default::default()
        }
    }

    /// Stable 64-bit digest of the *full* configuration (FNV-1a over the
    /// `Debug` rendering, which covers every field recursively).  Disk
    /// caches of Algorithm-1 outcomes key on this so entries produced
    /// under any other sweep/balance/simulation setting — including
    /// settings from older code with different fields — can never be
    /// mistaken for the current one.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        for b in format!("{self:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// One Step-2 candidate and its simulated score.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// The configuration (strategic choices included).
    pub rule: VlbRule,
    /// Mean saturation throughput over the evaluation patterns
    /// (packets/cycle/node), located by bisection — the paper's Step-2
    /// metric.
    pub throughput: f64,
    /// Mean VLB hops of the candidate set (tie-break: shorter wins, the
    /// low-load-latency advantage the throughput metric cannot see).
    pub mean_vlb_hops: f64,
    /// What the balance adjustment did (explicit tables only).
    pub balance: Option<BalanceReport>,
}

/// Full account of an Algorithm-1 run.
#[derive(Debug, Clone)]
pub struct TUgalReport {
    /// Step-1 scores for all 31 Table-1 points.
    pub sweep: Vec<SweepOutcome>,
    /// Configurations advanced to Step 2 (after strategic expansion).
    pub candidates: Vec<VlbRule>,
    /// Step-2 simulation scores.
    pub scores: Vec<CandidateScore>,
    /// Mean VLB hops of the conventional (all paths) candidate sets.
    pub mean_hops_all: f64,
    /// Mean VLB hops of the chosen T-VLB.
    pub mean_hops_tvlb: f64,
}

/// The product of Algorithm 1.
pub struct TUgalResult {
    /// Candidate-path source implementing the chosen T-VLB; plug into the
    /// simulator (or a router) in place of the conventional provider.
    pub provider: Arc<dyn PathProvider>,
    /// The winning configuration.
    pub chosen: VlbRule,
    /// Full report (Figures 4/5 are `report.sweep`).
    pub report: TUgalReport,
}

/// The conventional-UGAL provider for a topology: an explicit all-paths
/// table for small networks, the on-the-fly sampler for large ones.
pub fn conventional_provider(
    topo: Arc<Dragonfly>,
    max_table_switches: usize,
) -> Arc<dyn PathProvider> {
    if topo.num_switches() <= max_table_switches {
        Arc::new(TableProvider::all_paths(topo))
    } else {
        Arc::new(RuleProvider::new(topo, VlbRule::All))
    }
}

/// Step 2's table recipe for one candidate: restrict `table` (an
/// all-paths table) to `rule`, then balance-adjust it.
fn restrict(
    mut table: PathTable,
    topo: &Dragonfly,
    rule: VlbRule,
    cfg: &TUgalConfig,
) -> (PathTable, BalanceReport) {
    table.apply_rule(topo, rule, cfg.seed);
    let report = balance::adjust(&mut table, topo, &cfg.balance);
    (table, report)
}

/// The explicit table [`compute_tvlb`] builds for `rule` under `cfg`:
/// the rule table under `cfg.seed`, balance-adjusted with `cfg.balance`.
/// Re-materialize a cached choice through this so it runs on the same
/// table as the cold computation.
pub fn materialize(topo: &Dragonfly, rule: VlbRule, cfg: &TUgalConfig) -> PathTable {
    restrict(PathTable::build_all(topo), topo, rule, cfg).0
}

/// Runs Algorithm 1 and returns the T-VLB provider plus a full report.
///
/// Step 1 solves its Table-1 × pattern LPs in parallel.  Step 2 runs in
/// two parallel phases: the candidate tables are derived from one shared
/// all-paths enumeration (restrict, then balance-adjust), and the
/// saturation searches run over every (candidate, evaluation pattern)
/// pair.  Each candidate's score is summed in pattern order, so the
/// report is bit-identical for any worker count.
pub fn compute_tvlb(topo: Arc<Dragonfly>, cfg: &TUgalConfig) -> TUgalResult {
    // Step 1: coarse-grain model sweep (lines 8–12 of Algorithm 1).
    let sweep = coarse_grain_sweep(&topo, &cfg.sweep);
    let mut candidates = candidate_regions(&sweep);

    // Strategic expansion (line 13): when a fractional 5-hop point is a
    // candidate, add the two deterministic split choices.
    let has_frac5 = candidates.iter().any(|r| {
        matches!(r, VlbRule::ClassLimit { max_hops: 4, frac_next } if *frac_next > 0.0 && *frac_next < 1.0)
    });
    if has_frac5 {
        candidates.push(VlbRule::Strategic { first_seg: 2 });
        candidates.push(VlbRule::Strategic { first_seg: 3 });
    }

    // Step 2 (lines 14–21): materialize, balance-adjust, simulate.  The
    // full set is always among the candidates, so on maximal topologies —
    // where simulation confirms every subset degrades (Figure 5) — the
    // procedure converges to conventional UGAL by measurement, exactly as
    // the paper establishes it.
    let explicit = topo.num_switches() <= cfg.max_table_switches;
    let (mut built, mean_hops_all) = if explicit {
        let base = PathTable::build_all(&topo);
        let built: Vec<_> = candidates
            .par_iter()
            .map(|&rule| {
                let (table, report) = restrict(base.clone(), &topo, rule, cfg);
                let provider = Arc::new(TableProvider::new(topo.clone(), table));
                (provider as Arc<dyn PathProvider>, Some(report))
            })
            .collect();
        (built, base.mean_vlb_hops())
    } else {
        let built = candidates
            .iter()
            .map(|&rule| {
                let provider = Arc::new(RuleProvider::new(topo.clone(), rule));
                (provider as Arc<dyn PathProvider>, None)
            })
            .collect();
        let all = conventional_provider(topo.clone(), cfg.max_table_switches);
        (built, all.mean_vlb_hops())
    };

    // Mean saturation throughput over TYPE_2 patterns (bisection per
    // pattern, §3.3.3's "average throughput of the patterns").
    let patterns: Vec<Arc<dyn TrafficPattern>> =
        type_2_set(&topo, cfg.eval_patterns, cfg.seed ^ 0xABCD)
            .into_iter()
            .map(|p| Arc::new(p) as Arc<dyn TrafficPattern>)
            .collect();
    let sim_cfg = cfg.sim.clone().for_routing(cfg.routing);
    let opts = SweepOptions {
        seeds: vec![cfg.seed],
        resolution: cfg.eval_resolution,
    };
    let np = patterns.len();
    let jobs: Vec<usize> = (0..built.len() * np).collect();
    let saturation: Vec<f64> = jobs
        .par_iter()
        .map(|&j| {
            let provider = &built[j / np].0;
            saturation_throughput(
                &topo,
                provider,
                &patterns[j % np],
                cfg.routing,
                &sim_cfg,
                &opts,
            )
        })
        .collect();
    let scores: Vec<CandidateScore> = candidates
        .iter()
        .zip(&built)
        .enumerate()
        .map(|(c, (&rule, (provider, report)))| {
            // Summed from 0.0 in pattern order, so the mean keeps its bits
            // for any worker count.
            let mut sum = 0.0;
            for s in &saturation[c * np..(c + 1) * np] {
                sum += s;
            }
            CandidateScore {
                rule,
                throughput: sum / np.max(1) as f64,
                mean_vlb_hops: provider.mean_vlb_hops(),
                balance: report.clone(),
            }
        })
        .collect();

    // Highest mean saturation throughput wins; candidates within one
    // bisection step of each other are tied and the shorter set wins the
    // tie (its low-load latency advantage, which the saturation metric is
    // blind to).
    let eps = cfg.eval_resolution * 1.01;
    let best_idx = (0..scores.len())
        .max_by(|&a, &b| {
            let (sa, sb) = (&scores[a], &scores[b]);
            if (sa.throughput - sb.throughput).abs() <= eps {
                sb.mean_vlb_hops.total_cmp(&sa.mean_vlb_hops)
            } else {
                sa.throughput.total_cmp(&sb.throughput)
            }
        })
        .expect("at least one candidate");
    let provider = built.swap_remove(best_idx).0;
    let chosen = scores[best_idx].rule;

    let mean_hops_tvlb = provider.mean_vlb_hops();
    TUgalResult {
        provider,
        chosen,
        report: TUgalReport {
            sweep,
            candidates,
            scores,
            mean_hops_all,
            mean_hops_tvlb,
        },
    }
}

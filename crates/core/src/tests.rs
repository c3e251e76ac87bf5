//! Algorithm-1 integration tests on small topologies.

use crate::algorithm::CandidateScore;
use crate::*;
use std::sync::Arc;
use tugal_routing::VlbRule;
use tugal_topology::{Dragonfly, DragonflyParams};

fn topo(p: u32, a: u32, h: u32, g: u32) -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap())
}

#[test]
fn tvlb_on_dense_topology_restricts_and_shortens() {
    // dfly(2,4,2,3): 4 links per group pair — plenty of short VLB paths.
    let t = topo(2, 4, 2, 3);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    assert_ne!(
        result.chosen,
        VlbRule::All,
        "dense topology should restrict"
    );
    assert!(
        result.report.mean_hops_tvlb < result.report.mean_hops_all - 0.2,
        "T-VLB should be shorter on average: {} vs {}",
        result.report.mean_hops_tvlb,
        result.report.mean_hops_all
    );
    assert_eq!(result.report.sweep.len(), 31);
    assert!(!result.report.scores.is_empty());
}

#[test]
fn tvlb_on_maximal_topology_never_loses_throughput() {
    // dfly(2,4,2,9) is maximal (1 link per pair).  The paper's Figure-5
    // claim — T-UGAL converges with conventional UGAL when every VLB path
    // is needed — is established by Step-2 *simulation*; on this small
    // maximal instance we assert the measurable form of it: whatever
    // Step 2 picks scores at least as much simulated saturation
    // throughput as the full candidate set (All is always a candidate).
    let t = topo(2, 4, 2, 9);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let all_score = result
        .report
        .scores
        .iter()
        .find(|s| s.rule == VlbRule::All)
        .expect("the full set is always a Step-2 candidate");
    let chosen_score = result
        .report
        .scores
        .iter()
        .find(|s| s.rule == result.chosen)
        .unwrap();
    assert!(
        chosen_score.throughput >= all_score.throughput - 0.05,
        "chosen {:?} at {} must not lose to All at {}",
        result.chosen,
        chosen_score.throughput,
        all_score.throughput
    );
}

#[test]
fn sweep_report_orders_match_table1() {
    let t = topo(2, 4, 2, 3);
    // (uses the same quick config as the other tests)
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let labels: Vec<String> = result
        .report
        .sweep
        .iter()
        .map(|o| o.rule.to_string())
        .collect();
    assert_eq!(labels[0], "3-hop paths");
    assert_eq!(labels[30], "all VLB paths");
    for o in &result.report.sweep {
        assert!(o.mean > 0.0 && o.mean <= 1.0, "{o:?}");
        assert!(o.sem >= 0.0);
    }
}

#[test]
fn strategic_candidates_appear_for_fractional_five_hop() {
    let t = topo(2, 4, 2, 3);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let has_frac5 = result.report.candidates.iter().any(|r| {
        matches!(r, VlbRule::ClassLimit { max_hops: 4, frac_next } if *frac_next > 0.0 && *frac_next < 1.0)
    });
    let has_strategic = result
        .report
        .candidates
        .iter()
        .any(|r| matches!(r, VlbRule::Strategic { .. }));
    assert_eq!(has_frac5, has_strategic, "{:?}", result.report.candidates);
}

#[test]
fn provider_is_usable_in_simulation() {
    use tugal_netsim::{Config, RoutingAlgorithm, Simulator};
    use tugal_traffic::{Shift, TrafficPattern};

    let t = topo(2, 4, 2, 3);
    let result = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let r = Simulator::new(
        t.clone(),
        result.provider,
        pattern,
        RoutingAlgorithm::UgalL,
        Config::quick(),
    )
    .run(0.2);
    assert!(r.delivered > 0);
    assert!(!r.saturated, "{r:?}");
}

#[test]
fn conventional_provider_picks_representation_by_size() {
    let small = topo(2, 4, 2, 3);
    let p = conventional_provider(small, 300);
    assert!(p.mean_vlb_hops() > 2.0);
    // Force the rule-provider path with a tiny table budget.
    let also_small = topo(2, 4, 2, 3);
    let p = conventional_provider(also_small, 1);
    assert!(p.mean_vlb_hops() > 2.0);
}

/// Asserts two Step-2 scores are equal bit for bit.
fn assert_same_score(a: &CandidateScore, b: &CandidateScore) {
    assert_eq!(a.rule, b.rule);
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits(), "{}", a.rule);
    assert_eq!(
        a.mean_vlb_hops.to_bits(),
        b.mean_vlb_hops.to_bits(),
        "{}",
        a.rule
    );
    assert_eq!(a.balance, b.balance, "{}", a.rule);
}

#[test]
fn deterministic_given_seed() {
    let t = topo(2, 4, 2, 3);
    let a = compute_tvlb(t.clone(), &TUgalConfig::quick());
    let b = compute_tvlb(t.clone(), &TUgalConfig::quick());
    assert_eq!(a.chosen, b.chosen);
    assert_eq!(
        a.report.mean_hops_tvlb.to_bits(),
        b.report.mean_hops_tvlb.to_bits()
    );
    assert_eq!(a.report.sweep.len(), b.report.sweep.len());
    for (x, y) in a.report.sweep.iter().zip(&b.report.sweep) {
        assert_eq!(x.rule, y.rule);
        assert_eq!(x.mean.to_bits(), y.mean.to_bits(), "{}", x.rule);
        assert_eq!(x.sem.to_bits(), y.sem.to_bits(), "{}", x.rule);
    }
    assert_eq!(a.report.scores.len(), b.report.scores.len());
    for (x, y) in a.report.scores.iter().zip(&b.report.scores) {
        assert_same_score(x, y);
    }
}

#[test]
fn parallel_step2_matches_sequential_reference() {
    use crate::sweep::candidate_regions;
    use tugal_netsim::{saturation_throughput, SweepOptions};
    use tugal_routing::{PathProvider, PathTable, TableProvider};
    use tugal_traffic::{type_2_set, TrafficPattern};

    let t = topo(2, 4, 2, 3);
    let cfg = TUgalConfig::quick();
    let result = compute_tvlb(t.clone(), &cfg);
    let report = &result.report;

    // Candidates: Step-1 regions plus the strategic pair.
    let mut candidates = candidate_regions(&report.sweep);
    let has_frac5 = candidates.iter().any(|r| {
        matches!(r, VlbRule::ClassLimit { max_hops: 4, frac_next } if *frac_next > 0.0 && *frac_next < 1.0)
    });
    if has_frac5 {
        candidates.push(VlbRule::Strategic { first_seg: 2 });
        candidates.push(VlbRule::Strategic { first_seg: 3 });
    }
    assert!(
        candidates
            .iter()
            .any(|r| matches!(r, VlbRule::Strategic { .. })),
        "the pin must cover the strategic pair: {candidates:?}"
    );
    assert_eq!(candidates, report.candidates);

    // Step 2 one candidate at a time: full rule table, balance, then one
    // saturation search per evaluation pattern summed in order.
    let sim_cfg = cfg.sim.clone().for_routing(cfg.routing);
    let opts = SweepOptions {
        seeds: vec![cfg.seed],
        resolution: cfg.eval_resolution,
    };
    let mut providers: Vec<Arc<dyn PathProvider>> = Vec::new();
    let mut scores = Vec::new();
    for &rule in &candidates {
        let mut table = PathTable::build_with_rule(&t, rule, cfg.seed);
        let balance = balance::adjust(&mut table, &t, &cfg.balance);
        let provider: Arc<dyn PathProvider> = Arc::new(TableProvider::new(t.clone(), table));
        let patterns: Vec<Arc<dyn TrafficPattern>> =
            type_2_set(&t, cfg.eval_patterns, cfg.seed ^ 0xABCD)
                .into_iter()
                .map(|p| Arc::new(p) as Arc<dyn TrafficPattern>)
                .collect();
        let mut sum = 0.0;
        for pattern in &patterns {
            sum += saturation_throughput(&t, &provider, pattern, cfg.routing, &sim_cfg, &opts);
        }
        scores.push(CandidateScore {
            rule,
            throughput: sum / patterns.len().max(1) as f64,
            mean_vlb_hops: provider.mean_vlb_hops(),
            balance: Some(balance),
        });
        providers.push(provider);
    }
    assert_eq!(scores.len(), report.scores.len());
    for (reference, got) in scores.iter().zip(&report.scores) {
        assert_same_score(reference, got);
    }

    let chosen = scores.iter().position(|s| s.rule == result.chosen).unwrap();
    assert_eq!(
        providers[chosen].mean_vlb_hops().to_bits(),
        report.mean_hops_tvlb.to_bits()
    );
    let all = conventional_provider(t.clone(), cfg.max_table_switches).mean_vlb_hops();
    assert_eq!(all.to_bits(), report.mean_hops_all.to_bits());

    // The rule-provider path keeps the conventional provider's mean.
    let rules_only = TUgalConfig {
        max_table_switches: 1,
        ..cfg
    };
    let sampled = compute_tvlb(t.clone(), &rules_only);
    let all = conventional_provider(t.clone(), 1).mean_vlb_hops();
    assert_eq!(all.to_bits(), sampled.report.mean_hops_all.to_bits());
}

#[test]
fn materialize_reproduces_the_chosen_table() {
    use tugal_routing::{PathProvider, TableProvider};

    let t = topo(2, 4, 2, 3);
    let cfg = TUgalConfig::quick();
    let result = compute_tvlb(t.clone(), &cfg);
    let table = materialize(&t, result.chosen, &cfg);
    let hops = TableProvider::new(t.clone(), table).mean_vlb_hops();
    assert_eq!(hops.to_bits(), result.report.mean_hops_tvlb.to_bits());
}

//! The determinism contract of the partitioned engine: a run with any
//! valid shard count is **bit-for-bit identical** to the sequential run.
//!
//! The golden fixtures live on `dfly(2,4,2,5)` whose 5 groups admit shard
//! counts of exactly 1 and 5, so the committed strings are checked at the
//! full 5-way split; the 1/2/4-way cross-checks run on `dfly(2,4,2,8)`
//! (8 groups) against an in-process sequential reference.  Both pristine
//! and degraded runs are covered, plus watchdog trips (the merged
//! `StallReport` must come out identical), the observer fork/absorb seam,
//! and the silent sequential fallback for observers that cannot fork.

include!("common/cases.rs");

use tugal_netsim::{NoopObserver, NoopProfiler, SimObserver, StallKind, WatchdogConfig};
use tugal_topology::NodeId;

#[test]
fn five_shards_reproduce_every_pristine_golden_case() {
    for (routing, adversarial, rate, expected) in CASES {
        let r = simulator_sharded(routing, adversarial, 7, 5).run(rate);
        assert_eq!(
            format!("{r:?}"),
            expected,
            "5-shard mismatch for ({routing:?}, adversarial={adversarial}, rate={rate})"
        );
    }
}

#[test]
fn five_shards_reproduce_every_degraded_golden_case() {
    for (scenario, adversarial, rate, expected) in FAULT_CASES {
        let r = simulator_sharded(RoutingAlgorithm::UgalL, adversarial, 7, 5)
            .with_faults(schedule_of(scenario))
            .run(rate);
        assert_eq!(
            format!("{r:?}"),
            expected,
            "5-shard degraded mismatch for ({scenario}, adversarial={adversarial}, rate={rate})"
        );
    }
}

#[test]
fn five_shards_reproduce_every_zoo_golden_case() {
    for (spec, lag, routing, adversarial, rate, expected) in ZOO_CASES {
        let r = simulator_zoo(spec, lag, routing, adversarial, 7, 5).run(rate);
        assert_eq!(
            format!("{r:?}"),
            expected,
            "5-shard zoo mismatch for ({spec}, lag{lag}, {routing:?}, adversarial={adversarial}, rate={rate})"
        );
    }
}

/// An 8-group dragonfly (`a·h = 7` spread over the 7 peer groups) so
/// 2-, 4- and 8-way splits all exist.
fn sim8(routing: RoutingAlgorithm, adversarial: bool, shards: u32) -> Simulator {
    sim8_watched(routing, adversarial, shards, None)
}

fn sim8_watched(
    routing: RoutingAlgorithm,
    adversarial: bool,
    shards: u32,
    watchdog: Option<WatchdogConfig>,
) -> Simulator {
    let topo = Arc::new(Dragonfly::new(DragonflyParams::new(2, 7, 1, 8)).unwrap());
    let provider = Arc::new(TableProvider::all_paths(topo.clone()));
    let pattern: Arc<dyn TrafficPattern> = if adversarial {
        Arc::new(Shift::new(&topo, 1, 0))
    } else {
        Arc::new(Uniform::new(&topo))
    };
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = 7;
    cfg.shards = shards;
    cfg.watchdog = watchdog;
    Simulator::new(topo, provider, pattern, routing, cfg)
}

#[test]
fn two_and_four_shards_match_sequential_pristine() {
    for routing in [
        RoutingAlgorithm::Min,
        RoutingAlgorithm::Vlb,
        RoutingAlgorithm::UgalL,
        RoutingAlgorithm::UgalG,
        RoutingAlgorithm::Par,
    ] {
        for adversarial in [false, true] {
            let rate = if adversarial { 0.15 } else { 0.3 };
            let seq = format!("{:?}", sim8(routing, adversarial, 1).run(rate));
            for shards in [2, 4] {
                let par = format!("{:?}", sim8(routing, adversarial, shards).run(rate));
                assert_eq!(
                    par, seq,
                    "{shards}-shard divergence for ({routing:?}, adversarial={adversarial})"
                );
            }
        }
    }
}

#[test]
fn two_and_four_shards_match_sequential_under_faults() {
    // A mid-run switch death plus immediate global-link attrition, so the
    // drains, reroute draws and dead-mask broadcasts all cross shard
    // boundaries.
    let schedule = || {
        let topo = Arc::new(Dragonfly::new(DragonflyParams::new(2, 7, 1, 8)).unwrap());
        let mut fs = tugal_topology::FaultSet::sample_global_links(&topo, 0.05, 0xBEEF);
        fs.fail_switch(tugal_topology::SwitchId(5));
        tugal_netsim::FaultSchedule::at(2500, fs)
    };
    let seq = format!(
        "{:?}",
        sim8(RoutingAlgorithm::UgalL, false, 1)
            .with_faults(schedule())
            .run(0.3)
    );
    for shards in [2, 4] {
        let par = format!(
            "{:?}",
            sim8(RoutingAlgorithm::UgalL, false, shards)
                .with_faults(schedule())
                .run(0.3)
        );
        assert_eq!(par, seq, "{shards}-shard degraded divergence");
    }
}

/// The 8-group topology re-wired as a zoo shape (see `sim8`): shard
/// boundaries must stay bit-for-bit across arrangements and parallel
/// global cables, whose per-pair channel sets the mailboxes canonicalize
/// by channel id.
fn sim8_zoo(spec: &str, lag: u32, routing: RoutingAlgorithm, shards: u32) -> Simulator {
    let arr = tugal_topology::ArrangementSpec::parse(spec)
        .unwrap_or_else(|| panic!("unknown arrangement {spec:?}"));
    let topo = Arc::new(
        Dragonfly::with_shape(DragonflyParams::new(2, 7, 1, 8), arr.build().as_ref(), lag).unwrap(),
    );
    let provider = Arc::new(TableProvider::all_paths(topo.clone()));
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&topo, 1, 0));
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = 7;
    cfg.shards = shards;
    Simulator::new(topo, provider, pattern, routing, cfg)
}

#[test]
fn zoo_shards_match_sequential_pristine() {
    for (spec, lag) in [("palmtree", 1), ("palmtree", 2), ("absolute", 2)] {
        let seq = format!(
            "{:?}",
            sim8_zoo(spec, lag, RoutingAlgorithm::UgalL, 1).run(0.15)
        );
        for shards in [2, 4] {
            let par = format!(
                "{:?}",
                sim8_zoo(spec, lag, RoutingAlgorithm::UgalL, shards).run(0.15)
            );
            assert_eq!(par, seq, "{shards}-shard divergence for {spec} lag{lag}");
        }
    }
}

#[test]
fn zoo_shards_match_sequential_under_faults() {
    // Cable attrition plus a *single lag sibling* dying mid-run: the dead
    // masks for individual parallel channels must broadcast identically
    // across shard boundaries.
    for (spec, lag) in [("palmtree", 2), ("random:0x2007", 2)] {
        let run_at = |shards: u32| {
            let arr = tugal_topology::ArrangementSpec::parse(spec).unwrap();
            let topo = Arc::new(
                Dragonfly::with_shape(DragonflyParams::new(2, 7, 1, 8), arr.build().as_ref(), lag)
                    .unwrap(),
            );
            let mut fs = tugal_topology::FaultSet::sample_global_links(&topo, 0.05, 0xBEEF);
            let (_, v) = topo.global_out(tugal_topology::SwitchId(0))[0];
            fs.fail_global_sibling(tugal_topology::SwitchId(0), v, 1);
            let schedule = tugal_netsim::FaultSchedule::at(2500, fs);
            format!(
                "{:?}",
                sim8_zoo(spec, lag, RoutingAlgorithm::UgalL, shards)
                    .with_faults(schedule)
                    .run(0.15)
            )
        };
        let seq = run_at(1);
        for shards in [2, 4] {
            assert_eq!(
                run_at(shards),
                seq,
                "{shards}-shard degraded divergence for {spec} lag{lag}"
            );
        }
    }
}

#[test]
fn watchdog_trips_identically_at_every_shard_count() {
    // A cycle ceiling mid-traffic: the trip cycle, the merged ledger, the
    // canonical occupancy snapshot and the oldest-packet choice must all
    // come out the same.
    let run_at = |shards: u32| {
        let wd = WatchdogConfig {
            conservation_every: 256,
            stall_cycles: 0,
            max_cycles: 1500,
            wall_limit_ms: 0,
            flight_recorder: 0,
        };
        let sim = sim8_watched(RoutingAlgorithm::UgalL, false, shards, Some(wd));
        let mut ws = SimWorkspace::new();
        let job = sim.run_job(0.3, &mut ws, &mut NoopObserver, &mut NoopProfiler);
        (format!("{:?}", job.result), format!("{:?}", job.stall))
    };
    let (seq_r, seq_stall) = run_at(1);
    assert!(
        seq_stall.contains("CycleCeiling"),
        "fixture must actually trip: {seq_stall}"
    );
    for shards in [2, 4, 8] {
        let (r, stall) = run_at(shards);
        assert_eq!(r, seq_r, "{shards}-shard result divergence under a trip");
        assert_eq!(stall, seq_stall, "{shards}-shard stall-report divergence");
    }
}

/// Forkable counting observer: order-insensitive event totals.
#[derive(Debug, Default, PartialEq)]
struct Counter {
    injected: u64,
    delivered: u64,
    dropped: u64,
    routed: u64,
    vlb: u64,
    reroutes: u64,
    local_hops: u64,
    global_hops: u64,
    latency_sum: u64,
    hops_sum: u64,
    end: Option<(u64, u64)>,
}

impl SimObserver for Counter {
    fn fork(&self) -> Option<Self> {
        Some(Counter::default())
    }
    fn absorb(&mut self, s: Self) {
        self.injected += s.injected;
        self.delivered += s.delivered;
        self.dropped += s.dropped;
        self.routed += s.routed;
        self.vlb += s.vlb;
        self.reroutes += s.reroutes;
        self.local_hops += s.local_hops;
        self.global_hops += s.global_hops;
        self.latency_sum += s.latency_sum;
        self.hops_sum += s.hops_sum;
    }
    fn on_inject(&mut self, _now: u64, _src: NodeId, _dst: NodeId) {
        self.injected += 1;
    }
    fn on_drop(&mut self, _now: u64, _src: NodeId, _dst: NodeId) {
        self.dropped += 1;
    }
    fn on_route(
        &mut self,
        _now: u64,
        _src: tugal_topology::SwitchId,
        _dst: tugal_topology::SwitchId,
        used_vlb: bool,
        reroute: bool,
    ) {
        self.routed += 1;
        if used_vlb {
            self.vlb += 1;
        }
        if reroute {
            self.reroutes += 1;
        }
    }
    fn on_link_traverse(&mut self, _now: u64, _chan: u32, global: bool) {
        if global {
            self.global_hops += 1;
        } else {
            self.local_hops += 1;
        }
    }
    fn on_deliver(&mut self, _now: u64, latency: u64, hops: u8) {
        self.delivered += 1;
        self.latency_sum += latency;
        self.hops_sum += hops as u64;
    }
    fn on_run_end(&mut self, now: u64, in_flight: u64) {
        self.end = Some((now, in_flight));
    }
}

#[test]
fn forked_observers_see_the_same_event_totals() {
    let run_counted = |shards: u32| {
        let mut obs = Counter::default();
        let mut ws = SimWorkspace::new();
        let r = sim8(RoutingAlgorithm::Par, true, shards)
            .run_job(0.15, &mut ws, &mut obs, &mut NoopProfiler)
            .result;
        (format!("{r:?}"), obs)
    };
    let (seq_r, seq_obs) = run_counted(1);
    assert!(seq_obs.end.is_some());
    for shards in [2, 4] {
        let (r, obs) = run_counted(shards);
        assert_eq!(r, seq_r, "{shards}-shard result divergence");
        assert_eq!(obs, seq_obs, "{shards}-shard observer-event divergence");
    }
}

/// Order-*sensitive* trace observer with no fork override: requesting
/// shards must silently fall back to one sequential worker, reproducing
/// the exact event interleaving.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    events: Vec<(u64, u32, u32)>,
}

impl SimObserver for Trace {
    fn on_inject(&mut self, now: u64, src: NodeId, dst: NodeId) {
        self.events.push((now, src.0, dst.0));
    }
}

#[test]
fn non_forking_observer_falls_back_to_an_identical_sequential_run() {
    let run_traced = |shards: u32| {
        let mut obs = Trace::default();
        let mut ws = SimWorkspace::new();
        let r = sim8(RoutingAlgorithm::UgalL, false, shards)
            .run_job(0.3, &mut ws, &mut obs, &mut NoopProfiler)
            .result;
        (format!("{r:?}"), obs)
    };
    let (seq_r, seq_obs) = run_traced(1);
    let (par_r, par_obs) = run_traced(4);
    assert!(!seq_obs.events.is_empty());
    assert_eq!(par_r, seq_r);
    assert_eq!(
        par_obs, seq_obs,
        "fallback must replay the exact sequential interleaving"
    );
}

#[test]
fn invalid_shard_counts_panic_with_the_typed_diagnostic() {
    let err = std::panic::catch_unwind(|| {
        // 3 does not divide 8 groups.
        sim8(RoutingAlgorithm::Min, false, 3).run(0.1);
    })
    .expect_err("3 shards over 8 groups must be rejected");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("does not divide"), "{msg}");
}

#[test]
fn conservation_holds_at_every_shard_count() {
    // An armed conservation watchdog that never trips doubles as a global
    // ledger audit across the mailbox accounting (sent/recv/in-flight).
    for shards in [1, 2, 4, 8] {
        let wd = WatchdogConfig {
            conservation_every: 64,
            stall_cycles: 0,
            max_cycles: 0,
            wall_limit_ms: 0,
            flight_recorder: 0,
        };
        let sim = sim8_watched(RoutingAlgorithm::UgalG, false, shards, Some(wd));
        let mut ws = SimWorkspace::new();
        let job = sim.run_job(0.3, &mut ws, &mut NoopObserver, &mut NoopProfiler);
        let (r, stall) = (job.result, job.stall);
        assert!(
            stall.is_none(),
            "conservation tripped at {shards} shards: {stall:?}"
        );
        assert!(r.delivered > 0);
    }
}

#[test]
fn stallkind_is_shared_between_shard_counts() {
    // Regression guard for the merged-report plumbing: the kind survives
    // the merge verbatim.
    let wd = WatchdogConfig {
        conservation_every: 0,
        stall_cycles: 0,
        max_cycles: 500,
        wall_limit_ms: 0,
        flight_recorder: 0,
    };
    let sim = sim8_watched(RoutingAlgorithm::Min, false, 2, Some(wd));
    let mut ws = SimWorkspace::new();
    let stall = sim
        .run_job(0.2, &mut ws, &mut NoopObserver, &mut NoopProfiler)
        .stall;
    assert_eq!(stall.map(|s| s.kind), Some(StallKind::CycleCeiling));
}

//! The self-profiling contract of the engine: a live [`EngineProf`] never
//! changes what the simulator computes (bit-for-bit against the committed
//! goldens and against sequential references at every shard count,
//! pristine, degraded and watchdog-tripped), its phase marks tile the
//! shard wall-clock, its boundary counters balance exactly against the
//! mailbox traffic, and the flight recorder captures the cycles leading
//! up to a watchdog trip.

include!("common/cases.rs");

use tugal_netsim::{
    EngineProf, JobReport, NoopObserver, NoopProfiler, Phase, StallKind, WatchdogConfig,
};

/// An 8-group dragonfly (as in `shard_parity.rs`) so 2-, 4- and 8-way
/// splits all exist.
fn sim8p(
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

fn run_with_prof(sim: &Simulator, rate: f64) -> (String, EngineProf) {
    let mut prof = EngineProf::new();
    let mut ws = SimWorkspace::new();
    let JobReport { result, stall, .. } = sim.run_job(rate, &mut ws, &mut NoopObserver, &mut prof);
    (format!("{result:?}|{stall:?}"), prof)
}

fn run_without_prof(sim: &Simulator, rate: f64) -> String {
    let mut ws = SimWorkspace::new();
    let JobReport { result, stall, .. } =
        sim.run_job(rate, &mut ws, &mut NoopObserver, &mut NoopProfiler);
    format!("{result:?}|{stall:?}")
}

#[test]
fn profiled_runs_reproduce_every_pristine_golden_case() {
    // The committed goldens pin the unprofiled engine; a live profiler
    // must reproduce them bit-for-bit at both valid shard counts.
    for shards in [1, 5] {
        for (routing, adversarial, rate, expected) in CASES {
            let sim = simulator_sharded(routing, adversarial, 7, shards);
            let mut prof = EngineProf::new();
            let mut ws = SimWorkspace::new();
            let r = sim
                .run_job(rate, &mut ws, &mut NoopObserver, &mut prof)
                .result;
            assert_eq!(
                format!("{r:?}"),
                expected,
                "profiled {shards}-shard mismatch for \
                 ({routing:?}, adversarial={adversarial}, rate={rate})"
            );
        }
    }
}

#[test]
fn profiled_runs_match_unprofiled_at_every_shard_count() {
    for shards in [1, 2, 4, 8] {
        let plain = run_without_prof(&sim8p(RoutingAlgorithm::UgalL, false, shards, None), 0.3);
        let (profiled, _) =
            run_with_prof(&sim8p(RoutingAlgorithm::UgalL, false, shards, None), 0.3);
        assert_eq!(profiled, plain, "{shards}-shard profiled divergence");
    }
}

#[test]
fn profiled_runs_match_unprofiled_under_faults() {
    // A mid-run switch death plus global-link attrition, so profiled
    // drains and reroutes cross shard boundaries.
    let schedule = || {
        let topo = Arc::new(Dragonfly::new(DragonflyParams::new(2, 7, 1, 8)).unwrap());
        let mut fs = tugal_topology::FaultSet::sample_global_links(&topo, 0.05, 0xBEEF);
        fs.fail_switch(tugal_topology::SwitchId(5));
        tugal_netsim::FaultSchedule::at(2500, fs)
    };
    for shards in [1, 4] {
        let plain = {
            let sim = sim8p(RoutingAlgorithm::UgalL, false, shards, None).with_faults(schedule());
            run_without_prof(&sim, 0.3)
        };
        let profiled = {
            let sim = sim8p(RoutingAlgorithm::UgalL, false, shards, None).with_faults(schedule());
            run_with_prof(&sim, 0.3).0
        };
        assert_eq!(
            profiled, plain,
            "{shards}-shard degraded profiled divergence"
        );
    }
}

#[test]
fn profiled_runs_match_unprofiled_on_watchdog_trips() {
    // The merged StallReport — flight-recorder frames included — must come
    // out identical with and without a live profiler.
    let wd = WatchdogConfig {
        conservation_every: 256,
        stall_cycles: 0,
        max_cycles: 1500,
        wall_limit_ms: 0,
        flight_recorder: 16,
    };
    for shards in [1, 4] {
        let plain = run_without_prof(
            &sim8p(RoutingAlgorithm::UgalL, false, shards, Some(wd)),
            0.3,
        );
        let (profiled, _) = run_with_prof(
            &sim8p(RoutingAlgorithm::UgalL, false, shards, Some(wd)),
            0.3,
        );
        assert!(plain.contains("CycleCeiling"), "fixture must trip: {plain}");
        assert_eq!(
            profiled, plain,
            "{shards}-shard tripped profiled divergence"
        );
    }
}

#[test]
fn phase_marks_tile_the_shard_wallclock() {
    for shards in [1, 4] {
        let (_, prof) = run_with_prof(&sim8p(RoutingAlgorithm::UgalL, false, shards, None), 0.3);
        let report = prof.report();
        assert_eq!(report.shards.len(), shards as usize);
        for s in &report.shards {
            assert!(s.cycles > 0, "shard {} profiled no cycles", s.shard);
            assert!(
                s.attributed_ns() <= s.wall_ns,
                "shard {} attributed {} ns of {} ns wall",
                s.shard,
                s.attributed_ns(),
                s.wall_ns
            );
        }
        // The marks bracket everything between shard_start and shard_end,
        // so attribution is near-total by construction.
        let frac = report.attributed_fraction();
        assert!(
            frac > 0.90,
            "{shards}-shard run attributed only {:.1}% of wall-clock",
            100.0 * frac
        );
        // Sequential runs never touch the partitioned-only phases.
        if shards == 1 {
            for p in [Phase::Drain, Phase::Flush, Phase::Publish, Phase::Barrier] {
                assert_eq!(report.phase_total(p), 0, "sequential run marked {p:?}");
            }
        } else {
            assert!(report.phase_total(Phase::Barrier) > 0);
        }
    }
}

#[test]
fn boundary_counters_balance_exactly() {
    // Every boundary flit/credit sent must be received (or still sitting
    // in an undrained mailbox when the run stops), shard counts summed.
    for shards in [2, 4, 8] {
        let (_, prof) = run_with_prof(&sim8p(RoutingAlgorithm::UgalG, false, shards, None), 0.3);
        let report = prof.report();
        let sent: u64 = report.shards.iter().map(|s| s.flits_sent).sum();
        let recv: u64 = report.shards.iter().map(|s| s.flits_recv).sum();
        assert!(sent > 0, "{shards}-shard run crossed no boundaries");
        assert_eq!(
            sent,
            recv + report.undrained_flits,
            "{shards}-shard flit imbalance"
        );
        let csent: u64 = report.shards.iter().map(|s| s.credits_sent).sum();
        let crecv: u64 = report.shards.iter().map(|s| s.credits_recv).sum();
        assert_eq!(
            csent,
            crecv + report.undrained_credits,
            "{shards}-shard credit imbalance"
        );
        assert!(report.shards.iter().map(|s| s.batches_flushed).sum::<u64>() > 0);
    }
    // A sequential run has no boundaries at all.
    let (_, prof) = run_with_prof(&sim8p(RoutingAlgorithm::UgalG, false, 1, None), 0.3);
    let report = prof.report();
    let s = &report.shards[0];
    assert_eq!(
        (
            s.flits_sent,
            s.flits_recv,
            s.credits_sent,
            s.credits_recv,
            s.batches_flushed
        ),
        (0, 0, 0, 0, 0)
    );
    assert_eq!(report.undrained_flits, 0);
}

#[test]
fn flight_recorder_captures_the_cycles_before_a_trip() {
    let wd = WatchdogConfig {
        conservation_every: 0,
        stall_cycles: 0,
        max_cycles: 1000,
        wall_limit_ms: 0,
        flight_recorder: 32,
    };
    for shards in [1, 4] {
        let sim = sim8p(RoutingAlgorithm::UgalL, false, shards, Some(wd));
        let mut ws = SimWorkspace::new();
        let stall = sim
            .run_job(0.3, &mut ws, &mut NoopObserver, &mut NoopProfiler)
            .stall;
        let stall = stall.expect("cycle ceiling must trip");
        assert_eq!(stall.kind, StallKind::CycleCeiling);
        assert!(!stall.recent.is_empty());
        assert!(stall.recent.len() <= 32 * shards as usize);
        // Chronological, ending at (or just before) the trip cycle.
        for w in stall.recent.windows(2) {
            assert!((w[0].cycle, w[0].shard) <= (w[1].cycle, w[1].shard));
        }
        let last = stall.recent.last().unwrap();
        assert!(last.cycle <= stall.cycle);
        assert!(stall.cycle - last.cycle <= 1, "recorder stopped early");
        // Each shard contributed its own ring.
        let shards_seen: std::collections::BTreeSet<u32> =
            stall.recent.iter().map(|f| f.shard).collect();
        assert_eq!(shards_seen.len(), shards as usize);
        // Frames carry the global ledger view: totals are flat across
        // shards within one cycle (globals are summed identically).
        let c0 = stall.recent[0].cycle;
        let first: Vec<_> = stall.recent.iter().filter(|f| f.cycle == c0).collect();
        for f in &first {
            assert_eq!(f.injected, first[0].injected);
            assert_eq!(f.delivered, first[0].delivered);
        }
    }
}

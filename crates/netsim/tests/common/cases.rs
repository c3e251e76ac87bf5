// Shared golden-fixture scaffolding, spliced into the golden test crates
// with `include!` (subdirectories of `tests/` are not compiled as test
// crates, so this file exists only through its includers — which also
// means no `//!` inner doc comments here).
//
// The fixtures pin exact `SimResult` values captured from the
// pre-refactor engine on `dfly(2,4,2,5)`, seed 7, `Config::quick()`.
// Comparison goes through `Debug` formatting, which for `f64` is
// round-trip exact, so a string match is a bit-for-bit match.

use std::sync::Arc;
use tugal_netsim::{Config, RoutingAlgorithm, SimResult, SimWorkspace, Simulator};
use tugal_routing::TableProvider;
use tugal_topology::{Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

fn golden_topo() -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(2, 4, 2, 5)).unwrap())
}

// Not every includer uses every helper below (golden.rs runs pristine
// only; shard_parity.rs re-runs everything at several shard counts).
#[allow(dead_code)]
fn simulator_sharded(
    routing: RoutingAlgorithm,
    adversarial: bool,
    seed: u64,
    shards: u32,
) -> Simulator {
    let topo = golden_topo();
    let provider = Arc::new(TableProvider::all_paths(topo.clone()));
    let pattern: Arc<dyn TrafficPattern> = if adversarial {
        Arc::new(Shift::new(&topo, 1, 0))
    } else {
        Arc::new(Uniform::new(&topo))
    };
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = seed;
    cfg.shards = shards;
    Simulator::new(topo, provider, pattern, routing, cfg)
}

fn simulator(routing: RoutingAlgorithm, adversarial: bool, seed: u64) -> Simulator {
    simulator_sharded(routing, adversarial, seed, 1)
}

#[allow(dead_code)]
fn run(routing: RoutingAlgorithm, adversarial: bool, seed: u64, rate: f64) -> SimResult {
    simulator(routing, adversarial, seed).run(rate)
}

/// One unobserved, unprofiled job inside the caller's (reused) workspace.
#[allow(dead_code)]
fn run_in(sim: &Simulator, rate: f64, ws: &mut SimWorkspace) -> SimResult {
    sim.run_job(
        rate,
        ws,
        &mut tugal_netsim::NoopObserver,
        &mut tugal_netsim::NoopProfiler,
    )
    .result
}

// Degraded-run fixtures, shared by golden_faults.rs and shard_parity.rs.
// Full paths instead of `use` lines so includers that never touch faults
// pick up no unused imports.

/// Seeded 5% global-cable failure applied at cycle 0.
#[allow(dead_code)]
fn links5() -> tugal_netsim::FaultSchedule {
    tugal_netsim::FaultSchedule::immediate(tugal_topology::FaultSet::sample_global_links(
        &golden_topo(),
        0.05,
        0xBEEF,
    ))
}

/// Switch 3 dies at cycle 2500 (inside the measurement window),
/// exercising the buffered-flit drain and the en-route reroute path.
#[allow(dead_code)]
fn switch3() -> tugal_netsim::FaultSchedule {
    let mut fs = tugal_topology::FaultSet::empty();
    fs.fail_switch(tugal_topology::SwitchId(3));
    tugal_netsim::FaultSchedule::at(2500, fs)
}

#[allow(dead_code)]
fn schedule_of(name: &str) -> tugal_netsim::FaultSchedule {
    match name {
        "links5" => links5(),
        "switch3" => switch3(),
        other => panic!("unknown scenario {other}"),
    }
}

/// (routing, adversarial pattern, rate, expected result) — uniform at a
/// moderate load and shift(1,0) at a low one, seed 7, dfly(2,4,2,5).
const CASES: [(RoutingAlgorithm, bool, f64, &str); 10] = [
    (
        RoutingAlgorithm::Min,
        false,
        0.3,
        "SimResult { injection_rate: 0.3, avg_latency: 28.662590768717134, throughput: 0.299525, avg_hops: 2.2080377264001334, delivered: 23962, injected: 23958, saturated: false, deadlock_suspected: false, vlb_fraction: 0.0, latency_p50: 22.627416997969522, latency_p99: 45.254833995939045, max_channel_util: 0.2941764558860285, mean_global_util: 0.24577605598600347, mean_local_util: 0.2776014329750896 }",
    ),
    (
        RoutingAlgorithm::Min,
        true,
        0.15,
        "SimResult { injection_rate: 0.15, avg_latency: 32.75358045492839, throughput: 0.148375, avg_hops: 2.5016006739679866, delivered: 11870, injected: 11890, saturated: false, deadlock_suspected: false, vlb_fraction: 0.0, latency_p50: 45.254833995939045, latency_p99: 45.254833995939045, max_channel_util: 0.60959760059985, mean_global_util: 0.14910022494376401, mean_local_util: 0.14819211863700746 }",
    ),
    (
        RoutingAlgorithm::Vlb,
        false,
        0.3,
        "SimResult { injection_rate: 0.3, avg_latency: 65.00464066223505, throughput: 0.2989875, avg_hops: 4.995108491157657, delivered: 23919, injected: 23910, saturated: false, deadlock_suspected: false, vlb_fraction: 0.9742130498228059, latency_p50: 90.50966799187809, latency_p99: 90.50966799187809, max_channel_util: 0.6378405398650338, mean_global_util: 0.5804236440889776, mean_local_util: 0.6043822377738899 }",
    ),
    (
        RoutingAlgorithm::Vlb,
        true,
        0.15,
        "SimResult { injection_rate: 0.15, avg_latency: 64.22814391392065, throughput: 0.1487, avg_hops: 5.10869199731002, delivered: 11896, injected: 11890, saturated: false, deadlock_suspected: false, vlb_fraction: 1.0, latency_p50: 90.50966799187809, latency_p99: 90.50966799187809, max_channel_util: 0.42914271432141965, mean_global_util: 0.296932016995751, mean_local_util: 0.30784803799050237 }",
    ),
    (
        RoutingAlgorithm::UgalL,
        false,
        0.3,
        "SimResult { injection_rate: 0.3, avg_latency: 30.341459342127234, throughput: 0.29945, avg_hops: 2.3411253965603604, delivered: 23956, injected: 23912, saturated: false, deadlock_suspected: false, vlb_fraction: 0.0693631957212101, latency_p50: 22.627416997969522, latency_p99: 90.50966799187809, max_channel_util: 0.30192451887028243, mean_global_util: 0.265602349412647, mean_local_util: 0.2908564525535284 }",
    ),
    (
        RoutingAlgorithm::UgalL,
        true,
        0.15,
        "SimResult { injection_rate: 0.15, avg_latency: 41.13402835696414, throughput: 0.149875, avg_hops: 3.2184320266889075, delivered: 11990, injected: 11966, saturated: false, deadlock_suspected: false, vlb_fraction: 0.3064603578429328, latency_p50: 45.254833995939045, latency_p99: 90.50966799187809, max_channel_util: 0.45188702824293925, mean_global_util: 0.1950137465633591, mean_local_util: 0.1906773306673331 }",
    ),
    (
        RoutingAlgorithm::UgalG,
        false,
        0.3,
        "SimResult { injection_rate: 0.3, avg_latency: 32.047443882456214, throughput: 0.2990375, avg_hops: 2.475609246331982, delivered: 23923, injected: 23897, saturated: false, deadlock_suspected: false, vlb_fraction: 0.12618480938661322, latency_p50: 22.627416997969522, latency_p99: 90.50966799187809, max_channel_util: 0.3174206448387903, mean_global_util: 0.2835978505373657, mean_local_util: 0.306148462884279 }",
    ),
    (
        RoutingAlgorithm::UgalG,
        true,
        0.15,
        "SimResult { injection_rate: 0.15, avg_latency: 41.5672587774164, throughput: 0.1498875, avg_hops: 3.24810274372446, delivered: 11991, injected: 11966, saturated: false, deadlock_suspected: false, vlb_fraction: 0.3269511533808868, latency_p50: 45.254833995939045, latency_p99: 90.50966799187809, max_channel_util: 0.4121469632591852, mean_global_util: 0.19804423894026488, mean_local_util: 0.19114388069649252 }",
    ),
    (
        RoutingAlgorithm::Par,
        false,
        0.3,
        "SimResult { injection_rate: 0.3, avg_latency: 31.516635859519408, throughput: 0.29755, avg_hops: 2.437909595026046, delivered: 23804, injected: 23833, saturated: false, deadlock_suspected: false, vlb_fraction: 0.10010033025375194, latency_p50: 22.627416997969522, latency_p99: 90.50966799187809, max_channel_util: 0.32066983254186454, mean_global_util: 0.2745626093476631, mean_local_util: 0.3012330250770639 }",
    ),
    (
        RoutingAlgorithm::Par,
        true,
        0.15,
        "SimResult { injection_rate: 0.15, avg_latency: 45.5854533322212, throughput: 0.1498625, avg_hops: 3.598465259821503, delivered: 11989, injected: 11993, saturated: false, deadlock_suspected: false, vlb_fraction: 0.43445787176905004, latency_p50: 45.254833995939045, latency_p99: 90.50966799187809, max_channel_util: 0.3549112721819545, mean_global_util: 0.2125968507873032, mean_local_util: 0.21445888527868043 }",
    ),
];

/// The golden topology re-wired as a zoo shape: same `dfly(2,4,2,5)`
/// parameters under a non-default arrangement and/or `global_lag`.
#[allow(dead_code)]
fn zoo_topo(spec: &str, lag: u32) -> Arc<Dragonfly> {
    let arr = tugal_topology::ArrangementSpec::parse(spec)
        .unwrap_or_else(|| panic!("unknown arrangement {spec:?}"));
    Arc::new(
        Dragonfly::with_shape(DragonflyParams::new(2, 4, 2, 5), arr.build().as_ref(), lag)
            .unwrap(),
    )
}

#[allow(dead_code)]
fn simulator_zoo(
    spec: &str,
    lag: u32,
    routing: RoutingAlgorithm,
    adversarial: bool,
    seed: u64,
    shards: u32,
) -> Simulator {
    let topo = zoo_topo(spec, lag);
    let provider = Arc::new(TableProvider::all_paths(topo.clone()));
    let pattern: Arc<dyn TrafficPattern> = if adversarial {
        Arc::new(Shift::new(&topo, 1, 0))
    } else {
        Arc::new(Uniform::new(&topo))
    };
    let mut cfg = Config::quick().for_routing(routing);
    cfg.seed = seed;
    cfg.shards = shards;
    Simulator::new(topo, provider, pattern, routing, cfg)
}

/// (arrangement, lag, routing, adversarial, rate, expected) — topology-zoo
/// fixtures on `dfly(2,4,2,5)`, seed 7: palmtree at lag 1, and doubled
/// global cables under the absolute and seeded-random arrangements.
#[allow(dead_code)]
const ZOO_CASES: [(&str, u32, RoutingAlgorithm, bool, f64, &str); 4] = [
    (
        "palmtree",
        1,
        RoutingAlgorithm::UgalL,
        false,
        0.3,
        "SimResult { injection_rate: 0.3, avg_latency: 30.432687489560713, throughput: 0.29935, avg_hops: 2.3486303657925505, delivered: 23948, injected: 23919, saturated: false, deadlock_suspected: false, vlb_fraction: 0.07266804485372423, latency_p50: 22.627416997969522, latency_p99: 90.50966799187809, max_channel_util: 0.3026743314171457, mean_global_util: 0.2667333166708322, mean_local_util: 0.29141881196367575 }",
    ),
    (
        "palmtree",
        1,
        RoutingAlgorithm::UgalL,
        true,
        0.15,
        "SimResult { injection_rate: 0.15, avg_latency: 42.88713845127948, throughput: 0.1499625, avg_hops: 3.368008668833875, delivered: 11997, injected: 11962, saturated: false, deadlock_suspected: false, vlb_fraction: 0.3549288723874682, latency_p50: 45.254833995939045, latency_p99: 90.50966799187809, max_channel_util: 0.3911522119470133, mean_global_util: 0.20215571107223199, mean_local_util: 0.19983337498958592 }",
    ),
    (
        "absolute",
        2,
        RoutingAlgorithm::UgalL,
        false,
        0.3,
        "SimResult { injection_rate: 0.3, avg_latency: 30.341459342127234, throughput: 0.29945, avg_hops: 2.3411253965603604, delivered: 23956, injected: 23912, saturated: false, deadlock_suspected: false, vlb_fraction: 0.0693631957212101, latency_p50: 22.627416997969522, latency_p99: 90.50966799187809, max_channel_util: 0.30192451887028243, mean_global_util: 0.1328011747063235, mean_local_util: 0.2908564525535284 }",
    ),
    (
        "random:0x2007",
        2,
        RoutingAlgorithm::UgalL,
        true,
        0.15,
        "SimResult { injection_rate: 0.15, avg_latency: 42.95953950112622, throughput: 0.1498375, avg_hops: 3.3779928255610243, delivered: 11987, injected: 11970, saturated: false, deadlock_suspected: false, vlb_fraction: 0.3539468746090655, latency_p50: 45.254833995939045, latency_p99: 90.50966799187809, max_channel_util: 0.45388652836790805, mean_global_util: 0.10106535866033492, mean_local_util: 0.20108722819295174 }",
    ),
];

/// (scenario, adversarial, rate, expected) — UGAL-L, seed 7, degraded by
/// the fixture schedules above.
#[allow(dead_code)]
const FAULT_CASES: [(&str, bool, f64, &str); 4] = [
    (
        "links5",
        false,
        0.3,
        "SimResult { injection_rate: 0.3, avg_latency: 31.35961474316211, throughput: 0.2998, avg_hops: 2.4299533022014677, delivered: 23984, injected: 23989, saturated: false, deadlock_suspected: false, vlb_fraction: 0.08224502162693023, latency_p50: 22.627416997969522, latency_p99: 90.50966799187809, max_channel_util: 0.37690577355661087, mean_global_util: 0.2703449137715571, mean_local_util: 0.30498208781138053 }",
    ),
    (
        "links5",
        true,
        0.15,
        "SimResult { injection_rate: 0.15, avg_latency: 41.61608182271745, throughput: 0.150325, avg_hops: 3.2660069848661233, delivered: 12026, injected: 12020, saturated: false, deadlock_suspected: false, vlb_fraction: 0.32140473807140474, latency_p50: 45.254833995939045, latency_p99: 90.50966799187809, max_channel_util: 0.48187953011747064, mean_global_util: 0.19458885278680332, mean_local_util: 0.19600516537532278 }",
    ),
    (
        "switch3",
        false,
        0.3,
        "SimResult { injection_rate: 0.3, avg_latency: 31.006408532759703, throughput: 0.278925, avg_hops: 2.3966568073854977, delivered: 22314, injected: 24067, saturated: false, deadlock_suspected: false, vlb_fraction: 0.0768, latency_p50: 22.627416997969522, latency_p99: 90.50966799187809, max_channel_util: 0.3444138965258685, mean_global_util: 0.25946638340414896, mean_local_util: 0.28453303340831465 }",
    ),
    (
        "switch3",
        true,
        0.15,
        "SimResult { injection_rate: 0.15, avg_latency: 41.811411031867834, throughput: 0.1384625, avg_hops: 3.275886973007132, delivered: 11077, injected: 11973, saturated: false, deadlock_suspected: false, vlb_fraction: 0.3211219977455996, latency_p50: 45.254833995939045, latency_p99: 90.50966799187809, max_channel_util: 0.4588852786803299, mean_global_util: 0.1887403149212697, mean_local_util: 0.1852620178288761 }",
    ),
];

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--tiny] [--inject-check-failure]`
//!
//! Prints informational lines, then one JSON line with `correct`,
//! `attempted`, `failed` and the metrics; a failed job or check shows as
//! `"correct": false`.  Exits 2 on a usage error.

use perfbench::{bench_threads, run, Opts, Workload};

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--tiny] [--inject-check-failure]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: Workload::Alg1Ref,
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject_check_failure: false,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tiny" => opts.tiny = true,
            "--inject-check-failure" => opts.inject_check_failure = true,
            _ => usage(&format!("unknown argument {arg}")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    opts
}

fn main() {
    let opts = parse_args();
    // Hermetic inputs: the workloads build every configuration explicitly,
    // and no environment knob of the harnesses may reach the engine.
    for key in [
        "TUGAL_SHARDS",
        "TUGAL_CKPT",
        "TUGAL_CKPT_EVERY",
        "TUGAL_TRACE",
        "TUGAL_JOURNAL",
    ] {
        std::env::remove_var(key);
    }
    std::env::set_var("RAYON_NUM_THREADS", bench_threads().to_string());

    let report = run(&opts);
    for line in &report.info {
        println!("{line}");
    }
    println!("{}", report.json());
}

//! `resemble-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds`, prints every metric by name
//! with its unit, median, tail percentile and sample count, and ends with
//! one JSON result line. `--write-digests` prints the `digests.txt` lines
//! of a simulation workload at the stored seeds instead.

use resemble_perfbench::report::{allowed_cpus, host_facts, pin_to_cpu, Outcome};
use resemble_perfbench::{serve, sim};
use std::process::ExitCode;

const USAGE: &str =
    "usage: resemble-perfbench --workload <sim-mlp|sim-tabular|sim-engine|serve-frozen> \
--seed <n> --seconds <s> --trace <0|1> [--write-digests]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        write_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-digests" {
            args.write_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The harness's sweep progress line is console chrome, and a journal
    // path in the environment would write outside the working directory.
    std::env::set_var("RESEMBLE_PROGRESS", "0");
    std::env::remove_var("RESEMBLE_RUN_JOURNAL");
    // `nproc` is read before the pin narrows the affinity mask to one CPU.
    let host = host_facts();
    let cpus = allowed_cpus();
    let pinned = cpus.clone().and_then(|c| pin_to_cpu(c[0]).map(|()| c[0]));
    let host = match (&cpus, &pinned) {
        (Ok(c), Ok(cpu)) => format!("{host} cpus={c:?} pinned_to_cpu={cpu}"),
        _ => format!("{host} pinned_to_cpu=none"),
    };
    let cpus = cpus.unwrap_or_default();
    let mut out: Outcome = if let Some(w) = sim::sim_workload(&args.workload) {
        if args.write_digests {
            for seed in sim::DIGEST_SEEDS {
                let rs = sim::untraced_pass(&w, &w.params(seed)).expect("digest pass runs");
                for line in sim::digest_lines(&rs) {
                    println!("{} {seed} {line}", w.name);
                }
            }
            return ExitCode::SUCCESS;
        }
        println!("host: {host}");
        sim::run(&w, args.seed, args.seconds, args.trace, &cpus)
    } else if args.workload == serve::WORKLOAD {
        if args.write_digests {
            for seed in sim::DIGEST_SEEDS {
                for line in serve::digest_lines(seed) {
                    println!("{} {seed} {line}", serve::WORKLOAD);
                }
            }
            return ExitCode::SUCCESS;
        }
        println!("host: {host}");
        serve::run(args.seed, args.seconds, args.trace)
    } else {
        eprintln!("unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if let Err(e) = pinned {
        out.problem(format!("run invalid: could not pin to one CPU ({e})"));
    }
    println!(
        "{} metrics:",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for m in &out.metrics {
        println!("  {}", m.describe());
    }
    if !out.extra.is_empty() {
        println!("also measured (no bound):");
        for m in &out.extra {
            println!("  {}", m.describe());
        }
    }
    println!(
        "attempted {} failed {} fail_frac {:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let line = out.result_line();
    println!("{line}");
    ExitCode::SUCCESS
}

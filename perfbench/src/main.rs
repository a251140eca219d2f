//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <guest_plain|guest_metal|campaign_fault|campaign_fuzz>
//!           [--seed N] [--seconds S] [--trace 0|1] [--ops N]
//! perfbench --record
//! ```
//!
//! Every line but the last is for people; the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is 0 only when every output check passed. A traced run also writes
//! its spans to `.bench_spans/<workload>-seed<N>.json`.

use perfbench::campaign::FaultBench;
use perfbench::expect::DEFAULT_SEED;
use perfbench::{guest, span::Tracer, Counters, Metric, Options, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <guest_plain|guest_metal|campaign_fault|campaign_fuzz> \
         [--seed N] [--seconds S] [--trace 0|1] [--ops N]\n       perfbench --record"
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(text) = args.next() else {
        eprintln!("perfbench: {flag} needs a value");
        usage();
    };
    text.parse().unwrap_or_else(|_| {
        eprintln!("perfbench: bad value for {flag}: {text}");
        usage();
    })
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::GuestPlain,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        max_ops: None,
        wrong_expectation: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name: String = value(&mut args, "--workload");
                workload = Some(Workload::parse(&name).unwrap_or_else(|| {
                    eprintln!("perfbench: unknown workload {name}");
                    usage();
                }));
            }
            "--seed" => opts.seed = value(&mut args, "--seed"),
            "--seconds" => opts.seconds = value(&mut args, "--seconds"),
            "--trace" => opts.trace = value::<u8>(&mut args, "--trace") != 0,
            "--ops" => opts.max_ops = Some(value(&mut args, "--ops")),
            "--record" => {
                print!("{}", record());
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        eprintln!("perfbench: --seconds must be a non-negative number");
        usage();
    }
    opts.workload = workload;

    let outcome = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} {} run: {} operations, {} failed",
        workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for e in &outcome.errors {
        println!("  check failed: {e}");
    }
    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(json) = &outcome.spans_json {
        let path = format!(".bench_spans/{}-seed{}.json", workload.name(), opts.seed);
        match std::fs::create_dir_all(".bench_spans").and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => println!("  spans not written ({path}: {e})"),
        }
    }
    println!("{}", result_json(&outcome.metrics, &outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(metrics: &[Metric], outcome: &perfbench::Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Prints the default-seed expectation tables of `expect.rs`.
fn record() -> String {
    let mut out = String::new();
    let mut counters = Counters::default();
    let mut tracer = Tracer::new(false);
    let plain = guest::plain_unchecked(DEFAULT_SEED, &mut tracer, &mut counters);
    let metal = guest::metal_unchecked(DEFAULT_SEED, &mut tracer, &mut counters);
    for (table, refs) in [("GUEST_PLAIN", plain), ("GUEST_METAL", metal)] {
        let _ = writeln!(out, "pub const {table}: &[(&str, RunResult)] = &[");
        for (name, r) in refs {
            let _ = writeln!(
                out,
                "    (\"{name}\", RunResult {{ exit: {:#x}, instret: {}, cycles: {}, regs: {:#018x} }}),",
                r.exit, r.instret, r.cycles, r.regs
            );
        }
        let _ = writeln!(out, "];\n");
    }
    let _ = writeln!(out, "pub const CAMPAIGN_FAULT: &[Histogram] = &[");
    for h in FaultBench::record(DEFAULT_SEED) {
        let _ = writeln!(out, "    {h:?},");
    }
    let _ = writeln!(out, "];");
    out
}

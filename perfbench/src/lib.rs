//! The Metal repository benchmark.
//!
//! One command runs one of four workloads in a single-threaded closed
//! loop (the next operation starts when the previous one ends), checks
//! every operation's output, and prints its metrics. See `README.md`
//! for the workloads, the metrics and which layer metric should move
//! which end-to-end metric.

pub mod campaign;
pub mod expect;
pub mod guest;
pub mod span;

use campaign::{FaultBench, FuzzBench};
use guest::GuestBench;
use metal_core::Metal;
use metal_pipeline::NoHooks;
use span::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Baseline machine, four seeded kernels on both engines.
    GuestPlain,
    /// The paper's catalog (E1, E3, E4, E9, E5) on Metal engines.
    GuestMetal,
    /// `metal_faultsim::run` campaigns.
    CampaignFault,
    /// `metal_fuzz::run_campaign` campaigns.
    CampaignFuzz,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::GuestPlain,
        Workload::GuestMetal,
        Workload::CampaignFault,
        Workload::CampaignFuzz,
    ];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GuestPlain => "guest_plain",
            Workload::GuestMetal => "guest_metal",
            Workload::CampaignFault => "campaign_fault",
            Workload::CampaignFuzz => "campaign_fuzz",
        }
    }
}

/// How to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured duration (split one third untraced, two thirds traced
    /// when `trace` is set).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Stop each phase after this many operations (fast mode, tests).
    pub max_ops: Option<u64>,
    /// Deliberately wrong expectations (checks the output check).
    pub wrong_expectation: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Largest share of a root span's time (an operation, or a campaign
/// operation's replay) that may lie outside every layer span. The
/// benchmark's own bookkeeping inside a root (output checks, counters,
/// span records) takes well under 0.1% of it, so a call left without
/// its span shows as its whole cost.
pub const UNATTRIBUTED_MAX: f64 = 0.02;

/// How far the replayed calls may exceed the campaign time they mirror,
/// as a share of it. Over a 20 s traced run they read 0.90 of the fuzz
/// campaigns' time and 0.37 of the fault campaigns'; a span around a
/// call the campaign does not make adds its cost to them.
pub const REPLAY_EXCESS_MAX: f64 = 0.25;

/// Traced operations needed before the replay is compared with its
/// campaigns. The two run at different moments, and on a shared host
/// one operation's time can swing by half from the next one's: over
/// three or four operations the replayed calls read from 0.94 to 1.24
/// of the campaign time.
pub const REPLAY_CHECK_MIN_OPS: u64 = 32;

/// Sums of per-operation counters and times, by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `value` to counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Counter `name` (0 if never added).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The simulated counts: every counter except host times.
    #[must_use]
    pub fn simulated(&self) -> BTreeMap<&'static str, f64> {
        self.0
            .iter()
            .filter(|(k, _)| !k.starts_with("time."))
            .map(|(k, v)| (*k, *v))
            .collect()
    }
}

/// One operation's outcome.
#[derive(Clone, Debug, Default)]
pub struct OpResult {
    /// Host time of the timed region.
    pub timed: Duration,
    /// Cases completed.
    pub cases: u64,
    /// First failed output check.
    pub error: Option<String>,
}

impl OpResult {
    /// Records a check's verdict (the first failure is kept).
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let (Err(e), None) = (verdict, &self.error) {
            self.error = Some(e);
        }
    }
}

/// A metric as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Failure messages (first few operations, audits, trace checks).
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Extra end-to-end figures printed for the workloads they apply to.
    pub notes: Vec<Metric>,
    /// Simulated counts of the measured operations (untraced run: every
    /// operation; traced run: the traced phase).
    pub simulated: BTreeMap<&'static str, f64>,
    /// Operations behind `simulated`.
    pub simulated_ops: u64,
    /// Spans recorded (traced run).
    pub spans_json: Option<String>,
}

impl Outcome {
    /// True when every operation, audit and trace check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// SplitMix64 of a seed and a stream index: independent seeds for the
/// workloads' generated inputs.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum Bench {
    Plain(Box<GuestBench<NoHooks>>),
    Metal(Box<GuestBench<Metal>>),
    Fault(FaultBench),
    Fuzz(FuzzBench),
}

impl Bench {
    fn setup(
        opts: &Options,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> Result<Bench, String> {
        Ok(match opts.workload {
            Workload::GuestPlain => {
                Bench::Plain(Box::new(guest::plain(opts.seed, tracer, counters)?))
            }
            Workload::GuestMetal => {
                Bench::Metal(Box::new(guest::metal(opts.seed, tracer, counters)?))
            }
            Workload::CampaignFault => Bench::Fault(FaultBench::new(opts.seed, tracer)),
            Workload::CampaignFuzz => {
                let bench = FuzzBench::new(opts.seed, tracer);
                counters.add("fuzz.screened", bench.screened() as f64);
                Bench::Fuzz(bench)
            }
        })
    }

    fn op(
        &mut self,
        index: u64,
        tracer: &mut Tracer,
        counters: &mut Counters,
        wrong: bool,
    ) -> OpResult {
        match self {
            Bench::Plain(b) => b.op(tracer, counters, wrong),
            Bench::Metal(b) => b.op(tracer, counters, wrong),
            Bench::Fault(b) => b.op(index, tracer, counters, wrong),
            Bench::Fuzz(b) => b.op(index, tracer, counters, wrong),
        }
    }

    /// Whether the traced run replays operations (the campaigns do).
    fn replays(&self) -> bool {
        matches!(self, Bench::Fault(_) | Bench::Fuzz(_))
    }

    /// Replays the last operation's campaign cases (traced run only).
    fn replay(&mut self, tracer: &mut Tracer, counters: &mut Counters) -> Result<(), String> {
        match self {
            Bench::Plain(_) | Bench::Metal(_) => Ok(()),
            Bench::Fault(b) => b.replay(tracer, counters),
            Bench::Fuzz(b) => b.replay(tracer, counters),
        }
    }

    fn audit(&self) -> Result<(), String> {
        match self {
            Bench::Fault(b) => b.audit(),
            _ => Ok(()),
        }
    }
}

/// Operations of one measuring phase.
#[derive(Default)]
struct Phase {
    ops: u64,
    failed: u64,
    cases: u64,
    timed: Vec<f64>,
    wall: Vec<f64>,
    counters: Counters,
}

/// Messages kept per run.
const MAX_ERRORS: usize = 5;

fn measure(
    bench: &mut Bench,
    opts: &Options,
    tracer: &mut Tracer,
    seconds: f64,
    errors: &mut Vec<String>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        let done = opts.max_ops.is_some_and(|n| phase.ops >= n)
            || (opts.max_ops.is_none()
                && phase.ops > 0
                && start.elapsed().as_secs_f64() >= seconds);
        if done {
            break;
        }
        let index = phase.ops;
        tracer.set_op(index);
        let counters = &mut phase.counters;
        let (op, wall) = tracer.span("op", |t| {
            bench.op(index, t, counters, opts.wrong_expectation)
        });
        if tracer.enabled() && bench.replays() {
            let (replayed, _) = tracer.span("replay", |t| bench.replay(t, counters));
            if let Err(e) = replayed {
                push_error(errors, e);
            }
        }
        phase.ops += 1;
        phase.cases += op.cases;
        phase.timed.push(op.timed.as_secs_f64());
        phase.wall.push(wall.as_secs_f64());
        if let Some(e) = op.error {
            phase.failed += 1;
            push_error(errors, format!("operation {index}: {e}"));
        }
    }
    phase
}

fn push_error(errors: &mut Vec<String>, e: String) {
    if errors.len() < MAX_ERRORS {
        errors.push(e);
    }
}

/// Runs one workload as `opts` describes.
///
/// # Errors
///
/// Set-up failed: a guest kernel did not build or run to its `ebreak`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(opts.trace);
    let mut setup_times = Vec::new();
    let mut setup_counters = Counters::default();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        setup_counters = Counters::default();
        let start = Instant::now();
        let built = Bench::setup(opts, &mut tracer, &mut setup_counters)?;
        setup_times.push(start.elapsed().as_secs_f64());
        bench = Some(built);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let setup_s = median(&mut setup_times);

    let mut out = Outcome::default();
    let mut errors = Vec::new();
    if opts.trace {
        tracer.set_enabled(false);
        let plain = measure(
            &mut bench,
            opts,
            &mut tracer,
            opts.seconds / 3.0,
            &mut errors,
        );
        tracer.set_enabled(true);
        // The traced phase starts the operation cycle over, so both
        // phases run the same operations first.
        let traced = measure(
            &mut bench,
            opts,
            &mut tracer,
            opts.seconds * 2.0 / 3.0,
            &mut errors,
        );
        out.attempted = plain.ops + traced.ops;
        out.failed = plain.failed + traced.failed;
        out.metrics = layer_metrics(&tracer, &plain, &traced, &setup_counters, &mut errors);
        out.simulated = traced.counters.simulated();
        out.simulated_ops = traced.ops;
        out.spans_json = Some(tracer.to_json());
    } else {
        let phase = measure(&mut bench, opts, &mut tracer, opts.seconds, &mut errors);
        out.attempted = phase.ops;
        out.failed = phase.failed;
        out.metrics = end_to_end(&phase, setup_s);
        out.notes = notes(&phase);
        out.simulated = phase.counters.simulated();
        out.simulated_ops = phase.ops;
    }
    if let Err(e) = bench.audit() {
        push_error(&mut errors, e);
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            push_error(&mut errors, format!("metric {} is {}", m.name, m.value));
        }
    }
    out.errors = errors;
    Ok(out)
}

/// Median (sorts in place).
fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (sorts in place).
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(phase: &Phase, setup_s: f64) -> Vec<Metric> {
    let mut ms: Vec<f64> = phase.timed.iter().map(|t| t * 1e3).collect();
    vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "op_ms_p90",
            value: percentile(&mut ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
        },
    ]
}

/// Figures printed beside the end-to-end metrics but not bounded: the
/// operation count, median latency and throughput, and guest MIPS per
/// engine for the workloads that run guest kernels.
///
/// They are left out of the bounded set because on a shared host the
/// CPU-bound guest operations run at one of two speeds, about 1.7x
/// apart, in proportions that change from minute to minute.
/// The median and the mean follow the proportion: in two sets of ten
/// 20 s `guest_plain` runs their quartile spreads reached 0.35-0.48 and
/// 0.18-0.36. The 90th percentile falls in the slow state in almost
/// every run and moves with any change to the simulator's per-operation
/// cost.
fn notes(phase: &Phase) -> Vec<Metric> {
    let c = &phase.counters;
    let timed: f64 = phase.timed.iter().sum();
    let mut ms: Vec<f64> = phase.timed.iter().map(|t| t * 1e3).collect();
    let mut notes = vec![
        Metric {
            name: "op_samples",
            value: phase.ops as f64,
            unit: "count",
        },
        Metric {
            name: "op_ms_p50",
            value: percentile(&mut ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "cases_per_s",
            value: ratio(phase.cases as f64, timed),
            unit: "1/s",
        },
    ];
    for (name, insns, time) in [
        ("pipeline_mips", "pipeline.insns", "time.pipeline_s"),
        ("interp_mips", "interp.insns", "time.interp_s"),
    ] {
        if c.get(time) > 0.0 {
            notes.push(Metric {
                name,
                value: c.get(insns) / c.get(time) / 1e6,
                unit: "MIPS",
            });
        }
    }
    notes
}

/// Ratio with a zero-safe base.
fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

fn layer_metrics(
    tracer: &Tracer,
    plain: &Phase,
    traced: &Phase,
    setup: &Counters,
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    let totals = tracer.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, span::Totals::mean_s);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    let self_total = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    let ops = traced.ops.max(1) as f64;
    let c = &traced.counters;
    let per_op = |name: &str| c.get(name) / ops;

    // Campaign time, and the replayed calls that mirror the campaign's.
    let fault_run_s = c.get("time.faultsim_s");
    let fuzz_run_s = c.get("time.fuzz_s");
    let replayed = |names: &[&str]| names.iter().map(|n| total(n)).sum::<f64>();
    let fault_replayed = replayed(&campaign::FAULT_REPLAYED);
    let fuzz_replayed = replayed(&campaign::FUZZ_REPLAYED);
    let (campaign_s, replayed_s) = if traced.ops >= REPLAY_CHECK_MIN_OPS {
        (fault_run_s + fuzz_run_s, fault_replayed + fuzz_replayed)
    } else {
        (0.0, 0.0)
    };
    for e in check_attribution(&totals, campaign_s, replayed_s) {
        push_error(errors, e);
    }
    // Tracing slowdown: traced over untraced operation time. The two
    // phases run minutes apart at most, but the host may switch between
    // two speeds about 1.7x apart in that time, so only a factor of two
    // either way is an error.
    let untraced_ms = plain.wall.iter().sum::<f64>() / plain.ops.max(1) as f64 * 1e3;
    let traced_ms = total("op") / ops * 1e3;
    let overhead = ratio(traced_ms, untraced_ms) - 1.0;
    if untraced_ms > 0.0 && !(0.5..=2.0).contains(&(overhead + 1.0)) {
        push_error(
            errors,
            format!("traced operation {traced_ms:.3} ms vs untraced {untraced_ms:.3} ms"),
        );
    }

    let p_insns = per_op("pipeline.insns");
    let i_insns = per_op("interp.insns");
    let dc_lookups = per_op("decode_cache.hit") + per_op("decode_cache.miss");
    let transitions = per_op("core.menters")
        + per_op("core.intercepts")
        + per_op("core.delegated_exceptions")
        + per_op("core.delegated_interrupts");
    let fault_cases = per_op("faultsim.cases");
    let fault_applied = per_op("faultsim.applied");
    let fuzz_cases = per_op("fuzz.cases");
    let fuzz_attempted = fuzz_cases + per_op("fuzz.rejects");
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("pipeline.run_s", mean("pipeline.run"), "s"),
        m(
            "pipeline.ns_per_insn",
            ratio(total("pipeline.run"), c.get("pipeline.insns")) * 1e9,
            "ns",
        ),
        m("pipeline.insns", p_insns, "count"),
        m("pipeline.cycles", per_op("pipeline.cycles"), "count"),
        m(
            "pipeline.cpi",
            ratio(per_op("pipeline.cycles"), p_insns),
            "ratio",
        ),
        m("interp.run_s", mean("interp.run"), "s"),
        m(
            "interp.ns_per_insn",
            ratio(total("interp.run"), c.get("interp.insns")) * 1e9,
            "ns",
        ),
        m("interp.insns", i_insns, "count"),
        m("pipeline.new_s", mean("pipeline.new"), "s"),
        m("pipeline.load_s", mean("pipeline.load"), "s"),
        m("pipeline.snapshot_s", mean("pipeline.snapshot"), "s"),
        m("pipeline.restore_s", mean("pipeline.restore"), "s"),
        m("pipeline.step_s", mean("pipeline.step"), "s"),
        m("pipeline.drop_s", mean("pipeline.drop"), "s"),
        m("decode_cache.hit", per_op("decode_cache.hit"), "count"),
        m("decode_cache.miss", per_op("decode_cache.miss"), "count"),
        m(
            "decode_cache.invalidate",
            per_op("decode_cache.invalidate"),
            "count",
        ),
        m("decode_cache.lookups", dc_lookups, "count"),
        m(
            "decode_cache.hit_ratio",
            ratio(per_op("decode_cache.hit"), dc_lookups),
            "ratio",
        ),
        m(
            "mem.icache.hit_ratio",
            ratio(
                per_op("mem.icache.accesses") - per_op("mem.icache.misses"),
                per_op("mem.icache.accesses"),
            ),
            "ratio",
        ),
        m(
            "mem.icache.accesses",
            per_op("mem.icache.accesses"),
            "count",
        ),
        m(
            "mem.dcache.hit_ratio",
            ratio(
                per_op("mem.dcache.accesses") - per_op("mem.dcache.misses"),
                per_op("mem.dcache.accesses"),
            ),
            "ratio",
        ),
        m(
            "mem.dcache.accesses",
            per_op("mem.dcache.accesses"),
            "count",
        ),
        m(
            "mem.tlb.hit_ratio",
            ratio(per_op("mem.tlb.hits"), per_op("mem.tlb.lookups")),
            "ratio",
        ),
        m("mem.tlb.lookups", per_op("mem.tlb.lookups"), "count"),
        m("core.build_s", mean("core.build"), "s"),
        m("core.menters", per_op("core.menters"), "count"),
        m("core.intercepts", per_op("core.intercepts"), "count"),
        m(
            "core.delegated_exceptions",
            per_op("core.delegated_exceptions"),
            "count",
        ),
        m(
            "core.delegated_interrupts",
            per_op("core.delegated_interrupts"),
            "count",
        ),
        m(
            "core.machine_checks",
            per_op("core.machine_checks"),
            "count",
        ),
        m("core.scrubs", per_op("core.scrubs"), "count"),
        m(
            "core.transitions_per_kinsn",
            ratio(transitions, p_insns) * 1e3,
            "ratio",
        ),
        m("asm.assemble_s", mean("asm.assemble"), "s"),
        m(
            "asm.words",
            if traced.counters.get("asm.words") > 0.0 {
                per_op("asm.words")
            } else {
                setup.get("asm.words")
            },
            "count",
        ),
        m("fuzz.case_s", ratio(fuzz_run_s, c.get("fuzz.cases")), "s"),
        m("fuzz.generate_s", mean("fuzz.generate"), "s"),
        m("fuzz.run_s", mean("fuzz.run"), "s"),
        m("fuzz.lint_s", mean("fuzz.lint"), "s"),
        m("fuzz.coverage_s", mean("fuzz.coverage"), "s"),
        m("fuzz.runner_new_s", mean("fuzz.runner_new"), "s"),
        m(
            "fuzz.self_s",
            ratio(fuzz_run_s - fuzz_replayed, c.get("fuzz.cases")),
            "s",
        ),
        m("fuzz.cases", fuzz_cases, "count"),
        m("fuzz.attempted", fuzz_attempted, "count"),
        m(
            "fuzz.novel_ratio",
            ratio(per_op("fuzz.novel"), fuzz_cases),
            "ratio",
        ),
        m(
            "fuzz.reject_ratio",
            ratio(per_op("fuzz.rejects"), fuzz_attempted),
            "ratio",
        ),
        m("fuzz.coverage_bits", per_op("fuzz.coverage_bits"), "count"),
        m("fuzz.screened", setup.get("fuzz.screened"), "count"),
        m("fuzz.screen_s", mean("fuzz.screen"), "s"),
        m(
            "faultsim.case_s",
            ratio(fault_run_s, c.get("faultsim.cases")),
            "s",
        ),
        m("faultsim.build_s", mean("faultsim.build"), "s"),
        m("faultsim.apply_s", mean("faultsim.apply"), "s"),
        m(
            "faultsim.self_s",
            ratio(fault_run_s - fault_replayed, c.get("faultsim.cases")),
            "s",
        ),
        m(
            "faultsim.engine_share",
            ratio(
                total("pipeline.run") + total("interp.run") + total("pipeline.step"),
                fault_run_s,
            ),
            "ratio",
        ),
        m("faultsim.cases", fault_cases, "count"),
        m("faultsim.applied", fault_applied, "count"),
        m(
            "faultsim.applied_ratio",
            ratio(fault_applied, fault_cases),
            "ratio",
        ),
        m(
            "faultsim.detected_ratio",
            ratio(per_op("faultsim.detected"), fault_applied),
            "ratio",
        ),
        m("faultsim.skipped", per_op("faultsim.skipped"), "count"),
        m(
            "trace.events",
            ratio(c.get("trace.events"), c.get("fuzz.cases")),
            "count",
        ),
        m("trace.overhead", overhead, "ratio"),
        m("trace.untraced_op_ms", untraced_ms, "ms"),
        m("trace.traced_op_ms", traced_ms, "ms"),
        m("trace.op_self_s", ratio(self_total("op"), ops), "s"),
        m("trace.unattributed_ratio", unattributed(&totals), "ratio"),
    ]
}

/// The larger unattributed share of the two root spans, `op` and
/// `replay`: a root's self time over its total.
fn unattributed(totals: &BTreeMap<&'static str, span::Totals>) -> f64 {
    ["op", "replay"]
        .iter()
        .filter_map(|root| totals.get(root))
        .map(|t| ratio(t.self_s, t.total_s))
        .fold(0.0, f64::max)
}

/// Checks that the layer spans account for the traced time:
///
/// * no span has negative self time;
/// * each root span (`op`, `replay`) has at most [`UNATTRIBUTED_MAX`]
///   of its time outside its layer spans, so a call left without its
///   span shows;
/// * the replayed calls that mirror a campaign's own calls
///   (`replayed_s`) exceed the campaign time (`campaign_s`) by at most
///   [`REPLAY_EXCESS_MAX`], so a span around a costly call the
///   campaign does not make shows (a `campaign_s` of 0 skips this).
fn check_attribution(
    totals: &BTreeMap<&'static str, span::Totals>,
    campaign_s: f64,
    replayed_s: f64,
) -> Vec<String> {
    let mut errors = Vec::new();
    for (name, t) in totals {
        if t.min_self_s < 0.0 {
            errors.push(format!(
                "span {name} has negative self time {}",
                t.min_self_s
            ));
        }
    }
    for root in ["op", "replay"] {
        if let Some(t) = totals.get(root) {
            let share = ratio(t.self_s, t.total_s);
            if share > UNATTRIBUTED_MAX {
                errors.push(format!(
                    "{share:.4} of span {root} lies outside every layer span"
                ));
            }
        }
    }
    if campaign_s > 0.0 && replayed_s > campaign_s * (1.0 + REPLAY_EXCESS_MAX) {
        errors.push(format!(
            "replayed calls took {replayed_s:.4} s, the campaigns {campaign_s:.4} s"
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    const CALL: Duration = Duration::from_millis(20);

    #[test]
    fn spans_that_cover_the_operation_pass() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            t.span("pipeline.restore", |_| sleep(CALL));
            t.span("pipeline.run", |_| sleep(CALL));
        });
        assert_eq!(
            check_attribution(&t.totals(), 0.0, 0.0),
            Vec::<String>::new()
        );
        assert!(unattributed(&t.totals()) <= UNATTRIBUTED_MAX);
    }

    #[test]
    fn a_call_left_without_its_span_is_caught() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            sleep(CALL);
            t.span("pipeline.run", |_| sleep(CALL));
        });
        let errors = check_attribution(&t.totals(), 0.0, 0.0);
        assert!(errors.iter().any(|e| e.contains("span op")), "{errors:?}");
    }

    #[test]
    fn replayed_calls_beyond_the_campaign_are_caught() {
        let totals = BTreeMap::new();
        assert!(check_attribution(&totals, 1.0, 1.0 + REPLAY_EXCESS_MAX / 2.0).is_empty());
        assert_eq!(
            check_attribution(&totals, 1.0, 1.0 + 2.0 * REPLAY_EXCESS_MAX).len(),
            1
        );
    }
}

//! The campaign workloads: `metal_faultsim::run` and
//! `metal_fuzz::run_campaign` as whole operations.
//!
//! The top-level call hides its phases, so the traced run replays each
//! case of an operation through the same public calls with the same
//! case seeds, times each call, and reports the campaign's time minus
//! the replayed calls that mirror its own ([`FAULT_REPLAYED`],
//! [`FUZZ_REPLAYED`]) as its self time.

use crate::expect::{self, Histogram};
use crate::span::Tracer;
use crate::{mix, Counters, OpResult};
use metal_core::{Metal, MetalBuilder, MetalConfig};
use metal_faultsim::campaign::{case_seed, FUEL};
use metal_faultsim::fault::{self, FaultKind, FaultSpec, FaultTarget};
use metal_faultsim::{
    workload, CampaignConfig, Classification, EngineChoice, KindChoice, Report, WorkloadKind,
};
use metal_fuzz::{BugKind, CaseRunner, CoverageMap};
use metal_pipeline::state::{CoreConfig, TranslationMode};
use metal_pipeline::{Core, Engine, EngineSnapshot, HaltReason, Interp};
use metal_trace::FaultSite;
use metal_util::Rng;
use std::ops::Range;

/// Histogram order of the fault classes.
pub const CLASSES: [Classification; 7] = [
    Classification::Masked,
    Classification::CorrectedRetry,
    Classification::CorrectedRollback,
    Classification::Uncorrectable,
    Classification::Sdc,
    Classification::Hang,
    Classification::Skipped,
];

/// Distinct fault campaigns an operation cycles through: every
/// (engine, victim) pair with eight seeds each.
pub const FAULT_CONFIGS: u64 = 32;
/// Cases per fault campaign.
pub const FAULT_CASES: u64 = 4;
/// Distinct fuzz campaigns an operation cycles through.
pub const FUZZ_CONFIGS: u64 = 8;
/// Cases per fuzz campaign.
pub const FUZZ_CASES: u64 = 96;

/// Spans of the fault replay that mirror calls `metal_faultsim::run`
/// makes for each case.
pub const FAULT_REPLAYED: [&str; 10] = [
    "faultsim.build",
    "pipeline.new",
    "pipeline.load",
    "pipeline.snapshot",
    "pipeline.run",
    "interp.run",
    "pipeline.restore",
    "pipeline.step",
    "faultsim.apply",
    "pipeline.drop",
];

/// Spans of the fuzz replay that mirror calls `metal_fuzz::run_campaign`
/// makes. The replay's `asm.assemble` is not one of them: the campaign
/// assembles each guest inside `CaseRunner::run`, and the replay
/// assembles it once more, outside, only to time `metal-asm`.
pub const FUZZ_REPLAYED: [&str; 5] = [
    "fuzz.runner_new",
    "fuzz.generate",
    "fuzz.run",
    "fuzz.lint",
    "fuzz.coverage",
];

fn histogram(report: &Report) -> Histogram {
    CLASSES.map(|c| report.count(c))
}

/// The fault campaign of configuration `k`: engines alternate every
/// operation, victims every second one.
#[must_use]
pub fn fault_config(seed: u64, k: u64) -> CampaignConfig {
    CampaignConfig {
        seed: mix(seed, k),
        cases: FAULT_CASES,
        jobs: 1,
        engine: if k.is_multiple_of(2) {
            EngineChoice::Pipeline
        } else {
            EngineChoice::Interp
        },
        workload: if (k / 2).is_multiple_of(2) {
            WorkloadKind::Loop
        } else {
            WorkloadKind::Fuzz
        },
        ..CampaignConfig::default()
    }
}

/// `campaign_fault` after set-up.
pub struct FaultBench {
    seed: u64,
    /// First result of each configuration; later runs must repeat it.
    seen: Vec<Option<Histogram>>,
    expected: Option<&'static [Histogram]>,
    last: Option<(CampaignConfig, Report)>,
}

impl FaultBench {
    /// Sets up the campaign cycle and warms it up with one untimed run
    /// of configuration 0 (its output is checked when the operations
    /// run it).
    #[must_use]
    pub fn new(seed: u64, tracer: &mut Tracer) -> FaultBench {
        tracer.span("faultsim.run", |_| {
            metal_faultsim::run(&fault_config(seed, 0))
        });
        FaultBench {
            seed,
            seen: vec![None; FAULT_CONFIGS as usize],
            expected: (seed == expect::DEFAULT_SEED).then_some(expect::CAMPAIGN_FAULT),
            last: None,
        }
    }

    fn check(&mut self, k: u64, got: &Histogram, wrong: bool) -> Result<(), String> {
        let slot = &mut self.seen[k as usize];
        let mut want = match (self.expected, *slot) {
            (Some(table), _) => *table
                .get(k as usize)
                .ok_or_else(|| format!("no recorded histogram for fault campaign {k}"))?,
            (None, Some(first)) => first,
            (None, None) => *got,
        };
        if slot.is_none() {
            *slot = Some(*got);
        }
        if wrong {
            want[0] += 1;
        }
        if *got == want {
            Ok(())
        } else {
            Err(format!(
                "fault campaign {k}: histogram {got:?}, want {want:?}"
            ))
        }
    }

    /// Runs fault campaign `index mod FAULT_CONFIGS`.
    pub fn op(
        &mut self,
        index: u64,
        tracer: &mut Tracer,
        counters: &mut Counters,
        wrong: bool,
    ) -> OpResult {
        let k = index % FAULT_CONFIGS;
        let cfg = fault_config(self.seed, k);
        let (report, dur) = tracer.span("faultsim.run", |_| metal_faultsim::run(&cfg));
        let mut op = OpResult {
            timed: dur,
            cases: cfg.cases,
            ..OpResult::default()
        };
        op.check(self.check(k, &histogram(&report), wrong));
        counters.add("faultsim.cases", cfg.cases as f64);
        counters.add("time.faultsim_s", dur.as_secs_f64());
        for o in &report.outcomes {
            counters.add("faultsim.applied", f64::from(u8::from(o.applied)));
            counters.add(
                "faultsim.detected",
                f64::from(u8::from(o.applied && o.machine_checks > 0)),
            );
            counters.add(
                "faultsim.skipped",
                f64::from(u8::from(o.class == Classification::Skipped)),
            );
            counters.add("core.machine_checks", o.machine_checks as f64);
            counters.add("core.scrubs", o.scrubs as f64);
        }
        self.last = Some((cfg, report));
        op
    }

    /// Replays every case of the last operation call by call.
    ///
    /// # Errors
    ///
    /// A replayed case whose machine-check or scrub count differs from
    /// the campaign's (the replay is not the campaign's case).
    pub fn replay(&mut self, tracer: &mut Tracer, counters: &mut Counters) -> Result<(), String> {
        let (cfg, report) = self.last.take().ok_or("replay before any operation")?;
        for outcome in &report.outcomes {
            let got = match cfg.engine {
                EngineChoice::Pipeline => {
                    replay_fault::<Core<Metal>>(&cfg, outcome.index, tracer, counters)?
                }
                EngineChoice::Interp => {
                    replay_fault::<Interp<Metal>>(&cfg, outcome.index, tracer, counters)?
                }
            };
            let want = (outcome.class != Classification::Skipped)
                .then_some((outcome.machine_checks, outcome.scrubs));
            if got != want {
                return Err(format!(
                    "replay of fault case {} (seed {}) gave {got:?}, campaign {want:?}",
                    outcome.index, cfg.seed
                ));
            }
        }
        Ok(())
    }

    /// The zero-fault self-audit: a campaign that injects nothing must
    /// classify every case masked (or skipped) on both engines and both
    /// victims.
    ///
    /// # Errors
    ///
    /// The first audit campaign with another class.
    pub fn audit(&self) -> Result<(), String> {
        for k in 0..4 {
            let cfg = CampaignConfig {
                zero_fault: true,
                ..fault_config(mix(self.seed, 0xA0D1), k)
            };
            let report = metal_faultsim::run(&cfg);
            let bad = report
                .outcomes
                .iter()
                .any(|o| !matches!(o.class, Classification::Masked | Classification::Skipped));
            if bad || report.zero_fault_divergences > 0 {
                return Err(format!(
                    "zero-fault audit ({} / {}) not all masked: {:?}",
                    cfg.engine.label(),
                    cfg.workload.label(),
                    histogram(&report)
                ));
            }
        }
        Ok(())
    }

    /// Records the histogram of every configuration (for `--record`).
    #[must_use]
    pub fn record(seed: u64) -> Vec<Histogram> {
        (0..FAULT_CONFIGS)
            .map(|k| histogram(&metal_faultsim::run(&fault_config(seed, k))))
            .collect()
    }
}

fn run_name<E: Engine>() -> &'static str {
    if E::name() == "pipeline" {
        "pipeline.run"
    } else {
        "interp.run"
    }
}

/// Re-draws the fault of a case exactly as the campaign does for the
/// default site set (MRAM code, MRAM data, MReg; transient faults).
fn draw_spec(
    rng: &mut Rng,
    cfg: &CampaignConfig,
    code_words: &Range<u32>,
    data_words: &Range<u32>,
    mregs: &[u32],
) -> Result<FaultSpec, String> {
    let site = *rng.pick(&cfg.sites);
    let (index, bit) = match site {
        FaultSite::MramCode => (
            code_words.start + rng.below(code_words.len() as u64) as u32,
            rng.below(32) as u8,
        ),
        FaultSite::MramData => (
            data_words.start + rng.below(data_words.len() as u64) as u32,
            rng.below(32) as u8,
        ),
        FaultSite::Mreg => (*rng.pick(mregs), rng.below(32) as u8),
        other => return Err(format!("replay does not model fault site {other:?}")),
    };
    Ok(FaultSpec {
        site,
        index,
        bit,
        kind: FaultKind::Transient,
    })
}

/// Replays one fault case through the public calls the campaign makes.
/// Returns the faulty run's (machine checks, scrubs), or `None` when the
/// campaign skips the case.
fn replay_fault<E: FaultTarget>(
    cfg: &CampaignConfig,
    index: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<Option<(u64, u64)>, String> {
    if cfg.kind != KindChoice::Transient {
        return Err("replay models transient faults only".into());
    }
    let seed = case_seed(cfg.seed, index);
    let mut rng = Rng::new(seed);
    let (built, _) = tracer.span("faultsim.build", |_| workload::build(cfg, seed));
    let Ok(workload::Built {
        metal,
        program,
        soft_tlb,
        code_words,
        data_words,
        mregs,
    }) = built
    else {
        return Ok(None);
    };
    let (mut engine, _) = tracer.span("pipeline.new", |_| E::new(CoreConfig::default(), metal));
    if soft_tlb {
        engine.state_mut().translation = TranslationMode::SoftTlb;
    }
    tracer.span("pipeline.load", |_| {
        engine.load_segments([(0u32, program.as_slice())], 0);
    });
    let (pristine, _) = tracer.span("pipeline.snapshot", |_| engine.snapshot());
    let run = run_name::<E>();
    let (golden, _) = tracer.span(run, |_| engine.run_fuel(FUEL));
    count_run(&engine, counters);
    if golden == HaltReason::Timeout {
        tracer.span("pipeline.drop", |_| drop((engine, pristine)));
        return Ok(None);
    }
    let golden_instret = engine.state().perf.instret;
    let spec = draw_spec(&mut rng, cfg, &code_words, &data_words, &mregs)?;
    let window = (golden_instret.saturating_mul(9) / 10).max(1);
    let inject_at = rng.below(window);

    tracer.span("pipeline.restore", |_| engine.restore(&pristine));
    tracer.span("pipeline.step", |_| engine.step_insns(inject_at));
    tracer.span("faultsim.apply", |_| fault::apply(&mut engine, &spec));
    let (halt, _) = tracer.span(run, |_| engine.run_fuel(FUEL));
    count_run(&engine, counters);
    let stats = engine.hooks().stats;
    if matches!(&halt, HaltReason::Fatal(m) if m.contains("machine-check recovery abort")) {
        tracer.span("pipeline.restore", |_| engine.restore(&pristine));
        tracer.span(run, |_| engine.run_fuel(FUEL));
        count_run(&engine, counters);
    }
    // The campaign frees the case's engine and snapshot too: two 4 MiB
    // RAM images.
    tracer.span("pipeline.drop", |_| drop((engine, pristine)));
    Ok(Some((stats.machine_checks, stats.scrubs)))
}

/// Adds a finished run's retired instructions (and pipeline cycles).
fn count_run<E: Engine<Hooks = Metal>>(engine: &E, counters: &mut Counters) {
    let perf = &engine.state().perf;
    if E::name() == "pipeline" {
        counters.add("pipeline.insns", perf.instret as f64);
        counters.add("pipeline.cycles", perf.cycles as f64);
    } else {
        counters.add("interp.insns", perf.instret as f64);
    }
    let s = &engine.hooks().stats;
    counters.add("core.menters", s.menters as f64);
    counters.add("core.intercepts", s.intercepts as f64);
    counters.add("core.delegated_exceptions", s.delegated_exceptions as f64);
    counters.add("core.delegated_interrupts", s.delegated_interrupts as f64);
}

/// A fuzz campaign with the given seed.
#[must_use]
pub fn fuzz_config(campaign_seed: u64) -> metal_fuzz::CampaignConfig {
    metal_fuzz::CampaignConfig {
        seed: campaign_seed,
        jobs: 1,
        cases: Some(FUZZ_CASES),
        lint: true,
        ..metal_fuzz::CampaignConfig::default()
    }
}

/// Interpreter steps within which every screened case must halt. A
/// generated case retires about a thousand instructions; the campaign
/// gives up on a case only after `metal_fuzz::exec::INTERP_LIMIT` steps
/// (or the pipeline's cycle budget).
const SCREEN_STEPS: u64 = 200_000;

/// Runs generated cases on a bare interpreter (no trace ring, no
/// oracle) to find those that do not halt.
struct Screen {
    interp: Interp<Metal>,
    pristine: EngineSnapshot<Metal>,
}

impl Screen {
    fn new() -> Screen {
        let config = CoreConfig {
            ram_bytes: metal_fuzz::exec::FUZZ_RAM,
            ..CoreConfig::default()
        };
        let interp = Interp::new(config, Metal::new(MetalConfig::default()));
        let pristine = interp.snapshot();
        Screen { interp, pristine }
    }

    /// True when every case of the campaign builds and halts within
    /// [`SCREEN_STEPS`].
    fn terminates(&mut self, campaign_seed: u64) -> bool {
        (0..FUZZ_CASES).all(|index| {
            let case =
                metal_fuzz::grammar::generate(metal_fuzz::case_seed(campaign_seed, 0, index));
            let mut builder = MetalBuilder::new();
            for r in &case.routines {
                builder = builder.routine(r.entry, &r.name, &r.src);
            }
            for &(cause, entry) in &case.delegations {
                builder = builder.delegate_exception(cause, entry);
            }
            let (Ok((metal, _, _)), Ok(words)) =
                (builder.build(), metal_asm::assemble_at(&case.guest, 0))
            else {
                return false;
            };
            let program: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            self.interp.restore(&self.pristine);
            *self.interp.hooks_mut() = metal;
            if case.soft_tlb {
                self.interp.state_mut().translation = TranslationMode::SoftTlb;
            }
            self.interp.load_segments([(0u32, program.as_slice())], 0);
            self.interp.run(SCREEN_STEPS).is_some()
        })
    }
}

/// `campaign_fuzz` after set-up.
pub struct FuzzBench {
    /// Campaign seeds of the cycle.
    seeds: Vec<u64>,
    /// Candidate campaigns the screen rejected.
    screened: u64,
    last: Option<(metal_fuzz::CampaignConfig, usize)>,
}

impl FuzzBench {
    /// Picks the cycle's campaign seeds and warms up with one untimed
    /// campaign (its output is checked when the operations run it).
    ///
    /// Grammar-generated cases occasionally never halt (about one in
    /// five thousand); the campaign then runs that case to its full
    /// watchdog budget on three machines, about a thousand times the
    /// cost of a normal case, so one such case in a run would swamp the
    /// throughput figure. Each configuration therefore takes the first
    /// candidate seed whose cases all halt on a quick interpreter
    /// screen; the rejected candidates are counted (`fuzz.screened`).
    #[must_use]
    pub fn new(seed: u64, tracer: &mut Tracer) -> FuzzBench {
        let mut screen = Screen::new();
        let mut screened = 0;
        let mut seeds = Vec::new();
        tracer.span("fuzz.screen", |_| {
            for k in 0..FUZZ_CONFIGS {
                let candidate = (0..)
                    .map(|attempt| mix(mix(seed, 0xF022 + k), attempt))
                    .find(|&s| {
                        let ok = screen.terminates(s);
                        screened += u64::from(!ok);
                        ok
                    })
                    .expect("some candidate campaign terminates");
                seeds.push(candidate);
            }
        });
        tracer.span("fuzz.campaign", |_| {
            metal_fuzz::run_campaign(&fuzz_config(seeds[0]))
        });
        FuzzBench {
            seeds,
            screened,
            last: None,
        }
    }

    /// Candidate campaigns the screen rejected at set-up.
    #[must_use]
    pub fn screened(&self) -> u64 {
        self.screened
    }

    /// Runs fuzz campaign `index mod FUZZ_CONFIGS`.
    pub fn op(
        &mut self,
        index: u64,
        tracer: &mut Tracer,
        counters: &mut Counters,
        wrong: bool,
    ) -> OpResult {
        let cfg = fuzz_config(self.seeds[(index % FUZZ_CONFIGS) as usize]);
        let (report, dur) = tracer.span("fuzz.campaign", |_| metal_fuzz::run_campaign(&cfg));
        let mut op = OpResult {
            timed: dur,
            cases: report.cases,
            ..OpResult::default()
        };
        op.check(check_fuzz(&report, FUZZ_CASES + u64::from(wrong)));
        counters.add("fuzz.cases", report.cases as f64);
        counters.add("fuzz.rejects", report.rejects as f64);
        counters.add("fuzz.coverage_bits", report.coverage as f64);
        counters.add("time.fuzz_s", dur.as_secs_f64());
        self.last = Some((cfg, report.coverage));
        op
    }

    /// Replays every case of the last operation call by call.
    ///
    /// # Errors
    ///
    /// The replay's coverage differs from the campaign's.
    pub fn replay(&mut self, tracer: &mut Tracer, counters: &mut Counters) -> Result<(), String> {
        let (cfg, coverage_bits) = self.last.take().ok_or("replay before any operation")?;
        let (mut runner, _) = tracer.span("fuzz.runner_new", |_| CaseRunner::new(BugKind::None));
        let mut coverage = CoverageMap::new();
        for index in 0..FUZZ_CASES {
            let seed = metal_fuzz::case_seed(cfg.seed, 0, index);
            let (case, _) = tracer.span("fuzz.generate", |_| metal_fuzz::grammar::generate(seed));
            // Not a campaign call (see `FUZZ_REPLAYED`): it times the
            // assembly `CaseRunner::run` does inside `fuzz.run`.
            let (words, _) =
                tracer.span("asm.assemble", |_| metal_asm::assemble_at(&case.guest, 0));
            counters.add("asm.words", words.map_or(0, |w| w.len()) as f64);
            let (result, _) = tracer.span("fuzz.run", |_| runner.run(&case));
            let Ok(result) = result else {
                continue;
            };
            counters.add("pipeline.insns", result.core.instret as f64);
            counters.add("pipeline.cycles", result.core.cycles as f64);
            counters.add("interp.insns", result.interp.instret as f64);
            counters.add(
                "trace.events",
                (result.core.events.len() + result.interp.events.len()) as f64,
            );
            let s = &result.core.stats;
            counters.add("core.menters", s.menters as f64);
            counters.add("core.intercepts", s.intercepts as f64);
            counters.add("core.delegated_exceptions", s.delegated_exceptions as f64);
            counters.add("core.delegated_interrupts", s.delegated_interrupts as f64);
            if result.hang || result.divergence.is_some() {
                continue;
            }
            let (finding, _) = tracer.span("fuzz.lint", |_| {
                metal_fuzz::lint::check_case(&case, &result.core.events, &result.interp.events)
            });
            if let Ok(Some(_)) = finding {
                continue;
            }
            let (novel, _) = tracer.span("fuzz.coverage", |_| {
                coverage.observe_run(
                    &result.core.events,
                    result.core.tags,
                    metal_fuzz::exec::halt_kind(&result.core.halt),
                )
            });
            counters.add("fuzz.novel", f64::from(u8::from(novel)));
        }
        if coverage.count() == coverage_bits {
            Ok(())
        } else {
            Err(format!(
                "fuzz replay of seed {} reached {} coverage bits, campaign {coverage_bits}",
                cfg.seed,
                coverage.count()
            ))
        }
    }
}

/// Every requested case ran; nothing diverged, hung, was rejected or
/// contradicted its lint verdict.
fn check_fuzz(report: &metal_fuzz::CampaignReport, want_cases: u64) -> Result<(), String> {
    if let Some(d) = report.divergences.first() {
        return Err(format!("fuzz case {:#x}: {}", d.seed, d.what));
    }
    if report.cases != want_cases || report.hangs != 0 || report.rejects != 0 {
        return Err(format!(
            "fuzz campaign ran {} of {want_cases} cases ({} hangs, {} rejects)",
            report.cases, report.hangs, report.rejects
        ));
    }
    Ok(())
}

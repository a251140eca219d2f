//! Coverage-guided differential fuzzing for the Metal engines.
//!
//! `metal-fuzz` closes the loop the differential tests open by hand:
//! it *generates* Metal programs from a weighted grammar ([`grammar`]),
//! runs each on the cycle-accurate core (twice: decode cache on and
//! off) and the reference interpreter ([`exec`]), and diffs
//! architectural state, retirement order, Metal statistics, and cycle
//! counts. Novelty is judged by a compact coverage bitmap fed from
//! `metal-trace` events ([`coverage`]); interesting inputs are kept as
//! human-readable, replayable artifacts ([`artifact`]); diverging
//! inputs are minimized to small repros ([`shrink`]).
//!
//! Case reset uses the engine snapshot/restore path
//! ([`metal_pipeline::Engine::snapshot`]) so each case costs a copy of
//! the RAM pages it touched, not a machine rebuild.
//!
//! # Determinism
//!
//! Case `i` of a campaign is generated from the seed
//! [`case_seed`]`(seed, 0, i)` (a SplitMix64-style mixer), and the
//! campaign runner ([`metal_util::campaign`]) merges case results in
//! index order on one thread, whatever `--jobs` is. Coverage novelty,
//! corpus writes and shrinking are all decided in that merge, so:
//!
//! * with `--cases N`, a campaign is **exactly** reproducible and
//!   independent of `--jobs`: same seed ⇒ same cases, same corpus file
//!   names and contents, same coverage count;
//! * with `--seconds T`, the wall clock only decides how long a prefix
//!   `0..n` of that one schedule runs, so the run equals
//!   `--cases n` with the same seed, and every artifact is reproducible
//!   from its file name alone (it encodes the case index and seed).

pub mod artifact;
pub mod coverage;
pub mod exec;
pub mod grammar;
pub mod lint;
pub mod shrink;

pub use coverage::CoverageMap;
pub use exec::{BugKind, CaseResult, CaseRunner};
pub use grammar::FuzzCase;

use metal_util::campaign;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Campaign parameters (the `mfuzz` command line).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign seed; every case seed derives from it.
    pub seed: u64,
    /// Worker threads (results are identical for any value).
    pub jobs: usize,
    /// Wall-clock budget.
    pub seconds: Option<u64>,
    /// Exact case budget (fully deterministic).
    pub cases: Option<u64>,
    /// Where to write corpus and divergence artifacts.
    pub corpus_dir: Option<PathBuf>,
    /// Injected engine bug (validation mode).
    pub bug: BugKind,
    /// Minimize divergences before reporting them.
    pub shrink: bool,
    /// Also lint every case and report lint-verdict vs simulator-fault
    /// disagreements (static-analysis soundness findings).
    pub lint: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 1,
            jobs: 1,
            seconds: None,
            cases: None,
            corpus_dir: None,
            bug: BugKind::None,
            shrink: true,
            lint: false,
        }
    }
}

/// A minimized divergence, ready to report.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Seed of the originating case.
    pub seed: u64,
    /// What the oracle saw.
    pub what: String,
    /// The (shrunk) case.
    pub case: FuzzCase,
    /// Instruction count of the shrunk case.
    pub insns: usize,
    /// Artifact path, when a corpus directory was given.
    pub artifact: Option<PathBuf>,
}

/// What a campaign did.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Cases executed.
    pub cases: u64,
    /// Cases that hit a run budget without halting.
    pub hangs: u64,
    /// Cases rejected by the builder/assembler (generator bugs).
    pub rejects: u64,
    /// Bits set in the merged coverage map.
    pub coverage: usize,
    /// Corpus artifacts written this campaign, in case order.
    pub corpus: Vec<PathBuf>,
    /// Divergences found (shrunk when configured), in case order.
    pub divergences: Vec<Divergence>,
}

/// SplitMix64-style mix of (campaign seed, shard, index) into a case
/// seed. Campaigns use shard 0 only: case `i` of campaign `s` is
/// `case_seed(s, 0, i)`. Stable across releases: artifact
/// reproducibility depends on it.
#[must_use]
pub fn case_seed(campaign: u64, shard: u64, index: u64) -> u64 {
    let mut z = campaign
        .wrapping_add(shard.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Findings shrunk (the first ones, in case order) before the rest are
/// reported unshrunk.
const SHRINK_CAP: usize = 3;
/// Predicate evaluations allowed per shrink.
const SHRINK_BUDGET: usize = 2_000;

/// The two kinds of finding a campaign reports.
#[derive(Clone, Copy, Debug)]
enum FindingKind {
    /// The engines disagree.
    Divergence,
    /// The lint verdict contradicts the simulators (`--lint`).
    Lint,
}

impl FindingKind {
    /// Artifact file-name prefix.
    fn tag(self) -> &'static str {
        match self {
            FindingKind::Divergence => "div",
            FindingKind::Lint => "lint",
        }
    }

    /// `Some(description)` while the finding shows in a run of `case`.
    fn check(self, case: &FuzzCase, run: &CaseResult) -> Option<String> {
        match self {
            FindingKind::Divergence => run.divergence.clone(),
            FindingKind::Lint => lint::check_case(case, &run.core.events, &run.interp.events)
                .ok()
                .flatten(),
        }
    }
}

/// What a worker learned from one case; the merge step turns it into
/// campaign decisions in case order.
enum Outcome {
    /// The builder or assembler rejected the case (a generator bug).
    Reject,
    /// A run budget expired before the case halted.
    Hang,
    /// A finding, to shrink and report.
    Finding {
        case: FuzzCase,
        what: String,
        kind: FindingKind,
    },
    /// A clean run: the coverage it observed, and its artifact text
    /// when a corpus is kept.
    Clean {
        coverage: CoverageMap,
        artifact: Option<String>,
    },
}

/// Runs case `seed` on a worker's runner.
fn run_case(runner: &mut CaseRunner, config: &CampaignConfig, seed: u64) -> Outcome {
    let case = grammar::generate(seed);
    let Ok(result) = runner.run(&case) else {
        return Outcome::Reject;
    };
    if result.hang {
        return Outcome::Hang;
    }
    let lint = config.lint.then_some(FindingKind::Lint);
    for kind in std::iter::once(FindingKind::Divergence).chain(lint) {
        if let Some(what) = kind.check(&case, &result) {
            return Outcome::Finding { case, what, kind };
        }
    }
    let mut coverage = CoverageMap::new();
    coverage.observe_run(
        &result.core.events,
        result.core.tags,
        exec::halt_kind(&result.core.halt),
    );
    let artifact = config
        .corpus_dir
        .as_ref()
        .map(|_| artifact::serialize(&case, &result.interp));
    Outcome::Clean { coverage, artifact }
}

/// Shrinks one finding (when `shrink`) and writes its artifact as
/// `{tag}_{seed}.s`. Shrinking keeps any candidate in which the finding
/// still shows.
fn minimize(
    runner: &mut CaseRunner,
    case: &FuzzCase,
    what: String,
    kind: FindingKind,
    config: &CampaignConfig,
    shrink: bool,
) -> Divergence {
    let shrunk = if shrink {
        shrink::shrink(
            case,
            |cand| {
                runner
                    .run(cand)
                    .map(|r| !r.hang && kind.check(cand, &r).is_some())
                    .unwrap_or(false)
            },
            SHRINK_BUDGET,
        )
    } else {
        case.clone()
    };
    // Re-run the final case: the artifact records the *reference*
    // expectations, so replay keeps failing while the bug lives.
    let (what, reference) = match runner.run(&shrunk) {
        Ok(r) => (kind.check(&shrunk, &r).unwrap_or(what), Some(r.interp)),
        Err(_) => (what, None),
    };
    let artifact = match (&config.corpus_dir, &reference) {
        (Some(dir), Some(reference)) => {
            let path = dir.join(format!("{}_{:016x}.s", kind.tag(), case.seed));
            let text = artifact::serialize(&shrunk, reference);
            std::fs::write(&path, text).ok().map(|()| path)
        }
        _ => None,
    };
    Divergence {
        seed: case.seed,
        what,
        insns: shrink::insn_count(&shrunk),
        case: shrunk,
        artifact,
    }
}

/// Runs a fuzzing campaign on `config.jobs` worker threads.
///
/// Case `i` is generated from `case_seed(seed, 0, i)`. Workers only run
/// cases; coverage novelty, corpus writes and shrinking are decided on
/// the calling thread in case order, so the report and the corpus are
/// the same for any `jobs`.
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    if let Some(dir) = &config.corpus_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    let deadline = config
        .seconds
        .map(|s| Instant::now() + Duration::from_secs(s));
    let mut report = CampaignReport::default();
    let mut coverage = CoverageMap::new();
    // Built at the first finding, so a clean campaign pays for no
    // extra engines.
    let mut shrinker: Option<CaseRunner> = None;
    campaign::run(
        config.jobs,
        config.cases,
        deadline,
        || CaseRunner::new(config.bug),
        |runner, index| run_case(runner, config, case_seed(config.seed, 0, index)),
        |index, outcome| match outcome {
            Outcome::Reject => report.rejects += 1,
            Outcome::Hang => {
                report.cases += 1;
                report.hangs += 1;
            }
            Outcome::Finding { case, what, kind } => {
                report.cases += 1;
                let runner = shrinker.get_or_insert_with(|| CaseRunner::new(config.bug));
                let shrink = config.shrink && report.divergences.len() < SHRINK_CAP;
                let div = minimize(runner, &case, what, kind, config, shrink);
                report.divergences.push(div);
            }
            Outcome::Clean {
                coverage: case_coverage,
                artifact,
            } => {
                report.cases += 1;
                if !coverage.merge(&case_coverage) {
                    return;
                }
                if let (Some(dir), Some(text)) = (&config.corpus_dir, artifact) {
                    let seed = case_seed(config.seed, 0, index);
                    let path = dir.join(format!("c{index:06}_{seed:016x}.s"));
                    if std::fs::write(&path, text).is_ok() {
                        report.corpus.push(path);
                    }
                }
            }
        },
    );
    report.coverage = coverage.count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_well_mixed() {
        // Adjacent (shard, index) pairs land far apart.
        let a = case_seed(1, 0, 0);
        let b = case_seed(1, 0, 1);
        let c = case_seed(1, 1, 0);
        let d = case_seed(2, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(
            (a ^ b).count_ones() > 8,
            "consecutive indices differ in many bits"
        );
    }

    #[test]
    fn small_campaign_is_deterministic() {
        let config = CampaignConfig {
            seed: 9,
            jobs: 1,
            cases: Some(40),
            ..CampaignConfig::default()
        };
        let a = run_campaign(&config);
        let b = run_campaign(&CampaignConfig { jobs: 4, ..config });
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!((a.hangs, a.rejects), (b.hangs, b.rejects));
        assert_eq!(a.divergences.len(), b.divergences.len());
        assert!(a.cases + a.rejects == 40);
        assert_eq!(a.divergences.len(), 0, "clean engines must not diverge");
    }

    /// Findings are reported in case order, whatever `jobs` is.
    #[test]
    fn findings_do_not_depend_on_jobs() {
        let config = CampaignConfig {
            seed: 7,
            jobs: 1,
            cases: Some(60),
            bug: BugKind::MulLowBit,
            shrink: false,
            ..CampaignConfig::default()
        };
        let found = |report: &CampaignReport| {
            report
                .divergences
                .iter()
                .map(|d| (d.seed, d.what.clone(), d.insns))
                .collect::<Vec<_>>()
        };
        let a = run_campaign(&config);
        let b = run_campaign(&CampaignConfig { jobs: 3, ..config });
        assert!(
            !a.divergences.is_empty(),
            "the injected bug shows in 60 cases"
        );
        assert_eq!(found(&a), found(&b));
        assert_eq!(a.coverage, b.coverage);
    }

    /// With `--lint` on and unmodified engines, a campaign reports no
    /// soundness findings: the analyzer never claims clean about a
    /// program that faults.
    #[test]
    fn lint_campaign_reports_no_findings() {
        let config = CampaignConfig {
            seed: 11,
            cases: Some(20),
            lint: true,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&config);
        assert_eq!(report.divergences.len(), 0, "{:?}", report.divergences);
    }
}

//! End-to-end campaign tests: determinism of the seed schedule and the
//! full find→shrink→replay loop against a deliberately injected engine
//! bug.

use metal_fuzz::exec::BugKind;
use metal_fuzz::{artifact, run_campaign, shrink, CampaignConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mfuzz-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn same_seed_same_campaign() {
    // Acceptance: `mfuzz --cases N --seed 1` is deterministic and does
    // not depend on `--jobs` — same corpus (names and contents), same
    // coverage count, same divergences.
    let run = |jobs: usize, dir: &std::path::Path| {
        run_campaign(&CampaignConfig {
            seed: 1,
            jobs,
            cases: Some(160),
            corpus_dir: Some(dir.to_path_buf()),
            ..CampaignConfig::default()
        })
    };
    let dir_a = temp_dir("det-a");
    let dir_b = temp_dir("det-b");
    let a = run(1, &dir_a);
    let b = run(4, &dir_b);
    assert_eq!(a.cases, b.cases);
    assert_eq!(a.coverage, b.coverage);
    assert!(a.coverage > 0, "campaign observed no coverage");
    assert!(!a.corpus.is_empty(), "campaign kept no seeds");
    assert_eq!(a.divergences.len(), 0, "clean engines diverged");
    assert_eq!(b.divergences.len(), 0, "clean engines diverged");
    let names = |dir: &std::path::Path| {
        let mut v: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        v.sort();
        v
    };
    let (na, nb) = (names(&dir_a), names(&dir_b));
    assert_eq!(na, nb, "corpus file sets differ between --jobs 1 and 4");
    assert_eq!(na.len(), a.corpus.len());
    for name in &na {
        let ca = std::fs::read(dir_a.join(name)).unwrap();
        let cb = std::fs::read(dir_b.join(name)).unwrap();
        assert_eq!(ca, cb, "artifact {name} differs between --jobs 1 and 4");
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn seconds_campaign_runs_a_prefix_of_the_schedule() {
    // A wall-clock campaign runs cases `0..n` of the one schedule, so
    // it equals the `--cases n` campaign with the same seed.
    let dir_a = temp_dir("prefix-a");
    let dir_b = temp_dir("prefix-b");
    let timed = run_campaign(&CampaignConfig {
        seed: 3,
        jobs: 2,
        seconds: Some(1),
        corpus_dir: Some(dir_a.clone()),
        ..CampaignConfig::default()
    });
    let n = timed.cases + timed.rejects;
    assert!(n > 0, "no case ran in one second");
    let counted = run_campaign(&CampaignConfig {
        seed: 3,
        cases: Some(n),
        corpus_dir: Some(dir_b.clone()),
        ..CampaignConfig::default()
    });
    assert_eq!(timed.coverage, counted.coverage);
    let names = |paths: &[std::path::PathBuf]| {
        paths
            .iter()
            .map(|p| p.file_name().unwrap().to_owned())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&timed.corpus), names(&counted.corpus));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn injected_bug_is_found_shrunk_and_replayable() {
    // Acceptance: a seeded engine bug (mul low-bit flip on the cores)
    // is found, shrunk to <= 12 instructions, and the written artifact
    // fails replay while the bug exists and passes once it is gone.
    let dir = temp_dir("bug");
    let report = run_campaign(&CampaignConfig {
        seed: 7,
        jobs: 2,
        cases: Some(400),
        corpus_dir: Some(dir.clone()),
        bug: BugKind::MulLowBit,
        ..CampaignConfig::default()
    });
    assert!(
        !report.divergences.is_empty(),
        "injected bug not found in {} cases",
        report.cases
    );
    let best = report.divergences.iter().min_by_key(|d| d.insns).unwrap();
    assert!(
        best.insns <= 12,
        "best shrink is {} instructions",
        best.insns
    );
    assert!(
        best.case.guest.contains("mul"),
        "shrunk case lost the buggy instruction:\n{}",
        best.case.guest
    );
    let path = best.artifact.as_ref().expect("artifact written");
    let content = std::fs::read_to_string(path).unwrap();
    // While the bug exists, the artifact reproduces it.
    let err = artifact::replay(&content, BugKind::MulLowBit)
        .expect_err("artifact must fail replay under the bug");
    assert!(
        err.contains("diverged") || err.contains("expected"),
        "{err}"
    );
    // Once the bug is fixed, the same artifact passes.
    artifact::replay(&content, BugKind::None).expect("artifact passes on fixed engines");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shrunk_case_is_still_counted_by_insn_count() {
    let case = metal_fuzz::grammar::generate(1);
    let n = shrink::insn_count(&case);
    assert!(n > 0, "generated cases have instructions");
}

//! Pinned `mfault --json` reports: four campaigns must keep producing
//! the committed reports byte for byte. A change to how the state
//! digest decides equality shows up here as a changed classification.
//! The last campaign is the one whose report depends on RAM: with RAM
//! left out of the digest, one of its latch faults turns from `sdc`
//! into `masked`.
//!
//! Regenerate a file only for an intended change of campaign results:
//!
//! ```text
//! mfault --seed 1 --cases 60 --json tests/golden/seed1_loop_pipeline_secded.json
//! mfault --seed 7 --cases 60 --workload fuzz --engine interp \
//!     --json tests/golden/seed7_fuzz_interp.json
//! mfault --seed 3 --cases 60 --ecc none --kind mixed \
//!     --sites mram-code,mram-data,mreg,guest-reg,tlb,cache,latch \
//!     --json tests/golden/seed3_mixed_all_sites_no_ecc.json
//! mfault --seed 1 --cases 60 --ecc none --sites guest-reg,latch --workload fuzz \
//!     --json tests/golden/seed1_fuzz_guest_reg_latch_no_ecc.json
//! ```

use metal_core::EccMode;
use metal_faultsim::campaign::{run, CampaignConfig, EngineChoice, KindChoice, WorkloadKind};
use metal_trace::FaultSite;

fn assert_golden(cfg: &CampaignConfig, file: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = run(cfg).to_json(cfg).to_string_compact();
    assert_eq!(got, want, "{file}: report changed");
}

#[test]
fn loop_pipeline_secded_matches_golden() {
    let cfg = CampaignConfig {
        seed: 1,
        cases: 60,
        ..CampaignConfig::default()
    };
    assert_golden(&cfg, "seed1_loop_pipeline_secded.json");
}

#[test]
fn fuzz_interp_matches_golden() {
    let cfg = CampaignConfig {
        seed: 7,
        cases: 60,
        workload: WorkloadKind::Fuzz,
        engine: EngineChoice::Interp,
        ..CampaignConfig::default()
    };
    assert_golden(&cfg, "seed7_fuzz_interp.json");
}

#[test]
fn mixed_all_sites_without_ecc_matches_golden() {
    let cfg = CampaignConfig {
        seed: 3,
        cases: 60,
        ecc: EccMode::None,
        kind: KindChoice::Mixed,
        sites: FaultSite::ALL.to_vec(),
        ..CampaignConfig::default()
    };
    assert_golden(&cfg, "seed3_mixed_all_sites_no_ecc.json");
}

#[test]
fn ram_sensitive_fuzz_campaign_matches_golden() {
    let cfg = CampaignConfig {
        seed: 1,
        cases: 60,
        ecc: EccMode::None,
        sites: vec![FaultSite::GuestReg, FaultSite::Latch],
        workload: WorkloadKind::Fuzz,
        ..CampaignConfig::default()
    };
    assert_golden(&cfg, "seed1_fuzz_guest_reg_latch_no_ecc.json");
}

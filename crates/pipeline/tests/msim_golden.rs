//! Pinned `msim` outputs: a small fixed program, run with `--perf
//! --trace --metrics` on both engines, must keep producing the
//! committed trace JSON, metrics JSON, stdout and stderr byte for byte.
//! The program, `tests/golden/msim_prog.s`, covers a loop, a
//! store/load-use pair, a taken branch, one console MMIO store and
//! `ebreak`; it is assembled in-process.
//!
//! The other files under `tests/golden/` are `msim` output with the
//! output directory replaced by `<tmp>`. Regenerate them only for an
//! intended change of the trace, metrics or `--perf` report:
//!
//! ```text
//! masm tests/golden/msim_prog.s -o DIR/image.bin
//! msim DIR/image.bin --engine ENGINE --perf \
//!     --trace DIR/ENGINE.trace.json --metrics DIR/ENGINE.metrics.json \
//!     > tests/golden/msim_ENGINE.stdout 2> tests/golden/msim_ENGINE.stderr
//! ```

use std::path::PathBuf;
use std::process::Command;

const PROGRAM: &str = include_str!("golden/msim_prog.s");

fn golden(file: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn assert_same(file: &str, got: &[u8]) {
    assert!(
        got == golden(file).as_slice(),
        "{file} changed:\n{}",
        String::from_utf8_lossy(got)
    );
}

fn check_engine(engine: &str) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("msim-golden-{engine}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let words = metal_asm::assemble_at(PROGRAM, 0).unwrap_or_else(|e| panic!("{e}"));
    let image: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let image_path = dir.join("image.bin");
    std::fs::write(&image_path, image).unwrap();
    let trace_path = dir.join(format!("{engine}.trace.json"));
    let metrics_path = dir.join(format!("{engine}.metrics.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_msim"))
        .arg(&image_path)
        .args(["--engine", engine, "--perf", "--trace"])
        .arg(&trace_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .output()
        .expect("run msim");
    assert_eq!(out.status.code(), Some(6), "{engine}: exit status");
    let stderr = String::from_utf8(out.stderr)
        .unwrap()
        .replace(dir.to_str().unwrap(), "<tmp>");
    assert_same(&format!("msim_{engine}.stdout"), &out.stdout);
    assert_same(&format!("msim_{engine}.stderr"), stderr.as_bytes());
    assert_same(
        &format!("msim_{engine}.trace.json"),
        &std::fs::read(&trace_path).unwrap(),
    );
    assert_same(
        &format!("msim_{engine}.metrics.json"),
        &std::fs::read(&metrics_path).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_outputs_match_golden() {
    check_engine("pipeline");
}

#[test]
fn interp_outputs_match_golden() {
    check_engine("interp");
}

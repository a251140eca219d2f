//! `reproduce all` is deterministic: its output must stay byte-identical
//! to the committed `reproduce_output.txt`. Regenerate that file with
//! `cargo run --release -p metal-bench --bin reproduce -- all >
//! reproduce_output.txt` when an experiment changes on purpose.

use std::process::Command;

#[test]
fn reproduce_all_matches_committed_output() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reproduce_output.txt");
    let golden = std::fs::read_to_string(golden_path).expect("read reproduce_output.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("all")
        .output()
        .expect("run reproduce");
    assert!(out.status.success(), "reproduce all failed: {out:?}");
    let actual = String::from_utf8(out.stdout).expect("utf-8 output");
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .map_or_else(|| "line count".to_owned(), |i| format!("line {}", i + 1));
        panic!("reproduce all differs from reproduce_output.txt at {line}:\n{actual}");
    }
}

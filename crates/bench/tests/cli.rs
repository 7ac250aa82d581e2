//! The `experiments` command line: malformed options exit 2 before any
//! experiment runs (and so before any `BENCH_*.json` is rewritten).

use std::process::Command;

#[test]
fn zero_or_malformed_counts_are_rejected() {
    for flag in ["--homes", "--rounds", "--threads"] {
        for bad in [&["0"][..], &["-1"], &["many"], &[""], &[]] {
            // `nosuch` would itself exit 2, but only once the arms are
            // looked up; the option check must fire first, with its own
            // message.
            let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
                .arg("nosuch")
                .arg(flag)
                .args(bad)
                .output()
                .expect("the experiments binary runs");
            assert_eq!(out.status.code(), Some(2), "{flag} {bad:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("needs a positive integer"), "{flag} {bad:?}: {stderr}");
        }
    }
}

//! `repro` ends quietly when whoever reads its stdout stops early, as
//! `repro --input FILE | head -1` does: status 0, no panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs `repro --input` on `example`, reads `lines` lines of its stdout
/// (0 or 1), closes the pipe, and returns the exit status and stderr.
fn input_read_then_closed(example: &str, lines: usize) -> (std::process::ExitStatus, String) {
    let path = format!("{}/../../examples/{example}", env!("CARGO_MANIFEST_DIR"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--input", &path])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    for _ in 0..lines {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("repro prints");
        assert!(!line.is_empty(), "repro printed fewer than {lines} lines");
    }
    drop(stdout);
    let out = child.wait_with_output().expect("repro exits");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_reader_that_stops_early_gets_a_quiet_exit() {
    // After one line the rest of the report meets a closed pipe if the
    // reader wins the race; with none read, every line does.
    for lines in [1, 0] {
        let (status, stderr) = input_read_then_closed("load_widen_scalar.fir", lines);
        assert!(status.success(), "{status} after {lines} line(s): {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

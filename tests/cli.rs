//! Integration tests for the `sidr` CLI binary: the full
//! generate → info → plan → query → reassemble flow through the
//! public command-line surface.

use std::process::Command;

fn sidr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sidr"))
}

fn run(cmd: &mut Command) -> (bool, String) {
    let out = cmd.output().expect("binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// A directory of the calling test's own: tests run on parallel
/// threads of one process and each removes its directory when done.
fn temp_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sidr-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_flow() {
    let dir = temp_dir("flow");
    let data = dir.join("t.scinc");

    // generate
    let (ok, text) = run(sidr().args([
        "generate",
        "--kind",
        "temperature",
        "--shape",
        "28,10,10",
        "--seed",
        "5",
        "--out",
        data.to_str().unwrap(),
    ]));
    assert!(ok, "{text}");
    assert!(text.contains("temperature"), "{text}");

    // info
    let (ok, text) = run(sidr().args(["info", data.to_str().unwrap()]));
    assert!(ok, "{text}");
    assert!(text.contains("time = 28;"), "{text}");

    // plan
    let (ok, text) = run(sidr().args([
        "plan",
        "mean(temperature) over {7,5,1}",
        "--input",
        data.to_str().unwrap(),
        "--reducers",
        "2",
    ]));
    assert!(ok, "{text}");
    assert!(text.contains("keyblock 0"), "{text}");
    assert!(text.contains("submission document"), "{text}");

    // query with dense output + reassembly
    let parts = dir.join("parts");
    let combined = dir.join("combined.scinc");
    let (ok, text) = run(sidr().args([
        "query",
        "mean(temperature) over {7,5,1}",
        "--input",
        data.to_str().unwrap(),
        "--reducers",
        "2",
        "--output",
        parts.to_str().unwrap(),
        "--combined",
        combined.to_str().unwrap(),
    ]));
    assert!(ok, "{text}");
    assert!(text.contains("SIDR produced 80 records"), "{text}");
    assert!(combined.exists());

    // The combined file holds the full intermediate space.
    let (ok, text) = run(sidr().args(["info", combined.to_str().unwrap()]));
    assert!(ok, "{text}");
    assert!(text.contains("d0 = 4;"), "{text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn simulate_prints_paper_scale_summary() {
    let (ok, text) = run(sidr().args([
        "simulate",
        "median(windspeed) over {2,36,36,10}",
        "--space",
        "7200,360,720,50",
        "--reducers",
        "66",
    ]));
    assert!(ok, "{text}");
    assert!(text.contains("3600 maps"), "{text}");
    assert!(text.contains("first result"), "{text}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let dir = temp_dir("bad-inputs");
    // Unknown command.
    let (ok, text) = run(sidr().args(["frobnicate"]));
    assert!(!ok);
    assert!(text.contains("unknown command"), "{text}");
    // Missing required flag.
    let (ok, text) = run(sidr().args(["generate", "--kind", "temperature"]));
    assert!(!ok);
    assert!(text.contains("--shape"), "{text}");
    // Unparseable query.
    let data = dir.join("q.scinc");
    run(sidr().args([
        "generate",
        "--kind",
        "windspeed",
        "--shape",
        "8,8",
        "--out",
        data.to_str().unwrap(),
    ]));
    let (ok, text) = run(sidr().args([
        "query",
        "frobnicate(windspeed) over {2,2}",
        "--input",
        data.to_str().unwrap(),
    ]));
    assert!(!ok);
    assert!(text.contains("unknown operator"), "{text}");
    // The removed `--validate` flag is refused, not parsed as taking
    // the next flag for its value.
    let (ok, text) = run(sidr().args([
        "query",
        "mean(windspeed) over {2,2}",
        "--input",
        data.to_str().unwrap(),
        "--validate",
        "--output",
        dir.join("parts").to_str().unwrap(),
    ]));
    assert!(!ok);
    assert!(text.contains("always runs"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_prints_usage() {
    let (ok, text) = run(sidr().args(["help"]));
    assert!(ok);
    assert!(text.contains("USAGE"), "{text}");
}

//! Exit-code contract of the repro binaries: a CI step must never
//! silently no-op on a mistyped flag (`--seeds 0` used to run zero seeds
//! and exit 0). Usage errors exit 2; the seeded campaigns (chaos,
//! overload, conformance, explore) and `repro_check` exit 3 on findings
//! and 0 when clean — the campaign driver's own test pins that a failing
//! seed gives 3 and still writes its artifact. `repro_trace`'s stdout is
//! pinned byte for byte.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary spawns")
}

fn assert_usage_error(out: &Output, what: &str) {
    assert_eq!(out.status.code(), Some(2), "{what}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{what} stderr: {stderr}");
}

#[test]
fn repro_chaos_rejects_zero_seeds_and_unknown_flags() {
    let bin = env!("CARGO_BIN_EXE_repro_chaos");
    assert_usage_error(&run(bin, &["--seeds", "0"]), "--seeds 0");
    assert_usage_error(&run(bin, &["--seeds"]), "missing value");
    assert_usage_error(&run(bin, &["--seeds", "x"]), "non-numeric");
    assert_usage_error(&run(bin, &["--sedes", "8"]), "typoed flag");
}

#[test]
fn repro_explore_rejects_zero_seeds_and_unknown_flags() {
    let bin = env!("CARGO_BIN_EXE_repro_explore");
    assert_usage_error(&run(bin, &["--seeds", "0"]), "--seeds 0");
    assert_usage_error(&run(bin, &["--frobnicate"]), "unknown flag");
}

#[test]
fn repro_overload_rejects_zero_seeds_and_unknown_flags() {
    let bin = env!("CARGO_BIN_EXE_repro_overload");
    assert_usage_error(&run(bin, &["--seeds", "0"]), "--seeds 0");
    assert_usage_error(&run(bin, &["--trace-out"]), "missing path");
    assert_usage_error(&run(bin, &["--no-such-flag"]), "unknown flag");
}

#[test]
fn repro_conformance_rejects_zero_seeds_and_unknown_flags() {
    let bin = env!("CARGO_BIN_EXE_repro_conformance");
    assert_usage_error(&run(bin, &["--seeds", "0"]), "--seeds 0");
    assert_usage_error(&run(bin, &["--out"]), "missing directory");
    assert_usage_error(&run(bin, &["--no-such-flag"]), "unknown flag");
}

#[test]
fn repro_table2_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_repro_table2");
    assert_usage_error(&run(bin, &["--reps", "0"]), "--reps 0");
    assert_usage_error(&run(bin, &["--json", "x"]), "removed flag");
    assert_usage_error(&run(bin, &["--bogus"]), "unknown flag");
}

/// `repro_check` carries a three-way exit contract so CI can assert both
/// directions of the analysis: 3 = findings reported (the seeded-defect
/// default mode caught everything), 0 = clean (the fenced/repaired twin
/// drew no false positives), 2 = usage error.
#[test]
fn repro_check_exit_codes_follow_the_contract() {
    let bin = env!("CARGO_BIN_EXE_repro_check");

    let findings = run(bin, &[]);
    assert_eq!(findings.status.code(), Some(3), "{findings:?}");
    let stdout = String::from_utf8_lossy(&findings.stdout);
    for code in [
        "CP001", "CP002", "CP003", "CP006", "CP007", "CP101", "CP201", "CP202", "CP203", "CP204",
    ] {
        assert!(stdout.contains(code), "missing {code} in: {stdout}");
    }
    assert!(stdout.contains("advice[CP203]"), "{stdout}");

    let clean = run(bin, &["--fenced"]);
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("verdict: clean"), "{stdout}");

    assert_usage_error(&run(bin, &["--bogus"]), "unknown flag");
    assert_usage_error(&run(bin, &["--baseline"]), "missing baseline path");
    assert_usage_error(
        &run(bin, &["--baseline", "/nonexistent/cp-check.baseline"]),
        "unreadable baseline",
    );
}

/// The committed repo-root baseline covers every seeded finding: the
/// default run gated on it exits 0 — that file IS the debt register the
/// CI lint gate trusts, so this test is what keeps it honest.
#[test]
fn repro_check_committed_baseline_covers_the_seeded_findings() {
    let bin = env!("CARGO_BIN_EXE_repro_check");
    let repo_baseline = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../cp-check.baseline");
    let out = run(bin, &["--baseline", repo_baseline.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("13 finding(s) suppressed, 0 remain"),
        "{stdout}"
    );
    assert!(stdout.contains("verdict: clean"), "{stdout}");
}

/// `--write-baseline` round-trips: a freshly generated baseline makes
/// the very next run clean.
#[test]
fn repro_check_write_baseline_round_trips() {
    let bin = env!("CARGO_BIN_EXE_repro_check");
    let path = scratch("cp-check.baseline");
    let wrote = run(bin, &["--write-baseline", path.to_str().unwrap()]);
    assert_eq!(wrote.status.code(), Some(0), "{wrote:?}");
    let gated = run(bin, &["--baseline", path.to_str().unwrap()]);
    assert_eq!(gated.status.code(), Some(0), "{gated:?}");
}

/// `--json` appends a machine-readable findings list and `--sarif-out`
/// writes a parseable SARIF 2.1.0 log; both carry the full code set.
#[test]
fn repro_check_emits_parseable_json_and_sarif() {
    let bin = env!("CARGO_BIN_EXE_repro_check");
    let sarif_path = scratch("cp-check.sarif");
    let out = run(
        bin,
        &["--json", "--sarif-out", sarif_path.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    // The JSON document runs from the first `{` on its own line to the
    // matching top-level `}` (the verdict line follows it).
    let stdout = String::from_utf8_lossy(&out.stdout);
    let start = stdout.find("{\n").expect("a JSON document in stdout");
    let end = start + stdout[start..].find("\n}").expect("document closes") + 2;
    let doc = cp_trace::Json::parse(&stdout[start..end]).expect("stdout JSON parses");
    let findings = doc.get("findings").and_then(|f| f.as_arr()).unwrap();
    assert_eq!(findings.len(), 13, "{stdout}");
    let codes: Vec<&str> = findings
        .iter()
        .filter_map(|f| f.get("code").and_then(|c| c.as_str()))
        .collect();
    for code in ["CP001", "CP101", "CP201", "CP202", "CP203", "CP204"] {
        assert!(codes.contains(&code), "missing {code} in {codes:?}");
    }
    assert!(findings.iter().all(|f| {
        f.get("severity").and_then(|s| s.as_str()).is_some()
            && f.get("endpoints").and_then(|e| e.as_arr()).is_some()
    }));

    let sarif = cp_trace::Json::parse(&std::fs::read_to_string(&sarif_path).unwrap())
        .expect("SARIF parses");
    assert_eq!(
        sarif.get("version").and_then(|v| v.as_str()),
        Some("2.1.0"),
        "{sarif:?}"
    );
    let results = sarif
        .get("runs")
        .and_then(|r| r.as_arr())
        .and_then(|r| r[0].get("results"))
        .and_then(|r| r.as_arr())
        .unwrap();
    assert_eq!(results.len(), 13);
}

/// `repro_trace` prints a traced type-5 transfer: every leg with its
/// virtual instant and byte count, then the run's end time, dispatches and
/// hand-offs. Its stdout is pinned by an FNV-1a digest.
#[test]
fn repro_trace_stdout_is_pinned() {
    let out = run(env!("CARGO_BIN_EXE_repro_trace"), &[]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stdout.bytes() {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
    assert_eq!(
        digest, 0x2abe_7476_9c49_2007,
        "repro_trace stdout drifted (got {digest:#018x}):\n{stdout}"
    );
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cp-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

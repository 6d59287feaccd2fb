//! Strict, dependency-free argument parsing shared by the `repro_*`
//! binaries.
//!
//! Every flag error prints the binary's usage line to stderr and exits
//! with status 2 (the conventional "usage error" code, distinct from the
//! status-3 "findings" exit of the campaigns, see [`crate::campaign`]) — a
//! CI step can never silently no-op on a typo like `--seeds 0` or
//! `--sedes 8` again.

/// Print `msg` and the usage line to stderr, then exit with status 2.
pub fn usage_error(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// Parse the value following a flag as an integer in `[min, max]`.
/// Missing, unparsable or out-of-range values are usage errors.
pub fn parse_int_flag(usage: &str, flag: &str, value: Option<String>, min: u64, max: u64) -> u64 {
    let Some(raw) = value else {
        usage_error(usage, &format!("{flag} requires a value"));
    };
    match raw.parse::<u64>() {
        Ok(n) if (min..=max).contains(&n) => n,
        Ok(n) => usage_error(
            usage,
            &format!("{flag} {n} is out of range (expected {min}..={max})"),
        ),
        Err(_) => usage_error(usage, &format!("{flag} takes a number, got {raw:?}")),
    }
}

/// Parse the value following a flag as a non-empty string (a path or a
/// label). A missing value is a usage error.
pub fn parse_str_flag(usage: &str, flag: &str, value: Option<String>) -> String {
    match value {
        Some(v) if !v.is_empty() => v,
        _ => usage_error(usage, &format!("{flag} requires a value")),
    }
}

/// Reject an unrecognized argument.
pub fn unknown_flag(usage: &str, arg: &str) -> ! {
    usage_error(usage, &format!("unknown argument {arg:?}"))
}

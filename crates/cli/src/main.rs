//! The `ldiv` binary: a thin shell over `ldiv_cli::run_bytes`.
//!
//! Exit-code contract: 0 on success, 1 on user/runtime errors, 2 on
//! usage mistakes (`LdivError::exit_code`). Output goes to stdout as
//! raw bytes — text commands print text, `--format bin` and
//! `wire encode` emit LDVW binary blocks.
//!
//! The binary is the workspace's only reader of the environment: three
//! settings without a flag are applied once, before arguments are
//! parsed ([`apply_environment`]).

use std::io::Write as _;

/// Applies `LDIV_TRACE` (`1`/`true`/`on`/`yes` arms request tracing),
/// `LDIV_SLOW_MS` (logs traces slower than that many milliseconds to
/// stderr) and `LDIV_FAULT` (installs a fault plan; an invalid one is
/// reported and ignored).
fn apply_environment() {
    if let Ok(v) = std::env::var("LDIV_TRACE") {
        if matches!(v.trim(), "1" | "true" | "on" | "yes") {
            ldiv_obs::set_armed(true);
        }
    }
    if let Some(ms) = std::env::var("LDIV_SLOW_MS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
    {
        ldiv_obs::set_slow_ms(ms);
    }
    if let Ok(spec) = std::env::var("LDIV_FAULT") {
        match ldiv_guard::fault::FaultPlan::parse(&spec) {
            Ok(plan) => ldiv_guard::fault::install(Some(plan)),
            Err(why) => eprintln!("ldiv: ignoring invalid LDIV_FAULT={spec:?}: {why}"),
        }
    }
}

fn main() {
    apply_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match ldiv_cli::Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", ldiv_cli::USAGE);
            std::process::exit(e.exit_code());
        }
    };
    match ldiv_cli::run_bytes(&opts) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            if stdout
                .write_all(&out)
                .and_then(|()| stdout.flush())
                .is_err()
            {
                std::process::exit(1); // broken pipe: die quietly
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

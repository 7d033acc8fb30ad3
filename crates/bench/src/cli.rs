//! Shared command-line handling for `aquila-bench <figure>`.
//!
//! Every figure accepts, in addition to its own part names and flags:
//!
//! - `--json <path>` — write a schema-versioned machine-readable record
//!   of the run (see [`crate::report::JsonReport`]);
//! - `--trace <path>` — install the global tracer and write a Chrome
//!   `trace_event` file of the run, viewable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! - `--race` — install the deterministic race detector
//!   ([`aquila_sim::race`]) and print its summary at the end of the run,
//!   exiting with status 3 if any finding was reported;
//! - `--faults <spec>` — install the process-global fault plan
//!   ([`aquila_sim::fault`]); every NVMe device the run builds injects
//!   the planned faults at their seeded virtual-time points (grammar in
//!   EXPERIMENTS.md, e.g. `nvme.write:media_error@op=1000`). The empty
//!   spec installs an empty plan, which is bit-identical to running
//!   without the flag.
//!
//! Either flag also installs the global metrics registry so subsystem
//! counters/gauges land in the JSON record. Without them, the figures
//! run exactly as before — the instrumentation sites are no-ops, and
//! because observability never charges virtual cycles the simulated
//! results are bit-identical either way.

use std::path::PathBuf;

use crate::report::JsonReport;

/// Parsed common arguments plus the figure-specific remainder.
#[derive(Debug)]
pub struct BenchArgs {
    /// Arguments left after extracting the common flags (part names
    /// like `a`/`b`/`c` and flags like `--full`).
    pub rest: Vec<String>,
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    race: bool,
    faults: Option<String>,
}

impl BenchArgs {
    /// Parses a figure's arguments, extracting the common flags and
    /// installing the fault plan, tracer, race detector and metrics
    /// registry as requested.
    pub fn from_vec(args: Vec<String>) -> BenchArgs {
        let mut rest = Vec::new();
        let mut json = None;
        let mut trace = None;
        let mut race = false;
        let mut faults = None;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => match it.next() {
                    Some(p) => json = Some(PathBuf::from(p)),
                    None => usage_error("--json requires a path"),
                },
                "--trace" => match it.next() {
                    Some(p) => trace = Some(PathBuf::from(p)),
                    None => usage_error("--trace requires a path"),
                },
                "--race" => race = true,
                "--faults" => match it.next() {
                    Some(s) => faults = Some(s),
                    None => usage_error("--faults requires a spec (may be empty)"),
                },
                _ => rest.push(a),
            }
        }
        let parsed = BenchArgs {
            rest,
            json,
            trace,
            race,
            faults,
        };
        if let Some(spec) = &parsed.faults {
            if let Err(e) = aquila_sim::fault::install_spec(spec) {
                usage_error(&format!("--faults: {e}"));
            }
        }
        if parsed.trace.is_some() {
            aquila_sim::trace::install(aquila_sim::trace::DEFAULT_CAPACITY);
        }
        if parsed.race {
            aquila_sim::race::install();
        }
        if parsed.json.is_some() || parsed.trace.is_some() {
            // Shards wrap (`core % shards`), so this only needs to be an
            // upper bound on the simulated core count; the paper's
            // testbed is 32.
            aquila_sim::metrics::install(64);
        }
        parsed
    }

    /// Whether a boolean flag (e.g. `--full`) is present.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// Whether a JSON record was requested.
    pub fn wants_json(&self) -> bool {
        self.json.is_some()
    }

    /// Whether the race detector was requested with `--race`.
    pub fn wants_race(&self) -> bool {
        self.race
    }

    /// The `--faults` spec, if the flag was given (possibly empty).
    pub fn fault_spec(&self) -> Option<&str> {
        self.faults.as_deref()
    }

    /// Writes the requested artifacts (JSON record and/or Chrome trace),
    /// printing where each landed, then — under `--race` — prints the
    /// race-detector summary and exits 3 if it reported anything.
    pub fn finish(&self, report: &JsonReport) {
        if let Some(path) = &self.json {
            match report.write(path) {
                Ok(()) => println!("wrote JSON record: {}", path.display()),
                Err(e) => {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.trace {
            let tracer = aquila_sim::trace::global().expect("installed in parse");
            match tracer.write_chrome(path) {
                Ok(()) => {
                    let dropped = tracer.dropped();
                    let kept = tracer.len();
                    print!("wrote Chrome trace: {} ({kept} events", path.display());
                    if dropped > 0 {
                        print!(", {dropped} oldest dropped");
                    }
                    println!(") - open in https://ui.perfetto.dev");
                }
                Err(e) => {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if self.race {
            let det = aquila_sim::race::global().expect("installed in parse");
            println!("{}", det.summary());
            if !det.findings().is_empty() {
                std::process::exit(3);
            }
        }
    }
}

/// Prints `msg` to stderr and exits 2, the status for bad command lines.
pub(crate) fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extracts_common_flags_and_keeps_rest() {
        let a = BenchArgs::from_vec(argv(&[
            "c", "--json", "r.json", "--full", "--trace", "t.json",
        ]));
        assert_eq!(a.rest, vec!["c", "--full"]);
        assert!(!a.wants_race());
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("r.json")));
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(a.wants_json());
        assert!(a.has_flag("--full"));
    }
}

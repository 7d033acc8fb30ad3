//! Part registry shared by the figure binaries.
//!
//! Every `fig*` binary is a set of named *parts* (`a`/`b`/`c`,
//! `fit`/`nofit`, per-device cases, ...) behind the same CLI shape. The
//! binaries used to hand-roll a `match args.selector(..)` dispatch each;
//! a [`Runner`] replaces that with registration:
//!
//! ```no_run
//! use aquila_bench::{BenchArgs, Runner};
//!
//! Runner::new("fig8", "Page-fault overhead breakdowns")
//!     .part("a", "dataset fits in memory", |_args, report| {
//!         report.add_scalar("8a/demo", 1.0);
//!     })
//!     .run(BenchArgs::parse(), "all");
//! ```
//!
//! Selection rules, shared by every binary:
//!
//! - positional selectors name parts (`fig8 a b`); `all` selects every
//!   part; no selector runs the `default` set passed to [`Runner::run`];
//! - a `--<part>` flag also selects that part, so the historical
//!   `fig5 --nofit` / `fig10 --fit` spellings keep working;
//! - `--list` prints the registered parts and exits without running;
//! - an unknown selector prints usage and exits 2.
//!
//! Parts run in registration order regardless of selector order, each at
//! most once, all against the same [`JsonReport`]. The record carries the
//! binary's title, or the part's description when exactly one part runs
//! (so `sweep scale --json` is titled after the scale sweep). The runner
//! calls [`BenchArgs::finish`] at the end so artifacts and the race
//! summary behave exactly as before.

use crate::cli::BenchArgs;
use crate::report::JsonReport;

type PartFn<'a> = Box<dyn FnMut(&BenchArgs, &mut JsonReport) + 'a>;

struct Part<'a> {
    name: &'static str,
    what: &'static str,
    body: PartFn<'a>,
}

/// A figure binary as a registry of named parts.
pub struct Runner<'a> {
    bin: &'static str,
    report: JsonReport,
    parts: Vec<Part<'a>>,
}

impl<'a> Runner<'a> {
    /// Creates a runner for binary `bin`; `title` seeds the JSON record
    /// when more than one part runs.
    pub fn new(bin: &'static str, title: &str) -> Runner<'a> {
        Runner {
            bin,
            report: JsonReport::new(bin, title),
            parts: Vec::new(),
        }
    }

    /// Registers a part. `name` is the CLI selector; `what` the one-line
    /// description shown by `--list`.
    pub fn part(
        mut self,
        name: &'static str,
        what: &'static str,
        body: impl FnMut(&BenchArgs, &mut JsonReport) + 'a,
    ) -> Runner<'a> {
        debug_assert!(
            !self.parts.iter().any(|p| p.name == name),
            "duplicate part {name:?}"
        );
        self.parts.push(Part {
            name,
            what,
            body: Box::new(body),
        });
        self
    }

    /// Resolves selection, runs the chosen parts in registration order,
    /// and writes the requested artifacts. `default` is the selector
    /// used when the command line names no part (usually `"all"`).
    pub fn run(mut self, args: BenchArgs, default: &str) {
        if args.has_flag("--list") {
            println!("parts of {}:", self.bin);
            for p in &self.parts {
                println!("  {:<8} {}", p.name, p.what);
            }
            println!("  {:<8} every part above", "all");
            return;
        }
        let mut selected: Vec<String> = args
            .rest
            .iter()
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .collect();
        // `--fit`-style flags select the part of the same name.
        for p in &self.parts {
            if args.has_flag(&format!("--{}", p.name)) {
                selected.push(p.name.to_string());
            }
        }
        if selected.is_empty() {
            selected.push(default.to_string());
        }
        let all = selected.iter().any(|s| s == "all");
        for s in &selected {
            if s != "all" && !self.parts.iter().any(|p| p.name == s) {
                eprintln!(
                    "error: {}: unknown part {s:?}\nusage: {} [{}|all] [--list] [--full] [--json <path>] [--trace <path>] [--race] [--faults <spec>]",
                    self.bin,
                    self.bin,
                    self.parts
                        .iter()
                        .map(|p| p.name)
                        .collect::<Vec<_>>()
                        .join("|"),
                );
                std::process::exit(2);
            }
        }
        self.parts
            .retain(|p| all || selected.iter().any(|s| s == p.name));
        if let [only] = &self.parts[..] {
            self.report.set_title(only.what);
        }
        for p in &mut self.parts {
            (p.body)(&args, &mut self.report);
        }
        args.finish(&self.report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> BenchArgs {
        BenchArgs::from_vec(args.iter().map(|s| s.to_string()).collect())
    }

    fn runner<'a>(ran: &'a std::cell::RefCell<Vec<&'static str>>) -> Runner<'a> {
        Runner::new("figX", "test")
            .part("a", "first", move |_, _| ran.borrow_mut().push("a"))
            .part("b", "second", move |_, _| ran.borrow_mut().push("b"))
    }

    #[test]
    fn default_selector_and_registration_order() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).run(argv(&[]), "all");
        assert_eq!(*ran.borrow(), vec!["a", "b"]);
    }

    #[test]
    fn positional_selector_picks_one_part() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).run(argv(&["b"]), "all");
        assert_eq!(*ran.borrow(), vec!["b"]);
    }

    #[test]
    fn flag_selects_part_and_each_runs_once() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).run(argv(&["b", "--b", "--a"]), "all");
        assert_eq!(*ran.borrow(), vec!["a", "b"]);
    }

    #[test]
    fn narrow_default_runs_only_that_part() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).run(argv(&["--full"]), "a");
        assert_eq!(*ran.borrow(), vec!["a"]);
    }

    #[test]
    fn json_title_follows_a_single_part() {
        let title = |sel: &[&str]| {
            let seen = std::cell::RefCell::new(String::new());
            let record = |_: &BenchArgs, r: &mut JsonReport| {
                let t = r
                    .to_json()
                    .get("title")
                    .and_then(|t| t.as_str())
                    .map(String::from);
                *seen.borrow_mut() = t.unwrap_or_default();
            };
            Runner::new("figX", "binary title")
                .part("a", "first part", record)
                .part("b", "second part", record)
                .run(argv(sel), "all");
            seen.into_inner()
        };
        assert_eq!(title(&["b"]), "second part");
        assert_eq!(title(&["a", "b"]), "binary title");
        assert_eq!(title(&["all"]), "binary title");
    }

    #[test]
    fn list_runs_nothing() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).run(argv(&["--list", "a"]), "all");
        assert!(ran.borrow().is_empty());
    }
}

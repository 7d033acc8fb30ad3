//! Part registry shared by the figures.
//!
//! Every figure `aquila-bench` regenerates is a set of named *parts*
//! (`a`/`b`/`c`, `fit`/`nofit`, per-device cases, ...) behind the same
//! CLI shape, registered on a [`Runner`]:
//!
//! ```no_run
//! use aquila_bench::{BenchArgs, Runner};
//!
//! Runner::new("fig8", "Page-fault overhead breakdowns")
//!     .part("a", "dataset fits in memory", |_args, report| {
//!         report.add_scalar("8a/demo", 1.0);
//!     })
//!     .run(BenchArgs::from_vec(vec!["a".into()]));
//! ```
//!
//! Selection rules, shared by every figure:
//!
//! - positional arguments name parts (`fig8 a b`); `all` selects every
//!   part; no part named runs the figure's default (`all` unless set
//!   with [`Runner::default_part`]);
//! - `--list` prints the registered parts and exits without running;
//! - an unknown part prints usage and exits 2.
//!
//! Parts run in registration order regardless of selector order, each at
//! most once, all against the same [`JsonReport`]. The record carries the
//! figure's title, or the part's description when exactly one part runs
//! (so `sweep scale --json` is titled after the scale sweep). The runner
//! calls [`BenchArgs::finish`] at the end so artifacts and the race
//! summary are written the same way for every figure.

use crate::cli::BenchArgs;
use crate::report::JsonReport;

type PartFn<'a> = Box<dyn FnMut(&BenchArgs, &mut JsonReport) + 'a>;

struct Part<'a> {
    name: &'static str,
    what: &'static str,
    body: PartFn<'a>,
}

/// A figure as a registry of named parts.
pub struct Runner<'a> {
    figure: &'static str,
    default: &'static str,
    report: JsonReport,
    parts: Vec<Part<'a>>,
}

impl<'a> Runner<'a> {
    /// Creates a runner for `figure` (its CLI name and the record's
    /// `figure` field); `title` seeds the JSON record when more than one
    /// part runs.
    pub fn new(figure: &'static str, title: &str) -> Runner<'a> {
        Runner {
            figure,
            default: "all",
            report: JsonReport::new(figure, title),
            parts: Vec::new(),
        }
    }

    /// The figure's CLI name.
    pub fn figure(&self) -> &'static str {
        self.figure
    }

    /// Sets the part run when the command line names none (default
    /// `all`).
    pub fn default_part(mut self, name: &'static str) -> Runner<'a> {
        self.default = name;
        self
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

    /// The `--list` text: every part with its description.
    pub fn listing(&self) -> String {
        let mut out = format!("parts of {}:\n", self.figure);
        for p in &self.parts {
            out += &format!("  {:<8} {}\n", p.name, p.what);
        }
        out + &format!("  {:<8} every part above\n", "all")
    }

    /// Resolves selection, runs the chosen parts in registration order,
    /// and writes the requested artifacts.
    pub fn run(mut self, args: BenchArgs) {
        if args.has_flag("--list") {
            print!("{}", self.listing());
            return;
        }
        let mut selected: Vec<&str> = args
            .rest
            .iter()
            .map(String::as_str)
            .filter(|a| !a.starts_with("--"))
            .collect();
        if selected.is_empty() {
            selected.push(self.default);
        }
        if let Some(s) = selected
            .iter()
            .find(|&&s| s != "all" && !self.parts.iter().any(|p| p.name == s))
        {
            let parts: Vec<&str> = self.parts.iter().map(|p| p.name).collect();
            crate::cli::usage_error(&format!(
                "{}: unknown part {s:?}\nusage: aquila-bench {} [{}|all] [--list] [--full] [--json <path>] [--trace <path>] [--race] [--faults <spec>]",
                self.figure,
                self.figure,
                parts.join("|"),
            ));
        }
        let all = selected.contains(&"all");
        self.parts.retain(|p| all || selected.contains(&p.name));
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
        runner(&ran).run(argv(&[]));
        assert_eq!(*ran.borrow(), vec!["a", "b"]);
    }

    #[test]
    fn positional_selector_picks_one_part() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).run(argv(&["b"]));
        assert_eq!(*ran.borrow(), vec!["b"]);
    }

    #[test]
    fn each_part_runs_once_in_registration_order() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).run(argv(&["b", "a", "b"]));
        assert_eq!(*ran.borrow(), vec!["a", "b"]);
    }

    #[test]
    fn part_named_flag_selects_nothing() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).default_part("a").run(argv(&["--b"]));
        assert_eq!(*ran.borrow(), vec!["a"]);
    }

    #[test]
    fn narrow_default_runs_only_that_part() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).default_part("a").run(argv(&["--full"]));
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
            Runner::new("figX", "figure title")
                .part("a", "first part", record)
                .part("b", "second part", record)
                .run(argv(sel));
            seen.into_inner()
        };
        assert_eq!(title(&["b"]), "second part");
        assert_eq!(title(&["a", "b"]), "figure title");
        assert_eq!(title(&["all"]), "figure title");
    }

    #[test]
    fn list_runs_nothing() {
        let ran = std::cell::RefCell::new(Vec::new());
        runner(&ran).run(argv(&["--list", "a"]));
        assert!(ran.borrow().is_empty());
    }
}

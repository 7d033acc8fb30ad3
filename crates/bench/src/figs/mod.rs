//! The figures `aquila-bench` regenerates, and its command-line dispatch.
//!
//! `aquila-bench <figure> [part..] [flags]` picks a figure by its first
//! argument and hands the rest to that figure's [`Runner`], so part
//! selection and the common flags (`--json`/`--trace`/`--race`/
//! `--faults`, see [`crate::cli`]) live in exactly one place.
//! `aquila-bench --list` prints every figure's parts.

pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod serve;
pub mod sweep;
pub mod table1;

use crate::Runner;

/// Every figure's part registry, in `--list` order. A figure's name is
/// the one its [`Runner`] was created with.
const FIGURES: [fn() -> Runner<'static>; 9] = [
    table1::runner,
    fig5::runner,
    fig6::runner,
    fig7::runner,
    fig8::runner,
    fig9::runner,
    fig10::runner,
    sweep::runner,
    serve::runner,
];

/// What an `aquila-bench` command line asks for.
pub enum Command {
    /// Run this figure with the arguments that followed its name.
    Run(Box<Runner<'static>>, Vec<String>),
    /// Print this text (every figure's parts) and exit 0.
    List(String),
    /// Print this error and [`usage`] to stderr and exit 2.
    Usage(String),
}

/// Resolves the figure named by the first argument.
pub fn dispatch(mut args: Vec<String>) -> Command {
    let Some(first) = args.first() else {
        return Command::Usage("no figure named".to_string());
    };
    if first == "--list" {
        let runners = FIGURES.iter().map(|f| f());
        return Command::List(runners.map(|r| r.listing()).collect());
    }
    match FIGURES.iter().map(|f| f()).find(|r| r.figure() == first) {
        Some(runner) => {
            args.remove(0);
            Command::Run(Box::new(runner), args)
        }
        None => Command::Usage(format!("unknown figure {first:?}")),
    }
}

/// The top-level usage text.
pub fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|f| f().figure()).collect();
    format!(
        "usage: aquila-bench <figure> [part..|all] [--list] [--full] [--json <path>] [--trace <path>] [--race] [--faults <spec>]\n       aquila-bench --list\nfigures: {}\n",
        names.join("|")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_or_missing_figure_is_a_usage_error() {
        for args in [&[][..], &["fig11"][..], &["a", "fig8"][..]] {
            assert!(
                matches!(dispatch(argv(args)), Command::Usage(_)),
                "{args:?} must be a usage error"
            );
        }
    }

    #[test]
    fn figure_name_picks_its_runner_and_passes_the_rest() {
        let Command::Run(runner, rest) = dispatch(argv(&["fig10", "fit", "--tiny"])) else {
            panic!("fig10 must dispatch");
        };
        assert_eq!(runner.figure(), "fig10");
        assert_eq!(rest, argv(&["fit", "--tiny"]));
    }

    #[test]
    fn list_names_every_figure_and_part() {
        let Command::List(text) = dispatch(argv(&["--list"])) else {
            panic!("--list must list");
        };
        let expected: &[(&str, &[&str])] = &[
            ("table1", &["workloads"]),
            ("fig5", &["fit", "nofit"]),
            ("fig6", &["small", "large"]),
            ("fig7", &["breakdown"]),
            ("fig8", &["a", "b", "c"]),
            ("fig9", &["nvme", "pmem"]),
            ("fig10", &["fit", "nofit"]),
            ("sweep", &["qd", "watermark", "tlb", "latency", "scale"]),
            ("serve", &["qos", "diurnal", "integrity"]),
        ];
        let blocks: Vec<&str> = text.split("parts of ").skip(1).collect();
        assert_eq!(blocks.len(), expected.len(), "{text}");
        for (block, (figure, parts)) in blocks.iter().zip(expected) {
            let mut lines = block.lines();
            assert_eq!(lines.next(), Some(&*format!("{figure}:")), "{text}");
            let names: Vec<&str> = lines.filter_map(|l| l.split_whitespace().next()).collect();
            let mut want = parts.to_vec();
            want.push("all");
            assert_eq!(names, want, "{figure}");
        }
    }
}

//! `aquila-bench` — regenerates the paper's evaluation, one figure per
//! invocation:
//!
//! - `aquila-bench <figure> [part..|all] [flags]` runs a figure's parts
//!   (its default part when none is named);
//! - `aquila-bench <figure> --list` prints that figure's parts;
//! - `aquila-bench --list` prints every figure's parts.
//!
//! A missing or unknown figure or part prints usage and exits 2. The
//! figures and the common flags are documented in
//! [`aquila_bench::figs`] and [`aquila_bench::cli`].

use std::process::ExitCode;

use aquila_bench::figs::{self, Command};
use aquila_bench::BenchArgs;

fn main() -> ExitCode {
    match figs::dispatch(std::env::args().skip(1).collect()) {
        Command::Run(runner, rest) => runner.run(BenchArgs::from_vec(rest)),
        Command::List(text) => print!("{text}"),
        Command::Usage(err) => {
            eprint!("error: {err}\n{}", figs::usage());
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

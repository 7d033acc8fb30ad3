//! The figure/sweep binaries as library modules.
//!
//! Each binary under `src/bin/` used to carry its own `fn main()` with
//! an identical shape: build a [`crate::Runner`], register parts, parse
//! [`crate::BenchArgs`], run. Those mains are now one-line shims over
//! [`crate::cli::main_for`], which looks the binary up in [`BINS`] —
//! so flag handling (`--json`/`--trace`/`--race`/`--faults`/part
//! selection) lives in exactly one place and a new binary (like
//! `serve`) gets the whole surface for free.

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

/// One registered binary: its name, the part selector used when the
/// command line names none, and the function building its part registry.
pub struct Bin {
    /// Binary name (matches the `src/bin/<name>.rs` shim).
    pub name: &'static str,
    /// Default part selector (usually `"all"`).
    pub default: &'static str,
    /// Builds the binary's part registry.
    pub build: fn() -> Runner<'static>,
}

/// Every part-registry binary the bench crate ships.
pub const BINS: &[Bin] = &[
    Bin {
        name: "fig5",
        default: "all",
        build: fig5::runner,
    },
    Bin {
        name: "fig6",
        default: "small",
        build: fig6::runner,
    },
    Bin {
        name: "fig7",
        default: "all",
        build: fig7::runner,
    },
    Bin {
        name: "fig8",
        default: "all",
        build: fig8::runner,
    },
    Bin {
        name: "fig9",
        default: "all",
        build: fig9::runner,
    },
    Bin {
        name: "fig10",
        default: "all",
        build: fig10::runner,
    },
    Bin {
        name: "table1",
        default: "all",
        build: table1::runner,
    },
    Bin {
        name: "sweep",
        default: "all",
        build: sweep::runner,
    },
    Bin {
        name: "serve",
        default: "all",
        build: serve::runner,
    },
];

/// Looks a binary up by name.
pub fn find(name: &str) -> Option<&'static Bin> {
    BINS.iter().find(|b| b.name == name)
}

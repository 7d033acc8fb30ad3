//! Table 1: the standard YCSB workloads.

use crate::{BenchArgs, JsonReport, Runner};
use aquila_ycsb::Workload;

/// Builds this figure's part registry (dispatched by `figs::dispatch`).
pub fn runner() -> Runner<'static> {
    Runner::new("table1", "Standard YCSB workloads").part(
        "workloads",
        "the paper's YCSB workload definitions",
        print_table,
    )
}

fn print_table(_args: &BenchArgs, json: &mut JsonReport) {
    println!("Table 1. Standard YCSB Workloads.");
    println!();
    println!("  {:<4} Workload", "");
    for w in Workload::ALL {
        println!("  {:<4} {}", w.label(), w.description());
    }
    println!();
    println!(
        "Key size {} B, value size {} B, scan length {} (paper section 5/6.1).",
        aquila_ycsb::workload::KEY_SIZE,
        aquila_ycsb::workload::VALUE_SIZE,
        aquila_ycsb::workload::SCAN_LEN
    );
    json.add_scalar("key_size_bytes", aquila_ycsb::workload::KEY_SIZE as f64);
    json.add_scalar("value_size_bytes", aquila_ycsb::workload::VALUE_SIZE as f64);
    json.add_scalar("scan_len", aquila_ycsb::workload::SCAN_LEN as f64);
}

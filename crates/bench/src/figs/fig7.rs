//! Figure 7: RocksDB per-read cycle breakdown — user-space caching +
//! read/write syscalls vs Aquila mmio.
//!
//! Paper: user-space cache configuration needs 65.4 K cycles per get
//! (device I/O 4.8 K, cache management 45.2 K — of which syscalls ~13 K
//! and user-space lookups/evictions ~32 K — and get logic 15.3 K).
//! Aquila needs 3.9 K for I/O, ~17.5 K for cache management, and 18.5 K
//! for get (extra TLB misses), i.e. 2.58x fewer cache-management cycles
//! and ~40% higher throughput.

use std::sync::Arc;

use crate::kvscen::{build_stone, load_stone, warm_stone, Backend, Dev};
use crate::report::{banner, fig7_bars, JsonReport};
use crate::{BenchArgs, Runner};
use aquila_sim::{Breakdown, CoreDebts, FreeCtx};
use aquila_ycsb::{run_ops, Distribution, Workload};

/// Builds this figure's part registry (dispatched by `figs::dispatch`).
pub fn runner() -> Runner<'static> {
    Runner::new("fig7", "RocksDB per-get cycle breakdown").part(
        "breakdown",
        "per-get cycles, user-space cache vs Aquila",
        run_breakdown,
    )
}

fn run_breakdown(args: &BenchArgs, json: &mut JsonReport) {
    let full = args.has_flag("--full");
    let records: u64 = if full { 65_536 } else { 16_384 };
    // Cache = 1/4 of the dataset (the paper's 8 GB cache / 32 GB dataset).
    let dataset_pages = records / 2; // ~2 records per 4 KiB of SST data.
    let cache_frames = (dataset_pages / 4) as usize;
    let ops = if full { 40_000 } else { 12_000 };

    banner(
        "Figure 7: RocksDB per-get cycle breakdown (YCSB-C, dataset 4x cache, pmem)",
        "user-cache 65.4K total (io 4.8K / cache 45.2K / get 15.3K); aquila ~40K (3.9/17.5/18.5), 2.58x less cache mgmt",
    );

    let mut totals = Vec::new();
    for backend in [Backend::DirectIo, Backend::Aquila] {
        let debts = Arc::new(CoreDebts::new(1));
        let scen = build_stone(backend, Dev::Pmem, 1, cache_frames, 1 << 20, false, debts);
        let mut ctx = FreeCtx::new(7);
        load_stone(&mut ctx, &scen.db, records);
        // Warm into steady state, then measure.
        warm_stone(&mut ctx, &scen.db, records / 4);
        scen.reset_timing();
        let before: Breakdown = ctx.breakdown.clone();
        let db = Arc::clone(&scen.db);
        let report = run_ops(
            &mut ctx,
            Workload::C,
            Distribution::Uniform,
            records,
            ops,
            42,
            |ctx, op| {
                let _ = db.get(ctx, &op.key);
            },
        );
        let delta = ctx.breakdown.since(&before);
        json.add_breakdown(&scen.label, &delta, ops);
        json.add_counters(&scen.label, &ctx.stats);
        json.add_hist(&scen.label, &report.latency);
        let (dev, cache, get) = fig7_bars(&delta, ops);
        let total = dev + cache + get;
        println!(
            "{:<22} {:>8} cyc/get   [device-io {:>6} | cache-mgmt {:>6} | get {:>6}]   {:.1} kops/s",
            scen.label,
            total,
            dev,
            cache,
            get,
            report.kops_per_sec()
        );
        totals.push((backend, total as f64, cache as f64, report.kops_per_sec()));
    }
    let (_, _, ucache_cm, ucache_kops) = totals[0];
    let (_, _, aq_cm, aq_kops) = totals[1];
    println!();
    println!(
        "  -> cache-management cycles: {:.2}x fewer with Aquila (paper: 2.58x)",
        ucache_cm / aq_cm
    );
    println!(
        "  -> end-to-end throughput:   {:.0}% higher with Aquila (paper: ~40%)",
        (aq_kops / ucache_kops - 1.0) * 100.0
    );
    json.add_scalar("cache_mgmt_ratio", ucache_cm / aq_cm);
    json.add_scalar("throughput_gain_pct", (aq_kops / ucache_kops - 1.0) * 100.0);
}

//! Figure 9: Kreon (Krill) over kmmap vs over Aquila — all YCSB
//! workloads, single thread, dataset 2x the cache, NVMe and pmem.
//!
//! Paper: with NVMe the device bounds throughput (Aquila ~1.02x) but
//! latency improves (1.29x average, 3.78x p99.9); with pmem Aquila gets
//! 1.22x throughput, 1.43x average latency, and 13.72x p99.9 (kmmap's
//! lazy-writeback bursts land on the faulting thread's tail).

use std::sync::Arc;

use crate::report::{banner, print_rows, JsonReport, Row};
use crate::{BenchArgs, Dev, Runner};
use aquila::{AquilaRegion, AquilaRuntime, DeviceKind};
use aquila_devices::{NvmeDevice, PmemDevice};
use aquila_kvstore::{Krill, KrillConfig};
use aquila_linuxsim::{KernelDevice, LinuxConfig, LinuxMmap, LinuxRegion};
use aquila_sim::{CoreDebts, FreeCtx, MemRegion};
use aquila_ycsb::workload::{value_of, KeyGen, OpKind, VALUE_SIZE};
use aquila_ycsb::{run_ops, Distribution, Workload};

struct Setup {
    krill: Krill,
    label: String,
    reset: Box<dyn Fn()>,
}

fn build(aquila: bool, dev: Dev, region_pages: u64, cache_frames: usize) -> Setup {
    let debts = Arc::new(CoreDebts::new(1));
    let mut ctx = FreeCtx::new(0xF9);
    let cfg = KrillConfig {
        l0_entries: 512,
        max_runs: 4,
        log_frac: 0.6,
    };
    if aquila {
        let kind = match dev {
            Dev::Nvme => DeviceKind::NvmeSpdk,
            Dev::Pmem => DeviceKind::PmemDax,
        };
        let rt = AquilaRuntime::build(&mut ctx, kind, region_pages + 4096, cache_frames, 1, debts);
        let f = rt.open("/krill.db", region_pages).expect("open");
        let region =
            AquilaRegion::map(&mut ctx, Arc::clone(&rt.aquila), f, region_pages).expect("region");
        // Kreon's accesses (index pages, log offsets) are random; the
        // port advises the mapping accordingly (kmmap does no readahead).
        rt.aquila
            .madvise(
                &mut ctx,
                region.base(),
                region_pages,
                aquila::Advice::Random,
            )
            .expect("madvise");
        let access = Arc::clone(&rt.access);
        Setup {
            krill: Krill::new(Arc::new(region) as Arc<dyn MemRegion>, cfg),
            label: format!("aquila/{}", dev.name()),
            reset: Box::new(move || access.reset_timing()),
        }
    } else {
        let kdev = match dev {
            Dev::Nvme => KernelDevice::Nvme(Arc::new(NvmeDevice::optane(region_pages + 4096))),
            Dev::Pmem => KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(region_pages + 4096))),
        };
        let lm = Arc::new(LinuxMmap::new(
            LinuxConfig::kmmap(1, cache_frames),
            kdev.clone(),
            debts,
        ));
        let f = lm.open_file(region_pages).expect("file");
        let region = LinuxRegion::map(&mut ctx, Arc::clone(&lm), f, region_pages).expect("region");
        let lm2 = Arc::clone(&lm);
        Setup {
            krill: Krill::new(Arc::new(region) as Arc<dyn MemRegion>, cfg),
            label: format!("kmmap/{}", dev.name()),
            reset: Box::new(move || {
                lm2.reset_timing();
                kdev.reset_timing();
            }),
        }
    }
}

/// Builds this figure's part registry (dispatched by `figs::dispatch`).
pub fn runner() -> Runner<'static> {
    Runner::new("fig9", "Krill on kmmap vs Aquila, YCSB A-F")
        .part("nvme", "YCSB A-F over Optane NVMe", |args, r| {
            run_device(args, Dev::Nvme, r)
        })
        .part("pmem", "YCSB A-F over DAX pmem", |args, r| {
            run_device(args, Dev::Pmem, r)
        })
}

fn run_device(args: &BenchArgs, dev: Dev, json: &mut JsonReport) {
    let full = args.has_flag("--full");
    let records: u64 = if full { 16_384 } else { 6_144 };
    let ops: u64 = if full { 8_000 } else { 3_000 };
    // Dataset ~ records * 1KiB of log plus index; region sized with room,
    // cache = half the touched pages (the paper's 16 GB data / 8 GB cache).
    let region_pages: u64 = (records * 3).max(8192);
    // The store touches ~records/3 log pages plus index runs; a cache of
    // records/6 frames puts the dataset at ~2x the cache, like the
    // paper's 16 GB data / 8 GB cache.
    let cache_frames = (records / 6) as usize;

    banner(
        &format!(
            "Figure 9 ({}): Krill (Kreon) on kmmap vs Aquila, YCSB A-F, 1 thread, dataset 2x cache",
            dev.name()
        ),
        "NVMe: ~1.02x ops, 1.29x avg, 3.78x p99.9 latency; pmem: 1.22x ops, 1.43x avg, 13.72x p99.9",
    );

    {
        println!("--- device: {} ---", dev.name());
        let mut rows: Vec<Row> = Vec::new();
        let mut ratios = Vec::new();
        for w in Workload::ALL {
            let mut pair = Vec::new();
            for aquila in [false, true] {
                let setup = build(aquila, dev, region_pages, cache_frames);
                let mut ctx = FreeCtx::new(0x99);
                // Load.
                for i in 0..records {
                    let k = KeyGen::key_of(i);
                    setup
                        .krill
                        .put(&mut ctx, &k, &value_of(&k, VALUE_SIZE))
                        .expect("load");
                }
                (setup.reset)();
                let krill = &setup.krill;
                let report = run_ops(
                    &mut ctx,
                    w,
                    Distribution::Zipfian,
                    records,
                    ops,
                    0xF9,
                    |ctx, op| match op.kind {
                        OpKind::Read => {
                            let _ = krill.get(ctx, &op.key);
                        }
                        OpKind::Update | OpKind::Insert => {
                            let _ = krill.put(ctx, &op.key, &value_of(&op.key, VALUE_SIZE));
                        }
                        OpKind::Scan => {
                            let _ = krill.scan(ctx, &op.key, 20);
                        }
                        OpKind::ReadModifyWrite => {
                            let _ = krill.get(ctx, &op.key);
                            let _ = krill.put(ctx, &op.key, &value_of(&op.key, VALUE_SIZE));
                        }
                    },
                );
                let row = Row::from_hist(
                    format!("{} workload {}", setup.label, w.label()),
                    ops,
                    report.elapsed,
                    &report.latency,
                );
                json.add_hist(&row.label, &report.latency);
                pair.push(row.clone());
                rows.push(row);
            }
            ratios.push((
                w,
                pair[1].kops / pair[0].kops,
                pair[0].avg.get() as f64 / pair[1].avg.get().max(1) as f64,
                pair[0].p999.get() as f64 / pair[1].p999.get().max(1) as f64,
            ));
        }
        print_rows(&rows);
        json.add_rows(&rows);
        let mut t_sum = 0.0;
        let mut a_sum = 0.0;
        let mut p_sum = 0.0;
        for (w, t, a, p) in &ratios {
            println!(
                "  -> {}: aquila/kmmap throughput {t:.2}x, avg latency {a:.2}x lower, p99.9 {p:.2}x lower",
                w.label()
            );
            json.add_scalar(format!("{}/{}/throughput_ratio", dev.name(), w.label()), *t);
            t_sum += t;
            a_sum += a;
            p_sum += p;
        }
        let n = ratios.len() as f64;
        println!(
            "  => average: throughput {:.2}x, avg latency {:.2}x, p99.9 {:.2}x",
            t_sum / n,
            a_sum / n,
            p_sum / n
        );
        json.add_scalar(format!("{}/avg_throughput_ratio", dev.name()), t_sum / n);
        json.add_scalar(format!("{}/avg_latency_ratio", dev.name()), a_sum / n);
        json.add_scalar(format!("{}/avg_p999_ratio", dev.name()), p_sum / n);
        println!();
    }
}

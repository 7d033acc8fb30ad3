//! Figure 5: RocksDB (StoneDB) YCSB-C throughput and latency — explicit
//! read/write + user cache vs Linux mmap vs Aquila, over NVMe and pmem.
//!
//! Paper: (a) dataset fits in the cache — mmap beats read/write, Aquila
//! up to 1.15x over mmap; (b) dataset 4x the cache — mmap collapses (it
//! prefetches 128 KiB for 1 KiB reads), Aquila beats direct I/O by up to
//! 1.65x on pmem at 32 threads while NVMe is device-bound (0.96-1.06x).
//! Aquila also delivers consistently lower average and tail latency.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::kvscen::{build_stone, load_stone, warm_stone, Backend, Dev};
use crate::report::{banner, print_rows, print_speedup, JsonReport, Row};
use crate::Runner;
use aquila_kvstore::StoneDb;
use aquila_sim::{CoreDebts, Engine, FreeCtx, LatencyHist, SimCtx, Step};
use aquila_ycsb::workload::{Distribution, KeyGen, Workload};

struct Scale {
    records_fit: u64,
    records_nofit: u64,
    /// Cache frames for the out-of-memory case (the fit case sizes the
    /// cache to the dataset, like the paper's 8 GB / 8 GB setup).
    cache_frames: usize,
    ops_per_thread: u64,
    threads: Vec<usize>,
}

/// SST data pages a dataset of `records` 1 KiB records occupies (3 records
/// per 4 KiB block) plus metadata slack.
fn dataset_pages(records: u64) -> u64 {
    records / 3 + records / 48 + 64
}

fn scale(full: bool) -> Scale {
    if full {
        Scale {
            records_fit: 16_384,
            records_nofit: 65_536,
            cache_frames: 8_192,
            ops_per_thread: 3_000,
            threads: vec![1, 4, 8, 16, 32],
        }
    } else {
        Scale {
            records_fit: 8_192,
            records_nofit: 32_768,
            cache_frames: 4_096,
            ops_per_thread: 1_200,
            threads: vec![1, 8, 32],
        }
    }
}

/// Builds this figure's part registry (dispatched by `figs::dispatch`).
pub fn runner() -> Runner<'static> {
    // `fit` is (a), `nofit` is (b).
    Runner::new("fig5", "YCSB-C on StoneDB across backends")
        .part("fit", "(a) dataset fits in the cache", |args, r| {
            run_case(&scale(args.has_flag("--full")), true, r)
        })
        .part("nofit", "(b) dataset 4x the cache", |args, r| {
            run_case(&scale(args.has_flag("--full")), false, r)
        })
}

fn run_case(sc: &Scale, fit: bool, report: &mut JsonReport) {
    let records = if fit {
        sc.records_fit
    } else {
        sc.records_nofit
    };
    // Fit case: cache == dataset (paper: 8 GB dataset, 8 GB cache, with
    // the kernel's share trimming mmap's effective size). Otherwise the
    // dataset is ~4x the cache.
    let cache_frames = if fit {
        (dataset_pages(records) + dataset_pages(records) / 50) as usize
    } else {
        sc.cache_frames
    };
    banner(
        &format!(
            "Figure 5({}): YCSB-C on StoneDB, {} records, cache {} frames",
            if fit { "a" } else { "b" },
            records,
            cache_frames
        ),
        if fit {
            "mmap > read/write; aquila up to 1.15x over mmap"
        } else {
            "mmap collapses (128KiB readahead); aquila 1.18x-1.65x over read/write on pmem, ~1x on NVMe (device-bound)"
        },
    );
    for dev in [Dev::Pmem, Dev::Nvme] {
        println!("--- device: {} ---", dev.name());
        for &threads in &sc.threads {
            let mut rows = Vec::new();
            for backend in Backend::ALL {
                // Out-of-memory mmap is pathological; the paper still
                // plots it, so we run it (scaled ops keep it fast).
                let debts = Arc::new(CoreDebts::new(threads));
                let scen = build_stone(backend, dev, threads, cache_frames, 2 << 20, fit, debts);
                let mut setup = FreeCtx::new(5);
                load_stone(&mut setup, &scen.db, records);
                if fit {
                    warm_stone(&mut setup, &scen.db, records);
                }
                scen.reset_timing();
                let r = run_threads(&scen.db, records, threads, sc.ops_per_thread);
                let case = format!(
                    "5{}/{}/{} threads={threads}",
                    if fit { "a" } else { "b" },
                    dev.name(),
                    scen.label
                );
                report.add_hist(&case, &r.1);
                let row = Row::from_hist(
                    format!("{} threads={threads}", scen.label),
                    threads as u64 * sc.ops_per_thread,
                    r.0,
                    &r.1,
                );
                report.add_row(&Row {
                    label: case,
                    ..row.clone()
                });
                rows.push(row);
            }
            print_rows(&rows);
            print_speedup("aquila vs read/write", &rows[2], &rows[0]);
            print_speedup("aquila vs mmap", &rows[2], &rows[1]);
        }
        println!();
    }
}

fn run_threads(
    db: &Arc<StoneDb>,
    records: u64,
    threads: usize,
    ops_per_thread: u64,
) -> (aquila_sim::Cycles, LatencyHist) {
    let mut engine = Engine::new(threads, 0xF5);
    let hist: Rc<RefCell<LatencyHist>> = Rc::new(RefCell::new(LatencyHist::new()));
    for t in 0..threads {
        let db = Arc::clone(db);
        let hist = Rc::clone(&hist);
        let mut gen = KeyGen::new(Workload::C, records, Distribution::Uniform);
        let mut rng = aquila_sim::Rng64::new(0x55AA ^ (t as u64) << 8);
        let mut done = 0u64;
        engine.spawn(
            t,
            Box::new(move |ctx| {
                let op = gen.next_op(&mut rng);
                let t0 = ctx.now();
                let _ = db.get(ctx, &op.key);
                hist.borrow_mut().record(ctx.now() - t0);
                done += 1;
                if done >= ops_per_thread {
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
    }
    let report = engine.run();
    let h = hist.borrow().clone();
    (report.makespan, h)
}

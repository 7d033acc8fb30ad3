//! Figure 6: Ligra BFS with the application heap extended over storage —
//! Linux mmap vs Aquila (pmem and NVMe) vs DRAM-only, 1-16 threads, with
//! a DRAM cache of 1/8 (a) or 1/4 (b) of the heap, plus the 16-thread
//! execution-time breakdown (c).
//!
//! Paper: with the small cache Aquila is 1.56x (1T), 2.54x (8T), 4.14x
//! (16T) faster than mmap on pmem; with the larger cache up to 2.3x.
//! Aquila narrows the gap to DRAM-only from 11.8x to 2.8x at 16 threads,
//! cutting system+idle time by 8.31x (mmap: 62% system + idle vs user
//! 10.6%; Aquila: 56% user).

use std::sync::Arc;

use crate::report::{banner, JsonReport};
use crate::{BenchArgs, Dev, Runner};
use aquila::{AquilaRegion, AquilaRuntime, DeviceKind};
use aquila_devices::{NvmeDevice, PmemDevice};
use aquila_graph::{bfs, rmat_edges, CsrGraph, RmatParams, Team};
use aquila_linuxsim::{KernelDevice, LinuxConfig, LinuxMmap, LinuxRegion};
use aquila_sim::{CoreDebts, CostCat, DramRegion, MemRegion};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heap {
    Mmap(Dev),
    Aquila(Dev),
    Dram,
}

impl Heap {
    fn label(self) -> String {
        match self {
            Heap::Mmap(d) => format!("mmap/{}", d.name()),
            Heap::Aquila(d) => format!("aquila/{}", d.name()),
            Heap::Dram => "dram-only".into(),
        }
    }
}

fn build_region(
    heap: Heap,
    threads: usize,
    region_pages: u64,
    cache_frames: usize,
) -> Arc<dyn MemRegion> {
    let debts = Arc::new(CoreDebts::new(threads));
    let mut ctx = aquila_sim::FreeCtx::new(0xF6);
    match heap {
        Heap::Dram => Arc::new(DramRegion::new(region_pages * 4096)),
        Heap::Mmap(dev) => {
            let kdev = match dev {
                Dev::Nvme => KernelDevice::Nvme(Arc::new(NvmeDevice::optane(region_pages + 64))),
                Dev::Pmem => {
                    KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(region_pages + 64)))
                }
            };
            // The heap is a random-access mapping; Linux fault-around for
            // anonymous-style access is modest (16 pages).
            let mut cfg = LinuxConfig::linux(threads, cache_frames);
            cfg.readahead_pages = 16;
            let lm = Arc::new(LinuxMmap::new(cfg, kdev, debts));
            let f = lm.open_file(region_pages).expect("file");
            Arc::new(LinuxRegion::map(&mut ctx, lm, f, region_pages).expect("map"))
        }
        Heap::Aquila(dev) => {
            let kind = match dev {
                Dev::Nvme => DeviceKind::NvmeSpdk,
                Dev::Pmem => DeviceKind::PmemDax,
            };
            let rt = AquilaRuntime::build(
                &mut ctx,
                kind,
                region_pages + 4096,
                cache_frames,
                threads,
                debts,
            );
            let f = rt.open("/ligra-heap", region_pages).expect("open");
            let region =
                AquilaRegion::map(&mut ctx, Arc::clone(&rt.aquila), f, region_pages).expect("map");
            // Graph traversal is random access; advise accordingly (a
            // one-line initialization-time hint, like the paper's
            // minimal-modification ports).
            rt.aquila
                .madvise(
                    &mut ctx,
                    region.base(),
                    region_pages,
                    aquila::Advice::Random,
                )
                .expect("madvise");
            Arc::new(region)
        }
    }
}

/// Builds this figure's part registry (dispatched by `figs::dispatch`).
pub fn runner() -> Runner<'static> {
    Runner::new("fig6", "Ligra BFS with the heap over storage")
        .default_part("small")
        .part("small", "(a) DRAM cache = heap/8", |args, r| {
            run_case(args, false, r)
        })
        .part("large", "(b) DRAM cache = heap/4", |args, r| {
            run_case(args, true, r)
        })
}

fn run_case(args: &BenchArgs, big_cache: bool, json: &mut JsonReport) {
    let full = args.has_flag("--full");
    let (scale_exp, edge_factor) = if full { (19, 10) } else { (18, 10) };
    let n = 1u64 << scale_exp;
    let m = n * edge_factor;
    let threads_list: Vec<usize> = if full {
        vec![1, 2, 4, 8, 16]
    } else {
        vec![1, 8, 16]
    };

    // Heap: graph + parents, rounded up.
    let heap_bytes = 16 + (n + 1) * 8 + m * 4 + n * 4 + 8192;
    let region_pages = heap_bytes.div_ceil(4096) + 16;
    let divisor = if big_cache { 4 } else { 8 };
    let cache_frames = (region_pages / divisor).max(512) as usize;

    banner(
        &format!(
            "Figure 6({}): Ligra BFS, R-MAT 2^{scale_exp} vertices x{edge_factor} edges, cache = heap/{divisor}",
            if big_cache { "b" } else { "a" }
        ),
        "aquila vs mmap (pmem): 1.56x @1T, 2.54x @8T, 4.14x @16T (small cache); gap to DRAM shrinks 11.8x -> 2.8x",
    );

    let edges = rmat_edges(scale_exp, m, RmatParams::default(), 0xF6);
    let heaps = [
        Heap::Mmap(Dev::Pmem),
        Heap::Mmap(Dev::Nvme),
        Heap::Aquila(Dev::Pmem),
        Heap::Aquila(Dev::Nvme),
        Heap::Dram,
    ];

    let mut times: Vec<(String, usize, f64)> = Vec::new();
    for &threads in &threads_list {
        for heap in heaps {
            let region = build_region(heap, threads, region_pages, cache_frames);
            let mut team = Team::new(threads, 0x6F);
            let g = CsrGraph::build(team.ctx(0), Arc::clone(&region), n, &edges);
            team.barrier();
            let t0 = team.now();
            let bd0 = team.breakdown();
            let result = bfs(&mut team, &g, 0);
            let secs = (team.now() - t0).as_secs_f64();
            times.push((heap.label(), threads, secs));
            json.add_scalar(format!("{}/threads={threads}/bfs_secs", heap.label()), secs);
            println!(
                "{:<16} threads={threads:<3} BFS time {secs:>8.3}s  visited {} rounds {}",
                heap.label(),
                result.visited,
                result.rounds
            );
            // Part (c): breakdown at the highest thread count.
            if threads == *threads_list.last().expect("threads") {
                let bd = team.breakdown().since(&bd0);
                json.add_breakdown(format!("6c/{}/threads={threads}", heap.label()), &bd, 1);
                let total = bd.total().get().max(1) as f64;
                let user = bd.get(CostCat::App).get() as f64;
                let idle = bd.get(CostCat::Idle).get() as f64;
                let system = total - user - idle;
                println!(
                    "    breakdown: user {:.1}% | system {:.1}% | idle {:.1}%",
                    100.0 * user / total,
                    100.0 * system / total,
                    100.0 * idle / total
                );
            }
        }
        // Ratios at this thread count.
        let get = |label: &str| {
            times
                .iter()
                .rev()
                .find(|(l, t, _)| l == label && *t == threads)
                .map(|&(_, _, s)| s)
                .unwrap_or(f64::NAN)
        };
        println!(
            "  -> aquila vs mmap (pmem): {:.2}x faster | (nvme): {:.2}x | aquila-pmem vs dram: {:.2}x slower",
            get("mmap/pmem") / get("aquila/pmem"),
            get("mmap/nvme") / get("aquila/nvme"),
            get("aquila/pmem") / get("dram-only"),
        );
        json.add_scalar(
            format!("threads={threads}/aquila_vs_mmap_pmem"),
            get("mmap/pmem") / get("aquila/pmem"),
        );
        json.add_scalar(
            format!("threads={threads}/aquila_vs_mmap_nvme"),
            get("mmap/nvme") / get("aquila/nvme"),
        );
        println!();
    }
}

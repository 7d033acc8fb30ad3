//! Host-clock replays of a workload's page sequence into single layers'
//! public structures, timed from the benchmark's own code. Each replay
//! builds its structure fresh, so it measures the layer alone.

use std::sync::Arc;
use std::time::Instant;

use aquila::{AquilaConfig, MmioPolicy, Prot};
use aquila_devices::{DaxAccess, NvmeDevice, PmemDevice, SpdkAccess, StorageAccess};
use aquila_mmu::{Access, FrameId, Gva, PageTable, PteFlags, TlbFabric, Vpn};
use aquila_pcache::{Freelist, FreelistConfig, LockFreeMap, NumaTopology, PageKey};
use aquila_sim::{CoreDebts, FreeCtx};
use aquila_vma::AddressSpace;
use aquila_vmx::Gpa;

/// Calls per replay (the page sequence is cycled to reach it).
const CALLS: usize = 100_000;
/// Host-time budget of the shootdown replay.
const SHOOTDOWN_BUDGET_S: f64 = 0.2;

/// Device behind the replayed I/O path.
#[derive(Clone, Copy)]
pub enum Dev {
    Pmem,
    Nvme,
}

/// Mean host nanoseconds per call of each replayed layer entry point.
pub struct Replays {
    pub vma_lookup_ns: f64,
    pub translate_ns: f64,
    pub shootdown_ns: f64,
    pub map_ns: f64,
    pub freelist_ns: f64,
    pub io_ns: f64,
}

fn cycle(pages: &[u64]) -> impl Iterator<Item = u64> + '_ {
    pages.iter().copied().cycle().take(CALLS)
}

fn per_call(t: Instant, calls: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Replays `pages` into each layer. `cores` and `cache_frames` size the
/// structures like the workload's engine; `batch` is the workload's mean
/// shootdown batch (0: the workload issues no shootdowns).
pub fn replay(pages: &[u64], cores: usize, cache_frames: usize, batch: u64, dev: Dev) -> Replays {
    assert!(!pages.is_empty(), "replay needs a page sequence");
    let mut ctx = FreeCtx::new(0x1A7E).with_core(0, cores);
    let span = pages.iter().max().copied().unwrap_or(0) + 1;
    let policy = MmioPolicy::default();

    // vma: the fault path's VMA resolution.
    let space = AddressSpace::new(0x10_0000, policy.spill_regions);
    let desc = space
        .map(&mut ctx, None, span, 0, 0, Prot::RW)
        .expect("fresh address space maps");
    let base = desc.start.0;
    let t = Instant::now();
    for p in cycle(pages) {
        std::hint::black_box(space.lookup(&mut ctx, Vpn(base + p)));
    }
    let vma_lookup_ns = per_call(t, CALLS);

    // mmu: page-table translation of mapped pages.
    let mut pt = PageTable::new();
    for p in 0..span {
        pt.map(Gva((base + p) << 12), Gpa(p << 12), PteFlags::RW);
    }
    let t = Instant::now();
    for p in cycle(pages) {
        let _ = std::hint::black_box(pt.translate(Gva((base + p) << 12), Access::Read));
    }
    let translate_ns = per_call(t, CALLS);

    // mmu: batched shootdowns at the workload's batch size.
    let shootdown_ns = if batch == 0 {
        0.0
    } else {
        let fabric = TlbFabric::new(cores);
        let debts = CoreDebts::new(cores);
        let ipi = AquilaConfig::builder(cores, cache_frames.max(64))
            .build()
            .ipi_path;
        let vpns: Vec<Vpn> = pages
            .iter()
            .take(batch as usize)
            .map(|&p| Vpn(base + p))
            .collect();
        let t = Instant::now();
        let mut n = 0usize;
        while n < 10 || (t.elapsed().as_secs_f64() < SHOOTDOWN_BUDGET_S && n < 100_000) {
            fabric.shootdown_batch(&mut ctx, &debts, ipi, &vpns);
            n += 1;
        }
        per_call(t, n)
    };

    // pcache: the page-cache map, holding as many pages as the cache.
    let map = LockFreeMap::new(cache_frames.max(1));
    for (i, p) in pages.iter().take(cache_frames).enumerate() {
        let _ = map.insert(PageKey::new(0, *p), i as u64);
    }
    let t = Instant::now();
    for p in cycle(pages) {
        std::hint::black_box(map.get(PageKey::new(0, p)));
    }
    let map_ns = per_call(t, CALLS);

    // pcache: freelist allocate + free pairs spread over the cores.
    let fl = Freelist::new(
        NumaTopology::flat(cores),
        FreelistConfig::default(),
        (0..cache_frames as u32).map(FrameId),
    );
    let t = Instant::now();
    for i in 0..CALLS {
        let core = i % cores;
        if let Some(f) = fl.alloc(core) {
            fl.free(core, std::hint::black_box(f));
        }
    }
    let freelist_ns = per_call(t, CALLS);

    // devices: one-page reads on the workload's access path.
    let access: Arc<dyn StorageAccess> = match dev {
        Dev::Pmem => Arc::new(DaxAccess::new(
            Arc::new(PmemDevice::dram_backed(span)),
            true,
        )),
        Dev::Nvme => Arc::new(SpdkAccess::new(Arc::new(NvmeDevice::optane(span)))),
    };
    let mut buf = vec![0u8; 4096];
    let t = Instant::now();
    for p in cycle(pages) {
        access
            .read_pages(&mut ctx, p, &mut buf)
            .expect("replay read in range");
    }
    let io_ns = per_call(t, CALLS);

    Replays {
        vma_lookup_ns,
        translate_ns,
        shootdown_ns,
        map_ns,
        freelist_ns,
        io_ns,
    }
}

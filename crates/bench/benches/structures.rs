//! Micro-benchmarks of the core data structures (host-time performance
//! of the implementation itself, complementing the virtual-time figures
//! of `aquila-bench`).
//!
//! Plain `std::time::Instant` timing loops — the build is fully offline,
//! so there is no Criterion. Run with `cargo bench -p aquila-bench`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aquila_kvstore::{SstReader, SstWriter};
use aquila_linuxsim::{KernelDevice, KernelPageCache, LinuxConfig, LinuxMmap};
use aquila_mmu::{Access, Gva, PageTable, PteFlags, Vpn};
use aquila_pcache::{ClockLru, Freelist, FreelistConfig, LockFreeMap, NumaTopology, PageKey};
use aquila_sim::FreeCtx;
use aquila_vmx::Gpa;

/// Times `iters` calls of `f` (after a 10% warmup) and prints ns/op.
fn bench<R>(group: &str, name: &str, iters: u64, mut f: impl FnMut() -> R) {
    for _ in 0..iters / 10 {
        std::hint::black_box(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    report(group, name, iters, t0.elapsed());
}

fn report(group: &str, name: &str, iters: u64, elapsed: Duration) {
    println!(
        "{group}/{name:<24} {:>10.1} ns/op   ({iters} iters, {:.3} s)",
        elapsed.as_nanos() as f64 / iters as f64,
        elapsed.as_secs_f64()
    );
}

/// Like [`bench`], but times only `op`, after an untimed `setup` for
/// each call (for operations that consume what `setup` built). Both
/// closures share `ctx`.
fn bench_with_setup<C, S, R>(
    group: &str,
    name: &str,
    iters: u64,
    ctx: &mut C,
    mut setup: impl FnMut(&mut C) -> S,
    mut op: impl FnMut(&mut C, S) -> R,
) {
    let mut elapsed = Duration::ZERO;
    for _ in 0..iters {
        let state = setup(ctx);
        let t0 = Instant::now();
        std::hint::black_box(op(ctx, state));
        elapsed += t0.elapsed();
    }
    report(group, name, iters, elapsed);
}

fn bench_lockfree_map() {
    let m = LockFreeMap::new(1 << 16);
    for i in 0..(1u64 << 15) {
        m.insert(PageKey::new(1, i), i);
    }
    let mut i = 0u64;
    bench("lockfree_map", "get_hit", 2_000_000, || {
        i = (i + 12_345) & ((1 << 15) - 1);
        m.get(PageKey::new(1, i))
    });
    let mut k = 1u64 << 20;
    bench("lockfree_map", "insert_remove", 1_000_000, || {
        k += 1;
        let key = PageKey::new(2, k & 0xFFFF);
        m.insert(key, k);
        m.remove(key)
    });
}

fn bench_freelist() {
    let fl = Freelist::new(
        NumaTopology::paper_testbed(),
        FreelistConfig::default(),
        (0..1u32 << 16).map(aquila_mmu::FrameId),
    );
    bench("freelist", "alloc_free", 2_000_000, || {
        let f = fl.alloc(3).expect("non-empty");
        fl.free(3, f);
    });
}

fn bench_page_table() {
    let mut pt = PageTable::new();
    for i in 0..(1u64 << 14) {
        pt.map(Gva(i * 4096), Gpa(i * 4096), PteFlags::RW);
    }
    let mut i = 0u64;
    bench("page_table", "translate_hit", 2_000_000, || {
        i = (i + 7919) & ((1 << 14) - 1);
        pt.translate(Gva(i * 4096), Access::Read).expect("mapped")
    });
    let gva = Gva(0xDEAD_0000_0000);
    bench("page_table", "map_unmap", 1_000_000, || {
        pt.map(gva, Gpa(0x1000), PteFlags::RW);
        pt.unmap(gva)
    });
}

fn bench_clock_lru() {
    let clock = ClockLru::new(1 << 16);
    for i in 0..(1u32 << 16) {
        clock.mark_resident(aquila_mmu::FrameId(i));
    }
    bench("clock_lru", "collect_512", 5_000, || {
        let victims = clock.collect_victims(512);
        for v in &victims {
            clock.mark_resident(*v);
        }
        victims.len()
    });
}

fn bench_sst() {
    // Build an SST in a DRAM-cheap direct env.
    let mut ctx = FreeCtx::new(1);
    let dev = Arc::new(aquila_devices::PmemDevice::dram_backed(1 << 16));
    let access: Arc<dyn aquila_devices::StorageAccess> =
        Arc::new(aquila_devices::DaxAccess::new(dev, true));
    let env = aquila_kvstore::DirectIoEnv::new(access, 1 << 14);
    let mut w = SstWriter::new();
    for i in 0..20_000u64 {
        w.add(format!("key{i:012}").as_bytes(), b"value-payload-64-bytes");
    }
    let file = aquila_kvstore::Env::create(&env, &mut ctx, "bench.sst", w.data_pages() + 16);
    let meta = w.finish(&mut ctx, &file, 10);
    let reader = SstReader::from_meta(meta, file);
    let mut i = 0u64;
    bench("sst", "point_get", 200_000, || {
        i = (i + 104_729) % 20_000;
        reader
            .get(&mut ctx, format!("key{i:012}").as_bytes())
            .expect("present")
    });
    bench("sst", "bloom_reject", 500_000, || {
        reader.get(&mut ctx, b"missing-key-entirely")
    });
}

fn bench_fault_path() {
    // Host-time cost of a full simulated minor fault (the engine's own
    // overhead, not virtual cycles).
    let mut ctx = FreeCtx::new(1);
    let debts = Arc::new(aquila_sim::CoreDebts::new(1));
    let rt = aquila::AquilaRuntime::build(
        &mut ctx,
        aquila::DeviceKind::PmemDax,
        1 << 15,
        1 << 13,
        1,
        debts,
    );
    let f = rt.open("/bench", 4096).expect("open");
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, 4096, aquila::Prot::RW)
        .expect("map");
    // Warm everything.
    let mut buf = [0u8; 8];
    for p in 0..4096u64 {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut buf)
            .expect("read");
    }
    let mut p = 0u64;
    bench("mmio_fault_path", "tlb_hit_read", 500_000, || {
        p = (p + 613) & 4095;
        rt.aquila.read(&mut ctx, addr.add(p * 4096), &mut buf)
    });
}

fn bench_tlb() {
    let fabric = aquila_mmu::TlbFabric::new(32);
    let debts = aquila_sim::CoreDebts::new(32);
    let mut ctx = FreeCtx::new(1).with_core(0, 32);
    let pages: Vec<Vpn> = (0..512).map(Vpn).collect();
    bench("tlb", "shootdown_batch_512_32cores", 20_000, || {
        fabric.shootdown_batch(
            &mut ctx,
            &debts,
            aquila_vmx::IpiSendPath::VmexitMediated,
            &pages,
        )
    });
}

fn linux_engine(pages: u64, cache_frames: usize) -> LinuxMmap {
    let dev = KernelDevice::Pmem(Arc::new(aquila_devices::PmemDevice::dram_backed(pages)));
    let debts = Arc::new(aquila_sim::CoreDebts::new(1));
    LinuxMmap::new(LinuxConfig::linux(1, cache_frames), dev, debts)
}

fn bench_linuxsim() {
    // munmap of a 16,384-page mapping whose pages are all cached and
    // mapped (the fault-fit set-up's remap).
    const PAGES: u64 = 16_384;
    let mut ctx = FreeCtx::new(1);
    let lm = linux_engine(PAGES, PAGES as usize);
    let f = lm.open_file(PAGES).expect("open");
    let mut buf = [0u8; 8];
    bench_with_setup(
        "linuxsim",
        "munmap_16k_cached",
        5,
        &mut ctx,
        |ctx| {
            let vpn = lm.mmap(ctx, f, 0, PAGES, false).expect("map");
            for p in 0..PAGES {
                lm.read(ctx, (vpn + p) << 12, &mut buf).expect("read");
            }
            vpn
        },
        |ctx, vpn| lm.munmap(ctx, vpn, PAGES),
    );

    // A major fault with Linux's 32-page readahead, in steady state: a
    // cold file 16x the cache, so each fault also reclaims 32 pages. The
    // file is written first, so every fill reads real device pages
    // rather than never-written ones.
    const FILE: u64 = 65_536;
    let lm = linux_engine(FILE, 4096);
    let f = lm.open_file(FILE).expect("open");
    let chunk: Vec<u8> = (0..256 * 4096).map(|i| (i % 251) as u8 + 1).collect();
    for first in (0..FILE).step_by(256) {
        lm.pwrite_direct(&mut ctx, f, first, &chunk)
            .expect("populate");
    }
    let vpn = lm.mmap(&mut ctx, f, 0, FILE, false).expect("map");
    let mut p = 0u64;
    bench("linuxsim", "major_fault_ra32", 20_000, || {
        p = (p + 32) % FILE;
        lm.read(&mut ctx, (vpn + p) << 12, &mut buf)
    });

    // One page-cache insert that evicts the LRU page: a full cache and a
    // key stream 16x its size (the readahead fill's per-page index work).
    let cache = KernelPageCache::new(4096);
    let mut p = 0u64;
    bench("linuxsim", "pagecache_insert_evict", 1_000_000, || {
        p = (p + 1) % FILE;
        cache.insert(&mut ctx, (0, p))
    });
}

fn main() {
    bench_lockfree_map();
    bench_freelist();
    bench_page_table();
    bench_clock_lru();
    bench_sst();
    bench_fault_path();
    bench_tlb();
    bench_linuxsim();
}

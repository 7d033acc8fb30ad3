//! Property-based tests over the core data structures: each structure is
//! driven with random operation sequences and checked against a simple
//! reference model or invariant.
//!
//! The random cases are generated with the workspace's own deterministic
//! [`Rng64`] (the build is fully offline, so there is no `proptest`); a
//! fixed seed per property keeps failures exactly reproducible.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use aquila_mmu::{Access, Gva, PageTable, PteFlags};
use aquila_pcache::{coalesce_runs, DirtyPage, InsertOutcome, LockFreeMap, PageKey};
use aquila_sim::{Cycles, FreeCtx, LatencyHist, Rng64};
use aquila_vma::{Prot, VmaTree};

const CASES: u64 = 64;

/// The page table agrees with a HashMap model under arbitrary
/// map/unmap/protect sequences.
#[test]
fn page_table_matches_model() {
    let mut rng = Rng64::new(0x9A6E);
    for _ in 0..CASES {
        let mut pt = PageTable::new();
        let mut model: HashMap<u64, (u64, bool)> = HashMap::new();
        let n = rng.range(1, 199);
        for _ in 0..n {
            let op = rng.below(4) as u8;
            let slot = rng.below(128);
            let writable = rng.chance(0.5);
            let gva = Gva(slot * 4096);
            let gpa = aquila_vmx::Gpa(0x10_0000 + slot * 4096);
            match op {
                0 => {
                    let flags = if writable { PteFlags::RW } else { PteFlags::RO };
                    pt.map(gva, gpa, flags);
                    model.insert(slot, (gpa.get(), writable));
                }
                1 => {
                    let got = pt.unmap(gva).map(|p| p.gpa.get());
                    let want = model.remove(&slot).map(|(g, _)| g);
                    assert_eq!(got, want);
                }
                2 => {
                    let flags = if writable { PteFlags::RW } else { PteFlags::RO };
                    let got = pt.protect(gva, flags).is_some();
                    if let Some(e) = model.get_mut(&slot) {
                        e.1 = writable;
                        assert!(got);
                    } else {
                        assert!(!got);
                    }
                }
                _ => {
                    let access = if writable {
                        Access::Write
                    } else {
                        Access::Read
                    };
                    let got = pt.translate(gva, access);
                    match model.get(&slot) {
                        None => assert!(got.is_err()),
                        Some(&(g, w)) => {
                            if writable && !w {
                                assert!(got.is_err());
                            } else {
                                assert_eq!(got.ok().map(|x| x.get()), Some(g));
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(pt.mapped_pages() as usize, model.len());
    }
}

/// The concurrent page map agrees with a HashMap model.
#[test]
fn lockfree_map_matches_model() {
    let mut rng = Rng64::new(0x10CF);
    for _ in 0..CASES {
        let m = LockFreeMap::new(128);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let n = rng.range(1, 299);
        for _ in 0..n {
            let op = rng.below(3) as u8;
            let page = rng.below(64);
            let val = rng.below(1000);
            let key = PageKey::new(1, page);
            match op {
                0 => match m.insert(key, val) {
                    InsertOutcome::Inserted => {
                        assert!(!model.contains_key(&page));
                        model.insert(page, val);
                    }
                    InsertOutcome::AlreadyPresent(v) => {
                        assert_eq!(model.get(&page), Some(&v));
                    }
                },
                1 => {
                    assert_eq!(m.remove(key), model.remove(&page));
                }
                _ => {
                    assert_eq!(m.get(key), model.get(&page).copied());
                }
            }
        }
        assert_eq!(m.len(), model.len());
    }
}

/// VMA lookups agree with a per-page model under map/unmap/protect.
#[test]
fn vma_tree_matches_model() {
    let mut rng = Rng64::new(0x07A3);
    for _ in 0..CASES {
        let tree = VmaTree::new(0);
        let mut ctx = FreeCtx::new(1);
        let mut model: HashMap<u64, bool> = HashMap::new(); // vpn -> writable
        let n = rng.range(1, 99);
        for _ in 0..n {
            let op = rng.below(3) as u8;
            let start = rng.below(96);
            let len = rng.range(1, 15);
            let writable = rng.chance(0.5);
            match op {
                0 => {
                    let prot = if writable { Prot::RW } else { Prot::READ };
                    let free = (start..start + len).all(|v| !model.contains_key(&v));
                    let res = tree.map(&mut ctx, Some(aquila_mmu::Vpn(start)), len, 0, start, prot);
                    assert_eq!(res.is_ok(), free);
                    if free {
                        for v in start..start + len {
                            model.insert(v, writable);
                        }
                    }
                }
                1 => {
                    let removed = tree.unmap(&mut ctx, aquila_mmu::Vpn(start), len);
                    let expected = (start..start + len)
                        .filter(|v| model.remove(v).is_some())
                        .count();
                    assert_eq!(removed.len(), expected);
                }
                _ => {
                    for v in start..start + len {
                        let got = tree.lookup(&mut ctx, aquila_mmu::Vpn(v));
                        assert_eq!(got.is_some(), model.contains_key(&v));
                    }
                }
            }
        }
        assert_eq!(tree.mapped_pages() as usize, model.len());
    }
}

/// The spill-free region map is observationally equivalent to the VMA
/// radix tree: random mmap/munmap/mremap/mprotect sequences driven
/// through [`aquila_vma::AddressSpace`] produce identical placement,
/// identical map/unmap/remap results, and identical per-page lookups
/// (presence, backing file window, and effective protection).
#[test]
fn region_map_matches_vma_tree() {
    use aquila_mmu::Vpn;
    use aquila_vma::AddressSpace;

    let mut rng = Rng64::new(0x5F11);
    for _ in 0..CASES {
        let tree = AddressSpace::new(0x1000, false);
        let regions = AddressSpace::new(0x1000, true);
        let mut ctx_t = FreeCtx::new(1);
        let mut ctx_r = FreeCtx::new(1);
        // Fixed-placement ops land in this window, below the automatic
        // bump base at 0x1000 so the two placement modes never collide;
        // auto placement bumps from 0x1000 identically on both sides.
        let lo = 0x100u64;
        let n = rng.range(1, 99);
        for _ in 0..n {
            let start = lo + rng.below(192);
            let len = rng.range(1, 15);
            match rng.below(5) {
                0 => {
                    // Fixed-placement map: same Ok/Overlap outcome.
                    let prot = if rng.chance(0.5) {
                        Prot::RW
                    } else {
                        Prot::READ
                    };
                    let file = rng.below(8) as u32;
                    let fpage = rng.below(1000);
                    let a = tree.map(&mut ctx_t, Some(Vpn(start)), len, file, fpage, prot);
                    let b = regions.map(&mut ctx_r, Some(Vpn(start)), len, file, fpage, prot);
                    assert_eq!(a.is_ok(), b.is_ok());
                }
                1 => {
                    // Auto placement: both structures share the bump policy.
                    let pages = if rng.chance(0.2) {
                        rng.range(512, 1024) // exercise the 2 MiB alignment
                    } else {
                        rng.range(1, 15)
                    };
                    let a = tree.map(&mut ctx_t, None, pages, 1, 0, Prot::RW).unwrap();
                    let b = regions
                        .map(&mut ctx_r, None, pages, 1, 0, Prot::RW)
                        .unwrap();
                    assert_eq!(a.start, b.start, "auto placement diverged");
                }
                2 => {
                    let mut a: Vec<u64> = tree
                        .unmap(&mut ctx_t, Vpn(start), len)
                        .iter()
                        .map(|(v, _)| v.0)
                        .collect();
                    let mut b: Vec<u64> = regions
                        .unmap(&mut ctx_r, Vpn(start), len)
                        .iter()
                        .map(|(v, _)| v.0)
                        .collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "unmap removed different pages");
                }
                3 => {
                    let prot = if rng.chance(0.5) {
                        Prot::RW
                    } else {
                        Prot::READ
                    };
                    let a = tree.protect(&mut ctx_t, Vpn(start), len, prot);
                    let b = regions.protect(&mut ctx_r, Vpn(start), len, prot);
                    assert_eq!(a, b, "mprotect affected different page counts");
                }
                _ => {
                    let grow = rng.range(1, 15);
                    let a = tree.remap(&mut ctx_t, Vpn(start), len, grow);
                    let b = regions.remap(&mut ctx_r, Vpn(start), len, grow);
                    assert_eq!(a.is_ok(), b.is_ok(), "remap outcome diverged");
                    if let (Ok(a), Ok(b)) = (a, b) {
                        assert_eq!(a.start, b.start);
                        assert_eq!(a.pages, b.pages);
                    }
                }
            }
        }
        // Full observational sweep: every page of the fixed window and
        // the head of the auto-placement area resolves identically —
        // presence, file window, and effective protection.
        assert_eq!(tree.mapped_pages(), regions.mapped_pages());
        let pages: Vec<u64> = (lo..lo + 192 + 16).chain(0x1000..0x1000 + 3072).collect();
        for v in pages {
            let a = tree.lookup(&mut ctx_t, Vpn(v));
            let b = regions.lookup(&mut ctx_r, Vpn(v));
            match (a, b) {
                (None, None) => {}
                (Some((da, pa)), Some((db, pb))) => {
                    assert_eq!(da.file, db.file, "vpn {v}");
                    assert_eq!(da.file_page_of(Vpn(v)), db.file_page_of(Vpn(v)), "vpn {v}");
                    assert_eq!(pa.write, pb.write, "vpn {v}");
                    assert_eq!(pa.read, pb.read, "vpn {v}");
                }
                (a, b) => panic!("vpn {v}: tree={:?} regions={:?}", a.is_some(), b.is_some()),
            }
        }
    }
}

/// Resolving faults through spill-free regions instead of the VMA tree
/// does not change what the engine computes: the same random
/// fault-heavy workload takes exactly the same faults (minor and major),
/// evicts the same number of pages, and reads back the same values.
#[test]
fn spill_free_fault_counts_match_tree_path() {
    use aquila::{Advice, AquilaRuntime, DeviceKind, MmioPolicy, Prot};
    use aquila_sim::CoreDebts;

    const FILE_PAGES: u64 = 512;
    const CACHE_FRAMES: usize = 128; // pressure: forces evictions
    const OPS: u64 = 1200;

    let run = |seed: u64, policy: MmioPolicy| -> (u64, u64, u64, u64, u64) {
        let mut ctx = FreeCtx::new(seed);
        let debts = Arc::new(CoreDebts::new(1));
        let rt = AquilaRuntime::build_with_policy(
            &mut ctx,
            DeviceKind::NvmeSpdk,
            FILE_PAGES + 1024,
            CACHE_FRAMES,
            1,
            debts,
            policy,
        );
        rt.aquila.thread_enter(&mut ctx);
        let f = rt.open("/prop/scale", FILE_PAGES).unwrap();
        let addr = rt
            .aquila
            .mmap(&mut ctx, f, 0, FILE_PAGES, Prot::RW)
            .unwrap();
        rt.aquila
            .madvise(&mut ctx, addr, FILE_PAGES, Advice::Random)
            .unwrap();
        let mut rng = Rng64::new(seed ^ 0x5CA1);
        let mut buf = [0u8; 8];
        let mut read_sum = 0u64;
        for _ in 0..OPS {
            let page = rng.below(FILE_PAGES);
            let off = rng.below(4096 - 8);
            if rng.chance(0.5) {
                let val = rng.next_u64();
                rt.aquila
                    .write(&mut ctx, addr.add(page * 4096 + off), &val.to_le_bytes())
                    .unwrap();
            } else {
                rt.aquila
                    .read(&mut ctx, addr.add(page * 4096 + off), &mut buf)
                    .unwrap();
                read_sum = read_sum
                    .wrapping_mul(0x100_0000_01B3)
                    .wrapping_add(u64::from_le_bytes(buf));
            }
        }
        let c = &ctx.stats;
        (
            c.page_faults,
            c.minor_faults,
            c.major_faults,
            c.evictions,
            read_sum,
        )
    };

    for case in 0..6u64 {
        let seed = 0x5CA1E + case * 0x9E37;
        let tree = run(seed, MmioPolicy::default());
        let regions = run(
            seed,
            MmioPolicy {
                spill_regions: true,
                ..MmioPolicy::default()
            },
        );
        assert_eq!(tree, regions, "fault behavior diverged (case {case})");
    }
}

/// linuxsim keeps its invariants (`LinuxMmap::audit`: PTE/rmap agreement,
/// write-protect of clean pages, frame conservation), reads back exactly
/// what was written, and leaves exactly those bytes on the device after
/// each `msync`, under random mmap/munmap/read/write/msync
/// sequences over two mappings of one file that does not fit the cache.
#[test]
fn linuxsim_random_ops_keep_invariants() {
    use aquila_devices::{NvmeDevice, PmemDevice};
    use aquila_linuxsim::{KernelDevice, LinuxConfig, LinuxMmap};
    use aquila_sim::CoreDebts;

    const FILE_PAGES: u64 = 96;
    const CACHE_FRAMES: usize = 48;
    const OPS: usize = 300;

    let mut rng = Rng64::new(0x11_4E);
    for case in 0..16u64 {
        let kmmap = case % 2 == 1;
        let dev = if case % 4 < 2 {
            KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(FILE_PAGES)))
        } else {
            KernelDevice::Nvme(Arc::new(NvmeDevice::optane(FILE_PAGES)))
        };
        let cfg = if kmmap {
            LinuxConfig::kmmap(2, CACHE_FRAMES)
        } else {
            LinuxConfig::linux(2, CACHE_FRAMES)
        };
        let lm = LinuxMmap::new(cfg, dev, Arc::new(CoreDebts::new(2)));
        let mut ctx = FreeCtx::new(case);
        let file = lm.open_file(FILE_PAGES).unwrap();
        let mut model = vec![0u8; (FILE_PAGES * 4096) as usize];
        // Two mapping slots: (base vpn, first file page, pages).
        let mut maps: [Option<(u64, u64, u64)>; 2] = [None, None];
        for _ in 0..OPS {
            let slot = rng.below(2) as usize;
            let Some((vpn, first, pages)) = maps[slot] else {
                let first = rng.below(FILE_PAGES);
                let pages = rng.range(1, FILE_PAGES - first);
                let vpn = lm.mmap(&mut ctx, file, first, pages, true).unwrap();
                maps[slot] = Some((vpn, first, pages));
                continue;
            };
            let page = rng.below(pages);
            let off = rng.below(4096 - 8);
            let at = ((first + page) * 4096 + off) as usize;
            let addr = ((vpn + page) << 12) + off;
            match rng.below(10) {
                0..=3 => {
                    let val = rng.next_u64().to_le_bytes();
                    lm.write(&mut ctx, addr, &val).unwrap();
                    model[at..at + 8].copy_from_slice(&val);
                }
                4..=7 => {
                    let mut buf = [0u8; 8];
                    lm.read(&mut ctx, addr, &mut buf).unwrap();
                    assert_eq!(buf, model[at..at + 8], "case {case}: read at {at}");
                }
                8 => {
                    lm.msync(&mut ctx, vpn + page, pages - page).unwrap();
                    // The synced pages are on the device: a buffer the
                    // cache shares with the device was never written in
                    // place behind a writeback.
                    let (lo, hi) = (
                        (first + page) as usize * 4096,
                        (first + pages) as usize * 4096,
                    );
                    let mut synced = vec![0u8; hi - lo];
                    lm.pread_direct(&mut ctx, file, first + page, &mut synced)
                        .unwrap();
                    assert!(
                        synced == model[lo..hi],
                        "case {case}: msync'd bytes at {lo}"
                    );
                }
                _ => {
                    lm.munmap(&mut ctx, vpn, pages);
                    maps[slot] = None;
                }
            }
            assert_eq!(lm.audit(), Ok(()), "case {case}");
        }
        assert!(
            ctx.stats.evictions > 0,
            "case {case}: the cache never filled"
        );
    }
}

/// Coalesced writeback runs preserve exactly the input pages, in
/// order, and every run is contiguous within one file.
#[test]
fn coalesce_runs_partition_invariants() {
    let mut rng = Rng64::new(0xC0A1);
    for _ in 0..CASES {
        let mut pages: BTreeSet<(u32, u64)> = BTreeSet::new();
        let n = rng.below(80);
        for _ in 0..n {
            pages.insert((rng.below(4) as u32, rng.below(200)));
        }
        let input: Vec<DirtyPage> = pages
            .iter()
            .map(|&(f, p)| DirtyPage {
                key: PageKey::new(f, p),
                frame: aquila_mmu::FrameId(0),
            })
            .collect();
        let runs = coalesce_runs(&input);
        let flat: Vec<(u32, u64)> = runs
            .iter()
            .flatten()
            .map(|d| (d.key.file, d.key.page))
            .collect();
        let expect: Vec<(u32, u64)> = pages.iter().copied().collect();
        assert_eq!(flat, expect);
        for run in &runs {
            for w in run.windows(2) {
                assert_eq!(w[0].key.file, w[1].key.file);
                assert_eq!(w[0].key.page + 1, w[1].key.page);
            }
        }
    }
}

/// Histogram quantiles are monotone and bounded by min/max, and the
/// mean is exact.
#[test]
fn histogram_invariants() {
    let mut rng = Rng64::new(0x4157);
    for _ in 0..CASES {
        let n = rng.range(1, 499);
        let values: Vec<u64> = (0..n).map(|_| rng.range(1, 999_999_999)).collect();
        let mut h = LatencyHist::new();
        let mut sum = 0u128;
        for &v in &values {
            h.record(Cycles(v));
            sum += v as u128;
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.mean().get(), (sum / values.len() as u128) as u64);
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        let mut prev = 0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0).get();
            assert!(q >= prev);
            assert!(q >= lo && q <= hi);
            prev = q;
        }
    }
}

/// Exact quantile over a sorted vector: the value at rank
/// `max(1, ceil(q * n))`, matching `LatencyHist::quantile`'s rank rule.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// `LatencyHist::quantile` stays within the documented ~1.5% relative
/// error (1/64, one linear sub-bucket) of the exact sorted-vector
/// quantile — across magnitudes, including values placed exactly on
/// bucket boundaries.
#[test]
fn histogram_quantile_matches_exact_within_bound() {
    const BOUND: f64 = 1.0 / 64.0; // one sub-bucket of relative error
    let mut rng = Rng64::new(0x0E51);
    for case in 0..CASES {
        let n = rng.range(1, 800);
        let mut values: Vec<u64> = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let v = match case % 4 {
                // Small exact range (group 0 buckets are exact).
                0 => rng.below(64),
                // Wide uniform range.
                1 => rng.range(1, 10_000_000),
                // Log-uniform across magnitudes.
                2 => {
                    let bits = rng.range(1, 40);
                    rng.below(1u64 << bits)
                }
                // Exact bucket boundaries: (64 + sub) << (group - 1).
                _ => {
                    let group = rng.range(1, 20);
                    let sub = rng.below(64);
                    (64 + sub) << (group - 1)
                }
            };
            values.push(v);
        }
        let mut h = LatencyHist::new();
        for &v in &values {
            h.record(Cycles(v));
        }
        values.sort_unstable();
        for &q in &[0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&values, q);
            let got = h.quantile(q).get();
            if exact == 0 {
                assert_eq!(got, 0, "q={q} exact=0 got={got}");
            } else {
                let err = (got as f64 - exact as f64).abs() / exact as f64;
                assert!(
                    err <= BOUND,
                    "case={case} q={q} exact={exact} got={got} err={err}"
                );
            }
        }
    }
}

/// The empty histogram reports zero for every statistic.
#[test]
fn histogram_empty_is_all_zero() {
    let h = LatencyHist::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.mean(), Cycles::ZERO);
    assert_eq!(h.min(), Cycles::ZERO);
    assert_eq!(h.max(), Cycles::ZERO);
    for &q in &[0.0, 0.5, 0.999, 1.0] {
        assert_eq!(h.quantile(q), Cycles::ZERO);
    }
}

/// Blobstore allocation never double-assigns clusters across blobs.
#[test]
fn blobstore_clusters_disjoint() {
    let mut rng = Rng64::new(0xB10B);
    for _ in 0..8 {
        let mut ctx = FreeCtx::new(1);
        let dev = Arc::new(aquila_devices::NvmeDevice::optane(16384));
        let access: Arc<dyn aquila_devices::StorageAccess> =
            Arc::new(aquila_devices::SpdkAccess::new(dev));
        let bs = aquila_devices::Blobstore::format(&mut ctx, access).unwrap();
        let mut blobs = Vec::new();
        let count = rng.range(1, 9);
        for _ in 0..count {
            let s = rng.range(1, 4);
            let b = bs.create();
            if bs.resize(b, s).is_ok() {
                blobs.push((b, s));
            }
        }
        // Every (blob, page) maps to a unique device page.
        let mut seen = std::collections::HashSet::new();
        for &(b, s) in &blobs {
            for page in 0..s * aquila_devices::PAGES_PER_CLUSTER {
                let lba = bs.lba_page(b, page).unwrap();
                assert!(seen.insert(lba), "device page {lba} double-mapped");
            }
        }
    }
}

/// Zipfian sampling stays in range and is reproducible.
#[test]
fn zipfian_range_and_determinism() {
    let mut rng = Rng64::new(0x21FF);
    for _ in 0..CASES {
        let n = rng.range(1, 9_999);
        let seed = rng.next_u64();
        let z = aquila_sim::Zipfian::new(n, 0.99);
        let mut a = Rng64::new(seed);
        let mut b = Rng64::new(seed);
        for _ in 0..50 {
            let x = z.sample(&mut a);
            let y = z.sample(&mut b);
            assert!(x < n);
            assert_eq!(x, y);
        }
    }
}

/// The asynchronous write-behind pipeline is invisible to durability:
/// a random store workload run under the evictor pipeline leaves the
/// device (`PageStore`) byte-identical to the same workload evicting
/// synchronously on the faulting vcore.
#[test]
fn async_pipeline_matches_sync_device_contents() {
    for case in 0..6u64 {
        let seed = 0xA51C + case * 0x9E37;
        let sync_img = write_behind_device_image(seed, false);
        let async_img = write_behind_device_image(seed, true);
        assert_eq!(sync_img.len(), async_img.len());
        assert!(
            sync_img == async_img,
            "device contents diverged (case {case})"
        );
    }
}

/// Transparent 2 MiB promotion is invisible to correctness: the same
/// random mmap/read/write/msync workload produces byte-identical device
/// images, identical final page contents, and identical in-flight read
/// values with `huge_pages` on and off.
///
/// The workload holds its one `sync_all` until the end: promoted-mode
/// `sync_all` splinters every run (write tracking restarts at 4 KiB),
/// while 4 KiB mode leaves RW PTEs in place, so mid-workload full syncs
/// are the one operation whose *tracking* side effects legitimately
/// differ. Mid-workload durability uses `msync` ranges, which downgrade
/// (4 KiB) or demote (2 MiB) equivalently.
#[test]
fn huge_page_promotion_matches_4k_results() {
    for case in 0..4u64 {
        let seed = 0x2417 + case * 0x9E37;
        let (img4k, mem4k, rd4k) = huge_equivalence_run(seed, false);
        let (img2m, mem2m, rd2m) = huge_equivalence_run(seed, true);
        assert_eq!(rd4k, rd2m, "in-flight read values diverged (case {case})");
        assert!(mem4k == mem2m, "final page contents diverged (case {case})");
        assert!(img4k == img2m, "device image diverged (case {case})");
    }
}

/// Runs the promotion-equivalence workload and returns (device image,
/// 64-byte prefix of every file page read back through the fault path,
/// FNV fold of every value read during the workload).
fn huge_equivalence_run(seed: u64, huge: bool) -> (Vec<u8>, Vec<u8>, u64) {
    use aquila::{Advice, AquilaRuntime, DeviceKind, MmioPolicy, Prot};
    use aquila_sim::CoreDebts;

    const FILE_PAGES: u64 = 1536; // three 2 MiB runs
    const DEVICE_PAGES: u64 = 4096;
    const CACHE_FRAMES: usize = 1024; // eviction pressure + 1 slab run
    const OPS: u64 = 1500;

    let policy = if huge {
        MmioPolicy {
            huge_pages: true,
            promote_threshold: 128,
            ..MmioPolicy::default()
        }
    } else {
        MmioPolicy::default()
    };
    let mut ctx = FreeCtx::new(seed);
    let debts = Arc::new(CoreDebts::new(1));
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        DEVICE_PAGES,
        CACHE_FRAMES,
        1,
        debts,
        policy,
    );
    rt.aquila.thread_enter(&mut ctx);
    let f = rt.open("/prop/huge", FILE_PAGES).unwrap();
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, FILE_PAGES, Prot::RW)
        .unwrap();
    rt.aquila
        .madvise(&mut ctx, addr, FILE_PAGES, Advice::Random)
        .unwrap();

    // Sequential warm touch: crosses each run's promotion threshold
    // (with holes device-filled, since only the first 128 pages of a run
    // are resident at the crossing).
    let mut buf = [0u8; 8];
    for p in 0..FILE_PAGES {
        rt.aquila
            .read(&mut ctx, addr.add(p * 4096), &mut buf)
            .unwrap();
    }
    if huge {
        assert!(
            rt.aquila.promoted_runs() > 0,
            "the workload must actually exercise promotion"
        );
    }

    let mut rng = Rng64::new(seed ^ 0x2417);
    let mut read_sum = 0u64;
    for _ in 0..OPS {
        let page = rng.below(FILE_PAGES);
        let off = rng.below(4096 - 8);
        match rng.below(8) {
            0..=4 => {
                let val = rng.next_u64();
                rt.aquila
                    .write(&mut ctx, addr.add(page * 4096 + off), &val.to_le_bytes())
                    .unwrap();
            }
            5 | 6 => {
                rt.aquila
                    .read(&mut ctx, addr.add(page * 4096 + off), &mut buf)
                    .unwrap();
                read_sum = read_sum
                    .wrapping_mul(0x100_0000_01B3)
                    .wrapping_add(u64::from_le_bytes(buf));
            }
            _ => {
                // Durability point on a random sub-range: downgrades the
                // 4 KiB PTEs, demotes any promoted run it overlaps.
                let base = rng.below(FILE_PAGES - 1);
                let len = rng.range(1, (FILE_PAGES - base).min(700));
                rt.aquila
                    .msync(&mut ctx, addr.add(base * 4096), len)
                    .unwrap();
            }
        }
    }
    rt.aquila.sync_all(&mut ctx).unwrap();

    // Final page contents, read back through the fault path.
    let mut mem = vec![0u8; (FILE_PAGES * 64) as usize];
    for p in 0..FILE_PAGES {
        rt.aquila
            .read(
                &mut ctx,
                addr.add(p * 4096),
                &mut mem[(p * 64) as usize..((p + 1) * 64) as usize],
            )
            .unwrap();
    }
    // And the raw device image underneath.
    let mut img = vec![0u8; (DEVICE_PAGES * 4096) as usize];
    for chunk in 0..DEVICE_PAGES / 64 {
        let base = chunk * 64;
        rt.access
            .read_pages(
                &mut ctx,
                base,
                &mut img[(base * 4096) as usize..((base + 64) * 4096) as usize],
            )
            .unwrap();
    }
    (img, mem, read_sum)
}

/// Runs a random store workload (writes, interleaved msyncs, final
/// sync_all) over an NVMe-backed Aquila stack and returns the full
/// device contents.
fn write_behind_device_image(seed: u64, pipeline: bool) -> Vec<u8> {
    use aquila::{Advice, AquilaRuntime, DeviceKind, MmioPolicy, Prot, WritePolicy};
    use aquila_sim::{Engine, Step};
    use std::sync::atomic::{AtomicBool, Ordering};

    const FILE_PAGES: u64 = 384;
    const DEVICE_PAGES: u64 = 4096;
    const CACHE_FRAMES: usize = 64;
    const OPS: u64 = 600;

    let policy = if pipeline {
        MmioPolicy {
            low_watermark: 8,
            high_watermark: 24,
            write_policy: WritePolicy::Async,
            queue_depth: 8,
            evict_batch: 16,
            ..MmioPolicy::default()
        }
    } else {
        MmioPolicy {
            evict_batch: 16,
            ..MmioPolicy::default()
        }
    };
    let cores = if pipeline { 2 } else { 1 };
    let mut engine = Engine::new(cores, seed);
    let mut ctx = FreeCtx::new(seed);
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        DEVICE_PAGES,
        CACHE_FRAMES,
        cores,
        engine.debts(),
        policy,
    );
    let f = rt.open("/prop/wb", FILE_PAGES).unwrap();
    let addr = rt
        .aquila
        .mmap(&mut ctx, f, 0, FILE_PAGES, Prot::RW)
        .unwrap();
    rt.aquila
        .madvise(&mut ctx, addr, FILE_PAGES, Advice::Random)
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    {
        let aquila = Arc::clone(&rt.aquila);
        let stop = Arc::clone(&stop);
        // The op sequence comes from its own generator so both runs see
        // identical stores regardless of engine interleaving.
        let mut rng = Rng64::new(seed ^ 0x57E9);
        let mut done = 0u64;
        engine.spawn(
            0,
            Box::new(move |ctx| {
                let page = rng.below(FILE_PAGES);
                let off = rng.below(4096 - 8);
                let val = rng.next_u64();
                aquila
                    .write(ctx, addr.add(page * 4096 + off), &val.to_le_bytes())
                    .unwrap();
                if done % 97 == 96 {
                    let base = rng.below(FILE_PAGES / 2);
                    let len = rng.range(1, FILE_PAGES / 2);
                    aquila.msync(ctx, addr.add(base * 4096), len).unwrap();
                }
                done += 1;
                if done >= OPS {
                    aquila.sync_all(ctx).unwrap();
                    stop.store(true, Ordering::Release);
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
    }
    if pipeline {
        engine.spawn(1, rt.aquila.evictor(Arc::clone(&stop)));
    }
    engine.run();

    // Read the whole device back through the access path.
    let mut img = vec![0u8; (DEVICE_PAGES * 4096) as usize];
    for chunk in 0..DEVICE_PAGES / 64 {
        let base = chunk * 64;
        rt.access
            .read_pages(
                &mut ctx,
                base,
                &mut img[(base * 4096) as usize..((base + 64) * 4096) as usize],
            )
            .unwrap();
    }
    img
}

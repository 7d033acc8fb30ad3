//! The paper's custom microbenchmark: threads issuing load/store
//! instructions at random offsets of a memory-mapped region, where
//! *every* access takes a page fault (section 5). Used by Figures 8
//! and 10.
//!
//! "Fits in memory" means the DRAM cache already holds every file page,
//! so faults are minor; "does not fit" makes faults major with eviction.
//! To force faults on every access the harness warms the *cache* and then
//! drops the *mappings* (munmap + mmap keeps shared file pages cached in
//! both engines), mirroring how the paper's microbenchmark guarantees a
//! fault per access.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use aquila::{Advice, Aquila, AquilaRuntime, DeviceKind, FileId, Gva, MmioPolicy, Prot};
use aquila_devices::{NvmeDevice, PmemDevice, StorageAccess};
use aquila_linuxsim::{KernelDevice, LinuxConfig, LinuxFileId, LinuxMmap};
use aquila_sim::{
    Breakdown, CoreDebts, Counters, Cycles, Engine, FreeCtx, LatencyHist, SimCtx, Step,
};
use aquila_sync::Mutex;

use crate::kvscen::Dev;

enum Inner {
    Aquila {
        aquila: Arc<Aquila>,
        access: Arc<dyn StorageAccess>,
        files: Vec<FileId>,
        bases: Mutex<Vec<Gva>>,
    },
    Linux {
        lm: Arc<LinuxMmap>,
        kdev: KernelDevice,
        files: Vec<LinuxFileId>,
        bases: Mutex<Vec<u64>>,
    },
}

/// A microbenchmark target: mapped files behind one mmio engine.
pub struct Micro {
    /// Configuration label.
    pub label: String,
    inner: Inner,
    pages_per_file: u64,
}

impl Micro {
    /// Pages per mapped file.
    pub fn pages_per_file(&self) -> u64 {
        self.pages_per_file
    }

    /// Number of mapped files.
    pub fn files(&self) -> usize {
        match &self.inner {
            Inner::Aquila { files, .. } => files.len(),
            Inner::Linux { files, .. } => files.len(),
        }
    }

    /// Reads 64 bytes at the start of `page` of file `file`.
    pub fn read(&self, ctx: &mut dyn SimCtx, file: usize, page: u64) {
        let mut buf = [0u8; 64];
        match &self.inner {
            Inner::Aquila { aquila, bases, .. } => {
                let base = bases.lock()[file % self.files()];
                aquila
                    .read(ctx, base.add(page * 4096), &mut buf)
                    .expect("micro read");
            }
            Inner::Linux { lm, bases, .. } => {
                let base = bases.lock()[file % self.files()];
                lm.read(ctx, (base + page) << 12, &mut buf)
                    .expect("micro read");
            }
        }
    }

    /// Writes 64 bytes at the start of `page` of file `file`.
    pub fn write(&self, ctx: &mut dyn SimCtx, file: usize, page: u64) {
        let buf = [0xA5u8; 64];
        match &self.inner {
            Inner::Aquila { aquila, bases, .. } => {
                let base = bases.lock()[file % self.files()];
                aquila
                    .write(ctx, base.add(page * 4096), &buf)
                    .expect("micro write");
            }
            Inner::Linux { lm, bases, .. } => {
                let base = bases.lock()[file % self.files()];
                lm.write(ctx, (base + page) << 12, &buf)
                    .expect("micro write");
            }
        }
    }

    /// Touches every page once (populates the cache — and the mappings,
    /// which [`Micro::drop_mappings`] then discards).
    pub fn warm_cache(&self, ctx: &mut dyn SimCtx) {
        for f in 0..self.files() {
            for p in 0..self.pages_per_file {
                self.read(ctx, f, p);
            }
        }
    }

    /// Unmaps and remaps every file: cached pages stay cached, but every
    /// subsequent access faults again (the paper's every-access-faults
    /// guarantee).
    pub fn drop_mappings(&self, ctx: &mut dyn SimCtx) {
        match &self.inner {
            Inner::Aquila {
                aquila,
                files,
                bases,
                ..
            } => {
                let mut bases = bases.lock();
                for (i, &f) in files.iter().enumerate() {
                    aquila
                        .munmap(ctx, bases[i], self.pages_per_file)
                        .expect("unmap");
                    let b = aquila
                        .mmap(ctx, f, 0, self.pages_per_file, Prot::RW)
                        .expect("remap");
                    aquila
                        .madvise(ctx, b, self.pages_per_file, Advice::Random)
                        .expect("madvise");
                    bases[i] = b;
                }
            }
            Inner::Linux {
                lm, files, bases, ..
            } => {
                let mut bases = bases.lock();
                for (i, &f) in files.iter().enumerate() {
                    lm.munmap(ctx, bases[i], self.pages_per_file);
                    bases[i] = lm
                        .mmap(ctx, f, 0, self.pages_per_file, true)
                        .expect("remap");
                }
            }
        }
    }

    /// Resets timing models between phases.
    pub fn reset_timing(&self) {
        match &self.inner {
            Inner::Aquila { access, .. } => access.reset_timing(),
            Inner::Linux { lm, kdev, .. } => {
                lm.reset_timing();
                kdev.reset_timing();
            }
        }
    }
}

/// Builds an Aquila microbenchmark target (readahead disabled via
/// `madvise(Random)`, as a random-access benchmark would).
pub fn micro_aquila(
    kind: DeviceKind,
    cores: usize,
    cache_frames: usize,
    nfiles: usize,
    pages_per_file: u64,
    debts: Arc<CoreDebts>,
) -> Micro {
    micro_aquila_policy(
        kind,
        cores,
        cache_frames,
        nfiles,
        pages_per_file,
        debts,
        MmioPolicy::default(),
    )
}

/// [`micro_aquila`] with an explicit [`MmioPolicy`] (used by the `--huge`
/// benchmark variants to enable transparent 2 MiB promotion).
pub fn micro_aquila_policy(
    kind: DeviceKind,
    cores: usize,
    cache_frames: usize,
    nfiles: usize,
    pages_per_file: u64,
    debts: Arc<CoreDebts>,
    policy: MmioPolicy,
) -> Micro {
    let mut ctx = FreeCtx::new(0xA0);
    let device_pages = (nfiles as u64 + 1) * (pages_per_file + 512) + 4096;
    let huge = policy.huge_pages;
    let rt = AquilaRuntime::build_with_policy(
        &mut ctx,
        kind,
        device_pages,
        cache_frames,
        cores,
        debts,
        policy,
    );
    let mut files = Vec::new();
    let mut bases = Vec::new();
    for i in 0..nfiles {
        let f = rt
            .open(&format!("/micro/{i}"), pages_per_file)
            .expect("open");
        let b = rt
            .aquila
            .mmap(&mut ctx, f, 0, pages_per_file, Prot::RW)
            .expect("map");
        rt.aquila
            .madvise(&mut ctx, b, pages_per_file, Advice::Random)
            .expect("madvise");
        files.push(f);
        bases.push(b);
    }
    Micro {
        label: format!("aquila/{:?}{}", rt.kind, if huge { "+2M" } else { "" }),
        inner: Inner::Aquila {
            aquila: Arc::clone(&rt.aquila),
            access: Arc::clone(&rt.access),
            files,
            bases: Mutex::new(bases),
        },
        pages_per_file,
    }
}

/// Builds a Linux (or kmmap) microbenchmark target. Linux detects the
/// random access pattern, so fault readahead is a single page here (the
/// 128 KiB window pathology belongs to file-streaming workloads like
/// RocksDB, Figure 5(b)).
pub fn micro_linux(
    kmmap: bool,
    dev: Dev,
    cores: usize,
    cache_frames: usize,
    nfiles: usize,
    pages_per_file: u64,
    debts: Arc<CoreDebts>,
) -> Micro {
    let mut ctx = FreeCtx::new(0xA1);
    let device_pages = (nfiles as u64 + 1) * (pages_per_file + 512) + 4096;
    let kdev = match dev {
        Dev::Nvme => KernelDevice::Nvme(Arc::new(NvmeDevice::optane(device_pages))),
        Dev::Pmem => KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(device_pages))),
    };
    let mut cfg = if kmmap {
        LinuxConfig::kmmap(cores, cache_frames)
    } else {
        LinuxConfig::linux(cores, cache_frames)
    };
    cfg.readahead_pages = if kmmap { 0 } else { 1 };
    let lm = Arc::new(LinuxMmap::new(cfg, kdev.clone(), debts));
    let mut files = Vec::new();
    let mut bases = Vec::new();
    for _ in 0..nfiles {
        let f = lm.open_file(pages_per_file).expect("file");
        let b = lm.mmap(&mut ctx, f, 0, pages_per_file, true).expect("map");
        files.push(f);
        bases.push(b);
    }
    Micro {
        label: format!("{}/{}", if kmmap { "kmmap" } else { "mmap" }, dev.name()),
        inner: Inner::Linux {
            lm,
            kdev,
            files,
            bases: Mutex::new(bases),
        },
        pages_per_file,
    }
}

/// Result of an engine-driven microbenchmark run.
pub struct MicroResult {
    /// Total operations.
    pub ops: u64,
    /// Makespan in virtual time.
    pub elapsed: Cycles,
    /// Merged per-op latency histogram.
    pub latency: LatencyHist,
    /// Merged cost breakdown.
    pub breakdown: Breakdown,
    /// Merged counters.
    pub counters: Counters,
}

impl MicroResult {
    /// Throughput in kops/s.
    pub fn kops(&self) -> f64 {
        if self.elapsed == Cycles::ZERO {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e3
    }
}

/// Prepares a fault-per-access run: optionally warms the cache (the
/// fits-in-memory case), then drops mappings and resets timing.
pub fn prepare_micro(micro: &Micro, warm: bool) {
    let mut ctx = FreeCtx::new(0xA2);
    if warm {
        micro.warm_cache(&mut ctx);
    }
    micro.drop_mappings(&mut ctx);
    micro.reset_timing();
}

/// Runs `threads` virtual threads, each performing `ops_per_thread`
/// random-page reads. With `shared_file` every thread hits file 0;
/// otherwise thread `t` owns file `t`.
pub fn run_micro(
    micro: Arc<Micro>,
    threads: usize,
    ops_per_thread: u64,
    shared_file: bool,
    seed: u64,
) -> MicroResult {
    let mut engine = Engine::new(threads, seed);
    let hists: Rc<RefCell<Vec<LatencyHist>>> = Rc::new(RefCell::new(
        (0..threads).map(|_| LatencyHist::new()).collect(),
    ));
    for t in 0..threads {
        let micro = Arc::clone(&micro);
        let hists = Rc::clone(&hists);
        let file = if shared_file { 0 } else { t };
        // In shared-file mode each thread samples a disjoint slice, so
        // page collisions between threads never produce free non-faulting
        // accesses (the paper's 100 GB region makes collisions negligible;
        // scaled regions need the explicit partitioning).
        let chunk = micro.pages_per_file() / threads as u64;
        let (lo, span) = if shared_file && threads > 1 && chunk > 0 {
            (t as u64 * chunk, chunk)
        } else {
            (0, micro.pages_per_file())
        };
        let mut done = 0u64;
        engine.spawn(
            t,
            Box::new(move |ctx| {
                let page = lo + ctx.rng().below(span);
                let t0 = ctx.now();
                micro.read(ctx, file, page);
                hists.borrow_mut()[ctx.id() % threads].record(ctx.now() - t0);
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
    let mut latency = LatencyHist::new();
    for h in hists.borrow().iter() {
        latency.merge(h);
    }
    MicroResult {
        ops: threads as u64 * ops_per_thread,
        elapsed: report.makespan,
        latency,
        breakdown: report.breakdown,
        counters: report.counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_then_remap_gives_minor_faults() {
        let debts = Arc::new(CoreDebts::new(1));
        let micro = Arc::new(micro_aquila(
            DeviceKind::PmemDax,
            1,
            8192,
            1,
            4096,
            Arc::clone(&debts),
        ));
        prepare_micro(&micro, true);
        // Sparse random access over a large region: almost every access
        // is a first touch and faults.
        let r = run_micro(Arc::clone(&micro), 1, 400, true, 1);
        assert!(
            r.counters.page_faults >= 350,
            "most accesses fault: {}",
            r.counters.page_faults
        );
        assert_eq!(r.counters.major_faults, 0, "warm cache: all minor");
    }

    #[test]
    fn cold_cache_gives_major_faults() {
        let debts = Arc::new(CoreDebts::new(1));
        let micro = Arc::new(micro_aquila(
            DeviceKind::PmemDax,
            1,
            256,
            1,
            2048,
            Arc::clone(&debts),
        ));
        prepare_micro(&micro, false);
        let r = run_micro(Arc::clone(&micro), 1, 300, true, 1);
        assert!(
            r.counters.major_faults > 250,
            "cold large file: major faults"
        );
    }

    #[test]
    fn aquila_scales_on_minor_faults_linux_does_not() {
        // The Figure 10(a) shape, in miniature: shared file, warm cache,
        // every access a minor fault.
        let threads = 32;
        let debts = Arc::new(CoreDebts::new(threads));
        let pages = 8192;

        let aq = Arc::new(micro_aquila(
            DeviceKind::PmemDax,
            threads,
            2 * pages as usize,
            1,
            pages,
            Arc::clone(&debts),
        ));
        prepare_micro(&aq, true);
        let aq1 = run_micro(Arc::clone(&aq), 1, 300, true, 1);
        prepare_micro(&aq, true);
        let aq8 = run_micro(Arc::clone(&aq), threads, 200, true, 1);

        let lx = Arc::new(micro_linux(
            false,
            Dev::Pmem,
            threads,
            2 * pages as usize,
            1,
            pages,
            Arc::clone(&debts),
        ));
        prepare_micro(&lx, true);
        let lx1 = run_micro(Arc::clone(&lx), 1, 300, true, 1);
        prepare_micro(&lx, true);
        let lx8 = run_micro(Arc::clone(&lx), threads, 200, true, 1);

        // Figure 10(a) shape: Aquila's advantage widens with threads
        // (1.81x at 1 thread to 8.37x at 32 in the paper) because Linux's
        // single page-cache tree lock saturates.
        let adv1 = aq1.kops() / lx1.kops();
        let adv32 = aq8.kops() / lx8.kops();
        assert!(adv1 > 1.3, "single-thread advantage {adv1:.2}");
        assert!(
            adv32 > 2.0 * adv1,
            "advantage must widen: {adv1:.2} -> {adv32:.2}"
        );
    }

    #[test]
    fn kmmap_micro_builds_and_runs() {
        let debts = Arc::new(CoreDebts::new(1));
        let micro = micro_linux(true, Dev::Nvme, 1, 256, 1, 512, debts);
        assert!(micro.label.contains("kmmap"));
        let mut ctx = FreeCtx::new(1);
        micro.write(&mut ctx, 0, 5);
        micro.read(&mut ctx, 0, 5);
        assert!(ctx.stats.page_faults > 0);
    }
}

//! `fault-fit` and `fault-evict`: the Figure 10 microbenchmark with a
//! fault on every access.
//!
//! 32 simulated vcores share one pmem file. Vcore `t` owns the slice
//! `[t*S, (t+1)*S)` and loads 64 bytes from each page of its slice once
//! per pass, in a seeded order (sampling *without* replacement), so no
//! access of a pass finds its page already mapped. Each pass maps the
//! file afresh on both engines; earlier mappings stay in place, because
//! unmapping them would rerun the baseline's O(unmapped x cached)
//! `munmap`, which set-up already measures once. Every `EPOCH_PASSES`
//! passes the engines are rebuilt without that `munmap`, so the mappings
//! left in place cannot grow memory without bound. Aquila and the Linux
//! baseline run identical inputs.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use aquila::{Advice, Aquila, AquilaRuntime, DeviceKind, FileId, Gva, Prot};
use aquila_devices::PmemDevice;
use aquila_linuxsim::{KernelDevice, LinuxConfig, LinuxFileId, LinuxMmap};
use aquila_sim::{CoreDebts, Engine, FreeCtx, SimCtx, Step};

use crate::common::{mix, pattern, Outcome, PaperRatio};
use crate::trace;

/// Simulated vcores (the paper's 32 threads).
pub const CORES: usize = 32;
/// Passes whose virtual-clock statistics are reported. Later passes only
/// add host-clock samples, so virtual metrics do not depend on host speed.
pub const PREFIX_PASSES: usize = 2;
/// Passes on one world before it is rebuilt (bounds the memory held by
/// mappings left in place).
const EPOCH_PASSES: usize = 16;
/// Bytes per load.
const LOAD: usize = 64;

/// Workload shape.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Whether the cache holds the whole file (Figure 10a) or 1/12 of it
    /// (Figure 10b).
    pub fit: bool,
    /// File size in pages.
    pub pages: u64,
}

impl Shape {
    pub const FIT: Shape = Shape {
        fit: true,
        pages: 16_384,
    };
    pub const EVICT: Shape = Shape {
        fit: false,
        pages: 16_384,
    };

    pub fn cache_frames(self) -> usize {
        if self.fit {
            (self.pages + self.pages / 8) as usize
        } else {
            (self.pages / 12) as usize
        }
    }

    fn device_pages(self) -> u64 {
        2 * (self.pages + 512) + 4096
    }

    fn paper(self) -> (&'static str, f64) {
        if self.fit {
            ("fig10a shared pmem 32T aquila/mmap kops", 8.37)
        } else {
            ("fig10b shared pmem 32T aquila/mmap kops", 12.92)
        }
    }
}

#[derive(Clone)]
enum Target {
    Aquila { aq: Arc<Aquila>, base: Gva },
    Linux { lm: Arc<LinuxMmap>, base: u64 },
}

impl Target {
    fn read(
        &self,
        ctx: &mut dyn SimCtx,
        page: u64,
        off: usize,
        buf: &mut [u8],
    ) -> Result<(), String> {
        match self {
            Target::Aquila { aq, base } => {
                let now = ctx.now().get();
                trace::begin("core.read", now);
                let r = aq.read(ctx, base.add(page * 4096 + off as u64), buf);
                trace::end(ctx.now().get());
                r.map_err(|e| format!("aquila read: {e:?}"))
            }
            Target::Linux { lm, base } => {
                let now = ctx.now().get();
                trace::begin("linuxsim.read", now);
                let r = lm.read(ctx, ((base + page) << 12) + off as u64, buf);
                trace::end(ctx.now().get());
                r.map_err(|e| format!("linux read: {e:?}"))
            }
        }
    }
}

struct World {
    rt: AquilaRuntime,
    aq_file: FileId,
    aq_base: Gva,
    lm: Arc<LinuxMmap>,
    kdev: KernelDevice,
    lx_file: LinuxFileId,
    lx_base: u64,
    aq_setup_s: f64,
    munmap_s: f64,
}

impl World {
    fn reset_timing(&self) {
        self.rt.aquila.reset_lock_timing();
        self.rt.access.reset_timing();
        self.lm.reset_timing();
        self.kdev.reset_timing();
    }

    /// Maps the file afresh on both engines, so the next pass faults on
    /// every page.
    fn remap_fresh(&mut self, ctx: &mut FreeCtx, pages: u64) -> Result<(), String> {
        let aq = &self.rt.aquila;
        self.aq_base = aq
            .mmap(ctx, self.aq_file, 0, pages, Prot::RW)
            .map_err(|e| format!("aquila mmap: {e:?}"))?;
        aq.madvise(ctx, self.aq_base, pages, Advice::Random)
            .map_err(|e| format!("aquila madvise: {e:?}"))?;
        self.lx_base = self
            .lm
            .mmap(ctx, self.lx_file, 0, pages, true)
            .map_err(|e| format!("linux mmap: {e:?}"))?;
        Ok(())
    }
}

/// Builds both engines, writes the seeded pattern to every page, syncs
/// it, and (with `unmap`, the timed set-up) unmaps the file; then maps it
/// afresh, so cached pages stay cached but every access faults again.
fn build(shape: Shape, seed: u64, unmap: bool) -> Result<World, String> {
    let pages = shape.pages;
    let mut ctx = FreeCtx::new(seed);
    let mut page_buf = vec![0u8; 4096];

    let t_aq = Instant::now();
    let rt = AquilaRuntime::build(
        &mut ctx,
        DeviceKind::PmemDax,
        shape.device_pages(),
        shape.cache_frames(),
        CORES,
        Arc::new(CoreDebts::new(CORES)),
    );
    let aq = Arc::clone(&rt.aquila);
    let aq_file = rt
        .open("/perfbench/data", pages)
        .map_err(|e| format!("aquila open: {e:?}"))?;
    let base = aq
        .mmap(&mut ctx, aq_file, 0, pages, Prot::RW)
        .map_err(|e| format!("aquila mmap: {e:?}"))?;
    for p in 0..pages {
        pattern(seed, p, 0, &mut page_buf);
        aq.write(&mut ctx, base.add(p * 4096), &page_buf)
            .map_err(|e| format!("aquila pattern write: {e:?}"))?;
    }
    aq.msync(&mut ctx, base, pages)
        .map_err(|e| format!("aquila msync: {e:?}"))?;
    if unmap {
        aq.munmap(&mut ctx, base, pages)
            .map_err(|e| format!("aquila munmap: {e:?}"))?;
    }
    let aq_setup_s = t_aq.elapsed().as_secs_f64();

    let kdev = KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(shape.device_pages())));
    let lm = Arc::new(LinuxMmap::new(
        LinuxConfig::linux(CORES, shape.cache_frames()),
        kdev.clone(),
        Arc::new(CoreDebts::new(CORES)),
    ));
    let lx_file = lm
        .open_file(pages)
        .map_err(|e| format!("linux open: {e:?}"))?;
    let lbase = lm
        .mmap(&mut ctx, lx_file, 0, pages, true)
        .map_err(|e| format!("linux mmap: {e:?}"))?;
    for p in 0..pages {
        pattern(seed, p, 0, &mut page_buf);
        lm.write(&mut ctx, (lbase + p) << 12, &page_buf)
            .map_err(|e| format!("linux pattern write: {e:?}"))?;
    }
    lm.msync(&mut ctx, lbase, pages)
        .map_err(|e| format!("linux msync: {e:?}"))?;
    let t_unmap = Instant::now();
    if unmap {
        lm.munmap(&mut ctx, lbase, pages);
    }
    let munmap_s = t_unmap.elapsed().as_secs_f64();

    let mut w = World {
        rt,
        aq_file,
        aq_base: base,
        lm,
        kdev,
        lx_file,
        lx_base: lbase,
        aq_setup_s,
        munmap_s,
    };
    let t_map = Instant::now();
    w.remap_fresh(&mut ctx, pages)?;
    w.aq_setup_s += t_map.elapsed().as_secs_f64();
    w.reset_timing();
    Ok(w)
}

/// Per-vcore (page, offset) inputs of pass `pass`: every page of the
/// vcore's slice exactly once, in a seeded order.
fn inputs(shape: Shape, seed: u64, pass: u64) -> Vec<Vec<(u32, u16)>> {
    let slice = shape.pages / CORES as u64;
    (0..CORES as u64)
        .map(|t| {
            let mut rng = aquila_sim::Rng64::new(mix(seed ^ mix(pass << 8 | t)));
            let mut v: Vec<(u32, u16)> = (t * slice..(t + 1) * slice)
                .map(|p| {
                    (
                        p as u32,
                        (rng.below((4096 / LOAD) as u64) as usize * LOAD) as u16,
                    )
                })
                .collect();
            for i in (1..v.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                v.swap(i, j);
            }
            v
        })
        .collect()
}

struct PassOut {
    ops: u64,
    report: aquila_sim::RunReport,
    lat: Vec<u64>,
    failed: u64,
    first_error: Option<String>,
    host_s: f64,
}

/// Runs one closed-loop pass: each vcore issues its next load only when
/// the previous one completes.
fn run_pass(
    target: &Target,
    ins: &Rc<Vec<Vec<(u32, u16)>>>,
    seed: u64,
    pattern_seed: u64,
) -> PassOut {
    #[derive(Default)]
    struct Shared {
        lat: Vec<u64>,
        failed: u64,
        first_error: Option<String>,
    }
    let shared = Rc::new(RefCell::new(Shared::default()));
    let mut engine = Engine::new(CORES, seed);
    let mut ops = 0u64;
    for t in 0..CORES {
        let ins = Rc::clone(ins);
        let shared = Rc::clone(&shared);
        let target = target.clone();
        ops += ins[t].len() as u64;
        let mut idx = 0usize;
        engine.spawn(
            t,
            Box::new(move |ctx| {
                let (page, off) = ins[t][idx];
                let (page, off) = (page as u64, off as usize);
                let mut buf = [0u8; LOAD];
                let t0 = ctx.now();
                trace::begin("op", t0.get());
                let r = target.read(ctx, page, off, &mut buf);
                let lat = ctx.now() - t0;
                let mut want = [0u8; LOAD];
                pattern(pattern_seed, page, off, &mut want);
                trace::end(ctx.now().get());
                let mut s = shared.borrow_mut();
                s.lat.push(lat.get());
                let err = match r {
                    Err(e) => Some(e),
                    Ok(()) if buf != want => {
                        Some(format!("wrong bytes at page {page} offset {off}"))
                    }
                    Ok(()) => None,
                };
                if let Some(e) = err {
                    s.failed += 1;
                    s.first_error.get_or_insert(e);
                }
                idx += 1;
                if idx == ins[t].len() {
                    Step::Done
                } else {
                    Step::Yield
                }
            }),
        );
    }
    let t0 = Instant::now();
    let report = engine.run();
    let host_s = t0.elapsed().as_secs_f64();
    drop(engine);
    let s = Rc::try_unwrap(shared)
        .ok()
        .expect("threads dropped")
        .into_inner();
    PassOut {
        ops,
        report,
        lat: s.lat,
        failed: s.failed,
        first_error: s.first_error,
        host_s,
    }
}

/// Runs the workload: `setups` full set-ups (timed), then measured
/// passes for `seconds` of host time on the last one.
pub fn run(
    shape: Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut world = None;
    for _ in 0..setups {
        // Drop the previous world first so peak memory holds one world.
        drop(world.take());
        let t0 = Instant::now();
        let w = build(shape, seed, true)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.core_setup_s.push(w.aq_setup_s);
        out.munmap_s = w.munmap_s;
        world = Some(w);
    }
    let mut w = world.expect("at least one set-up");

    let start = Instant::now();
    let mut ctx = FreeCtx::new(seed ^ 0x5EED);
    let mut pass = 0usize;
    loop {
        let extra = pass.saturating_sub(PREFIX_PASSES);
        let need_more = pass < PREFIX_PASSES || (traced && extra < 2);
        if !need_more && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if pass > 0 && pass.is_multiple_of(EPOCH_PASSES) {
            drop(w);
            w = build(shape, seed, false)?;
        } else if pass > 0 {
            w.remap_fresh(&mut ctx, shape.pages)?;
            w.reset_timing();
        }
        let ins = Rc::new(inputs(shape, seed, pass as u64));
        // Prefix passes are traced in a traced run; later ones alternate
        // untraced/traced to measure the tracer's own overhead.
        let trace_this = traced && (pass < PREFIX_PASSES || extra % 2 == 1);
        trace::set_enabled(trace_this);
        let op_ns_before = trace::fold("op").host_ns;
        let engine_seed = mix(seed ^ pass as u64);
        let aq = run_pass(
            &Target::Aquila {
                aq: Arc::clone(&w.rt.aquila),
                base: w.aq_base,
            },
            &ins,
            engine_seed,
            seed,
        );
        let lx = run_pass(
            &Target::Linux {
                lm: Arc::clone(&w.lm),
                base: w.lx_base,
            },
            &ins,
            engine_seed,
            seed,
        );
        trace::set_enabled(false);
        for p in [&aq, &lx] {
            out.attempted += p.ops;
            out.failed += p.failed;
            if let Some(e) = &p.first_error {
                if out.gate_errors.len() < 4 {
                    out.gate_errors.push(format!("pass {pass}: {e}"));
                }
            }
        }
        let ops = aq.ops + lx.ops;
        let secs = aq.host_s + lx.host_s;
        out.host.add(ops, secs);
        if trace_this {
            out.traced_run_s += secs;
            out.traced_steps += ops;
            out.traced_run_s -= (trace::fold("op").host_ns - op_ns_before) as f64 / 1e9;
        }
        if pass >= PREFIX_PASSES && traced {
            if trace_this {
                out.host_traced.add(ops, secs);
            } else {
                out.host_untraced.add(ops, secs);
            }
        }
        if pass < PREFIX_PASSES {
            out.mmio.add_run(aq.ops, &aq.report, &aq.lat);
            out.base.add_run(lx.ops, &lx.report, &lx.lat);
            if pass == 0 {
                out.page_trace = ins.iter().flatten().map(|&(p, _)| p as u64).collect();
            }
            if pass + 1 == PREFIX_PASSES {
                // Each load touches one page.
                out.mmio_touches = out.mmio.ops;
                out.peak_rss_mb = crate::report::peak_rss_mb();
            }
        }
        pass += 1;
    }
    out.passes = pass;

    let (label, paper) = shape.paper();
    out.paper.push(PaperRatio {
        label,
        simulated: out.mmio.kops() / out.base.kops(),
        paper,
    });
    for (name, acc) in [("mmio", &out.mmio), ("linux", &out.base)] {
        let faults = acc.per_op(acc.counters.page_faults);
        if faults < 0.99 {
            out.gate_errors.push(format!(
                "{name}: {faults:.4} faults/op, the workload's premise needs >= 0.99"
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_cover_each_slice_once() {
        let shape = Shape {
            fit: true,
            pages: 32 * 8,
        };
        let ins = inputs(shape, 7, 0);
        assert_eq!(ins.len(), CORES);
        for (t, v) in ins.iter().enumerate() {
            let mut pages: Vec<u32> = v.iter().map(|&(p, _)| p).collect();
            pages.sort_unstable();
            let want: Vec<u32> = (t as u32 * 8..(t as u32 + 1) * 8).collect();
            assert_eq!(pages, want);
            assert!(v
                .iter()
                .all(|&(_, off)| (off as usize).is_multiple_of(LOAD) && (off as usize) < 4096));
        }
        assert_eq!(inputs(shape, 7, 0), ins);
        assert_ne!(inputs(shape, 7, 1), ins);
    }
}

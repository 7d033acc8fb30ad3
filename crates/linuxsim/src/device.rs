//! In-kernel device fill paths for the Linux baselines.
//!
//! A Linux page-cache fill happens *inside* the fault handler: no extra
//! syscall is paid, but the kernel cannot use SIMD copies (section 3.3)
//! and NVMe goes through the interrupt-driven block layer.

use std::sync::Arc;

use aquila_devices::{BufRef, NvmeDevice, NvmeOp, Page, PmemDevice, STORE_PAGE};
use aquila_sim::{CostCat, Cycles, SimCtx};

/// Block-layer glue cost of one kernel pmem request.
const PMEM_GLUE: Cycles = Cycles(240);

/// A device as seen from the host kernel.
#[derive(Clone)]
pub enum KernelDevice {
    /// A pmem block device: fills are scalar memcpys.
    Pmem(Arc<PmemDevice>),
    /// An NVMe SSD through the kernel block layer.
    Nvme(Arc<NvmeDevice>),
}

impl KernelDevice {
    /// Resets the device timing model (between experiment phases).
    pub fn reset_timing(&self) {
        match self {
            KernelDevice::Pmem(d) => d.reset_timing(),
            KernelDevice::Nvme(d) => d.reset_timing(),
        }
    }

    /// Device capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        match self {
            KernelDevice::Pmem(d) => d.capacity_pages(),
            KernelDevice::Nvme(d) => d.capacity_pages(),
        }
    }

    /// Reads pages from within the kernel (fault fill / readahead).
    pub fn read_pages(&self, ctx: &mut dyn SimCtx, page: u64, buf: &mut [u8]) {
        match self {
            KernelDevice::Pmem(d) => {
                // Kernel pmem driver: scalar copy, small block-glue cost.
                ctx.charge(CostCat::DeviceIo, PMEM_GLUE);
                d.dax_read(ctx, page * STORE_PAGE as u64, buf, false)
                    .expect("kernel fill within device bounds");
            }
            KernelDevice::Nvme(d) => {
                let c = ctx.cost().nvme_submit_kernel;
                ctx.charge(CostCat::DeviceIo, c);
                let pages = buf.len() / STORE_PAGE;
                let qp = d.create_qpair();
                qp.submit(ctx.now(), NvmeOp::Read, page, pages, BufRef::Mut(buf))
                    .expect("kernel fill within device bounds");
                // Interrupt-driven completion: CPU idles.
                qp.drain(ctx, CostCat::Idle);
                ctx.counters().device_reads += 1;
                ctx.counters().bytes_read += buf.len() as u64;
            }
        }
    }

    /// The readahead fill: the `count` pages starting at `page`, one
    /// buffer each, charged exactly as one [`Self::read_pages`] of the
    /// total length. pmem hands out its own copy-on-write page buffers
    /// (no bytes move); NVMe reads one page straight into a fresh buffer
    /// and stages multi-page reads through one contiguous buffer.
    pub fn fill_pages(&self, ctx: &mut dyn SimCtx, page: u64, count: usize) -> Vec<Arc<Page>> {
        match self {
            KernelDevice::Pmem(d) => {
                ctx.charge(CostCat::DeviceIo, PMEM_GLUE);
                d.dax_share_read(ctx, page, count, false)
                    .expect("kernel fill within device bounds")
            }
            KernelDevice::Nvme(_) if count == 1 => {
                let mut one: Arc<Page> = Arc::new([0u8; STORE_PAGE]);
                self.read_pages(ctx, page, &mut Arc::make_mut(&mut one)[..]);
                vec![one]
            }
            KernelDevice::Nvme(_) => {
                let mut staged = vec![0u8; count * STORE_PAGE];
                self.read_pages(ctx, page, &mut staged);
                staged
                    .chunks_exact(STORE_PAGE)
                    .map(|chunk| Arc::new(Page::try_from(chunk).expect("whole pages")))
                    .collect()
            }
        }
    }

    /// Writes pages from within the kernel (writeback).
    pub fn write_pages(&self, ctx: &mut dyn SimCtx, page: u64, buf: &[u8]) {
        match self {
            KernelDevice::Pmem(d) => {
                ctx.charge(CostCat::DeviceIo, PMEM_GLUE);
                d.dax_write(ctx, page * STORE_PAGE as u64, buf, false)
                    .expect("kernel writeback within device bounds");
            }
            KernelDevice::Nvme(d) => {
                let c = ctx.cost().nvme_submit_kernel;
                ctx.charge(CostCat::DeviceIo, c);
                let pages = buf.len() / STORE_PAGE;
                let qp = d.create_qpair();
                qp.submit(ctx.now(), NvmeOp::Write, page, pages, BufRef::Shared(buf))
                    .expect("kernel writeback within device bounds");
                qp.drain(ctx, CostCat::Idle);
                ctx.counters().device_writes += 1;
                ctx.counters().bytes_written += buf.len() as u64;
            }
        }
    }

    /// Writes one whole page back, charged exactly as a one-page
    /// [`Self::write_pages`]. pmem takes a share of `data` instead of
    /// copying it; the buffer is copy-on-write on both sides.
    pub fn write_page(&self, ctx: &mut dyn SimCtx, page: u64, data: &Arc<Page>) {
        match self {
            KernelDevice::Pmem(d) => {
                ctx.charge(CostCat::DeviceIo, PMEM_GLUE);
                d.dax_share_write(ctx, page, Arc::clone(data), false)
                    .expect("kernel writeback within device bounds");
            }
            KernelDevice::Nvme(_) => self.write_pages(ctx, page, &data[..]),
        }
    }
}

impl core::fmt::Debug for KernelDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelDevice::Pmem(_) => write!(f, "KernelDevice::Pmem"),
            KernelDevice::Nvme(_) => write!(f, "KernelDevice::Nvme"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::{trace::TraceEvent, FreeCtx};

    #[test]
    fn pmem_fill_costs_scalar_memcpy() {
        let dev = KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(16)));
        let mut ctx = FreeCtx::new(1);
        let mut buf = vec![0u8; STORE_PAGE];
        dev.read_pages(&mut ctx, 0, &mut buf);
        // Scalar 4K copy (~2430) + glue (~240): the paper's ~2.6K-cycle
        // device component of a Linux pmem fault (Figure 8(a)).
        let total = ctx.now().get();
        assert!((2200..3600).contains(&total), "pmem fill cost {total}");
    }

    #[test]
    fn nvme_fill_waits_idle() {
        let dev = KernelDevice::Nvme(Arc::new(NvmeDevice::optane(16)));
        let mut ctx = FreeCtx::new(1);
        let mut buf = vec![0u8; STORE_PAGE];
        dev.read_pages(&mut ctx, 0, &mut buf);
        assert!(ctx.breakdown.get(CostCat::Idle) >= aquila_sim::Cycles::from_micros(9));
    }

    fn devices() -> [KernelDevice; 2] {
        [
            KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(16))),
            KernelDevice::Nvme(Arc::new(NvmeDevice::optane(16))),
        ]
    }

    /// Runs `op` on a fresh context on vcore `core` (unique per call)
    /// with the device timing reset, and returns everything it charged —
    /// clock, breakdown, counters and the trace spans it emitted — as one
    /// comparable string.
    fn charged(dev: &KernelDevice, core: usize, op: impl FnOnce(&mut FreeCtx)) -> String {
        let tracer = aquila_sim::trace::install(aquila_sim::trace::DEFAULT_CAPACITY);
        dev.reset_timing();
        let mut ctx = FreeCtx::new(1).with_core(core, core + 1);
        op(&mut ctx);
        let spans: Vec<String> = tracer
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span {
                    name,
                    cat,
                    core: c,
                    start,
                    dur,
                } if *c == core => Some(format!("{name} {cat:?} {start:?} {dur:?}")),
                _ => None,
            })
            .collect();
        format!(
            "{:?} {:?} {:?} {spans:?}",
            ctx.now(),
            ctx.breakdown,
            ctx.stats
        )
    }

    fn flat(pages: &[Arc<Page>]) -> Vec<u8> {
        pages.iter().flat_map(|p| p.iter().copied()).collect()
    }

    #[test]
    fn fill_pages_charges_like_read_pages() {
        let mut core = 9100;
        for dev in devices() {
            let data: Vec<u8> = (0..4 * STORE_PAGE).map(|i| (i % 253) as u8).collect();
            dev.write_pages(&mut FreeCtx::new(1), 2, &data);
            for count in [1usize, 4] {
                let len = count * STORE_PAGE;
                let mut buf = vec![0u8; len];
                core += 2;
                let read = charged(&dev, core, |ctx| dev.read_pages(ctx, 2, &mut buf));
                let mut pages = Vec::new();
                let fill = charged(&dev, core + 1, |ctx| pages = dev.fill_pages(ctx, 2, count));
                assert_eq!(fill, read, "{dev:?} x{count}");
                assert_eq!(pages.len(), count);
                assert_eq!(flat(&pages), data[..len], "{dev:?} x{count}");
                assert_eq!(buf, data[..len]);
            }
        }
    }

    #[test]
    fn write_page_charges_like_write_pages() {
        let mut core = 9200;
        for dev in devices() {
            let data = Arc::new([0xA5u8; STORE_PAGE]);
            core += 2;
            let copied = charged(&dev, core, |ctx| dev.write_pages(ctx, 1, &data[..]));
            let shared = charged(&dev, core + 1, |ctx| dev.write_page(ctx, 2, &data));
            assert_eq!(shared, copied, "{dev:?}");
            assert_eq!(flat(&dev.fill_pages(&mut FreeCtx::new(1), 2, 1)), data[..]);
        }
    }

    #[test]
    fn never_written_pages_fill_as_zero() {
        for dev in devices() {
            let pages = dev.fill_pages(&mut FreeCtx::new(1), 5, 3);
            assert!(flat(&pages).iter().all(|&b| b == 0), "{dev:?}");
        }
    }

    #[test]
    fn filled_pages_do_not_see_later_device_writes() {
        for dev in devices() {
            let mut ctx = FreeCtx::new(1);
            dev.write_pages(&mut ctx, 0, &[1u8; 2 * STORE_PAGE]);
            let pages = dev.fill_pages(&mut ctx, 0, 2);
            dev.write_pages(&mut ctx, 0, &[2u8; 2 * STORE_PAGE]);
            assert!(flat(&pages).iter().all(|&b| b == 1), "{dev:?}");
            let mine = Arc::new([3u8; STORE_PAGE]);
            dev.write_page(&mut ctx, 4, &mine);
            dev.write_pages(&mut ctx, 4, &[4u8; STORE_PAGE]);
            assert!(mine.iter().all(|&b| b == 3), "{dev:?}");
        }
    }

    #[test]
    fn kernel_write_roundtrip() {
        for dev in [
            KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(16))),
            KernelDevice::Nvme(Arc::new(NvmeDevice::optane(16))),
        ] {
            let mut ctx = FreeCtx::new(1);
            let data = vec![0x3Cu8; STORE_PAGE];
            dev.write_pages(&mut ctx, 3, &data);
            let mut back = vec![0u8; STORE_PAGE];
            dev.read_pages(&mut ctx, 3, &mut back);
            assert_eq!(back, data, "{dev:?}");
        }
    }
}

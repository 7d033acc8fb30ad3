//! [`MemRegion`] implementation over Linux `mmap` / kmmap.

use std::sync::Arc;

use aquila_sim::{MemRegion, SimCtx};

use crate::mmap::{LinuxError, LinuxFileId, LinuxMmap};

/// A mapped file region over the Linux (or kmmap) baseline.
pub struct LinuxRegion {
    lm: Arc<LinuxMmap>,
    base_vpn: u64,
    len: u64,
}

impl LinuxRegion {
    /// Maps `pages` pages of `file` and wraps the mapping.
    pub fn map(
        ctx: &mut dyn SimCtx,
        lm: Arc<LinuxMmap>,
        file: LinuxFileId,
        pages: u64,
    ) -> Result<LinuxRegion, LinuxError> {
        let base_vpn = lm.mmap(ctx, file, 0, pages, true)?;
        Ok(LinuxRegion {
            lm,
            base_vpn,
            len: pages * 4096,
        })
    }

    /// The engine backing this region.
    pub fn linux(&self) -> &Arc<LinuxMmap> {
        &self.lm
    }
}

impl MemRegion for LinuxRegion {
    fn len(&self) -> u64 {
        self.len
    }

    fn read(&self, ctx: &mut dyn SimCtx, off: u64, buf: &mut [u8]) {
        assert!(
            off + buf.len() as u64 <= self.len,
            "region read out of range"
        );
        self.lm
            .read(ctx, (self.base_vpn << 12) + off, buf)
            .expect("region access within mapping");
    }

    fn write(&self, ctx: &mut dyn SimCtx, off: u64, buf: &[u8]) {
        assert!(
            off + buf.len() as u64 <= self.len,
            "region write out of range"
        );
        self.lm
            .write(ctx, (self.base_vpn << 12) + off, buf)
            .expect("region access within mapping");
    }

    fn sync(&self, ctx: &mut dyn SimCtx, off: u64, len: u64) {
        let first = off / 4096;
        let pages = (off + len).div_ceil(4096) - first;
        self.lm
            .msync(ctx, self.base_vpn + first, pages)
            .expect("sync within mapping");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::KernelDevice;
    use crate::mmap::LinuxConfig;
    use aquila_devices::PmemDevice;
    use aquila_sim::{CoreDebts, FreeCtx};

    #[test]
    fn region_over_linux_roundtrip() {
        let mut ctx = FreeCtx::new(1);
        let dev = KernelDevice::Pmem(Arc::new(PmemDevice::dram_backed(2048)));
        let debts = Arc::new(CoreDebts::new(1));
        let lm = Arc::new(LinuxMmap::new(LinuxConfig::linux(1, 128), dev, debts));
        let f = lm.open_file(512).unwrap();
        let region = LinuxRegion::map(&mut ctx, Arc::clone(&lm), f, 512).unwrap();
        region.write(&mut ctx, 99_999, b"linux heap");
        let mut back = [0u8; 10];
        region.read(&mut ctx, 99_999, &mut back);
        assert_eq!(&back, b"linux heap");
        region.sync(&mut ctx, 0, region.len());
        assert!(ctx.stats.page_faults > 0);
        assert!(ctx.stats.writebacks > 0);
        assert_eq!(lm.audit(), Ok(()));
    }
}

//! Raw page storage backing simulated devices.
//!
//! Device contents are real bytes: writes persist, reads return what was
//! written, so the KV stores and graph workloads above verify actual data
//! integrity through the whole mmio path. Per-page locks keep the store
//! sound under real threads without serializing unrelated pages.
//!
//! Each page is a shared, copy-on-write buffer: [`PageStore::share`]
//! hands out a reference instead of a copy (a kernel page-cache fill),
//! [`PageStore::install`] takes one back (a whole-page writeback), and a
//! write to a page someone else still holds copies it first, so a shared
//! buffer never changes under its other holders.

use std::sync::{Arc, OnceLock};

use aquila_sync::RwLock;

use crate::error::DeviceError;

/// Page size of the store (4 KiB).
pub const STORE_PAGE: usize = 4096;

/// One page of bytes.
pub type Page = [u8; STORE_PAGE];

/// The process-wide all-zero page. Never-written pages share it, and a
/// write to it copies first like to any shared page.
pub fn zero_page() -> Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    Arc::clone(ZERO.get_or_init(|| Arc::new([0u8; STORE_PAGE])))
}

/// A page-granular byte store.
pub struct PageStore {
    pages: Vec<RwLock<Option<Arc<Page>>>>,
}

impl PageStore {
    /// Creates a store of `pages` logically-zero pages.
    ///
    /// Pages are materialized lazily on first write, so a mostly-empty
    /// multi-GB device costs almost no host memory.
    pub fn new(pages: u64) -> PageStore {
        PageStore {
            pages: (0..pages).map(|_| RwLock::new(None)).collect(),
        }
    }

    /// Number of pages in the store.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Pages currently materialized (allocated in host memory).
    pub fn resident_pages(&self) -> u64 {
        self.pages.iter().filter(|p| p.read().is_some()).count() as u64
    }

    fn slot(&self, page: u64) -> Result<&RwLock<Option<Arc<Page>>>, DeviceError> {
        self.pages
            .get(page as usize)
            .ok_or(DeviceError::OutOfRange {
                page,
                pages: 1,
                capacity: self.page_count(),
            })
    }

    /// Reads `buf.len()` bytes from `page` starting at `offset`.
    ///
    /// Fails if the range crosses the page boundary or the page index is
    /// out of bounds.
    pub fn read_at(&self, page: u64, offset: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        if offset + buf.len() > STORE_PAGE {
            return Err(DeviceError::CrossesPage {
                offset,
                len: buf.len(),
            });
        }
        match &*self.slot(page)?.read() {
            Some(data) => buf.copy_from_slice(&data[offset..offset + buf.len()]),
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Writes `buf` into `page` starting at `offset`.
    ///
    /// Fails if the range crosses the page boundary or the page index is
    /// out of bounds.
    pub fn write_at(&self, page: u64, offset: usize, buf: &[u8]) -> Result<(), DeviceError> {
        if offset + buf.len() > STORE_PAGE {
            return Err(DeviceError::CrossesPage {
                offset,
                len: buf.len(),
            });
        }
        let mut slot = self.slot(page)?.write();
        let data = Arc::make_mut(slot.get_or_insert_with(zero_page));
        data[offset..offset + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Hands out `page`'s buffer without copying it (the shared zero page
    /// if it was never written). Later writes to the store copy first, so
    /// the returned bytes never change.
    pub fn share(&self, page: u64) -> Result<Arc<Page>, DeviceError> {
        Ok(self.slot(page)?.read().clone().unwrap_or_else(zero_page))
    }

    /// Makes `data` the whole contents of `page`, sharing the buffer with
    /// whoever else holds it (they keep their bytes if the page is later
    /// written here, and vice versa).
    pub fn install(&self, page: u64, data: Arc<Page>) -> Result<(), DeviceError> {
        *self.slot(page)?.write() = Some(data);
        Ok(())
    }

    /// Reads a possibly multi-page byte range starting at absolute byte
    /// offset `pos`.
    pub fn read_range(&self, pos: u64, buf: &mut [u8]) -> Result<(), DeviceError> {
        let mut done = 0usize;
        while done < buf.len() {
            let abs = pos + done as u64;
            let page = abs / STORE_PAGE as u64;
            let off = (abs % STORE_PAGE as u64) as usize;
            let n = (STORE_PAGE - off).min(buf.len() - done);
            self.read_at(page, off, &mut buf[done..done + n])?;
            done += n;
        }
        Ok(())
    }

    /// Writes a possibly multi-page byte range starting at absolute byte
    /// offset `pos`.
    pub fn write_range(&self, pos: u64, buf: &[u8]) -> Result<(), DeviceError> {
        let mut done = 0usize;
        while done < buf.len() {
            let abs = pos + done as u64;
            let page = abs / STORE_PAGE as u64;
            let off = (abs % STORE_PAGE as u64) as usize;
            let n = (STORE_PAGE - off).min(buf.len() - done);
            self.write_at(page, off, &buf[done..done + n])?;
            done += n;
        }
        Ok(())
    }

    /// Drops a page's contents back to logical zero (TRIM/deallocate).
    pub fn discard(&self, page: u64) -> Result<(), DeviceError> {
        *self.slot(page)?.write() = None;
        Ok(())
    }

    /// Flattens the whole store into one byte image (never-written pages
    /// read as zero). The crash-consistency harness captures this at a
    /// simulated power cut and recovers a fresh device from it.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut image = vec![0u8; self.pages.len() * STORE_PAGE];
        for (i, slot) in self.pages.iter().enumerate() {
            if let Some(data) = &*slot.read() {
                image[i * STORE_PAGE..(i + 1) * STORE_PAGE].copy_from_slice(&data[..]);
            }
        }
        image
    }
}

impl core::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "PageStore {{ pages: {}, resident: {} }}",
            self.page_count(),
            self.resident_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_pages_read_zero() {
        let s = PageStore::new(4);
        let mut buf = [0xFFu8; 16];
        s.read_at(2, 100, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let s = PageStore::new(4);
        s.write_at(1, 10, b"payload").unwrap();
        let mut buf = [0u8; 7];
        s.read_at(1, 10, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn range_io_crosses_pages() {
        let s = PageStore::new(3);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        s.write_range(100, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        s.read_range(100, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(s.resident_pages(), 3);
    }

    #[test]
    fn discard_returns_page_to_zero() {
        let s = PageStore::new(2);
        s.write_at(0, 0, &[1, 2, 3]).unwrap();
        s.discard(0).unwrap();
        let mut buf = [9u8; 3];
        s.read_at(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0]);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn cross_boundary_page_io_is_error() {
        let s = PageStore::new(2);
        assert_eq!(
            s.read_at(0, 4090, &mut [0u8; 16]),
            Err(DeviceError::CrossesPage {
                offset: 4090,
                len: 16
            })
        );
    }

    #[test]
    fn snapshot_flattens_with_zero_holes() {
        let s = PageStore::new(3);
        s.write_at(1, 8, b"mid").unwrap();
        let img = s.snapshot();
        assert_eq!(img.len(), 3 * STORE_PAGE);
        assert_eq!(&img[STORE_PAGE + 8..STORE_PAGE + 11], b"mid");
        assert!(img[..STORE_PAGE].iter().all(|&b| b == 0));
        assert!(img[2 * STORE_PAGE..].iter().all(|&b| b == 0));
    }

    #[test]
    fn shared_page_is_copy_on_write() {
        let s = PageStore::new(2);
        assert!(s.share(1).unwrap().iter().all(|&b| b == 0), "unwritten");
        s.write_at(0, 0, b"old").unwrap();
        let shared = s.share(0).unwrap();
        s.write_at(0, 0, b"new").unwrap();
        assert_eq!(&shared[..3], b"old", "a store write leaves the share alone");
        let mut page = [7u8; STORE_PAGE];
        page[..4].copy_from_slice(b"mine");
        let mine = Arc::new(page);
        s.install(1, Arc::clone(&mine)).unwrap();
        s.write_at(1, 0, b"dev").unwrap();
        assert_eq!(
            &mine[..4],
            b"mine",
            "installed buffer is not written in place"
        );
        let mut buf = [0u8; 4];
        s.read_at(1, 0, &mut buf).unwrap();
        assert_eq!(&buf[..3], b"dev");
        assert_eq!(buf[3], b'e', "rest of the installed page kept");
        assert!(
            zero_page().iter().all(|&b| b == 0),
            "zero page never written"
        );
    }

    #[test]
    fn out_of_bounds_page_is_error() {
        let s = PageStore::new(2);
        assert!(matches!(
            s.write_at(7, 0, &[1]),
            Err(DeviceError::OutOfRange { page: 7, .. })
        ));
        assert!(matches!(
            s.discard(2),
            Err(DeviceError::OutOfRange { page: 2, .. })
        ));
    }
}

//! The Linux kernel page cache model: one radix tree, one lock.
//!
//! The paper's profiling (section 6.5) finds that "in Linux, a single lock
//! protects the radix tree of cached pages, and, as a result, is highly
//! contended"; marking a page dirty needs the *same* lock. This module
//! reproduces that structure: a functional index plus a [`SimMutex`]
//! reservation that models the tree lock's serialization, so Figure 10's
//! collapse emerges from the model rather than being hard-coded.
//!
//! The index is what the kernel's radix tree is: per file, an array from
//! page offset to frame, so lookup, insert and reclaim are O(1). Frames
//! hold shared copy-on-write page buffers ([`Page`]): a fill installs the
//! device's buffer, a writeback hands the frame's buffer to the device,
//! and a store into a frame copies it first if anyone else holds it.

use std::sync::Arc;

use aquila_devices::{zero_page, Page};
use aquila_sync::{DetMap, Mutex, RwLock};

use aquila_sim::{race, CostCat, Cycles, SimCtx, SimMutex};

use crate::mmap::AuditError;

/// A (file, page) key in the page cache.
pub type Key = (u32, u64);

/// Cycles the tree lock is held for a lookup/insert/delete.
pub const TREE_HOLD: Cycles = Cycles(350);

/// Marks an index slot with no cached page.
const NO_FRAME: u32 = u32::MAX;

// Race-detector identities. The host-side `inner` mutex protects the
// whole index (index/owner/dirty/lru/free move together); `tree_locks` is
// the registry of per-file virtual tree locks. Order declared in
// [`KernelPageCache::new`]; the registry lock is never held across
// `inner`.
const LOCK_TREE_LOCKS: race::LockKey = ("linux.pagecache.tree_locks", 0);
const LOCK_INNER: race::LockKey = ("linux.pagecache.inner", 0);
const VAR_TREE_LOCKS: race::VarKey = ("linux.pagecache.tree_locks.map", 0);
const VAR_INNER: race::VarKey = ("linux.pagecache.index", 0);

/// Exact LRU over frame ids (an intrusive doubly-linked list).
struct LruList {
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Sentinel index = frames.len(): head.next is the LRU victim,
    /// head.prev the most recently used.
    sentinel: u32,
    linked: Vec<bool>,
}

impl LruList {
    fn new(frames: usize) -> LruList {
        let s = frames as u32;
        let mut l = LruList {
            prev: vec![0; frames + 1],
            next: vec![0; frames + 1],
            sentinel: s,
            linked: vec![false; frames],
        };
        l.prev[s as usize] = s;
        l.next[s as usize] = s;
        l
    }

    fn unlink(&mut self, f: u32) {
        if !self.linked[f as usize] {
            return;
        }
        let (p, n) = (self.prev[f as usize], self.next[f as usize]);
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
        self.linked[f as usize] = false;
    }

    /// Moves `f` to the MRU position.
    fn touch(&mut self, f: u32) {
        self.unlink(f);
        let s = self.sentinel;
        let tail = self.prev[s as usize];
        self.next[tail as usize] = f;
        self.prev[f as usize] = tail;
        self.next[f as usize] = s;
        self.prev[s as usize] = f;
        self.linked[f as usize] = true;
    }

    /// Pops the LRU frame, if any.
    fn pop_lru(&mut self) -> Option<u32> {
        let s = self.sentinel;
        let head = self.next[s as usize];
        if head == s {
            return None;
        }
        self.unlink(head);
        Some(head)
    }
}

struct Inner {
    /// `index[file][page]` is the page's frame, or [`NO_FRAME`].
    index: Vec<Vec<u32>>,
    /// Cached pages (frames named by `index`).
    resident: usize,
    owner: Vec<Option<Key>>,
    dirty: DetMap<Key, ()>,
    lru: LruList,
    free: Vec<u32>,
}

impl Inner {
    fn get(&self, (file, page): Key) -> Option<u32> {
        let frame = *self.index.get(file as usize)?.get(page as usize)?;
        (frame != NO_FRAME).then_some(frame)
    }

    /// Caches `key` (not cached yet) in `frame` (free or just evicted)
    /// as the most recently used page.
    fn link(&mut self, key: Key, frame: u32) {
        let (file, page) = (key.0 as usize, key.1 as usize);
        if self.index.len() <= file {
            self.index.resize_with(file + 1, Vec::new);
        }
        let pages = &mut self.index[file];
        if pages.len() <= page {
            pages.resize(page + 1, NO_FRAME);
        }
        pages[page] = frame;
        self.resident += 1;
        self.owner[frame as usize] = Some(key);
        self.lru.touch(frame);
    }

    /// Uncaches the page in frame `f` (already off the LRU) and returns
    /// it as a victim.
    fn evict(&mut self, f: u32) -> KVictim {
        let key = self.owner[f as usize]
            .take()
            .expect("LRU frames have owners");
        self.index[key.0 as usize][key.1 as usize] = NO_FRAME;
        self.resident -= 1;
        let dirty = self.dirty.remove(&key).is_some();
        KVictim {
            key,
            frame: f,
            dirty,
        }
    }
}

/// An evicted kernel-cache page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KVictim {
    /// The page that was evicted.
    pub key: Key,
    /// Its frame (data still present until reused).
    pub frame: u32,
    /// Whether it must be written back.
    pub dirty: bool,
}

/// The kernel page cache.
pub struct KernelPageCache {
    frames: Vec<RwLock<Arc<Page>>>,
    inner: Mutex<Inner>,
    /// Per-file (per-inode address_space) tree locks, indexed by file.
    /// All threads reading one shared file contend on one of these — the
    /// Figure 10 shared-file collapse — while separate files use separate
    /// locks.
    tree_locks: Mutex<Vec<Arc<SimMutex>>>,
    /// The LRU/zone lock taken by reclaim.
    lru_lock: SimMutex,
    contended: std::sync::atomic::AtomicU64,
}

impl KernelPageCache {
    /// Creates a cache of `frames` 4 KiB frames.
    pub fn new(frames: usize) -> KernelPageCache {
        race::declare_order(
            "linux.pagecache",
            &["linux.pagecache.tree_locks", "linux.pagecache.inner"],
        );
        let zero = zero_page();
        KernelPageCache {
            frames: (0..frames)
                .map(|_| RwLock::new(Arc::clone(&zero)))
                .collect(),
            inner: Mutex::new(Inner {
                index: Vec::new(),
                resident: 0,
                owner: vec![None; frames],
                dirty: DetMap::new(),
                lru: LruList::new(frames),
                free: (0..frames as u32).rev().collect(),
            }),
            tree_locks: Mutex::new(Vec::new()),
            lru_lock: SimMutex::new(),
            contended: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Total frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Cached page count.
    pub fn resident(&self) -> usize {
        self.inner.lock().resident
    }

    /// Dirty page count.
    pub fn dirty_count(&self) -> usize {
        self.inner.lock().dirty.len()
    }

    /// Contended tree-lock acquisitions across files (diagnostics).
    pub fn tree_lock_contended(&self) -> u64 {
        self.contended.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Resets lock timing models (between experiment phases).
    pub fn reset_timing(&self) {
        for l in self.tree_locks.lock().iter() {
            l.reset();
        }
        self.lru_lock.reset();
    }

    fn take_tree_lock(&self, ctx: &mut dyn SimCtx, file: u32, hold: Cycles) {
        race::acquire(ctx, LOCK_TREE_LOCKS);
        let lock = {
            let mut locks = self.tree_locks.lock();
            if locks.len() <= file as usize {
                locks.resize_with(file as usize + 1, Default::default);
            }
            Arc::clone(&locks[file as usize])
        };
        race::write(ctx, VAR_TREE_LOCKS);
        race::release(ctx, LOCK_TREE_LOCKS);
        let t_lock = ctx.now();
        // The tree lock is a *non-scalable* spinlock: every waiter spins
        // on the lock word, so each hand-off pays one cache-line transfer
        // per spinner (Boyd-Wickizer et al., "Non-scalable locks are
        // dangerous"). Model the effective hold as growing with the
        // queued backlog — this is what makes Linux's shared-file fault
        // throughput collapse, rather than merely plateau, as core
        // counts rise (the paper's Figures 6/10).
        let spinners = (lock.backlog(ctx.now()).get() / TREE_HOLD.get()).min(64);
        let hold = hold + Cycles(ctx.cost().lock_contended_extra.get() * spinners);
        let r = lock.acquire(ctx.now(), hold);
        if r.wait > Cycles::ZERO {
            self.contended
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            aquila_sim::metrics::add(ctx, "linux.tree_lock.contended", 1);
        }
        ctx.wait_until(r.start, CostCat::LockWait);
        if r.wait > Cycles::ZERO {
            aquila_sim::trace::span(ctx, "linux.tree_lock.wait", CostCat::LockWait, t_lock);
        }
        ctx.wait_until(r.end, CostCat::CacheMgmt);
    }

    /// Looks up a page under its file's tree lock, touching the LRU.
    pub fn lookup(&self, ctx: &mut dyn SimCtx, key: Key) -> Option<u32> {
        self.take_tree_lock(ctx, key.0, TREE_HOLD);
        race::acquire(ctx, LOCK_INNER);
        let mut inner = self.inner.lock();
        let frame = inner.get(key);
        if let Some(f) = frame {
            inner.lru.touch(f);
        }
        drop(inner);
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
        frame
    }

    /// Allocates a frame for `key`, evicting the LRU page when full.
    ///
    /// Returns `(frame, victim, was_present)`: when `was_present` the key
    /// was already cached (possibly dirty) and the caller must NOT
    /// overwrite the frame with device data.
    pub fn insert(&self, ctx: &mut dyn SimCtx, key: Key) -> (u32, Option<KVictim>, bool) {
        self.take_tree_lock(ctx, key.0, TREE_HOLD);
        race::acquire(ctx, LOCK_INNER);
        let mut inner = self.inner.lock();
        let result = if let Some(f) = inner.get(key) {
            // Already cached (or raced with another fill).
            (f, None, true)
        } else {
            let (frame, victim) = match inner.free.pop() {
                Some(f) => (f, None),
                None => {
                    let f = inner
                        .lru
                        .pop_lru()
                        .expect("no free and no LRU: empty cache?");
                    ctx.counters().evictions += 1;
                    (f, Some(inner.evict(f)))
                }
            };
            inner.link(key, frame);
            (frame, victim, false)
        };
        drop(inner);
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
        result
    }

    /// Marks a page dirty — under the same tree lock (the Linux
    /// behaviour the paper calls out).
    pub fn mark_dirty(&self, ctx: &mut dyn SimCtx, key: Key) {
        self.take_tree_lock(ctx, key.0, TREE_HOLD);
        race::acquire(ctx, LOCK_INNER);
        self.inner.lock().dirty.insert(key, ());
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
    }

    /// Clears the dirty mark after writeback.
    pub fn clear_dirty(&self, ctx: &mut dyn SimCtx, key: Key) {
        self.take_tree_lock(ctx, key.0, TREE_HOLD);
        race::acquire(ctx, LOCK_INNER);
        self.inner.lock().dirty.remove(&key);
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
    }

    /// Snapshot of the dirty pages of `file` within `[start, end)` page
    /// range, sorted by offset.
    pub fn dirty_range(
        &self,
        ctx: &mut dyn SimCtx,
        file: u32,
        start: u64,
        end: u64,
    ) -> Vec<(Key, u32)> {
        self.take_tree_lock(ctx, file, TREE_HOLD * 4);
        race::acquire(ctx, LOCK_INNER);
        let inner = self.inner.lock();
        // The dirty set is ordered by (file, page): walk just the range.
        let v: Vec<(Key, u32)> = inner
            .dirty
            .range((file, start)..(file, end.max(start)))
            .map(|(&k, _)| (k, inner.get(k).expect("dirty pages are cached")))
            .collect();
        drop(inner);
        race::read(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
        v
    }

    /// A cached page's frame and dirty bit, read host-side without the
    /// tree lock or an LRU touch (audits and tests; charges nothing).
    pub fn peek(&self, key: Key) -> Option<(u32, bool)> {
        let inner = self.inner.lock();
        let frame = inner.get(key)?;
        Some((frame, inner.dirty.contains_key(&key)))
    }

    /// Free frames remaining.
    pub fn free_count(&self) -> usize {
        self.inner.lock().free.len()
    }

    /// Reclaims up to `n` LRU pages under the LRU/zone lock (kswapd-style
    /// batched reclaim). The caller unmaps the victims, performs one
    /// batched shootdown, and writes dirty ones back.
    pub fn reclaim(&self, ctx: &mut dyn SimCtx, n: usize) -> Vec<KVictim> {
        let r = self
            .lru_lock
            .acquire(ctx.now(), Cycles(150 * n.max(1) as u64));
        ctx.wait_until(r.start, CostCat::LockWait);
        ctx.wait_until(r.end, CostCat::Eviction);
        race::acquire(ctx, LOCK_INNER);
        let mut inner = self.inner.lock();
        let mut out = Vec::new();
        for _ in 0..n {
            let Some(f) = inner.lru.pop_lru() else { break };
            out.push(inner.evict(f));
            inner.free.push(f);
            ctx.counters().evictions += 1;
        }
        drop(inner);
        race::write(ctx, VAR_INNER);
        race::release(ctx, LOCK_INNER);
        out
    }

    /// Reads bytes out of a frame.
    pub fn read_frame(&self, frame: u32, offset: usize, buf: &mut [u8]) {
        let data = self.frames[frame as usize].read();
        buf.copy_from_slice(&data[offset..offset + buf.len()]);
    }

    /// Writes bytes into a frame, copying its buffer first if anyone
    /// else (the device, after a fill or writeback) still shares it.
    pub fn write_frame(&self, frame: u32, offset: usize, buf: &[u8]) {
        let mut data = self.frames[frame as usize].write();
        Arc::make_mut(&mut data)[offset..offset + buf.len()].copy_from_slice(buf);
    }

    /// Makes `page` the frame's whole contents (a fill: no copy).
    pub fn set_frame(&self, frame: u32, page: Arc<Page>) {
        *self.frames[frame as usize].write() = page;
    }

    /// Shares the frame's buffer (a writeback: no copy). A later
    /// [`Self::write_frame`] copies first, so the returned bytes never
    /// change.
    pub fn share_frame(&self, frame: u32) -> Arc<Page> {
        Arc::clone(&self.frames[frame as usize].read())
    }

    /// Checks frame conservation (`free + resident == capacity`, each
    /// frame either free or owned by exactly one key), index/`owner`
    /// agreement in both directions, and that every dirty key is
    /// resident.
    pub fn audit(&self) -> Result<(), AuditError> {
        let inner = self.inner.lock();
        let (free, resident, capacity) = (inner.free.len(), inner.resident, self.capacity());
        if free + resident != capacity {
            return Err(AuditError::FrameCount {
                free,
                resident,
                capacity,
            });
        }
        let mut indexed = 0usize;
        for (file, pages) in inner.index.iter().enumerate() {
            for (page, &frame) in pages.iter().enumerate() {
                if frame == NO_FRAME {
                    continue;
                }
                indexed += 1;
                let key = (file as u32, page as u64);
                let owned = inner.owner.get(frame as usize) == Some(&Some(key));
                if !owned || !inner.lru.linked[frame as usize] {
                    return Err(AuditError::FrameOwner { frame });
                }
            }
        }
        if indexed != resident {
            return Err(AuditError::ResidentCount { resident, indexed });
        }
        for (frame, owner) in inner.owner.iter().enumerate() {
            if owner.is_some_and(|key| inner.get(key) != Some(frame as u32)) {
                return Err(AuditError::FrameOwner {
                    frame: frame as u32,
                });
            }
        }
        let mut on_free_list = vec![false; capacity];
        for &frame in &inner.free {
            let twice = std::mem::replace(&mut on_free_list[frame as usize], true);
            if twice || inner.owner[frame as usize].is_some() || inner.lru.linked[frame as usize] {
                return Err(AuditError::FrameOwner { frame });
            }
        }
        if let Some(&key) = inner.dirty.keys().find(|&&k| inner.get(k).is_none()) {
            return Err(AuditError::DirtyNotResident { key });
        }
        Ok(())
    }
}

impl core::fmt::Debug for KernelPageCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "KernelPageCache {{ resident: {}/{}, dirty: {} }}",
            self.resident(),
            self.capacity(),
            self.dirty_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aquila_sim::FreeCtx;

    #[test]
    fn insert_lookup_roundtrip() {
        let c = KernelPageCache::new(4);
        let mut ctx = FreeCtx::new(1);
        let (f, v, present) = c.insert(&mut ctx, (0, 7));
        assert!(v.is_none());
        assert!(!present);
        c.write_frame(f, 0, b"kernel");
        let got = c.lookup(&mut ctx, (0, 7)).unwrap();
        assert_eq!(got, f);
        let mut buf = [0u8; 6];
        c.read_frame(got, 0, &mut buf);
        assert_eq!(&buf, b"kernel");
        assert_eq!(c.audit(), Ok(()));
    }

    #[test]
    fn lru_eviction_order() {
        let c = KernelPageCache::new(2);
        let mut ctx = FreeCtx::new(1);
        c.insert(&mut ctx, (0, 1));
        c.insert(&mut ctx, (0, 2));
        // Touch page 1 so page 2 becomes LRU.
        c.lookup(&mut ctx, (0, 1));
        let (_, victim, _) = c.insert(&mut ctx, (0, 3));
        assert_eq!(victim.unwrap().key, (0, 2));
        assert!(c.lookup(&mut ctx, (0, 1)).is_some());
        assert!(c.lookup(&mut ctx, (0, 2)).is_none());
        assert_eq!(c.audit(), Ok(()));
    }

    #[test]
    fn dirty_tracking_and_victims() {
        let c = KernelPageCache::new(1);
        let mut ctx = FreeCtx::new(1);
        c.insert(&mut ctx, (0, 1));
        c.mark_dirty(&mut ctx, (0, 1));
        assert_eq!(c.dirty_count(), 1);
        let (_, victim, _) = c.insert(&mut ctx, (0, 2));
        let v = victim.unwrap();
        assert!(v.dirty, "dirty victim flagged for writeback");
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.audit(), Ok(()));
    }

    #[test]
    fn dirty_range_sorted_and_scoped() {
        let c = KernelPageCache::new(8);
        let mut ctx = FreeCtx::new(1);
        for p in [5u64, 1, 3] {
            c.insert(&mut ctx, (1, p));
            c.mark_dirty(&mut ctx, (1, p));
        }
        c.insert(&mut ctx, (2, 9));
        c.mark_dirty(&mut ctx, (2, 9));
        let d = c.dirty_range(&mut ctx, 1, 0, 4);
        let pages: Vec<u64> = d.iter().map(|&((_, p), _)| p).collect();
        assert_eq!(pages, vec![1, 3]);
        c.clear_dirty(&mut ctx, (1, 1));
        assert_eq!(c.dirty_count(), 3);
        assert_eq!(c.audit(), Ok(()));
    }

    #[test]
    fn tree_lock_serializes_in_virtual_time() {
        let c = KernelPageCache::new(64);
        // Two contexts at the same virtual time: the second waits.
        let mut a = FreeCtx::new(1);
        let mut b = FreeCtx::new(2);
        c.lookup(&mut a, (0, 1));
        c.lookup(&mut b, (0, 1));
        assert_eq!(a.breakdown.get(CostCat::LockWait), Cycles::ZERO);
        assert_eq!(b.breakdown.get(CostCat::LockWait), TREE_HOLD);
        assert_eq!(c.tree_lock_contended(), 1);
        assert_eq!(c.audit(), Ok(()));
    }

    #[test]
    fn audit_catches_a_corrupt_index() {
        let c = KernelPageCache::new(4);
        let mut ctx = FreeCtx::new(1);
        let (f1, _, _) = c.insert(&mut ctx, (0, 1));
        let (f2, _, _) = c.insert(&mut ctx, (0, 2));
        assert_eq!(c.audit(), Ok(()));
        // Two pages swap frames in the index behind their owners' backs.
        c.inner.lock().index[0].swap(1, 2);
        assert_eq!(c.audit(), Err(AuditError::FrameOwner { frame: f2 }));
        c.inner.lock().index[0].swap(1, 2);
        // A page drops out of the index but is still counted resident.
        c.inner.lock().index[0][2] = NO_FRAME;
        assert_eq!(
            c.audit(),
            Err(AuditError::ResidentCount {
                resident: 2,
                indexed: 1
            })
        );
        // ... and once the count agrees, its frame is owned but unindexed.
        c.inner.lock().resident = 1;
        c.inner.lock().free.push(f1 + 2);
        assert!(c.audit().is_err());
    }

    #[test]
    fn frames_share_buffers_copy_on_write() {
        let c = KernelPageCache::new(2);
        let mut ctx = FreeCtx::new(1);
        let (f, _, _) = c.insert(&mut ctx, (0, 0));
        let mut buf = [9u8; 4];
        c.read_frame(f, 0, &mut buf);
        assert_eq!(buf, [0; 4], "frames start as the zero page");
        let fill = Arc::new([1u8; 4096]);
        c.set_frame(f, Arc::clone(&fill));
        c.write_frame(f, 0, b"new");
        assert!(
            fill.iter().all(|&b| b == 1),
            "fill buffer not written in place"
        );
        let wb = c.share_frame(f);
        c.write_frame(f, 0, b"two");
        assert_eq!(&wb[..3], b"new", "writeback buffer not written in place");
        c.read_frame(f, 0, &mut buf);
        assert_eq!(&buf, b"two\x01");
        assert!(zero_page().iter().all(|&b| b == 0));
    }

    #[test]
    fn insert_race_returns_existing() {
        let c = KernelPageCache::new(4);
        let mut ctx = FreeCtx::new(1);
        let (f1, _, p1) = c.insert(&mut ctx, (0, 1));
        let (f2, v, p2) = c.insert(&mut ctx, (0, 1));
        assert_eq!(f1, f2);
        assert!(v.is_none());
        assert!(!p1);
        assert!(p2, "second insert sees the cached page");
        assert_eq!(c.resident(), 1);
        assert_eq!(c.audit(), Ok(()));
    }
}

//! `kv-ycsb-a`: Figure 9. Krill (the Kreon port) runs YCSB-A (50% reads,
//! 50% updates, Zipfian keys) on one vcore over NVMe, with the dataset
//! about twice the cache. Aquila uses SPDK; the baseline is kmmap. Both
//! stores receive the identical operation sequence.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aquila::{Advice, AquilaRegion, AquilaRuntime, DeviceKind};
use aquila_devices::NvmeDevice;
use aquila_kvstore::{Krill, KrillConfig};
use aquila_linuxsim::{KernelDevice, LinuxConfig, LinuxMmap, LinuxRegion};
use aquila_sim::{CoreDebts, Engine, FreeCtx, MemRegion, Rng64, SimCtx, Step};
use aquila_ycsb::workload::{value_of, KeyGen, Op, OpKind, VALUE_SIZE};
use aquila_ycsb::{Distribution, Workload};

use crate::common::{mix, Outcome, PaperRatio};
use crate::trace;

/// Records loaded before measuring (Figure 9's default scale).
pub const RECORDS: u64 = 6_144;
/// Operations per round and configuration.
const ROUND_OPS: u64 = 5_000;
/// Rounds whose virtual-clock statistics are reported.
pub const PREFIX_ROUNDS: usize = 6;
/// Region size in pages: the loaded data plus room for the update log
/// and index runs of about a dozen rounds (one epoch, see [`run`]).
const REGION_PAGES: u64 = 16_384;
/// Cache frames: about half of the pages the loaded store touches
/// (Figure 9's 16 GB dataset over an 8 GB cache).
const CACHE_FRAMES: usize = (RECORDS / 6) as usize;
/// Bytes one update appends to the value log.
const RECORD_BYTES: u64 = 4 + 30 + VALUE_SIZE as u64;

/// A [`MemRegion`] that opens a span around every call Krill makes into
/// the engine below it, and can record the pages it touches.
struct TracedRegion {
    inner: Arc<dyn MemRegion>,
    read_name: &'static str,
    write_name: &'static str,
    pages: Mutex<Option<Vec<u64>>>,
    /// Pages touched by all calls so far (a call may span pages).
    touches: AtomicU64,
}

impl TracedRegion {
    fn note(&self, off: u64, len: usize) {
        let (first, last) = (off / 4096, (off + len.max(1) as u64 - 1) / 4096);
        self.touches.fetch_add(last - first + 1, Ordering::Relaxed);
        if let Some(v) = self.pages.lock().expect("page log lock").as_mut() {
            v.extend(first..=last);
        }
    }
}

impl MemRegion for TracedRegion {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read(&self, ctx: &mut dyn SimCtx, off: u64, buf: &mut [u8]) {
        self.note(off, buf.len());
        trace::begin(self.read_name, ctx.now().get());
        self.inner.read(ctx, off, buf);
        trace::end(ctx.now().get());
    }

    fn write(&self, ctx: &mut dyn SimCtx, off: u64, buf: &[u8]) {
        self.note(off, buf.len());
        trace::begin(self.write_name, ctx.now().get());
        self.inner.write(ctx, off, buf);
        trace::end(ctx.now().get());
    }

    fn sync(&self, ctx: &mut dyn SimCtx, off: u64, len: u64) {
        self.inner.sync(ctx, off, len);
    }
}

struct Store {
    krill: Rc<Krill>,
    /// Span names of this store's Krill calls.
    get_span: &'static str,
    put_span: &'static str,
    region: Arc<TracedRegion>,
    reset: Box<dyn Fn()>,
    /// Expected version of every updated key (absent: the loaded value).
    model: Rc<RefCell<BTreeMap<Vec<u8>, u64>>>,
}

/// The value an update with `version` writes for `key`.
fn versioned(key: &[u8], version: u64) -> Vec<u8> {
    let mut v = value_of(key, VALUE_SIZE);
    if version != 0 {
        for (b, x) in v.iter_mut().zip(version.to_le_bytes()) {
            *b ^= x;
        }
    }
    v
}

fn expected(model: &BTreeMap<Vec<u8>, u64>, key: &[u8]) -> Vec<u8> {
    versioned(key, model.get(key).copied().unwrap_or(0))
}

fn load(ctx: &mut FreeCtx, krill: &Krill) -> Result<(), String> {
    for i in 0..RECORDS {
        let k = KeyGen::key_of(i);
        krill
            .put(ctx, &k, &value_of(&k, VALUE_SIZE))
            .map_err(|e| format!("load put: {e:?}"))?;
    }
    Ok(())
}

struct World {
    mmio: Store,
    base: Store,
    aq_setup_s: f64,
    load_s: f64,
}

fn build(seed: u64) -> Result<World, String> {
    let mut ctx = FreeCtx::new(seed);
    let t_aq = Instant::now();
    let rt = AquilaRuntime::build(
        &mut ctx,
        DeviceKind::NvmeSpdk,
        REGION_PAGES + 4096,
        CACHE_FRAMES,
        1,
        Arc::new(CoreDebts::new(1)),
    );
    let f = rt
        .open("/perfbench/krill.db", REGION_PAGES)
        .map_err(|e| format!("aquila open: {e:?}"))?;
    let region = AquilaRegion::map(&mut ctx, Arc::clone(&rt.aquila), f, REGION_PAGES)
        .map_err(|e| format!("aquila region: {e:?}"))?;
    // Kreon's accesses are random; the port advises the mapping so.
    rt.aquila
        .madvise(&mut ctx, region.base(), REGION_PAGES, Advice::Random)
        .map_err(|e| format!("aquila madvise: {e:?}"))?;
    let aq_region = Arc::new(TracedRegion {
        inner: Arc::new(region),
        read_name: "core.region.read",
        write_name: "core.region.write",
        pages: Mutex::new(None),
        touches: AtomicU64::new(0),
    });
    let aq_krill = Rc::new(Krill::new(
        Arc::clone(&aq_region) as Arc<dyn MemRegion>,
        KrillConfig::default(),
    ));
    let t_load = Instant::now();
    load(&mut ctx, &aq_krill)?;
    let load_s = t_load.elapsed().as_secs_f64();
    let access = Arc::clone(&rt.access);
    let aquila = Arc::clone(&rt.aquila);
    let aq_setup_s = t_aq.elapsed().as_secs_f64();

    let kdev = KernelDevice::Nvme(Arc::new(NvmeDevice::optane(REGION_PAGES + 4096)));
    let lm = Arc::new(LinuxMmap::new(
        LinuxConfig::kmmap(1, CACHE_FRAMES),
        kdev.clone(),
        Arc::new(CoreDebts::new(1)),
    ));
    let lf = lm
        .open_file(REGION_PAGES)
        .map_err(|e| format!("kmmap open: {e:?}"))?;
    let lregion = LinuxRegion::map(&mut ctx, Arc::clone(&lm), lf, REGION_PAGES)
        .map_err(|e| format!("kmmap region: {e:?}"))?;
    let lx_region = Arc::new(TracedRegion {
        inner: Arc::new(lregion),
        read_name: "linuxsim.region.read",
        write_name: "linuxsim.region.write",
        pages: Mutex::new(None),
        touches: AtomicU64::new(0),
    });
    let lx_krill = Rc::new(Krill::new(
        Arc::clone(&lx_region) as Arc<dyn MemRegion>,
        KrillConfig::default(),
    ));
    load(&mut ctx, &lx_krill)?;

    let w = World {
        mmio: Store {
            krill: aq_krill,
            get_span: "kvstore.get",
            put_span: "kvstore.put",
            region: aq_region,
            reset: Box::new(move || {
                aquila.reset_lock_timing();
                access.reset_timing();
            }),
            model: Rc::new(RefCell::new(BTreeMap::new())),
        },
        base: Store {
            krill: lx_krill,
            get_span: "kvstore.kmmap.get",
            put_span: "kvstore.kmmap.put",
            region: lx_region,
            reset: Box::new(move || {
                lm.reset_timing();
                kdev.reset_timing();
            }),
            model: Rc::new(RefCell::new(BTreeMap::new())),
        },
        aq_setup_s,
        load_s,
    };
    (w.mmio.reset)();
    (w.base.reset)();
    Ok(w)
}

/// The YCSB-A operations of round `round`.
fn round_ops(seed: u64, round: u64) -> Vec<Op> {
    let mut gen = KeyGen::new(Workload::A, RECORDS, Distribution::Zipfian);
    let mut rng = Rng64::new(mix(seed ^ mix(0xC0FFEE ^ round)));
    (0..ROUND_OPS)
        .map(|_| {
            trace::begin("ycsb.next_op", 0);
            let op = gen.next_op(&mut rng);
            trace::end(0);
            op
        })
        .collect()
}

struct RoundOut {
    report: aquila_sim::RunReport,
    lat: Vec<u64>,
    failed: u64,
    first_error: Option<String>,
    host_s: f64,
    updates: u64,
}

/// One closed-loop round on one vcore: the next operation is issued when
/// the previous one completes. `version0` numbers this round's updates.
fn run_round(store: &Store, ops: &Rc<Vec<Op>>, seed: u64, version0: u64) -> RoundOut {
    #[derive(Default)]
    struct Shared {
        lat: Vec<u64>,
        failed: u64,
        first_error: Option<String>,
        updates: u64,
    }
    let shared = Rc::new(RefCell::new(Shared::default()));
    let mut engine = Engine::new(1, seed);
    {
        let ops = Rc::clone(ops);
        let shared = Rc::clone(&shared);
        let krill = Rc::clone(&store.krill);
        let model = Rc::clone(&store.model);
        let (get_span, put_span) = (store.get_span, store.put_span);
        let mut idx = 0usize;
        engine.spawn(
            0,
            Box::new(move |ctx| {
                let op = &ops[idx];
                let t0 = ctx.now();
                trace::begin("op", t0.get());
                let err = match op.kind {
                    OpKind::Read => {
                        trace::begin(get_span, ctx.now().get());
                        let got = krill.get(ctx, &op.key);
                        trace::end(ctx.now().get());
                        let want = expected(&model.borrow(), &op.key);
                        match got {
                            Some(v) if v == want => None,
                            Some(_) => Some(format!(
                                "get({}) returned wrong bytes",
                                String::from_utf8_lossy(&op.key)
                            )),
                            None => Some("get found no value for a loaded key".to_string()),
                        }
                    }
                    _ => {
                        let mut s = shared.borrow_mut();
                        s.updates += 1;
                        let version = version0 + s.updates;
                        drop(s);
                        let v = versioned(&op.key, version);
                        trace::begin(put_span, ctx.now().get());
                        let r = krill.put(ctx, &op.key, &v);
                        trace::end(ctx.now().get());
                        match r {
                            Ok(()) => {
                                model.borrow_mut().insert(op.key.clone(), version);
                                None
                            }
                            Err(e) => Some(format!("put: {e:?}")),
                        }
                    }
                };
                let lat = ctx.now() - t0;
                trace::end(ctx.now().get());
                let mut s = shared.borrow_mut();
                s.lat.push(lat.get());
                if let Some(e) = err {
                    s.failed += 1;
                    s.first_error.get_or_insert(e);
                }
                idx += 1;
                if idx == ops.len() {
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
        .expect("thread dropped")
        .into_inner();
    RoundOut {
        report,
        lat: s.lat,
        failed: s.failed,
        first_error: s.first_error,
        host_s,
        updates: s.updates,
    }
}

/// Reads back every updated key; returns (checked, wrong).
fn verify_updates(store: &Store, seed: u64) -> (u64, u64) {
    let mut ctx = FreeCtx::new(seed);
    let model = store.model.borrow();
    let mut wrong = 0;
    for (k, &ver) in model.iter() {
        if store.krill.get(&mut ctx, k) != Some(versioned(k, ver)) {
            wrong += 1;
        }
    }
    (model.len() as u64, wrong)
}

/// Room for one more round in both stores' value logs (70% of the
/// region under `KrillConfig::default`), with a round of slack.
fn room(w: &World) -> bool {
    let cap = (REGION_PAGES * 4096) as f64 * 0.7;
    [&w.mmio, &w.base]
        .iter()
        .all(|s| (s.krill.log_bytes() + 2 * ROUND_OPS * RECORD_BYTES) as f64 <= cap)
}

/// Reads back every updated key of a retiring world. Aquila's wrong reads
/// fail the run; kmmap's are counted as the baseline's.
fn retire(w: &World, seed: u64, out: &mut Outcome) {
    let (checked, wrong) = verify_updates(&w.mmio, seed);
    out.attempted += checked;
    out.failed += wrong;
    if wrong > 0 {
        out.gate_errors.push(format!(
            "aquila: {wrong} of {checked} updated keys read back wrong"
        ));
    }
    let (checked, wrong) = verify_updates(&w.base, seed);
    out.base_checked += checked;
    out.base_wrong += wrong;
}

/// Runs the workload. The append-only store cannot absorb a whole
/// measured window of updates, so the run proceeds in epochs: each epoch
/// sets up fresh stores (timed into `setup_s`) and runs rounds until the
/// value log nears its end. `setups` epochs' set-ups happen before the
/// window opens; the first epoch's first rounds are the reported prefix.
pub fn run(seed: u64, seconds: f64, traced: bool, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut world: Option<World> = None;
    let build_timed = |out: &mut Outcome| -> Result<World, String> {
        let t0 = Instant::now();
        let w = build(seed)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.core_setup_s.push(w.aq_setup_s);
        out.load_s = w.load_s;
        Ok(w)
    };
    for _ in 0..setups {
        drop(world.take());
        world = Some(build_timed(&mut out)?);
    }

    let start = Instant::now();
    let mut round = 0usize;
    let mut version = 0u64;
    let mut touches0 = 0;
    loop {
        let extra = round.saturating_sub(PREFIX_ROUNDS);
        let need_more = round < PREFIX_ROUNDS || (traced && extra < 2);
        if !need_more && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if !room(world.as_ref().expect("a live world")) {
            if round < PREFIX_ROUNDS {
                return Err("value log too small for the reported rounds".into());
            }
            let old = world.take().expect("a live world");
            retire(&old, seed, &mut out);
            drop(old);
            world = Some(build_timed(&mut out)?);
            version = 0;
        }
        let w = world.as_ref().expect("a live world");
        let trace_this = traced && (round < PREFIX_ROUNDS || extra % 2 == 1);
        trace::set_enabled(trace_this);
        let ops = Rc::new(round_ops(seed, round as u64));
        let op_ns_before = trace::fold("op").host_ns;
        let engine_seed = mix(seed ^ round as u64);
        (w.mmio.reset)();
        (w.base.reset)();
        if round == 0 {
            *w.mmio.region.pages.lock().expect("page log lock") = Some(Vec::new());
            touches0 = w.mmio.region.touches.load(Ordering::Relaxed);
        }
        let aq = run_round(&w.mmio, &ops, engine_seed, version);
        if round == 0 {
            out.page_trace = w
                .mmio
                .region
                .pages
                .lock()
                .expect("page log lock")
                .take()
                .unwrap_or_default();
        }
        let lx = run_round(&w.base, &ops, engine_seed, version);
        trace::set_enabled(false);
        version += aq.updates;
        out.attempted += ROUND_OPS;
        out.failed += aq.failed;
        if let Some(e) = &aq.first_error {
            if out.gate_errors.len() < 4 {
                out.gate_errors.push(format!("aquila round {round}: {e}"));
            }
        }
        out.base_checked += ROUND_OPS;
        out.base_wrong += lx.failed;
        if out.base_first_error.is_none() {
            out.base_first_error = lx.first_error.clone();
        }
        let n = 2 * ROUND_OPS;
        let secs = aq.host_s + lx.host_s;
        out.host.add(n, secs);
        if trace_this {
            out.traced_run_s += secs - (trace::fold("op").host_ns - op_ns_before) as f64 / 1e9;
            out.traced_steps += n;
        }
        if round >= PREFIX_ROUNDS && traced {
            if trace_this {
                out.host_traced.add(n, secs);
            } else {
                out.host_untraced.add(n, secs);
            }
        }
        if round < PREFIX_ROUNDS {
            out.mmio.add_run(ROUND_OPS, &aq.report, &aq.lat);
            out.base.add_run(ROUND_OPS, &lx.report, &lx.lat);
            out.user_bytes_written += aq.updates * RECORD_BYTES;
            if round + 1 == PREFIX_ROUNDS {
                // The prefix runs on the first world (see `room`).
                out.mmio_touches = w.mmio.region.touches.load(Ordering::Relaxed) - touches0;
                out.peak_rss_mb = crate::report::peak_rss_mb();
            }
        }
        round += 1;
    }
    out.passes = round;
    retire(world.as_ref().expect("a live world"), seed, &mut out);

    let (aq_sorted, lx_sorted) = (out.mmio.sorted_lat(), out.base.sorted_lat());
    let p999 = |v: &[u64]| crate::report::percentile(v, 0.999).map(|(x, _)| x as f64);
    out.paper.push(PaperRatio {
        label: "fig9 nvme ycsb-a aquila/kmmap kops",
        simulated: out.mmio.kops() / out.base.kops(),
        paper: 1.02,
    });
    if let (Some(a), Some(b)) = (p999(&aq_sorted), p999(&lx_sorted)) {
        out.paper.push(PaperRatio {
            label: "fig9 nvme ycsb-a kmmap/aquila p99.9",
            simulated: b / a,
            paper: 3.78,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_change_values_and_zero_is_the_loaded_value() {
        let k = KeyGen::key_of(3);
        assert_eq!(versioned(&k, 0), value_of(&k, VALUE_SIZE));
        assert_ne!(versioned(&k, 1), versioned(&k, 2));
        let mut m = BTreeMap::new();
        assert_eq!(expected(&m, &k), value_of(&k, VALUE_SIZE));
        m.insert(k.clone(), 9);
        assert_eq!(expected(&m, &k), versioned(&k, 9));
    }
}

//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around every public call it makes into a
//! layer (and one root span per operation). Each span carries its name,
//! host start/end, virtual start/end, parent and operation id. Self time
//! (duration minus the time covered by child spans) is folded online per
//! span name; the raw spans of the first `RAW_CAP` spans are kept and
//! written out when the benchmark ends.
//!
//! The DES runs on one host thread, so the recorder is thread-local and
//! spans nest strictly: each simulated operation runs to completion
//! inside one engine step.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the span file; later spans are only folded.
const RAW_CAP: usize = 200_000;

/// One recorded span.
#[derive(Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub v_start: u64,
    pub v_end: u64,
}

/// Per-name fold of span durations and self times.
#[derive(Clone, Copy, Default, Debug)]
pub struct Fold {
    pub count: u64,
    pub host_ns: u64,
    pub self_host_ns: u64,
    pub cycles: u64,
    pub self_cycles: u64,
}

struct Open {
    name: &'static str,
    raw: Option<u32>,
    host_start: u64,
    v_start: u64,
    child_host: u64,
    child_cycles: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<Open>,
    raw: Vec<SpanRec>,
    folds: BTreeMap<&'static str, Fold>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        op: 0,
        stack: Vec::new(),
        raw: Vec::new(),
        folds: BTreeMap::new(),
    });
}

/// Turns span recording on or off (folds and raw spans are kept).
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Opens a span; `vnow` is the caller's virtual clock. A root span
/// starts a new operation id.
pub fn begin(name: &'static str, vnow: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        if t.stack.is_empty() {
            t.op += 1;
        }
        let host_start = t.epoch.elapsed().as_nanos() as u64;
        let parent = t.stack.last().and_then(|o| o.raw);
        let raw = if t.raw.len() < RAW_CAP {
            let op = t.op;
            t.raw.push(SpanRec {
                name,
                op,
                parent,
                host_start_ns: host_start,
                host_end_ns: host_start,
                v_start: vnow,
                v_end: vnow,
            });
            Some((t.raw.len() - 1) as u32)
        } else {
            None
        };
        t.stack.push(Open {
            name,
            raw,
            host_start,
            v_start: vnow,
            child_host: 0,
            child_cycles: 0,
        });
    });
}

/// Closes the innermost span.
pub fn end(vnow: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let Some(open) = t.stack.pop() else {
            return;
        };
        let host_end = t.epoch.elapsed().as_nanos() as u64;
        let host = host_end.saturating_sub(open.host_start);
        let cycles = vnow.saturating_sub(open.v_start);
        if let Some(i) = open.raw {
            let r = &mut t.raw[i as usize];
            r.host_end_ns = host_end;
            r.v_end = vnow;
        }
        let f = t.folds.entry(open.name).or_default();
        f.count += 1;
        f.host_ns += host;
        f.self_host_ns += host.saturating_sub(open.child_host);
        f.cycles += cycles;
        f.self_cycles += cycles.saturating_sub(open.child_cycles);
        if let Some(p) = t.stack.last_mut() {
            p.child_host += host;
            p.child_cycles += cycles;
        }
    });
}

/// The per-name folds recorded so far.
pub fn folds() -> BTreeMap<&'static str, Fold> {
    TRACER.with(|t| t.borrow().folds.clone())
}

/// Fold for one span name (zero when never recorded).
pub fn fold(name: &str) -> Fold {
    TRACER.with(|t| t.borrow().folds.get(name).copied().unwrap_or_default())
}

/// Writes the raw spans as tab-separated lines.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    TRACER.with(|t| {
        let t = t.borrow();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "id\tparent\top\tname\thost_start_ns\thost_end_ns\tv_start\tv_end"
        )?;
        for (i, s) in t.raw.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.host_start_ns, s.host_end_ns, s.v_start, s.v_end
            )?;
        }
        w.flush()?;
        Ok(t.raw.len())
    })
}

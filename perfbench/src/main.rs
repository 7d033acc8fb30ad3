//! Two-clock benchmark of the Aquila mmio reproduction.
//!
//! ```text
//! perfbench --workload <fault-fit|fault-evict|kv-ycsb-a> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Virtual-clock metrics (`mmio_*`, `paper_err`, every `*_cyc_per_op`)
//! come from a fixed prefix of measured passes and repeat bit-for-bit for
//! a seed. Host-clock metrics (`setup_s`, `host_kops`, `peak_rss_mb`,
//! every `*_host_*`) cover the whole measured window. The last line of
//! standard output is the JSON result; the exit code is non-zero when any
//! correctness gate fails.

mod common;
mod fault;
mod kv;
mod layers;
mod report;
mod trace;

use aquila_sim::CostCat;

use common::Outcome;
use report::{median, percentile, Report};

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["fault-fit", "fault-evict", "kv-ycsb-a"];

/// Set-ups before the measured window; `setup_s` is the median of all
/// set-ups in a run. `fault-fit`'s set-up is the slow one (the baseline's
/// quadratic `munmap`); the cheap ones repeat for a steadier median.
const SETUPS_FIT: usize = 1;
const SETUPS_CHEAP: usize = 3;

/// Which end-to-end metric each per-layer metric is expected to move, and
/// on which workloads (parenthesised: little).
const MOVES: &[(&str, &str, &str)] = &[
    ("sim.", "host_kops", "fault-fit, fault-evict (kv-ycsb-a)"),
    ("vmx.", "mmio_p50_cycles", "fault-fit (kv-ycsb-a)"),
    (
        "core.",
        "mmio_p50_cycles, mmio_kops, host_kops, setup_s",
        "fault-fit",
    ),
    ("vma.", "host_kops", "fault-fit"),
    (
        "mmu.",
        "mmio_p99_cycles, host_kops",
        "fault-evict (kv-ycsb-a)",
    ),
    (
        "pcache.",
        "mmio_p99_cycles, mmio_kops, host_kops",
        "fault-evict, kv-ycsb-a (fault-fit)",
    ),
    (
        "devices.",
        "mmio_p999_cycles, mmio_kops",
        "kv-ycsb-a, fault-evict (fault-fit)",
    ),
    (
        "linuxsim.",
        "paper_err, setup_s, host_kops",
        "fault-fit (kv-ycsb-a)",
    ),
    (
        "kvstore.",
        "host_kops, setup_s, mmio_kops",
        "kv-ycsb-a only",
    ),
    ("ycsb.", "host_kops", "kv-ycsb-a only"),
    ("trace.", "none (tracer cost)", "all"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fault-fit" => fault::run(
            fault::Shape::FIT,
            args.seed,
            args.seconds,
            args.trace,
            SETUPS_FIT,
        ),
        "fault-evict" => fault::run(
            fault::Shape::EVICT,
            args.seed,
            args.seconds,
            args.trace,
            SETUPS_CHEAP,
        ),
        _ => kv::run(args.seed, args.seconds, args.trace, SETUPS_CHEAP),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let report = if args.trace {
        per_layer(&args, &outcome)
    } else {
        end_to_end(&args, &outcome)
    };
    for m in &report.metrics {
        assert!(report::valid_name(m.name), "bad metric name {}", m.name);
        assert!(report::valid_unit(m.unit), "bad unit {}", m.unit);
    }
    print!("{}", report.render());
    if !report.correct() {
        std::process::exit(1);
    }
}

fn header(args: &Args, o: &Outcome, r: &mut Report) {
    r.line(format!(
        "perfbench workload={} seed={} seconds={} trace={} passes={}",
        args.workload, args.seed, args.seconds, args.trace as u8, o.passes
    ));
    r.lines.extend(o.lines.iter().cloned());
    for p in &o.paper {
        r.line(format!(
            "ratio {:<44} simulated {:>10.4}  paper {:>6.2}  |ln err| {:.4}",
            p.label,
            p.simulated,
            p.paper,
            report::log_err(p.simulated, p.paper)
        ));
    }
    r.attempted = o.attempted;
    r.failed = o.failed;
    r.gate_errors = o.gate_errors.clone();
    r.line(format!(
        "failed_frac {} frac (failed {} of {} attempted)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    ));
    if o.base_checked > 0 {
        r.line(format!(
            "baseline_wrong_frac {} frac (kmmap: {} of {} checked reads wrong, not gated; first: {})",
            o.base_wrong as f64 / o.base_checked as f64,
            o.base_wrong,
            o.base_checked,
            o.base_first_error.as_deref().unwrap_or("none")
        ));
    }
}

fn end_to_end(args: &Args, o: &Outcome) -> Report {
    let mut r = Report::default();
    header(args, o, &mut r);
    r.add("setup_s", median(&o.setup_s), "s");
    r.add("host_kops", o.host.kops(), "kops");
    r.add("peak_rss_mb", o.peak_rss_mb, "MiB");
    r.add("mmio_kops", o.mmio.kops(), "kops");
    let sorted = o.mmio.sorted_lat();
    for (name, q) in [
        ("mmio_p50_cycles", 0.5),
        ("mmio_p99_cycles", 0.99),
        ("mmio_p999_cycles", 0.999),
    ] {
        match percentile(&sorted, q) {
            Some((v, beyond)) => r.add_note(
                name,
                v as f64,
                "cycles",
                format!("(n={}, {beyond} beyond)", sorted.len()),
            ),
            None => {
                r.gate_errors.push(format!(
                    "{name}: fewer than ten of {} samples beyond",
                    sorted.len()
                ));
                r.add(name, 0.0, "cycles");
            }
        }
    }
    let err = o
        .paper
        .iter()
        .map(|p| report::log_err(p.simulated, p.paper))
        .fold(0.0, f64::max);
    r.add("paper_err", err, "ln");
    r
}

fn per_layer(args: &Args, o: &Outcome) -> Report {
    let mut r = Report::default();
    header(args, o, &mut r);
    let kv = args.workload == "kv-ycsb-a";
    let (m, b) = (&o.mmio, &o.base);
    let c = &m.counters;
    let mean = |names: &[&str], self_time: bool| {
        let (mut ns, mut n) = (0u64, 0u64);
        for name in names {
            let f = trace::fold(name);
            ns += if self_time { f.self_host_ns } else { f.host_ns };
            n += f.count;
        }
        ns as f64 / n.max(1) as f64
    };
    let batch = c
        .tlb_invalidations
        .checked_div(c.tlb_shootdowns)
        .unwrap_or(0);
    let cores = if kv { 1 } else { fault::CORES };
    let frames = if kv {
        (kv::RECORDS / 6) as usize
    } else {
        cache_frames(&args.workload)
    };
    let dev = if kv {
        layers::Dev::Nvme
    } else {
        layers::Dev::Pmem
    };
    let rp = layers::replay(&o.page_trace, cores, frames, batch, dev);

    // The workloads' thread bodies run one operation per engine step.
    r.add("sim.steps", m.ops as f64, "count");
    r.add(
        "sim.host_ns_per_step",
        o.traced_run_s * 1e9 / o.traced_steps.max(1) as f64,
        "ns",
    );
    r.add(
        "vmx.trap_cyc_per_op",
        m.cyc_per_op(&[CostCat::Trap, CostCat::Vmexit]),
        "cycles",
    );
    r.add("core.faults_per_op", m.per_op(c.page_faults), "1/op");
    r.add(
        "core.fault_handler_cyc_per_op",
        m.cyc_per_op(&[CostCat::FaultHandler]),
        "cycles",
    );
    r.add(
        "core.lock_wait_cyc_per_op",
        m.cyc_per_op(&[CostCat::LockWait]),
        "cycles",
    );
    let core_calls: &[&str] = if kv {
        &["core.region.read", "core.region.write"]
    } else {
        &["core.read"]
    };
    r.add("core.call_host_ns", mean(core_calls, false), "ns");
    r.add("core.setup_host_s", median(&o.core_setup_s), "s");
    r.add("vma.lookup_host_ns", rp.vma_lookup_ns, "ns");
    r.add("mmu.translate_host_ns", rp.translate_ns, "ns");
    r.add(
        "mmu.tlb_cyc_per_op",
        m.cyc_per_op(&[CostCat::Tlb]),
        "cycles",
    );
    r.add("mmu.shootdowns_per_op", m.per_op(c.tlb_shootdowns), "1/op");
    r.add(
        "mmu.invals_per_shootdown",
        c.tlb_invalidations as f64 / c.tlb_shootdowns.max(1) as f64,
        "count",
    );
    r.add("mmu.shootdown_host_ns", rp.shootdown_ns, "ns");
    r.add(
        "pcache.cache_mgmt_cyc_per_op",
        m.cyc_per_op(&[CostCat::CacheMgmt]),
        "cycles",
    );
    r.add(
        "pcache.evict_cyc_per_op",
        m.cyc_per_op(&[CostCat::Eviction]),
        "cycles",
    );
    r.add("pcache.evictions_per_op", m.per_op(c.evictions), "1/op");
    r.add("pcache.writebacks_per_op", m.per_op(c.writebacks), "1/op");
    r.add(
        "pcache.hit_ratio",
        1.0 - c.major_faults as f64 / o.mmio_touches.max(1) as f64,
        "frac",
    );
    r.add("pcache.map_host_ns", rp.map_ns, "ns");
    r.add("pcache.freelist_host_ns", rp.freelist_ns, "ns");
    r.add(
        "devices.io_cyc_per_op",
        m.cyc_per_op(&[CostCat::DeviceIo]),
        "cycles",
    );
    r.add(
        "devices.memcpy_cyc_per_op",
        m.cyc_per_op(&[CostCat::Memcpy]),
        "cycles",
    );
    r.add("devices.reads_per_op", m.per_op(c.device_reads), "1/op");
    r.add(
        "devices.write_amp",
        c.bytes_written as f64 / o.user_bytes_written.max(1) as f64,
        "ratio",
    );
    r.add("devices.io_host_ns", rp.io_ns, "ns");
    r.add("linuxsim.kops", b.kops(), "kops");
    let b_sorted = b.sorted_lat();
    r.add(
        "linuxsim.p99_cycles",
        percentile(&b_sorted, 0.99).map_or(0.0, |(v, _)| v as f64),
        "cycles",
    );
    r.add(
        "linuxsim.lock_wait_cyc_per_op",
        b.cyc_per_op(&[CostCat::LockWait]),
        "cycles",
    );
    r.add("linuxsim.munmap_host_s", o.munmap_s, "s");
    let lx_calls: &[&str] = if kv {
        &["linuxsim.region.read", "linuxsim.region.write"]
    } else {
        &["linuxsim.read"]
    };
    r.add("linuxsim.call_host_ns", mean(lx_calls, false), "ns");
    r.add("kvstore.get_host_ns", mean(&["kvstore.get"], true), "ns");
    r.add("kvstore.put_host_ns", mean(&["kvstore.put"], true), "ns");
    r.add("kvstore.load_host_s", o.load_s, "s");
    r.add(
        "kvstore.app_cyc_per_op",
        if kv {
            m.cyc_per_op(&[CostCat::App])
        } else {
            0.0
        },
        "cycles",
    );
    r.add("ycsb.next_op_host_ns", mean(&["ycsb.next_op"], false), "ns");
    let (u, t) = (o.host_untraced.kops(), o.host_traced.kops());
    r.add(
        "trace.overhead_pct",
        if u > 0.0 { (u - t) / u * 100.0 } else { 0.0 },
        "%",
    );

    for mt in r.metrics.iter_mut() {
        if let Some((_, moves, on)) = MOVES.iter().find(|(p, _, _)| mt.name.starts_with(p)) {
            mt.note = format!("moves {moves} on {on}");
        }
    }
    r.line(format!(
        "tracing overhead: untraced {:.3} kops, traced {:.3} kops (host clock, passes after the prefix)",
        u, t
    ));
    r.line(format!(
        "baseline munmap share of set-up: {:.1}% ({:.3} s of {:.3} s)",
        100.0 * o.munmap_s / median(&o.setup_s),
        o.munmap_s,
        median(&o.setup_s)
    ));
    r.line("self-time split (span name, count, mean host ns, mean self host ns, mean cycles, mean self cycles):");
    for (name, f) in trace::folds() {
        let n = f.count.max(1) as f64;
        r.line(format!(
            "  {:<24} {:>9} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            name,
            f.count,
            f.host_ns as f64 / n,
            f.self_host_ns as f64 / n,
            f.cycles as f64 / n,
            f.self_cycles as f64 / n
        ));
    }
    let path = std::path::PathBuf::from(format!(
        ".perfbench/spans-{}-seed{}.tsv",
        args.workload, args.seed
    ));
    match trace::write_spans(&path) {
        Ok(n) => r.line(format!("wrote {n} spans to {}", path.display())),
        Err(e) => r.line(format!("could not write spans to {}: {e}", path.display())),
    }
    r
}

fn cache_frames(workload: &str) -> usize {
    if workload == "fault-fit" {
        fault::Shape::FIT.cache_frames()
    } else {
        fault::Shape::EVICT.cache_frames()
    }
}

//! Determinism regression: the same `aquila-bench` figure run twice must
//! be a bit-identical pure function of its arguments — stdout, the JSON
//! record, and the Chrome trace all byte-for-byte equal. This is the
//! end-to-end guard behind the static lint (`aquila-analysis`) and the
//! runtime race detector (`aquila_sim::race`): if someone reintroduces
//! a seed-randomized map or a wall-clock read on the sim path, one of
//! the artifacts diverges here.

use std::fs;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_aquila-bench");

fn run_bin(figure: &str, part: &str, tag: &str) -> (Output, Vec<u8>, Vec<u8>) {
    run_bin_with(figure, part, tag, &[])
}

fn run_bin_with(figure: &str, part: &str, tag: &str, extra: &[&str]) -> (Output, Vec<u8>, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("aquila-determinism-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    let json = dir.join("r.json");
    let trace = dir.join("t.trace.json");
    // Relative artifact paths, run from inside the temp dir: the binary
    // echoes the paths it wrote, and stdout must match across runs.
    let out = Command::new(EXE)
        .current_dir(&dir)
        .args([
            figure,
            part,
            "--race",
            "--json",
            "r.json",
            "--trace",
            "t.trace.json",
        ])
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{figure} {part} failed (status {:?}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json_bytes = fs::read(&json).expect("JSON record written");
    let trace_bytes = fs::read(&trace).expect("trace written");
    fs::remove_dir_all(&dir).ok();
    (out, json_bytes, trace_bytes)
}

fn assert_double_run_identical(figure: &str, part: &str, tag: &str) -> String {
    assert_double_run_identical_with(figure, part, tag, &[])
}

fn assert_double_run_identical_with(figure: &str, part: &str, tag: &str, extra: &[&str]) -> String {
    let (out1, json1, trace1) = run_bin_with(figure, part, &format!("{tag}-one"), extra);
    let (out2, json2, trace2) = run_bin_with(figure, part, &format!("{tag}-two"), extra);

    assert_eq!(
        out1.stdout, out2.stdout,
        "stdout diverged between identical runs"
    );
    assert_eq!(json1, json2, "JSON record diverged between identical runs");
    assert_eq!(
        trace1, trace2,
        "Chrome trace diverged between identical runs"
    );

    // The --race summary is part of stdout; make the zero-findings
    // acceptance explicit rather than implied by byte equality.
    let stdout = String::from_utf8_lossy(&out1.stdout).into_owned();
    assert!(
        stdout.contains("race detector: 0 findings"),
        "expected a clean race-detector summary, got:\n{stdout}"
    );
    stdout
}

#[test]
fn fig8_is_bit_identical_across_runs() {
    assert_double_run_identical("fig8", "a", "fig8");
}

/// The asynchronous write-behind pipeline — evictor thread, watermark
/// refill, queue-depth-batched NVMe submission — stays a deterministic
/// pure function of its arguments, with the race detector clean.
#[test]
fn sweep_async_pipeline_is_bit_identical_across_runs() {
    let stdout = assert_double_run_identical("sweep", "qd", "sweep");
    assert!(
        stdout.contains("async-qd4"),
        "sweep must exercise the async pipeline:\n{stdout}"
    );
}

/// The page-size-aware TLB sweep — transparent 2 MiB promotion, the
/// huge sub-TLB, and the hole-filling collapse path — is a bit-identical
/// pure function of its arguments, with the race detector clean.
#[test]
fn sweep_tlb_part_is_bit_identical_across_runs() {
    let stdout = assert_double_run_identical("sweep", "tlb", "tlb");
    assert!(
        stdout.contains("2m"),
        "tlb sweep must run the promoted cell:\n{stdout}"
    );
}

/// Figure 10 with `--huge`: the multi-core promotion/demotion machinery
/// (candidacy scans under the fault lock, batched shootdowns, munmap
/// splintering on every `drop_mappings`) runs race-clean and
/// deterministically.
#[test]
fn fig10_with_huge_pages_is_race_clean_and_deterministic() {
    let stdout =
        assert_double_run_identical_with("fig10", "fit", "fig10-huge", &["--huge", "--tiny"]);
    assert!(
        stdout.contains("+2M"),
        "fig10 --huge must label the promoted engine:\n{stdout}"
    );
}

/// The latency part — per-fault cycle-exact histograms across linuxsim,
/// mmio-sync, mmio-async qd4, and mmio-huge, plus the engine-side
/// schema-v3 `latency` section and the causal span trace — is a
/// bit-identical pure function of its arguments, race-clean.
#[test]
fn sweep_latency_part_is_bit_identical_across_runs() {
    let stdout = assert_double_run_identical("sweep", "latency", "latency");
    for cfg in ["linuxsim", "mmio-sync", "mmio-async-qd4", "mmio-huge"] {
        assert!(
            stdout.contains(cfg),
            "latency sweep must report {cfg}:\n{stdout}"
        );
    }
}

/// The multi-tenant serving experiment — 8 tenants of open-loop
/// Poisson/bursty sessions over a shared cache, tenant-labeled
/// histograms, quota self-reclaim, weighted-fair eviction — is a
/// bit-identical pure function of its seed, race-clean, and the
/// schema-v4 `tenants` section carries the QoS verdicts.
#[test]
fn serve_qos_part_is_bit_identical_across_runs() {
    let stdout = assert_double_run_identical("serve", "qos", "serve");
    for tag in ["[qos_on]", "[qos_off]", "protected", "zipf-hot"] {
        assert!(stdout.contains(tag), "serve must report {tag}:\n{stdout}");
    }
}

/// The integrity part — a seeded silent-corruption storm over the
/// mirrored backend with the background scrubber thread live — is a
/// bit-identical pure function of its seed, race-clean, and the
/// schema-v5 `integrity` section proves the end-to-end invariant:
/// faults were injected, every corruption was detected and repaired,
/// and no corrupted payload was acked (`undetected == 0`).
#[test]
fn serve_integrity_part_is_bit_identical_and_repairs_everything() {
    let stdout = assert_double_run_identical("serve", "integrity", "integrity");
    assert!(
        stdout.contains("faults injected"),
        "integrity part must report its storm:\n{stdout}"
    );
    let (_, json, _) = run_bin("serve", "integrity", "integrity-json");
    let json = String::from_utf8_lossy(&json);
    assert!(
        json.contains("\"mirrored\": true"),
        "integrity JSON:\n{json}"
    );
    assert!(
        !json.contains("\"injected\": 0,"),
        "the storm must inject faults:\n{json}"
    );
    assert!(
        json.contains("\"unrepairable\": 0") && json.contains("\"undetected\": 0"),
        "every silent corruption must be caught and repaired:\n{json}"
    );
}

/// Runs one `sweep scale` cell (a seeded many-vcore fault storm over
/// disjoint regions of one shared file) twice and asserts the full
/// determinism contract — bit-identical stdout/JSON/trace, a clean race
/// detector — plus the scale contract: with spill-free regions on, the
/// fault fast path takes zero shared-lock acquisitions (no VMA-tree walk
/// locks; the page table is modelled lock-free).
fn assert_scale_cell_clean(cores: &str) {
    let stdout = assert_double_run_identical_with(
        "sweep",
        "scale",
        &format!("scale-c{cores}"),
        &[&format!("--cores={cores}")],
    );
    // `--json` installs the metrics registry, so the count is real.
    assert!(
        stdout
            .lines()
            .any(|l| l == "  -> fault-fast-path shared-lock acquisitions: 0"),
        "fault fast path touched a shared lock at {cores} vcores:\n{stdout}"
    );
    let (_, json, _) = run_bin_with(
        "sweep",
        "scale",
        &format!("scale-json-c{cores}"),
        &[&format!("--cores={cores}")],
    );
    let json = String::from_utf8_lossy(&json);
    assert!(
        json.contains("\"scale/fastpath/shared_locks\": 0"),
        "shared-lock gate missing or nonzero in the JSON record:\n{json}"
    );
}

/// 1 vcore: the degenerate storm — the scaled fault path must be
/// race-clean and deterministic even with nothing to contend with.
#[test]
fn scale_storm_1_vcore_is_race_clean_and_bit_identical() {
    assert_scale_cell_clean("1");
}

/// 16 vcores: a mid-size concurrent fault storm across disjoint
/// per-vcore slices, race-clean and double-run bit-identical.
#[test]
fn scale_storm_16_vcores_is_race_clean_and_bit_identical() {
    assert_scale_cell_clean("16");
}

/// 256 vcores: the full-width storm — 256 concurrent faulting vcores
/// with freelist steals live — race-clean, zero shared-lock
/// acquisitions, bit-identical across runs.
#[test]
fn scale_storm_256_vcores_is_race_clean_and_bit_identical() {
    assert_scale_cell_clean("256");
}

/// Without `--json`/`--trace` no metrics registry is installed, so the
/// scale sweep must say the shared-lock count was not taken rather than
/// report a zero it never counted.
#[test]
fn scale_without_metrics_reports_shared_locks_not_counted() {
    let out = Command::new(EXE)
        .args(["sweep", "scale", "--cores=1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "sweep scale --cores=1 failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(
            |l| l == "  -> fault-fast-path shared-lock acquisitions: not counted (metrics off)"
        ),
        "uncounted shared locks must not print as a number:\n{stdout}"
    );
}

/// Fault-injection property: installing an *empty* fault plan
/// (`--faults ""`) must be bit-identical to not configuring faults at
/// all — same stdout, same JSON record (including the zeroed `faults`
/// section), same trace. The injection hooks cost nothing when the plan
/// has no clauses.
#[test]
fn empty_fault_plan_is_bit_identical_to_unconfigured() {
    let (out_base, json_base, trace_base) = run_bin("fig8", "a", "nofaults");
    let (out_empty, json_empty, trace_empty) =
        run_bin_with("fig8", "a", "emptyfaults", &["--faults", ""]);
    assert_eq!(
        out_base.stdout, out_empty.stdout,
        "stdout diverged with an empty fault plan installed"
    );
    assert_eq!(
        json_base, json_empty,
        "JSON record diverged with an empty fault plan installed"
    );
    assert_eq!(
        trace_base, trace_empty,
        "trace diverged with an empty fault plan installed"
    );
}

/// A non-empty fault plan is still deterministic (double-run identical)
/// and its injections are visible in the JSON record's fault counters.
#[test]
fn injected_faults_are_deterministic_and_reported() {
    let spec = "nvme.write:media_error@op=40";
    let run = |tag: &str| run_bin_with("sweep", "qd", tag, &["--faults", spec]);
    let (out1, json1, trace1) = run("faults-one");
    let (out2, json2, trace2) = run("faults-two");
    assert_eq!(out1.stdout, out2.stdout, "stdout diverged under faults");
    assert_eq!(json1, json2, "JSON record diverged under faults");
    assert_eq!(trace1, trace2, "trace diverged under faults");
    let json = String::from_utf8_lossy(&json1);
    assert!(
        json.contains("\"injected\": 1"),
        "fault counter missing from the JSON record:\n{json}"
    );
}

#[test]
fn fig8_artifacts_are_nonempty() {
    let (_, json, trace) = run_bin("fig8", "a", "nonempty");
    assert!(json.len() > 64, "JSON record suspiciously small");
    assert!(trace.len() > 64, "trace suspiciously small");
}

/// `--cores` must name one of the swept vcore counts; anything else is a
/// bad command line (usage, exit 2), not a panic or a silent full sweep.
#[test]
fn scale_rejects_a_bad_cores_filter() {
    for bad in ["--cores=7", "--cores=abc"] {
        let out = Command::new(EXE)
            .args(["sweep", "scale", bad])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}:\n{stderr}");
        assert!(
            stderr.contains("usage: aquila-bench sweep scale"),
            "{bad}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{bad} must not start the sweep");
    }
}

//! `paragonctl trace summarize` is pinned byte-for-byte on three traces:
//! the README Table-2 capture, a prefetching run (so both the demand and
//! the prefetch decomposition tables print), and a replicated:2 run with
//! an I/O node crashed mid-stream (so failed-over requests are part of
//! the reconstruction). Each trace goes through the trace-file format
//! and the real binary, exactly as a user would drive it.
//!
//! Regenerate the goldens after an intentional trace-schema change with
//! `PARAGON_BLESS=1 cargo test -p paragon-bench --test summarize_goldens`.

use std::path::{Path, PathBuf};
use std::process::Command;

use paragon_machine::Calibration;
use paragon_pfs::{IoMode, Redundancy};
use paragon_sim::{export_json, EventKind, SimDuration};
use paragon_workload::{run, AccessPattern, ExperimentConfig, FaultSpec, StripeLayout};

/// Compare `actual` against the committed golden `tests/goldens/<name>`
/// at the workspace root; `PARAGON_BLESS=1` rewrites the golden instead.
fn golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name);
    if std::env::var_os("PARAGON_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); regenerate with PARAGON_BLESS=1"));
    assert_eq!(
        actual, want,
        "{name} drifted; if the change is intentional, regenerate with PARAGON_BLESS=1"
    );
}

/// Run `paragonctl` with `args`; panics unless it exits 0.
fn paragonctl(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_paragonctl"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "paragonctl {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn trace_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// `trace capture OPTIONS`, then `trace summarize` of the written file.
fn capture_and_summarize(name: &str, options: &str) -> String {
    let path = trace_file(name);
    let path = path.to_str().unwrap();
    let mut args = vec!["trace", "capture"];
    args.extend(options.split_whitespace());
    args.extend(["--out", path]);
    paragonctl(&args);
    paragonctl(&["trace", "summarize", path])
}

#[test]
fn summarize_table2_capture() {
    let text = capture_and_summarize("table2.json", "--file-mb 8 --request-kb 64");
    assert!(text.contains("demand reads ("), "{text}");
    golden("summarize_table2.txt", &text);
}

#[test]
fn summarize_prefetch_capture() {
    let text = capture_and_summarize(
        "prefetch.json",
        "--file-mb 8 --request-kb 64 --prefetch --delay-ms 10",
    );
    assert!(text.contains("demand reads ("), "{text}");
    assert!(text.contains("prefetch transfers ("), "{text}");
    golden("summarize_prefetch.txt", &text);
}

/// RF=2 M_RECORD with I/O node 1 crashed 50 ms in: reads that hit the
/// dead primary fail over to a surviving replica. `trace capture` has no
/// fault options, so the trace file is written through the library.
#[test]
fn summarize_replica_failover_trace() {
    let mut calib = Calibration::paragon_1995();
    calib.rpc_attempt_timeout = SimDuration::from_millis(250);
    let cfg = ExperimentConfig {
        seed: 7,
        compute_nodes: 4,
        io_nodes: 6,
        calib,
        mode: IoMode::MRecord,
        fast_path: true,
        stripe_unit: 64 * 1024,
        layout: StripeLayout::Across { factor: 4 },
        request_size: 64 * 1024,
        file_size: 8 << 20,
        delay: SimDuration::ZERO,
        prefetch: None,
        access: AccessPattern::ModeDriven,
        separate_files: false,
        verify_data: true,
        trace_cap: 1 << 20,
        faults: FaultSpec {
            ion_crash: Some((1, SimDuration::from_millis(50), SimDuration::from_secs(30))),
            ..FaultSpec::default()
        },
        redundancy: Redundancy::Replicated { rf: 2 },
        metrics_cadence: None,
        shards: None,
        workers: 1,
    };
    let r = run(&cfg);
    assert_eq!(r.read_errors, 0, "replication must mask the crash");
    assert!(
        r.trace.iter().any(|e| e.kind == EventKind::ReplicaFailover),
        "the trace must include failed-over reads"
    );
    let path = trace_file("failover.json");
    std::fs::write(&path, export_json(&r.trace)).unwrap();
    let text = paragonctl(&["trace", "summarize", path.to_str().unwrap()]);
    golden("summarize_failover.txt", &text);
}

//! The traced run: per-layer counts, simulated-time blame, host cost per
//! operation, and the host-cost ledger that joins them.
//!
//! Counts come from instrumentation the program already has: the flight
//! recorder's events after the measured phase's `Mark`, telemetry counter
//! deltas and gauge series, `critical_paths` over the events, the kernel's
//! self-profile and the handles' own statistics. Host costs per operation
//! are timed here, from outside, on calls into each layer's public
//! functions. Nothing new is traced inside the program.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use paragon_core::{PrefetchConfig, PrefetchingFile};
use paragon_disk::Disk;
use paragon_machine::{Calibration, Machine, MachineConfig};
use paragon_metrics::Histogram;
use paragon_pfs::{pattern_byte, pattern_slice, IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon_profile::{critical_paths, COMPONENTS};
use paragon_sim::{EventKind, Sim, SimDuration, Track};
use paragon_workload::{read_spans, telemetry::names};

use crate::workloads::{self, Workload, REQUEST, TRACE_CAP};
use crate::Values;

/// Batches per host micro-timing; the median batch is reported.
const BATCHES: usize = 7;

/// Every per-layer metric of workload `w`, from one untraced profiled
/// run, one traced run, one timed setup and the micro-timings.
pub fn measure(w: Workload, seed: u64, tiny: bool, v: &mut Values) {
    let setup = workloads::setup(w, seed, tiny, false, false);
    v.put("workload.setup.machine_s", setup.machine_s, "s");
    v.put("workload.setup.populate_s", setup.populate_s, "s");
    v.put("workload.setup.populate_mb", mb(setup.populate_bytes), "MB");

    // Untraced and traced runs alternate, twice each; the faster of each
    // pair sets the tracing overhead, so one cold start does not.
    let t = Instant::now();
    let (plain, prof) = workloads::run_profiled(w, seed, tiny, false, false, true);
    let mut untraced_s = t.elapsed().as_secs_f64();
    let prof = prof.expect("profiled run returns a kernel profile");
    let t = Instant::now();
    workloads::run(w, seed, tiny, true, false);
    let mut traced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    workloads::run(w, seed, tiny, false, false);
    untraced_s = untraced_s.min(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let o = workloads::run(w, seed, tiny, true, false);
    traced_s = traced_s.min(t.elapsed().as_secs_f64());
    assert!(o.trace.len() < TRACE_CAP, "flight recorder overflowed");
    assert_eq!(
        (plain.elapsed, plain.failed),
        (o.elapsed, o.failed),
        "tracing changed the simulated run"
    );
    v.put("attempted", o.attempted as f64, "count");
    v.put("failed", o.failed as f64, "count");

    // Kernel: whole run, untraced (the self-profile's own counters).
    v.put("sim.events", prof.total_events() as f64, "count");
    v.put(
        "sim.host_ns_per_event",
        prof.wall_ns as f64 / prof.total_events().max(1) as f64,
        "ns",
    );
    v.put("sim.shards", prof.shards as f64, "count");
    v.put("sim.epochs", prof.epochs() as f64, "count");
    v.put(
        "sim.cross_shard_frames",
        prof.cross_shard_frames() as f64,
        "count",
    );
    v.put("sim.barrier_stall_frac", prof.barrier_stall_frac(), "ratio");
    v.put(
        "sim.calendar_rebuilds",
        prof.calendar_rebuilds() as f64,
        "count",
    );

    // Flight recorder, measured phase only (setup ends at the Mark).
    let start = o
        .trace
        .iter()
        .position(|e| e.kind == EventKind::Mark && e.track == Track::Sys)
        .expect("measured phase is marked");
    let measured = &o.trace[start..];
    let count = |k: EventKind| measured.iter().filter(|e| e.kind == k).count() as f64;
    let shape = workloads::machine(w, tiny);
    let cn = shape.compute_nodes;
    let rpc_calls = measured
        .iter()
        .filter(|e| {
            e.kind == EventKind::NetTx && matches!(e.track, Track::Node(n) if (n as usize) < cn)
        })
        .count();
    v.put("os.rpc.calls", rpc_calls as f64, "count");
    v.put("os.rpc.retries", count(EventKind::RpcRetry), "count");
    v.put("pfs.pointer.ops", count(EventKind::PtrOp), "count");
    let writes: BTreeSet<u64> = measured
        .iter()
        .filter(|e| e.kind == EventKind::WriteStart)
        .map(|e| e.req)
        .collect();
    let (mut sr, mut sw, mut br, mut bw) = (0u64, 0u64, 0u64, 0u64);
    for e in measured
        .iter()
        .filter(|e| e.kind == EventKind::ServeStart && e.b > 0)
    {
        if writes.contains(&e.req) {
            (sw, bw) = (sw + 1, bw + e.b);
        } else {
            (sr, br) = (sr + 1, br + e.b);
        }
    }
    v.put("pfs.server.reads", sr as f64, "count");
    v.put("pfs.server.writes", sw as f64, "count");
    v.put("pfs.server.bytes_read", br as f64, "bytes");
    v.put("pfs.server.bytes_written", bw as f64, "bytes");
    let transfers = count(EventKind::ReadStart) + count(EventKind::WriteStart);
    let disk_cmds = count(EventKind::DiskStart);
    v.put("trace.events", o.trace.len() as f64, "count");

    // Telemetry: counter deltas and utilizations over the measured phase.
    telemetry(&shape, &o, v);

    // Handles' own statistics (disk: whole run, setup writes included).
    v.put("disk.requests", o.disk.requests as f64, "count");
    v.put("disk.bytes_read", o.disk.bytes_read as f64, "bytes");
    v.put("disk.bytes_written", o.disk.bytes_written as f64, "bytes");
    v.put(
        "disk.sequential_hits",
        o.disk.sequential_hits as f64,
        "count",
    );
    v.put("disk.far_seeks", o.disk.far_seeks as f64, "count");
    v.put(
        "disk.max_queue_depth",
        o.disk.max_queue_depth as f64,
        "count",
    );
    v.put("ufs.cache.hits", o.cache.0 as f64, "count");
    v.put("ufs.cache.misses", o.cache.1 as f64, "count");
    v.put("ufs.cache.evictions", o.cache.2 as f64, "count");
    let p = &o.prefetch;
    v.put("core.prefetch.issued", p.issued as f64, "count");
    v.put("core.prefetch.hits_ready", p.hits_ready as f64, "count");
    v.put(
        "core.prefetch.hits_inflight",
        p.hits_inflight as f64,
        "count",
    );
    v.put("core.prefetch.misses", p.misses as f64, "count");
    v.put("core.prefetch.wasted", p.wasted as f64, "count");
    v.put("core.prefetch.cancelled", p.cancelled as f64, "count");
    v.put(
        "core.prefetch.demand_reads",
        p.demand_reads() as f64,
        "count",
    );
    v.put("core.prefetch.accuracy", ratio(p.hits(), p.issued), "ratio");
    v.put(
        "core.prefetch.coverage",
        ratio(p.hits(), p.demand_reads()),
        "ratio",
    );
    v.put("core.prefetch.hidden_s", p.overlap_saved.as_secs_f64(), "s");
    v.put("core.prefetch.copy_mb", mb(p.bytes_copied), "MB");
    let wb = &o.writeback;
    v.put("core.writeback.writes", wb.writes as f64, "count");
    v.put("core.writeback.stalls", wb.stalls as f64, "count");
    v.put("core.writeback.stall_s", wb.stall_time.as_secs_f64(), "s");
    v.put(
        "core.writeback.overlap_s",
        wb.overlap_saved.as_secs_f64(),
        "s",
    );
    v.put("workload.verify_mb", mb(o.verified_bytes), "MB");

    // Simulated-time blame: the nine-leg critical path of every read.
    let t = Instant::now();
    let paths = critical_paths(black_box(&o.trace));
    v.put("profile.critical_paths_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    black_box(read_spans(black_box(&o.trace)));
    v.put("workload.read_spans_s", t.elapsed().as_secs_f64(), "s");
    v.put("blame.paths", paths.len() as f64, "count");
    for (i, leg) in COMPONENTS.iter().enumerate() {
        let mut h = Histogram::new();
        for cp in &paths {
            h.record(cp.legs[i] as f64 / 1e6);
        }
        let name = format!("blame.{}_ms.p50", leg.replace('-', "_"));
        v.put(&name, h.quantile(0.5).unwrap_or(0.0), "ms");
    }
    v.put("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");

    // Host cost per operation, timed on each layer's public calls.
    let timer_ns = timer_ns();
    let pattern_ns_per_kb = pattern_ns_per_kb(seed);
    let (disk_ns, disk_events) = disk_read_ns(&shape.calib);
    let (pfs_ns, pfs_events) = client_read_ns(false);
    let (core_ns, core_events) = client_read_ns(true);
    v.put("sim.timer_ns", timer_ns, "ns");
    v.put("workload.pattern_ns_per_kb", pattern_ns_per_kb, "ns/KB");
    v.put("pfs.plan_ns", plan_ns(shape.io_nodes), "ns");
    v.put("disk.read_ns", disk_ns, "ns");
    v.put("pfs.read_ns", pfs_ns, "ns");
    v.put("core.prefetch.read_ns", core_ns, "ns");

    // The ledger: per-op host cost (kernel events taken out, so no row
    // counts them twice) times the run's op counts, in CPU seconds.
    let worlds = prof.shards as f64;
    let setup_events = setup.events as f64 * worlds;
    let measured_events = (prof.total_events() as f64 - setup_events).max(0.0);
    let own = |ns: f64, events: f64| (ns - events * timer_ns).max(0.0);
    let io_self = own(pfs_ns, pfs_events);
    let rows = [
        (
            "ledger.setup_s",
            (setup.machine_s + setup.populate_s) * worlds,
        ),
        ("ledger.sim_s", timer_ns * measured_events * 1e-9),
        ("ledger.io_s", io_self * transfers * 1e-9),
        (
            "ledger.disk_s",
            own(disk_ns, disk_events) * disk_cmds * 1e-9,
        ),
        (
            "ledger.core_s",
            (own(core_ns, core_events) - io_self).max(0.0) * p.demand_reads() as f64 * 1e-9,
        ),
        (
            "ledger.workload_s",
            pattern_ns_per_kb * (o.verified_bytes + o.writeback.bytes) as f64 / 1024.0 * 1e-9,
        ),
    ];
    for (name, s) in rows {
        v.put(name, s, "s");
    }
    v.put("ledger.attributed_s", rows.iter().map(|r| r.1).sum(), "s");
    v.put("trace.run_s", traced_s, "s");
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn ratio(num: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        num as f64 / base as f64
    }
}

/// Utilizations with the formulas of `paragon_workload::metrics_report`,
/// from the traced run's telemetry snapshot.
fn telemetry(shape: &MachineConfig, o: &workloads::Outcome, v: &mut Values) {
    let snap = o.metrics.as_ref().expect("traced runs carry telemetry");
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0.0);
    let elapsed_ns = snap.phase_end_ns.saturating_sub(snap.phase_start_ns).max(1) as f64;
    let (cn, ion, calib) = (
        shape.compute_nodes as f64,
        shape.io_nodes as f64,
        &shape.calib,
    );
    let spindles = (calib.raid_members + usize::from(calib.raid_parity)) as f64 * ion;
    v.put("mesh.messages", counter(names::MESH_MESSAGES), "count");
    v.put("mesh.bytes", counter(names::MESH_BYTES), "bytes");
    v.put("mesh.hops", counter(names::MESH_HOPS), "count");
    v.put(
        "mesh.util",
        counter(names::NIC_BUSY_NS_MAX) / elapsed_ns,
        "ratio",
    );
    v.put("os.art.submitted", counter(names::ART_SUBMITTED), "count");
    v.put(
        "os.art.max_active",
        snap.series_max(names::ART_ACTIVE).unwrap_or(0.0),
        "count",
    );
    v.put(
        "os.util.art",
        snap.series_time_mean(names::ART_ACTIVE).unwrap_or(0.0) / (cn * calib.max_arts as f64),
        "ratio",
    );
    v.put(
        "pfs.util.server",
        counter(names::SERVER_BUSY_NS) / (calib.server_threads as f64 * ion * elapsed_ns),
        "ratio",
    );
    v.put(
        "disk.util",
        counter(names::DISK_BUSY_NS) / (spindles * elapsed_ns),
        "ratio",
    );
}

/// Median over [`BATCHES`] of `batch()`'s `(host ns, ops, kernel events)`,
/// as `(ns per op, kernel events per op)`.
fn per_op(mut batch: impl FnMut() -> (f64, u64, u64)) -> (f64, f64) {
    let mut runs: Vec<(f64, f64)> = (0..BATCHES)
        .map(|_| {
            let (ns, ops, events) = batch();
            (ns / ops as f64, events as f64 / ops as f64)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs[BATCHES / 2]
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Host ns per kernel timer event: 100 tasks of 100 interleaved sleeps.
fn timer_ns() -> f64 {
    per_op(|| {
        let sim = Sim::new(1);
        for n in 0..100u64 {
            let s = sim.clone();
            sim.spawn(async move {
                for i in 0..100u64 {
                    s.sleep(SimDuration::from_micros(n * 13 + i * 7)).await;
                }
            });
        }
        let t = Instant::now();
        let events = sim.run().events_processed;
        (elapsed_ns(t), events, events)
    })
    .0
}

/// Host ns per KB of the reference pattern (populate and verify).
fn pattern_ns_per_kb(seed: u64) -> f64 {
    per_op(|| {
        let t = Instant::now();
        for k in 0..64u64 {
            black_box(pattern_slice(seed, k * REQUEST as u64, REQUEST as usize));
        }
        (elapsed_ns(t), 64 * REQUEST as u64 / 1024, 0)
    })
    .0
}

/// Host ns per stripe plan of one 64 KB request at the workload's
/// stripe group width.
fn plan_ns(factor: usize) -> f64 {
    let attrs = StripeAttrs::across(factor, REQUEST as u64);
    per_op(|| {
        let t = Instant::now();
        for k in 0..10_000u64 {
            black_box(attrs.plan(black_box(k * REQUEST as u64), REQUEST as u64));
        }
        (elapsed_ns(t), 10_000, 0)
    })
    .0
}

/// Host ns and kernel events per 64 KB `Disk::read` on the workload's disk.
fn disk_read_ns(calib: &Calibration) -> (f64, f64) {
    per_op(|| {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, calib.disk.clone(), calib.sched, "bench");
        let d = disk.clone();
        sim.spawn(async move {
            let data = bytes::Bytes::from(vec![7u8; 4 << 20]);
            d.write(0, data).await.expect("disk write");
        });
        sim.run();
        sim.spawn(async move {
            for k in 0..256u64 {
                let off = (k % 64) * REQUEST as u64;
                black_box(disk.read(off, REQUEST).await.expect("disk read"));
            }
        });
        let t = Instant::now();
        let events = sim.run().events_processed;
        let ns = elapsed_ns(t);
        sim.shutdown();
        (ns, 256, events)
    })
}

/// Host ns and kernel events per 64 KB demand read through `PfsFile`
/// (or, with `prefetch`, through `PrefetchingFile`) on the zero-latency
/// machine, so only the host cost of the whole read path remains.
fn client_read_ns(prefetch: bool) -> (f64, f64) {
    const READS: u64 = 128;
    per_op(|| {
        let sim = Sim::new(1);
        let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(1, 4)));
        let pfs = ParallelFs::new(machine);
        let pfs2 = pfs.clone();
        let file = sim.spawn(async move {
            let id = pfs2
                .create("/pfs/bench", StripeAttrs::across(4, REQUEST as u64))
                .await
                .expect("create");
            pfs2.populate_with(id, READS * REQUEST as u64, |i| pattern_byte(1, i))
                .await
                .expect("populate");
            id
        });
        sim.run();
        let file = file.try_take().expect("setup finished");
        let f = pfs
            .open(0, 1, file, IoMode::MRecord, OpenOptions::default())
            .expect("open");
        sim.spawn(async move {
            if prefetch {
                let pf = PrefetchingFile::new(f, PrefetchConfig::paper_prototype());
                for _ in 0..READS {
                    black_box(pf.read(REQUEST).await.expect("read"));
                }
                pf.close().await;
            } else {
                for _ in 0..READS {
                    black_box(f.read(REQUEST).await.expect("read"));
                }
            }
        });
        let t = Instant::now();
        let events = sim.run().events_processed;
        let ns = elapsed_ns(t);
        sim.shutdown();
        (ns, READS, events)
    })
}

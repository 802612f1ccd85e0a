//! The three benchmark workloads and the calls that drive them.
//!
//! `paper-balanced` and `scale-iobound` go through the experiment runner
//! (`paragon_workload::run` / `run_profiled`); `rw-mixed` has no runner
//! entry point, so it drives the `pfs` and `core` handles directly. Every
//! workload checks its bytes: the runner's `verify_data` plus post-run
//! fsck, or, in `rw-mixed`, a compare of every byte read back.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use paragon_core::{
    PrefetchConfig, PrefetchStats, PrefetchingFile, WriteBehindConfig, WriteBehindFile,
    WriteBehindStats,
};
use paragon_disk::DiskStats;
use paragon_machine::{Calibration, Machine, MachineConfig};
use paragon_metrics::MetricsSnapshot;
use paragon_pfs::{
    pattern_byte, pattern_slice, IoMode, OpenOptions, ParallelFs, PfsFileId, Redundancy,
    StripeAttrs,
};
use paragon_sim::{
    ev, run_sharded_profiled, EventKind, KernelProfile, ShardPlan, Sim, SimDuration, TraceEvent,
    Track,
};
use paragon_workload::{ExperimentConfig, RunResult, StripeLayout, Telemetry};

/// Request size of every workload: the paper's 64 KB records.
pub const REQUEST: u32 = 64 * 1024;
/// Flight-recorder capacity of a traced run: far above any workload's
/// event count, so no event is dropped (checked after the run).
pub const TRACE_CAP: usize = 1 << 28;
/// Telemetry sampling cadence of a traced run (simulated time).
pub const CADENCE: SimDuration = SimDuration::from_millis(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBalanced,
    ScaleIobound,
    RwMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper-balanced" => Some(Workload::PaperBalanced),
            "scale-iobound" => Some(Workload::ScaleIobound),
            "rw-mixed" => Some(Workload::RwMixed),
            _ => None,
        }
    }
}

/// Host threads available to the sharded kernel.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host threads the workload's kernel runs on: the workers of a sharded
/// run, else one.
pub fn threads(w: Workload, tiny: bool) -> usize {
    experiment(w, 0, tiny)
        .filter(|c| c.resolved_shards() > 1)
        .map_or(1, |c| c.workers.max(1))
}

/// The experiment config of `paper-balanced` or `scale-iobound`
/// (`None` for `rw-mixed`, which `ExperimentConfig` cannot express). `tiny`
/// shrinks the shape for the self-test but keeps every mechanism on:
/// prefetch and the serial kernel, or several shard worlds.
pub fn experiment(w: Workload, seed: u64, tiny: bool) -> Option<ExperimentConfig> {
    let mut cfg = match w {
        // The paper's Figure 4 point: 8 CN x 8 ION, 128 MB, 25 ms, depth-1.
        Workload::PaperBalanced => {
            let mut cfg = ExperimentConfig::paper_balanced(REQUEST, SimDuration::from_millis(25))
                .with_prefetch();
            if tiny {
                cfg.file_size = 2 << 20;
            }
            cfg
        }
        // Full machine, no delay, prefetch off, automatic shard count.
        Workload::ScaleIobound => {
            let (cn, ion, file) = if tiny {
                (32, 8, 4 << 20)
            } else {
                (1024, 128, 256 << 20)
            };
            let mut cfg = ExperimentConfig::paper_iobound(REQUEST, 1);
            cfg.compute_nodes = cn;
            cfg.io_nodes = ion;
            cfg.layout = StripeLayout::Across { factor: ion };
            cfg.file_size = file;
            cfg.workers = nproc();
            if tiny {
                // Below 1024 CN the automatic count is 1; force the
                // parallel kernel so the self-test covers it.
                cfg.shards = Some(2);
            }
            cfg
        }
        Workload::RwMixed => return None,
    };
    cfg.seed = seed;
    cfg.verify_data = true;
    Some(cfg)
}

/// What one run of a workload delivered, in the same terms for every
/// workload. Traced runs also carry the recorder's events and telemetry.
pub struct Outcome {
    /// Application calls attempted (reads, plus writes in `rw-mixed`).
    pub attempted: u64,
    /// Calls that errored or returned wrong bytes, plus fsck problems.
    pub failed: u64,
    /// Bytes the application moved.
    pub bytes: u64,
    /// Bytes compared against the reference pattern.
    pub verified_bytes: u64,
    /// Simulated time of the measured phase.
    pub elapsed: SimDuration,
    /// Simulated time of every completed call.
    pub access: Vec<SimDuration>,
    pub trace_hash: u64,
    pub shards: usize,
    pub workers: usize,
    pub trace: Vec<TraceEvent>,
    pub metrics: Option<MetricsSnapshot>,
    pub prefetch: PrefetchStats,
    pub writeback: WriteBehindStats,
    /// Disk counters summed over every array, setup included.
    pub disk: DiskStats,
    /// UFS buffer-cache counters `(hits, misses, evictions)`; only the
    /// directly driven workload can read them.
    pub cache: (u64, u64, u64),
}

impl Outcome {
    fn from_run(cfg: &ExperimentConfig, r: RunResult) -> Outcome {
        let attempted = cfg.rounds_per_node() * cfg.compute_nodes as u64;
        let completed: u64 = r.per_node.iter().map(|n| n.reads).sum();
        let access = r
            .per_node
            .iter()
            .flat_map(|n| n.read_times.iter().copied())
            .collect();
        Outcome {
            attempted,
            // `verify_failures` counts wrong-byte reads and fsck problems;
            // a read that neither completed nor errored is failed too.
            failed: r.read_errors
                + r.verify_failures
                + attempted.saturating_sub(completed + r.read_errors),
            bytes: r.total_bytes,
            verified_bytes: r.total_bytes,
            elapsed: r.elapsed,
            access,
            trace_hash: r.trace_hash,
            shards: cfg.resolved_shards(),
            workers: cfg.workers,
            trace: r.trace,
            metrics: r.metrics,
            prefetch: r.prefetch,
            writeback: WriteBehindStats::default(),
            disk: r.disk,
            cache: (0, 0, 0),
        }
    }
}

/// One whole run, setup included, through the workload's public entry
/// point. `traced` arms the flight recorder and telemetry; `plant` makes
/// `rw-mixed` write one wrong byte into a record it later reads.
pub fn run(w: Workload, seed: u64, tiny: bool, traced: bool, plant: bool) -> Outcome {
    run_profiled(w, seed, tiny, traced, plant, false).0
}

/// [`run`], optionally with the kernel's self-profile.
pub fn run_profiled(
    w: Workload,
    seed: u64,
    tiny: bool,
    traced: bool,
    plant: bool,
    profiled: bool,
) -> (Outcome, Option<KernelProfile>) {
    let Some(mut cfg) = experiment(w, seed, tiny) else {
        let (out, prof) = rw_mixed(seed, tiny, traced, plant);
        return (out, profiled.then_some(prof));
    };
    assert!(
        !plant,
        "planting applies to rw-mixed and the setup read-back"
    );
    if traced {
        cfg.trace_cap = TRACE_CAP;
        cfg.metrics_cadence = Some(CADENCE);
    }
    if profiled {
        let (r, prof) = paragon_workload::run_profiled(&cfg);
        (Outcome::from_run(&cfg, r), Some(prof))
    } else {
        (Outcome::from_run(&cfg, paragon_workload::run(&cfg)), None)
    }
}

/// Host time of the setup calls `paragon_workload::run` makes, on a fresh single
/// world: machine construction, then file create and pattern populate
/// driven to quiescence.
pub struct Setup {
    pub machine_s: f64,
    pub populate_s: f64,
    pub populate_bytes: u64,
    /// Kernel events the setup phase fired.
    pub events: u64,
    /// Read-back only: records checked and records with a wrong byte.
    pub checked: u64,
    pub failed: u64,
}

/// The machine a workload runs on.
pub fn machine(w: Workload, tiny: bool) -> MachineConfig {
    setup_shape(w, 0, tiny).0
}

/// Machine shape, calibration, stripe attributes and populated size of
/// a workload's setup phase.
fn setup_shape(
    w: Workload,
    seed: u64,
    tiny: bool,
) -> (MachineConfig, StripeAttrs, u64, Redundancy) {
    match experiment(w, seed, tiny) {
        Some(cfg) => (
            MachineConfig {
                compute_nodes: cfg.compute_nodes,
                io_nodes: cfg.io_nodes,
                calib: cfg.calib.clone(),
            },
            cfg.layout.attrs(cfg.stripe_unit),
            cfg.file_size,
            cfg.redundancy,
        ),
        None => {
            let s = RwShape::new(tiny);
            (
                s.machine(),
                StripeAttrs::across(s.ion, REQUEST as u64),
                0,
                Redundancy::None,
            )
        }
    }
}

/// Time the setup calls. With `readback`, also read the populated file
/// back record by record through a PFS handle and compare every byte
/// with the reference pattern; `plant` flips one populated byte first,
/// which the compare must catch.
pub fn setup(w: Workload, seed: u64, tiny: bool, readback: bool, plant: bool) -> Setup {
    let (mc, attrs, size, redundancy) = setup_shape(w, seed, tiny);
    let sim = Sim::new(seed);
    let t = Instant::now();
    let machine = Rc::new(Machine::new(&sim, mc));
    let pfs = ParallelFs::new_with_redundancy(machine, redundancy);
    let machine_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let pfs2 = pfs.clone();
    let file = sim.spawn(async move {
        let id = pfs2
            .create("/pfs/data", attrs)
            .await
            .expect("create failed");
        // The unplanted fill is the runner's own closure, so the timing
        // matches its setup; the planted one flips one byte.
        let filled = if plant {
            let planted = size / 3;
            pfs2.populate_with(id, size, |i| pattern_byte(seed, i) ^ u8::from(i == planted))
                .await
        } else {
            pfs2.populate_with(id, size, |i| pattern_byte(seed, i))
                .await
        };
        filled.expect("populate failed");
        id
    });
    let events = sim.run().events_processed;
    let populate_s = t.elapsed().as_secs_f64();
    let file = file.try_take().expect("setup did not reach quiescence");

    let (checked, failed) = if readback {
        read_back(&sim, &pfs, file, size, seed)
    } else {
        (0, 0)
    };
    sim.shutdown();
    Setup {
        machine_s,
        populate_s,
        populate_bytes: size,
        events,
        checked,
        failed,
    }
}

fn read_back(sim: &Sim, pfs: &Rc<ParallelFs>, file: PfsFileId, size: u64, seed: u64) -> (u64, u64) {
    let f = pfs
        .open(0, 1, file, IoMode::MAsync, OpenOptions::default())
        .expect("open failed");
    let h = sim.spawn(async move {
        let (mut checked, mut failed) = (0, 0);
        for off in (0..size).step_by(REQUEST as usize) {
            checked += 1;
            match f.transfer_read(off, REQUEST).await {
                Ok(data) if data[..] == pattern_slice(seed, off, REQUEST as usize)[..] => {}
                _ => failed += 1,
            }
        }
        (checked, failed)
    });
    sim.run();
    h.try_take().expect("read-back did not finish")
}

/// `rw-mixed`'s shape: each node writes its M_RECORD records of an empty
/// file through write-behind, then makes random positioned reads through
/// the prefetching handle.
#[derive(Clone, Copy)]
struct RwShape {
    cn: usize,
    ion: usize,
    file_size: u64,
    write_delay: SimDuration,
    reads_per_node: u64,
}

impl RwShape {
    fn new(tiny: bool) -> RwShape {
        if tiny {
            RwShape {
                cn: 4,
                ion: 4,
                file_size: 4 << 20,
                write_delay: SimDuration::from_millis(10),
                reads_per_node: 16,
            }
        } else {
            RwShape {
                cn: 8,
                ion: 8,
                file_size: 64 << 20,
                write_delay: SimDuration::from_millis(10),
                reads_per_node: 512,
            }
        }
    }

    fn machine(&self) -> MachineConfig {
        MachineConfig {
            compute_nodes: self.cn,
            io_nodes: self.ion,
            calib: Calibration::paragon_1995(),
        }
    }

    fn writes_per_node(&self) -> u64 {
        self.file_size / (REQUEST as u64 * self.cn as u64)
    }

    /// Node `rank`'s read offsets: uniform record-aligned positions over
    /// the whole file, generated from the benchmark seed.
    fn read_offsets(&self, seed: u64, rank: usize) -> Vec<u64> {
        let records = self.file_size / REQUEST as u64;
        let mut x = seed ^ (rank as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (0..self.reads_per_node)
            .map(|_| (splitmix64(&mut x) % records) * REQUEST as u64)
            .collect()
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-node tallies of one phase of `rw-mixed`.
#[derive(Default)]
struct Tally {
    /// Access time of every call that returned.
    access: Vec<SimDuration>,
    /// Calls that returned an error.
    errors: u64,
    /// Reads that returned wrong bytes, plus failed flushes.
    wrong: u64,
    bytes: u64,
    verified: u64,
    prefetch: PrefetchStats,
    writeback: WriteBehindStats,
}

struct RwWorld {
    machine: Rc<Machine>,
    telemetry: Option<Rc<Telemetry>>,
    out: Rc<RefCell<Option<(Tally, SimDuration)>>>,
}

fn rw_mixed(seed: u64, tiny: bool, traced: bool, plant: bool) -> (Outcome, KernelProfile) {
    let shape = RwShape::new(tiny);
    let (mut outs, prof) = run_sharded_profiled(
        &ShardPlan::serial(seed),
        |_, sim| build_rw(sim, shape, seed, traced, plant),
        |_, sim, w| finish_rw(sim, shape, w),
    );
    (outs.pop().expect("serial plan yields one world"), prof)
}

fn build_rw(sim: &Sim, shape: RwShape, seed: u64, traced: bool, plant: bool) -> RwWorld {
    if traced {
        sim.tracer().arm(TRACE_CAP);
    }
    let machine = Rc::new(Machine::new(sim, shape.machine()));
    let pfs = ParallelFs::new_with_redundancy(machine.clone(), Redundancy::None);
    let telemetry = traced.then(|| Telemetry::new(sim, &machine, &pfs, CADENCE));
    let out = Rc::new(RefCell::new(None));
    let (sim2, out2, telemetry2) = (sim.clone(), out.clone(), telemetry.clone());
    // The planted byte sits in the first record rank 0 reads back.
    let planted = plant.then(|| shape.read_offsets(seed, 0)[0] + 17);
    sim.spawn_named("perfbench-rw-mixed", async move {
        let attrs = StripeAttrs::across(shape.ion, REQUEST as u64);
        let file = pfs.create("/pfs/rw", attrs).await.expect("create failed");
        let t0 = sim2.now();
        sim2.emit(|| {
            ev(
                Track::Sys,
                EventKind::Mark,
                0,
                shape.cn as u64,
                shape.ion as u64,
            )
        });
        if let Some(t) = &telemetry2 {
            t.begin();
        }
        let mut total = Tally::default();
        let writers: Vec<_> = (0..shape.cn)
            .map(|rank| {
                sim2.spawn(write_records(
                    sim2.clone(),
                    pfs.clone(),
                    file,
                    rank,
                    shape,
                    seed,
                    planted,
                ))
            })
            .collect();
        for h in writers {
            total.merge(h.await);
        }
        // Every write is flushed before any node reads: reads cover the
        // whole file, other nodes' records included.
        let gauges = telemetry2.as_ref().map(|t| t.prefetch.clone());
        let readers: Vec<_> = (0..shape.cn)
            .map(|rank| {
                sim2.spawn(read_random(
                    sim2.clone(),
                    pfs.clone(),
                    file,
                    rank,
                    shape,
                    seed,
                    gauges.clone(),
                ))
            })
            .collect();
        for h in readers {
            total.merge(h.await);
        }
        if let Some(t) = &telemetry2 {
            t.end();
        }
        *out2.borrow_mut() = Some((total, sim2.now().since(t0)));
    });
    RwWorld {
        machine,
        telemetry,
        out,
    }
}

async fn write_records(
    sim: Sim,
    pfs: Rc<ParallelFs>,
    file: PfsFileId,
    rank: usize,
    shape: RwShape,
    seed: u64,
    planted: Option<u64>,
) -> Tally {
    let f = pfs
        .open(
            rank,
            shape.cn,
            file,
            IoMode::MRecord,
            OpenOptions::default(),
        )
        .expect("open failed");
    let wb = WriteBehindFile::new(f, WriteBehindConfig::prototype());
    let mut t = Tally::default();
    let rounds = shape.writes_per_node();
    for k in 0..rounds {
        // The M_RECORD pointer hands this node record k*cn + rank.
        let off = (k * shape.cn as u64 + rank as u64) * REQUEST as u64;
        let mut data = pattern_slice(seed, off, REQUEST as usize);
        if let Some(p) = planted.filter(|p| (off..off + REQUEST as u64).contains(p)) {
            let mut v = data.to_vec();
            v[(p - off) as usize] ^= 0xff;
            data = Bytes::from(v);
        }
        let before = sim.now();
        match wb.write(data).await {
            Ok(()) => {
                t.access.push(sim.now().since(before));
                t.bytes += REQUEST as u64;
            }
            Err(_) => t.errors += 1,
        }
        if k + 1 < rounds {
            sim.sleep(shape.write_delay).await;
        }
    }
    if wb.flush().await.is_err() {
        t.wrong += 1;
    }
    t.writeback = wb.stats();
    t
}

async fn read_random(
    sim: Sim,
    pfs: Rc<ParallelFs>,
    file: PfsFileId,
    rank: usize,
    shape: RwShape,
    seed: u64,
    gauges: Option<paragon_core::PrefetchGauges>,
) -> Tally {
    let f = pfs
        .open(
            rank,
            shape.cn,
            file,
            IoMode::MRecord,
            OpenOptions::default(),
        )
        .expect("open failed");
    let mut pc = PrefetchConfig::paper_prototype();
    pc.copy_bw = pfs.machine().calib().cn_copy_bw;
    let pf = PrefetchingFile::new(f, pc);
    if let Some(g) = gauges {
        pf.set_gauges(g);
    }
    let mut t = Tally::default();
    for off in shape.read_offsets(seed, rank) {
        let before = sim.now();
        match pf.read_at(off, REQUEST).await {
            Ok(data) => {
                t.access.push(sim.now().since(before));
                t.bytes += data.len() as u64;
                t.verified += data.len() as u64;
                if data[..] != pattern_slice(seed, off, REQUEST as usize)[..] {
                    t.wrong += 1;
                }
            }
            Err(_) => t.errors += 1,
        }
    }
    t.prefetch = pf.close().await;
    t
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.access.extend(o.access);
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.bytes += o.bytes;
        self.verified += o.verified;
        self.prefetch.merge(&o.prefetch);
        let (w, x) = (&mut self.writeback, &o.writeback);
        w.writes += x.writes;
        w.bytes += x.bytes;
        w.bytes_copied += x.bytes_copied;
        w.stalls += x.stalls;
        w.stall_time += x.stall_time;
        w.overlap_saved += x.overlap_saved;
    }
}

fn finish_rw(sim: &Sim, shape: RwShape, w: RwWorld) -> Outcome {
    let report = sim.report();
    let trace = sim.tracer().events();
    sim.shutdown();
    let (tally, elapsed) = w
        .out
        .borrow_mut()
        .take()
        .unwrap_or_else(|| panic!("rw-mixed deadlocked: {:?}", sim.pending_task_labels()));
    let fsck: u64 = (0..shape.ion)
        .map(|i| w.machine.ufs(i).check().len() as u64)
        .sum();
    let mut disk = DiskStats::default();
    let mut cache = (0, 0, 0);
    for i in 0..shape.ion {
        let s = w.machine.raid(i).stats();
        disk.requests += s.requests;
        disk.bytes_read += s.bytes_read;
        disk.bytes_written += s.bytes_written;
        disk.busy += s.busy;
        disk.sequential_hits += s.sequential_hits;
        disk.near_seeks += s.near_seeks;
        disk.far_seeks += s.far_seeks;
        disk.max_queue_depth = disk.max_queue_depth.max(s.max_queue_depth);
        let c = w.machine.ufs(i).cache_stats();
        cache = (cache.0 + c.hits, cache.1 + c.misses, cache.2 + c.evictions);
    }
    let attempted = shape.cn as u64 * (shape.writes_per_node() + shape.reads_per_node);
    Outcome {
        attempted,
        failed: tally.errors
            + tally.wrong
            + fsck
            + attempted.saturating_sub(tally.access.len() as u64 + tally.errors),
        bytes: tally.bytes,
        verified_bytes: tally.verified,
        elapsed,
        access: tally.access,
        trace_hash: report.trace_hash,
        shards: 1,
        workers: 1,
        trace,
        metrics: w.telemetry.map(|t| t.snapshot()),
        prefetch: tally.prefetch,
        writeback: tally.writeback,
        disk,
        cache,
    }
}

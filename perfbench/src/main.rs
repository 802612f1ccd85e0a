//! Measurement binary of the repository benchmark. `perfbench/run.py`
//! builds it and runs it once per measurement, in a fresh process, so
//! each whole run's peak memory is its own. Modes:
//!
//! * `run`: one untraced whole run, setup included, timed on the host,
//!   with its simulated metrics and a check of every output.
//! * `setup`: the setup calls alone on a fresh single world, timed.
//! * `readback`: setup, then every populated record read back and
//!   compared; with `--plant`, one populated byte is wrong and the
//!   compare must catch it (`rw-mixed` plants into its own run instead).
//! * `layers`: the traced run and the per-layer metrics (`layers.rs`).
//! * `reference`: a fixed memory-bound kernel that uses none of the
//!   program's code, on one thread and on as many threads as the
//!   workload's kernel; its time tracks how fast the host is right now.
//!
//! Usage: `perfbench <mode> --workload <name> --seed <n> [--tiny] [--plant]`.
//! Prints one JSON line: `{"info": {...}, "values": {name: [value, unit]}}`.

mod layers;
mod workloads;

use std::time::Instant;

use paragon_metrics::Histogram;
use workloads::Workload;

/// Named measurements with their units, in emission order.
#[derive(Default)]
pub struct Values(Vec<(String, f64, &'static str)>);

impl Values {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": [{v:?}, \"{u}\"]"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench run|setup|readback|layers|reference --workload \
         paper-balanced|scale-iobound|rw-mixed --seed N [--tiny] [--plant]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().cloned().unwrap_or_else(|| usage());
    let flag = |f: &str| args.iter().any(|a| a == f);
    let opt = |f: &str| {
        args.iter()
            .position(|a| a == f)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let w = opt("--workload")
        .and_then(|s| Workload::parse(&s))
        .unwrap_or_else(|| usage());
    let seed: u64 = opt("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let (tiny, plant) = (flag("--tiny"), flag("--plant"));

    let mut v = Values::default();
    let mut info = vec![
        ("nproc".to_string(), workloads::nproc().to_string()),
        ("seed".to_string(), seed.to_string()),
    ];
    match mode.as_str() {
        "run" => {
            let t = Instant::now();
            let o = workloads::run(w, seed, tiny, false, plant);
            v.put("run_s", t.elapsed().as_secs_f64(), "s");
            outcome(&o, &mut v);
            info.push(("trace_hash".into(), format!("{:016x}", o.trace_hash)));
            info.push(("shards".into(), o.shards.to_string()));
            info.push(("workers".into(), o.workers.to_string()));
        }
        "setup" | "readback" => {
            let s = workloads::setup(w, seed, tiny, mode == "readback", plant);
            v.put("machine_s", s.machine_s, "s");
            v.put("populate_s", s.populate_s, "s");
            v.put("setup_s", s.machine_s + s.populate_s, "s");
            v.put("attempted", s.checked as f64, "count");
            v.put("failed", s.failed as f64, "count");
        }
        "layers" => layers::measure(w, seed, tiny, &mut v),
        "reference" => {
            // One thread for the single-world setup; the workload's thread
            // count for its whole run.
            let one = reference(1);
            let threads = workloads::threads(w, tiny);
            let all = if threads > 1 { reference(threads) } else { one };
            v.put("reference_s", one, "s");
            v.put("reference_run_s", all, "s");
        }
        _ => usage(),
    }
    v.put("peak_rss_mb", peak_rss_kb() / 1024.0, "MB");
    let info: Vec<String> = info
        .iter()
        .map(|(k, s)| format!("\"{k}\": \"{s}\""))
        .collect();
    println!(
        "{{\"info\": {{{}}}, \"values\": {}}}",
        info.join(", "),
        v.json()
    );
}

/// Host seconds of the reference kernel: on each of `threads` threads,
/// fill 64 MB of fresh memory with a hash of the offset, copy it and sum
/// the copy. Page faults, stores, a copy and a read pass: the operations
/// that dominate the workloads' setup and verification.
fn reference(threads: usize) -> f64 {
    const BYTES: usize = 64 << 20;
    let t = Instant::now();
    std::thread::scope(|s| {
        for k in 0..threads as u64 {
            s.spawn(move || {
                let mut v = vec![0u8; BYTES];
                for (i, b) in v.iter_mut().enumerate() {
                    let x = (i as u64 ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    *b = ((x >> 32) ^ x) as u8;
                }
                let copy = std::hint::black_box(v.clone());
                std::hint::black_box(copy.iter().map(|&b| u64::from(b)).sum::<u64>());
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// This process's resident-set high-water mark, from the kernel.
fn peak_rss_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|s| s.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// The end-to-end simulated metrics and the output check of one run.
fn outcome(o: &workloads::Outcome, v: &mut Values) {
    v.put("attempted", o.attempted as f64, "count");
    v.put("failed", o.failed as f64, "count");
    let secs = o.elapsed.as_secs_f64();
    v.put("sim_elapsed_s", secs, "s");
    v.put(
        "sim_bandwidth_mb_s",
        o.bytes as f64 / (1 << 20) as f64 / secs.max(1e-12),
        "MB/s",
    );
    let mut h = Histogram::new();
    for t in &o.access {
        h.record(t.as_secs_f64() * 1e3);
    }
    v.put("calls", h.len() as f64, "count");
    v.put("sim_access_ms.p50", h.quantile(0.50).unwrap_or(0.0), "ms");
    v.put("sim_access_ms.p99", h.quantile(0.99).unwrap_or(0.0), "ms");
}

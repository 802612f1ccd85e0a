//! Quickstart: build a Paragon, mount the PFS, read a striped file with
//! and without the prefetching prototype, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::rc::Rc;

use paragon::machine::{Machine, MachineConfig};
use paragon::pfs::{IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon::prefetch::{PrefetchConfig, PrefetchingFile};
use paragon::sim::{Sim, SimDuration};

const KB: u64 = 1024;
const REQUEST: u32 = 64 * 1024;
const FILE_SIZE: u64 = 8 * 1024 * KB; // 8 MB
const COMPUTE_DELAY_MS: u64 = 30;

fn main() {
    // Each run is one fresh simulated machine; same seed = same result.
    for prefetch in [false, true] {
        let sim = Sim::new(2024);
        let machine = Rc::new(Machine::new(&sim, MachineConfig::paper_testbed()));
        let pfs = ParallelFs::new(machine);

        let handle = {
            let pfs = pfs.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                // One file striped over all 8 I/O nodes in 64 KB units.
                let file = pfs
                    .create("/pfs/quickstart", StripeAttrs::across(8, 64 * KB))
                    .await
                    .unwrap();
                pfs.populate_pattern(file, FILE_SIZE, 7).await.unwrap();

                // A single node reads it sequentially with some compute
                // between reads (a "balanced" workload).
                let f = pfs
                    .open(0, 1, file, IoMode::MAsync, OpenOptions::default())
                    .unwrap();
                let reader = prefetch
                    .then(|| PrefetchingFile::new(f.clone(), PrefetchConfig::paper_prototype()));

                let t0 = sim2.now();
                let rounds = FILE_SIZE / REQUEST as u64;
                for _ in 0..rounds {
                    let data = match &reader {
                        Some(pf) => pf.read(REQUEST).await.unwrap(),
                        None => f.read(REQUEST).await.unwrap(),
                    };
                    assert_eq!(data.len(), REQUEST as usize);
                    // "Compute" on the block.
                    sim2.sleep(SimDuration::from_millis(COMPUTE_DELAY_MS)).await;
                }
                let elapsed = sim2.now().since(t0);
                let stats = match reader {
                    Some(pf) => Some(pf.close().await),
                    None => None,
                };
                (elapsed, stats)
            })
        };
        sim.run();
        let (elapsed, stats) = handle.try_take().expect("run finished");
        let mb = FILE_SIZE as f64 / (1 << 20) as f64;
        println!(
            "prefetch={prefetch:<5}  {mb:.0} MB in {elapsed}  ({:.2} MB/s)",
            mb / elapsed.as_secs_f64()
        );
        if let Some(s) = stats {
            println!(
                "                hits {} ({} ready / {} in-flight), misses {}, \
                 latency hidden {}",
                s.hits(),
                s.hits_ready,
                s.hits_inflight,
                s.misses,
                s.overlap_saved
            );
        }
    }
    println!("\nWith ~30 ms of compute per 64 KB block, the prototype overlaps");
    println!("almost every read with computation — the paper's headline effect.");
}

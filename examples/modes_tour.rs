//! A tour of the six PFS I/O modes (the paper's Figure 1).
//!
//! Four nodes share a 16-record file and each mode reads it once; the
//! example prints which record each node got and what the coordination
//! cost was, making the semantic differences concrete:
//!
//! * M_UNIX — atomic shared pointer: records go out in token-grant order.
//! * M_LOG — shared pointer, fetch-and-add: arrival order, overlapping.
//! * M_SYNC — shared pointer, node order, synchronizing collective.
//! * M_RECORD — per-node pointers over node-ordered records.
//! * M_GLOBAL — every node reads the same record; one physical I/O.
//! * M_ASYNC — uncoordinated per-node pointers.
//!
//! ```sh
//! cargo run --release --example modes_tour
//! ```

use std::rc::Rc;

use paragon::machine::{Machine, MachineConfig};
use paragon::pfs::{pattern_slice, IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon::sim::{Sim, SimDuration};

const NODES: usize = 4;
const RECORD: u32 = 64 * 1024;
const RECORDS: u64 = 16;

fn main() {
    for mode in IoMode::all() {
        let sim = Sim::new(5);
        let machine = Rc::new(Machine::new(&sim, MachineConfig::paper_testbed()));
        let pfs = ParallelFs::new(machine);
        let pfs2 = pfs.clone();
        let sim2 = sim.clone();
        let run = sim.spawn(async move {
            let file = pfs2
                .create("/pfs/tour", StripeAttrs::across(8, 64 * 1024))
                .await
                .unwrap();
            let size = RECORDS * RECORD as u64;
            pfs2.populate_pattern(file, size, 1).await.unwrap();
            let t0 = sim2.now();
            let rounds = match mode {
                IoMode::MGlobal => RECORDS, // everyone reads every record
                _ => RECORDS / NODES as u64,
            };
            let mut tasks = Vec::new();
            for rank in 0..NODES {
                let f = pfs2
                    .open(rank, NODES, file, mode, OpenOptions::default())
                    .unwrap();
                let sim3 = sim2.clone();
                tasks.push(sim2.spawn(async move {
                    let mut got = Vec::new();
                    for _ in 0..rounds {
                        let data = f.read(RECORD).await.unwrap();
                        // Identify which record these bytes are.
                        let rec = (0..RECORDS)
                            .find(|&r| data[..64] == pattern_slice(1, r * RECORD as u64, 64)[..])
                            .expect("bytes match a record");
                        got.push(rec);
                        // A little compute so arrival orders differ.
                        sim3.sleep(SimDuration::from_millis(3 + rank as u64)).await;
                    }
                    got
                }));
            }
            let mut per_node = Vec::new();
            for t in tasks {
                per_node.push(t.await);
            }
            (per_node, sim2.now().since(t0))
        });
        sim.run();
        let (per_node, elapsed) = run.try_take().expect("finished");

        println!("{mode} (mode {}):  elapsed {elapsed}", mode.number());
        for (rank, recs) in per_node.iter().enumerate() {
            println!("  node {rank} read records {recs:?}");
        }
        // Semantic checks, so the tour doubles as an executable spec.
        let all: Vec<u64> = per_node.iter().flatten().copied().collect();
        match mode {
            IoMode::MGlobal => {
                for recs in &per_node {
                    assert_eq!(*recs, (0..RECORDS).collect::<Vec<_>>());
                }
                println!("  -> every node saw the same data, one physical read each");
            }
            IoMode::MRecord => {
                for (rank, recs) in per_node.iter().enumerate() {
                    let want: Vec<u64> = (0..RECORDS / NODES as u64)
                        .map(|k| k * NODES as u64 + rank as u64)
                        .collect();
                    assert_eq!(*recs, want);
                }
                println!("  -> node-ordered record interleave, no coordination");
            }
            IoMode::MAsync => {
                // No coordination at all: every node's private pointer
                // starts at zero, so they all re-read the same prefix.
                for recs in &per_node {
                    assert_eq!(*recs, (0..RECORDS / NODES as u64).collect::<Vec<_>>());
                }
                println!("  -> uncoordinated pointers: all nodes re-read the front");
            }
            _ => {
                let mut sorted = all.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len() as u64, RECORDS, "{mode}: records not disjoint");
                println!("  -> every record read exactly once via the shared pointer");
            }
        }
        println!();
    }
}

//! Extension (paper §5 future work): "evaluate the performance of
//! prefetching on much larger systems".
//!
//! Sweeps the machine shape from 2+1 up to 512+64 nodes under the
//! balanced M_RECORD workload and reports aggregate bandwidth, per-node
//! fairness, the prefetch hit ratio, and the time-mean/peak server
//! request-queue depth with prefetching on. Expected shape: aggregate
//! bandwidth scales with the I/O-node count (the disks are the
//! bottleneck), prefetching keeps its relative win at every size with a
//! stable hit ratio, the benefit stays evenly distributed across nodes
//! (low imbalance), and the server queues deepen as the compute-to-I/O
//! ratio climbs past the paper's 2:1 toward 8:1 at 512+64 — the
//! queue-depth degradation the paper's future-work question is about.

use paragon_bench::{run_logged, save_record};
use paragon_metrics::{ExperimentRecord, Table};
use paragon_sim::SimDuration;
use paragon_workload::{ExperimentConfig, StripeLayout};

const SHAPES: [(usize, usize); 10] = [
    (2, 1),
    (4, 2),
    (8, 8),
    (16, 8),
    (32, 16),
    (64, 16),
    (128, 32),
    (512, 64),
    (1024, 128),
    (4096, 256),
];

/// Per-compute-node file bytes: 4 MB keeps the small shapes comparable
/// to the paper's runs; from 64 CNs up it drops to 1 MB so the larger
/// points stay inside a CI wall-clock budget.
fn per_cn_bytes(cn: usize) -> u64 {
    if cn >= 64 {
        1 << 20
    } else {
        4 << 20
    }
}

fn main() {
    let mut table = Table::new(
        "Scaling study: balanced M_RECORD workload (64 KB requests, 25 ms delay)",
        &[
            "CN x ION",
            "No prefetch (MB/s)",
            "Prefetch (MB/s)",
            "Gain",
            "Node imbalance",
            "PF hit ratio",
            "Server queue mean/max",
        ],
    );
    let mut record = ExperimentRecord::new(
        "EXT-SCALING",
        "Prefetching gain, fairness, hit ratio, and server queue depth while \
         scaling compute and I/O nodes",
    );
    record.config("request_kb", 64).config("delay_ms", 25);

    for (cn, ion) in SHAPES {
        let mut cfg = ExperimentConfig::paper_balanced(64 * 1024, SimDuration::from_millis(25));
        cfg.compute_nodes = cn;
        cfg.io_nodes = ion;
        cfg.layout = StripeLayout::Across { factor: ion };
        cfg.file_size = (cn as u64) * per_cn_bytes(cn);
        // From 1024 CNs up the config auto-shards onto the parallel
        // kernel; drive the worlds with one worker per host core. The
        // recorded values cannot depend on this (workers only map worlds
        // to threads), it just shortens the sweep on multicore hosts.
        cfg.workers = 0;
        let no_pf = run_logged(&format!("{cn}x{ion} no-pf"), &cfg);
        // Arm the telemetry sampler on the prefetch run so the record
        // captures how deep the server request queues sit at each shape.
        let mut pf_cfg = cfg.clone().with_prefetch();
        pf_cfg.metrics_cadence = Some(SimDuration::from_millis(100));
        let pf = run_logged(&format!("{cn}x{ion} pf"), &pf_cfg);
        let gain = pf.bandwidth_mb_s() / no_pf.bandwidth_mb_s();
        let (q_mean, q_max) = pf
            .metrics
            .as_ref()
            .map(|snap| {
                (
                    snap.series_time_mean("server.queue").unwrap_or(0.0),
                    snap.series_max("server.queue").unwrap_or(0.0),
                )
            })
            .unwrap_or((0.0, 0.0));
        table.row(&[
            format!("{cn} x {ion}"),
            format!("{:.2}", no_pf.bandwidth_mb_s()),
            format!("{:.2}", pf.bandwidth_mb_s()),
            format!("{:.2}x", gain),
            format!("{:.3}", pf.node_imbalance()),
            format!("{:.3}", pf.prefetch.hit_ratio()),
            format!("{q_mean:.2} / {q_max:.0}"),
        ]);
        record.point(
            &[
                ("compute_nodes", &cn.to_string()),
                ("io_nodes", &ion.to_string()),
                ("per_cn_mb", &(per_cn_bytes(cn) >> 20).to_string()),
            ],
            &[
                ("bw_no_prefetch_mb_s", no_pf.bandwidth_mb_s()),
                ("bw_prefetch_mb_s", pf.bandwidth_mb_s()),
                ("gain", gain),
                ("node_imbalance", pf.node_imbalance()),
                ("prefetch_hit_ratio", pf.prefetch.hit_ratio()),
                ("server_queue_mean", q_mean),
                ("server_queue_max", q_max),
            ],
        );
    }

    println!("\n{}", table.render());
    println!(
        "Expected: bandwidth scales with I/O nodes; the prefetching gain persists\n\
         at every machine size with a stable hit ratio; imbalance stays small\n\
         (benefits equally distributed amongst the processors, as the paper\n\
         requires); and the mean server queue depth degrades as the\n\
         compute-to-I/O ratio grows from 2:1 to 8:1 at 512 x 64."
    );
    save_record(&record);
}

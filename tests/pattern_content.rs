//! Virtual pattern content: a file laid down with `populate_pattern` must
//! be indistinguishable from the same pattern materialized byte by byte
//! through `populate_with`: the same simulated run event for event, and
//! the same bytes on every read. Only the disk stores' footprint differs.

use std::rc::Rc;

use bytes::Bytes;
use paragon::machine::{Calibration, Machine, MachineConfig};
use paragon::pfs::{
    pattern_byte, pattern_matches, pattern_slice, IoMode, OpenOptions, ParallelFs, PfsFile,
    PfsFileId, Redundancy, StripeAttrs,
};
use paragon::sim::{hash_events, Sim};

const KB: u64 = 1024;
const SEED: u64 = 29;

/// How a test fills its file.
#[derive(Clone, Copy, Debug)]
enum Fill {
    Pattern,
    Materialized,
    /// `populate_with` with [`scrambled`], a fill that is not the pattern.
    Scrambled,
}

/// Byte `i` of a [`Fill::Scrambled`] file.
fn scrambled(i: u64) -> u8 {
    (i.wrapping_mul(131) >> 3) as u8
}

/// A 2-CN machine with `ions` I/O nodes under `redundancy` (parity turns
/// the RAID parity member on, as the runner does).
fn mount(sim: &Sim, ions: usize, redundancy: Redundancy) -> Rc<ParallelFs> {
    let mut calib = Calibration::paragon_1995();
    calib.raid_parity = redundancy == Redundancy::ParityRaid;
    let machine = Rc::new(Machine::new(
        sim,
        MachineConfig {
            compute_nodes: 2,
            io_nodes: ions,
            calib,
        },
    ));
    ParallelFs::new_with_redundancy(machine, redundancy)
}

async fn populate(pfs: &ParallelFs, file: PfsFileId, size: u64, fill: Fill) {
    match fill {
        Fill::Pattern => pfs.populate_pattern(file, size, SEED).await.unwrap(),
        Fill::Materialized => pfs
            .populate_with(file, size, |i| pattern_byte(SEED, i))
            .await
            .unwrap(),
        Fill::Scrambled => pfs.populate_with(file, size, scrambled).await.unwrap(),
    }
}

/// Read `[0, size)` back in `step`-byte requests.
async fn read_all(f: &PfsFile, size: u64, step: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(size as usize);
    let mut at = 0;
    while at < size {
        let len = step.min(size - at) as u32;
        out.extend_from_slice(&f.transfer_read(at, len).await.unwrap());
        at += len as u64;
    }
    out
}

/// Populate a file one way, read every byte back through the PFS in
/// requests that straddle pages and stripe units, and read every copy of
/// every slot file straight off its I/O node. Returns the trace hash and
/// the bytes (file bytes, then each copy's slot-file bytes).
fn populate_and_read(
    su: u64,
    size: u64,
    redundancy: Redundancy,
    fill: Fill,
) -> (u64, Vec<u8>, Vec<Vec<u8>>) {
    let sim = Sim::new(5);
    sim.tracer().arm(1 << 20);
    let pfs = mount(&sim, 4, redundancy);
    let p2 = pfs.clone();
    let h = sim.spawn(async move {
        let id = p2
            .create("/pfs/eq", StripeAttrs::across(3, su))
            .await
            .unwrap();
        populate(&p2, id, size, fill).await;
        let f = p2
            .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap();
        let file = read_all(&f, size, 100_003).await;
        let meta = p2.stat(id).unwrap();
        let mut copies = Vec::new();
        for slot in 0..meta.slots.len() as u16 {
            for copy in meta.slot_replicas(slot).unwrap() {
                let ufs = p2.machine().ufs(copy.ion);
                let len = ufs.size(copy.inode).unwrap();
                // A file smaller than one stripe row leaves slots empty.
                if len == 0 {
                    copies.push(Vec::new());
                    continue;
                }
                copies.push(
                    ufs.read_direct(copy.inode, 0, len as u32)
                        .await
                        .unwrap()
                        .to_vec(),
                );
            }
        }
        (file, copies)
    });
    sim.run();
    let (file, copies) = h.try_take().expect("read-back finished");
    (hash_events(&sim.tracer().events()), file, copies)
}

#[test]
fn populate_pattern_is_populate_with_pattern_byte() {
    let redundancies = [
        Redundancy::None,
        Redundancy::ParityRaid,
        Redundancy::Replicated { rf: 2 },
    ];
    for su in [16 * KB, 64 * KB, 256 * KB] {
        // Ten whole units and a clipped eleventh.
        let size = 10 * su + 12_345;
        for redundancy in redundancies {
            let what = format!("su {su}, {redundancy:?}");
            let (hash_p, file_p, copies_p) = populate_and_read(su, size, redundancy, Fill::Pattern);
            let (hash_m, file_m, copies_m) =
                populate_and_read(su, size, redundancy, Fill::Materialized);
            assert_eq!(hash_p, hash_m, "trace diverged: {what}");
            assert!(file_p == file_m, "file bytes differ: {what}");
            assert!(pattern_matches(SEED, 0, &file_p), "wrong bytes: {what}");
            assert_eq!(file_p.len() as u64, size);
            assert!(copies_p == copies_m, "slot-file bytes differ: {what}");
            let rf = redundancy.replication_factor();
            assert_eq!(copies_p.len(), 3 * rf, "{what}");
        }
    }
}

/// `populate_with` fills in fixed-size blocks: every byte must still be
/// `fill(i)`, whatever the fill, at sizes that end mid-block, mid-unit and
/// inside the first block, on every copy of every slot.
#[test]
fn populate_with_is_byte_exact_for_any_fill() {
    for su in [16 * KB, 64 * KB] {
        for size in [7, 3 * su + 1, 10 * su + 12_345] {
            for redundancy in [Redundancy::None, Redundancy::Replicated { rf: 2 }] {
                let what = format!("su {su}, size {size}, {redundancy:?}");
                let (_, file, copies) = populate_and_read(su, size, redundancy, Fill::Scrambled);
                assert_eq!(file.len() as u64, size, "{what}");
                let wrong = (0..size).find(|&i| file[i as usize] != scrambled(i));
                assert_eq!(wrong, None, "first wrong byte: {what}");
                // Every copy of a slot holds the primary's bytes.
                let rf = redundancy.replication_factor();
                assert_eq!(copies.len(), 3 * rf, "{what}");
                for slot in copies.chunks(rf) {
                    assert!(
                        slot.iter().all(|c| *c == slot[0]),
                        "replicas differ: {what}"
                    );
                }
            }
        }
    }
}

#[test]
fn unaligned_write_inside_a_pattern_page_reads_back() {
    let sim = Sim::new(6);
    let pfs = mount(&sim, 4, Redundancy::None);
    let p2 = pfs.clone();
    let h = sim.spawn(async move {
        let id = p2
            .create("/pfs/rw", StripeAttrs::across(3, 64 * KB))
            .await
            .unwrap();
        let size = 1 << 20;
        p2.populate_pattern(id, size, SEED).await.unwrap();
        let resident = |pfs: &ParallelFs| -> usize {
            (0..4).map(|i| pfs.machine().raid(i).resident_pages()).sum()
        };
        assert_eq!(resident(&p2), 0);
        let f = p2
            .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap();
        // 100 bytes in the middle of slot 1's first page.
        let at = 64 * KB + 20_001;
        let new: Vec<u8> = (0..100u8).map(|b| b.wrapping_mul(7) ^ 0x5a).collect();
        f.write_at(at, Bytes::from(new.clone())).await.unwrap();
        // Only that one page was materialized.
        assert_eq!(resident(&p2), 1);
        let (lo, hi) = (at - 30_000, at + 100 + 30_000);
        let back = f.transfer_read(lo, (hi - lo) as u32).await.unwrap();
        let k = (at - lo) as usize;
        assert_eq!(&back[k..k + 100], &new[..]);
        assert!(pattern_matches(SEED, lo, &back[..k]));
        assert!(pattern_matches(SEED, at + 100, &back[k + 100..]));
        // And the rest of the file is untouched.
        let whole = read_all(&f, size, 64 * KB).await;
        let mut expect = pattern_slice(SEED, 0, size as usize).to_vec();
        expect[at as usize..at as usize + 100].copy_from_slice(&new);
        whole == expect
    });
    sim.run();
    assert_eq!(h.try_take(), Some(true));
}

/// The footprint gate: a quarter-gigabyte pattern file read back in full
/// (and checked byte for byte) never materializes a single page.
#[test]
fn pattern_file_stays_virtual_through_a_verified_read_pass() {
    const SIZE: u64 = 256 << 20;
    const IONS: usize = 8;
    let sim = Sim::new(7);
    let machine = Rc::new(Machine::new(
        &sim,
        MachineConfig {
            compute_nodes: 1,
            io_nodes: IONS,
            calib: Calibration::instant(),
        },
    ));
    let pfs = ParallelFs::new(machine.clone());
    let h = sim.spawn(async move {
        let id = pfs
            .create("/pfs/big", StripeAttrs::across(IONS, 64 * KB))
            .await
            .unwrap();
        pfs.populate_pattern(id, SIZE, SEED).await.unwrap();
        let f = pfs
            .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
            .unwrap();
        let step = 1 << 20;
        let mut ok = true;
        for at in (0..SIZE).step_by(step) {
            let data = f.transfer_read(at, step as u32).await.unwrap();
            ok &= data.len() == step && pattern_matches(SEED, at, &data);
        }
        ok
    });
    sim.run();
    assert_eq!(h.try_take(), Some(true), "verified read pass");
    for i in 0..IONS {
        let raid = machine.raid(i);
        assert_eq!(raid.resident_pages(), 0, "array {i} materialized pages");
        assert_eq!(
            raid.pattern_pages() as u64,
            SIZE / IONS as u64 / (64 * KB),
            "array {i} pattern pages"
        );
    }
}

//! The deterministic test pattern every experiment file is filled with,
//! and the slot-file layout that lets the store keep it virtual.
//!
//! Byte `i` of a pattern file with `seed` is `pattern_byte(seed, i)`: a
//! pure function of `(seed, offset)`, so the bytes never need to be
//! stored. [`pattern_fill`] is the bulk kernel (byte-identical to the
//! scalar reference); a [`PatternLayout`] maps a stripe slot file's
//! offsets back to file offsets so the disk store can synthesize any
//! range of a populated slot on read.

use bytes::{Bytes, BytesMut};

const OFFSET_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_MUL: u64 = 0xd134_2543_de82_ef95;

/// Deterministic file content used throughout tests and experiments:
/// byte `i` of a file with `seed` is `pattern_byte(seed, i)`. The scalar
/// reference of [`pattern_fill`].
pub fn pattern_byte(seed: u64, offset: u64) -> u8 {
    let x = offset
        .wrapping_mul(OFFSET_MUL)
        .wrapping_add(seed.wrapping_mul(SEED_MUL));
    ((x >> 32) ^ x) as u8
}

/// Lanes of [`pattern_fill`]: the generator state of consecutive bytes
/// differs by a constant, so eight independent lanes each step by eight
/// times it and the loop vectorizes.
const LANES: usize = 8;

/// Fill `out` with pattern bytes `[offset, offset + out.len())` of the
/// file with `seed` (offsets wrap at `u64::MAX`, like
/// `offset.wrapping_add(j)`). Byte-identical to [`pattern_byte`].
// paragon-lint: allow(P1) — `&mut [u8]` is a slice type, not an index
pub fn pattern_fill(seed: u64, offset: u64, out: &mut [u8]) {
    let base = offset
        .wrapping_mul(OFFSET_MUL)
        .wrapping_add(seed.wrapping_mul(SEED_MUL));
    let mut x = [0u64; LANES];
    for (j, lane) in x.iter_mut().enumerate() {
        *lane = base.wrapping_add((j as u64).wrapping_mul(OFFSET_MUL));
    }
    let step = OFFSET_MUL.wrapping_mul(LANES as u64);
    let mut chunks = out.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for (b, lane) in chunk.iter_mut().zip(x.iter_mut()) {
            *b = ((*lane >> 32) ^ *lane) as u8;
            *lane = lane.wrapping_add(step);
        }
    }
    for (b, lane) in chunks.into_remainder().iter_mut().zip(x.iter()) {
        *b = ((*lane >> 32) ^ *lane) as u8;
    }
}

/// Materialize `[offset, offset + len)` of the pattern file (what a read
/// should return).
pub fn pattern_slice(seed: u64, offset: u64, len: usize) -> Bytes {
    let mut buf = BytesMut::zeroed(len);
    pattern_fill(seed, offset, &mut buf);
    buf.freeze()
}

/// True when `data` is exactly `[offset, offset + data.len())` of the
/// pattern file with `seed`. Compares against the kernel a chunk at a
/// time, so checking a read allocates nothing.
pub fn pattern_matches(seed: u64, offset: u64, data: &[u8]) -> bool {
    const CHUNK: usize = 4096;
    let mut expect = [0u8; CHUNK];
    let mut at = offset;
    for chunk in data.chunks(CHUNK) {
        let expect = &mut expect[..chunk.len()];
        pattern_fill(seed, at, expect);
        if chunk != &expect[..] {
            return false;
        }
        at = at.wrapping_add(CHUNK as u64);
    }
    true
}

/// Where one stripe slot file of a pattern file sits in that file: slot
/// `slot` of a file striped over `factor` slots in `stripe_unit`-byte
/// units holds units `slot, slot + factor, slot + 2 * factor, ...`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternLayout {
    /// Pattern seed of the file.
    pub seed: u64,
    /// Stripe unit in bytes (nonzero).
    pub stripe_unit: u64,
    /// Stripe factor (slots per row).
    pub factor: u64,
    /// This slot's index in the stripe group.
    pub slot: u64,
}

impl PatternLayout {
    /// File offset of slot-file offset `at`.
    fn file_offset(&self, at: u64) -> u64 {
        let su = self.stripe_unit;
        ((at / su) * self.factor + self.slot) * su + at % su
    }

    /// Fill `out` with slot-file bytes `[at, at + out.len())`: one
    /// kernel call per stripe unit the range touches.
    // paragon-lint: allow(P1) — `&mut [u8]` is a slice type, not an index
    pub fn fill(&self, at: u64, out: &mut [u8]) {
        let mut pos = at;
        let mut rest = out;
        while !rest.is_empty() {
            let in_unit = self.stripe_unit - pos % self.stripe_unit;
            let n = in_unit.min(rest.len() as u64) as usize;
            let (head, tail) = rest.split_at_mut(n);
            pattern_fill(self.seed, self.file_offset(pos), head);
            pos += n as u64;
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_matches_the_scalar_reference() {
        let offsets = [0u64, 65_535, 1 << 40, u64::MAX - 3];
        for &len in &[0usize, 1, 7, 8, 9, 63, 65_536] {
            for &offset in &offsets {
                for seed in [0u64, 7, u64::MAX] {
                    let mut out = vec![0xa5u8; len];
                    pattern_fill(seed, offset, &mut out);
                    for (j, &b) in out.iter().enumerate() {
                        let expect = pattern_byte(seed, offset.wrapping_add(j as u64));
                        assert_eq!(b, expect, "seed {seed} offset {offset} len {len} byte {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn slice_and_matches_agree_with_the_reference() {
        let s = pattern_slice(5, 100, 50);
        for i in 0..50u64 {
            assert_eq!(s[i as usize], pattern_byte(5, 100 + i));
        }
        let long = pattern_slice(9, 12_345, 10_000);
        assert!(pattern_matches(9, 12_345, &long));
        assert!(pattern_matches(9, 0, &[]));
        assert!(!pattern_matches(9, 12_346, &long));
        for wrong in [0usize, 4095, 4096, 9_999] {
            let mut bad = long.to_vec();
            bad[wrong] ^= 1;
            assert!(!pattern_matches(9, 12_345, &bad), "flip at {wrong}");
        }
    }

    #[test]
    fn layout_maps_slot_offsets_to_file_offsets() {
        let l = PatternLayout {
            seed: 3,
            stripe_unit: 16,
            factor: 3,
            slot: 1,
        };
        // Slot 1 holds units 1, 4, 7, ...: slot byte 0 is file byte 16,
        // slot byte 16 is file byte 64.
        assert_eq!(l.file_offset(0), 16);
        assert_eq!(l.file_offset(15), 31);
        assert_eq!(l.file_offset(16), 64);
        let mut out = vec![0u8; 50];
        l.fill(5, &mut out);
        for (j, &b) in out.iter().enumerate() {
            assert_eq!(b, pattern_byte(3, l.file_offset(5 + j as u64)));
        }
    }
}

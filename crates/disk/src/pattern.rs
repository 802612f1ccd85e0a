//! The deterministic test pattern every experiment file is filled with,
//! and the slot-file layout that lets the store keep it virtual.
//!
//! Byte `i` of a pattern file with `seed` is `pattern_byte(seed, i)`: a
//! pure function of `(seed, offset)`, so the bytes never need to be
//! stored. [`pattern_fill`] and [`pattern_matches`] run one generator of
//! 16-byte blocks (SSE2 on x86_64, portable lanes elsewhere),
//! byte-identical to the scalar reference; a [`PatternLayout`] maps a
//! stripe slot file's offsets back to file offsets so the disk store can
//! synthesize any range of a populated slot on read.

use bytes::{Bytes, BytesMut};

const OFFSET_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_MUL: u64 = 0xd134_2543_de82_ef95;

/// Deterministic file content used throughout tests and experiments:
/// byte `i` of a file with `seed` is `pattern_byte(seed, i)`. The scalar
/// reference of [`pattern_fill`].
pub fn pattern_byte(seed: u64, offset: u64) -> u8 {
    let x = state(seed, offset);
    ((x >> 32) ^ x) as u8
}

/// Generator state of file byte `offset`: byte `i` of the file is
/// `(x ^ x >> 32) as u8` of the state of offset `i`, and the states of
/// consecutive bytes differ by `OFFSET_MUL`.
fn state(seed: u64, offset: u64) -> u64 {
    offset
        .wrapping_mul(OFFSET_MUL)
        .wrapping_add(seed.wrapping_mul(SEED_MUL))
}

/// Bytes per generator step: both kernels produce the pattern in
/// 16-byte blocks.
const BLOCK: usize = 16;

#[cfg(not(target_arch = "x86_64"))]
use lanes as native;
/// The kernel this target runs.
#[cfg(target_arch = "x86_64")]
use sse2 as native;

/// The portable kernel: sixteen independent `u64` lanes, each stepping
/// by sixteen times `OFFSET_MUL`, so the loop vectorizes on any target.
/// On x86_64 only the tests run it, against the SSE2 kernel.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
mod lanes {
    use super::{state, BLOCK, OFFSET_MUL};

    struct Lanes([u64; BLOCK]);

    impl Lanes {
        fn new(seed: u64, offset: u64) -> Lanes {
            let base = state(seed, offset);
            let mut x = [0u64; BLOCK];
            for (j, lane) in (0u64..).zip(x.iter_mut()) {
                *lane = base.wrapping_add(j.wrapping_mul(OFFSET_MUL));
            }
            Lanes(x)
        }

        fn next_block(&mut self) -> [u8; BLOCK] {
            let step = OFFSET_MUL.wrapping_mul(BLOCK as u64);
            let mut out = [0u8; BLOCK];
            for (b, lane) in out.iter_mut().zip(self.0.iter_mut()) {
                *b = ((*lane >> 32) ^ *lane) as u8;
                *lane = lane.wrapping_add(step);
            }
            out
        }
    }

    pub(super) fn fill(seed: u64, offset: u64, out: &mut [u8]) {
        let mut gen = Lanes::new(seed, offset);
        for chunk in out.chunks_mut(BLOCK) {
            chunk.copy_from_slice(&gen.next_block()[..chunk.len()]);
        }
    }

    pub(super) fn matches(seed: u64, offset: u64, data: &[u8]) -> bool {
        let mut gen = Lanes::new(seed, offset);
        data.chunks(BLOCK)
            .all(|chunk| *chunk == gen.next_block()[..chunk.len()])
    }
}

/// The SSE2 split-carry kernel. A pattern byte is `(x ^ x >> 32) as u8`
/// of its generator state `x`, so it depends only on `x` modulo 2^40.
/// Each of 16 lanes (16 consecutive bytes, stepping by 16 times
/// `OFFSET_MUL`) keeps three pieces of its state:
///
/// * bits 0..32 in a 32-bit lane, sign-flipped (`^ 0x8000_0000`), which
///   turns the unsigned carry out of `lo + step` into one signed
///   compare (`pcmpgtd`): a lane carried exactly when its old value is
///   greater than its new one;
/// * bits 0..8 in a byte lane, which steps with `paddb` alone (no carry
///   reaches bit 0);
/// * bits 32..40 in a byte lane, which adds the step's byte (`paddb`)
///   and the carry: the four compare masks pack (`packssdw`,
///   `packsswb`) into one byte mask of -1 per carry, and `psubb`
///   subtracts it.
///
/// A block is the low bytes XOR the high bytes: 16 bytes per step.
///
/// SSE2 is part of the x86_64 baseline, so there is no runtime
/// detection. The loops still carry `#[target_feature]`, because only
/// code compiled under that attribute may call the intrinsics safely;
/// `fill` and `matches` are the safe entry points.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_add_epi8, _mm_cmpeq_epi8, _mm_cmpgt_epi32, _mm_loadu_si128,
        _mm_movemask_epi8, _mm_packs_epi16, _mm_packs_epi32, _mm_set1_epi32, _mm_set1_epi8,
        _mm_set_epi32, _mm_set_epi64x, _mm_storeu_si128, _mm_sub_epi8, _mm_xor_si128,
    };

    use super::{state, BLOCK, OFFSET_MUL};

    const FLIP: u32 = 0x8000_0000;

    struct Sse2 {
        /// Bits 0..32 of the states of lanes `4r..4r + 4`, sign-flipped.
        lo: [__m128i; 4],
        /// Bits 0..8 of the state of lane `j`, in byte `j`.
        low: __m128i,
        /// Bits 32..40 of the state of lane `j`, in byte `j`.
        hi: __m128i,
        step_lo: __m128i,
        step_low: __m128i,
        step_hi: __m128i,
    }

    impl Sse2 {
        #[target_feature(enable = "sse2")]
        fn new(seed: u64, offset: u64) -> Sse2 {
            let base = state(seed, offset);
            let lane = |j: u64| base.wrapping_add(j.wrapping_mul(OFFSET_MUL));
            let lo = |j: u64| (lane(j) as u32 ^ FLIP) as i32;
            let bytes = |shift: u32| {
                let mut b = [0u8; BLOCK];
                for (j, b) in (0u64..).zip(b.iter_mut()) {
                    *b = (lane(j) >> shift) as u8;
                }
                let b = u128::from_le_bytes(b);
                _mm_set_epi64x((b >> 64) as i64, b as i64)
            };
            let step = OFFSET_MUL.wrapping_mul(BLOCK as u64);
            Sse2 {
                lo: [
                    _mm_set_epi32(lo(3), lo(2), lo(1), lo(0)),
                    _mm_set_epi32(lo(7), lo(6), lo(5), lo(4)),
                    _mm_set_epi32(lo(11), lo(10), lo(9), lo(8)),
                    _mm_set_epi32(lo(15), lo(14), lo(13), lo(12)),
                ],
                low: bytes(0),
                hi: bytes(32),
                step_lo: _mm_set1_epi32(step as u32 as i32),
                step_low: _mm_set1_epi8(step as u8 as i8),
                step_hi: _mm_set1_epi8((step >> 32) as u8 as i8),
            }
        }

        /// The next 16 pattern bytes.
        #[target_feature(enable = "sse2")]
        #[inline]
        fn next_block(&mut self) -> __m128i {
            let out = _mm_xor_si128(self.low, self.hi);
            let [l0, l1, l2, l3] = self.lo;
            let [n0, n1, n2, n3] = self.lo.map(|l| _mm_add_epi32(l, self.step_lo));
            let carry = _mm_packs_epi16(
                _mm_packs_epi32(_mm_cmpgt_epi32(l0, n0), _mm_cmpgt_epi32(l1, n1)),
                _mm_packs_epi32(_mm_cmpgt_epi32(l2, n2), _mm_cmpgt_epi32(l3, n3)),
            );
            self.lo = [n0, n1, n2, n3];
            self.low = _mm_add_epi8(self.low, self.step_low);
            self.hi = _mm_sub_epi8(_mm_add_epi8(self.hi, self.step_hi), carry);
            out
        }
    }

    #[target_feature(enable = "sse2")]
    #[inline]
    fn to_array(block: __m128i) -> [u8; BLOCK] {
        let mut out = [0u8; BLOCK];
        // SAFETY: `out` is 16 writable bytes and `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), block) };
        out
    }

    pub(super) fn fill(seed: u64, offset: u64, out: &mut [u8]) {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { fill_sse2(seed, offset, out) }
    }

    pub(super) fn matches(seed: u64, offset: u64, data: &[u8]) -> bool {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { matches_sse2(seed, offset, data) }
    }

    #[target_feature(enable = "sse2")]
    fn fill_sse2(seed: u64, offset: u64, out: &mut [u8]) {
        let mut gen = Sse2::new(seed, offset);
        let mut blocks = out.chunks_exact_mut(BLOCK);
        for block in &mut blocks {
            // SAFETY: `block` is 16 writable bytes and `storeu` has no
            // alignment requirement.
            unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), gen.next_block()) };
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            tail.copy_from_slice(&to_array(gen.next_block())[..tail.len()]);
        }
    }

    #[target_feature(enable = "sse2")]
    fn matches_sse2(seed: u64, offset: u64, data: &[u8]) -> bool {
        let mut gen = Sse2::new(seed, offset);
        let mut blocks = data.chunks_exact(BLOCK);
        for block in &mut blocks {
            // SAFETY: `block` is 16 readable bytes and `loadu` has no
            // alignment requirement.
            let have = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
            if _mm_movemask_epi8(_mm_cmpeq_epi8(have, gen.next_block())) != 0xffff {
                return false;
            }
        }
        let tail = blocks.remainder();
        tail.is_empty() || *tail == to_array(gen.next_block())[..tail.len()]
    }
}

/// Fill `out` with pattern bytes `[offset, offset + out.len())` of the
/// file with `seed` (offsets wrap at `u64::MAX`, like
/// `offset.wrapping_add(j)`). Byte-identical to [`pattern_byte`].
pub fn pattern_fill(seed: u64, offset: u64, out: &mut [u8]) {
    native::fill(seed, offset, out)
}

/// Materialize `[offset, offset + len)` of the pattern file (what a read
/// should return).
pub fn pattern_slice(seed: u64, offset: u64, len: usize) -> Bytes {
    let mut buf = BytesMut::zeroed(len);
    pattern_fill(seed, offset, &mut buf);
    buf.freeze()
}

/// True when `data` is exactly `[offset, offset + data.len())` of the
/// pattern file with `seed`. Runs the generator alongside `data` a block
/// at a time and stops at the first mismatch; allocates nothing.
pub fn pattern_matches(seed: u64, offset: u64, data: &[u8]) -> bool {
    native::matches(seed, offset, data)
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

    type Fill = fn(u64, u64, &mut [u8]);
    type Matches = fn(u64, u64, &[u8]) -> bool;

    /// Every kernel compiled for this target: the native one (SSE2 on
    /// x86_64) and the portable lanes, which x86_64 builds only test.
    const KERNELS: [(&str, Fill, Matches); 2] = [
        ("native", pattern_fill, pattern_matches),
        ("lanes", lanes::fill, lanes::matches),
    ];

    /// The offset whose generator state under `seed` is exactly `x`
    /// (`OFFSET_MUL` is odd, so it is invertible modulo 2^64).
    fn offset_of_state(seed: u64, x: u64) -> u64 {
        let mut inv = OFFSET_MUL;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(OFFSET_MUL.wrapping_mul(inv)));
        }
        x.wrapping_sub(seed.wrapping_mul(SEED_MUL))
            .wrapping_mul(inv)
    }

    /// Offsets that put the kernel's split carry at its edges: lane 0 or
    /// lane 15 starts where its first 16-byte step carries into bit 32
    /// exactly (low half lands on 0) or just does not (lands on
    /// `u32::MAX`), or where the sign-flipped low half crosses its sign
    /// bit.
    fn carry_offsets(seed: u64) -> Vec<u64> {
        let step = OFFSET_MUL.wrapping_mul(BLOCK as u64) & 0xffff_ffff;
        let edges = [1 << 32, (1 << 32) - 1, 1 << 31, (1 << 31) - 1];
        let mut out = Vec::new();
        for lo in edges.map(|e: u64| e.wrapping_sub(step) & 0xffff_ffff) {
            let at = offset_of_state(seed, (0x5a << 32) | lo);
            out.extend([at, at.wrapping_sub(15)]);
        }
        out
    }

    #[test]
    fn kernels_match_the_scalar_reference() {
        let lens = (0..=64).chain([65_541]);
        for seed in [0u64, 7, u64::MAX] {
            let mut offsets = vec![0u64, 65_535, 1 << 40, u64::MAX - 3, u64::MAX - 40];
            offsets.extend(carry_offsets(seed));
            for len in lens.clone() {
                for &offset in &offsets {
                    let expect: Vec<u8> = (0..len as u64)
                        .map(|j| pattern_byte(seed, offset.wrapping_add(j)))
                        .collect();
                    for (name, fill, matches) in KERNELS {
                        let mut out = vec![0xa5u8; len];
                        fill(seed, offset, &mut out);
                        assert_eq!(out, expect, "{name} seed {seed} offset {offset} len {len}");
                        assert!(
                            matches(seed, offset, &expect),
                            "{name} {seed} {offset} {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn carry_offsets_hit_the_edges() {
        let step = OFFSET_MUL.wrapping_mul(BLOCK as u64);
        for seed in [0u64, 7, u64::MAX] {
            let at = carry_offsets(seed)[0];
            assert_eq!(state(seed, at) >> 32 & 0xff, 0x5a);
            assert_eq!(state(seed, at).wrapping_add(step) as u32, 0);
            let hi = (0x5a + 1 + (step >> 32)) & 0xff;
            assert_eq!(state(seed, at.wrapping_add(16)) >> 32 & 0xff, hi);
        }
    }

    #[test]
    fn matches_rejects_any_single_flipped_byte() {
        for len in 0..=64usize {
            let good = pattern_slice(7, 1_000_003, len);
            for (name, _, matches) in KERNELS {
                assert!(matches(7, 1_000_003, &good), "{name} len {len}");
                for at in 0..len {
                    let mut bad = good.to_vec();
                    bad[at] ^= 0x10;
                    assert!(
                        !matches(7, 1_000_003, &bad),
                        "{name} len {len} flip at {at}"
                    );
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

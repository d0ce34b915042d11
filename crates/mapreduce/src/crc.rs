//! CRC-32 (IEEE 802.3 polynomial, reflected): the check on every SMOF
//! encode and open, every spill read-back and every keyblock frame.
//!
//! On x86_64 hosts with carry-less multiply, a buffer of at least
//! [`FOLD_MIN`] bytes is folded 16 bytes at a time with PCLMULQDQ
//! (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ Instruction"; the scheme of zlib's and Linux's
//! crc32-pclmul): four 128-bit accumulators over 64-byte blocks, then
//! one over the remaining 16-byte blocks, then a 128 → 64-bit fold and
//! a Barrett reduction back to the 32-bit register. The fewer than 16
//! bytes past the last block, every short buffer and every other host
//! take one slice-by-8 lane. Both paths start from and return the
//! running (inverted) register, so the digests are the classic
//! byte-at-a-time form's wherever [`crc32_parts`] cuts its input.

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// CRC-32 of `parts` concatenated, without concatenating them.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0, |crc, part| update(crc, part))
}

/// The CRC-32 of a message, from its CRC `crc` before `delta` was
/// XORed into its bytes that end `trailing` bytes before its end, and
/// without reading the message. The CRC is affine in the message
/// bytes, so the change is the CRC register of `delta` alone, from
/// zero, carried over `trailing` zero bytes: a multiply by
/// `x^(8·trailing) mod P`. A CRC that did not match the message before
/// does not match it after.
pub fn crc32_amend(crc: u32, delta: &[u8], trailing: usize) -> u32 {
    let register = update(0, delta).reverse_bits();
    crc ^ mul_mod_p(register, x_pow_mod_p(8 * trailing as u64)).reverse_bits()
}

/// The normal (unreflected) form of `P`, its `x^32` term implied.
const POLY_NORMAL: u32 = 0x04C1_1DB7;

/// `a · b mod P` in the normal bit order.
fn mul_mod_p(a: u32, b: u32) -> u32 {
    (0..32).rev().fold(0u32, |r, i| {
        let r = (r << 1) ^ if r >> 31 != 0 { POLY_NORMAL } else { 0 };
        if a >> i & 1 != 0 {
            r ^ b
        } else {
            r
        }
    })
}

/// `x^n mod P` in the normal bit order, by squaring.
fn x_pow_mod_p(mut n: u64) -> u32 {
    let (mut result, mut square) = (1u32, 2u32);
    while n > 0 {
        if n & 1 != 0 {
            result = mul_mod_p(result, square);
        }
        square = mul_mod_p(square, square);
        n >>= 1;
    }
    result
}

/// Buffers shorter than this take the slice-by-8 lane even where the
/// folding path is available: below it, the fold's fixed cost (its
/// setup and the final reduction) outweighs what it saves.
const FOLD_MIN: usize = 128;

/// Feeds `bytes` into a running (inverted) CRC-32 register.
fn update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN && clmul::available() {
        // SAFETY: `available` has just confirmed that this CPU
        // supports the `pclmulqdq` and `sse4.1` features `fold` is
        // compiled for.
        return unsafe { clmul::fold(crc, bytes) };
    }
    slice8(crc, bytes)
}

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The portable lane: eight lookup tables consume 8 input bytes per
/// step, with a byte-at-a-time tail.
fn slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let c: &[u8; 8] = c.try_into().expect("8-byte chunk");
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            let (done, rest) = t.split_at_mut(k);
            let (t0, prev) = (&done[0], &done[k - 1]);
            for (slot, &p) in rest[0].iter_mut().zip(prev.iter()) {
                *slot = t0[(p & 0xFF) as usize] ^ (p >> 8);
            }
        }
        t
    })
}

/// The carry-less-multiply path. Every constant is a power of `x`
/// modulo `P`, bit-reflected to 32 bits and shifted left by one (the
/// `'` and `<< 1` of the paper), except `P_X`, which is `P` itself
/// reflected to 33 bits, and `MU`, the reflected quotient
/// `⌊x^64 / P⌋`. Reflected, the lower 64-bit half of an accumulator is
/// the earlier one in the stream.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold by 4 (512 bits ahead): `x^(4·128+32)`, `x^(4·128−32)`.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// Fold by 1 (128 bits ahead): `x^(128+32)`, `x^(128−32)`.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// 96 → 64 bits: `x^64`.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    pub(super) const P_X: i64 = 0x1_DB71_0641;
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU has what [`fold`] is compiled for. The std
    /// macro caches its probe, so this is one load after the first
    /// call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Feeds `bytes` into the running (inverted) register `crc`, any
    /// length: whole 16-byte blocks fold, the rest goes through the
    /// slice-by-8 lane.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        let (body, tail) = bytes.split_at(bytes.len() / 16 * 16);
        if body.is_empty() {
            return super::slice8(crc, bytes);
        }
        let (first, mut rest) = body.split_at(16);
        let mut x = _mm_xor_si128(load(first), _mm_cvtsi32_si128(crc as i32));
        let k3k4 = _mm_set_epi64x(K4, K3);
        if rest.len() >= 48 {
            let (head, blocks) = rest.split_at(48);
            let mut acc = [x, load(&head[..16]), load(&head[16..32]), load(&head[32..])];
            let k1k2 = _mm_set_epi64x(K2, K1);
            let mut quads = blocks.chunks_exact(64);
            for quad in &mut quads {
                for (a, lane) in acc.iter_mut().zip(quad.chunks_exact(16)) {
                    *a = fold_into(*a, k1k2, load(lane));
                }
            }
            rest = quads.remainder();
            x = acc[0];
            for &a in &acc[1..] {
                x = fold_into(x, k3k4, a);
            }
        }
        for block in rest.chunks_exact(16) {
            x = fold_into(x, k3k4, load(block));
        }
        super::slice8(reduce(x), tail)
    }

    /// `acc` moved 128 bits ahead and added to `data`: its low half
    /// times `k`'s low constant, its high half times `k`'s high one.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, k: __m128i, data: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    }

    /// The 32-bit register a 128-bit accumulator leaves once 32 zero
    /// bits have followed it: 128 → 96 by `K4`, 96 → 64 by `K5`, then
    /// Barrett's `MU` and `P_X` take the remainder.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(x: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x00>(x, _mm_set_epi64x(0, K4)),
        );
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        );
        let q = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, MU));
        let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), _mm_set_epi64x(0, P_X));
        _mm_extract_epi32::<1>(_mm_xor_si128(r, x)) as u32
    }

    /// 16 stream bytes as one accumulator, first byte lowest.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(block[..8].try_into().expect("16-byte block"));
        let hi = i64::from_le_bytes(block[8..16].try_into().expect("16-byte block"));
        _mm_set_epi64x(hi, lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Byte-at-a-time reference: the classic one-table form, with no
    /// slice-by-8 step and no carry-less fold, so it pins both paths
    /// to the same digests. From any running register, for random
    /// start states.
    fn update_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let t = &tables()[0];
        bytes
            .iter()
            .fold(crc, |c, &b| t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
    }

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !update_bytewise(!0, bytes)
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::SplitMix64::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// A register update: the running register in, the new one out.
    type Update = fn(u32, &[u8]) -> u32;

    /// Every path that can update a register on this host, each called
    /// directly, whatever its length threshold in [`update`].
    fn paths() -> Vec<(&'static str, Update)> {
        let mut paths: Vec<(&'static str, Update)> = vec![("slice8", slice8)];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available` confirmed the CPU features `fold` is
            // compiled for.
            paths.push(("fold", |crc, bytes| unsafe { clmul::fold(crc, bytes) }));
        }
        paths
    }

    #[test]
    fn each_path_matches_bytewise_at_every_length_and_start_state() {
        // Every length to 300 (every tail shape of both paths), and
        // one either side of each multiple of 16 and of 64 up to
        // 4 KiB, around the fold-by-1 and fold-by-4 loops; each from
        // the initial register and from a random one.
        let data = random_bytes(64 * 64 + 1, 0x51D2);
        let lens = (0..=300).chain((1..=256).flat_map(|k| [16 * k - 1, 16 * k + 1]));
        let lens: Vec<usize> = lens
            .chain((1..=64).flat_map(|k| [64 * k - 1, 64 * k + 1]))
            .collect();
        let mut rng = rand::SplitMix64::seed_from_u64(0xC1C1);
        for (name, path) in paths() {
            for &len in &lens {
                let bytes = &data[..len];
                assert_eq!(!path(!0, bytes), crc32_bytewise(bytes), "{name}, len {len}");
                let start = rng.next_u64() as u32;
                assert_eq!(
                    path(start, bytes),
                    update_bytewise(start, bytes),
                    "{name}, len {len}, start {start:#010x}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bytewise_around_the_fold_threshold() {
        let data = random_bytes(3 << 20, 0x4C41_4E45);
        let lens = (FOLD_MIN - 17..=FOLD_MIN + 17).chain([700_000, data.len() - 7, data.len()]);
        for len in lens {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn crc32_parts_cut_anywhere_equal_whole_digest() {
        // Every cut of a short buffer, so either side may be below
        // the fold threshold, and cuts at 4 KiB ± 1 of a long one.
        let data = random_bytes(10_013, 0xB0DA);
        for (len, cuts) in [(200, 0..=200), (data.len(), 4095..=4097)] {
            let buf = &data[..len];
            let whole = crc32_bytewise(buf);
            for cut in cuts {
                let (head, tail) = buf.split_at(cut);
                assert_eq!(crc32_parts(&[head, tail]), whole, "len {len}, cut at {cut}");
            }
        }
    }

    /// `x^n mod P` by squaring is `x` multiplied in `n` times.
    #[test]
    fn x_pow_mod_p_is_repeated_multiplication() {
        let mut by_steps = 1u32;
        for n in 0..=1100 {
            assert_eq!(x_pow_mod_p(n), by_steps, "x^{n}");
            by_steps = (by_steps << 1) ^ if by_steps >> 31 != 0 { POLY_NORMAL } else { 0 };
        }
    }

    /// Amending a CRC for a changed run of bytes gives the changed
    /// message's CRC, wherever the run sits and whatever its length.
    #[test]
    fn amended_crc_equals_the_recomputed_one() {
        let data = random_bytes(5000, 0xA3E4);
        let mut rng = rand::SplitMix64::seed_from_u64(0xD17A);
        for (at, len) in [(0, 32), (0, 1), (7, 9), (100, 300), (4990, 10), (0, 5000)] {
            let mut changed = data.clone();
            let delta: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            for (b, d) in changed[at..at + len].iter_mut().zip(&delta) {
                *b ^= d;
            }
            let trailing = data.len() - at - len;
            assert_eq!(
                crc32_amend(crc32(&data), &delta, trailing),
                crc32(&changed),
                "{len} bytes at {at}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        let k = |n: u64| (x_pow_mod_p(n).reverse_bits() as i64) << 1;
        assert_eq!(
            [clmul::K1, clmul::K2, clmul::K3, clmul::K4, clmul::K5],
            [
                k(4 * 128 + 32),
                k(4 * 128 - 32),
                k(128 + 32),
                k(128 - 32),
                k(64)
            ]
        );
        assert_eq!(clmul::P_X, ((POLY as i64) << 1) | 1);
        // ⌊x^64 / P⌋ by long division, then reflected to 33 bits.
        let p = 0x1_04C1_1DB7u128;
        let (mut rem, mut quot) = (1u128 << 64, 0u128);
        for bit in (0..=32).rev() {
            if rem >> (bit + 32) & 1 != 0 {
                rem ^= p << bit;
                quot |= 1 << bit;
            }
        }
        assert_eq!(clmul::MU, ((quot as u64).reverse_bits() >> 31) as i64);
    }
}

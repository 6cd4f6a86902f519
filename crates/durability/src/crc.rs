//! CRC-32 (IEEE 802.3 polynomial, reflected) — the checksum guarding
//! every journal record, checkpoint part file, and manifest.
//!
//! It is on the hot path: every record of every group commit passes
//! through it when the record is framed, and again when recovery reads the
//! journal back.  Slice-by-8, hand-rolled (the build is offline, and the
//! loop is small): eight 256-entry tables, generated at compile time, fold
//! eight input bytes per step with eight independent table loads instead
//! of a chain of eight dependent ones.  Same polynomial, init and final
//! xor as the bytewise table loop, so every checksum on disk is unchanged.

/// Reflected polynomial of CRC-32/ISO-HDLC (zlib, gzip, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so one step can advance eight bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32 of `data` (init `!0`, final xor `!0` — the standard variant).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let (lo, hi) = word.split_at(4);
        let lo = c ^ u32::from_le_bytes([lo[0], lo[1], lo[2], lo[3]]);
        let hi = u32::from_le_bytes([hi[0], hi[1], hi[2], hi[3]]);
        c = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        c = t[0][byte(c ^ b as u32, 0)] ^ (c >> 8);
    }
    !c
}

/// The bytewise table loop slice-by-8 replaced: the reference the
/// property test and the journal's golden test compare against.
#[cfg(test)]
pub(crate) fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_known_vectors() {
        // Check values from the CRC catalogue (CRC-32/ISO-HDLC).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"ERIS durability journal record".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() * 8 {
            let mut corrupt = base.clone();
            corrupt[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&corrupt), reference, "flip at bit {i} undetected");
        }
    }

    proptest! {
        #[test]
        fn slice_by_8_matches_the_bytewise_loop(
            bytes in proptest::collection::vec(any::<u8>(), 4096 + 8),
            len in 0usize..=4096,
        ) {
            // At every start alignment: the drawn length, and every length
            // up to two steps, so each split between eight-byte steps and
            // the tail loop is met.
            for start in 0..8 {
                for n in (0..=16).chain([len]) {
                    let data = &bytes[start..start + n];
                    prop_assert_eq!(crc32(data), crc32_bytewise(data), "start {} len {}", start, n);
                }
            }
        }
    }
}

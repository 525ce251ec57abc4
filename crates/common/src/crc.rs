//! CRC-32C (Castagnoli) for media integrity checks.
//!
//! Every durable artifact in the engine — log record frames (checkpoint
//! records among them) and page images — is covered by this checksum so
//! that a bit flip or torn write is *detected* at read time instead of
//! silently decoding into garbage. CRC-32C is the polynomial used by
//! iSCSI, ext4 and InnoDB's redo log (`crc32c`, reflected polynomial
//! `0x82F63B78`); we implement it here as a table-driven software routine
//! so the shims-only build stays dependency-free.

/// Reflected CRC-32C polynomial (Castagnoli).
const POLY: u32 = 0x82F6_3B78;

/// 256-entry lookup table, built at compile time.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32C of `bytes` (init `!0`, final xor `!0` — the standard `crc32c`
/// convention, matching hardware `SSE4.2 crc32` output).
#[inline]
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// Continue a CRC-32C over `bytes`, where `crc` is the finalized checksum of
/// the preceding bytes (pass `0` to start). Lets callers checksum a frame in
/// pieces without concatenating buffers.
#[inline]
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32C check vectors (iSCSI / RFC 3720 appendix B.4).
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn append_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc32c(data);
        for split in 0..data.len() {
            let a = crc32c_append(0, &data[..split]);
            let b = crc32c_append(a, &data[split..]);
            assert_eq!(b, whole, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), clean, "missed flip at {byte}:{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }
}

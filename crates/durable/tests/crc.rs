//! `frame::crc32` is pinned bit for bit to a bytewise CRC-32 (IEEE)
//! kept here: every file and frame on disk, and every frame on a shard
//! pipe, carries the checksum it computes, so a faster loop must give
//! exactly the old value for every length and every start offset.

use proptest::prelude::*;
use spotdc_durable::crc32;

/// The reference: one byte at a time, one bit at a time, reflected
/// polynomial 0xEDB88320 — no tables to share a mistake with.
fn bytewise(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xffff_ffff
}

#[test]
fn known_vectors() {
    let ascending: Vec<u8> = (0..32).collect();
    let vectors: [(&[u8], u32); 6] = [
        (b"", 0),
        (b"123456789", 0xcbf4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414f_a339),
        (&[0u8; 32], 0x190a_55ad),
        (&[0xffu8; 32], 0xff6c_ab0b),
        (&ascending, 0x9126_7e8a),
    ];
    for (data, want) in vectors {
        assert_eq!(crc32(data), want, "{} bytes", data.len());
        assert_eq!(bytewise(data), want, "reference, {} bytes", data.len());
    }
}

/// Every length through four 16-byte blocks and a tail, at every start
/// offset within a block, so unaligned slices are covered.
#[test]
fn every_short_length_at_every_offset() {
    let buf: Vec<u8> = (0u32..96)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    for offset in 0..16 {
        for len in 0..=64 {
            let data = &buf[offset..offset + len];
            assert_eq!(crc32(data), bytewise(data), "offset {offset} len {len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_the_bytewise_reference(
        buf in prop::collection::vec(0u8..=255, 16..=(64 * 1024 + 16)),
        offset in 0usize..16,
    ) {
        let data = &buf[offset..];
        prop_assert_eq!(crc32(data), bytewise(data));
    }
}

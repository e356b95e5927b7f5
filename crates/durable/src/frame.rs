//! Length-prefixed, CRC-checked record framing.
//!
//! A frame is `len: u32 LE | crc: u32 LE | payload: len bytes`, where
//! `crc` is the CRC-32 (IEEE) of the payload. Frames are concatenated
//! into a stream; the reader walks the stream and classifies its tail:
//!
//! * **Clean** — the stream ends exactly at a frame boundary.
//! * **Torn** — the last frame's header or payload is cut short. This is
//!   the expected artifact of a crash mid-append and is silently safe to
//!   truncate.
//! * **Corrupt** — a complete frame whose CRC does not match its
//!   payload, or a length prefix beyond any plausible record size. The
//!   bytes were fully written but are wrong: the storage (or an
//!   injector) lied.
//!
//! Both torn and corrupt tails are truncated on recovery; they are kept
//! distinct so operators can tell a routine crash from data damage.
//!
//! Besides the buffer-oriented [`append_frame`]/[`split_frames`] pair
//! the WAL and checkpoint layers use, [`write_frame`]/[`read_frame`]
//! stream one frame at a time over any `Write`/`Read` — the same bytes
//! on the wire as on disk, which is how the distributed controller ↔
//! agent protocol shares this codec instead of inventing a second one.

use std::io::{self, Read, Write};

/// Upper bound on a single record's payload (1 GiB). A length prefix
/// above this is treated as corruption, not as a real allocation request.
pub const MAX_RECORD_LEN: u32 = 1 << 30;

/// Bytes of framing overhead per record (length + CRC).
pub const HEADER_LEN: usize = 8;

/// Slice-by-16 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC state of byte `b` followed by `k` zero
/// bytes, so one lookup per byte of a 16-byte block folds the block in
/// without a carried dependency between its bytes.
const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut t = 1;
        while t < 16 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            t += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) of `data`, sixteen bytes per step (slice-by-16)
/// with the bytewise loop for the last `len % 16` bytes.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(lo & 0xff) as usize]
            ^ t[14][((lo >> 8) & 0xff) as usize]
            ^ t[13][((lo >> 16) & 0xff) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// How a frame stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The stream ends exactly at a frame boundary.
    Clean,
    /// The final frame is incomplete — a partial write from a crash.
    Torn {
        /// Bytes of the partial frame that will be discarded.
        dropped: u64,
    },
    /// The final frame is complete but its CRC (or length prefix) is
    /// invalid — the bytes on disk are damaged.
    Corrupt {
        /// Bytes from the bad frame to the end of the stream that will
        /// be discarded.
        dropped: u64,
    },
}

/// Appends one framed record to `out`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_RECORD_LEN as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Splits a byte stream into complete, CRC-valid record payloads and a
/// [`Tail`] verdict about how the stream ends.
///
/// Reading stops at the first bad frame: everything after a corrupt
/// record is untrustworthy (the lengths that delimit later frames are
/// themselves suspect), so it is all counted as dropped.
#[must_use]
pub fn split_frames(mut buf: &[u8]) -> (Vec<&[u8]>, Tail) {
    let mut records = Vec::new();
    loop {
        if buf.is_empty() {
            return (records, Tail::Clean);
        }
        if buf.len() < HEADER_LEN {
            return (
                records,
                Tail::Torn {
                    dropped: buf.len() as u64,
                },
            );
        }
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        if len > MAX_RECORD_LEN {
            return (
                records,
                Tail::Corrupt {
                    dropped: buf.len() as u64,
                },
            );
        }
        let want = crc32_from(&buf[4..8]);
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return (
                records,
                Tail::Torn {
                    dropped: buf.len() as u64,
                },
            );
        }
        let payload = &buf[HEADER_LEN..total];
        if crc32(payload) != want {
            return (
                records,
                Tail::Corrupt {
                    dropped: buf.len() as u64,
                },
            );
        }
        records.push(payload);
        buf = &buf[total..];
    }
}

fn crc32_from(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Writes one framed record to a stream, without flushing. The bytes
/// are exactly what [`append_frame`] would have appended.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_RECORD_LEN as usize);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one framed record from a stream.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary). A torn frame (EOF inside a header or payload), a CRC
/// mismatch, or an implausible length prefix all yield an
/// [`io::ErrorKind::InvalidData`] error — never a panic — mirroring the
/// [`Tail::Torn`]/[`Tail::Corrupt`] verdicts of [`split_frames`].
///
/// # Errors
///
/// Returns `InvalidData` for torn or corrupt frames and propagates any
/// underlying I/O error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into a caller-owned buffer, reusing its allocation:
/// the buffer is cleared and refilled with the payload. Returns `false`
/// on a clean end of stream (the buffer is left empty).
///
/// # Errors
///
/// Exactly as [`read_frame`].
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
    payload.clear();
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(false),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("torn frame: stream ended {got} bytes into the header"),
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len > MAX_RECORD_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt frame: implausible length prefix {len}"),
        ));
    }
    let want = crc32_from(&header[4..8]);
    payload.resize(len as usize, 0);
    r.read_exact(payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("torn frame: stream ended inside a {len}-byte payload"),
            )
        } else {
            e
        }
    })?;
    if crc32(payload) != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corrupt frame: payload CRC mismatch",
        ));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_cleanly() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"alpha");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"gamma-record");
        let (records, tail) = split_frames(&buf);
        assert_eq!(records, vec![&b"alpha"[..], &b""[..], &b"gamma-record"[..]]);
        assert_eq!(tail, Tail::Clean);
    }

    #[test]
    fn every_truncation_point_is_torn_never_corrupt() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        append_frame(&mut buf, b"second-and-longer");
        let boundary = HEADER_LEN + 5;
        for cut in 0..buf.len() {
            let (records, tail) = split_frames(&buf[..cut]);
            if cut == 0 {
                assert_eq!(tail, Tail::Clean);
            } else if cut == boundary {
                assert_eq!(records.len(), 1);
                assert_eq!(tail, Tail::Clean);
            } else {
                let inside_first = cut < boundary;
                let expect_records = usize::from(!inside_first);
                assert_eq!(records.len(), expect_records, "cut at {cut}");
                let dropped = (cut - if inside_first { 0 } else { boundary }) as u64;
                assert_eq!(tail, Tail::Torn { dropped }, "cut at {cut}");
            }
        }
    }

    #[test]
    fn bit_flips_in_payload_or_crc_are_corrupt() {
        let mut pristine = Vec::new();
        append_frame(&mut pristine, b"keep-me");
        append_frame(&mut pristine, b"flip-me");
        let second_start = HEADER_LEN + 7;
        for byte in second_start + 4..pristine.len() {
            let mut buf = pristine.clone();
            buf[byte] ^= 0x40;
            let (records, tail) = split_frames(&buf);
            assert_eq!(records, vec![&b"keep-me"[..]], "flip at {byte}");
            assert_eq!(
                tail,
                Tail::Corrupt {
                    dropped: (buf.len() - second_start) as u64
                },
                "flip at {byte}"
            );
        }
    }

    #[test]
    fn absurd_length_prefix_is_corrupt() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 12]);
        let (records, tail) = split_frames(&buf);
        assert!(records.is_empty());
        assert_eq!(
            tail,
            Tail::Corrupt {
                dropped: buf.len() as u64
            }
        );
    }

    #[test]
    fn streamed_frames_match_buffered_frames_byte_for_byte() {
        let mut streamed = Vec::new();
        let mut buffered = Vec::new();
        for payload in [&b"alpha"[..], &b""[..], &b"gamma-record"[..]] {
            write_frame(&mut streamed, payload).unwrap();
            append_frame(&mut buffered, payload);
        }
        assert_eq!(streamed, buffered);
        let mut cursor = &streamed[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"gamma-record");
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn streamed_read_rejects_every_truncation_point() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"second-and-longer").unwrap();
        let boundary = HEADER_LEN + 5;
        for cut in 0..buf.len() {
            let mut cursor = &buf[..cut];
            if cut == 0 {
                assert_eq!(read_frame(&mut cursor).unwrap(), None);
                continue;
            }
            let first = read_frame(&mut cursor);
            if cut < boundary {
                let err = first.unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
            } else {
                assert_eq!(first.unwrap().unwrap(), b"first", "cut at {cut}");
                let second = read_frame(&mut cursor);
                if cut == boundary {
                    assert_eq!(second.unwrap(), None);
                } else {
                    let err = second.unwrap_err();
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
                }
            }
        }
    }

    #[test]
    fn streamed_read_rejects_bit_flips_and_absurd_lengths() {
        let mut pristine = Vec::new();
        write_frame(&mut pristine, b"flip-me").unwrap();
        for byte in 4..pristine.len() {
            let mut buf = pristine.clone();
            buf[byte] ^= 0x40;
            let err = read_frame(&mut &buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {byte}");
        }
        let mut absurd = Vec::new();
        absurd.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        absurd.extend_from_slice(&[0u8; 12]);
        let err = read_frame(&mut &absurd[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn nothing_after_a_corrupt_frame_is_trusted() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"good");
        let corrupt_at = buf.len();
        append_frame(&mut buf, b"bad");
        append_frame(&mut buf, b"also-dropped");
        buf[corrupt_at + HEADER_LEN] ^= 1; // damage "bad"'s payload
        let (records, tail) = split_frames(&buf);
        assert_eq!(records, vec![&b"good"[..]]);
        assert_eq!(
            tail,
            Tail::Corrupt {
                dropped: (buf.len() - corrupt_at) as u64
            }
        );
    }
}

//! Durable-state integrity: an in-crate CRC-32 and a sealed-text
//! envelope shared by every persisted artifact.
//!
//! Persisted state (checkpoints, job records) used to be trusted
//! blindly on restart; a torn write, a truncation, or a flipped bit
//! would either crash the resume path or — worse — silently resume
//! from garbage. Every byte written to disk is now verifiable:
//!
//! * [`crc32`] is the standard IEEE 802.3 CRC-32 (the `cksum`/zlib
//!   polynomial), implemented over a compile-time table so the
//!   workspace stays dependency-free.
//! * [`seal`]/[`unseal`] wrap an arbitrary text payload in a one-line
//!   header carrying the payload's length and CRC. `unseal` detects
//!   truncation (length mismatch), bit flips (CRC mismatch), and
//!   missing or torn headers.
//!
//! The checkpoint format carries its checksum inline instead (see
//! [`crate::checkpoint`]): its magic line is load-bearing for format
//! versioning, so the CRC rides on a dedicated `crc32` line.

use std::fmt;

/// Header prefix of a sealed payload (followed by ` crc32=XXXXXXXX
/// len=N`, a newline, and the payload verbatim).
pub const SEAL_MAGIC: &str = "powder-sealed v1";

/// CRC-32 (IEEE) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The IEEE 802.3 CRC-32 of `bytes` (same polynomial as zlib/PNG).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Why [`unseal`] rejected a sealed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SealError {
    /// The header line is missing or malformed (torn mid-header).
    BadHeader(String),
    /// The payload is shorter or longer than the header's `len` —
    /// the classic torn-write signature.
    LengthMismatch {
        /// Length recorded in the header.
        expected: usize,
        /// Length actually present on disk.
        actual: usize,
    },
    /// Lengths agree but the bytes do not — a bit flip or an
    /// overwrite with same-sized garbage.
    CrcMismatch {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the bytes actually present.
        actual: u32,
    },
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::BadHeader(line) => write!(f, "torn seal header {line:?}"),
            SealError::LengthMismatch { expected, actual } => write!(
                f,
                "payload truncated or padded: header says {expected} bytes, found {actual}"
            ),
            SealError::CrcMismatch { expected, actual } => write!(
                f,
                "payload corrupted: header crc32 {expected:08x}, computed {actual:08x}"
            ),
        }
    }
}

impl std::error::Error for SealError {}

/// Wraps `payload` in a `powder-sealed v1` envelope: a single header
/// line carrying the payload's CRC-32 and byte length, then the
/// payload verbatim.
#[must_use]
pub fn seal(payload: &str) -> String {
    format!(
        "{SEAL_MAGIC} crc32={:08x} len={}\n{payload}",
        crc32(payload.as_bytes()),
        payload.len()
    )
}

/// Unwraps a sealed payload, verifying the header, length and CRC.
pub fn unseal(text: &str) -> Result<&str, SealError> {
    let (header, payload) = text
        .split_once('\n')
        .filter(|(header, _)| header.starts_with(SEAL_MAGIC))
        .ok_or_else(|| SealError::BadHeader(text.chars().take(80).collect()))?;
    let rest = header[SEAL_MAGIC.len()..].trim();
    let mut expected_crc = None;
    let mut expected_len = None;
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix("crc32=") {
            expected_crc = u32::from_str_radix(v, 16).ok();
        } else if let Some(v) = tok.strip_prefix("len=") {
            expected_len = v.parse::<usize>().ok();
        }
    }
    let (Some(expected_crc), Some(expected_len)) = (expected_crc, expected_len) else {
        return Err(SealError::BadHeader(header.to_string()));
    };
    if payload.len() != expected_len {
        return Err(SealError::LengthMismatch {
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let actual = crc32(payload.as_bytes());
    if actual != expected_crc {
        return Err(SealError::CrcMismatch {
            expected: expected_crc,
            actual,
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors (same as zlib's crc32()).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn seal_round_trips() {
        for payload in ["", "x", "{\"id\":\"j1\"}\n", "line1\nline2\n", "ünïcode 💥"] {
            let sealed = seal(payload);
            assert_eq!(unseal(&sealed).unwrap(), payload, "payload {payload:?}");
        }
    }

    #[test]
    fn unsealed_text_is_rejected() {
        for text in ["{\"id\":\"j1\"}", "{\"id\":\"j1\"}\n", ""] {
            assert!(
                matches!(unseal(text), Err(SealError::BadHeader(_))),
                "{text:?} has no seal header"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let sealed = seal("a reasonably long payload that will be cut short");
        for cut in [sealed.len() - 1, sealed.len() - 10, SEAL_MAGIC.len() + 20] {
            let torn = &sealed[..cut];
            assert!(
                unseal(torn).is_err(),
                "truncation at {cut} must be detected"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let sealed = seal("payload under test with enough bytes to flip");
        let payload_start = sealed.find('\n').unwrap() + 1;
        for pos in [payload_start, payload_start + 7, sealed.len() - 1] {
            let mut bytes = sealed.clone().into_bytes();
            bytes[pos] ^= 0x20;
            let flipped = String::from_utf8(bytes).unwrap();
            assert!(
                matches!(unseal(&flipped), Err(SealError::CrcMismatch { .. })),
                "flip at {pos} must be a CRC mismatch"
            );
        }
    }

    #[test]
    fn torn_header_is_detected() {
        // Header cut before the newline: no payload separator at all.
        let sealed = seal("x");
        let header_end = sealed.find('\n').unwrap();
        assert!(matches!(
            unseal(&sealed[..header_end]),
            Err(SealError::BadHeader(_))
        ));
        // Garbage in place of the numbers.
        assert!(matches!(
            unseal("powder-sealed v1 crc32=zzzz len=three\nx"),
            Err(SealError::BadHeader(_))
        ));
    }

    #[test]
    fn same_length_garbage_is_detected() {
        let sealed = seal("abcdef");
        let swapped = sealed.replace("abcdef", "abcdeg");
        assert!(matches!(
            unseal(&swapped),
            Err(SealError::CrcMismatch { .. })
        ));
    }
}

//! The on-disk checkpoint container: a magic-tagged, versioned section file
//! where every section payload is protected by its own CRC32.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic  "LITHOCKP"                                  (8 bytes) |
//! | format version                                     (u32)     |
//! | section count                                      (u32)     |
//! +---- per section ---------------------------------------------+
//! | name length (u16) | name bytes (UTF-8)                       |
//! | payload length    (u64)                                      |
//! | payload CRC32     (u32)                                      |
//! | payload bytes                                                |
//! +--------------------------------------------------------------+
//! ```
//!
//! Decoding validates the magic, the version, every declared length against
//! the bytes actually present, and every CRC — a truncation or bit flip at
//! any offset yields a [`StoreError`], never a panic or a silently wrong
//! value.

use crate::codec::{crc32, ByteReader, ByteWriter};
use crate::StoreError;

/// First 8 bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"LITHOCKP";

/// Current checkpoint format version. Bump on any layout change (section
/// list or a section's encoding); readers reject versions they do not
/// understand rather than guessing.
pub const FORMAT_VERSION: u32 = 2;

/// An in-memory checkpoint file: an ordered list of named, independently
/// checksummed sections.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CheckpointFile {
    sections: Vec<(String, Vec<u8>)>,
}

impl CheckpointFile {
    /// An empty file with no sections.
    pub fn new() -> Self {
        CheckpointFile::default()
    }

    /// Appends a named section. Names must be unique within a file; the
    /// last writer wins on decode lookup, so `put` replaces an existing
    /// section of the same name instead of duplicating it.
    pub fn put(&mut self, name: &str, payload: Vec<u8>) {
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| n == name) {
            slot.1 = payload;
        } else {
            self.sections.push((name.to_owned(), payload));
        }
    }

    /// Looks up a section's payload by name.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// Like [`CheckpointFile::get`] but a missing section is an error.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] when no section has that name.
    pub fn require(&self, name: &str) -> Result<&[u8], StoreError> {
        self.get(name).ok_or_else(|| StoreError::MissingSection {
            name: name.to_owned(),
        })
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Serialises the file to its on-disk byte representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(FORMAT_VERSION);
        w.put_u32(self.sections.len() as u32);
        for (name, payload) in &self.sections {
            w.put_u16(name.len() as u16);
            for &b in name.as_bytes() {
                w.put_u8(b);
            }
            w.put_u64(payload.len() as u64);
            w.put_u32(crc32(payload));
            for &b in payload {
                w.put_u8(b);
            }
        }
        let mut bytes = Vec::with_capacity(MAGIC.len() + w.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&w.into_bytes());
        bytes
    }

    /// Parses and fully validates an on-disk byte representation.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`],
    /// [`StoreError::Truncated`], [`StoreError::CrcMismatch`], or
    /// [`StoreError::Corrupt`] — decoding never panics on any input.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut r = ByteReader::new(&bytes[MAGIC.len()..]);
        let version = r.get_u32("format version")?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let count = r.get_u32("section count")? as usize;
        let mut sections = Vec::new();
        for _ in 0..count {
            let name_len = r.get_u16("section name length")? as usize;
            let name_bytes = r.get_raw(name_len, "section name")?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| StoreError::Corrupt {
                    detail: "section name is not UTF-8".to_owned(),
                })?
                .to_owned();
            let payload_len = r.get_usize("section payload length")?;
            let declared_crc = r.get_u32("section crc")?;
            let payload = r.get_raw(payload_len, "section payload")?;
            if crc32(payload) != declared_crc {
                return Err(StoreError::CrcMismatch { section: name });
            }
            if sections.iter().any(|(n, _): &(String, _)| *n == name) {
                return Err(StoreError::Corrupt {
                    detail: format!("duplicate section `{name}`"),
                });
            }
            sections.push((name, payload.to_vec()));
        }
        r.finish("checkpoint file")?;
        Ok(CheckpointFile { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointFile {
        let mut file = CheckpointFile::new();
        file.put("meta", vec![1, 2, 3, 4]);
        file.put("model", vec![9; 100]);
        file.put("empty", Vec::new());
        file
    }

    #[test]
    fn encode_decode_round_trips() {
        let file = sample();
        let decoded = CheckpointFile::decode(&file.encode()).unwrap();
        assert_eq!(decoded, file);
        assert_eq!(decoded.get("meta"), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(decoded.get("empty"), Some(&[][..]));
        assert!(decoded.get("absent").is_none());
        assert!(matches!(
            decoded.require("absent"),
            Err(StoreError::MissingSection { .. })
        ));
    }

    #[test]
    fn put_replaces_existing_section() {
        let mut file = sample();
        file.put("meta", vec![7]);
        assert_eq!(file.get("meta"), Some(&[7u8][..]));
        assert_eq!(file.section_names().count(), 3);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            CheckpointFile::decode(&bytes),
            Err(StoreError::BadMagic)
        ));
        assert!(matches!(
            CheckpointFile::decode(b"LIT"),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = sample().encode();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            CheckpointFile::decode(&bytes),
            Err(StoreError::UnsupportedVersion { found }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn payload_corruption_is_detected_by_crc() {
        let file = sample();
        let clean = file.encode();
        // Flip one bit in every byte position past the header; decode must
        // fail (CRC/structure) or, if it succeeds, must not equal the
        // original — no silent corruption.
        for pos in MAGIC.len()..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            if let Ok(decoded) = CheckpointFile::decode(&bytes) {
                assert_ne!(decoded, file, "undetected flip at byte {pos}");
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_errors_cleanly() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(CheckpointFile::decode(&bytes[..cut]).is_err());
        }
    }
}

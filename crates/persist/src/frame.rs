//! The binary frame format shared by every PBDS persistence file.
//!
//! A file is a sequence of **frames**; each frame is
//!
//! ```text
//!   [ payload length: u32 LE ][ payload bytes ][ CRC-32 of payload: u32 LE ]
//! ```
//!
//! The CRC (IEEE 802.3, the polynomial used by zip/PNG — GlassDB-style
//! verifiable state, but hand-rolled because the build container is offline)
//! makes torn or bit-rotted frames detectable, and tells the two apart: a
//! frame whose length runs past the end of the file is the shape a crash
//! leaves ([`FrameRead::Torn`]), while a frame whose every byte is present
//! but whose checksum disagrees with its payload is bit rot
//! ([`FrameRead::Corrupt`]). The write-ahead log exploits the distinction
//! deliberately: an append cut short by a crash leaves a *torn tail*, and
//! recovery resumes from the longest whole-frame prefix — but a corrupt
//! frame fails recovery outright, because truncating it away would silently
//! drop acknowledged records. Snapshot and catalog files treat both
//! conditions as corruption, because they are written atomically (temp file
//! + rename).
//!
//! Every file opens with a header frame ([`file_header`] / [`check_header`])
//! carrying a magic number, the format version and the file kind, so a
//! snapshot can never be replayed as a WAL and a format bump is detected
//! before any payload is decoded.

use crate::PersistError;
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every PBDS persistence file.
pub const MAGIC: &[u8; 8] = b"PBDSDUR1";

/// Current format version. Bump on any incompatible frame-payload change.
pub const FORMAT_VERSION: u32 = 1;

/// What a persistence file contains (encoded in its header frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A whole-database snapshot.
    Snapshot,
    /// The mutation write-ahead log.
    Wal,
    /// A persisted sketch catalog.
    Catalog,
}

impl FileKind {
    fn tag(self) -> u8 {
        match self {
            FileKind::Snapshot => 1,
            FileKind::Wal => 2,
            FileKind::Catalog => 3,
        }
    }

    /// The file kind's name in error messages.
    fn name(self) -> &'static str {
        match self {
            FileKind::Snapshot => "snapshot",
            FileKind::Wal => "wal",
            FileKind::Catalog => "catalog",
        }
    }

    fn from_tag(tag: u8) -> Option<FileKind> {
        match tag {
            1 => Some(FileKind::Snapshot),
            2 => Some(FileKind::Wal),
            3 => Some(FileKind::Catalog),
            _ => None,
        }
    }
}

/// CRC-32 (IEEE) lookup table, generated at compile time.
static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_extend(crc32_start(), bytes))
}

/// Start an incremental CRC-32 computation (feed chunks with
/// [`crc32_extend`], close with [`crc32_finish`]). Equivalent to [`crc32`]
/// over the concatenation of the chunks — lets writers checksum a frame
/// assembled from several buffers without copying them together first.
pub fn crc32_start() -> u32 {
    0xFFFF_FFFF
}

/// Fold more bytes into an incremental CRC-32 state.
pub fn crc32_extend(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Close an incremental CRC-32 state into the final checksum.
pub fn crc32_finish(crc: u32) -> u32 {
    !crc
}

/// Append one frame (length prefix, payload, checksum) to a writer. Errors
/// — before writing anything — on a payload whose length does not fit the
/// `u32` prefix (a wrapped length would be written "successfully" and only
/// surface as a CRC mismatch at recovery time, when it is too late).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), PersistError> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        PersistError::corrupt(format!(
            "frame payload of {} bytes exceeds the u32 length prefix",
            payload.len()
        ))
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// Serialize one frame into a byte vector (for in-memory assembly).
pub fn frame_bytes(payload: &[u8]) -> Result<Vec<u8>, PersistError> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    write_frame(&mut out, payload)?;
    Ok(out)
}

/// Outcome of reading one frame at an offset of an in-memory file image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// A whole, checksum-valid frame; `next` is the offset just past it.
    Frame {
        /// The frame payload.
        payload: &'a [u8],
        /// Offset of the byte following this frame.
        next: usize,
    },
    /// Clean end of file: `pos` sat exactly at the end.
    End,
    /// The frame at `pos` ends past the end of the file (truncated length
    /// prefix or truncated payload) — consistent with a write cut short, so
    /// a torn tail for a log; corruption for an atomically written file.
    Torn,
    /// Every byte of the frame is present but the checksum disagrees with
    /// the payload. A crash cannot produce this shape at a log tail (a torn
    /// append runs out of bytes; it does not finish the frame with a wrong
    /// CRC) — this is bit rot or tampering, and must fail recovery rather
    /// than be silently truncated away.
    Corrupt,
}

/// Read the frame starting at `pos` in `bytes`.
pub fn read_frame(bytes: &[u8], pos: usize) -> FrameRead<'_> {
    if pos == bytes.len() {
        return FrameRead::End;
    }
    let Some(raw_len) = bytes.get(pos..pos + 4) else {
        return FrameRead::Torn;
    };
    let len = u32::from_le_bytes(raw_len.try_into().expect("4 bytes")) as usize;
    let payload_start = pos + 4;
    let crc_start = match payload_start.checked_add(len) {
        Some(s) => s,
        None => return FrameRead::Torn,
    };
    let (Some(payload), Some(raw_crc)) = (
        bytes.get(payload_start..crc_start),
        bytes.get(crc_start..crc_start + 4),
    ) else {
        return FrameRead::Torn;
    };
    let stored = u32::from_le_bytes(raw_crc.try_into().expect("4 bytes"));
    if crc32(payload) != stored {
        return FrameRead::Corrupt;
    }
    FrameRead::Frame {
        payload,
        next: crc_start + 4,
    }
}

/// The header-frame payload for a file of the given kind.
pub fn file_header(kind: FileKind) -> Vec<u8> {
    let mut payload = Vec::with_capacity(13);
    payload.extend_from_slice(MAGIC);
    payload.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    payload.push(kind.tag());
    payload
}

/// Validate a header-frame payload against the expected file kind.
pub fn check_header(payload: &[u8], expected: FileKind) -> Result<(), PersistError> {
    if payload.len() != 13 || &payload[..8] != MAGIC {
        return Err(PersistError::corrupt("file header magic mismatch"));
    }
    let version = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(PersistError::BadVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    match FileKind::from_tag(payload[12]) {
        Some(kind) if kind == expected => Ok(()),
        Some(kind) => Err(PersistError::corrupt(format!(
            "wrong file kind: expected {expected:?}, found {kind:?}"
        ))),
        None => Err(PersistError::corrupt("unknown file kind tag")),
    }
}

/// The frames of an atomically written file (a snapshot or a catalog), read
/// in order after its header. A missing, torn or corrupt frame is
/// corruption, and so is a frame after the last one its reader takes.
pub(crate) struct FramedFile<'a> {
    bytes: &'a [u8],
    pos: usize,
    kind: FileKind,
    path: &'a Path,
}

impl<'a> FramedFile<'a> {
    /// Open the image `bytes` of the file at `path`, checking its header
    /// frame against `kind`.
    pub(crate) fn open(
        bytes: &'a [u8],
        kind: FileKind,
        path: &'a Path,
    ) -> Result<Self, PersistError> {
        let mut file = FramedFile {
            bytes,
            pos: 0,
            kind,
            path,
        };
        check_header(file.next("header")?, kind)?;
        Ok(file)
    }

    /// The payload of the next frame, which the error calls `what`.
    pub(crate) fn next(&mut self, what: &str) -> Result<&'a [u8], PersistError> {
        match read_frame(self.bytes, self.pos) {
            FrameRead::Frame { payload, next } => {
                self.pos = next;
                Ok(payload)
            }
            _ => Err(PersistError::corrupt(format!(
                "{} {}: missing or torn {what} frame",
                self.kind.name(),
                self.path.display()
            ))),
        }
    }

    /// Check that the file ends after the frames read.
    pub(crate) fn finish(self) -> Result<(), PersistError> {
        if read_frame(self.bytes, self.pos) != FrameRead::End {
            return Err(PersistError::corrupt(format!(
                "{} has trailing frames",
                self.kind.name()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trip() {
        let mut file = Vec::new();
        write_frame(&mut file, b"hello").unwrap();
        write_frame(&mut file, b"").unwrap();
        write_frame(&mut file, &[7u8; 1000]).unwrap();
        let mut pos = 0;
        let mut payloads = Vec::new();
        loop {
            match read_frame(&file, pos) {
                FrameRead::Frame { payload, next } => {
                    payloads.push(payload.to_vec());
                    pos = next;
                }
                FrameRead::End => break,
                FrameRead::Torn | FrameRead::Corrupt => panic!("clean file reported damage"),
            }
        }
        assert_eq!(payloads.len(), 3);
        assert_eq!(payloads[0], b"hello");
        assert!(payloads[1].is_empty());
        assert_eq!(payloads[2], vec![7u8; 1000]);
    }

    #[test]
    fn every_strict_prefix_is_reported_torn_not_misread() {
        let mut file = Vec::new();
        write_frame(&mut file, b"abcdefgh").unwrap();
        for cut in 1..file.len() {
            assert_eq!(
                read_frame(&file[..cut], 0),
                FrameRead::Torn,
                "prefix of {cut} bytes accepted"
            );
        }
        assert_eq!(read_frame(&file, file.len()), FrameRead::End);
    }

    #[test]
    fn bit_flips_are_detected_as_corruption_not_torn() {
        let mut file = Vec::new();
        write_frame(&mut file, b"payload-bytes").unwrap();
        // Payload and CRC flips leave every byte present: Corrupt, not Torn.
        for i in 4..file.len() {
            let mut bad = file.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                read_frame(&bad, 0),
                FrameRead::Corrupt,
                "flip at {i} accepted"
            );
        }
        // A flip in the length prefix that grows the frame past EOF is
        // indistinguishable from truncation: Torn.
        let mut bad = file.clone();
        bad[2] ^= 0x40; // adds 4 MiB to the length
        assert_eq!(read_frame(&bad, 0), FrameRead::Torn);
    }

    #[test]
    fn header_checks_magic_version_and_kind() {
        let h = file_header(FileKind::Wal);
        assert!(check_header(&h, FileKind::Wal).is_ok());
        assert!(matches!(
            check_header(&h, FileKind::Snapshot),
            Err(PersistError::Corrupt(_))
        ));
        let mut bad_version = h.clone();
        bad_version[8] = 0xEE;
        assert!(matches!(
            check_header(&bad_version, FileKind::Wal),
            Err(PersistError::BadVersion { .. })
        ));
        let mut bad_magic = h.clone();
        bad_magic[0] = b'x';
        assert!(check_header(&bad_magic, FileKind::Wal).is_err());
    }
}

//! Durable, integrity-checked file writes.
//!
//! Checkpoints and training snapshots are the only thing standing between a
//! multi-hour meta-training run and a `kill -9`, so they are written with
//! the classic crash-safe recipe:
//!
//! 1. the payload is framed with a versioned header carrying its length and
//!    a CRC-32 ([`crate::crc32`](mod@crate::crc32)),
//! 2. the frame is written to a temporary file *in the same directory*,
//! 3. the temporary file is fsynced,
//! 4. it is atomically renamed over the final path,
//! 5. the directory is fsynced (best effort) so the rename itself survives
//!    a power cut.
//!
//! A reader therefore sees either the complete previous file or the
//! complete new one — never a torn mixture — and [`read_verified`] rejects
//! any truncated or bit-flipped file with a precise [`Error::Io`] instead
//! of handing garbage to the JSON parser.
//!
//! The frame is plain text followed by the payload bytes:
//!
//! ```text
//! FEWNERD1 <crc32-as-8-hex-digits> <payload-length-in-bytes>\n<payload>
//! ```
//!
//! All writes consult the fault-injection hooks ([`crate::fault`]) so the
//! crash-recovery suite can simulate failed, torn, and silently corrupted
//! writes.

use std::fs;
use std::io::{Read, Write};
use std::path::Path;

use crate::crc32::crc32;
use crate::error::{Error, Result};
use crate::fault::{self, WriteFault};

/// Magic + format version prefix of every durable file.
pub const MAGIC: &str = "FEWNERD1";

fn io_err(path: &Path, detail: impl std::fmt::Display) -> Error {
    Error::Io {
        path: path.display().to_string(),
        detail: detail.to_string(),
    }
}

/// Frames `payload` with the versioned header and CRC.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let header = format!("{MAGIC} {:08x} {}\n", crc32(payload), payload.len());
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Atomically writes `payload` (framed, checksummed) to `path`.
pub fn write_atomic(path: impl AsRef<Path>, payload: &[u8]) -> Result<()> {
    let path = path.as_ref();
    let mut framed = frame(payload);

    match fault::durable_write_fault() {
        Some(WriteFault::Fail) => {
            return Err(io_err(path, "injected fault: write failed"));
        }
        Some(WriteFault::Truncate) => {
            // Simulate a crash mid-write on a filesystem without atomic
            // replace: half a frame lands at the final path.
            fs::write(path, &framed[..framed.len() / 2]).map_err(|e| io_err(path, e))?;
            return Err(io_err(path, "injected fault: torn write"));
        }
        Some(WriteFault::Corrupt) => {
            // Silent bit rot: flip one payload byte *after* the CRC was
            // computed, and report success.
            let header_len = framed.len() - payload.len();
            let mid = header_len + payload.len() / 2;
            framed[mid] ^= 0x01;
        }
        None => {}
    }

    // Append `.tmp` to the whole file name (never `with_extension`, which
    // would collapse `trace.jsonl.s0` and `trace.jsonl.s1` onto the same
    // `trace.jsonl.tmp` — concurrent writers of sibling files would then
    // race each other's renames).
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    file.write_all(&framed).map_err(|e| io_err(&tmp, e))?;
    file.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    // Persist the rename itself. Directory fsync is not portable, so this
    // is best effort (it works on Linux, which is where long runs live).
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads `path`, verifies the header and CRC, and returns the payload.
pub fn read_verified(path: impl AsRef<Path>) -> Result<Vec<u8>> {
    let path = path.as_ref();
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| io_err(path, "not a FEWNER durable file (no header line)"))?;
    let header =
        std::str::from_utf8(&bytes[..newline]).map_err(|_| io_err(path, "header is not UTF-8"))?;
    let mut parts = header.split(' ');
    let magic = parts.next().unwrap_or("");
    if magic != MAGIC {
        return Err(io_err(
            path,
            format!("bad magic `{magic}` (expected `{MAGIC}`)"),
        ));
    }
    let stored_crc = parts
        .next()
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| io_err(path, "header is missing the CRC field"))?;
    let stored_len: usize = parts
        .next()
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| io_err(path, "header is missing the length field"))?;
    let payload = &bytes[newline + 1..];
    if payload.len() != stored_len {
        return Err(io_err(
            path,
            format!(
                "truncated or padded: header says {stored_len} payload bytes, found {}",
                payload.len()
            ),
        ));
    }
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(io_err(
            path,
            format!("CRC mismatch: stored {stored_crc:08x}, computed {computed:08x}"),
        ));
    }
    Ok(payload.to_vec())
}

/// [`read_verified`] for text payloads.
pub fn read_verified_string(path: impl AsRef<Path>) -> Result<String> {
    let path = path.as_ref();
    String::from_utf8(read_verified(path)?).map_err(|_| io_err(path, "payload is not valid UTF-8"))
}

/// The longest header line [`read_wire_frame`] will scan for before
/// declaring the stream garbled (`FEWNERD1 <8 hex> <len>\n` is ≤ 32 bytes
/// for any plausible length).
const MAX_WIRE_HEADER: usize = 64;

/// One read from a FEWNERD1-framed byte stream (the sharded-training
/// gradient exchange). Unlike [`read_verified`] — where a damaged file is
/// simply an error — a stream reader must distinguish *recoverable*
/// damage (the frame boundary is intact, so the peer can retransmit) from
/// damage that kills the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFrame {
    /// A complete, CRC-verified payload.
    Frame(Vec<u8>),
    /// Clean end of stream before any header byte: the peer closed the
    /// connection between frames.
    Eof,
    /// The stream ended mid-header or mid-payload: the peer died while
    /// sending. The connection is unusable.
    Truncated(String),
    /// The declared length arrived but the CRC does not match: the frame
    /// boundary is intact, so the reader may request a retransmit.
    Corrupt(String),
    /// The header is unparseable (bad magic, missing fields, absurd
    /// length): frame alignment is lost and the connection is unusable.
    Garbled(String),
}

fn wire_err(detail: impl std::fmt::Display) -> Error {
    Error::Io {
        path: "<wire>".to_string(),
        detail: detail.to_string(),
    }
}

/// Writes one framed, checksummed payload to a byte stream and flushes it.
pub fn write_wire_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    w.write_all(&frame(payload)).map_err(wire_err)?;
    w.flush().map_err(wire_err)
}

/// Reads one frame from a byte stream, classifying damage (see
/// [`WireFrame`]). `max_payload` caps the declared length so a hostile or
/// garbled header can never balloon memory; larger declarations are
/// `Garbled`, not trusted. `Err` is reserved for genuine I/O errors (which
/// also kill the connection).
pub fn read_wire_frame(r: &mut impl Read, max_payload: usize) -> Result<WireFrame> {
    // Header: byte-at-a-time until `\n`. Frames carry multi-KiB payloads,
    // so the ~30 single-byte reads are noise (and callers wrap sockets in
    // a BufReader when it matters).
    let mut header = Vec::with_capacity(32);
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if header.is_empty() => return Ok(WireFrame::Eof),
            Ok(0) => {
                return Ok(WireFrame::Truncated(format!(
                    "stream ended after {} header bytes",
                    header.len()
                )));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                header.push(byte[0]);
                if header.len() > MAX_WIRE_HEADER {
                    return Ok(WireFrame::Garbled(
                        "no newline within the header budget".to_string(),
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(wire_err(e)),
        }
    }
    let Ok(header) = std::str::from_utf8(&header) else {
        return Ok(WireFrame::Garbled("header is not UTF-8".to_string()));
    };
    let mut parts = header.split(' ');
    let magic = parts.next().unwrap_or("");
    if magic != MAGIC {
        return Ok(WireFrame::Garbled(format!(
            "bad magic `{magic}` (expected `{MAGIC}`)"
        )));
    }
    let Some(stored_crc) = parts.next().and_then(|h| u32::from_str_radix(h, 16).ok()) else {
        return Ok(WireFrame::Garbled("header is missing the CRC field".into()));
    };
    let Some(stored_len) = parts.next().and_then(|l| l.parse::<usize>().ok()) else {
        return Ok(WireFrame::Garbled(
            "header is missing the length field".into(),
        ));
    };
    if stored_len > max_payload {
        return Ok(WireFrame::Garbled(format!(
            "declared payload of {stored_len} bytes exceeds the {max_payload}-byte cap"
        )));
    }
    let mut payload = vec![0u8; stored_len];
    if let Err(e) = r.read_exact(&mut payload) {
        return if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Ok(WireFrame::Truncated(format!(
                "stream ended inside a {stored_len}-byte payload"
            )))
        } else {
            Err(wire_err(e))
        };
    }
    let computed = crc32(&payload);
    if computed != stored_crc {
        return Ok(WireFrame::Corrupt(format!(
            "CRC mismatch: stored {stored_crc:08x}, computed {computed:08x}"
        )));
    }
    Ok(WireFrame::Frame(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fewner-durable-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_preserves_payload() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("file.bin");
        let payload = b"{\"theta\": [1, 2, 3]}";
        write_atomic(&path, payload).unwrap();
        assert_eq!(read_verified(&path).unwrap(), payload);
        assert_eq!(
            read_verified_string(&path).unwrap(),
            "{\"theta\": [1, 2, 3]}"
        );
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncation_is_rejected_with_io_error() {
        let dir = tmp_dir("truncate");
        let path = dir.join("file.bin");
        write_atomic(&path, b"a payload that will lose its tail").unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        match read_verified(&path) {
            Err(Error::Io { detail, .. }) => assert!(detail.contains("truncated")),
            other => panic!("expected Io error, got {other:?}"),
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bit_flip_is_rejected_with_crc_mismatch() {
        let dir = tmp_dir("bitflip");
        let path = dir.join("file.bin");
        write_atomic(&path, b"bytes that must stay intact").unwrap();
        let mut full = fs::read(&path).unwrap();
        let last = full.len() - 1;
        full[last] ^= 0x40;
        fs::write(&path, &full).unwrap();
        match read_verified(&path) {
            Err(Error::Io { detail, .. }) => assert!(detail.contains("CRC mismatch")),
            other => panic!("expected Io error, got {other:?}"),
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_file_and_garbage_are_io_errors() {
        let dir = tmp_dir("garbage");
        assert!(matches!(
            read_verified(dir.join("nope.bin")),
            Err(Error::Io { .. })
        ));
        let path = dir.join("garbage.bin");
        fs::write(&path, b"not a durable file at all\nreally").unwrap();
        assert!(matches!(read_verified(&path), Err(Error::Io { .. })));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn injected_write_faults_behave_as_specified() {
        let dir = tmp_dir("faults");

        // Fail: nothing lands on disk.
        let path = dir.join("fail.bin");
        let err = crate::fault::with_plan(FaultPlan::parse("ckpt_write_fail:1").unwrap(), || {
            write_atomic(&path, b"payload")
        });
        assert!(matches!(err, Err(Error::Io { .. })));
        assert!(!path.exists());

        // Truncate: a torn file lands, and the read rejects it.
        let path = dir.join("torn.bin");
        let err = crate::fault::with_plan(FaultPlan::parse("ckpt_truncate:1").unwrap(), || {
            write_atomic(&path, b"payload payload payload")
        });
        assert!(matches!(err, Err(Error::Io { .. })));
        assert!(path.exists());
        assert!(matches!(read_verified(&path), Err(Error::Io { .. })));

        // Corrupt: the write "succeeds" but the CRC catches it at load.
        let path = dir.join("rot.bin");
        crate::fault::with_plan(FaultPlan::parse("ckpt_corrupt:1").unwrap(), || {
            write_atomic(&path, b"payload payload payload")
        })
        .unwrap();
        match read_verified(&path) {
            Err(Error::Io { detail, .. }) => assert!(detail.contains("CRC mismatch")),
            other => panic!("expected CRC mismatch, got {other:?}"),
        }
        fs::remove_dir_all(dir).ok();
    }
}

//! Weight checkpointing: save and restore a session's parameters.
//!
//! The v2 format is self-contained (no external dependencies) and hardened
//! against the corruptions the chaos harness injects:
//!
//! ```text
//! magic "TBDCKPT2" · step u64 · param-count u64 · records … · fnv1a u64
//! ```
//!
//! Each record is `name-len u32 · name · rank u32 · dims u64… · f32 data`,
//! all little-endian. The trailing FNV-1a checksum covers everything between
//! the magic and itself, so truncation and bit-flips are detected before a
//! single weight is touched. The header also carries the session's
//! forward-pass counter: restoring it resumes the dropout streams exactly
//! where the saved run left them, which is what makes crash-replay recovery
//! bit-exact (see [`crate::resilience`]).
//!
//! Parameters are matched by *name* on load, so a checkpoint survives graph
//! rebuilds (and batch-size changes) as long as parameter names are stable —
//! which the model zoo's scoped naming guarantees. [`save_to_path`] writes
//! atomically (temp file + rename) so a crash mid-write never clobbers the
//! previous good checkpoint.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use tbd_graph::trace::fnv1a;
use tbd_graph::{Op, Session};
use tbd_tensor::Tensor;

const MAGIC: &[u8; 7] = b"TBDCKPT";
const VERSION: u8 = b'2';

/// Everything that can go wrong saving or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying reader/writer/filesystem error.
    Io(io::Error),
    /// The file does not start with the `TBDCKPT` magic.
    BadMagic,
    /// The magic matched but the version byte is one we cannot read.
    UnsupportedVersion(u8),
    /// The stream ended before the declared records (or the checksum).
    Truncated,
    /// The trailing FNV-1a checksum disagrees with the payload.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// A record is structurally implausible (giant name, rank, or tensor).
    Malformed(&'static str),
    /// A stored tensor's shape disagrees with the session's parameter of
    /// the same name.
    ShapeMismatch { name: String },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a TBD checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version byte 0x{v:02x}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint is truncated"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::ShapeMismatch { name } => {
                write!(f, "checkpoint shape for `{name}` disagrees with the graph")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        // `read_exact` reports a short read as UnexpectedEof; surface that
        // as the typed truncation error so callers can tell it apart from
        // a genuinely failing disk.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated
        } else {
            CheckpointError::Io(e)
        }
    }
}

/// What [`load`] restored: how many parameters matched by name, and the
/// forward-pass counter the saved session had reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Parameters restored (records whose name matched a session parameter).
    pub loaded: usize,
    /// The saved session's step counter, already applied to the session.
    pub step: u64,
}

/// Serialises every parameter of `session` (plus its step counter) into a
/// byte vector in checkpoint-v2 format. Tensors are read in place and the
/// buffer is sized once up front.
pub fn to_bytes(session: &Session) -> Vec<u8> {
    let params: Vec<(&str, &Tensor)> = session
        .graph()
        .params()
        .iter()
        .filter_map(|(id, _)| match &session.graph().node(*id).op {
            Op::Parameter { name } => session.param(*id).map(|t| (name.as_str(), t)),
            _ => None,
        })
        .collect();
    let records: usize = params
        .iter()
        .map(|(name, t)| 4 + name.len() + 4 + 8 * t.shape().rank() + 4 * t.len())
        .sum();
    let mut out = Vec::with_capacity(8 + 8 + 8 + records + 8);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&session.step_count().to_le_bytes());
    out.extend_from_slice(&(params.len() as u64).to_le_bytes());
    for (name, tensor) in params {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        let dims = tensor.shape().dims();
        out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &d in dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in tensor.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let checksum = fnv1a(&out[MAGIC.len() + 1..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Serialises every parameter of `session` into `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the writer as [`CheckpointError::Io`].
pub fn save<W: Write>(session: &Session, mut writer: W) -> Result<(), CheckpointError> {
    writer.write_all(&to_bytes(session)).map_err(CheckpointError::Io)?;
    Ok(())
}

/// Atomically writes a checkpoint to `path`: the bytes land in a sibling
/// temp file first and are renamed into place only after a successful
/// flush, so a crash mid-write never leaves a half-written file where the
/// previous good checkpoint used to be.
///
/// # Errors
///
/// Filesystem errors surface as [`CheckpointError::Io`].
pub fn save_to_path<P: AsRef<Path>>(session: &Session, path: P) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp).map_err(CheckpointError::Io)?;
        file.write_all(&to_bytes(session)).map_err(CheckpointError::Io)?;
        file.sync_all().map_err(CheckpointError::Io)?;
    }
    std::fs::rename(&tmp, path).map_err(CheckpointError::Io)
}

/// Restores parameters (and the step counter) into `session` from a
/// checkpoint written by [`save`], matching parameters by name.
///
/// The whole stream is read and checksum-verified *before* any session
/// state is touched, so a corrupt checkpoint can never leave the session
/// half-restored.
///
/// # Errors
///
/// Typed [`CheckpointError`]s for bad magic, unsupported version,
/// truncation, checksum mismatch, malformed records, and shape mismatch;
/// reader errors surface as [`CheckpointError::Io`].
pub fn load<R: Read>(session: &mut Session, mut reader: R) -> Result<LoadReport, CheckpointError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic[..7] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if magic[7] != VERSION {
        return Err(CheckpointError::UnsupportedVersion(magic[7]));
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).map_err(CheckpointError::Io)?;
    if rest.len() < 8 + 8 + 8 {
        // step + count + checksum is the smallest possible v2 body.
        return Err(CheckpointError::Truncated);
    }
    let (body, checksum_bytes) = rest.split_at(rest.len() - 8);
    let stored = u64::from_le_bytes(checksum_bytes.try_into().expect("8-byte split"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    from_verified_body(session, body)
}

/// Verifies a serialized checkpoint without touching any session: checks
/// magic, version and the trailing FNV-1a checksum over the body.
///
/// # Errors
///
/// [`CheckpointError::BadMagic`], [`CheckpointError::UnsupportedVersion`],
/// [`CheckpointError::Truncated`] or [`CheckpointError::ChecksumMismatch`].
pub fn verify(bytes: &[u8]) -> Result<(), CheckpointError> {
    if bytes.len() < 8 {
        return Err(CheckpointError::Truncated);
    }
    if &bytes[..7] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes[7] != VERSION {
        return Err(CheckpointError::UnsupportedVersion(bytes[7]));
    }
    if bytes.len() < 8 + 8 + 8 + 8 {
        return Err(CheckpointError::Truncated);
    }
    let (body, checksum_bytes) = bytes[8..].split_at(bytes.len() - 16);
    let stored = u64::from_le_bytes(checksum_bytes.try_into().expect("8-byte split"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// Convenience wrapper over [`load`] for a filesystem path.
///
/// # Errors
///
/// Same as [`load`]; a missing file surfaces as [`CheckpointError::Io`].
pub fn load_from_path<P: AsRef<Path>>(
    session: &mut Session,
    path: P,
) -> Result<LoadReport, CheckpointError> {
    let file = std::fs::File::open(path).map_err(CheckpointError::Io)?;
    load(session, io::BufReader::new(file))
}

/// Parses a checksum-verified body and applies it to the session.
fn from_verified_body(session: &mut Session, body: &[u8]) -> Result<LoadReport, CheckpointError> {
    let mut cursor = body;
    let step = read_u64(&mut cursor)?;
    let count = read_u64(&mut cursor)? as usize;
    // Name → node id index for the session's parameters.
    let by_name: std::collections::HashMap<String, tbd_graph::NodeId> = session
        .graph()
        .params()
        .iter()
        .filter_map(|(id, _)| match &session.graph().node(*id).op {
            Op::Parameter { name } => Some((name.clone(), *id)),
            _ => None,
        })
        .collect();
    // Decode every record before touching the session so a malformed tail
    // cannot leave a partial restore behind.
    let mut staged: Vec<(tbd_graph::NodeId, Tensor)> = Vec::new();
    for _ in 0..count {
        let name_len = read_u32(&mut cursor)? as usize;
        if name_len > 1 << 20 {
            return Err(CheckpointError::Malformed("implausible name length"));
        }
        let name_bytes = take(&mut cursor, name_len)?;
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| CheckpointError::Malformed("parameter name is not UTF-8"))?;
        let rank = read_u32(&mut cursor)? as usize;
        if rank > 8 {
            return Err(CheckpointError::Malformed("implausible rank"));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u64(&mut cursor)? as usize);
        }
        let len = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .filter(|&len| len <= 1 << 30)
            .ok_or(CheckpointError::Malformed("implausible tensor size"))?;
        let raw = take(&mut cursor, len * 4)?;
        if let Some(&id) = by_name.get(&name) {
            let mut data = vec![0.0f32; len];
            for (v, chunk) in data.iter_mut().zip(raw.chunks_exact(4)) {
                *v = f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            }
            let tensor = Tensor::from_vec(data, dims.as_slice())
                .map_err(|_| CheckpointError::Malformed("corrupt tensor record"))?;
            let slot = session.param(id).expect("registered parameter");
            if slot.shape() != tensor.shape() {
                return Err(CheckpointError::ShapeMismatch { name });
            }
            staged.push((id, tensor));
        }
    }
    if !cursor.is_empty() {
        return Err(CheckpointError::Malformed("trailing bytes after records"));
    }
    let loaded = staged.len();
    for (id, tensor) in staged {
        *session.param_mut(id).expect("registered parameter") = tensor;
    }
    session.set_step_count(step);
    Ok(LoadReport { loaded, step })
}

fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], CheckpointError> {
    if cursor.len() < n {
        return Err(CheckpointError::Truncated);
    }
    let (head, tail) = cursor.split_at(n);
    *cursor = tail;
    Ok(head)
}

fn read_u64(cursor: &mut &[u8]) -> Result<u64, CheckpointError> {
    let bytes = take(cursor, 8)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

fn read_u32(cursor: &mut &[u8]) -> Result<u32, CheckpointError> {
    let bytes = take(cursor, 4)?;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::{GraphBuilder, Init};

    fn session() -> Session {
        let mut g = GraphBuilder::new();
        let w = g.parameter("layer/w", [3, 2], Init::Uniform { lo: -1.0, hi: 1.0 });
        let b = g.parameter("layer/b", [2], Init::Uniform { lo: -1.0, hi: 1.0 });
        let _ = (w, b);
        Session::new(g.finish(), 99)
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let mut donor = session();
        donor.set_step_count(17);
        let mut buffer = Vec::new();
        save(&donor, &mut buffer).unwrap();
        // Different seed would give different weights; overwrite via load.
        let mut other = {
            let mut g = GraphBuilder::new();
            g.parameter("layer/w", [3, 2], Init::Zeros);
            g.parameter("layer/b", [2], Init::Zeros);
            Session::new(g.finish(), 1)
        };
        let report = load(&mut other, buffer.as_slice()).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.step, 17);
        assert_eq!(other.step_count(), 17, "step counter must be restored");
        for (a, b) in donor.snapshot().iter().zip(other.snapshot().iter()) {
            assert_eq!(a.1, b.1, "weights must round-trip bit-exactly");
        }
    }

    #[test]
    fn serialised_bytes_are_pinned() {
        let mut donor = session();
        donor.set_step_count(17);
        let hex: String = to_bytes(&donor).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "544244434b50543211000000000000000200000000000000070000006c617965722f7702000000\
             03000000000000000200000000000000001327bf4288193f8081b8bce0f269bf7055a43e201636\
             3d070000006c617965722f620100000002000000000000005e4b6d3f9818133ff8782437e19f4a0e"
        );
    }

    #[test]
    fn overflowing_dims_are_malformed_not_a_panic() {
        // One record named "x" of dims [2^32, 2^32]: the product overflows
        // usize, and the checksum is valid so parsing reaches the record.
        let mut body = Vec::new();
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'x');
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&(1u64 << 32).to_le_bytes());
        body.extend_from_slice(&(1u64 << 32).to_le_bytes());
        let mut bytes = b"TBDCKPT2".to_vec();
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&fnv1a(&body).to_le_bytes());
        verify(&bytes).unwrap();
        let err = load(&mut session(), bytes.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed("implausible tensor size")), "{err}");
    }

    #[test]
    fn unknown_names_are_skipped() {
        let donor = session();
        let mut buffer = Vec::new();
        save(&donor, &mut buffer).unwrap();
        let mut g = GraphBuilder::new();
        g.parameter("different/name", [3, 2], Init::Zeros);
        let mut other = Session::new(g.finish(), 0);
        let report = load(&mut other, buffer.as_slice()).unwrap();
        assert_eq!(report.loaded, 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut s = session();
        let err = load(&mut s, b"NOTACKPTxxxxxxxxxxxxxxxxxxxxxxxx".as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic), "{err}");
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut s = session();
        let err = load(&mut s, b"TBDCKPT9xxxxxxxxxxxxxxxxxxxxxxxx".as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::UnsupportedVersion(b'9')), "{err}");
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let donor = session();
        let mut buffer = Vec::new();
        save(&donor, &mut buffer).unwrap();
        let mut g = GraphBuilder::new();
        g.parameter("layer/w", [2, 2], Init::Zeros); // wrong shape
        let mut other = Session::new(g.finish(), 0);
        let err = load(&mut other, buffer.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn truncated_checkpoints_error_instead_of_panicking() {
        let donor = session();
        let mut buffer = Vec::new();
        save(&donor, &mut buffer).unwrap();
        for cut in [buffer.len() / 2, 9, 12, buffer.len() - 1] {
            let mut short = buffer.clone();
            short.truncate(cut);
            let mut other = session();
            let err = load(&mut other, short.as_slice()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn single_bit_flip_is_caught_by_checksum() {
        let donor = session();
        let mut buffer = Vec::new();
        save(&donor, &mut buffer).unwrap();
        // Flip one bit in the middle of the payload (well past the header).
        let idx = buffer.len() / 2;
        buffer[idx] ^= 0x10;
        let mut other = session();
        let before = other.snapshot();
        let err = load(&mut other, buffer.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::ChecksumMismatch { .. }), "{err}");
        // And the failed load must not have touched the session.
        assert_eq!(before, other.snapshot(), "failed load must leave session intact");
    }

    #[test]
    fn atomic_path_save_round_trips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("tbd-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let mut donor = session();
        donor.set_step_count(5);
        save_to_path(&donor, &path).unwrap();
        assert!(!dir.join("model.ckpt.tmp").exists(), "temp file must be renamed away");
        let mut other = session();
        let report = load_from_path(&mut other, &path).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(other.step_count(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}

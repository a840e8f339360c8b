//! Durable on-disk checkpoints for the CG solver.
//!
//! A long LS-SVM training run at memory capacity can be killed at any
//! moment — OOM killer, preemption, power loss. The in-memory
//! checkpoint/warm-restart machinery of `plssvm-core` loses everything
//! with the process, so this module persists each snapshot durably:
//!
//! * [`Snapshot`] — a plain, solver-agnostic view of one CG state
//!   (iterate, residual, search direction, recurrence scalars) plus the
//!   context it belongs to (problem dimension, escalation rung, a hash of
//!   the training invocation),
//! * a versioned little-endian binary format with a trailing CRC32 so
//!   torn writes and bit rot are *detected* instead of resumed from,
//! * [`CheckpointJournal`] — generation-numbered snapshot files written
//!   via temp-file + fsync + atomic rename (see [`crate::io`]), with a
//!   bounded retention window and corruption-tolerant loading that falls
//!   back to the newest generation that still verifies.
//!
//! ## On-disk format (version 1)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "PLSSVMCK"
//!      8     4  format version (u32, = 1)
//!     12     1  precision in bytes per scalar (4 = f32, 8 = f64)
//!     13     1  escalation rung the snapshot belongs to
//!     14     2  reserved (zero)
//!     16     8  context hash (FNV-1a 64 of the training invocation)
//!     24     8  problem dimension n (u64)
//!     32     8  CG iteration counter (u64)
//!     40   n·p  iterate x
//!    +     n·p  residual r
//!    +     n·p  search direction d
//!    +     3·p  rho, delta, delta0
//!    +       4  CRC32 (IEEE) over all preceding bytes
//! ```
//!
//! All integers and scalars are little-endian; `p` is the precision.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::DataError;
use crate::io::{create_dir_durable_with, write_atomic_with};
use crate::real::Real;
use crate::vfs::{RealVfs, Vfs};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"PLSSVMCK";
/// The current snapshot format version.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed header length in bytes (everything before the scalar payload).
const HEADER_LEN: usize = 40;
/// Trailing checksum length.
const CRC_LEN: usize = 4;

/// Environment variable enabling deterministic crash injection: when set
/// to a generation number, [`CheckpointJournal::append`] calls
/// [`std::process::abort`] immediately *after* that generation has been
/// durably committed. Test-harness use only.
pub const CRASH_AFTER_ENV: &str = "PLSSVM_CRASH_AFTER_GENERATION";

/// Classified failures of checkpoint persistence and recovery.
#[derive(Debug)]
pub enum CheckpointError {
    /// An I/O failure with the path it happened on.
    Io {
        /// File or directory the operation was acting on.
        path: PathBuf,
        /// Underlying OS error.
        source: std::io::Error,
    },
    /// The file is shorter or longer than its own header promises.
    Truncated {
        /// Byte length the header implies.
        expected: u64,
        /// Actual byte length found.
        found: u64,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The snapshot was written with a different floating point precision.
    PrecisionMismatch {
        /// Bytes per scalar the caller expects (4 or 8).
        expected: u8,
        /// Bytes per scalar stored in the file.
        found: u8,
    },
    /// The stored CRC32 does not match the recomputed one (bit rot or a
    /// torn write that survived the length check).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// A scalar decoded to NaN or ±inf — a valid CG state is finite, so
    /// resuming from this snapshot would poison the solve.
    NonFinite {
        /// Which field held the non-finite value.
        field: &'static str,
    },
    /// The snapshot belongs to a different training invocation (data
    /// file, kernel parameters, cost or precision differ).
    ContextMismatch {
        /// Context hash stored in the snapshot.
        stored: u64,
        /// Context hash of the current invocation.
        expected: u64,
    },
    /// The snapshot's problem dimension does not match the current data.
    DimensionMismatch {
        /// Dimension stored in the snapshot.
        stored: u64,
        /// Dimension of the current problem.
        expected: u64,
    },
}

impl CheckpointError {
    /// True for failures that mean "this file is damaged or foreign" —
    /// recovery skips such generations and falls back to an older one.
    /// Context and dimension mismatches are *not* integrity failures:
    /// they mean the journal as a whole belongs to a different run, and
    /// silently skipping them would resume from the wrong training job.
    pub fn is_integrity_failure(&self) -> bool {
        !matches!(
            self,
            CheckpointError::ContextMismatch { .. } | CheckpointError::DimensionMismatch { .. }
        )
    }

    /// Short machine-readable tag for telemetry events.
    pub fn kind(&self) -> &'static str {
        match self {
            CheckpointError::Io { .. } => "io",
            CheckpointError::Truncated { .. } => "truncated",
            CheckpointError::BadMagic => "bad_magic",
            CheckpointError::UnsupportedVersion(_) => "unsupported_version",
            CheckpointError::PrecisionMismatch { .. } => "precision_mismatch",
            CheckpointError::ChecksumMismatch { .. } => "checksum_mismatch",
            CheckpointError::NonFinite { .. } => "non_finite",
            CheckpointError::ContextMismatch { .. } => "context_mismatch",
            CheckpointError::DimensionMismatch { .. } => "dimension_mismatch",
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O error on '{}': {source}", path.display())
            }
            CheckpointError::Truncated { expected, found } => write!(
                f,
                "checkpoint truncated: header implies {expected} bytes, found {found}"
            ),
            CheckpointError::BadMagic => write!(f, "not a PLSSVM checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::PrecisionMismatch { expected, found } => write!(
                f,
                "checkpoint precision mismatch: expected {expected}-byte scalars, found {found}"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::NonFinite { field } => {
                write!(f, "checkpoint holds a non-finite value in field '{field}'")
            }
            CheckpointError::ContextMismatch { stored, expected } => write!(
                f,
                "checkpoint belongs to a different training invocation \
                 (context hash {stored:#018x}, current invocation {expected:#018x}); \
                 data file, kernel parameters, cost and precision must match"
            ),
            CheckpointError::DimensionMismatch { stored, expected } => write!(
                f,
                "checkpoint dimension mismatch: snapshot has {stored} points, \
                 current problem has {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<DataError> for CheckpointError {
    fn from(e: DataError) -> Self {
        match e {
            DataError::IoPath { path, source } => CheckpointError::Io { path, source },
            DataError::Io(source) => CheckpointError::Io {
                path: PathBuf::new(),
                source,
            },
            other => CheckpointError::Io {
                path: PathBuf::new(),
                source: std::io::Error::other(other.to_string()),
            },
        }
    }
}

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum gzip and PNG use. Hand rolled bitwise so the workspace needs
/// no new dependency; snapshots are small enough that table-free speed
/// is irrelevant next to the fsync.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit hash, used to fingerprint the training invocation
/// (data file contents, kernel parameters, cost, precision) so `--resume`
/// can refuse snapshots from a different run.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes (for chaining fields).
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A solver-agnostic CG checkpoint: everything needed to continue the
/// recurrence bit-exactly, plus the context it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot<T> {
    /// Escalation-ladder rung this snapshot was taken on (0 = primary CG).
    pub rung: u8,
    /// FNV-1a 64 fingerprint of the training invocation.
    pub context_hash: u64,
    /// Absolute CG iteration counter at snapshot time.
    pub iterations: u64,
    /// Current iterate.
    pub x: Vec<T>,
    /// Current residual.
    pub r: Vec<T>,
    /// Current search direction.
    pub d: Vec<T>,
    /// `⟨r, r⟩` of the current residual.
    pub rho: T,
    /// Current convergence measure `‖r‖²` (or preconditioned equivalent).
    pub delta: T,
    /// Reference `‖r₀‖²` the relative termination test compares against.
    pub delta0: T,
}

impl<T: Real> Snapshot<T> {
    /// Serializes the snapshot into the version-1 binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.x.len();
        let mut out = Vec::with_capacity(HEADER_LEN + (3 * n + 3) * T::BYTES + CRC_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(T::BYTES as u8);
        out.push(self.rung);
        out.extend_from_slice(&[0u8; 2]);
        out.extend_from_slice(&self.context_hash.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&self.iterations.to_le_bytes());
        for vec in [&self.x, &self.r, &self.d] {
            for &v in vec.iter() {
                v.write_le(&mut out);
            }
        }
        self.rho.write_le(&mut out);
        self.delta.write_le(&mut out);
        self.delta0.write_le(&mut out);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and verifies a version-1 snapshot.
    ///
    /// Never panics on malformed input: every structural defect maps to a
    /// classified [`CheckpointError`]. Non-finite scalars are rejected —
    /// a valid CG state is finite, so NaN/inf can only mean corruption
    /// that happened to leave the checksum intact (or a checksummed
    /// snapshot of a diverged state that must not be resumed).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let found = bytes.len() as u64;
        if bytes.len() < HEADER_LEN + CRC_LEN {
            return Err(CheckpointError::Truncated {
                expected: (HEADER_LEN + CRC_LEN) as u64,
                found,
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let precision = bytes[12];
        if usize::from(precision) != T::BYTES {
            return Err(CheckpointError::PrecisionMismatch {
                expected: T::BYTES as u8,
                found: precision,
            });
        }
        let rung = bytes[13];
        let context_hash = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let dim = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let iterations = u64::from_le_bytes(bytes[32..40].try_into().unwrap());

        // The expected length is computed in u128 so a corrupt dimension
        // field cannot overflow (or drive a huge allocation: the length
        // check runs against the actual file size before any allocation).
        let expected =
            HEADER_LEN as u128 + (3 * dim as u128 + 3) * T::BYTES as u128 + CRC_LEN as u128;
        if u128::from(found) != expected {
            return Err(CheckpointError::Truncated {
                expected: expected.min(u128::from(u64::MAX)) as u64,
                found,
            });
        }
        let body_len = bytes.len() - CRC_LEN;
        let stored = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
        let computed = crc32(&bytes[..body_len]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let n = dim as usize;
        let mut offset = HEADER_LEN;
        let mut read_vec = |field: &'static str| -> Result<Vec<T>, CheckpointError> {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let v =
                    T::from_le(&bytes[offset..offset + T::BYTES]).expect("length verified above");
                if !v.is_finite() {
                    return Err(CheckpointError::NonFinite { field });
                }
                out.push(v);
                offset += T::BYTES;
            }
            Ok(out)
        };
        let x = read_vec("x")?;
        let r = read_vec("r")?;
        let d = read_vec("d")?;
        let mut read_scalar = |field: &'static str| -> Result<T, CheckpointError> {
            let v = T::from_le(&bytes[offset..offset + T::BYTES]).expect("length verified above");
            offset += T::BYTES;
            if !v.is_finite() {
                return Err(CheckpointError::NonFinite { field });
            }
            Ok(v)
        };
        let rho = read_scalar("rho")?;
        let delta = read_scalar("delta")?;
        let delta0 = read_scalar("delta0")?;
        Ok(Snapshot {
            rung,
            context_hash,
            iterations,
            x,
            r,
            d,
            rho,
            delta,
            delta0,
        })
    }
}

/// A snapshot recovered from the journal together with its generation.
#[derive(Debug, Clone)]
pub struct LoadedSnapshot<T> {
    /// Generation number of the file the snapshot came from.
    pub generation: u64,
    /// The verified snapshot.
    pub snapshot: Snapshot<T>,
}

/// A generation the loader had to skip, with the classified reason.
#[derive(Debug)]
pub struct SkippedGeneration {
    /// Generation number of the damaged file.
    pub generation: u64,
    /// Why it could not be used.
    pub reason: CheckpointError,
}

/// A directory of generation-numbered snapshot files.
///
/// Each [`append`](CheckpointJournal::append) writes
/// `gen-<number>.ckpt` atomically and durably, then prunes generations
/// older than the retention window.
/// [`load_latest`](CheckpointJournal::load_latest) walks generations
/// newest-first and returns the first one that verifies, reporting every
/// damaged file it skipped on the way.
#[derive(Debug, Clone)]
pub struct CheckpointJournal {
    dir: PathBuf,
    keep: usize,
    crash_after: Option<u64>,
    vfs: Arc<dyn Vfs>,
}

impl CheckpointJournal {
    /// Opens (creating if necessary) a journal directory keeping the last
    /// `keep` generations (clamped to at least 1).
    ///
    /// Reads [`CRASH_AFTER_ENV`] once at open time for the deterministic
    /// crash-injection harness.
    pub fn open(dir: impl AsRef<Path>, keep: usize) -> Result<Self, CheckpointError> {
        Self::open_with_vfs(dir, keep, Arc::new(RealVfs))
    }

    /// [`CheckpointJournal::open`] over an explicit [`Vfs`]; every
    /// journal operation — append, retention deletion, generation
    /// listing, load — goes through it, so a
    /// [`FaultVfs`](crate::vfs::FaultVfs) can fault any of them.
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        keep: usize,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        create_dir_durable_with(vfs.as_ref(), &dir)?;
        let crash_after = std::env::var(CRASH_AFTER_ENV)
            .ok()
            .and_then(|v| v.parse().ok());
        Ok(Self {
            dir,
            keep: keep.max(1),
            crash_after,
            vfs,
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The retention window (number of generations kept).
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// A sub-journal for one task of a composite training run (one class
    /// pair of a multiclass model, one output of a multi-output LS-SVR).
    /// Each task gets its own generation numbering under `task-<k>/`.
    pub fn for_task(&self, task: usize) -> Result<Self, CheckpointError> {
        let dir = self.dir.join(format!("task-{task:03}"));
        create_dir_durable_with(self.vfs.as_ref(), &dir)?;
        Ok(Self {
            dir,
            keep: self.keep,
            crash_after: self.crash_after,
            vfs: Arc::clone(&self.vfs),
        })
    }

    fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:08}.ckpt"))
    }

    /// All generation numbers present in the directory, ascending.
    pub fn generations(&self) -> Result<Vec<u64>, CheckpointError> {
        let names = match self.vfs.list_dir(&self.dir) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(CheckpointError::Io {
                    path: self.dir.clone(),
                    source: e,
                })
            }
        };
        let mut gens = Vec::new();
        for name in names {
            if let Some(num) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".ckpt"))
            {
                if let Ok(g) = num.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// True when the journal holds no snapshot files at all — a resume
    /// from an empty journal is a legitimate fresh start (the process
    /// died before the first checkpoint was ever written).
    pub fn is_empty(&self) -> Result<bool, CheckpointError> {
        Ok(self.generations()?.is_empty())
    }

    /// Durably appends a snapshot as the next generation, returning its
    /// generation number. Retention pruning runs after the new
    /// generation is committed; pruning failures are ignored (old
    /// generations are garbage, not state).
    pub fn append<T: Real>(&self, snapshot: &Snapshot<T>) -> Result<u64, CheckpointError> {
        let existing = self.generations()?;
        let generation = existing.last().map_or(1, |g| g + 1);
        let bytes = snapshot.to_bytes();
        write_atomic_with(self.vfs.as_ref(), &self.generation_path(generation), &bytes)?;
        if self.crash_after == Some(generation) {
            // Deterministic crash injection for the recovery harness:
            // die *after* the generation is durable, the worst possible
            // moment for every earlier generation's retention logic.
            std::process::abort();
        }
        for &old in existing.iter() {
            if old + self.keep as u64 <= generation {
                // Retention failures (e.g. injected ENOSPC/EIO on the
                // unlink) are ignored: old generations are garbage, not
                // state, and the new generation is already durable.
                let _ = self.vfs.remove_file(&self.generation_path(old));
            }
        }
        Ok(generation)
    }

    /// Loads the newest generation that passes verification.
    ///
    /// Damaged generations (torn writes, bit rot, foreign files) are
    /// skipped newest-first and reported in the second tuple element so
    /// the caller can surface `recovery` telemetry; they never panic and
    /// never abort the load. Returns `Ok((None, skipped))` when no
    /// generation verifies.
    pub fn load_latest<T: Real>(
        &self,
    ) -> Result<(Option<LoadedSnapshot<T>>, Vec<SkippedGeneration>), CheckpointError> {
        let mut skipped = Vec::new();
        for generation in self.generations()?.into_iter().rev() {
            let path = self.generation_path(generation);
            let attempt = self
                .vfs
                .read(&path)
                .map_err(|e| CheckpointError::Io {
                    path: path.clone(),
                    source: e,
                })
                .and_then(|bytes| Snapshot::<T>::from_bytes(&bytes));
            match attempt {
                Ok(snapshot) => {
                    return Ok((
                        Some(LoadedSnapshot {
                            generation,
                            snapshot,
                        }),
                        skipped,
                    ))
                }
                Err(reason) => skipped.push(SkippedGeneration { generation, reason }),
            }
        }
        Ok((None, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn sample<T: Real>() -> Snapshot<T> {
        Snapshot {
            rung: 2,
            context_hash: 0xDEAD_BEEF_0123_4567,
            iterations: 42,
            x: vec![T::from_f64(1.5), T::from_f64(-2.25), T::from_f64(0.0)],
            r: vec![T::from_f64(0.5), T::from_f64(1e-8), T::from_f64(-3.0)],
            d: vec![T::from_f64(-0.125), T::from_f64(7.0), T::from_f64(2.5)],
            rho: T::from_f64(0.75),
            delta: T::from_f64(1e-6),
            delta0: T::from_f64(123.0),
        }
    }

    fn journal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plssvm_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        // standard test vector for the IEEE polynomial
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn roundtrip_f64_and_f32() {
        let s = sample::<f64>();
        assert_eq!(Snapshot::<f64>::from_bytes(&s.to_bytes()).unwrap(), s);
        let s = sample::<f32>();
        assert_eq!(Snapshot::<f32>::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn rejects_bad_magic_version_precision() {
        let good = sample::<f64>().to_bytes();

        let mut b = good.clone();
        b[0] = b'X';
        assert!(matches!(
            Snapshot::<f64>::from_bytes(&b),
            Err(CheckpointError::BadMagic)
        ));

        let mut b = good.clone();
        b[8] = 99;
        assert!(matches!(
            Snapshot::<f64>::from_bytes(&b),
            Err(CheckpointError::UnsupportedVersion(99))
        ));

        assert!(matches!(
            Snapshot::<f32>::from_bytes(&good),
            Err(CheckpointError::PrecisionMismatch {
                expected: 4,
                found: 8
            })
        ));
    }

    #[test]
    fn rejects_truncation_and_bitflips() {
        let good = sample::<f64>().to_bytes();
        // torn write: any strict prefix must be rejected
        for cut in [0, 7, 12, 39, 40, good.len() - 5, good.len() - 1] {
            assert!(
                Snapshot::<f64>::from_bytes(&good[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        // single bit flips anywhere in the payload or checksum are caught
        for byte in [41, good.len() / 2, good.len() - 2] {
            let mut b = good.clone();
            b[byte] ^= 0x10;
            assert!(
                Snapshot::<f64>::from_bytes(&b).is_err(),
                "bit flip at {byte} accepted"
            );
        }
    }

    #[test]
    fn rejects_non_finite_payload() {
        let mut s = sample::<f64>();
        s.r[1] = f64::NAN;
        let b = s.to_bytes();
        assert!(matches!(
            Snapshot::<f64>::from_bytes(&b),
            Err(CheckpointError::NonFinite { field: "r" })
        ));
        let mut s = sample::<f32>();
        s.delta0 = f32::INFINITY;
        assert!(matches!(
            Snapshot::<f32>::from_bytes(&s.to_bytes()),
            Err(CheckpointError::NonFinite { field: "delta0" })
        ));
    }

    #[test]
    fn journal_append_load_roundtrip() {
        let dir = journal_dir("roundtrip");
        let journal = CheckpointJournal::open(&dir, 3).unwrap();
        assert!(journal.is_empty().unwrap());
        let mut snap = sample::<f64>();
        assert_eq!(journal.append(&snap).unwrap(), 1);
        snap.iterations = 50;
        assert_eq!(journal.append(&snap).unwrap(), 2);
        let (loaded, skipped) = journal.load_latest::<f64>().unwrap();
        let loaded = loaded.unwrap();
        assert!(skipped.is_empty());
        assert_eq!(loaded.generation, 2);
        assert_eq!(loaded.snapshot, snap);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_retention_prunes_old_generations() {
        let dir = journal_dir("retention");
        let journal = CheckpointJournal::open(&dir, 2).unwrap();
        let snap = sample::<f64>();
        for _ in 0..5 {
            journal.append(&snap).unwrap();
        }
        assert_eq!(journal.generations().unwrap(), vec![4, 5]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_falls_back_past_corrupt_tail() {
        let dir = journal_dir("fallback");
        let journal = CheckpointJournal::open(&dir, 5).unwrap();
        let mut snap = sample::<f64>();
        journal.append(&snap).unwrap(); // gen 1
        snap.iterations = 99;
        journal.append(&snap).unwrap(); // gen 2
        snap.iterations = 150;
        journal.append(&snap).unwrap(); // gen 3

        // corrupt gen 3 with a bit flip, truncate gen 2
        let g3 = dir.join("gen-00000003.ckpt");
        let mut bytes = fs::read(&g3).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&g3, &bytes).unwrap();
        let g2 = dir.join("gen-00000002.ckpt");
        let bytes = fs::read(&g2).unwrap();
        fs::write(&g2, &bytes[..bytes.len() / 3]).unwrap();

        let (loaded, skipped) = journal.load_latest::<f64>().unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.snapshot.iterations, 42);
        assert_eq!(skipped.len(), 2);
        assert_eq!(skipped[0].generation, 3);
        assert_eq!(skipped[0].reason.kind(), "checksum_mismatch");
        assert_eq!(skipped[1].generation, 2);
        assert_eq!(skipped[1].reason.kind(), "truncated");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_all_corrupt_reports_everything() {
        let dir = journal_dir("all_corrupt");
        let journal = CheckpointJournal::open(&dir, 5).unwrap();
        journal.append(&sample::<f64>()).unwrap();
        fs::write(dir.join("gen-00000001.ckpt"), b"garbage").unwrap();
        let (loaded, skipped) = journal.load_latest::<f64>().unwrap();
        assert!(loaded.is_none());
        assert_eq!(skipped.len(), 1);
        assert!(!journal.is_empty().unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn task_journals_are_independent() {
        let dir = journal_dir("tasks");
        let journal = CheckpointJournal::open(&dir, 3).unwrap();
        let t0 = journal.for_task(0).unwrap();
        let t1 = journal.for_task(1).unwrap();
        t0.append(&sample::<f64>()).unwrap();
        assert!(t1.is_empty().unwrap());
        assert!(journal.is_empty().unwrap()); // root has no gen files
        let (loaded, _) = t0.load_latest::<f64>().unwrap();
        assert_eq!(loaded.unwrap().generation, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatch_errors_are_not_integrity_failures() {
        assert!(!CheckpointError::ContextMismatch {
            stored: 1,
            expected: 2
        }
        .is_integrity_failure());
        assert!(!CheckpointError::DimensionMismatch {
            stored: 1,
            expected: 2
        }
        .is_integrity_failure());
        assert!(CheckpointError::BadMagic.is_integrity_failure());
        assert!(CheckpointError::Truncated {
            expected: 44,
            found: 7
        }
        .is_integrity_failure());
    }
}

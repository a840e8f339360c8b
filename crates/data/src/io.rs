//! Atomic, durable file writes shared by every artifact writer.
//!
//! A plain `File::create` + write leaves a truncated file behind when the
//! process dies mid-write, and even a completed write may not survive a
//! power loss until the data *and* the directory entry are fsynced. Every
//! artifact the workspace persists — model files, scale ranges, checkpoint
//! snapshots, telemetry JSON lines — goes through [`write_atomic`]:
//!
//! 1. write the full contents to a unique temporary file in the *same*
//!    directory (rename is only atomic within a filesystem),
//! 2. `fsync` the temporary file,
//! 3. verify the temporary file's on-disk length matches what was
//!    written (a silent short write must not be installed),
//! 4. `rename` it over the destination (atomic replace on POSIX),
//! 5. `fsync` the parent directory so the rename itself is durable.
//!
//! Readers therefore observe either the old contents or the complete new
//! contents, never a torn intermediate state.
//!
//! All filesystem access goes through a [`Vfs`] so the storage-fault
//! injector ([`crate::vfs::FaultVfs`]) can exercise every failure point;
//! [`write_atomic`] is the production entry point over [`RealVfs`], and
//! [`write_atomic_with`] takes an explicit [`Vfs`].

use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::DataError;
use crate::vfs::{RealVfs, Vfs};

/// Process-wide counter making concurrent temp names unique.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The parent directory of `path`, defaulting to `.` for bare file names.
fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if p.as_os_str().is_empty() => PathBuf::from("."),
        Some(p) => p.to_path_buf(),
        None => PathBuf::from("."),
    }
}

/// A temp-file name unique across threads and processes, placed next to
/// the destination so the final rename stays within one filesystem.
fn temp_path_for(path: &Path) -> PathBuf {
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_owned());
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    parent_dir(path).join(format!(".{stem}.tmp.{}.{seq}", std::process::id()))
}

/// Atomically and durably replaces `path` with `bytes` via [`RealVfs`].
///
/// On error the destination is untouched (modulo a leftover `.tmp` file,
/// which subsequent successful writes never observe).
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), DataError> {
    write_atomic_with(&RealVfs, path.as_ref(), bytes)
}

/// Atomically and durably replaces `path` with `bytes` through `vfs`.
///
/// Identical guarantees to [`write_atomic`]; the explicit [`Vfs`] lets
/// fault-injection harnesses and the `--io-faults` CLI flag drive every
/// step (temp write, fsync, length check, rename, directory fsync)
/// through scheduled storage failures.
pub fn write_atomic_with(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), DataError> {
    let tmp = temp_path_for(path);
    let result = (|| {
        vfs.create_write(&tmp, bytes)
            .map_err(|e| DataError::io_path(&tmp, e))?;
        vfs.sync_file(&tmp)
            .map_err(|e| DataError::io_path(&tmp, e))?;
        // A short write that reported success would otherwise be renamed
        // into place as a "valid" artifact; refuse to install it.
        let on_disk = vfs
            .file_len(&tmp)
            .map_err(|e| DataError::io_path(&tmp, e))?;
        if on_disk != bytes.len() as u64 {
            return Err(DataError::io_path(
                &tmp,
                std::io::Error::other(format!(
                    "short write: {on_disk} of {} bytes reached disk",
                    bytes.len()
                )),
            ));
        }
        vfs.rename(&tmp, path)
            .map_err(|e| DataError::io_path(path, e))?;
        vfs.sync_dir(&parent_dir(path))
            .map_err(|e| DataError::io_path(parent_dir(path), e))
    })();
    if result.is_err() {
        let _ = vfs.remove_file(&tmp);
    }
    result
}

/// Durably creates a directory (and its parents) through `vfs`, fsyncing
/// the grandparent so the new entry survives a crash.
pub fn create_dir_durable_with(vfs: &dyn Vfs, dir: &Path) -> Result<(), DataError> {
    vfs.create_dir_all(dir)
        .map_err(|e| DataError::io_path(dir, e))?;
    // Walk up and fsync each ancestor we may have created. Syncing an
    // already-durable directory is harmless, so sync them all.
    let mut current = dir.to_path_buf();
    loop {
        vfs.sync_dir(&current)
            .map_err(|e| DataError::io_path(&current, e))?;
        match current.parent() {
            Some(p)
                if !p.as_os_str().is_empty()
                    && !matches!(p.components().next_back(), Some(Component::RootDir)) =>
            {
                current = p.to_path_buf();
            }
            _ => break,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plssvm_io_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_new_file() {
        let dir = temp_dir("new");
        let path = dir.join("a.txt");
        write_atomic(&path, b"hello").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replaces_existing_file() {
        let dir = temp_dir("replace");
        let path = dir.join("a.txt");
        fs::write(&path, b"old").unwrap();
        write_atomic(&path, b"new contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new contents");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_temp_file_left_behind() {
        let dir = temp_dir("clean");
        write_atomic(dir.join("a.txt"), b"x").unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_reports_path() {
        let missing = temp_dir("err").join("nope").join("a.txt");
        let err = write_atomic(&missing, b"x").unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn bare_file_name_resolves_to_cwd() {
        // never mutate the process CWD in a test — just check the helper
        assert_eq!(parent_dir(Path::new("bare.txt")), PathBuf::from("."));
        assert_eq!(parent_dir(Path::new("a/b.txt")), PathBuf::from("a"));
        let tmp = temp_path_for(Path::new("bare.txt"));
        assert_eq!(tmp.parent(), Some(Path::new(".")));
    }

    #[test]
    fn create_dir_durable_is_idempotent() {
        let dir = temp_dir("mkdir").join("a").join("b");
        create_dir_durable_with(&RealVfs, &dir).unwrap();
        create_dir_durable_with(&RealVfs, &dir).unwrap();
        assert!(dir.is_dir());
        fs::remove_dir_all(dir.parent().unwrap().parent().unwrap()).ok();
    }

    #[test]
    fn short_write_is_refused_and_old_contents_survive() {
        use crate::vfs::{FaultKind, FaultPlan, FaultVfs, OpClass};
        let dir = temp_dir("short");
        let path = dir.join("a.txt");
        fs::write(&path, b"old contents").unwrap();
        let vfs = FaultVfs::new(FaultPlan::new().fault(
            FaultKind::ShortWrite,
            OpClass::Write,
            0,
            None,
            false,
        ));
        let err = write_atomic_with(&vfs, &path, b"replacement!").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"old contents");
        fs::remove_dir_all(&dir).ok();
    }
}

//! Crash-safe artifact I/O: atomic whole-file writes.
//!
//! Every file the workspace emits — observability JSON/CSV, metrics
//! exposition, figure reports — goes through [`atomic_write`], so there
//! are no torn artifacts: the bytes are staged in a `path.tmp` sibling,
//! synced, then renamed over the destination. A crash mid-write leaves
//! either the old file or the new one, never a half-written hybrid.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The staging sibling [`atomic_write`] uses: `path` with `.tmp` appended
/// to the file name (not replacing the extension, so `a.json` stages as
/// `a.json.tmp`).
pub fn atomic_write_staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `bytes` to `path` atomically: stage in `path.tmp`, sync to
/// disk, rename over the destination. On any error the destination is
/// untouched (the stale staging file is removed best-effort).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let staging = atomic_write_staging_path(path);
    let write = (|| {
        let mut file = File::create(&staging)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        Ok(())
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&staging);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&staging, path) {
        let _ = std::fs::remove_file(&staging);
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("slicc-io-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_staging_file() {
        let path = temp_path("atomic");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!atomic_write_staging_path(&path).exists(), "staging file must be renamed away");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_failure_keeps_the_old_contents() {
        let path = temp_path("atomic-fail");
        atomic_write(&path, b"keep me").unwrap();
        // A directory squatting on the staging name makes the staged
        // write fail before the destination is touched.
        let staging = atomic_write_staging_path(&path);
        std::fs::create_dir(&staging).unwrap();
        assert!(atomic_write(&path, b"torn").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"keep me", "a failed write must not tear");
        std::fs::remove_dir(&staging).unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}

//! Crash-safe file replacement shared by every on-disk store (job state,
//! sweep manifests, the FEA stress cache).

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tie-breaker for concurrent writers in one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `dir/file` atomically, creating `dir` if needed.
///
/// The bytes go to a unique `.{file}.{pid}.{seq}.tmp` sibling first and
/// are moved into place with `rename`, so a reader — or a process
/// restarted after `kill -9` — sees either the previous complete file or
/// the new one, never a torn write. Concurrent writers of the same file
/// each land a complete file, and the last rename wins.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_atomic(dir: &Path, file: &str, bytes: &[u8]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".{file}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, dir.join(file))
}

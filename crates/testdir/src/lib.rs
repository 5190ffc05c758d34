//! Unique, self-deleting scratch directories for tests.
//!
//! Tests run in parallel threads of one process (and test binaries in
//! parallel processes), so a fixture path built from a fixed name — or
//! from the pid alone — is shared by every test that uses it: one test
//! truncates and rewrites a file while a sibling is reading it. A
//! [`TestDir`] is private to its creator: its name combines the pid,
//! a caller tag (the test's name) and a process-wide counter, and the
//! directory is removed when the value drops.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it on drop.
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Creates `$TMPDIR/utk_<tag>_<pid>_<counter>`. `tag` should name
    /// the test; it keeps leftover directories of a killed run
    /// attributable. Any stale directory at that path (a recycled pid)
    /// is removed first.
    ///
    /// # Panics
    /// Panics if the directory cannot be created — a test fixture
    /// failure.
    pub fn new(tag: &str) -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("utk_{tag}_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        if let Err(e) = std::fs::create_dir_all(&path) {
            // utk-lint: allow(panic) -- documented # Panics contract of a test fixture
            panic!("creating test dir {}: {e}", path.display());
        }
        Self { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `self.path().join(name)`.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_unique_and_removed_on_drop() {
        let a = TestDir::new("testdir_self");
        let b = TestDir::new("testdir_self");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f.txt"), "x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}

//! # aida-testkit — deterministic crash-injection test harness
//!
//! Shared scaffolding for the durability test suite: per-test temp
//! directories (so `cargo test` is parallel-safe), the simulated network
//! fabric, and re-exports of the crash-injection machinery from
//! [`aida_llm::snapshot`].
//!
//! The crash model these tools exercise: a process can die at any of the
//! [`CrashPoint`]s threaded through the snapshot-save and WAL-append
//! paths, possibly leaving a torn (prefix-only) write behind. Recovery
//! must land in either the pre-crash persisted state or the committed
//! state — never anything in between.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub mod netsim;

pub use aida_llm::snapshot::{CrashPoint, FailPlan};
pub use netsim::{NetSim, NetSimConfig};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A per-test scratch directory, removed on drop.
///
/// The path embeds the label, the process id, and a process-wide
/// counter, so concurrently running tests (and concurrently running
/// `cargo test` invocations) never collide on artifact paths.
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Creates a fresh scratch directory under the system temp dir.
    pub fn new(label: &str) -> TestDir {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("aida-test-{label}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path).expect("create test dir");
        TestDir { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for a named file inside the directory (not created).
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_dirs_are_distinct_and_cleaned_up() {
        let a = TestDir::new("x");
        let b = TestDir::new("x");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        let kept = a.path().to_path_buf();
        fs::write(a.file("f.txt"), "data").unwrap();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}

//! Durable storage for MAGIK-rs reasoning sessions.
//!
//! The in-memory engine (`magik-server`) serializes every mutation through
//! one writer mutex and publishes epoch-tagged immutable snapshots — which
//! makes durability architecturally cheap: the writer stream *is* a log,
//! and a snapshot *is* a consistent checkpoint image. This crate supplies
//! the disk half of that observation:
//!
//! * [`Wal`] — an append-only, segment-rotated **write-ahead log** of
//!   mutation ops. Each record is a CRC-framed, length-prefixed payload
//!   carrying the op's *text* (the protocol request remainder) and the
//!   **post-op epochs** `(tcs_epoch, data_epoch)`. Storing text rather
//!   than decoded structures keeps replay on the exact same parse/apply
//!   path as live traffic. Fsync behaviour is a [`FsyncPolicy`].
//! * [`checkpoint`] — compact **snapshot checkpoints**: vocabulary, TCS
//!   set and fact instance serialized with the versioned binary codec of
//!   `magik_relalg::codec`, written to a temp file, fsynced, and
//!   atomically renamed into place. The materialized T_C model is *not*
//!   stored; it is a deterministic function of (TCS, facts) and is rebuilt
//!   on load.
//! * [`Store`] — the composition: open a directory, **recover** (newest
//!   valid checkpoint + WAL tail, torn tails discarded by CRC, epoch
//!   continuity verified), then serve appends and periodic checkpoints.
//!   After a checkpoint, WAL segments covered by the *older* retained
//!   checkpoint are truncated, so a corrupt newest checkpoint can always
//!   fall back one generation without losing log coverage.
//!
//! Every failure surfaces as a [`StorageError`] — recovery never panics
//! on arbitrary disk bytes, and corruption anywhere but the final
//! segment's tail is reported, not silently skipped.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
mod crc;
mod store;
mod wal;

use std::fmt;
use std::path::PathBuf;

pub use checkpoint::{install_checkpoint, CheckpointImage};
pub use store::{CheckpointOutcome, Recovery, Store, StoreOptions};
pub use wal::{Append, FrameHeader, FsyncPolicy, OpKind, WalRecord, FRAME_HEADER_LEN};

/// Why a storage operation failed.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// On-disk bytes that are structurally invalid: a CRC mismatch away
    /// from the log tail, an undecodable checkpoint, an epoch gap, …
    Corrupt {
        /// The file the corruption was found in.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt { path, detail } => {
                write!(f, "corrupt storage in {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Creates a fresh, uniquely named scratch directory for a test.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "magik-storage-{name}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

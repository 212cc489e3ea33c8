//! [`CheckpointStore`] — a directory of atomically committed checkpoint
//! files with retention and torn-write recovery.
//!
//! Commit protocol: the encoded checkpoint is written to a `.tmp` file,
//! `fsync`ed, then renamed over its final name (`ckpt-<key hex>.bin`);
//! POSIX rename atomicity guarantees a reader sees either the old state or
//! the complete new file, never a partial one. A `MANIFEST` listing is
//! rewritten the same way, but is advisory only — [`CheckpointStore::open`]
//! trusts the directory scan, so a crash between the rename and the
//! manifest rewrite loses nothing. If a checkpoint is torn anyway (power
//! loss on a filesystem that reorders the rename before the data blocks),
//! the per-section CRCs catch it and [`CheckpointStore::load_latest`] falls
//! back to the newest checkpoint that still validates. A checkpoint written
//! in another format version is not torn, so it is never skipped that way.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use hotspot_telemetry as telemetry;

use crate::bundle::CheckpointBundle;
use crate::file::CheckpointFile;
use crate::StoreError;

/// Advisory listing file kept next to the checkpoints.
const MANIFEST_NAME: &str = "MANIFEST";
/// First line of the manifest, identifying its schema.
const MANIFEST_HEADER: &str = "lithohd-checkpoint-manifest v1";

/// How many checkpoints [`CheckpointStore`] retains by default.
pub const DEFAULT_KEEP_LAST: usize = 3;

fn checkpoint_file_name(key: u64) -> String {
    format!("ckpt-{key:016x}.bin")
}

fn parse_checkpoint_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// A directory of checkpoints keyed by a strictly increasing `u64`
/// (typically the iteration number, or a global ordinal across several
/// runs).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep_last: usize,
    /// Committed keys, ascending.
    keys: Vec<u64>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory and indexes the
    /// checkpoints already present. Files are discovered by directory scan;
    /// the manifest is advisory and never trusted over the scan.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created or read.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut keys = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            if let Some(key) = entry
                .file_name()
                .to_str()
                .and_then(parse_checkpoint_file_name)
            {
                keys.push(key);
            }
        }
        keys.sort_unstable();
        keys.dedup();
        Ok(CheckpointStore {
            dir,
            keep_last: DEFAULT_KEEP_LAST,
            keys,
        })
    }

    /// Sets how many checkpoints to retain (older ones are deleted after
    /// each successful save). A value of 0 is treated as 1 — the store
    /// never deletes the checkpoint it just committed.
    pub fn keep_last(mut self, n: usize) -> Self {
        self.keep_last = n.max(1);
        self
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed keys, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The newest committed key, if any checkpoint exists.
    pub fn latest_key(&self) -> Option<u64> {
        self.keys.last().copied()
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(checkpoint_file_name(key))
    }

    /// Atomically commits `file` under `key`, then applies retention and
    /// rewrites the manifest.
    ///
    /// # Errors
    ///
    /// [`StoreError::NonMonotoneKey`] if `key` does not exceed every
    /// committed key, [`StoreError::Io`] on filesystem failure. Retention
    /// and manifest failures after the commit rename are NOT errors — the
    /// checkpoint is durable at that point.
    pub fn save(&mut self, key: u64, file: &CheckpointFile) -> Result<(), StoreError> {
        if let Some(&last) = self.keys.last() {
            if key <= last {
                return Err(StoreError::NonMonotoneKey { key, last });
            }
        }
        let bytes = file.encode();
        let final_path = self.path_for(key);
        let tmp_path = self.dir.join(format!("{}.tmp", checkpoint_file_name(key)));
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // Best-effort directory fsync so the rename itself is durable; not
        // all platforms support opening a directory for sync, and the data
        // is already safe in the file, so failures are ignored.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.keys.push(key);

        telemetry::counter(telemetry::names::CHECKPOINT_SAVES).incr();
        telemetry::counter(telemetry::names::CHECKPOINT_BYTES).add(bytes.len() as u64);
        telemetry::debug(
            "store.checkpoint",
            "checkpoint committed",
            &[("key", key.into())],
        );

        self.apply_retention();
        self.rewrite_manifest();
        Ok(())
    }

    /// Deletes the oldest checkpoints beyond `keep_last`. Best effort: a
    /// file that cannot be deleted stays on disk but is dropped from the
    /// index (a later `open` will pick it up again).
    fn apply_retention(&mut self) {
        while self.keys.len() > self.keep_last {
            let key = self.keys.remove(0);
            let _ = fs::remove_file(self.path_for(key));
        }
    }

    /// Rewrites the advisory manifest listing, also via tmp + rename. Best
    /// effort: the manifest is never load-bearing.
    fn rewrite_manifest(&self) {
        let mut listing = String::from(MANIFEST_HEADER);
        listing.push('\n');
        for &key in &self.keys {
            listing.push_str(&format!("{key} {}\n", checkpoint_file_name(key)));
        }
        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        let write = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(listing.as_bytes()).and_then(|()| f.sync_all()));
        if write.is_ok() {
            let _ = fs::rename(&tmp, self.dir.join(MANIFEST_NAME));
        }
    }

    /// Loads and validates the checkpoint committed under `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] (including not-found), or any decode error from
    /// [`CheckpointFile::decode`] if the file is torn or corrupt.
    pub fn load(&self, key: u64) -> Result<CheckpointFile, StoreError> {
        let bytes = fs::read(self.path_for(key))?;
        CheckpointFile::decode(&bytes)
    }

    /// Loads the newest checkpoint that validates, skipping (and counting)
    /// torn or corrupt ones. Returns `Ok(None)` when the store holds no
    /// valid checkpoint at all.
    ///
    /// # Errors
    ///
    /// Never fails on corrupt checkpoints — those are skipped with a
    /// warning. [`StoreError::UnsupportedVersion`] propagates: a file from
    /// another format version committed whole, and skipping it would
    /// silently restart a run that was further along. Unexpected I/O errors
    /// on an existing file propagate too.
    pub fn load_latest(&self) -> Result<Option<(u64, CheckpointFile)>, StoreError> {
        for &key in self.keys.iter().rev() {
            let bytes = match fs::read(self.path_for(key)) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(StoreError::Io(e)),
            };
            match CheckpointFile::decode(&bytes) {
                Ok(file) => return Ok(Some((key, file))),
                Err(e @ StoreError::UnsupportedVersion { .. }) => return Err(e),
                Err(e) => {
                    telemetry::counter(telemetry::names::CHECKPOINT_CORRUPT_SKIPPED).incr();
                    telemetry::warn(
                        "store.checkpoint",
                        "skipping corrupt checkpoint",
                        &[("key", key.into()), ("error", format!("{e}").into())],
                    );
                }
            }
        }
        Ok(None)
    }

    /// [`CheckpointStore::load_latest`] decoded straight into a
    /// [`CheckpointBundle`] — the common shape for resume paths (bench
    /// harness, serving sessions) that treat "latest valid commit" and
    /// "latest usable bundle" as the same thing. A checkpoint that decodes
    /// as a file but not as a bundle is an error, not a fallback: its bytes
    /// committed atomically, so the payload schema (not torn writes) is
    /// what broke.
    ///
    /// # Errors
    ///
    /// Propagates store read errors and bundle decode errors.
    pub fn load_latest_bundle(&self) -> Result<Option<(u64, CheckpointBundle)>, StoreError> {
        match self.load_latest()? {
            Some((key, file)) => Ok(Some((key, CheckpointBundle::from_file(&file)?))),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FORMAT_VERSION;
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("hotspot-store-{tag}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn file_with(tag: u8) -> CheckpointFile {
        let mut f = CheckpointFile::new();
        f.put("meta", vec![tag; 16]);
        f
    }

    #[test]
    fn save_load_and_reopen() {
        let dir = temp_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.latest_key(), None);
        assert!(store.load_latest().unwrap().is_none());

        store.save(1, &file_with(1)).unwrap();
        store.save(2, &file_with(2)).unwrap();
        assert_eq!(store.load(1).unwrap(), file_with(1));

        // A fresh open re-indexes from the directory scan alone.
        let reopened = CheckpointStore::open(&dir).unwrap();
        assert_eq!(reopened.keys(), &[1, 2]);
        let (key, latest) = reopened.load_latest().unwrap().unwrap();
        assert_eq!(key, 2);
        assert_eq!(latest, file_with(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_must_strictly_increase() {
        let dir = temp_dir("monotone");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(5, &file_with(5)).unwrap();
        assert!(matches!(
            store.save(5, &file_with(5)),
            Err(StoreError::NonMonotoneKey { key: 5, last: 5 })
        ));
        assert!(matches!(
            store.save(4, &file_with(4)),
            Err(StoreError::NonMonotoneKey { key: 4, last: 5 })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_only_the_newest() {
        let dir = temp_dir("retention");
        let mut store = CheckpointStore::open(&dir).unwrap().keep_last(2);
        for key in 1..=5 {
            store.save(key, &file_with(key as u8)).unwrap();
        }
        assert_eq!(store.keys(), &[4, 5]);
        let on_disk = CheckpointStore::open(&dir).unwrap();
        assert_eq!(on_disk.keys(), &[4, 5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_valid() {
        let dir = temp_dir("fallback");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(1, &file_with(1)).unwrap();
        store.save(2, &file_with(2)).unwrap();
        let before = telemetry::counter(telemetry::names::CHECKPOINT_CORRUPT_SKIPPED).get();

        // Tear the newest checkpoint in half behind the store's back.
        let path = dir.join(checkpoint_file_name(2));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let (key, file) = store.load_latest().unwrap().unwrap();
        assert_eq!(key, 1);
        assert_eq!(file, file_with(1));
        assert_eq!(
            telemetry::counter(telemetry::names::CHECKPOINT_CORRUPT_SKIPPED).get(),
            before + 1
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_of_another_format_version_is_an_error_not_a_skip() {
        let dir = temp_dir("version");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(1, &file_with(1)).unwrap();
        store.save(2, &file_with(2)).unwrap();

        // Rewrite the newest checkpoint's version field, as a build with a
        // different format would have written it.
        let path = dir.join(checkpoint_file_name(2));
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        assert!(matches!(
            store.load_latest(),
            Err(StoreError::UnsupportedVersion { found }) if found == FORMAT_VERSION - 1
        ));
        assert!(matches!(
            store.load_latest_bundle(),
            Err(StoreError::UnsupportedVersion { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_lists_retained_checkpoints() {
        let dir = temp_dir("manifest");
        let mut store = CheckpointStore::open(&dir).unwrap().keep_last(2);
        for key in 1..=3 {
            store.save(key, &file_with(key as u8)).unwrap();
        }
        let manifest = fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        let mut lines = manifest.lines();
        assert_eq!(lines.next(), Some(MANIFEST_HEADER));
        assert_eq!(lines.next(), Some("2 ckpt-0000000000000002.bin"));
        assert_eq!(lines.next(), Some("3 ckpt-0000000000000003.bin"));
        assert_eq!(lines.next(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}

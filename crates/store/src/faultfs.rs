//! Deterministic in-memory storage with fault injection.
//!
//! [`MemStorage`] implements [`Storage`] over a byte-for-byte model of a
//! crash-consistent file system: every file is a `durable` prefix (bytes
//! that survived an fsync) plus a `pending` tail (appended but not yet
//! synced). Three fault levers drive the crash-equivalence proptests:
//!
//! 1. **Write budget** — after `N` appended bytes the storage "kills" the
//!    process: the offending append writes a *partial prefix* (a torn
//!    write) and every later operation fails. Sweeping `N` over the byte
//!    length of a run visits every possible crash point.
//! 2. **Crash image** — [`MemStorage::crash_image`] snapshots what a
//!    restarted process would read: durable bytes always, pending bytes
//!    only if `keep_unsynced` (modelling an OS that flushed the page cache
//!    without an explicit fsync).
//! 3. **Tampering** — [`MemStorage::tear`] and [`MemStorage::flip_bit`]
//!    mutate a crash image after the fact, modelling truncated tails and
//!    media bit rot.
//!
//! Everything is deterministic: no clocks, no randomness, no threads.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::storage::{Storage, StorageFile};

#[derive(Debug, Default, Clone)]
struct MemFile {
    /// Bytes made durable by a sync.
    durable: Vec<u8>,
    /// Bytes appended since the last sync.
    pending: Vec<u8>,
}

#[derive(Debug, Default)]
struct Inner {
    files: BTreeMap<String, MemFile>,
    /// Remaining bytes the storage will accept before the simulated crash.
    budget: Option<u64>,
    /// Set once the budget is exhausted; every later operation fails.
    killed: bool,
    /// Total bytes ever appended (for sizing fault-point sweeps).
    written: u64,
}

/// Deterministic in-memory [`Storage`] with crash and corruption levers.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    inner: Arc<Mutex<Inner>>,
}

/// The error every operation returns after the simulated crash.
fn killed_err() -> io::Error {
    io::Error::other("faultfs: storage killed by write budget")
}

impl MemStorage {
    /// Creates an empty storage with no fault plan.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms the crash lever: after `budget` more appended bytes, counted
    /// from this call (not from [`MemStorage::bytes_written`]), the
    /// storage tears the in-flight write and kills every later operation.
    /// `None` disarms it.
    pub fn set_write_budget(&self, budget: Option<u64>) {
        let mut inner = self.lock();
        inner.budget = budget;
    }

    /// True once the write budget has been exhausted.
    pub fn killed(&self) -> bool {
        self.lock().killed
    }

    /// Total bytes appended over the storage's lifetime (durable or not).
    /// A [`MemStorage::crash_image`] inherits the count, so measure an
    /// operation's write volume as a difference, never as an offset for
    /// [`MemStorage::set_write_budget`].
    pub fn bytes_written(&self) -> u64 {
        self.lock().written
    }

    /// Current length of a file as a live reader would see it.
    pub fn file_len(&self, name: &str) -> Option<usize> {
        let inner = self.lock();
        inner
            .files
            .get(name)
            .map(|f| f.durable.len() + f.pending.len())
    }

    /// Snapshots the state a restarted process would observe. Durable
    /// bytes always survive; pending bytes survive only if
    /// `keep_unsynced`. The image is a fresh, healthy storage with no
    /// write budget; it carries over the lifetime
    /// [`MemStorage::bytes_written`] count.
    pub fn crash_image(&self, keep_unsynced: bool) -> MemStorage {
        let inner = self.lock();
        let files = inner
            .files
            .iter()
            .map(|(name, f)| {
                let mut bytes = f.durable.clone();
                if keep_unsynced {
                    bytes.extend_from_slice(&f.pending);
                }
                (
                    name.clone(),
                    MemFile {
                        durable: bytes,
                        pending: Vec::new(),
                    },
                )
            })
            .collect();
        MemStorage {
            inner: Arc::new(Mutex::new(Inner {
                files,
                budget: None,
                killed: false,
                written: inner.written,
            })),
        }
    }

    /// Truncates `name` to `keep_len` bytes (torn tail). Returns false if
    /// the file is missing or already that short.
    pub fn tear(&self, name: &str, keep_len: usize) -> bool {
        let mut inner = self.lock();
        let Some(file) = inner.files.get_mut(name) else {
            return false;
        };
        let total = file.durable.len() + file.pending.len();
        if keep_len >= total {
            return false;
        }
        let mut merged = std::mem::take(&mut file.durable);
        merged.append(&mut file.pending);
        merged.truncate(keep_len);
        file.durable = merged;
        true
    }

    /// Flips one bit of `name` at `byte` (media corruption). Returns
    /// false if the offset is out of range.
    pub fn flip_bit(&self, name: &str, byte: usize, bit: u8) -> bool {
        let mut inner = self.lock();
        let Some(file) = inner.files.get_mut(name) else {
            return false;
        };
        let durable_len = file.durable.len();
        let slot = if byte < durable_len {
            file.durable.get_mut(byte)
        } else {
            file.pending.get_mut(byte - durable_len)
        };
        match slot {
            Some(b) => {
                *b ^= 1_u8 << (bit & 7);
                true
            }
            None => false,
        }
    }
}

/// Append handle to one file of a [`MemStorage`].
struct MemFileHandle {
    inner: Arc<Mutex<Inner>>,
    name: String,
}

impl MemFileHandle {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl StorageFile for MemFileHandle {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.killed {
            return Err(killed_err());
        }
        // Apply the write budget: a crash mid-append writes a prefix.
        let allowed = match inner.budget {
            Some(budget) => (bytes.len() as u64).min(budget) as usize,
            None => bytes.len(),
        };
        let torn = allowed < bytes.len();
        if let Some(budget) = inner.budget.as_mut() {
            *budget -= allowed as u64;
        }
        inner.written += allowed as u64;
        if torn {
            inner.killed = true;
        }
        let head = bytes.get(..allowed).unwrap_or(bytes);
        match inner.files.get_mut(&self.name) {
            Some(file) => {
                file.pending.extend_from_slice(head);
                if torn {
                    Err(killed_err())
                } else {
                    Ok(())
                }
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("faultfs: file removed mid-write: {}", self.name),
            )),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.killed {
            return Err(killed_err());
        }
        match inner.files.get_mut(&self.name) {
            Some(file) => {
                let pending = std::mem::take(&mut file.pending);
                file.durable.extend_from_slice(&pending);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("faultfs: file removed mid-sync: {}", self.name),
            )),
        }
    }
}

impl Storage for MemStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        let inner = self.lock();
        if inner.killed {
            return Err(killed_err());
        }
        Ok(inner.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let inner = self.lock();
        if inner.killed {
            return Err(killed_err());
        }
        match inner.files.get(name) {
            Some(f) => {
                // A live process reads its own unsynced writes.
                let mut bytes = f.durable.clone();
                bytes.extend_from_slice(&f.pending);
                Ok(bytes)
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("faultfs: no such file: {name}"),
            )),
        }
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        let mut inner = self.lock();
        if inner.killed {
            return Err(killed_err());
        }
        inner.files.insert(name.to_string(), MemFile::default());
        Ok(Box::new(MemFileHandle {
            inner: Arc::clone(&self.inner),
            name: name.to_string(),
        }))
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        let inner = self.lock();
        if inner.killed {
            return Err(killed_err());
        }
        if !inner.files.contains_key(name) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("faultfs: no such file: {name}"),
            ));
        }
        Ok(Box::new(MemFileHandle {
            inner: Arc::clone(&self.inner),
            name: name.to_string(),
        }))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.killed {
            return Err(killed_err());
        }
        match inner.files.remove(from) {
            Some(file) => {
                inner.files.insert(to.to_string(), file);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("faultfs: no such file: {from}"),
            )),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.killed {
            return Err(killed_err());
        }
        match inner.files.remove(name) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("faultfs: no such file: {name}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_bytes_drop_without_sync() {
        let storage = MemStorage::new();
        let mut f = storage.create("blob-0").expect("create");
        f.append(b"durable").expect("append");
        f.sync().expect("sync");
        f.append(b" lost").expect("append");
        assert_eq!(storage.read("blob-0").expect("read"), b"durable lost");

        let dropped = storage.crash_image(false);
        assert_eq!(dropped.read("blob-0").expect("read"), b"durable");
        let kept = storage.crash_image(true);
        assert_eq!(kept.read("blob-0").expect("read"), b"durable lost");
    }

    #[test]
    fn write_budget_tears_the_inflight_append_and_kills() {
        let storage = MemStorage::new();
        let mut f = storage.create("blob-0").expect("create");
        storage.set_write_budget(Some(4));
        assert!(f.append(b"abcdef").is_err());
        assert!(storage.killed());
        assert!(f.append(b"x").is_err());
        assert!(f.sync().is_err());
        assert!(storage.read("blob-0").is_err(), "reads fail after kill");
        // The crash image shows the torn prefix (if the cache flushed).
        let image = storage.crash_image(true);
        assert_eq!(image.read("blob-0").expect("read"), b"abcd");
        let strict = storage.crash_image(false);
        assert_eq!(strict.read("blob-0").expect("read"), b"");
    }

    #[test]
    fn budget_counts_across_files_and_appends() {
        let storage = MemStorage::new();
        storage.set_write_budget(Some(10));
        let mut a = storage.create("a").expect("create");
        let mut b = storage.create("b").expect("create");
        a.append(b"12345").expect("append");
        b.append(b"67890").expect("append");
        assert!(!storage.killed());
        assert!(a.append(b"!").is_err());
        assert!(storage.killed());
        assert_eq!(storage.bytes_written(), 10);
    }

    #[test]
    fn tear_and_flip_bit_mutate_the_image() {
        let storage = MemStorage::new();
        let mut f = storage.create("blob-1").expect("create");
        f.append(b"columnar segment").expect("append");
        f.sync().expect("sync");
        assert!(storage.tear("blob-1", 8));
        assert_eq!(storage.read("blob-1").expect("read"), b"columnar");
        assert!(storage.flip_bit("blob-1", 0, 1));
        assert_eq!(storage.read("blob-1").expect("read"), b"aolumnar");
        assert!(!storage.flip_bit("blob-1", 99, 0));
        assert!(!storage.tear("blob-1", 99));
    }

    #[test]
    fn rename_is_atomic_and_remove_works() {
        let storage = MemStorage::new();
        let mut f = storage.create("blob-2.tmp").expect("create");
        f.append(b"x").expect("append");
        f.sync().expect("sync");
        storage.rename("blob-2.tmp", "blob-2").expect("rename");
        assert_eq!(storage.list().expect("list"), vec!["blob-2".to_string()]);
        storage.remove("blob-2").expect("remove");
        assert!(storage.list().expect("list").is_empty());
        assert!(storage.rename("nope", "x").is_err());
    }
}

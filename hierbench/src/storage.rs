//! In-memory storage for the benchmark: the repository's `MemFactory`,
//! shared so the store image outlives the service that wrote it, plus an
//! optional probe that counts the WAL traffic of traced runs.
//!
//! Storage stays in memory on purpose: fsync timing on a shared machine
//! does not repeat within the bounds the benchmark sets.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use hierod_store::tenants::{MemFactory, StorageFactory};
use hierod_store::wal::{self, WalRecord};
use hierod_store::{MemStorage, Storage, StorageFile};

/// WAL traffic seen through the live append handles of a store.
#[derive(Debug, Default)]
pub struct StoreProbe {
    records: AtomicU64,
    bytes: AtomicU64,
    commits: AtomicU64,
    journal: Mutex<Vec<u8>>,
}

impl StoreProbe {
    /// Records appended to WAL files.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Bytes appended to WAL files.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Syncs of WAL files (group and hard commits).
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Every record appended, across rotations, in append order.
    pub fn journal(&self) -> Vec<WalRecord> {
        let bytes = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        let mut image = wal::WAL_MAGIC.to_vec();
        image.extend_from_slice(&bytes);
        wal::scan(&image).records
    }
}

/// A `MemFactory` that several services can open one after another.
#[derive(Clone, Default)]
pub struct BenchFactory {
    inner: Arc<MemFactory>,
    probe: Option<Arc<StoreProbe>>,
}

impl BenchFactory {
    /// An empty factory; with `probe`, WAL appends are counted.
    pub fn new(probe: Option<Arc<StoreProbe>>) -> Self {
        BenchFactory {
            inner: Arc::new(MemFactory::new()),
            probe,
        }
    }

    /// The same store image, without the probe: what a restarted
    /// process opens.
    pub fn reopen(&self) -> Self {
        BenchFactory {
            inner: Arc::clone(&self.inner),
            probe: None,
        }
    }

    /// The raw storage of one tenant shard, if it was ever opened.
    pub fn storage(&self, tenant: &str, shard: usize) -> Option<MemStorage> {
        self.inner.storage(tenant, shard)
    }
}

impl StorageFactory for BenchFactory {
    type Storage = BenchStorage;

    fn open_shard(&self, tenant: &str, shard: usize) -> io::Result<BenchStorage> {
        Ok(BenchStorage {
            inner: self.inner.open_shard(tenant, shard)?,
            probe: self.probe.clone(),
        })
    }

    fn list_tenants(&self) -> io::Result<Vec<String>> {
        self.inner.list_tenants()
    }

    fn shard_count(&self, tenant: &str) -> io::Result<usize> {
        self.inner.shard_count(tenant)
    }
}

/// One shard's `MemStorage`, with the factory's probe (if any) on its
/// WAL append handles.
#[derive(Clone)]
pub struct BenchStorage {
    inner: MemStorage,
    probe: Option<Arc<StoreProbe>>,
}

impl Storage for BenchStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        self.inner.create(name)
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        let file = self.inner.open_append(name)?;
        // The store appends records only through the live WAL handle it
        // opens here; whole images (segments, fresh WALs) go through
        // `create`.
        match &self.probe {
            Some(probe) if name.starts_with("wal-") => Ok(Box::new(ProbeFile {
                inner: file,
                probe: Arc::clone(probe),
            })),
            _ => Ok(file),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

struct ProbeFile {
    inner: Box<dyn StorageFile>,
    probe: Arc<StoreProbe>,
}

impl StorageFile for ProbeFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(bytes)?;
        // Relaxed: plain statistics, read after the writer is joined.
        self.probe.records.fetch_add(1, Ordering::Relaxed);
        self.probe
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.probe
            .journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()?;
        self.probe.commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

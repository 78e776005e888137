//! The append-only block store (`pgBlockstore`, §4.2).
//!
//! Every database node persists each verified block to a log of
//! length-prefixed records and keeps an in-memory *index* over it: per
//! block the record's byte offset and the block hash, plus the last
//! [`TAIL_BLOCKS`] blocks decoded. Memory therefore grows by 40 bytes per
//! block, not by the chain. Older heights are read back from the log,
//! decoded, and re-verified against the indexed hash before they are
//! returned. On reload the full hash chain is re-verified, so offline
//! tampering with the file is detected (§3.5 security property 6: a node
//! would need the orderer's *and* clients' private keys to forge a
//! consistent chain). The in-memory store is the same code over a byte
//! buffer in place of the file.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bcrdb_common::codec::{Decode, Encode, Encoder};
use bcrdb_common::error::{Error, Result};
use bcrdb_common::ids::BlockHeight;
use bcrdb_crypto::sha256::Digest;
use parking_lot::Mutex;

use crate::block::{genesis_prev_hash, Block};

/// Decoded blocks kept resident behind the tip. Equal to the default
/// `sync_batch`, so a peer one request behind the head, the commit
/// pipeline and the post-commit worker are all served without a log read.
pub const TAIL_BLOCKS: usize = 64;

/// Bytes of a record's length prefix (`u32`, big-endian).
const PREFIX: u64 = 4;

/// Append-only block log with an in-memory offset index and a bounded
/// decoded tail.
pub struct BlockStore {
    path: Option<PathBuf>,
    /// Issue `sync_data` after every append so a committed block survives
    /// power loss, not just process death (see [`BlockStore::open_with`]).
    fsync: bool,
    inner: Mutex<Inner>,
}

/// Where the records live.
enum Log {
    File(File),
    Memory(Vec<u8>),
}

impl Log {
    fn append(&mut self, record: &[u8]) -> Result<()> {
        match self {
            Log::File(file) => file.write_all(record)?,
            Log::Memory(bytes) => bytes.extend_from_slice(record),
        }
        Ok(())
    }

    /// The `len` bytes at `offset`. `len` comes from the index, never
    /// from the log, so a corrupt length prefix cannot size this buffer.
    fn read(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        match self {
            Log::File(file) => {
                // The file is in append mode: moving the cursor does not
                // move where the next record is written.
                file.seek(SeekFrom::Start(offset))?;
                let mut buf = vec![0u8; len];
                file.read_exact(&mut buf)?;
                Ok(buf)
            }
            Log::Memory(bytes) => Ok(bytes[offset as usize..offset as usize + len].to_vec()),
        }
    }
}

struct Inner {
    log: Log,
    /// Per block, in height order: the offset of its record (the length
    /// prefix) in the log, and its hash.
    index: Vec<(u64, Digest)>,
    /// Log length: the offset at which the next record starts.
    end: u64,
    /// The last blocks appended, decoded, at most [`TAIL_BLOCKS`].
    tail: VecDeque<Arc<Block>>,
    /// Bytes written since the last `sync_data` (deferred appends).
    unsynced: bool,
}

impl Inner {
    fn new(log: Log) -> Inner {
        Inner {
            log,
            index: Vec::new(),
            end: 0,
            tail: VecDeque::with_capacity(TAIL_BLOCKS + 1),
            unsynced: false,
        }
    }

    fn tip_hash(&self) -> Digest {
        self.index
            .last()
            .map_or_else(genesis_prev_hash, |(_, hash)| *hash)
    }

    /// Index a block whose `record_len`-byte record ends the log.
    fn push(&mut self, block: Arc<Block>, record_len: u64) {
        self.index.push((self.end, block.hash));
        self.end += record_len;
        self.tail.push_back(block);
        if self.tail.len() > TAIL_BLOCKS {
            self.tail.pop_front();
        }
    }
}

impl std::fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStore")
            .field("path", &self.path)
            .field("height", &self.height())
            .finish()
    }
}

impl BlockStore {
    /// In-memory store (tests, benchmarks).
    pub fn in_memory() -> BlockStore {
        BlockStore {
            path: None,
            fsync: false,
            inner: Mutex::new(Inner::new(Log::Memory(Vec::new()))),
        }
    }

    /// Open (or create) a store at `path`, verifying the persisted chain.
    /// Appends are flushed but not fsynced; see [`BlockStore::open_with`].
    pub fn open(path: impl AsRef<Path>) -> Result<BlockStore> {
        Self::open_with(path, false)
    }

    /// Open (or create) a store at `path`, verifying the persisted chain
    /// and rebuilding the index from it.
    ///
    /// With `fsync`, every append issues `sync_data` before returning, so
    /// a block acknowledged as stored survives power loss. A *torn tail*
    /// — an incomplete final record left by a crash mid-append — is
    /// truncated away on open (the chain simply resumes one block
    /// earlier and recovery re-fetches it from peers); anything that
    /// decodes fully but fails hash-chain verification is still reported
    /// as tampering.
    pub fn open_with(path: impl AsRef<Path>, fsync: bool) -> Result<BlockStore> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        let mut inner = Inner::new(Log::File(file.try_clone()?));
        let mut reader = BufReader::new(file);
        let mut buf = Vec::new();
        // `inner.end` is the end of the last *complete* record; a torn
        // tail is whatever the file holds beyond it.
        let torn = loop {
            let remaining = file_len - inner.end;
            if remaining < PREFIX {
                break remaining != 0; // clean end, or a torn length prefix
            }
            let mut len_buf = [0u8; PREFIX as usize];
            reader.read_exact(&mut len_buf)?;
            let len = u64::from(u32::from_be_bytes(len_buf));
            if len > remaining - PREFIX {
                // The prefix made it to disk but (part of) the body did
                // not. Checked before allocating: a damaged prefix must
                // not reserve up to 4 GB.
                break true;
            }
            buf.resize(len as usize, 0);
            reader.read_exact(&mut buf)?;
            let block = match Block::decode_all(&buf) {
                Ok(b) => b,
                // A record that fails to parse *and* ends the file is a
                // torn tail (the crash left garbage where a record should
                // be). The same failure mid-file — with more data after
                // it — cannot come from a torn append and stays fatal, as
                // does any record that parses but fails hash verification
                // (tampering).
                Err(_) if len == remaining - PREFIX => break true,
                Err(e) => return Err(e),
            };
            block.verify_integrity()?;
            if block.prev_hash != inner.tip_hash() {
                return Err(Error::TamperDetected(format!(
                    "block store chain broken at block {}",
                    block.number
                )));
            }
            if block.number != inner.index.len() as u64 + 1 {
                return Err(Error::TamperDetected(format!(
                    "block store sequence broken at block {}",
                    block.number
                )));
            }
            inner.push(Arc::new(block), PREFIX + len);
        };
        if torn {
            // Drop the torn bytes so future appends extend a clean
            // record boundary.
            let file = reader.into_inner();
            file.set_len(inner.end)?;
            file.sync_data()?;
        }
        Ok(BlockStore {
            path: Some(path),
            fsync,
            inner: Mutex::new(inner),
        })
    }

    /// Store file path, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Current chain height (0 = empty).
    pub fn height(&self) -> BlockHeight {
        self.inner.lock().index.len() as u64
    }

    /// Hash of the latest block (or the genesis predecessor hash).
    pub fn tip_hash(&self) -> Digest {
        self.inner.lock().tip_hash()
    }

    /// Decoded blocks currently resident (never more than
    /// [`TAIL_BLOCKS`]) — what the memory census reads.
    pub fn resident_blocks(&self) -> usize {
        self.inner.lock().tail.len()
    }

    /// Append a block. It must extend the chain (`number == height + 1`,
    /// `prev_hash == tip`). With `fsync` configured, the append is made
    /// durable (`sync_data`) before returning. An `Arc` passed in is kept
    /// as the resident tail entry, not copied.
    pub fn append(&self, block: impl Into<Arc<Block>>) -> Result<Arc<Block>> {
        self.append_inner(block.into(), false)
    }

    /// Append a block *without* syncing it, even when the store is
    /// configured with `fsync` — the group-fsync half of the pipelined
    /// commit path: the block processor appends blocks as they arrive
    /// and the post-commit worker later calls [`BlockStore::sync`] once
    /// per batch (before client notifications go out), so the durability
    /// of blocks N and N+1 costs one `sync_data` instead of two.
    pub fn append_deferred(&self, block: impl Into<Arc<Block>>) -> Result<Arc<Block>> {
        self.append_inner(block.into(), true)
    }

    fn append_inner(&self, block: Arc<Block>, defer_sync: bool) -> Result<Arc<Block>> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let expected_number = inner.index.len() as u64 + 1;
        if block.number != expected_number {
            return Err(Error::internal(format!(
                "block {} appended out of order (expected {expected_number})",
                block.number
            )));
        }
        if block.prev_hash != inner.tip_hash() {
            return Err(Error::TamperDetected(format!(
                "block {} does not link to the current tip",
                block.number
            )));
        }
        // One record, one write: the prefix is patched in once the
        // payload's length is known.
        let mut enc = Encoder::new();
        enc.put_u32(0);
        block.encode(&mut enc);
        let mut record = enc.finish();
        let len = u32::try_from(record.len() - PREFIX as usize)
            .map_err(|_| Error::internal(format!("block {} exceeds 4 GB", block.number)))?;
        record[..PREFIX as usize].copy_from_slice(&len.to_be_bytes());
        inner.log.append(&record)?;
        if let (true, Log::File(file)) = (self.fsync, &inner.log) {
            if defer_sync {
                inner.unsynced = true;
            } else {
                file.sync_data()?;
                // This sync covered any earlier deferred appends too.
                inner.unsynced = false;
            }
        }
        inner.push(Arc::clone(&block), record.len() as u64);
        Ok(block)
    }

    /// Make every deferred append durable. Returns `true` when a
    /// `sync_data` was actually issued (`false`: nothing was pending, or
    /// the store is in-memory / not configured for fsync).
    pub fn sync(&self) -> Result<bool> {
        let mut inner = self.inner.lock();
        if !self.fsync || !inner.unsynced {
            return Ok(false);
        }
        if let Log::File(file) = &inner.log {
            file.sync_data()?;
        }
        inner.unsynced = false;
        Ok(true)
    }

    /// Fetch a block by height (1-based); `None` when the height is not
    /// stored or its record no longer verifies ([`BlockStore::read`]
    /// says which).
    pub fn get(&self, number: BlockHeight) -> Option<Arc<Block>> {
        self.read(number).ok()
    }

    /// Fetch a block by height (1-based). The last [`TAIL_BLOCKS`] come
    /// from memory; an older one is read from the log, decoded and
    /// checked against the indexed hash and its own Merkle root, so what
    /// comes back is the block that was appended or an error — never a
    /// block the log was altered to hold.
    pub fn read(&self, number: BlockHeight) -> Result<Arc<Block>> {
        let (record, hash) = {
            let mut inner = self.inner.lock();
            let height = inner.index.len() as u64;
            if number == 0 || number > height {
                return Err(Error::internal(format!(
                    "block {number} is not stored (height {height})"
                )));
            }
            let behind_tip = (height - number) as usize;
            if behind_tip < inner.tail.len() {
                return Ok(Arc::clone(&inner.tail[inner.tail.len() - 1 - behind_tip]));
            }
            let (offset, hash) = inner.index[number as usize - 1];
            let next = inner.index[number as usize].0;
            (inner.log.read(offset, (next - offset) as usize)?, hash)
        };
        let (prefix, payload) = record.split_at(PREFIX as usize);
        if prefix != (payload.len() as u32).to_be_bytes() {
            return Err(Error::TamperDetected(format!(
                "block store record {number}: length prefix altered"
            )));
        }
        let block = Block::decode_all(payload)?;
        if block.hash != hash {
            return Err(Error::TamperDetected(format!(
                "block store record {number} does not hold the block that was appended"
            )));
        }
        block.verify_integrity()?;
        Ok(Arc::new(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{Payload, Transaction};
    use bcrdb_common::value::Value;
    use bcrdb_crypto::identity::{KeyPair, Scheme};

    fn block(number: u64, prev: [u8; 32]) -> Block {
        let key = KeyPair::generate("c", b"c", Scheme::Sim);
        let tx = Transaction::new_order_execute(
            "c",
            Payload::new("f", vec![Value::Int(number as i64)]),
            number,
            &key,
        )
        .unwrap();
        Block::build(number, prev, vec![tx], "solo", vec![])
    }

    #[test]
    fn append_get_and_ordering() {
        let store = BlockStore::in_memory();
        assert_eq!(store.height(), 0);
        let b1 = block(1, genesis_prev_hash());
        let h1 = b1.hash;
        store.append(b1).unwrap();
        let b2 = block(2, h1);
        store.append(b2).unwrap();
        assert_eq!(store.height(), 2);
        assert_eq!(store.get(1).unwrap().number, 1);
        assert!(store.get(0).is_none());
        assert!(store.get(3).is_none());
        assert_eq!(store.get(2).unwrap().hash, store.tip_hash());
        // Gap and wrong-prev appends rejected.
        assert!(store.append(block(4, store.tip_hash())).is_err());
        assert!(store.append(block(3, genesis_prev_hash())).is_err());
    }

    #[test]
    fn deferred_appends_batch_into_one_sync() {
        let dir = std::env::temp_dir().join(format!("bcrdb-bs-group-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.dat");
        let _ = std::fs::remove_file(&path);
        {
            let store = BlockStore::open_with(&path, true).unwrap();
            assert!(!store.sync().unwrap(), "nothing pending on a fresh store");
            let b1 = block(1, genesis_prev_hash());
            let h1 = b1.hash;
            store.append_deferred(b1).unwrap();
            store.append_deferred(block(2, h1)).unwrap();
            // One sync covers both deferred appends; a second is a no-op.
            assert!(store.sync().unwrap());
            assert!(!store.sync().unwrap());
            // A durable append does not leave the store dirty.
            store.append(block(3, store.tip_hash())).unwrap();
            assert!(!store.sync().unwrap());
        }
        let store = BlockStore::open_with(&path, true).unwrap();
        assert_eq!(store.height(), 3);
        // Without fsync configured, sync never reports work.
        let mem = BlockStore::in_memory();
        mem.append_deferred(block(1, genesis_prev_hash())).unwrap();
        assert!(!mem.sync().unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bcrdb-bs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.dat");
        let _ = std::fs::remove_file(&path);
        {
            let store = BlockStore::open(&path).unwrap();
            let b1 = block(1, genesis_prev_hash());
            let h1 = b1.hash;
            store.append(b1).unwrap();
            store.append(block(2, h1)).unwrap();
        }
        let store = BlockStore::open(&path).unwrap();
        assert_eq!(store.height(), 2);
        assert_eq!(store.get(2).unwrap().txs.len(), 1);
        // Appending after reload continues the chain.
        store.append(block(3, store.tip_hash())).unwrap();
        assert_eq!(store.height(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn on_disk_tampering_detected() {
        let dir = std::env::temp_dir().join(format!("bcrdb-bs-tamper-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.dat");
        let _ = std::fs::remove_file(&path);
        {
            let store = BlockStore::open(&path).unwrap();
            store.append(block(1, genesis_prev_hash())).unwrap();
        }
        // Flip one byte inside the first transaction's id (record layout:
        // 4B length prefix, 8B number, 32B prev hash, 4B tx count, then the
        // transaction id) — content covered by the Merkle root.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[50] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = BlockStore::open(&path).unwrap_err();
        assert!(
            matches!(
                err,
                Error::TamperDetected(_) | Error::Codec(_) | Error::Crypto(_)
            ),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        // A crash mid-append leaves an incomplete final record; opening
        // must recover to the last complete block (§3.6: the missing
        // block is re-fetched from peers), not refuse to start.
        let dir = std::env::temp_dir().join(format!("bcrdb-bs-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.dat");
        let _ = std::fs::remove_file(&path);
        let h1 = {
            let store = BlockStore::open_with(&path, true).unwrap();
            let b1 = block(1, genesis_prev_hash());
            let h1 = b1.hash;
            store.append(b1).unwrap();
            store.append(block(2, h1)).unwrap();
            h1
        };
        let full = std::fs::read(&path).unwrap();
        // Tear the tail mid-way through block 2's payload.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        {
            let store = BlockStore::open_with(&path, true).unwrap();
            assert_eq!(store.height(), 1, "torn block dropped");
            // Appends continue from a clean record boundary.
            store.append(block(2, h1)).unwrap();
        }
        let store = BlockStore::open_with(&path, true).unwrap();
        assert_eq!(store.height(), 2);

        // A torn *length prefix* (fewer than 4 trailing bytes) recovers
        // the same way.
        let full = std::fs::read(&path).unwrap();
        let mut with_partial_len = full.clone();
        with_partial_len.extend_from_slice(&[0, 0, 1]);
        std::fs::write(&path, &with_partial_len).unwrap();
        let store = BlockStore::open_with(&path, true).unwrap();
        assert_eq!(store.height(), 2);
        drop(store);
        assert_eq!(std::fs::read(&path).unwrap(), full, "tail bytes removed");

        // A complete-looking final record whose bytes are garbage (e.g.
        // a zero-extended page) is also a torn tail — but only at EOF.
        let mut with_garbage_tail = full.clone();
        with_garbage_tail.extend_from_slice(&[0, 0, 0, 2, 0xde, 0xad]);
        std::fs::write(&path, &with_garbage_tail).unwrap();
        let store = BlockStore::open_with(&path, true).unwrap();
        assert_eq!(store.height(), 2);
        drop(store);
        assert_eq!(std::fs::read(&path).unwrap(), full, "garbage removed");
        std::fs::remove_file(&path).unwrap();
    }

    /// A fresh `blocks.dat` path under a per-test directory.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bcrdb-bs-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.dat");
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Append `count` chained blocks, returning each one's encoding.
    fn fill(store: &BlockStore, count: u64) -> Vec<Vec<u8>> {
        (store.height() + 1..=store.height() + count)
            .map(|n| {
                let b = block(n, store.tip_hash());
                let bytes = b.encode_to_vec();
                store.append(b).unwrap();
                bytes
            })
            .collect()
    }

    /// Every height reads back byte-identical to what was appended, and
    /// the decoded residents stay bounded while it does.
    fn assert_serves_all(store: &BlockStore, appended: &[Vec<u8>]) {
        assert_eq!(store.height(), appended.len() as u64);
        for (n, bytes) in (1..).zip(appended) {
            assert_eq!(&store.read(n).unwrap().encode_to_vec(), bytes, "block {n}");
            assert!(store.resident_blocks() <= TAIL_BLOCKS);
        }
        assert_eq!(store.resident_blocks(), TAIL_BLOCKS.min(appended.len()));
    }

    #[test]
    fn old_heights_are_served_from_the_log_with_a_bounded_tail() {
        let mem = BlockStore::in_memory();
        let appended = fill(&mem, 200);
        assert_serves_all(&mem, &appended);

        let path = scratch("cold");
        let appended = {
            let store = BlockStore::open(&path).unwrap();
            let appended = fill(&store, 200);
            assert_serves_all(&store, &appended);
            appended
        };
        // Reopened: the index and tail are rebuilt, the file is untouched.
        let on_disk = std::fs::read(&path).unwrap();
        let store = BlockStore::open(&path).unwrap();
        assert_serves_all(&store, &appended);
        assert_eq!(std::fs::read(&path).unwrap(), on_disk);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn record_altered_after_open_fails_its_read_and_only_its_read() {
        let path = scratch("cold-tamper");
        let store = BlockStore::open(&path).unwrap();
        let appended = fill(&store, 200);
        // Record 3 starts after records 1 and 2; offset 50 within a record
        // is inside the first transaction's id (see the open-time test).
        let record3 = appended[..2].iter().map(|b| 4 + b.len()).sum::<usize>();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[record3 + 50] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let err = store.read(3).unwrap_err();
        assert!(
            matches!(err, Error::TamperDetected(_) | Error::Codec(_)),
            "{err}"
        );
        assert!(store.get(3).is_none());
        assert_eq!(store.read(4).unwrap().encode_to_vec(), appended[3]);
        assert_eq!(store.read(200).unwrap().encode_to_vec(), appended[199]);
        // A damaged length prefix is an error too, not an allocation.
        bytes[record3 + 50] ^= 0xff;
        bytes[record3] = 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.read(3), Err(Error::TamperDetected(_))));
        bytes[record3] = 0;
        bytes[record3 + 50] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        drop(store);
        // A fresh open verifies the whole chain and refuses, as before.
        assert!(BlockStore::open(&path).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn oversized_length_prefix_is_a_torn_tail_not_an_allocation() {
        let path = scratch("huge-prefix");
        {
            let store = BlockStore::open(&path).unwrap();
            fill(&store, 2);
        }
        let full = std::fs::read(&path).unwrap();
        // One flipped bit in a last record's prefix claims 4 GB. The
        // claim is sized against the file before any buffer is.
        let mut damaged = full.clone();
        damaged.extend_from_slice(&0xFFFF_FFF0u32.to_be_bytes());
        damaged.extend_from_slice(b"partial body");
        std::fs::write(&path, &damaged).unwrap();
        let store = BlockStore::open(&path).unwrap();
        assert_eq!(store.height(), 2);
        drop(store);
        assert_eq!(std::fs::read(&path).unwrap(), full, "tail bytes removed");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

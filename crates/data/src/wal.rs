//! Per-dataset write-ahead log: the durability seam of the `update`
//! op.
//!
//! A dataset's WAL is a single append-only file holding every
//! mutation applied since the base CSV (or since the last
//! compaction's snapshot). The write protocol is *log first*: a
//! mutation record is appended and fsynced **before** the in-memory
//! engine commits its epoch bump, so an epoch that was ever visible
//! to a query is always reconstructible by replay — crash, evict or
//! restart notwithstanding.
//!
//! # On-disk format
//!
//! ```text
//! file   := magic record*
//! magic  := "UTKWAL01"                          (8 bytes)
//! record := len:u32le crc:u32le payload         (len = payload bytes)
//! payload:= kind:u8 epoch:u64le body
//! kind   := 1 insert | 2 delete | 3 compact | 4 update
//! ```
//!
//! Bodies (all little-endian): `insert` is `count:u32 dim:u32` then
//! `count × dim` f64 bit patterns, then `has_labels:u8` and, when
//! set, `count` length-prefixed UTF-8 labels; `delete` is `count:u32`
//! then `count` u32 record ids; `update` is a delete body followed by
//! an insert body (one atomic mixed mutation); `compact` has an empty
//! body — its epoch is the *base* epoch of the snapshot the rewritten
//! log starts from. The exact bytes are pinned by
//! `tests/wal_golden.rs`.
//!
//! # Torn tails vs corruption
//!
//! A crash mid-append leaves a *torn tail*: a final record whose
//! framing or payload runs past end-of-file. [`WalFile::open`]
//! detects that, truncates the file back to the last complete record,
//! and carries on — by the log-first protocol the half-written
//! mutation was never visible, so dropping it restores the exact
//! pre-mutation state. Anything else — a bad magic, a checksum
//! mismatch on a *complete* record, a non-sequential epoch, an
//! oversized length — is real corruption and surfaces as a typed
//! [`WalError`]; it is never truncated away silently and never
//! panics.
//!
//! # Fault injection
//!
//! [`WalFile::fail_after_n_bytes`] arms a failpoint that stops the
//! underlying writes after a byte budget, simulating a crash at an
//! arbitrary point inside an append. The kill-and-replay proptests in
//! `tests/dynamic.rs` drive every crash offset of a record through
//! it and assert replay lands on exactly the pre- or post-mutation
//! epoch, never a torn state.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The 8-byte file header ("UTK WAL, format 01").
pub const WAL_MAGIC: &[u8; 8] = b"UTKWAL01";

/// Upper bound on one record's payload bytes (64 MiB). A length
/// prefix above this is corruption, not a huge mutation — the serving
/// protocol caps request lines far below it.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_COMPACT: u8 = 3;
const KIND_UPDATE: u8 = 4;

/// Typed WAL failure. I/O errors pass through; everything else is a
/// structural finding with enough context to say *where* and *why*.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`WAL_MAGIC`].
    BadMagic,
    /// A complete record failed validation (checksum mismatch, bad
    /// kind, malformed body, oversized length, misplaced compact
    /// marker).
    Corrupt {
        /// Byte offset of the offending record's length prefix.
        offset: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// A record's epoch broke the strict `+1` sequence (duplicate or
    /// skipped epoch).
    EpochMismatch {
        /// The epoch the sequence required next.
        expected: u64,
        /// The epoch the record carried.
        got: u64,
    },
    /// Replaying a record against the base data failed (the record is
    /// well-formed but inconsistent with the dataset it claims to
    /// mutate).
    Replay {
        /// The epoch of the record that failed to apply.
        epoch: u64,
        /// The application error.
        message: String,
    },
    /// The armed failpoint tripped mid-write (fault injection only).
    Failpoint,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadMagic => write!(f, "not a UTK write-ahead log (bad magic)"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "corrupt wal record at byte {offset}: {detail}")
            }
            WalError::EpochMismatch { expected, got } => {
                write!(
                    f,
                    "wal epoch sequence broken: expected {expected}, got {got}"
                )
            }
            WalError::Replay { epoch, message } => {
                write!(f, "wal replay failed at epoch {epoch}: {message}")
            }
            WalError::Failpoint => write!(f, "wal failpoint tripped (injected fault)"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One logged mutation (or the compaction marker a rewritten log
/// starts with). `epoch` is the dataset epoch the record *produces*
/// (for `Compact`, the base epoch it snapshots).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Rows appended (with one label per row on labeled datasets).
    Insert {
        /// The epoch this mutation produced.
        epoch: u64,
        /// The appended rows.
        rows: Vec<Vec<f64>>,
        /// Labels parallel to `rows`, when the dataset is labeled.
        labels: Option<Vec<String>>,
    },
    /// Records removed (current ids, applied simultaneously).
    Delete {
        /// The epoch this mutation produced.
        epoch: u64,
        /// The deleted record ids.
        ids: Vec<u32>,
    },
    /// A mixed mutation: deletes and inserts as one atomic step.
    Update {
        /// The epoch this mutation produced.
        epoch: u64,
        /// The deleted record ids.
        deletes: Vec<u32>,
        /// The appended rows.
        inserts: Vec<Vec<f64>>,
        /// Labels parallel to `inserts`, when the dataset is labeled.
        labels: Option<Vec<String>>,
    },
    /// The log was compacted: everything up to `base_epoch` lives in
    /// the side-by-side snapshot; replay starts there.
    Compact {
        /// The epoch the snapshot captured.
        base_epoch: u64,
    },
}

impl WalRecord {
    /// The canonical record for one `apply_update` call: `Insert` when
    /// nothing is deleted, `Delete` when nothing is inserted, `Update`
    /// otherwise.
    pub fn for_update(
        epoch: u64,
        deletes: &[u32],
        inserts: &[Vec<f64>],
        labels: Option<&[String]>,
    ) -> WalRecord {
        match (deletes.is_empty(), inserts.is_empty()) {
            (true, _) => WalRecord::Insert {
                epoch,
                rows: inserts.to_vec(),
                labels: labels.map(<[String]>::to_vec),
            },
            (false, true) => WalRecord::Delete {
                epoch,
                ids: deletes.to_vec(),
            },
            (false, false) => WalRecord::Update {
                epoch,
                deletes: deletes.to_vec(),
                inserts: inserts.to_vec(),
                labels: labels.map(<[String]>::to_vec),
            },
        }
    }

    /// The epoch this record advances the dataset to (`Compact`: the
    /// base epoch replay resumes from).
    pub fn epoch(&self) -> u64 {
        match self {
            WalRecord::Insert { epoch, .. }
            | WalRecord::Delete { epoch, .. }
            | WalRecord::Update { epoch, .. } => *epoch,
            WalRecord::Compact { base_epoch } => *base_epoch,
        }
    }

    /// The mutation pieces `(deletes, inserts, labels)` this record
    /// carries (`Compact` carries none).
    pub fn mutation(&self) -> (&[u32], &[Vec<f64>], Option<&[String]>) {
        match self {
            WalRecord::Insert { rows, labels, .. } => (&[], rows, labels.as_deref()),
            WalRecord::Delete { ids, .. } => (ids, &[], None),
            WalRecord::Update {
                deletes,
                inserts,
                labels,
                ..
            } => (deletes, inserts, labels.as_deref()),
            WalRecord::Compact { .. } => (&[], &[], None),
        }
    }

    /// Serializes the record payload (kind + epoch + body), *without*
    /// the length/checksum framing.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Insert {
                epoch,
                rows,
                labels,
            } => {
                out.push(KIND_INSERT);
                out.extend_from_slice(&epoch.to_le_bytes());
                encode_insert_body(&mut out, rows, labels.as_deref());
            }
            WalRecord::Delete { epoch, ids } => {
                out.push(KIND_DELETE);
                out.extend_from_slice(&epoch.to_le_bytes());
                encode_delete_body(&mut out, ids);
            }
            WalRecord::Update {
                epoch,
                deletes,
                inserts,
                labels,
            } => {
                out.push(KIND_UPDATE);
                out.extend_from_slice(&epoch.to_le_bytes());
                encode_delete_body(&mut out, deletes);
                encode_insert_body(&mut out, inserts, labels.as_deref());
            }
            WalRecord::Compact { base_epoch } => {
                out.push(KIND_COMPACT);
                out.extend_from_slice(&base_epoch.to_le_bytes());
            }
        }
        out
    }

    /// Serializes the full framed record: length, checksum, payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses one payload (the bytes after the length/checksum
    /// framing). `offset` is only used for error context.
    fn decode_payload(payload: &[u8], offset: u64) -> Result<WalRecord, WalError> {
        let corrupt = |detail: &str| WalError::Corrupt {
            offset,
            detail: detail.into(),
        };
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        let kind = cur.u8().ok_or_else(|| corrupt("missing record kind"))?;
        let epoch = cur.u64().ok_or_else(|| corrupt("missing epoch"))?;
        let record = match kind {
            KIND_INSERT => {
                let (rows, labels) = decode_insert_body(&mut cur, offset)?;
                WalRecord::Insert {
                    epoch,
                    rows,
                    labels,
                }
            }
            KIND_DELETE => WalRecord::Delete {
                epoch,
                ids: decode_delete_body(&mut cur, offset)?,
            },
            KIND_UPDATE => {
                let deletes = decode_delete_body(&mut cur, offset)?;
                let (inserts, labels) = decode_insert_body(&mut cur, offset)?;
                WalRecord::Update {
                    epoch,
                    deletes,
                    inserts,
                    labels,
                }
            }
            KIND_COMPACT => WalRecord::Compact { base_epoch: epoch },
            other => return Err(corrupt(&format!("unknown record kind {other}"))),
        };
        if cur.pos != payload.len() {
            return Err(corrupt("trailing bytes after record body"));
        }
        Ok(record)
    }
}

fn encode_delete_body(out: &mut Vec<u8>, ids: &[u32]) {
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for &id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

fn encode_insert_body(out: &mut Vec<u8>, rows: &[Vec<f64>], labels: Option<&[String]>) {
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    let dim = rows.first().map_or(0, Vec::len) as u32;
    out.extend_from_slice(&dim.to_le_bytes());
    for row in rows {
        for &v in row {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    match labels {
        None => out.push(0),
        Some(labels) => {
            out.push(1);
            for label in labels {
                out.extend_from_slice(&(label.len() as u32).to_le_bytes());
                out.extend_from_slice(label.as_bytes());
            }
        }
    }
}

/// A bounds-checked little-endian reader over one payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| {
            let mut a = [0u8; 4];
            a.copy_from_slice(b);
            u32::from_le_bytes(a)
        })
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_le_bytes(a)
        })
    }
}

fn decode_delete_body(cur: &mut Cursor<'_>, offset: u64) -> Result<Vec<u32>, WalError> {
    let corrupt = |detail: &str| WalError::Corrupt {
        offset,
        detail: detail.into(),
    };
    let count = cur.u32().ok_or_else(|| corrupt("missing delete count"))? as usize;
    if count > MAX_RECORD_BYTES as usize / 4 {
        return Err(corrupt("delete count exceeds the record size cap"));
    }
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(cur.u32().ok_or_else(|| corrupt("short delete body"))?);
    }
    Ok(ids)
}

#[allow(clippy::type_complexity)]
fn decode_insert_body(
    cur: &mut Cursor<'_>,
    offset: u64,
) -> Result<(Vec<Vec<f64>>, Option<Vec<String>>), WalError> {
    let corrupt = |detail: &str| WalError::Corrupt {
        offset,
        detail: detail.into(),
    };
    let count = cur.u32().ok_or_else(|| corrupt("missing insert count"))? as usize;
    let dim = cur.u32().ok_or_else(|| corrupt("missing insert dim"))? as usize;
    if count.saturating_mul(dim) > MAX_RECORD_BYTES as usize / 8 {
        return Err(corrupt("insert size exceeds the record size cap"));
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let mut row = Vec::with_capacity(dim);
        for _ in 0..dim {
            let bits = cur.u64().ok_or_else(|| corrupt("short insert body"))?;
            row.push(f64::from_bits(bits));
        }
        rows.push(row);
    }
    let has_labels = cur.u8().ok_or_else(|| corrupt("missing label flag"))?;
    let labels = match has_labels {
        0 => None,
        1 => {
            let mut labels = Vec::with_capacity(count);
            for _ in 0..count {
                let len = cur.u32().ok_or_else(|| corrupt("short label body"))? as usize;
                let bytes = cur.take(len).ok_or_else(|| corrupt("short label body"))?;
                let label = std::str::from_utf8(bytes)
                    .map_err(|_| corrupt("label is not UTF-8"))?
                    .to_string();
                labels.push(label);
            }
            Some(labels)
        }
        other => return Err(corrupt(&format!("bad label flag {other}"))),
    };
    Ok((rows, labels))
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the record checksum.
/// Hand-rolled nibble-table implementation: this workspace takes no
/// external dependencies, and 16 table entries keep it audit-small.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Nibble table for the reflected polynomial 0xEDB88320.
    const TABLE: [u32; 16] = [
        0x0000_0000,
        0x1DB7_1064,
        0x3B6E_20C8,
        0x26D9_30AC,
        0x76DC_4190,
        0x6B6B_51F4,
        0x4DB2_6158,
        0x5005_713C,
        0xEDB8_8320,
        0xF00F_9344,
        0xD6D6_A3E8,
        0xCB61_B38C,
        0x9B64_C2B0,
        0x86D3_D2D4,
        0xA00A_E278,
        0xBDBD_F21C,
    ];
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = TABLE[((crc ^ u32::from(b)) & 0x0F) as usize] ^ (crc >> 4);
        crc = TABLE[((crc ^ (u32::from(b) >> 4)) & 0x0F) as usize] ^ (crc >> 4);
    }
    !crc
}

/// What [`WalFile::open`] found on disk.
#[derive(Debug)]
pub struct WalOpen {
    /// The open, append-positioned log.
    pub wal: WalFile,
    /// Every complete record, in log order (a leading `Compact`
    /// marker first when the log was ever compacted).
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail truncated away during recovery (0 on a
    /// clean log).
    pub truncated_bytes: u64,
}

/// An open per-dataset write-ahead log: append + fsync, failpoint
/// injection, compaction. See the [module docs](self) for the
/// protocol and format.
#[derive(Debug)]
pub struct WalFile {
    file: File,
    path: PathBuf,
    /// Logical file length — where the next append lands.
    len: u64,
    /// Complete records currently in the log.
    records: u64,
    /// Epoch the log replays to (the last record's epoch, or the
    /// compact base, or 0 for an empty log).
    epoch: u64,
    /// Fault injection: remaining byte budget before writes start
    /// failing (`None` = disabled).
    fail_after: Option<u64>,
}

impl WalFile {
    /// Opens (or creates) the log at `path`, scans it, repairs a torn
    /// tail by truncation, and returns the records to replay. Real
    /// corruption — bad magic, a checksum mismatch on a complete
    /// record, a broken epoch sequence — is a typed error, never a
    /// panic and never silent data loss.
    pub fn open(path: &Path) -> Result<WalOpen, WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            return Ok(WalOpen {
                wal: WalFile {
                    file,
                    path: path.to_path_buf(),
                    len: WAL_MAGIC.len() as u64,
                    records: 0,
                    epoch: 0,
                    fail_after: None,
                },
                records: Vec::new(),
                truncated_bytes: 0,
            });
        }
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(WalError::BadMagic);
        }
        let (records, clean_len) = scan_records(&bytes)?;
        let truncated_bytes = bytes.len() as u64 - clean_len;
        if truncated_bytes > 0 {
            // Physically drop the torn tail so the next append starts
            // on a clean record boundary.
            file.set_len(clean_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(clean_len))?;
        let epoch = records.last().map_or(0, WalRecord::epoch);
        Ok(WalOpen {
            wal: WalFile {
                file,
                path: path.to_path_buf(),
                len: clean_len,
                records: records.len() as u64,
                epoch,
                fail_after: None,
            },
            records,
            truncated_bytes,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logical bytes in the log (header + complete records).
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// Complete records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The epoch the log currently replays to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Arms (or disarms with `None`) the write failpoint: after `n`
    /// more bytes reach the file, every further byte is dropped and
    /// the append returns [`WalError::Failpoint`] — simulating a
    /// crash at that exact offset. Fault-injection tests only.
    pub fn fail_after_n_bytes(&mut self, n: Option<u64>) {
        self.fail_after = n;
    }

    /// Writes `buf` through the failpoint: on a tripped budget the
    /// allowed prefix still reaches the file (and is synced, like a
    /// real partial write that survived a crash) and the rest is lost.
    fn write_through_failpoint(&mut self, buf: &[u8]) -> Result<(), WalError> {
        match self.fail_after {
            None => {
                self.file.write_all(buf)?;
                Ok(())
            }
            Some(budget) => {
                let allowed = (budget as usize).min(buf.len());
                self.fail_after = Some(budget - allowed as u64);
                self.file.write_all(&buf[..allowed])?;
                if allowed < buf.len() {
                    self.file.sync_data()?;
                    return Err(WalError::Failpoint);
                }
                Ok(())
            }
        }
    }

    /// Appends one record and fsyncs. On success the record is
    /// durable; on any error the caller must treat the mutation as
    /// not-logged (a partial append is recovered as a torn tail on
    /// the next open). Enforces the strict `+1` epoch sequence.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let expected = self.epoch + 1;
        if record.epoch() != expected {
            return Err(WalError::EpochMismatch {
                expected,
                got: record.epoch(),
            });
        }
        let framed = record.encode();
        self.write_through_failpoint(&framed)?;
        self.file.sync_data()?;
        self.len += framed.len() as u64;
        self.records += 1;
        self.epoch = record.epoch();
        Ok(())
    }

    /// Rewrites the log as a single `Compact { base_epoch }` marker —
    /// called after the caller has durably written a snapshot of the
    /// dataset at `base_epoch`. Crash-safe: the new log is written to
    /// a temp file, fsynced, then renamed over the old one, so either
    /// the full old log or the compacted one exists, never a mix.
    pub fn compact(&mut self, base_epoch: u64) -> Result<(), WalError> {
        let tmp = self.path.with_extension("wal.tmp");
        let mut out = Vec::new();
        out.extend_from_slice(WAL_MAGIC);
        out.extend_from_slice(&WalRecord::Compact { base_epoch }.encode());
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Best-effort directory sync so the rename itself is durable.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_data();
            }
        }
        let file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        let len = out.len() as u64;
        let mut file = file;
        file.seek(SeekFrom::Start(len))?;
        self.file = file;
        self.len = len;
        self.records = 1;
        self.epoch = base_epoch;
        Ok(())
    }
}

/// Scans the byte image of a log: returns every complete, checksummed
/// record plus the clean length (where a torn tail, if any, begins).
/// A complete record that fails its checksum or structural validation
/// is corruption; an *incomplete* final record is a torn tail.
fn scan_records(bytes: &[u8]) -> Result<(Vec<WalRecord>, u64), WalError> {
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let mut last_epoch: Option<u64> = None;
    while pos < bytes.len() {
        let offset = pos as u64;
        let remaining = &bytes[pos..];
        if remaining.len() < 8 {
            return Ok((records, offset)); // torn framing
        }
        let len = u32::from_le_bytes([remaining[0], remaining[1], remaining[2], remaining[3]]);
        let crc = u32::from_le_bytes([remaining[4], remaining[5], remaining[6], remaining[7]]);
        if len > MAX_RECORD_BYTES {
            return Err(WalError::Corrupt {
                offset,
                detail: format!("record length {len} exceeds the {MAX_RECORD_BYTES}-byte cap"),
            });
        }
        let len = len as usize;
        if remaining.len() < 8 + len {
            return Ok((records, offset)); // torn payload
        }
        let payload = &remaining[8..8 + len];
        if crc32(payload) != crc {
            return Err(WalError::Corrupt {
                offset,
                detail: "checksum mismatch".into(),
            });
        }
        let record = WalRecord::decode_payload(payload, offset)?;
        match (&record, last_epoch, records.is_empty()) {
            (WalRecord::Compact { .. }, _, false) => {
                return Err(WalError::Corrupt {
                    offset,
                    detail: "compact marker after the first record".into(),
                });
            }
            (WalRecord::Compact { .. }, _, true) => {}
            (_, base, _) => {
                let expected = base.map_or(1, |e| e + 1);
                if record.epoch() != expected {
                    return Err(WalError::EpochMismatch {
                        expected,
                        got: record.epoch(),
                    });
                }
            }
        }
        last_epoch = Some(record.epoch());
        records.push(record);
        pos += 8 + len;
    }
    Ok((records, pos as u64))
}

/// Replays `records` over `base`, returning the epoch reached. `base`
/// must be the dataset the log's first mutation applies to (the
/// snapshot at the leading `Compact` marker's epoch, or the original
/// CSV at epoch 0).
pub fn replay(base: &mut crate::csv::CsvData, records: &[WalRecord]) -> Result<u64, WalError> {
    let mut epoch = 0;
    for record in records {
        match record {
            WalRecord::Compact { base_epoch } => epoch = *base_epoch,
            _ => {
                let (deletes, inserts, labels) = record.mutation();
                base.apply_update(deletes, inserts, labels)
                    .map_err(|message| WalError::Replay {
                        epoch: record.epoch(),
                        message,
                    })?;
                epoch = record.epoch();
            }
        }
    }
    Ok(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::parse_csv;

    /// A log path in a private directory; the directory (and the log)
    /// go away when the returned guard drops.
    fn temp_log(tag: &str) -> (utk_testdir::TestDir, PathBuf) {
        let dir = utk_testdir::TestDir::new(&format!("wal_{tag}"));
        let path = dir.join("log.wal");
        (dir, path)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                epoch: 1,
                rows: vec![vec![0.5, 0.25]],
                labels: Some(vec!["p9".into()]),
            },
            WalRecord::Delete {
                epoch: 2,
                ids: vec![0, 3],
            },
            WalRecord::Update {
                epoch: 3,
                deletes: vec![1],
                inserts: vec![vec![0.125, 0.75], vec![1.0, 2.0]],
                labels: Some(vec!["p10".into(), "p11".into()]),
            },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value ("123456789" → 0xCBF43926) plus the
        // empty string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_reopen_round_trips_records() {
        let (_dir, path) = temp_log("roundtrip");
        let mut open = WalFile::open(&path).expect("create");
        assert!(open.records.is_empty());
        for r in sample_records() {
            open.wal.append(&r).expect("append");
        }
        assert_eq!(open.wal.records(), 3);
        assert_eq!(open.wal.epoch(), 3);
        let reopened = WalFile::open(&path).expect("reopen");
        assert_eq!(reopened.records, sample_records());
        assert_eq!(reopened.truncated_bytes, 0);
        assert_eq!(reopened.wal.epoch(), 3);
    }

    #[test]
    fn every_crash_offset_truncates_to_a_record_boundary() {
        // Simulate a crash at every byte offset inside the second
        // append: reopen must recover exactly one record (epoch 1) or
        // both (epoch 2), never anything else.
        let records = sample_records();
        let second_len = records[1].encode().len() as u64;
        for cut in 0..second_len {
            let (_dir, path) = temp_log(&format!("crash_{cut}"));
            let mut open = WalFile::open(&path).expect("create");
            open.wal.append(&records[0]).expect("first append");
            open.wal.fail_after_n_bytes(Some(cut));
            let err = open.wal.append(&records[1]).expect_err("failpoint");
            assert!(matches!(err, WalError::Failpoint));
            let reopened = WalFile::open(&path).expect("recover");
            assert_eq!(reopened.records.len(), 1, "cut at {cut}");
            assert_eq!(reopened.wal.epoch(), 1);
            assert_eq!(reopened.truncated_bytes, cut);
            // The log is usable again: the retried append lands clean.
            let mut wal = reopened.wal;
            wal.append(&records[1]).expect("retry after recovery");
            let healed = WalFile::open(&path).expect("reopen healed");
            assert_eq!(healed.records.len(), 2);
            assert_eq!(healed.wal.epoch(), 2);
        }
    }

    #[test]
    fn flipped_checksum_byte_is_typed_corruption() {
        let (_dir, path) = temp_log("flip");
        let mut open = WalFile::open(&path).expect("create");
        open.wal.append(&sample_records()[0]).expect("append");
        let mut bytes = std::fs::read(&path).expect("read");
        let crc_at = WAL_MAGIC.len() + 4;
        bytes[crc_at] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = WalFile::open(&path).expect_err("must reject");
        assert!(
            matches!(err, WalError::Corrupt { .. }),
            "got {err:?} instead of Corrupt"
        );
    }

    #[test]
    fn duplicate_epoch_is_typed_mismatch() {
        let (_dir, path) = temp_log("dup");
        let mut open = WalFile::open(&path).expect("create");
        let r1 = WalRecord::Delete {
            epoch: 1,
            ids: vec![0],
        };
        open.wal.append(&r1).expect("append");
        // A live handle refuses the duplicate outright...
        let err = open.wal.append(&r1).expect_err("duplicate");
        assert!(matches!(
            err,
            WalError::EpochMismatch {
                expected: 2,
                got: 1
            }
        ));
        // ...and a log that already contains one (hand-forged) is
        // rejected at open.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&r1.encode());
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = WalFile::open(&path).expect_err("must reject");
        assert!(matches!(
            err,
            WalError::EpochMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn compaction_resets_the_log_to_a_single_marker() {
        let (_dir, path) = temp_log("compact");
        let mut open = WalFile::open(&path).expect("create");
        for r in sample_records() {
            open.wal.append(&r).expect("append");
        }
        open.wal.compact(3).expect("compact");
        assert_eq!(open.wal.records(), 1);
        assert_eq!(open.wal.epoch(), 3);
        // Appends continue from the compacted base.
        open.wal
            .append(&WalRecord::Delete {
                epoch: 4,
                ids: vec![0],
            })
            .expect("append after compact");
        let reopened = WalFile::open(&path).expect("reopen");
        assert_eq!(reopened.records.len(), 2);
        assert_eq!(reopened.records[0], WalRecord::Compact { base_epoch: 3 });
        assert_eq!(reopened.wal.epoch(), 4);
    }

    #[test]
    fn replay_applies_mutations_in_order() {
        let mut data = parse_csv("a,1.0,2.0\nb,3.0,4.0\nc,5.0,6.0\n", "t").expect("parse");
        let records = vec![
            WalRecord::Insert {
                epoch: 1,
                rows: vec![vec![7.0, 8.0]],
                labels: Some(vec!["d".into()]),
            },
            WalRecord::Update {
                epoch: 2,
                deletes: vec![0],
                inserts: vec![vec![9.0, 10.0]],
                labels: Some(vec!["e".into()]),
            },
        ];
        let epoch = replay(&mut data, &records).expect("replay");
        assert_eq!(epoch, 2);
        assert_eq!(
            data.dataset.points,
            vec![
                vec![3.0, 4.0],
                vec![5.0, 6.0],
                vec![7.0, 8.0],
                vec![9.0, 10.0]
            ]
        );
        assert_eq!(
            data.labels.as_deref(),
            Some(&["b".into(), "c".into(), "d".into(), "e".into()][..])
        );
    }

    #[test]
    fn replay_error_is_typed_not_a_panic() {
        let mut data = parse_csv("1.0,2.0\n", "t").expect("parse");
        let records = vec![WalRecord::Delete {
            epoch: 1,
            ids: vec![9],
        }];
        let err = replay(&mut data, &records).expect_err("bad id");
        assert!(matches!(err, WalError::Replay { epoch: 1, .. }));
    }
}

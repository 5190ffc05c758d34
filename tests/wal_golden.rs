//! Golden-bytes lock on the write-ahead-log format: one log holding
//! every record kind — `compact`, `insert`, `delete`, `update` —
//! pinned to its exact on-disk bytes.
//!
//! The fault-injection suite proves recovery is *self-consistent*
//! (replay matches a fresh build at any crash point); this test pins
//! the bytes themselves, so an accidental field reorder, a changed
//! checksum polynomial, or a renamed kind tag — which would
//! round-trip just fine — still fails loudly. If the golden changes,
//! that is a log-format break: existing WALs on disk stop replaying.
//! Update the bytes only with a deliberate format version decision
//! (and a migration story for logs already written).

use utk::data::wal::{WalFile, WalRecord};
use utk_testdir::TestDir;

/// Hex dump of the complete golden log: the 8-byte magic, then one
/// framed record per kind. Every payload starts `[kind][epoch:u64 LE]`
/// behind a `[len:u32 LE][crc32:u32 LE]` frame.
const GOLDEN_LOG_HEX: &str = concat!(
    // magic "UTKWAL01"
    "55544b57414c3031",
    // compact: len 9, crc, kind 03, base epoch 3
    "09000000882f0b51",
    "030300000000000000",
    // insert: len 48, crc, kind 01, epoch 4, 1 row × 3 criteria
    // [0.5, 0.25, 1.0], labels flag 01, label "p8"
    "3000000010d38719",
    "010400000000000000",
    "0100000003000000",
    "000000000000e03f000000000000d03f000000000000f03f",
    "01020000007038",
    // delete: len 21, crc, kind 02, epoch 5, ids [2, 7]
    "15000000b2b583bd",
    "020500000000000000",
    "020000000200000007000000",
    // update: len 50, crc, kind 04, epoch 6, delete [1], insert 1 row
    // × 3 criteria [0.125, 0.75, 0.0625], labels flag 00
    "3200000093b8f2c7",
    "040600000000000000",
    "0100000001000000",
    "0100000003000000",
    "000000000000c03f000000000000e83f000000000000b03f",
    "00",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The four records the golden log contains, in order. A leading
/// `compact` marker rebases the log at epoch 3; the mutations then
/// step 4 → 5 → 6.
fn golden_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Compact { base_epoch: 3 },
        WalRecord::Insert {
            epoch: 4,
            rows: vec![vec![0.5, 0.25, 1.0]],
            labels: Some(vec!["p8".into()]),
        },
        WalRecord::Delete {
            epoch: 5,
            ids: vec![2, 7],
        },
        WalRecord::Update {
            epoch: 6,
            deletes: vec![1],
            inserts: vec![vec![0.125, 0.75, 0.0625]],
            labels: None,
        },
    ]
}

#[test]
fn wal_log_bytes_are_golden() {
    let dir = TestDir::new("wal_golden");
    let path = dir.join("log.wal");

    // Write the log the way the registry does: compact to a snapshot
    // epoch, then append one mutation per kind.
    let mut wal = WalFile::open(&path).unwrap().wal;
    wal.compact(3).unwrap();
    for record in golden_records().iter().skip(1) {
        wal.append(record).unwrap();
    }
    drop(wal);

    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(hex(&bytes), GOLDEN_LOG_HEX, "WAL bytes changed");

    // The golden bytes replay to exactly the records that wrote them.
    let reopened = WalFile::open(&path).unwrap();
    assert_eq!(reopened.truncated_bytes, 0);
    assert_eq!(reopened.records, golden_records());
    assert_eq!(reopened.wal.epoch(), 6);
}

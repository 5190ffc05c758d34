//! Edge cases across the public API: boundary values of k, degenerate
//! datasets and regions, resilience checks, and write-ahead-log
//! corruption handling (every damaged log is a typed error or a clean
//! truncation — never a panic, never a silently wrong replay).

use utk::core::topk::top_k_brute;
use utk::data::synthetic::{generate, Distribution};
use utk::data::wal::{WalError, WalFile, WalRecord};
use utk::prelude::*;
use utk_testdir::TestDir;

#[test]
fn k_equals_one_and_k_equals_n_minus_one() {
    let ds = generate(Distribution::Ind, 40, 3, 70);
    let region = Region::hyperrect(vec![0.2, 0.2], vec![0.35, 0.35]);
    for k in [1, 39] {
        let r = rsa(&ds.points, &region, k, &RsaOptions::default());
        let j = jaa(&ds.points, &region, k, &JaaOptions::default());
        assert_eq!(r.records, j.records, "k = {k}");
        for cell in &j.cells {
            assert_eq!(cell.top_k.len(), k);
        }
    }
}

#[test]
fn k_equals_dataset_size() {
    let ds = generate(Distribution::Ind, 25, 3, 71);
    let region = Region::hyperrect(vec![0.2, 0.2], vec![0.3, 0.3]);
    let r = rsa(&ds.points, &region, 25, &RsaOptions::default());
    assert_eq!(r.records.len(), 25, "every record is in the top-n");
    let j = jaa(&ds.points, &region, 25, &JaaOptions::default());
    assert_eq!(j.cells.len(), 1, "a single all-records cell");
}

#[test]
fn duplicate_heavy_dataset() {
    // Half the records are copies of one point; the pipelines must
    // agree with the deterministic id tie-break.
    let mut pts: Vec<Vec<f64>> = (0..20).map(|_| vec![0.8, 0.8, 0.8]).collect();
    let extra = generate(Distribution::Ind, 20, 3, 72);
    pts.extend(extra.points);
    let region = Region::hyperrect(vec![0.2, 0.2], vec![0.3, 0.3]);
    let k = 5;
    let r = rsa(&pts, &region, k, &RsaOptions::default());
    let j = jaa(&pts, &region, k, &JaaOptions::default());
    assert_eq!(r.records, j.records);
    for cell in &j.cells {
        let mut want = top_k_brute(&pts, &cell.interior, k);
        want.sort_unstable();
        assert_eq!(cell.top_k, want);
    }
}

#[test]
fn single_record_dataset() {
    let pts = vec![vec![0.5, 0.5]];
    let region = Region::hyperrect(vec![0.3], vec![0.6]);
    let r = rsa(&pts, &region, 1, &RsaOptions::default());
    assert_eq!(r.records, vec![0]);
    let j = jaa(&pts, &region, 1, &JaaOptions::default());
    assert_eq!(j.cells.len(), 1);
    assert_eq!(j.cells[0].top_k, vec![0]);
}

#[test]
fn two_identical_records_k1() {
    let pts = vec![vec![0.7, 0.7], vec![0.7, 0.7]];
    let region = Region::hyperrect(vec![0.2], vec![0.8]);
    let r = rsa(&pts, &region, 1, &RsaOptions::default());
    // Deterministic tie-break: record 0 wins everywhere.
    assert_eq!(r.records, vec![0]);
}

#[test]
fn needle_thin_region() {
    // A very thin (but full-dimensional) region still works.
    let ds = generate(Distribution::Ind, 100, 3, 73);
    let region = Region::hyperrect(vec![0.25, 0.25], vec![0.2501, 0.35]);
    let r = rsa(&ds.points, &region, 3, &RsaOptions::default());
    let j = jaa(&ds.points, &region, 3, &JaaOptions::default());
    assert_eq!(r.records, j.records);
    assert!(r.records.len() >= 3);
}

#[test]
fn one_dimensional_data_is_rejected_gracefully() {
    // d = 1 means a 0-dimensional preference domain; the single
    // weight is fixed at 1 and the top-k is unconditional. The API
    // contract requires d ≥ 2 (region dim = d − 1 ≥ 1); verify the
    // assertion fires rather than silently misbehaving.
    let pts = vec![vec![0.3], vec![0.9]];
    let region = Region::hyperrect(vec![0.5], vec![0.6]); // wrong dim on purpose
    let result = std::panic::catch_unwind(|| rsa(&pts, &region, 1, &RsaOptions::default()));
    assert!(result.is_err(), "dimension mismatch must panic loudly");
}

#[test]
fn zero_valued_records() {
    let mut pts = generate(Distribution::Ind, 50, 3, 74).points;
    pts.push(vec![0.0, 0.0, 0.0]); // strictly dominated by everything
    let region = Region::hyperrect(vec![0.2, 0.2], vec![0.3, 0.3]);
    let r = rsa(&pts, &region, 3, &RsaOptions::default());
    assert!(!r.records.contains(&(pts.len() as u32 - 1)));
}

#[test]
fn stats_are_populated() {
    let ds = generate(Distribution::Anti, 500, 3, 75);
    let region = Region::hyperrect(vec![0.2, 0.2], vec![0.35, 0.35]);
    let r = rsa(&ds.points, &region, 5, &RsaOptions::default());
    assert!(r.stats.candidates > 0);
    assert!(r.stats.bbs_pops > 0);
    assert!(r.stats.rdom_tests > 0);
    let j = jaa(&ds.points, &region, 5, &JaaOptions::default());
    assert!(j.stats.arrangements_built > 0);
    assert!(j.stats.peak_arrangement_bytes > 0);
}

/// A fresh WAL containing two committed mutations, plus the byte
/// length of the file so tests can corrupt precise offsets.
fn two_record_wal(tag: &str) -> (TestDir, std::path::PathBuf, u64) {
    let dir = TestDir::new(&format!("edge_wal_{tag}"));
    let path = dir.join("log.wal");
    let mut wal = WalFile::open(&path).unwrap().wal;
    wal.append(&WalRecord::for_update(1, &[], &[vec![0.5, 0.5, 0.5]], None))
        .unwrap();
    wal.append(&WalRecord::for_update(2, &[1], &[], None))
        .unwrap();
    let len = wal.bytes();
    (dir, path, len)
}

#[test]
fn wal_truncated_tail_is_dropped_not_fatal() {
    let (_dir, path, _) = two_record_wal("torn");
    let full = std::fs::read(&path).unwrap();
    // Cut the file mid-way through the second record: the committed
    // prefix must survive, the torn bytes must be physically removed.
    let cut = full.len() - 3;
    std::fs::write(&path, &full[..cut]).unwrap();
    let opened = WalFile::open(&path).unwrap();
    assert_eq!(opened.records.len(), 1, "committed prefix survives");
    assert_eq!(opened.wal.epoch(), 1);
    assert!(opened.truncated_bytes > 0, "torn tail was reported");
    assert!(
        std::fs::metadata(&path).unwrap().len() < cut as u64,
        "torn tail was physically truncated"
    );
    // Reopening after the repair is clean: nothing left to truncate.
    drop(opened);
    let again = WalFile::open(&path).unwrap();
    assert_eq!(again.truncated_bytes, 0);
    assert_eq!(again.records.len(), 1);
}

#[test]
fn wal_flipped_checksum_byte_is_a_typed_error() {
    let (_dir, path, _) = two_record_wal("crc");
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one payload byte of the first record (magic is 8 bytes,
    // then [len][crc] framing of 8 more; +4 lands inside the payload).
    let victim = 8 + 8 + 4;
    bytes[victim] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match WalFile::open(&path) {
        Err(WalError::Corrupt { offset, detail }) => {
            assert_eq!(offset, 8, "corruption is located at the first record");
            assert!(detail.contains("checksum"), "detail: {detail}");
        }
        other => panic!("want Corrupt, got {other:?}"),
    }
}

#[test]
fn wal_duplicate_epoch_is_a_typed_error() {
    let (_dir, path, _) = two_record_wal("dup");
    // Hand-append a record that repeats epoch 2 — `append` itself
    // refuses to write one, so splice the framed bytes in directly.
    let stale = WalRecord::for_update(2, &[], &[vec![0.1, 0.2, 0.3]], None);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&stale.encode());
    std::fs::write(&path, &bytes).unwrap();
    match WalFile::open(&path) {
        Err(WalError::EpochMismatch { expected, got }) => {
            assert_eq!((expected, got), (3, 2));
        }
        other => panic!("want EpochMismatch, got {other:?}"),
    }
}

#[test]
fn wal_bad_magic_is_a_typed_error() {
    let dir = TestDir::new("edge_wal_magic");
    let path = dir.join("log.wal");
    std::fs::write(&path, b"NOTAWAL0rest of the garbage").unwrap();
    match WalFile::open(&path) {
        Err(WalError::BadMagic) => {}
        other => panic!("want BadMagic, got {other:?}"),
    }
}

#[test]
fn utk2_accessors() {
    let ds = generate(Distribution::Anti, 200, 3, 76);
    let region = Region::hyperrect(vec![0.2, 0.2], vec![0.35, 0.35]);
    let j = jaa(&ds.points, &region, 4, &JaaOptions::default());
    assert!(j.num_partitions() >= j.num_distinct_sets());
    assert!(j.cell_containing(&[0.25, 0.25]).is_some());
    assert!(j.cell_containing(&[0.9, 0.05]).is_none());
}

//! End-to-end crash-durability tests through the public API only: build a
//! durable table, mutate it, drop it cold (no shutdown hook exists — a
//! drop *is* a `kill -9` as far as the on-disk state is concerned, since
//! every record reaches the file before its rows publish), and
//! [`recover_sharded`] must rebuild the exact state. Most tests write
//! through a one-shard table's shard, the paper's single table, and
//! compare that shard byte for byte. File-level fault injection
//! (truncated tails, flipped bytes) runs against the real segment files.

use hyrise_core::shard::ShardedTable;
use hyrise_core::{recover_sharded, Durability, Error, OnlineTable};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const COLS: usize = 3;

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hyrise-wal-recovery-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A durable one-shard table under `dir`; its writes go to `shard(0)`.
fn durable(dir: &Path, fsync: bool) -> ShardedTable<u64> {
    ShardedTable::builder()
        .columns(COLS)
        .durability(Durability::Wal {
            dir: dir.to_path_buf(),
            fsync,
        })
        .build()
        .unwrap()
}

fn row(seed: u64) -> Vec<u64> {
    (0..COLS as u64)
        .map(|c| seed.wrapping_mul(0x9E37_79B9).wrapping_add(c) % 1_000_003)
        .collect()
}

/// Byte-identity: dictionaries, packed code words, per-row values and
/// validity all agree — and so do the zone maps, which a recovered main
/// rebuilds from its checkpointed codes while the model's main carried them
/// through its merges.
fn assert_state_identical(a: &OnlineTable<u64>, b: &OnlineTable<u64>) {
    assert_eq!(a.row_count(), b.row_count(), "row counts differ");
    assert_eq!(a.main_len(), b.main_len(), "main lengths differ");
    assert_eq!(a.delta_len(), b.delta_len(), "delta lengths differ");
    let (sa, sb) = (a.snapshot(), b.snapshot());
    for c in 0..COLS {
        assert_eq!(
            sa.col(c).main().dictionary().values(),
            sb.col(c).main().dictionary().values(),
            "column {c}: dictionaries differ"
        );
        assert_eq!(
            sa.col(c).main().packed_codes().words(),
            sb.col(c).main().packed_codes().words(),
            "column {c}: packed code words differ"
        );
        assert_eq!(
            sa.col(c).main().zones(),
            sb.col(c).main().zones(),
            "column {c}: zone maps differ"
        );
    }
    for r in 0..a.row_count() {
        assert_eq!(a.is_valid(r), b.is_valid(r), "validity of row {r} differs");
        for c in 0..COLS {
            assert_eq!(a.get(c, r), b.get(c, r), "value at ({c}, {r}) differs");
        }
    }
}

#[test]
fn recover_replays_inserts_deletes_and_merges() {
    let scratch = Scratch::new("roundtrip");
    let model = OnlineTable::<u64>::new(COLS);
    {
        let table = durable(scratch.path(), false);
        let t = table.shard(0);
        // Past two zone blocks, so the checkpointed main has full ones.
        let batch: Vec<Vec<u64>> = (0..9_000u64).map(row).collect();
        t.insert_rows(&batch).unwrap();
        model.insert_rows(&batch).unwrap();
        for r in [3usize, 77, 200] {
            t.delete_row(r).unwrap();
            model.delete_row(r).unwrap();
        }
        t.merge(1).unwrap();
        model.merge(1).unwrap();
        let tail: Vec<Vec<u64>> = (9_000..9_123u64).map(row).collect();
        t.insert_rows(&tail).unwrap();
        model.insert_rows(&tail).unwrap();
        // One delete lands in the checkpointed main, one in the tail that
        // exists only in the WAL.
        for r in [450usize, 9_050] {
            t.delete_row(r).unwrap();
            model.delete_row(r).unwrap();
        }
        // dropped cold: no flush hook runs
    }
    let back = recover_sharded::<u64>(scratch.path()).unwrap();
    assert!(back.shard(0).is_durable(), "recovered table keeps logging");
    assert_state_identical(back.shard(0), &model);
}

#[test]
fn recovered_table_keeps_accepting_writes_and_recovering() {
    let scratch = Scratch::new("relog");
    {
        let table = durable(scratch.path(), false);
        let t = table.shard(0);
        t.insert_rows(&(0..100u64).map(row).collect::<Vec<_>>())
            .unwrap();
    }
    let model = OnlineTable::<u64>::new(COLS);
    model
        .insert_rows(&(0..100u64).map(row).collect::<Vec<_>>())
        .unwrap();
    {
        // First recovery continues the live segment: new writes must land
        // after the replayed ones and survive a second crash.
        let table = recover_sharded::<u64>(scratch.path()).unwrap();
        let t = table.shard(0);
        let more: Vec<Vec<u64>> = (100..180u64).map(row).collect();
        t.insert_rows(&more).unwrap();
        model.insert_rows(&more).unwrap();
        t.merge(1).unwrap();
        model.merge(1).unwrap();
    }
    let back = recover_sharded::<u64>(scratch.path()).unwrap();
    assert_state_identical(back.shard(0), &model);
}

#[test]
fn fsync_mode_round_trips_too() {
    let scratch = Scratch::new("fsync");
    let model = OnlineTable::<u64>::new(COLS);
    {
        let table = durable(scratch.path(), true);
        let t = table.shard(0);
        let batch: Vec<Vec<u64>> = (0..64u64).map(row).collect();
        t.insert_rows(&batch).unwrap();
        model.insert_rows(&batch).unwrap();
        t.delete_row(5).unwrap();
        model.delete_row(5).unwrap();
    }
    let back = recover_sharded::<u64>(scratch.path()).unwrap();
    assert_state_identical(back.shard(0), &model);
}

/// The newest (live) segment file of the one shard under `root`.
fn live_segment(root: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(root.join("shard-0"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".wal"))
        })
        .collect();
    segs.sort();
    segs.pop().expect("a live segment exists")
}

#[test]
fn torn_final_record_recovers_the_clean_prefix() {
    let scratch = Scratch::new("torn");
    {
        let table = durable(scratch.path(), false);
        let t = table.shard(0);
        for chunk in (0..10u64).collect::<Vec<_>>().chunks(2) {
            let batch: Vec<Vec<u64>> = chunk.iter().map(|&i| row(i)).collect();
            t.insert_rows(&batch).unwrap();
        }
    }
    // Shear the last record mid-payload: a crash inside a single append.
    let seg = live_segment(scratch.path());
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 7).unwrap();
    drop(f);

    let back = recover_sharded::<u64>(scratch.path()).unwrap();
    // The final 2-row batch is gone; every batch before it survives whole.
    assert_eq!(back.row_count(), 8, "clean prefix only");
    for r in 0..8 {
        assert_eq!(back.shard(0).get(0, r), row(r as u64)[0]);
    }
    // And the recovered WAL reuses the truncated position: new writes
    // replace the torn bytes and survive the next recovery.
    back.shard(0).insert_rows(&[row(999)]).unwrap();
    drop(back);
    let again = recover_sharded::<u64>(scratch.path()).unwrap();
    assert_eq!(again.row_count(), 9);
    assert_eq!(again.shard(0).get(1, 8), row(999)[1]);
}

#[test]
fn corrupt_record_mid_log_is_a_typed_error() {
    let scratch = Scratch::new("corrupt");
    {
        let table = durable(scratch.path(), false);
        let t = table.shard(0);
        t.insert_rows(&(0..50u64).map(row).collect::<Vec<_>>())
            .unwrap();
        t.insert_rows(&(50..100u64).map(row).collect::<Vec<_>>())
            .unwrap();
    }
    let seg = live_segment(scratch.path());
    // Flip one byte in the middle of the first record's payload: the
    // frame is complete (not torn), so the CRC must catch it.
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[24] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();

    let err = recover_sharded::<u64>(scratch.path())
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, Error::Corrupt { .. }),
        "CRC mismatch must surface as Error::Corrupt, got: {err}"
    );
}

#[test]
fn recovering_a_missing_table_is_a_typed_error() {
    let scratch = Scratch::new("missing");
    let err = recover_sharded::<u64>(scratch.path())
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, Error::Io { .. }),
        "no manifest on disk, got: {err}"
    );
}

#[test]
fn sharded_table_recovers_per_shard() {
    let scratch = Scratch::new("sharded");
    let model = ShardedTable::<u64>::builder()
        .shards(3)
        .columns(COLS)
        .build()
        .unwrap();
    {
        let t = ShardedTable::<u64>::builder()
            .shards(3)
            .columns(COLS)
            .durability(Durability::Wal {
                dir: scratch.path().to_path_buf(),
                fsync: false,
            })
            .build()
            .unwrap();
        let rows: Vec<Vec<u64>> = (0..600u64).map(row).collect();
        let ids = t.insert_rows(&rows).unwrap();
        let model_ids = model.insert_rows(&rows).unwrap();
        assert_eq!(ids, model_ids, "routing is deterministic");
        t.merge_all(1).unwrap();
        model.merge_all(1).unwrap();
        let more: Vec<Vec<u64>> = (600..700u64).map(row).collect();
        t.insert_rows(&more).unwrap();
        model.insert_rows(&more).unwrap();
    }
    let back: ShardedTable<u64> = recover_sharded(scratch.path()).unwrap();
    assert_eq!(back.num_shards(), 3);
    for (a, b) in back.shards().iter().zip(model.shards()) {
        assert_state_identical(a, b);
    }
}

// --- Recovery oracle: arbitrary op interleavings, crash at an arbitrary
// boundary, replay must be byte-identical. ---

/// One logical operation, decoded from raw proptest integers.
#[derive(Debug, Clone, Copy)]
enum Op {
    InsertBatch { seed: u64, n: usize },
    Delete { target: u64 },
    Merge,
}

fn decode(raw: &[(u8, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, x)| match kind % 8 {
            0..=4 => Op::InsertBatch {
                seed: x,
                n: (x % 9 + 1) as usize,
            },
            5..=6 => Op::Delete { target: x },
            _ => Op::Merge,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The oracle: every operation that returned before the crash is on
    /// disk (buffered writes survive process death), so recovery must
    /// reproduce the model table exactly — dictionaries, packed words,
    /// row values, validity — no matter where the op stream stopped.
    #[test]
    fn recovery_is_byte_identical_at_any_op_boundary(
        raw in prop::collection::vec((any::<u8>(), any::<u64>()), 1..40),
        cut in any::<u16>(),
    ) {
        let ops = decode(&raw);
        let cut = cut as usize % (ops.len() + 1);
        let scratch = Scratch::new("oracle");
        let model = OnlineTable::<u64>::new(COLS);
        {
            let table = durable(scratch.path(), false);
        let t = table.shard(0);
            for op in &ops[..cut] {
                match *op {
                    Op::InsertBatch { seed, n } => {
                        let batch: Vec<Vec<u64>> =
                            (0..n as u64).map(|k| row(seed.wrapping_add(k))).collect();
                        t.insert_rows(&batch).unwrap();
                        model.insert_rows(&batch).unwrap();
                    }
                    Op::Delete { target } => {
                        let rows = t.row_count();
                        if rows > 0 {
                            let r = (target as usize) % rows;
                            t.delete_row(r).unwrap();
                            model.delete_row(r).unwrap();
                        }
                    }
                    Op::Merge => {
                        if t.delta_len() > 0 {
                            t.merge(1).unwrap();
                            model.merge(1).unwrap();
                        }
                    }
                }
            }
        }
        let back = recover_sharded::<u64>(scratch.path()).unwrap();
        assert_state_identical(back.shard(0), &model);
    }
}

//! Crash recovery: rebuild a [`ShardedTable`] from its durable root
//! directory, one [`OnlineTable`] shard at a time.
//!
//! What is on disk after a crash, and what each piece becomes:
//!
//! | on disk | becomes |
//! |---|---|
//! | root `SHARDS` manifest | schema check (columns, value width, fsync policy) and the router |
//! | each `shard-<i>/` directory | one shard, recovered independently from the rows below |
//! | `checkpoint.bin` | the row count and validity of the checkpointed rows |
//! | `col-<c>-<rows>.bin` at the checkpoint's rows | column `c`'s main partition |
//! | sealed `seg-*.wal` | one bit-packed [`hyrise_storage::FrozenDelta`] per column, frozen and merged before recovery returns |
//! | `col-<c>-<rows>.bin` at the sealed rows' end | column `c`'s merge output, committed instead of re-merged |
//! | live `seg-*.wal` | replayed into a fresh tail through the normal insert path |
//! | empty `seg-*.wal` above an unsealed one | removed: a rotation that never sealed the segment below |
//! | any other `col-*` or `*.tmp` file | ignored; unlinked by the next finished merge |
//!
//! Replay rules, matching the WAL's ordering contract (see the private
//! `wal` module): a record is appended before its rows publish, so every
//! sealed segment is gap-free (a gap is [`crate::error::Error::Corrupt`]);
//! the live segment replays its maximal contiguous row prefix and
//! tolerates a torn final record; validity flips are row-addressed and
//! idempotent, so they apply last, in log order. A freeze's synced seal
//! is the merge's durable begin, so sealed rows beyond the checkpoint are
//! always merged forward — whether the merge was killed mid-way, failed or
//! was dropped before the crash, or never got past its freeze. The result is the
//! same bytes in every case: merge output depends only on the row value
//! sequence, which is also why a column file of the right generation can
//! be committed without a log to vouch for it.

use crate::error::{Error, Result};
use crate::manager::{MergePolicy, OnlineTable};
use crate::shard::ShardedTable;
use crate::wal::{self, Wal};
use hyrise_storage::{MainPartition, Value};
use std::path::Path;

/// Rebuild the shard at `dir`, whose `n_cols` columns and `fsync` policy
/// the root's `SHARDS` manifest states, to the exact durable state:
/// byte-identical dictionaries, packed code words, and validity versus the
/// uncrashed process. The WAL is re-attached (continuing the live segment,
/// truncated past any torn record), so the recovered shard keeps logging.
/// Sealed rows beyond the checkpoint are merged under
/// [`MergePolicy::default`]'s grant before this returns; every grant
/// yields byte-identical partitions, so the grant sets only the resume's
/// cost.
fn recover_shard<V: Value>(dir: &Path, n_cols: usize, fsync: bool) -> Result<OnlineTable<V>> {
    // The checkpointed mains (or empty ones for a never-merged table).
    // Stale column files of other generations are never read.
    let ckpt = wal::read_checkpoint::<V>(dir)?;
    let (ckpt_rows, mains, ckpt_validity) = match ckpt {
        Some(c) => (c.rows, c.mains, Some(c.validity)),
        None => (
            0,
            (0..n_cols).map(|_| MainPartition::empty()).collect(),
            None,
        ),
    };
    if mains.len() != n_cols {
        return Err(Error::recovery(format!(
            "{}: checkpoint has {} columns, SHARDS says {n_cols}",
            dir.display(),
            mains.len()
        )));
    }

    // Segments: drop the ones the checkpoint already absorbed (a crash
    // between checkpoint write and truncation leaves them behind), then
    // read the rest. All but the last must be sealed; the last, when
    // unsealed, is the live segment.
    let mut bases = Vec::new();
    for base in wal::list_segments(dir)? {
        if base < ckpt_rows {
            wal::remove_segment(dir, base)?;
        } else {
            bases.push(base);
        }
    }
    let mut segments = Vec::with_capacity(bases.len());
    for &base in &bases {
        segments.push(wal::read_segment::<V>(
            &wal::segment_file(dir, base),
            base,
            n_cols,
        )?);
    }
    // An empty segment above an unsealed one never took an append: a
    // rotation stopped before the segment below it was sealed, and that
    // one is still the live segment.
    if let [.., below, last] = segments.as_slice() {
        if !below.sealed && last.clean_len == 0 {
            wal::remove_segment(dir, last.base)?;
            segments.pop();
        }
    }
    let live = match segments.last() {
        Some(s) if !s.sealed => Some(segments.pop().expect("just matched")),
        _ => None,
    };

    // Sealed segments must chain contiguously from the checkpoint and be
    // internally gap-free (the ordering contract guarantees both for any
    // segment that ends with a seal record).
    let mut expected = ckpt_rows;
    let mut deltas: Vec<Vec<V>> = (0..n_cols).map(|_| Vec::new()).collect();
    let mut sealed_rows = 0usize;
    let mut flips: Vec<(usize, bool)> = Vec::new();
    for seg in &segments {
        if !seg.sealed {
            return Err(Error::corrupt(
                wal::segment_file(dir, seg.base),
                0,
                "unsealed segment below the live segment",
            ));
        }
        if seg.base != expected {
            return Err(Error::recovery(format!(
                "segment gap: expected base {expected}, found {}",
                seg.base
            )));
        }
        let rows = fold_segment_rows(dir, seg, &mut deltas, true)?;
        sealed_rows += rows;
        expected += rows;
        flips.extend_from_slice(&seg.flips);
    }

    let mut table = OnlineTable::from_recovered_parts(mains, deltas);

    // Validity: checkpoint bits for the checkpointed prefix, replayed
    // inserts are valid until flipped, flips go last (idempotent,
    // row-addressed, so re-applying one the checkpoint already captured
    // is harmless).
    let validity = table.validity_handle();
    if let Some(v) = &ckpt_validity {
        for i in 0..ckpt_rows {
            if v.is_valid(i) {
                validity.set_valid(i);
            }
        }
    }
    for i in ckpt_rows..ckpt_rows + sealed_rows {
        validity.set_valid(i);
    }

    // The live segment replays through the normal insert path — the WAL
    // is not attached yet, so replay does not re-log.
    let live_base = ckpt_rows + sealed_rows;
    let (live_clean_len, live_flips) = match live {
        Some(seg) => {
            if seg.base != live_base {
                return Err(Error::recovery(format!(
                    "live segment base {} does not follow the sealed rows ({live_base})",
                    seg.base
                )));
            }
            let mut tail: Vec<Vec<V>> = (0..n_cols).map(|_| Vec::new()).collect();
            let rows = fold_segment_rows(dir, &seg, &mut tail, false)?;
            let mut batch: Vec<Vec<V>> = Vec::with_capacity(rows);
            for r in 0..rows {
                batch.push(tail.iter().map(|col| col[r]).collect());
            }
            if !batch.is_empty() {
                let range = table
                    .insert_rows(&batch)
                    .expect("no wal attached during replay");
                debug_assert_eq!(range.start, live_base, "replay preserves tuple ids");
            }
            (seg.clean_len, seg.flips)
        }
        None => (0, Vec::new()),
    };
    flips.extend(live_flips);

    let total = table.row_count();
    for (row, valid) in flips {
        if row >= total {
            return Err(Error::recovery(format!(
                "validity flip targets row {row}, but only {total} rows replayed"
            )));
        }
        if valid {
            validity.set_valid(row);
        } else {
            validity.invalidate(row);
        }
    }

    // Re-attach the log (continuing the live segment truncated to its
    // clean prefix, or opening a fresh one when the crash landed between
    // a seal and the next segment's creation), then resume the merge of
    // the sealed rows, committing every column file the crashed merge
    // already wrote — completed steps are not redone, and the output is
    // byte-identical to the merge the crash interrupted.
    table.set_wal(Some(Wal::attach(dir, fsync, live_base, live_clean_len)?));

    if sealed_rows > 0 {
        let loaded = (0..n_cols)
            .filter(|&c| wal::column_exists(dir, c, live_base))
            .map(|c| Ok((c, wal::read_column::<V>(dir, c, live_base)?)))
            .collect::<Result<_>>()?;
        let mut session = table.begin_merge(MergePolicy::default().grant())?;
        session.commit(loaded);
        session.finish()?;
    }
    Ok(table)
}

/// Fold a segment's insert batches into per-column value vectors, in
/// global row order (the shape [`hyrise_storage::FrozenDelta`] freezes
/// from). Returns the number of contiguous rows folded. `sealed` demands
/// complete coverage (a sealed segment cannot have holes); a live segment
/// keeps its maximal contiguous prefix and drops the unpublished rest.
fn fold_segment_rows<V: Value>(
    dir: &Path,
    seg: &wal::SegmentData<V>,
    deltas: &mut [Vec<V>],
    sealed: bool,
) -> Result<usize> {
    let n_cols = deltas.len();
    // Batches append under a mutex but *reserve* slots beforehand, so
    // append order need not be row order: sort by start row.
    let mut order: Vec<usize> = (0..seg.inserts.len()).collect();
    order.sort_by_key(|&i| seg.inserts[i].start);
    let mut next = seg.base;
    let mut folded = 0usize;
    for &i in &order {
        let rec = &seg.inserts[i];
        if rec.start != next {
            if sealed {
                return Err(Error::corrupt(
                    wal::segment_file(dir, seg.base),
                    0,
                    format!(
                        "sealed segment skips rows {next}..{} (gap before a seal is impossible \
                         under the append-before-publish contract)",
                        rec.start
                    ),
                ));
            }
            break; // live segment: clean prefix only
        }
        for r in 0..rec.n_rows {
            for (c, d) in deltas.iter_mut().enumerate() {
                d.push(rec.values[r * n_cols + c]);
            }
        }
        next += rec.n_rows;
        folded += rec.n_rows;
    }
    Ok(folded)
}

/// Rebuild a durable [`ShardedTable`] from its root directory: the
/// `SHARDS` manifest states the schema and restores the routing layout,
/// and every `shard-<i>/` directory recovers independently (per-shard
/// logs, per-shard merges). A root of another value width, or a shard
/// whose files disagree with the manifest, is [`Error::Recovery`]. A
/// multi-shard batch torn by the crash recovers torn — see
/// [`ShardedTable::insert_rows`] for why that is the honest contract.
pub fn recover_sharded<V: Value>(root: impl AsRef<Path>) -> Result<ShardedTable<V>> {
    let root = root.as_ref();
    let m = wal::read_sharded_manifest::<V>(root)?;
    let bank = std::sync::Arc::new(crate::pipeline::SpareBank::new());
    let shards = (0..m.n_shards)
        .map(|i| {
            let shard = recover_shard(&wal::shard_dir(root, i), m.n_cols, m.fsync)?;
            Ok(shard.with_spare_bank(std::sync::Arc::clone(&bank)))
        })
        .collect::<Result<_>>()?;
    Ok(ShardedTable::from_parts(shards, m.by, m.key_col))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Durability;
    use crate::pipeline::{MergeBudget, MergeGrant, MergePipeline, MergeScratch, MergeStrategy};
    use crate::shard::ShardedTable;
    use hyrise_storage::FrozenDelta;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hyrise-recovery-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A durable 2-column shard logging to `dir`, as the builder makes
    /// each shard of a durable table.
    fn durable_table(dir: &Path) -> OnlineTable<u64> {
        let mut t = OnlineTable::new(2);
        t.set_wal(Some(Wal::create(dir, false, 0).unwrap()));
        t
    }

    /// Recover the shard `durable_table` made at `dir`.
    fn reopen(dir: &Path) -> Result<OnlineTable<u64>> {
        recover_shard(dir, 2, false)
    }

    /// An in-memory table holding `data`, merged without interruption.
    fn merged_reference(data: &[Vec<u64>]) -> OnlineTable<u64> {
        let t = OnlineTable::<u64>::new(2);
        t.insert_rows(data).unwrap();
        t.merge(1).unwrap();
        t
    }

    /// Byte-level equality of two tables' mains: every column's
    /// dictionary and packed code words.
    fn assert_mains_identical(a: &OnlineTable<u64>, b: &OnlineTable<u64>) {
        let (sa, sb) = (a.snapshot(), b.snapshot());
        for c in 0..sa.num_columns() {
            assert_eq!(
                sa.col(c).main().dictionary().values(),
                sb.col(c).main().dictionary().values(),
                "column {c}: dictionaries differ"
            );
            assert_eq!(
                sa.col(c).main().packed_codes().words(),
                sb.col(c).main().packed_codes().words(),
                "column {c}: packed words differ"
            );
        }
    }

    fn rows(n: u64) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| vec![i.wrapping_mul(97) % 501, i.wrapping_mul(31) % 777])
            .collect()
    }

    /// The table directory's file names, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// What a directory holds after a finished merge of `rows` rows on a
    /// 2-column table whose live segment starts at `live`.
    fn one_generation(rows: usize, live: usize) -> Vec<String> {
        let mut names = vec![
            format!("col-0-{rows:016x}.bin"),
            format!("col-1-{rows:016x}.bin"),
            "checkpoint.bin".to_string(),
            format!("seg-{live:016x}.wal"),
        ];
        names.sort();
        names
    }

    /// Hand-build the directory a crash leaves mid-merge — sealed rows,
    /// column 0's file of the sealed rows' generation written, column 1
    /// not started — and recovery must finish the merge byte-identically
    /// to a table that merged without crashing.
    #[test]
    fn interrupted_merge_resumes_from_staged_columns() {
        let dir = temp_dir("resume");
        let data = rows(300);
        {
            let w: Wal<u64> = Wal::create(&dir, false, 0).unwrap();
            w.append_insert(0, &data).unwrap();
            // The crash point: the seal is durable, column 0 is written.
            w.seal_and_rotate(300).unwrap();
            let delta0 = FrozenDelta::from_values(&data.iter().map(|r| r[0]).collect::<Vec<_>>());
            let merged0 = MergePipeline::new(MergeStrategy::Optimized, 1)
                .merge_column(&MainPartition::empty(), &delta0, &mut MergeScratch::new())
                .main;
            wal::write_column(&dir, 0, 300, &merged0).unwrap();
        }

        let back = reopen(&dir).unwrap();
        let reference = merged_reference(&data);

        assert_eq!(back.row_count(), 300);
        assert_eq!(back.main_len(), 300, "recovery finished the merge");
        assert_eq!(back.delta_len(), 0);
        assert_mains_identical(&back, &reference);
        assert_eq!(listing(&dir), one_generation(300, 300));
        // The resumed merge checkpointed: a second recovery replays from
        // the checkpoint alone (segments truncated) and still matches.
        drop(back);
        let again = reopen(&dir).unwrap();
        assert_eq!(again.main_len(), 300);
        assert_mains_identical(&again, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A durable session's steps are the resumable steps: kill the process
    /// (here: drop the session, then the table) after the first step of a
    /// one-column-per-step session, and
    /// recovery resumes from the written column and finishes the merge
    /// byte-identically to an uninterrupted one.
    #[test]
    fn durable_session_steps_survive_a_crash() {
        let dir = temp_dir("session");
        let data = rows(300);
        {
            let t = durable_table(&dir);
            t.insert_rows(&data).unwrap();
            let grant = MergeGrant::with_threads(1).budget(MergeBudget::columns(1));
            let mut session = t.begin_merge(grant).unwrap();
            assert!(session.step().unwrap());
        }
        assert!(wal::column_exists(&dir, 0, 300), "step 1 wrote column 0");
        assert!(!wal::column_exists(&dir, 1, 300));
        let back = reopen(&dir).unwrap();
        assert_eq!(back.main_len(), 300, "recovery finished the merge");
        assert_eq!(back.delta_len(), 0);
        assert_mains_identical(&back, &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A columns(1) session writes one column file per step and `finish`
    /// leaves exactly one generation: the manifest, one file per column
    /// and the live segment.
    #[test]
    fn session_writes_one_column_file_per_step() {
        let dir = temp_dir("per-step");
        let t = durable_table(&dir);
        let data = rows(300);
        t.insert_rows(&data).unwrap();
        let grant = MergeGrant::with_threads(1).budget(MergeBudget::columns(1));
        let mut session = t.begin_merge(grant).unwrap();
        assert!(session.step().unwrap());
        let cols: Vec<String> = listing(&dir)
            .into_iter()
            .filter(|n| n.starts_with("col-"))
            .collect();
        assert_eq!(cols, vec![format!("col-0-{:016x}.bin", 300)]);
        session.finish().unwrap();
        assert_eq!(listing(&dir), one_generation(300, 300));
        drop(t);
        assert_mains_identical(&reopen(&dir).unwrap(), &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unbudgeted durable merge is one whole-table step: it writes every
    /// column file, and finishing writes the manifest and truncates the
    /// absorbed segment, leaving one generation on disk.
    #[test]
    fn unbudgeted_durable_merge_leaves_one_generation() {
        let dir = temp_dir("unbudgeted");
        let t = durable_table(&dir);
        let data = rows(300);
        t.insert_rows(&data).unwrap();
        let mut session = t.begin_merge(MergeGrant::with_threads(1)).unwrap();
        assert!(session.step().unwrap());
        assert!(!session.step().unwrap());
        assert!(wal::column_exists(&dir, 0, 300) && wal::column_exists(&dir, 1, 300));
        assert!(
            wal::read_checkpoint::<u64>(&dir).unwrap().is_none(),
            "no manifest before finish"
        );
        assert_eq!(wal::list_segments(&dir).unwrap(), vec![0, 300]);
        session.finish().unwrap();
        assert_eq!(listing(&dir), one_generation(300, 300));
        let ckpt = wal::read_checkpoint::<u64>(&dir)
            .unwrap()
            .expect("checkpoint");
        assert_eq!(ckpt.rows, 300);
        drop(t);
        assert_mains_identical(&reopen(&dir).unwrap(), &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every column file of the new generation is written but the crash
    /// landed before the manifest rename: recovery commits the files,
    /// writes the manifest and unlinks the old generation.
    #[test]
    fn written_generation_behind_an_old_manifest_is_finished() {
        let dir = temp_dir("behind");
        let data = rows(500);
        {
            let t = durable_table(&dir);
            t.insert_rows(&data[..200]).unwrap();
            t.merge(1).unwrap();
            t.insert_rows(&data[200..]).unwrap();
            let grant = MergeGrant::with_threads(1).budget(MergeBudget::columns(1));
            let mut session = t.begin_merge(grant).unwrap();
            while session.step().unwrap() {}
        }
        let names = listing(&dir);
        for gen in [200usize, 500] {
            for c in 0..2 {
                assert!(
                    names.contains(&format!("col-{c}-{gen:016x}.bin")),
                    "{names:?}"
                );
            }
        }
        let back = reopen(&dir).unwrap();
        assert_eq!(back.main_len(), 500);
        assert_mains_identical(&back, &merged_reference(&data));
        assert_eq!(listing(&dir), one_generation(500, 500));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stale file of another generation and an interrupted `.tmp` write
    /// are ignored by recovery and unlinked by the next finished merge.
    #[test]
    fn stale_column_files_are_ignored_then_unlinked() {
        let dir = temp_dir("stale");
        let data = rows(300);
        {
            let t = durable_table(&dir);
            t.insert_rows(&data[..200]).unwrap();
            t.merge(1).unwrap();
        }
        let stale = dir.join(format!("col-0-{:016x}.bin", 7));
        let tmp = dir.join("checkpoint.bin.tmp");
        std::fs::write(&stale, b"not a column").unwrap();
        std::fs::write(&tmp, b"torn").unwrap();
        let back = reopen(&dir).unwrap();
        assert_eq!(back.main_len(), 200);
        assert!(stale.exists() && tmp.exists(), "recovery leaves them alone");
        back.insert_rows(&data[200..]).unwrap();
        back.merge(1).unwrap();
        assert_eq!(listing(&dir), one_generation(300, 300));
        drop(back);
        assert_mains_identical(&reopen(&dir).unwrap(), &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A merge dropped before its first step left its rows sealed but
    /// unmerged: recovery merges them forward.
    #[test]
    fn cancelled_durable_merge_is_finished_by_recovery() {
        let dir = temp_dir("cancelled");
        let data = rows(100);
        {
            let t = durable_table(&dir);
            t.insert_rows(&data).unwrap();
            drop(t.begin_merge(MergeGrant::with_threads(1)).unwrap());
            assert_eq!(t.main_len(), 0, "the rows stay frozen");
            assert_eq!(wal::list_segments(&dir).unwrap(), vec![0, 100]);
        }
        let back = reopen(&dir).unwrap();
        assert_eq!(back.row_count(), 100);
        assert_eq!(back.main_len(), 100, "recovery merged the sealed rows");
        assert_eq!(back.delta_len(), 0);
        assert_mains_identical(&back, &merged_reference(&data));
        assert_eq!(listing(&dir), one_generation(100, 100));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A merge of an empty delta rewrites the live generation's column
    /// files in place; the delete it checkpoints survives recovery.
    #[test]
    fn empty_delta_merge_keeps_one_generation_and_the_delete() {
        let dir = temp_dir("empty-delta");
        let data = rows(300);
        let t = durable_table(&dir);
        t.insert_rows(&data).unwrap();
        t.merge(1).unwrap();
        t.delete_row(17).unwrap();
        t.merge_with(MergeGrant::with_threads(1)).unwrap();
        assert_eq!(listing(&dir), one_generation(300, 300));
        let ckpt = wal::read_checkpoint::<u64>(&dir)
            .unwrap()
            .expect("manifest");
        assert!(!ckpt.validity.is_valid(17), "the manifest holds the delete");
        drop(t);
        let back = reopen(&dir).unwrap();
        assert_eq!(back.main_len(), 300);
        assert!(!back.is_valid(17));
        assert_eq!(back.snapshot().validity().valid_count(), 299);
        assert_mains_identical(&back, &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A column whose dictionary crosses 2^8 distinct values between two
    /// merges widens its codes 8 -> 9 bits and recovers byte-identically.
    #[test]
    fn code_width_crossing_recovers_byte_identical() {
        let dir = temp_dir("width");
        let data: Vec<Vec<u64>> = (0..257u64).map(|i| vec![i, i % 3]).collect();
        let t = durable_table(&dir);
        t.insert_rows(&data[..256]).unwrap();
        t.merge(1).unwrap();
        assert_eq!(t.snapshot().col(0).main().packed_codes().bits(), 8);
        t.insert_rows(&data[256..]).unwrap();
        t.merge(1).unwrap();
        drop(t);
        let back = reopen(&dir).unwrap();
        assert_eq!(back.snapshot().col(0).main().packed_codes().bits(), 9);
        assert_mains_identical(&back, &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A freeze whose WAL rotation cannot create the next segment leaves
    /// the live segment unsealed: the rows written after the failure land
    /// in it, the table reopens with every row, and the next merge leaves
    /// one generation.
    #[test]
    fn failed_rotation_keeps_the_table_recoverable() {
        let dir = temp_dir("rotation");
        let data = rows(105);
        {
            let t = durable_table(&dir);
            t.insert_rows(&data[..100]).unwrap();
            let blocker = dir.join(format!("seg-{:016x}.wal", 100));
            std::fs::create_dir(&blocker).unwrap();
            assert!(matches!(t.merge(1), Err(Error::Io { .. })));
            std::fs::remove_dir(&blocker).unwrap();
            t.insert_rows(&data[100..]).unwrap();
        }
        let back = reopen(&dir).unwrap();
        assert_eq!(back.row_count(), 105);
        assert_eq!(back.row(104), data[104]);
        back.merge(1).unwrap();
        assert_eq!(listing(&dir), one_generation(105, 105));
        assert_mains_identical(&back, &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A rotation stopped after creating the next segment but before
    /// sealing the live one leaves an empty segment above an unsealed one
    /// holding rows: the reopen drops the empty one and replays every row
    /// from the live segment.
    #[test]
    fn empty_segment_above_an_unsealed_one_is_dropped() {
        let dir = temp_dir("empty-above-unsealed");
        let data = rows(100);
        {
            let t = durable_table(&dir);
            t.insert_rows(&data).unwrap();
        }
        std::fs::File::create(wal::segment_file(&dir, 100)).unwrap();
        let back = reopen(&dir).unwrap();
        assert_eq!(back.row_count(), 100);
        assert_eq!(back.row(99), data[99]);
        assert_eq!(wal::list_segments(&dir).unwrap(), vec![0]);
        back.merge(1).unwrap();
        assert_eq!(listing(&dir), one_generation(100, 100));
        assert_mains_identical(&back, &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After a failed rotation the next merge resumes the frozen rows but
    /// writes no manifest and truncates no segment: the live segment
    /// still begins below them and takes appends. The merge call goes on
    /// to a fresh freeze, whose rotation seals that segment and whose
    /// finish leaves one generation.
    #[test]
    fn merge_resumed_after_a_failed_rotation_keeps_the_live_segment() {
        let dir = temp_dir("rotation-resume");
        let data = rows(105);
        let t = durable_table(&dir);
        t.insert_rows(&data[..100]).unwrap();
        let blocker = dir.join(format!("seg-{:016x}.wal", 100));
        std::fs::create_dir(&blocker).unwrap();
        assert!(t.merge(1).is_err());
        std::fs::remove_dir(&blocker).unwrap();
        t.insert_rows(&data[100..]).unwrap();
        t.begin_merge(MergeGrant::with_threads(1))
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(t.main_len(), 100, "the frozen rows merged");
        assert!(wal::read_checkpoint::<u64>(&dir).unwrap().is_none());
        assert_eq!(wal::list_segments(&dir).unwrap(), vec![0]);
        // A crash here recovers every row from the live segment.
        let crashed = temp_dir("rotation-resume-crashed");
        std::fs::create_dir(&crashed).unwrap();
        for name in listing(&dir) {
            std::fs::copy(dir.join(&name), crashed.join(&name)).unwrap();
        }
        assert_eq!(reopen(&crashed).unwrap().row_count(), 105);
        let _ = std::fs::remove_dir_all(&crashed);
        t.merge(1).unwrap();
        assert_eq!(listing(&dir), one_generation(105, 105));
        drop(t);
        assert_mains_identical(&reopen(&dir).unwrap(), &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scheduled merge whose column write fails is counted, leaves its
    /// delta frozen, and the merge the next write queues finishes it to
    /// the bytes of an uninterrupted merge.
    #[test]
    fn scheduled_merge_counts_a_failed_write_and_resumes_it() {
        use crate::manager::MergePolicy;
        use crate::scheduler::MergeScheduler;
        use std::time::{Duration, Instant};
        let wait_for = |done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let root = temp_dir("scheduled");
        let data = rows(301);
        let t = durable_root(&root);
        t.insert_rows(&data[..300]).unwrap();
        let blocker = wal::shard_dir(&root, 0).join(format!("col-1-{:016x}.bin", 300));
        std::fs::create_dir(&blocker).unwrap();
        let policy = MergePolicy {
            delta_fraction: 0.01,
            threads: 1,
            ..MergePolicy::default()
        };
        let sched = MergeScheduler::spawn(t.shards().to_vec(), policy);
        wait_for(&|| sched.stats().failed_merges > 0);
        assert_eq!(sched.stats().failed_merges, 1);
        assert_eq!(sched.stats().merges, 0);
        assert_eq!(t.shard(0).main_len(), 0, "the delta stays frozen");
        std::fs::remove_dir(&blocker).unwrap();
        t.insert_rows(&data[300..]).unwrap();
        wait_for(&|| t.delta_len() == 0);
        sched.shutdown();
        assert_eq!(sched.stats().merges, 1);
        assert_eq!(t.shard(0).main_len(), 301);
        assert_mains_identical(t.shard(0), &merged_reference(&data));
        assert_eq!(listing(&wal::shard_dir(&root, 0)), one_generation(301, 301));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A durable one-shard table of `u64` values under `root`.
    fn durable_root(root: &Path) -> ShardedTable<u64> {
        ShardedTable::builder()
            .columns(2)
            .durability(Durability::Wal {
                dir: root.to_path_buf(),
                fsync: false,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn recovering_with_another_value_width_is_a_recovery_error() {
        let root = temp_dir("width-type");
        durable_root(&root).insert_rows(&rows(10)).unwrap();
        let err = recover_sharded::<u32>(&root).map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::Recovery { .. }), "got {err:?}");
        assert_eq!(recover_sharded::<u64>(&root).unwrap().row_count(), 10);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_column_count_must_match_shards() {
        let root = temp_dir("ckpt-cols");
        let t = durable_root(&root);
        t.insert_rows(&rows(50)).unwrap();
        t.merge_all(1).unwrap();
        drop(t);
        // Rewrite SHARDS as if the table had three columns: the shard's
        // checkpoint still names two.
        let mut m = wal::read_sharded_manifest::<u64>(&root).unwrap();
        m.n_cols = 3;
        std::fs::remove_file(root.join("SHARDS")).unwrap();
        wal::write_sharded_manifest(&root, &m).unwrap();
        let err = recover_sharded::<u64>(&root).map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::Recovery { .. }), "got {err:?}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

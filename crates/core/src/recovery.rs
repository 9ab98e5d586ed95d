//! Crash recovery: rebuild a [`ShardedTable`] from its durable root
//! directory by replaying the table log over the shards' checkpoints.
//!
//! What is on disk after a crash, and what each piece becomes:
//!
//! | on disk | becomes |
//! |---|---|
//! | root `SHARDS` manifest | schema check (columns, value width, fsync policy) and the router |
//! | `shard-<i>/checkpoint.bin` | shard `i`'s checkpointed row count and those rows' validity |
//! | `shard-<i>/col-<c>-<rows>.bin` at the checkpoint's rows | column `c`'s main partition |
//! | the root's `seg-*.wal`, frame by frame in order | each write's rows and flips, per shard; rows a checkpoint holds are skipped |
//! | a shard's rows below its last seal | one bit-packed [`hyrise_storage::FrozenDelta`] per column, frozen and merged before recovery returns |
//! | `shard-<i>/col-<c>-<rows>.bin` at the sealed rows' end | column `c`'s merge output, committed instead of re-merged |
//! | a shard's rows above its last seal | replayed into a fresh tail through the normal insert path |
//! | a torn final frame of the last segment | dropped, and cut off when the log reattaches |
//! | any other `col-*` or `*.tmp` file | ignored; unlinked by the next finished merge |
//!
//! Replay rules, matching the log's ordering contract (see the private
//! `wal` module): each shard's rows appear in the log in tuple-id order, so
//! a group that does not start where the shard's replayed rows end, or a
//! seal that does not name that end, is [`Error::Corrupt`]; every segment
//! but the last ends with a seal. A client operation is one frame, so it
//! replays entirely or not at all. Validity flips are row-addressed and
//! idempotent, so they apply last. A freeze's synced seal is the merge's
//! durable begin, so sealed rows beyond the checkpoint are always merged
//! forward — whether the merge was killed mid-way, failed or was dropped
//! before the crash, or never got past its freeze. The result is the same
//! bytes in every case: merge output depends only on the row value
//! sequence, which is also why a column file of the right generation can
//! be committed without a log to vouch for it.

use crate::error::{Error, Result};
use crate::manager::{MergePolicy, OnlineTable};
use crate::pipeline::{MergeGrant, SpareBank};
use crate::shard::ShardedTable;
use crate::wal::{self, Checkpoint, LogReplay, Record, TableLog};
use hyrise_storage::{MainPartition, ValidityBitmap, Value};
use std::path::Path;
use std::sync::Arc;

/// One shard while the log replays: its checkpoint, and the rows and
/// flips the log holds beyond it.
struct ShardReplay<V> {
    ckpt: Checkpoint<V>,
    /// Row-major values of the rows logged past the checkpoint, in
    /// tuple-id order.
    values: Vec<V>,
    /// How many of those rows lie below the shard's last seal.
    sealed: usize,
    flips: Vec<usize>,
    /// `(segment, end)` of the shard's last seal.
    last_seal: Option<(u64, usize)>,
}

impl<V: Value> ShardReplay<V> {
    /// Load the checkpoint of the shard at `dir` (empty mains for a shard
    /// that never merged); other generations' column files are not read.
    fn load(dir: &Path, n_cols: usize) -> Result<Self> {
        let ckpt = wal::read_checkpoint::<V>(dir)?.unwrap_or_else(|| Checkpoint {
            rows: 0,
            mains: (0..n_cols).map(|_| MainPartition::empty()).collect(),
            validity: ValidityBitmap::all_valid(0),
        });
        if ckpt.mains.len() != n_cols {
            return Err(Error::recovery(format!(
                "{}: checkpoint has {} columns, SHARDS says {n_cols}",
                dir.display(),
                ckpt.mains.len()
            )));
        }
        Ok(Self {
            ckpt,
            values: Vec::new(),
            sealed: 0,
            flips: Vec::new(),
            last_seal: None,
        })
    }

    /// Replay one log entry of this shard found in segment `seq`.
    fn replay(&mut self, record: &Record<V>, seq: u64, path: &Path) -> Result<()> {
        // Tuple id one past the shard's replayed rows.
        let next = self.ckpt.rows + self.values.len() / self.ckpt.mains.len();
        match *record {
            Record::Rows {
                shard,
                start,
                ref values,
            } => {
                let end = start.saturating_add(values.len() / self.ckpt.mains.len());
                if end <= self.ckpt.rows {
                    return Ok(()); // the checkpoint holds these rows
                }
                if start != next {
                    return Err(Error::corrupt(
                        path,
                        0,
                        format!("shard {shard} skips rows {next}..{start}"),
                    ));
                }
                self.values.extend_from_slice(values);
            }
            Record::Flip { row, .. } => self.flips.push(row),
            Record::Seal { shard, end } => {
                if end > self.ckpt.rows {
                    if end != next {
                        return Err(Error::corrupt(
                            path,
                            0,
                            format!("shard {shard} sealed at row {end}, its rows end at {next}"),
                        ));
                    }
                    self.sealed = end - self.ckpt.rows;
                }
                self.last_seal = Some((seq, end));
            }
        }
        Ok(())
    }

    /// The shard at its exact durable state, built through the live write
    /// path: the checkpoint's mains and validity, the sealed rows inserted
    /// and frozen (the freeze a dropped merge leaves; no log is attached
    /// yet, so nothing is re-logged or sealed), the other rows inserted
    /// behind them, and the flips applied last.
    fn build(self) -> Result<OnlineTable<V>> {
        let n_cols = self.ckpt.mains.len();
        let table = OnlineTable::from_mains(self.ckpt.mains);
        let validity = table.validity_handle();
        let ckpt_validity = &self.ckpt.validity;
        for i in (0..self.ckpt.rows).filter(|&i| !ckpt_validity.is_valid(i)) {
            validity.invalidate(i);
        }
        let rows: Vec<&[V]> = self.values.chunks_exact(n_cols).collect();
        let (sealed, live) = rows.split_at(self.sealed);
        if !sealed.is_empty() {
            table.insert_rows(sealed)?;
            drop(table.begin_merge(MergeGrant::with_threads(1))?);
        }
        table.insert_rows(live)?;
        let total = table.row_count();
        for row in self.flips {
            if row >= total {
                return Err(Error::recovery(format!(
                    "validity flip targets row {row}, but only {total} rows replayed"
                )));
            }
            validity.invalidate(row);
        }
        Ok(table)
    }
}

/// Merge the shard's sealed rows, which end at `end`, forward, committing
/// every column file the crashed merge already wrote — completed steps
/// are not redone, and the output is byte-identical to the merge the crash
/// interrupted. Runs under [`MergePolicy::default`]'s grant; every grant
/// yields the same partitions, so the grant sets only the cost.
fn resume_merge<V: Value>(table: &OnlineTable<V>, dir: &Path, end: usize) -> Result<()> {
    let loaded = (0..table.num_columns())
        .filter(|&c| wal::column_exists(dir, c, end))
        .map(|c| Ok((c, wal::read_column::<V>(dir, c, end)?)))
        .collect::<Result<_>>()?;
    let mut session = table.begin_merge(MergePolicy::default().grant())?;
    session.commit(loaded);
    session.finish().map(drop)
}

/// Rebuild a durable [`ShardedTable`] from its root directory to the exact
/// durable state: byte-identical dictionaries, packed code words and
/// validity versus the uncrashed process. The `SHARDS` manifest states the
/// schema and restores the routing layout, every shard loads its
/// checkpoint, and the table log replays over them in order. The log is
/// re-attached (continuing the live segment, truncated past any torn
/// frame), so the recovered table keeps logging, and each shard's sealed
/// rows are merged before this returns. A root of another value width, or
/// a shard whose files disagree with the manifest, is [`Error::Recovery`];
/// a log that breaks the ordering contract is [`Error::Corrupt`].
pub fn recover_sharded<V: Value>(root: impl AsRef<Path>) -> Result<ShardedTable<V>> {
    let root = root.as_ref();
    let m = wal::read_sharded_manifest::<V>(root)?;
    let mut shards = (0..m.n_shards)
        .map(|i| ShardReplay::<V>::load(&wal::shard_dir(root, i), m.n_cols))
        .collect::<Result<Vec<_>>>()?;

    let seqs = wal::list_segments(root)?;
    let mut replay = LogReplay::new(m.n_shards);
    let mut live = None;
    for (k, &seq) in seqs.iter().enumerate() {
        let path = wal::segment_path(root, seq);
        let seg = wal::read_segment::<V>(&path, m.n_cols)?;
        let mut has = vec![false; m.n_shards];
        for record in &seg.records {
            let (Record::Rows { shard, .. }
            | Record::Flip { shard, .. }
            | Record::Seal { shard, .. }) = *record;
            let state = shards.get_mut(shard).ok_or_else(|| {
                Error::corrupt(
                    &path,
                    0,
                    format!("frame names shard {shard} of {}", m.n_shards),
                )
            })?;
            state.replay(record, seq, &path)?;
            has[shard] = true;
        }
        if seg.sealed {
            replay.sealed.push((seq, has));
        } else if k + 1 == seqs.len() {
            live = Some((seq, seg.clean_len, has));
        } else {
            // A seal is synced before the next segment is created.
            return Err(Error::corrupt(
                path,
                0,
                "unsealed segment below the live one",
            ));
        }
    }

    // A checkpoint written at or past a shard's last seal covers the
    // segments up to it; when the seal is past the checkpoint, the merge
    // below writes that checkpoint.
    let mut resume = Vec::with_capacity(m.n_shards);
    for (i, s) in shards.iter().enumerate() {
        if let Some((seq, end)) = s.last_seal {
            if end <= s.ckpt.rows {
                replay.covered[i] = Some(seq);
            } else {
                replay.pending[i] = Some(seq);
            }
        }
        resume.push((s.sealed > 0).then_some(s.ckpt.rows + s.sealed));
    }
    let tables = shards
        .into_iter()
        .map(ShardReplay::build)
        .collect::<Result<Vec<_>>>()?;
    let log = Arc::new(TableLog::open(root, m.fsync, live, replay)?);
    let bank = Arc::new(SpareBank::new());
    let mut out = Vec::with_capacity(tables.len());
    for (i, (mut table, sealed_end)) in tables.into_iter().zip(resume).enumerate() {
        table.set_wal(&log, root, i);
        if let Some(end) = sealed_end {
            resume_merge(&table, &wal::shard_dir(root, i), end)?;
        }
        out.push(table.with_spare_bank(Arc::clone(&bank)));
    }
    Ok(ShardedTable::from_parts(out, m.by, m.key_col))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Durability;
    use crate::pipeline::{MergeBudget, MergeGrant, MergePipeline, MergeScratch, MergeStrategy};
    use crate::shard::{ShardBy, ShardRowId};
    use hyrise_storage::FrozenDelta;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hyrise-recovery-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A durable one-shard table of two `u64` columns under `root`.
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

    /// The shard of a fresh `durable_root`, the paper's single table; it
    /// keeps logging after the facade drops.
    fn durable_table(root: &Path) -> Arc<OnlineTable<u64>> {
        Arc::clone(durable_root(root).shard(0))
    }

    /// Recover the table at `root` and return its one shard.
    fn reopen(root: &Path) -> Result<Arc<OnlineTable<u64>>> {
        Ok(Arc::clone(recover_sharded::<u64>(root)?.shard(0)))
    }

    fn shard0(root: &Path) -> PathBuf {
        wal::shard_dir(root, 0)
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

    /// A directory's file names, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// What a one-shard, 2-column root holds after a finished merge of
    /// `rows` rows whose live segment is `live`: the manifest and that one
    /// segment, and in the shard directory one generation of files.
    fn assert_one_generation(root: &Path, rows: usize, live: u64) {
        assert_eq!(
            listing(root),
            [
                "SHARDS".to_string(),
                format!("seg-{live:016x}.wal"),
                "shard-0".into()
            ]
        );
        assert_eq!(
            listing(&shard0(root)),
            [
                "checkpoint.bin".to_string(),
                format!("col-0-{rows:016x}.bin"),
                format!("col-1-{rows:016x}.bin"),
            ]
        );
    }

    /// Copy the table at `root` as a crash would leave it.
    fn copy_tree(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).unwrap();
        for name in listing(src) {
            let from = src.join(&name);
            if from.is_dir() {
                copy_tree(&from, &dst.join(&name));
            } else {
                std::fs::copy(&from, dst.join(&name)).unwrap();
            }
        }
    }

    /// The state a crash leaves mid-merge — sealed rows, column 0's file
    /// of the sealed rows' generation written, column 1 not started — and
    /// recovery must finish the merge byte-identically to a table that
    /// merged without crashing.
    #[test]
    fn interrupted_merge_resumes_from_staged_columns() {
        let root = temp_dir("resume");
        let data = rows(300);
        {
            let t = durable_table(&root);
            t.insert_rows(&data).unwrap();
            // The crash point: the seal is durable, column 0 is written.
            drop(t.begin_merge(MergeGrant::with_threads(1)).unwrap());
            let delta0 = FrozenDelta::from_values(&data.iter().map(|r| r[0]).collect::<Vec<_>>());
            let merged0 = MergePipeline::new(MergeStrategy::Optimized, 1)
                .merge_column(&MainPartition::empty(), &delta0, &mut MergeScratch::new())
                .main;
            wal::write_column(&shard0(&root), 0, 300, &merged0).unwrap();
        }

        let back = reopen(&root).unwrap();
        let reference = merged_reference(&data);

        assert_eq!(back.row_count(), 300);
        assert_eq!(back.main_len(), 300, "recovery finished the merge");
        assert_eq!(back.delta_len(), 0);
        assert_mains_identical(&back, &reference);
        assert_one_generation(&root, 300, 1);
        // The resumed merge checkpointed: a second recovery replays from
        // the checkpoint alone (segments truncated) and still matches.
        drop(back);
        let again = reopen(&root).unwrap();
        assert_eq!(again.main_len(), 300);
        assert_mains_identical(&again, &reference);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A durable session's steps are the resumable steps: kill the process
    /// (here: drop the session, then the table) after the first step of a
    /// one-column-per-step session, and
    /// recovery resumes from the written column and finishes the merge
    /// byte-identically to an uninterrupted one.
    #[test]
    fn durable_session_steps_survive_a_crash() {
        let root = temp_dir("session");
        let data = rows(300);
        {
            let t = durable_table(&root);
            t.insert_rows(&data).unwrap();
            let grant = MergeGrant::with_threads(1).budget(MergeBudget::columns(1));
            let mut session = t.begin_merge(grant).unwrap();
            assert!(session.step().unwrap());
        }
        assert!(
            wal::column_exists(&shard0(&root), 0, 300),
            "step 1 wrote column 0"
        );
        assert!(!wal::column_exists(&shard0(&root), 1, 300));
        let back = reopen(&root).unwrap();
        assert_eq!(back.main_len(), 300, "recovery finished the merge");
        assert_eq!(back.delta_len(), 0);
        assert_mains_identical(&back, &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A columns(1) session writes one column file per step and `finish`
    /// leaves exactly one generation: the manifest, one file per column
    /// and the live segment.
    #[test]
    fn session_writes_one_column_file_per_step() {
        let root = temp_dir("per-step");
        let t = durable_table(&root);
        let data = rows(300);
        t.insert_rows(&data).unwrap();
        let grant = MergeGrant::with_threads(1).budget(MergeBudget::columns(1));
        let mut session = t.begin_merge(grant).unwrap();
        assert!(session.step().unwrap());
        let cols: Vec<String> = listing(&shard0(&root))
            .into_iter()
            .filter(|n| n.starts_with("col-"))
            .collect();
        assert_eq!(cols, vec![format!("col-0-{:016x}.bin", 300)]);
        session.finish().unwrap();
        assert_one_generation(&root, 300, 1);
        drop(t);
        assert_mains_identical(&reopen(&root).unwrap(), &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An unbudgeted durable merge is one whole-table step: it writes every
    /// column file, and finishing writes the manifest and truncates the
    /// absorbed segment, leaving one generation on disk.
    #[test]
    fn unbudgeted_durable_merge_leaves_one_generation() {
        let root = temp_dir("unbudgeted");
        let t = durable_table(&root);
        let data = rows(300);
        t.insert_rows(&data).unwrap();
        let mut session = t.begin_merge(MergeGrant::with_threads(1)).unwrap();
        assert!(session.step().unwrap());
        assert!(!session.step().unwrap());
        let dir = shard0(&root);
        assert!(wal::column_exists(&dir, 0, 300) && wal::column_exists(&dir, 1, 300));
        assert!(
            wal::read_checkpoint::<u64>(&dir).unwrap().is_none(),
            "no manifest before finish"
        );
        assert_eq!(wal::list_segments(&root).unwrap(), vec![0, 1]);
        session.finish().unwrap();
        assert_one_generation(&root, 300, 1);
        let ckpt = wal::read_checkpoint::<u64>(&dir)
            .unwrap()
            .expect("checkpoint");
        assert_eq!(ckpt.rows, 300);
        drop(t);
        assert_mains_identical(&reopen(&root).unwrap(), &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Every column file of the new generation is written but the crash
    /// landed before the manifest rename: recovery commits the files,
    /// writes the manifest and unlinks the old generation.
    #[test]
    fn written_generation_behind_an_old_manifest_is_finished() {
        let root = temp_dir("behind");
        let data = rows(500);
        {
            let t = durable_table(&root);
            t.insert_rows(&data[..200]).unwrap();
            t.merge(1).unwrap();
            t.insert_rows(&data[200..]).unwrap();
            let grant = MergeGrant::with_threads(1).budget(MergeBudget::columns(1));
            let mut session = t.begin_merge(grant).unwrap();
            while session.step().unwrap() {}
        }
        let names = listing(&shard0(&root));
        for gen in [200usize, 500] {
            for c in 0..2 {
                assert!(
                    names.contains(&format!("col-{c}-{gen:016x}.bin")),
                    "{names:?}"
                );
            }
        }
        let back = reopen(&root).unwrap();
        assert_eq!(back.main_len(), 500);
        assert_mains_identical(&back, &merged_reference(&data));
        assert_one_generation(&root, 500, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A stale file of another generation and an interrupted `.tmp` write
    /// are ignored by recovery and unlinked by the next finished merge.
    #[test]
    fn stale_column_files_are_ignored_then_unlinked() {
        let root = temp_dir("stale");
        let data = rows(300);
        {
            let t = durable_table(&root);
            t.insert_rows(&data[..200]).unwrap();
            t.merge(1).unwrap();
        }
        let stale = shard0(&root).join(format!("col-0-{:016x}.bin", 7));
        let tmp = shard0(&root).join("checkpoint.bin.tmp");
        std::fs::write(&stale, b"not a column").unwrap();
        std::fs::write(&tmp, b"torn").unwrap();
        let back = reopen(&root).unwrap();
        assert_eq!(back.main_len(), 200);
        assert!(stale.exists() && tmp.exists(), "recovery leaves them alone");
        back.insert_rows(&data[200..]).unwrap();
        back.merge(1).unwrap();
        assert_one_generation(&root, 300, 2);
        drop(back);
        assert_mains_identical(&reopen(&root).unwrap(), &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A merge dropped before its first step left its rows sealed but
    /// unmerged: recovery merges them forward.
    #[test]
    fn cancelled_durable_merge_is_finished_by_recovery() {
        let root = temp_dir("cancelled");
        let data = rows(100);
        {
            let t = durable_table(&root);
            t.insert_rows(&data).unwrap();
            drop(t.begin_merge(MergeGrant::with_threads(1)).unwrap());
            assert_eq!(t.main_len(), 0, "the rows stay frozen");
            assert_eq!(wal::list_segments(&root).unwrap(), vec![0, 1]);
        }
        let back = reopen(&root).unwrap();
        assert_eq!(back.row_count(), 100);
        assert_eq!(back.main_len(), 100, "recovery merged the sealed rows");
        assert_eq!(back.delta_len(), 0);
        assert_mains_identical(&back, &merged_reference(&data));
        assert_one_generation(&root, 100, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A merge of an empty delta seals nothing and rewrites the live
    /// generation's column files in place; the delete it checkpoints
    /// survives recovery.
    #[test]
    fn empty_delta_merge_keeps_one_generation_and_the_delete() {
        let root = temp_dir("empty-delta");
        let data = rows(300);
        let t = durable_table(&root);
        t.insert_rows(&data).unwrap();
        t.merge(1).unwrap();
        t.delete_row(17).unwrap();
        t.merge_with(MergeGrant::with_threads(1)).unwrap();
        assert_one_generation(&root, 300, 1);
        let ckpt = wal::read_checkpoint::<u64>(&shard0(&root))
            .unwrap()
            .expect("manifest");
        assert!(!ckpt.validity.is_valid(17), "the manifest holds the delete");
        drop(t);
        let back = reopen(&root).unwrap();
        assert_eq!(back.main_len(), 300);
        assert!(!back.is_valid(17));
        assert_eq!(back.snapshot().validity().valid_count(), 299);
        assert_mains_identical(&back, &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A column whose dictionary crosses 2^8 distinct values between two
    /// merges widens its codes 8 -> 9 bits and recovers byte-identically.
    #[test]
    fn code_width_crossing_recovers_byte_identical() {
        let root = temp_dir("width");
        let data: Vec<Vec<u64>> = (0..257u64).map(|i| vec![i, i % 3]).collect();
        let t = durable_table(&root);
        t.insert_rows(&data[..256]).unwrap();
        t.merge(1).unwrap();
        assert_eq!(t.snapshot().col(0).main().packed_codes().bits(), 8);
        t.insert_rows(&data[256..]).unwrap();
        t.merge(1).unwrap();
        drop(t);
        let back = reopen(&root).unwrap();
        assert_eq!(back.snapshot().col(0).main().packed_codes().bits(), 9);
        assert_mains_identical(&back, &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A freeze whose rotation cannot create the next segment leaves the
    /// live segment unsealed: the rows written after the failure land in
    /// it, the table reopens with every row, and the next merge leaves one
    /// generation.
    #[test]
    fn failed_rotation_keeps_the_table_recoverable() {
        let root = temp_dir("rotation");
        let data = rows(105);
        {
            let t = durable_table(&root);
            t.insert_rows(&data[..100]).unwrap();
            let blocker = wal::segment_path(&root, 1);
            std::fs::create_dir(&blocker).unwrap();
            assert!(matches!(t.merge(1), Err(Error::Io { .. })));
            std::fs::remove_dir(&blocker).unwrap();
            t.insert_rows(&data[100..]).unwrap();
        }
        let back = reopen(&root).unwrap();
        assert_eq!(back.row_count(), 105);
        assert_eq!(back.row(104), data[104]);
        back.merge(1).unwrap();
        assert_one_generation(&root, 105, 1);
        assert_mains_identical(&back, &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Every seal is synced before the next segment exists, so an
    /// unsealed segment below the last one is damage: a typed error, not a
    /// silently shortened table.
    #[test]
    fn an_unsealed_segment_below_the_live_one_is_corrupt() {
        let root = temp_dir("unsealed-below");
        durable_table(&root).insert_rows(&rows(100)).unwrap();
        std::fs::File::create(wal::segment_path(&root, 1)).unwrap();
        let err = reopen(&root).map(drop).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "got {err:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// After a failed rotation the next merge resumes the frozen rows and
    /// checkpoints them, but deletes no segment: the live segment holds
    /// them and still takes appends. The merge call goes on to a fresh
    /// freeze, whose rotation seals that segment and whose finish leaves
    /// one generation.
    #[test]
    fn merge_resumed_after_a_failed_rotation_keeps_the_live_segment() {
        let root = temp_dir("rotation-resume");
        let data = rows(105);
        let t = durable_table(&root);
        t.insert_rows(&data[..100]).unwrap();
        let blocker = wal::segment_path(&root, 1);
        std::fs::create_dir(&blocker).unwrap();
        assert!(t.merge(1).is_err());
        std::fs::remove_dir(&blocker).unwrap();
        t.insert_rows(&data[100..]).unwrap();
        t.begin_merge(MergeGrant::with_threads(1))
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(t.main_len(), 100, "the frozen rows merged");
        let ckpt = wal::read_checkpoint::<u64>(&shard0(&root)).unwrap();
        assert_eq!(ckpt.map(|c| c.rows), Some(100));
        assert_eq!(wal::list_segments(&root).unwrap(), vec![0]);
        // A crash here recovers every row: the checkpoint's and the live
        // segment's beyond it.
        let crashed = temp_dir("rotation-resume-crashed");
        copy_tree(&root, &crashed);
        assert_eq!(reopen(&crashed).unwrap().row_count(), 105);
        let _ = std::fs::remove_dir_all(&crashed);
        t.merge(1).unwrap();
        assert_one_generation(&root, 105, 1);
        drop(t);
        assert_mains_identical(&reopen(&root).unwrap(), &merged_reference(&data));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A scheduled merge whose column write fails is counted, leaves its
    /// delta frozen, and the merge the next write queues finishes it to
    /// the bytes of an uninterrupted merge.
    #[test]
    fn scheduled_merge_counts_a_failed_write_and_resumes_it() {
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
        let blocker = shard0(&root).join(format!("col-1-{:016x}.bin", 300));
        std::fs::create_dir(&blocker).unwrap();
        let policy = MergePolicy {
            delta_fraction: 0.01,
            threads: 1,
            ..MergePolicy::default()
        };
        let sched = MergeScheduler::spawn(t.shards().to_vec(), policy);
        wait_for(&|| sched.stats().failed_merges > 0);
        assert_eq!(sched.stats().failed_merges, 1);
        let failure = sched.stats().last_failure.expect("the error is kept");
        assert!(failure.contains("write column file"), "got {failure}");
        assert_eq!(sched.stats().merges, 0);
        assert_eq!(t.shard(0).main_len(), 0, "the delta stays frozen");
        std::fs::remove_dir(&blocker).unwrap();
        t.insert_rows(&data[300..]).unwrap();
        wait_for(&|| t.delta_len() == 0);
        sched.shutdown();
        assert_eq!(sched.stats().merges, 1);
        assert_eq!(t.shard(0).main_len(), 301);
        assert_mains_identical(t.shard(0), &merged_reference(&data));
        assert_one_generation(&root, 301, 2);
        let _ = std::fs::remove_dir_all(&root);
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

    /// A two-shard range table (keys below 1 000 on shard 0) under `root`.
    fn two_shards(root: &Path) -> ShardedTable<u64> {
        ShardedTable::builder()
            .partitioning(ShardBy::Range(vec![1_000]))
            .columns(2)
            .durability(Durability::Wal {
                dir: root.to_path_buf(),
                fsync: false,
            })
            .build()
            .unwrap()
    }

    /// A delete or update of a row id the table does not hold is refused
    /// before anything is logged: a shard past the last, a row past the
    /// shard's end, alone or beside a valid id. The table then reopens
    /// with every row as before.
    #[test]
    fn an_out_of_range_row_id_is_refused_before_it_is_logged() {
        let root = temp_dir("out-of-range");
        let t = two_shards(&root);
        let ids = t.insert_rows(&[[1u64, 10], [2, 20], [1_001, 11]]).unwrap();
        let past_row = ShardRowId { shard: 0, row: 5 };
        let past_shard = ShardRowId { shard: 2, row: 0 };
        let refused = [
            t.delete_rows(&[past_row]),
            t.delete_rows(&[ids[0], past_row]),
            t.delete_row(past_shard),
            t.update_row(past_row, &[3, 30]).map(drop),
            t.update_row(past_shard, &[3, 30]).map(drop),
            t.shard(1).delete_row(1),
        ];
        for r in refused {
            assert!(matches!(r, Err(Error::Config { .. })), "got {r:?}");
        }
        assert_eq!(t.row_count(), 3, "a refused update inserts nothing");
        assert!(ids.iter().all(|&id| t.is_valid(id)));
        drop(t);
        let back = recover_sharded::<u64>(&root).unwrap();
        assert_eq!(back.row_count(), 3);
        for (id, row) in ids.iter().zip([[1u64, 10], [2, 20], [1_001, 11]]) {
            assert!(back.is_valid(*id));
            assert_eq!(back.row(*id), row);
        }
        drop(back);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A row without one value per column is refused before any tail slot
    /// is taken or any frame is logged: alone, beside a good row, as an
    /// update's new version and through one shard. The log's bytes stay as
    /// they were, and the table reopens with every row.
    #[test]
    fn a_row_of_the_wrong_width_is_refused_before_it_is_logged() {
        let root = temp_dir("arity");
        let t = two_shards(&root);
        let good = [[1u64, 10], [1_001, 11]];
        let ids = t.insert_rows(&good).unwrap();
        let segments = || {
            let mut segs: Vec<(String, Vec<u8>)> = listing(&root)
                .into_iter()
                .filter(|n| n.ends_with(".wal"))
                .map(|n| (n.clone(), std::fs::read(root.join(&n)).unwrap()))
                .collect();
            segs.sort();
            segs
        };
        let before = segments();
        let refused = [
            t.insert_row(&[2]).map(drop),
            t.insert_rows(&[vec![2u64, 20], vec![1_002]]).map(drop),
            t.insert_rows(&[vec![2u64, 20, 30]]).map(drop),
            t.update_row(ids[0], &[3]).map(drop),
            t.shard(1).insert_row(&[1_003, 1, 1]).map(drop),
        ];
        for r in refused {
            assert!(matches!(r, Err(Error::Config { .. })), "got {r:?}");
        }
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.shard(1).row_count(), 1, "no tail slot was taken");
        assert_eq!(segments(), before, "nothing was logged");
        assert!(ids.iter().all(|&id| t.is_valid(id)));
        drop(t);
        let back = recover_sharded::<u64>(&root).unwrap();
        assert_eq!(back.row_count(), 2);
        for (id, row) in ids.iter().zip(good) {
            assert!(back.is_valid(*id));
            assert_eq!(back.row(*id), row);
        }
        drop(back);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An append that fails half-way poisons the log: the failed write
    /// changes nothing, every later mutation returns the error, and the
    /// table reopens with exactly the writes that returned `Ok`.
    #[test]
    fn a_failed_append_refuses_every_later_mutation() {
        let root = temp_dir("poisoned");
        let t = two_shards(&root);
        let ids = t.insert_rows(&[[1u64, 10], [1_001, 11]]).unwrap();
        wal::tests::FAIL_NEXT_APPEND.with(|f| f.set(true));
        assert!(matches!(
            t.insert_rows(&[[2u64, 20], [1_002, 21]]),
            Err(Error::Io { .. })
        ));
        assert_eq!(t.row_count(), 2, "the failed batch left no rows");
        let refused = [
            t.insert_row(&[3, 30]).map(drop),
            t.update_row(ids[0], &[1_003, 31]).map(drop),
            t.delete_row(ids[1]),
            t.delete_rows(&ids),
            t.merge_all(1).map(drop),
        ];
        for r in refused {
            assert!(matches!(r, Err(Error::Io { .. })), "got {r:?}");
        }
        assert!(t.is_valid(ids[0]) && t.is_valid(ids[1]), "reads stay live");
        assert_eq!(t.row(ids[1]), vec![1_001, 11]);
        drop(t);
        let back = recover_sharded::<u64>(&root).unwrap();
        assert_eq!(back.row_count(), 2);
        assert_eq!(back.valid_row_count(), 2);
        assert_eq!(back.row(ids[0]), vec![1, 10]);
        let more = back.insert_rows(&[[4u64, 40], [1_004, 41]]).unwrap();
        assert_eq!(more[1], ShardRowId { shard: 1, row: 1 });
        drop(back);
        assert_eq!(recover_sharded::<u64>(&root).unwrap().row_count(), 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Shard 0 stops receiving rows while shard 1 keeps merging: after
    /// each of shard 1's merges, every sealed segment left holds a record
    /// no checkpoint has absorbed — shard 0's unmerged rows pin their own
    /// segment and no other.
    #[test]
    fn a_quiet_shard_pins_only_its_own_segments() {
        let root = temp_dir("quiet");
        let t = two_shards(&root);
        let batch = |base: u64| -> Vec<[u64; 2]> { (0..20).map(|i| [base + i, i]).collect() };
        t.insert_rows(&[batch(0), batch(1_000)].concat()).unwrap();
        t.merge_all(1).unwrap();
        t.insert_rows(&batch(100)).unwrap(); // shard 0's last rows
        for round in 0..5u64 {
            t.insert_rows(&batch(2_000 + 100 * round)).unwrap();
            t.shard(1).merge(1).unwrap();
            let ckpt: Vec<usize> = (0..2)
                .map(|i| {
                    let c = wal::read_checkpoint::<u64>(&wal::shard_dir(&root, i)).unwrap();
                    c.map_or(0, |c| c.rows)
                })
                .collect();
            let seqs = wal::list_segments(&root).unwrap();
            let (live, sealed) = seqs.split_last().unwrap();
            assert!(sealed.len() <= 1, "round {round}: segments {seqs:?}");
            for &seq in sealed {
                let seg = wal::read_segment::<u64>(&wal::segment_path(&root, seq), 2).unwrap();
                let unabsorbed = seg.records.iter().any(|r| match *r {
                    Record::Rows {
                        shard,
                        start,
                        ref values,
                    } => start + values.len() / 2 > ckpt[shard],
                    Record::Flip { .. } => true,
                    Record::Seal { shard, end } => end > ckpt[shard],
                });
                assert!(unabsorbed, "round {round}: segment {seq} is all absorbed");
            }
            assert!(*live > round, "shard 1's merges rotate the log");
        }
        drop(t);
        let back = recover_sharded::<u64>(&root).unwrap();
        assert_eq!(back.shard(0).row_count(), 40);
        assert_eq!(back.shard(1).row_count(), 120);
        let _ = std::fs::remove_dir_all(&root);
    }
}

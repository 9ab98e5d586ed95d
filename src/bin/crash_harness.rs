//! Kill -9 crash harness: the executable proof behind the durability
//! claim. The parent process spawns itself in *child* mode against a
//! fresh WAL directory, lets it hammer a deterministic op stream for a
//! random few milliseconds, `SIGKILL`s it mid-flight, recovers the
//! directory, and checks the recovered table against an in-memory model
//! replaying the same stream:
//!
//! * every operation the child **acknowledged** (fsynced side file) must
//!   be present — at most one unacknowledged trailing op may also have
//!   landed (the child acks strictly between ops);
//! * after quiescing merges on both sides, dictionaries and packed code
//!   words must be **byte-identical** — the merge result depends only on
//!   the row value sequence, never on where the kill landed;
//! * the recovered table must keep accepting writes.
//!
//! One-shard rounds write through the shard, the paper's single table, and
//! alternate its merges between one whole-table chunk and one-column
//! chunks (`MergeBudget::columns(1)`), so a kill can land between two
//! column files of one merge and recovery resumes the merge from the files
//! already written. Rounds alternate the fsync policy (buffered appends
//! survive process death — that is the buffered-WAL contract) and include
//! three-shard rounds, where each shard independently sits at the acked
//! boundary or one op past it (multi-shard batches may tear; see
//! `ShardedTable::insert_rows`). Every round recovers through
//! `recover_sharded`.
//!
//! Environment: `CRASH_ROUNDS` (default 6) rounds per mode set;
//! `CRASH_SEED` overrides the base seed.

use hyrise::merge::{MergeBudget, MergeGrant, OnlineTable, TableMergeStats};
use hyrise::shard::ShardedTable;
use hyrise::{recover_sharded, Durability};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const COLS: usize = 2;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn row(seed: u64) -> Vec<u64> {
    (0..COLS as u64)
        .map(|c| splitmix(seed.wrapping_add(c)) % 100_000)
        .collect()
}

/// Op `i` of stream `seed` — identical in child and model.
enum Op {
    InsertBatch(u64, usize),
    Delete(u64),
    Merge,
}

fn op(seed: u64, i: u64) -> Op {
    let r = splitmix(seed.wrapping_mul(0x5851_F42D).wrapping_add(i));
    match r % 10 {
        0..=6 => Op::InsertBatch(r, (r % 48 + 16) as usize),
        7..=8 => Op::Delete(r >> 8),
        _ => Op::Merge,
    }
}

/// Apply op `i` to one table: the shard of a one-shard table, or the
/// in-memory model.
fn apply_single(t: &OnlineTable<u64>, seed: u64, i: u64) -> hyrise::Result<()> {
    match op(seed, i) {
        Op::InsertBatch(s, n) => {
            let batch: Vec<Vec<u64>> = (0..n as u64).map(|k| row(s.wrapping_add(k))).collect();
            t.insert_rows(&batch)?;
        }
        Op::Delete(target) => {
            let rows = t.row_count();
            if rows > 0 {
                t.delete_row(target as usize % rows)?;
            }
        }
        Op::Merge => {
            if t.delta_len() > 0 {
                let mut grant = MergeGrant::with_threads(2);
                if i % 2 == 1 {
                    grant = grant.budget(MergeBudget::columns(1));
                }
                t.merge_with(grant, None).map(|_: TableMergeStats| ())?;
            }
        }
    }
    Ok(())
}

fn apply_sharded(t: &ShardedTable<u64>, seed: u64, i: u64) -> hyrise::Result<()> {
    match op(seed, i) {
        Op::InsertBatch(s, n) => {
            let batch: Vec<Vec<u64>> = (0..n as u64).map(|k| row(s.wrapping_add(k))).collect();
            t.insert_rows(&batch)?;
        }
        Op::Delete(target) => {
            let shard = t.shard(target as usize % t.num_shards());
            let rows = shard.row_count();
            if rows > 0 {
                shard.delete_row((target >> 8) as usize % rows)?;
            }
        }
        Op::Merge => {
            t.merge_all(2)?;
        }
    }
    Ok(())
}

fn ack_path(dir: &Path) -> PathBuf {
    dir.with_extension("acks")
}

/// Child mode: run the op stream until killed, acking each completed op.
fn run_child(dir: &Path, seed: u64, fsync: bool, sharded: bool) -> ! {
    let acks = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ack_path(dir))
        .expect("open ack file");
    let mut acks = std::io::BufWriter::new(acks);
    let mut ack = |i: u64| {
        acks.write_all(&i.to_le_bytes()).expect("ack write");
        acks.flush().expect("ack flush");
        if fsync {
            acks.get_ref().sync_data().expect("ack sync");
        }
    };
    let durability = Durability::Wal {
        dir: dir.to_path_buf(),
        fsync,
    };
    let t = ShardedTable::<u64>::builder()
        .shards(if sharded { 3 } else { 1 })
        .columns(COLS)
        .durability(durability)
        .build()
        .expect("build table");
    for i in 0.. {
        if sharded {
            apply_sharded(&t, seed, i).expect("sharded op");
        } else {
            apply_single(t.shard(0), seed, i).expect("one-shard op");
        }
        ack(i);
    }
    unreachable!("the op stream is infinite; the parent kills us");
}

/// Number of acked ops (the file is a flat array of little-endian u64s; a
/// torn trailing ack just rounds down, which the one-op slack absorbs).
fn read_acks(dir: &Path) -> u64 {
    std::fs::read(ack_path(dir)).map_or(0, |b| (b.len() / 8) as u64)
}

fn logical_state(t: &OnlineTable<u64>) -> (usize, Vec<Vec<u64>>, Vec<bool>) {
    let rows = (0..t.row_count())
        .map(|r| (0..COLS).map(|c| t.get(c, r)).collect())
        .collect();
    let valid = (0..t.row_count()).map(|r| t.is_valid(r)).collect();
    (t.row_count(), rows, valid)
}

/// Quiesce both sides and demand byte-identical mains.
fn assert_bytes_identical(a: &OnlineTable<u64>, b: &OnlineTable<u64>, what: &str) {
    if a.delta_len() > 0 {
        a.merge(2, None).expect("quiesce recovered");
    }
    if b.delta_len() > 0 {
        b.merge(2, None).expect("quiesce model");
    }
    let (sa, sb) = (a.snapshot(), b.snapshot());
    for c in 0..COLS {
        assert_eq!(
            sa.col(c).main().dictionary().values(),
            sb.col(c).main().dictionary().values(),
            "{what}: column {c} dictionaries differ"
        );
        assert_eq!(
            sa.col(c).main().packed_codes().words(),
            sb.col(c).main().packed_codes().words(),
            "{what}: column {c} packed code words differ"
        );
    }
    assert_eq!(
        sa.validity().valid_count(),
        sb.validity().valid_count(),
        "{what}: valid counts differ"
    );
}

/// Column files (`col-<c>-<rows>.bin`) of a generation above the one the
/// checkpoint manifest (`rows` at bytes 16..24) names: what an interrupted
/// merge had written before the kill.
fn columns_past_checkpoint(dir: &Path) -> usize {
    let ckpt_rows = std::fs::read(dir.join("checkpoint.bin"))
        .ok()
        .and_then(|b| Some(u64::from_le_bytes(b.get(16..24)?.try_into().ok()?)))
        .unwrap_or(0);
    let generation = |name: &str| {
        let rows = name.strip_prefix("col-")?.strip_suffix(".bin")?;
        u64::from_str_radix(rows.split_once('-')?.1, 16).ok()
    };
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| generation(e.ok()?.file_name().to_str()?))
                .filter(|&rows| rows > ckpt_rows)
                .count()
        })
        .unwrap_or(0)
}

/// One one-shard round: spawn, kill, recover, verify.
fn round_single(exe: &Path, scratch: &Path, seed: u64, fsync: bool, delay_ms: u64) {
    let dir = scratch.join(format!("single-{seed:x}"));
    let mut child = Command::new(exe)
        .args([
            "child",
            dir.to_str().unwrap(),
            &seed.to_string(),
            &(fsync as u8).to_string(),
            "0",
        ])
        .spawn()
        .expect("spawn child");
    std::thread::sleep(Duration::from_millis(delay_ms));
    child.kill().expect("SIGKILL child"); // SIGKILL on unix: no cleanup runs
    child.wait().expect("reap child");

    let acked = read_acks(&dir);
    // The kill landed inside a merge that had written these column files.
    let resumed = columns_past_checkpoint(&dir.join("shard-0"));
    let table: ShardedTable<u64> = recover_sharded(&dir).expect("recover after kill");
    let recovered = table.shard(0);

    // The model replays acked ops; the recovered state must equal that,
    // or that plus exactly the one op that was in flight at kill time.
    let model = OnlineTable::<u64>::new(COLS);
    for i in 0..acked {
        apply_single(&model, seed, i).expect("model op");
    }
    let got = logical_state(recovered);
    if got != logical_state(&model) {
        apply_single(&model, seed, acked).expect("model slack op");
        assert_eq!(
            got,
            logical_state(&model),
            "fsync={fsync}: recovered state matches neither {acked} acked \
             ops nor one op past them"
        );
    }
    assert_bytes_identical(recovered, &model, "one shard");

    // Still alive: the recovered table keeps logging and recovering.
    recovered
        .insert_rows(&[row(0xDEAD)])
        .expect("post-crash insert");
    let n = recovered.row_count();
    drop(table);
    let again: ShardedTable<u64> = recover_sharded(&dir).expect("second recovery");
    assert_eq!(again.row_count(), n, "post-crash write survived");
    println!(
        "  one-shard fsync={fsync} delay={delay_ms}ms: acked={acked}, rows={n}, \
         resumed_columns={resumed} ok"
    );
}

/// One sharded round: every shard independently sits at the acked
/// boundary or one op past it.
fn round_sharded(exe: &Path, scratch: &Path, seed: u64, delay_ms: u64) {
    let dir = scratch.join(format!("sharded-{seed:x}"));
    let mut child = Command::new(exe)
        .args(["child", dir.to_str().unwrap(), &seed.to_string(), "0", "1"])
        .spawn()
        .expect("spawn child");
    std::thread::sleep(Duration::from_millis(delay_ms));
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");

    let acked = read_acks(&dir);
    let recovered: ShardedTable<u64> = recover_sharded(&dir).expect("recover sharded");
    let model = ShardedTable::<u64>::builder()
        .shards(3)
        .columns(COLS)
        .build()
        .expect("model");
    for i in 0..acked {
        apply_sharded(&model, seed, i).expect("model op");
    }
    // Per-shard slack: op `acked` may have reached any subset of shards
    // (documented tearing), so compare each shard against the model at
    // the boundary, then once more after the slack op.
    let before: Vec<_> = recovered
        .shards()
        .iter()
        .zip(model.shards())
        .map(|(r, m)| (logical_state(r) == logical_state(m), logical_state(r)))
        .collect();
    apply_sharded(&model, seed, acked).expect("model slack op");
    for (s, ((matched, got), m)) in before.iter().zip(model.shards()).enumerate() {
        assert!(
            *matched || *got == logical_state(m),
            "shard {s}: state matches neither side of the acked boundary"
        );
    }
    for (s, (r, m)) in recovered.shards().iter().zip(model.shards()).enumerate() {
        // Byte-identity needs both sides at the same prefix; skip shards
        // sitting on the torn side (their logical equality was asserted
        // above against the slack model).
        if logical_state(r) == logical_state(m) {
            assert_bytes_identical(r, m, &format!("shard {s}"));
        }
    }
    println!("  sharded delay={delay_ms}ms: acked={acked} ok");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 6 && args[1] == "child" {
        let dir = PathBuf::from(&args[2]);
        let seed: u64 = args[3].parse().expect("seed");
        let fsync = args[4] == "1";
        let sharded = args[5] == "1";
        run_child(&dir, seed, fsync, sharded);
    }

    let rounds: u64 = std::env::var("CRASH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let base_seed: u64 = std::env::var("CRASH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap()
                .as_nanos() as u64
        });
    println!("crash harness: {rounds} rounds per mode, base seed {base_seed:#x}");

    let exe = std::env::current_exe().expect("own path");
    let scratch = std::env::temp_dir().join(format!("hyrise-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    for r in 0..rounds {
        let seed = splitmix(base_seed.wrapping_add(r));
        // Delays sweep from "killed during the very first ops" to "killed
        // deep into merge churn".
        let delay = 10 + seed % 190;
        round_single(&exe, &scratch, seed, r % 2 == 0, delay);
    }
    for r in 0..rounds.div_ceil(2) {
        let seed = splitmix(base_seed.wrapping_add(0x5AD + r));
        round_sharded(&exe, &scratch, seed, 10 + seed % 190);
    }

    let _ = std::fs::remove_dir_all(&scratch);
    println!("crash harness: all rounds byte-identical after recovery");
}

//! Kill -9 crash harness: the executable proof behind the durability
//! claim. The parent process spawns itself in *child* mode against a
//! fresh table root, lets it hammer a deterministic op stream for a
//! random few milliseconds, `SIGKILL`s it mid-flight, recovers the
//! root, and checks the recovered table against an in-memory model
//! replaying the same stream:
//!
//! * the **whole** table must sit at the acknowledged ops (fsynced side
//!   file) or at one op past them — the child acks strictly between ops,
//!   and every op, a multi-shard batch, a cross-shard update or a delete
//!   batch alike, is one log frame that recovers entirely or not at all;
//! * after quiescing merges on both sides, every shard's dictionaries and
//!   packed code words must be **byte-identical** — the merge result
//!   depends only on the row value sequence, never on where the kill
//!   landed;
//! * the recovered table must keep accepting writes.
//!
//! Every round goes through `ShardedTable` with one or three shards and
//! reopens through `recover_sharded`. Rounds alternate the fsync policy
//! (buffered appends survive process death — that is the buffered-WAL
//! contract), and merges alternate between one whole-table chunk and
//! one-column chunks (`MergeBudget::columns(1)`), so a kill can land
//! between two column files of one merge and recovery resumes the merge
//! from the files already written.
//!
//! Environment: `CRASH_ROUNDS` (default 6) one-shard rounds, plus half as
//! many three-shard rounds; `CRASH_SEED` overrides the base seed.

use hyrise::merge::{MergeBudget, MergeGrant, OnlineTable};
use hyrise::shard::{ShardRowId, ShardedTable};
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
    /// A new version routed by its own key, so on three shards it mostly
    /// lands on another shard than the old one.
    Update(u64),
    DeleteBatch(u64, usize),
    Merge,
}

fn op(seed: u64, i: u64) -> Op {
    let r = splitmix(seed.wrapping_mul(0x5851_F42D).wrapping_add(i));
    match r % 10 {
        0..=5 => Op::InsertBatch(r, (r % 48 + 16) as usize),
        6 => Op::Update(r >> 8),
        7..=8 => Op::DeleteBatch(r >> 8, (r % 3 + 1) as usize),
        _ => Op::Merge,
    }
}

/// The row `pick` names: a shard, then a row of it (`None` while that
/// shard is empty).
fn target(t: &ShardedTable<u64>, pick: u64) -> Option<ShardRowId> {
    let shard = (pick % t.num_shards() as u64) as usize;
    let rows = t.shard(shard).row_count();
    (rows > 0).then(|| ShardRowId {
        shard,
        row: ((pick >> 8) % rows as u64) as usize,
    })
}

/// Apply op `i` to the durable child table or to the in-memory model.
fn apply(t: &ShardedTable<u64>, seed: u64, i: u64) -> hyrise::Result<()> {
    match op(seed, i) {
        Op::InsertBatch(s, n) => {
            let batch: Vec<Vec<u64>> = (0..n as u64).map(|k| row(s.wrapping_add(k))).collect();
            t.insert_rows(&batch)?;
        }
        Op::Update(pick) => {
            if let Some(old) = target(t, pick) {
                t.update_row(old, &row(pick))?;
            }
        }
        Op::DeleteBatch(pick, n) => {
            let ids: Vec<ShardRowId> = (0..n as u64)
                .filter_map(|k| target(t, splitmix(pick.wrapping_add(k))))
                .collect();
            t.delete_rows(&ids)?;
        }
        Op::Merge => {
            let mut grant = MergeGrant::with_threads(2);
            if i % 2 == 1 {
                grant = grant.budget(MergeBudget::columns(1));
            }
            t.merge_all_with(grant)?;
        }
    }
    Ok(())
}

fn ack_path(dir: &Path) -> PathBuf {
    dir.with_extension("acks")
}

/// Child mode: run the op stream until killed, acking each completed op.
fn run_child(dir: &Path, seed: u64, fsync: bool, shards: usize) -> ! {
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
    let t = ShardedTable::<u64>::builder()
        .shards(shards)
        .columns(COLS)
        .durability(Durability::Wal {
            dir: dir.to_path_buf(),
            fsync,
        })
        .build()
        .expect("build table");
    for i in 0.. {
        apply(&t, seed, i).expect("op");
        ack(i);
    }
    unreachable!("the op stream is infinite; the parent kills us");
}

/// Number of acked ops (the file is a flat array of little-endian u64s; a
/// torn trailing ack just rounds down, which the one-op slack absorbs).
fn read_acks(dir: &Path) -> u64 {
    std::fs::read(ack_path(dir)).map_or(0, |b| (b.len() / 8) as u64)
}

/// Every shard's rows and their validity.
fn logical_state(t: &ShardedTable<u64>) -> Vec<(Vec<Vec<u64>>, Vec<bool>)> {
    t.shards()
        .iter()
        .map(|s| {
            let n = s.row_count();
            (
                (0..n).map(|r| s.row(r)).collect(),
                (0..n).map(|r| s.is_valid(r)).collect(),
            )
        })
        .collect()
}

/// Quiesce both sides and demand byte-identical mains.
fn assert_bytes_identical(a: &OnlineTable<u64>, b: &OnlineTable<u64>, what: &str) {
    if a.delta_len() > 0 {
        a.merge(2).expect("quiesce recovered");
    }
    if b.delta_len() > 0 {
        b.merge(2).expect("quiesce model");
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
/// shard's checkpoint manifest (`rows` at bytes 16..24) names: what an
/// interrupted merge had written before the kill.
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

/// One round: spawn, kill, recover, verify.
fn round(exe: &Path, scratch: &Path, seed: u64, fsync: bool, shards: usize, delay_ms: u64) {
    let dir = scratch.join(format!("round-{seed:x}"));
    let mut child = Command::new(exe)
        .args([
            "child",
            dir.to_str().unwrap(),
            &seed.to_string(),
            &(fsync as u8).to_string(),
            &shards.to_string(),
        ])
        .spawn()
        .expect("spawn child");
    std::thread::sleep(Duration::from_millis(delay_ms));
    child.kill().expect("SIGKILL child"); // SIGKILL on unix: no cleanup runs
    child.wait().expect("reap child");

    let acked = read_acks(&dir);
    // The kill landed inside merges that had written these column files.
    let resumed: usize = (0..shards)
        .map(|i| columns_past_checkpoint(&dir.join(format!("shard-{i}"))))
        .sum();
    let recovered: ShardedTable<u64> = recover_sharded(&dir).expect("recover after kill");

    // The model replays acked ops; the whole recovered table must equal
    // that, or that plus exactly the one op that was in flight.
    let model = ShardedTable::<u64>::builder()
        .shards(shards)
        .columns(COLS)
        .build()
        .expect("model");
    for i in 0..acked {
        apply(&model, seed, i).expect("model op");
    }
    let got = logical_state(&recovered);
    if got != logical_state(&model) {
        apply(&model, seed, acked).expect("model slack op");
        assert_eq!(
            got,
            logical_state(&model),
            "shards={shards} fsync={fsync}: recovered table matches neither {acked} \
             acked ops nor one op past them"
        );
    }
    for (s, (r, m)) in recovered.shards().iter().zip(model.shards()).enumerate() {
        assert_bytes_identical(r, m, &format!("shard {s}"));
    }

    // Still alive: the recovered table keeps logging and recovering.
    recovered
        .insert_rows(&[row(0xDEAD)])
        .expect("post-crash insert");
    let n = recovered.row_count();
    drop(recovered);
    let again: ShardedTable<u64> = recover_sharded(&dir).expect("second recovery");
    assert_eq!(again.row_count(), n, "post-crash write survived");
    println!(
        "  shards={shards} fsync={fsync} delay={delay_ms}ms: acked={acked}, rows={n}, \
         resumed_columns={resumed} ok"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 6 && args[1] == "child" {
        let dir = PathBuf::from(&args[2]);
        let seed: u64 = args[3].parse().expect("seed");
        let fsync = args[4] == "1";
        let shards: usize = args[5].parse().expect("shards");
        run_child(&dir, seed, fsync, shards);
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
    println!("crash harness: {rounds} one-shard rounds, base seed {base_seed:#x}");

    let exe = std::env::current_exe().expect("own path");
    let scratch = std::env::temp_dir().join(format!("hyrise-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    for r in 0..rounds + rounds.div_ceil(2) {
        let seed = splitmix(base_seed.wrapping_add(r));
        let shards = if r < rounds { 1 } else { 3 };
        // Delays sweep from "killed during the very first ops" to "killed
        // deep into merge churn".
        round(&exe, &scratch, seed, r % 2 == 0, shards, 10 + seed % 190);
    }

    let _ = std::fs::remove_dir_all(&scratch);
    println!("crash harness: all rounds byte-identical after recovery");
}

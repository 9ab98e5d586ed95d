//! End-to-end acceptance: a live server, a durable table, and a swarm of
//! wire clients inserting and querying concurrently while the merge
//! scheduler runs underneath — checked against an in-memory oracle
//! rebuilt from the keys the clients recorded. Then the write-burst half:
//! a write-heavy swarm against a tight backlog limit observably trips the
//! throttle valve, and the merge scheduler catches the backlog back up.

use hyrise_query::Query;
use hyrise_server::admission::AdmissionConfig;
use hyrise_server::catalog::CatalogConfig;
use hyrise_server::protocol::TableSpec;
use hyrise_server::server::{start, ServerConfig};
use hyrise_server::{Client, ClientError, ClientResult, WireRowId};
use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Concurrent clients per swarm, each on its own connection.
const CLIENTS: usize = 4;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hyrise-server-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The row a key expands to: column 0 is the key, the others derive
/// from it.
fn row(key: u64, cols: usize) -> Vec<u64> {
    (0..cols as u64)
        .map(|c| {
            if c == 0 {
                key
            } else {
                key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(c as u32)
            }
        })
        .collect()
}

/// Insert keys `0..n` through the wire. Both tests preload under their
/// backlog limit, so the preload is never throttled.
fn preload(c: &mut Client, table: &str, n: u64, cols: usize) {
    for lo in (0..n).step_by(512) {
        let rows: Vec<Vec<u64>> = (lo..(lo + 512).min(n)).map(|k| row(k, cols)).collect();
        c.insert(table, &rows).unwrap();
    }
}

/// The shape of one swarm client's run.
#[derive(Clone, Copy)]
struct Mix {
    /// Operations per client.
    ops: u64,
    /// Percent of operations that write (Fig 1: OLTP 17, TPC-C 46).
    write_pct: u64,
    /// Rows per insert request.
    batch: u64,
    /// Preloaded keys `0..preloaded`, which lookups address.
    preloaded: u64,
    /// Table width.
    cols: usize,
}

/// What one client did; the oracle is rebuilt from the key lists.
#[derive(Debug, Default)]
struct Tally {
    /// Operations executed (a delete with nothing to delete is skipped).
    ops: u64,
    lookups: u64,
    range_reads: u64,
    rows_inserted: u64,
    /// Delete requests the server applied, one row each.
    deletes: u64,
    /// Throttle rejections seen, retried or dropped.
    throttled: u64,
    inserted_keys: Vec<u64>,
    deleted_keys: Vec<u64>,
}

/// Run a write, sleeping the server's back-off on each `Throttled`.
/// After eight throttles in a row the write is dropped (`None`): a paused
/// merge scheduler never reopens the valve.
fn write<T>(tally: &mut Tally, mut f: impl FnMut() -> ClientResult<T>) -> Option<T> {
    for _ in 0..8 {
        match f() {
            Ok(v) => return Some(v),
            Err(ClientError::Throttled { retry_after }) => {
                tally.throttled += 1;
                std::thread::sleep(retry_after.min(Duration::from_millis(100)));
            }
            Err(e) => panic!("write failed: {e}"),
        }
    }
    None
}

/// Client `idx`'s loop. Its insert keys are `(idx + 1) << 40 | n`,
/// disjoint from the preload and from every other client. An update is
/// an insert plus the delete of this client's oldest live row; a delete
/// removes its newest. A client so deletes only keys it inserted.
fn run_client(addr: &str, table: &str, idx: usize, mix: Mix) -> Tally {
    let mut c = Client::connect(addr).unwrap();
    let mut t = Tally::default();
    let mut owned: VecDeque<(WireRowId, u64)> = VecDeque::new();
    let tag = (idx as u64 + 1) << 40;
    for i in 0..mix.ops {
        // 37 is coprime to 100, so every 100 ops hit every roll once.
        let roll = (i * 37 + idx as u64 * 11) % 100;
        if roll >= mix.write_pct {
            let key = (i * 7_919) % mix.preloaded;
            let lookup = roll.is_multiple_of(2);
            let plan = if lookup {
                Query::scan(0).eq(key).count()
            } else {
                Query::scan(0).between(key, key + 64).count()
            };
            match c.query(table, &plan) {
                Ok(_) if lookup => t.lookups += 1,
                Ok(_) => t.range_reads += 1,
                Err(ClientError::Shed) => {}
                Err(e) => panic!("read failed: {e}"),
            }
        } else if roll % 3 == 2 {
            let Some((id, key)) = owned.pop_back() else {
                continue;
            };
            if write(&mut t, || c.delete(table, &[id])).is_some() {
                t.deletes += 1;
                t.deleted_keys.push(key);
            } else {
                owned.push_back((id, key));
            }
        } else {
            let next = t.inserted_keys.len() as u64;
            let keys: Vec<u64> = (next..next + mix.batch).map(|n| tag | n).collect();
            let rows: Vec<Vec<u64>> = keys.iter().map(|k| row(*k, mix.cols)).collect();
            if let Some(ids) = write(&mut t, || c.insert(table, &rows)) {
                t.rows_inserted += ids.len() as u64;
                t.inserted_keys.extend_from_slice(&keys);
                owned.extend(ids.into_iter().zip(keys));
                if roll % 3 == 1 {
                    let (id, key) = owned.pop_front().unwrap();
                    if write(&mut t, || c.delete(table, &[id])).is_some() {
                        t.deletes += 1;
                        t.deleted_keys.push(key);
                    } else {
                        owned.push_front((id, key));
                    }
                }
            }
        }
        t.ops += 1;
    }
    t
}

/// Run [`CLIENTS`] clients to completion, one thread each.
fn swarm(addr: &str, table: &str, mix: Mix) -> Vec<Tally> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| s.spawn(move || run_client(addr, table, i, mix)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn total(tallies: &[Tally], field: impl Fn(&Tally) -> u64) -> u64 {
    tallies.iter().map(field).sum()
}

#[test]
fn swarm_against_durable_table_matches_oracle_while_merging() {
    let dir = scratch_dir("oracle");
    let mut srv = start(
        "127.0.0.1:0",
        ServerConfig {
            // Every swarm client owns a connection for its whole run, so
            // the pool must out-size the swarm.
            workers: 8,
            catalog: CatalogConfig {
                data_dir: Some(dir.clone()),
                ..CatalogConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = srv.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    c.create_table(&TableSpec::durable("ledger", 3, 2, false))
        .unwrap();

    let mix = Mix {
        ops: 300,
        write_pct: 17,
        batch: 4,
        preloaded: 2_000,
        cols: 3,
    };
    preload(&mut c, "ledger", mix.preloaded, mix.cols);
    let report = swarm(&addr, "ledger", mix);
    // Delete ops with nothing yet owned are skipped, so ops is bounded by,
    // but not necessarily equal to, the nominal volume.
    let ops = total(&report, |t| t.ops);
    assert!(ops > 0 && ops <= CLIENTS as u64 * mix.ops);
    assert!(
        total(&report, |t| t.lookups + t.range_reads) > 0,
        "mix ran reads"
    );
    let rows_inserted = total(&report, |t| t.rows_inserted);
    assert!(rows_inserted > 0, "mix ran writes");

    // The scheduler merged underneath the swarm (delta_fraction 0.02 over
    // 2k+ rows trips many times during the run).
    let entry = srv.catalog().get("ledger").unwrap();
    assert!(
        entry.scheduler().stats().merges > 0,
        "merges must have run during the swarm"
    );

    // Oracle: preload keys plus the clients' inserted keys, minus their
    // deleted keys. Every key is unique (preload 0..N, clients tag-disjoint),
    // so set arithmetic is exact.
    let inserted_keys: Vec<u64> = report
        .iter()
        .flat_map(|t| t.inserted_keys.clone())
        .collect();
    let deleted_keys: Vec<u64> = report.iter().flat_map(|t| t.deleted_keys.clone()).collect();
    let mut expected: HashSet<u64> = (0..mix.preloaded).collect();
    for k in &inserted_keys {
        assert!(expected.insert(*k), "key {k} inserted twice");
    }
    for k in &deleted_keys {
        assert!(expected.remove(k), "deleted key {k} never inserted");
    }

    // Row-count level: the server's valid-row accounting matches.
    let stats = c.table_stats("ledger").unwrap();
    assert_eq!(stats.valid_rows, expected.len() as u64);
    assert_eq!(
        stats.rows,
        mix.preloaded + rows_inserted,
        "physical rows = preload + inserts (deletes only invalidate)"
    );

    // Key level: point lookups agree with the oracle for present, deleted,
    // and never-inserted keys.
    let count_of = |c: &mut Client, key: u64| {
        c.query("ledger", &Query::scan(0).eq(key).count())
            .unwrap()
            .count()
            .unwrap()
    };
    for k in deleted_keys.iter().take(40) {
        assert_eq!(count_of(&mut c, *k), 0, "deleted key {k} visible");
    }
    for k in inserted_keys
        .iter()
        .filter(|k| expected.contains(k))
        .take(40)
    {
        assert_eq!(count_of(&mut c, *k), 1, "live key {k} missing");
    }
    assert_eq!(count_of(&mut c, mix.preloaded + 1), 0, "phantom key");

    // Aggregate level: preload keys are never deleted (clients only delete
    // rows they inserted), so the sum over the preload key range is exact.
    let n = mix.preloaded;
    let out = c
        .query("ledger", &Query::scan(0).between(0, n - 1).sum(0))
        .unwrap();
    assert_eq!(out.sum(), Some((n as u128) * (n as u128 - 1) / 2));

    // Full-table count through the scan path agrees with the stats path.
    let out = c.query("ledger", &Query::scan(0).count()).unwrap();
    assert_eq!(out.count(), Some(expected.len() as u64));

    // Durability is real: the table's WAL lives under data_dir/<name>.
    assert!(dir.join("ledger").is_dir());
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_burst_swarm_trips_the_throttle_and_merge_catches_up() {
    let mut srv = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 8,
            admission: AdmissionConfig {
                // Tight backlog against batch-heavy writers.
                write_backlog_limit: 2_500,
                write_release_fraction: 0.5,
                throttle_retry_after: Duration::from_millis(2),
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = srv.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    c.create_table(&TableSpec::volatile("burst", 2, 2)).unwrap();

    // Hold merges off so the burst deterministically outruns the drain —
    // the Equation 1 race with the merge side pinned at zero. The preload
    // (500 rows) stays under the limit, so only the swarm's writers trip
    // the valve.
    let entry = srv.catalog().get("burst").unwrap();
    entry.scheduler().pause();

    let mix = Mix {
        ops: 200,
        write_pct: 46, // TPC-C: the paper's burst case
        batch: 32,
        preloaded: 500,
        cols: 2,
    };
    preload(&mut c, "burst", mix.preloaded, mix.cols);
    let report = swarm(&addr, "burst", mix);

    // The gate observably throttled writers, both in the swarm's own
    // accounting and in the server's counters.
    assert!(
        total(&report, |t| t.throttled) > 0,
        "burst never throttled: {report:?}"
    );
    let gate_stats = srv.gate().stats();
    assert!(gate_stats.throttled_writes > 0, "{gate_stats:?}");
    // Reads were never punished for the write burst.
    assert_eq!(gate_stats.shed_reads, 0, "{gate_stats:?}");
    // Backlog really did exceed the limit at some point.
    assert!(
        entry.table().delta_len() > 2_500,
        "delta backlog should be past the limit while paused"
    );

    // Merge catches back up: resume the scheduler and the backlog drains
    // below the release line within the time bound.
    entry.scheduler().resume();
    let deadline = Instant::now() + Duration::from_secs(30);
    while entry.table().delta_len() >= 1_250 {
        assert!(Instant::now() < deadline, "merge never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(entry.scheduler().stats().merges > 0);

    // With the valve open again a writer is admitted straight away.
    c.insert("burst", &[vec![9_999, 1], vec![9_998, 2]])
        .unwrap();

    // The swarm's report still reconciles: dropped writes (retries
    // exhausted during the paused phase) are excluded from its counts, so
    // accounting stays exact.
    let rows_inserted = total(&report, |t| t.rows_inserted);
    let stats = c.table_stats("burst").unwrap();
    assert_eq!(
        stats.rows,
        mix.preloaded + rows_inserted + 2,
        "rows = preload + admitted swarm inserts + the final probe"
    );
    assert_eq!(
        stats.valid_rows,
        mix.preloaded + rows_inserted + 2 - total(&report, |t| t.deletes),
    );
    srv.shutdown();
}

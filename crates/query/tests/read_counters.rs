//! Every executor entry point registers with the process-wide read
//! counters the server reports as reads in flight. Registration is **once
//! per query**:
//! a sharded fan-out or a many-morsel parallel run still counts as one
//! read, so the signal tracks query arrival, not internal parallelism.
//! Counters are monotonic and global, so assertions are lower bounds
//! (other tests may run concurrently).

use hyrise_core::read_load;
use hyrise_core::shard::ShardedTable;
use hyrise_core::OnlineTable;
use hyrise_query::Query;

#[test]
fn executor_runs_bump_the_read_counters() {
    let t = OnlineTable::<u64>::new(1);
    for v in 0..100u64 {
        t.insert_row(&[v]).unwrap();
    }
    let before = read_load();
    let _ = Query::scan(0).eq(5).run(&t).into_rows();
    let after = read_load();
    assert!(
        after.finished > before.finished,
        "snapshot engine run must register"
    );
    assert!(
        after.started >= after.finished,
        "started never lags finished"
    );

    // A sharded fan-out registers exactly once for the whole query — the
    // per-shard engine runs are internal parallelism, not read pressure.
    // (This test binary is the only user of the process-global counters,
    // so the count is exact.)
    let s = ShardedTable::<u64>::builder()
        .shards(3)
        .columns(1)
        .build()
        .unwrap();
    s.insert_rows(&(0..50u64).map(|i| [i]).collect::<Vec<_>>())
        .unwrap();
    let before = read_load();
    let _ = Query::scan(0).count().run(&s).count();
    let after = read_load();
    assert_eq!(
        after.finished,
        before.finished + 1,
        "sharded query registers once, not once per shard"
    );

    // The morsel hint doesn't multiply registrations either.
    let before = read_load();
    let _ = Query::scan(0).sum(0).with_threads(4).run(&t).sum();
    let after = read_load();
    assert_eq!(
        after.finished,
        before.finished + 1,
        "a many-morsel run registers once"
    );

    // So does a snapshot held by the caller.
    let snap = t.snapshot();
    let before = read_load();
    let _ = Query::scan(0).eq(2).run(&snap).into_rows();
    assert_eq!(read_load().finished, before.finished + 1);
}

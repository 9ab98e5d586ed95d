//! The four workloads: their tables, their op mixes and the seed-derived
//! data and op streams.
//!
//! Every read a workload sends has an answer that writes cannot change:
//! lookups and key ranges address preloaded keys (never deleted) or keys
//! the same client inserted, and the fused scan of `htap_durable` carries a
//! key-range conjunct over preloaded keys. Inserted keys live far above the
//! preload range. So any reply can be checked exactly while other clients
//! write.

use crate::engine::{Pred, Row};

/// Workload names, permanent.
pub const WORKLOADS: [&str; 4] = ["oltp_wire", "olap_scan", "ingest_merge", "htap_durable"];

/// Closed-loop client connections per workload: two per core of the
/// two-core box the bounds were probed on. With one per core a request and
/// its reply ping-pong between a client and a server thread that each
/// sleep half the time, and `oltp_wire` throughput then follows thread
/// placement and the VM's idle wake-up cost (quartile spread 19 % over ten
/// runs); with two per core the cores stay busy and it follows CPU cost
/// per request (6 %).
pub const CLIENTS: usize = 4;

/// Distinct values of the three value columns.
pub const CARD: [u64; 3] = [1009, 65537, 97];

/// SplitMix64. The benchmark owns its generator so op streams do not move
/// when the engine's vendored `rand` stub is swapped or changed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The row a key expands to in `table` under `seed`.
pub fn row(seed: u64, table: usize, key: u64) -> Row {
    let h = mix(key ^ mix(seed ^ (table as u64).wrapping_mul(0xA24B_AED4_963E_E407)));
    [key, h % CARD[0], (h >> 20) % CARD[1], (h >> 40) % CARD[2]]
}

/// The batch of `n` rows whose keys start at `first_key`.
pub fn rows_from(seed: u64, table: usize, first_key: u64, n: u32) -> Vec<Row> {
    (0..n as u64)
        .map(|i| row(seed, table, first_key + i))
        .collect()
}

/// First key client `client` inserts into `table`; its `n`-th insert gets
/// `base + n`. Disjoint from every preload range and from every other
/// (client, table) pair.
pub fn insert_base(client: usize, table: usize) -> u64 {
    ((client as u64 + 1) << 48) | ((table as u64) << 40)
}

/// Latency classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Lookup,
    Scan,
    Insert,
    Delete,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Lookup, Class::Scan, Class::Insert, Class::Delete];

    pub fn name(self) -> &'static str {
        match self {
            Class::Lookup => "lookup",
            Class::Scan => "scan",
            Class::Insert => "insert",
            Class::Delete => "delete",
        }
    }
}

/// Which key a lookup addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyPick {
    /// A preloaded key.
    Preload(u64),
    /// One of the keys this client inserted into the table so far: the
    /// draw is reduced modulo their number when the op runs (a preloaded
    /// key when there are none yet).
    Own(u64),
}

/// One operation, before client state resolves it to a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Lookup {
        table: usize,
        key: KeyPick,
    },
    RangeCount {
        table: usize,
        lo: u64,
        hi: u64,
    },
    EqCount {
        table: usize,
        value: u64,
    },
    FusedSum {
        table: usize,
        a: Pred,
        b: Pred,
    },
    FullSum {
        table: usize,
    },
    Insert {
        table: usize,
        rows: u32,
    },
    /// Delete the oldest live row this client inserted into `table` (a
    /// lookup of a preloaded key when it has none).
    Delete {
        table: usize,
    },
}

#[cfg(test)]
impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Lookup { .. } => Class::Lookup,
            Op::Insert { .. } => Class::Insert,
            Op::Delete { .. } => Class::Delete,
            _ => Class::Scan,
        }
    }
}

/// Column the scans aggregate.
pub const SUM_COL: usize = 2;

/// One table of a workload.
#[derive(Clone, Debug)]
pub struct TableDef {
    pub name: String,
    /// Preloaded keys are `0..rows`.
    pub rows: u64,
    pub durable: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    OltpWire,
    OlapScan,
    IngestMerge,
    HtapDurable,
}

/// A workload: tables plus the rule that turns (seed, client) into ops.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub tables: Vec<TableDef>,
    /// Thread hint scans are sent with.
    pub scan_threads: usize,
    /// Whether clients must remember the row ids of their inserts.
    pub deletes: bool,
    kind: Kind,
}

impl Workload {
    /// `scale` divides every table size (`--quick` passes 20).
    pub fn by_name(name: &str, scale: u64) -> Option<Self> {
        let table = |name: &str, rows: u64, durable: bool| TableDef {
            name: name.to_string(),
            rows: (rows / scale).max(1024),
            durable,
        };
        Some(match name {
            "oltp_wire" => Self {
                name: "oltp_wire",
                tables: (0..16)
                    .map(|i| table(&format!("oltp{i}"), 8192, false))
                    .collect(),
                scan_threads: 1,
                deletes: false,
                kind: Kind::OltpWire,
            },
            "olap_scan" => Self {
                name: "olap_scan",
                // `side` only receives the insert trickle, so the fact
                // table stays read-only and fully merged.
                tables: vec![table("fact", 2_000_000, false), table("side", 8192, false)],
                scan_threads: 2,
                deletes: false,
                kind: Kind::OlapScan,
            },
            "ingest_merge" => Self {
                name: "ingest_merge",
                tables: vec![table("ingest", 2_000_000, false)],
                scan_threads: 1,
                deletes: false,
                kind: Kind::IngestMerge,
            },
            "htap_durable" => Self {
                name: "htap_durable",
                tables: vec![table("htap", 1_000_000, true)],
                scan_threads: 1,
                deletes: true,
                kind: Kind::HtapDurable,
            },
            _ => return None,
        })
    }

    /// Client `client`'s op stream under `seed`.
    pub fn ops(&self, seed: u64, client: usize) -> OpStream<'_> {
        OpStream {
            workload: self,
            client,
            rng: Rng::new(mix(seed) ^ mix(client as u64 + 1)),
            index: 0,
        }
    }
}

/// Endless deterministic op stream of one client.
pub struct OpStream<'a> {
    workload: &'a Workload,
    client: usize,
    rng: Rng,
    index: u64,
}

impl OpStream<'_> {
    fn preload_key(&mut self, table: usize) -> u64 {
        self.rng.below(self.workload.tables[table].rows)
    }

    /// A key range of `len` keys inside the preload range.
    fn key_range(&mut self, table: usize, len: u64) -> (u64, u64) {
        let rows = self.workload.tables[table].rows;
        let len = len.min(rows);
        let lo = self.rng.below(rows - len + 1);
        (lo, lo + len - 1)
    }

    fn value_range(&mut self, col: usize, width: u64) -> Pred {
        let lo = self.rng.below(CARD[col - 1] - width + 1);
        Pred {
            col,
            lo,
            hi: lo + width - 1,
        }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let index = self.index;
        self.index += 1;
        let pick = self.rng.below(100);
        Some(match self.workload.kind {
            // Section 2's OLTP mix on tiny tables: the fixed per-request
            // cost of every layer above the kernels is what is measured.
            Kind::OltpWire => {
                let table = self.rng.below(16) as usize;
                if pick < 78 {
                    let key = if self.rng.below(10) == 0 {
                        KeyPick::Own(self.rng.next_u64())
                    } else {
                        KeyPick::Preload(self.preload_key(table))
                    };
                    Op::Lookup { table, key }
                } else if pick < 83 {
                    let len = 16 + self.rng.below(113);
                    let (lo, hi) = self.key_range(table, len);
                    Op::RangeCount { table, lo, hi }
                } else {
                    Op::Insert { table, rows: 1 }
                }
            }
            // Read-only analytics on one large merged table; every 64th op
            // is a single-row insert into the side table, so the write
            // metrics exist here too without touching the fact table.
            Kind::OlapScan => {
                if index % 64 == 63 {
                    Op::Insert { table: 1, rows: 1 }
                } else if pick < 50 {
                    Op::Lookup {
                        table: 0,
                        key: KeyPick::Preload(self.preload_key(0)),
                    }
                } else {
                    match self.rng.below(3) {
                        0 => Op::EqCount {
                            table: 0,
                            value: self.rng.below(CARD[0]),
                        },
                        1 => Op::FusedSum {
                            table: 0,
                            a: self.value_range(1, 100),
                            b: self.value_range(3, 30),
                        },
                        _ => Op::FullSum { table: 0 },
                    }
                }
            }
            // Client 0 writes 64-row batches back to back; client 1 reads
            // what merges must not stall.
            Kind::IngestMerge => {
                if self.client == 0 {
                    Op::Insert { table: 0, rows: 64 }
                } else if pick < 50 {
                    Op::Lookup {
                        table: 0,
                        key: KeyPick::Preload(self.preload_key(0)),
                    }
                } else {
                    let (lo, hi) = self.key_range(0, 1000);
                    Op::RangeCount { table: 0, lo, hi }
                }
            }
            // The Section 2 mix on one durable table: reads cross main,
            // frozen delta and live tail while WAL appends, deletes and
            // checkpointing merges run beside them.
            Kind::HtapDurable => {
                if pick < 62 {
                    let key = if self.rng.below(5) == 0 {
                        KeyPick::Own(self.rng.next_u64())
                    } else {
                        KeyPick::Preload(self.preload_key(0))
                    };
                    Op::Lookup { table: 0, key }
                } else if pick < 68 {
                    let len = 16 + self.rng.below(113);
                    let (lo, hi) = self.key_range(0, len);
                    Op::RangeCount { table: 0, lo, hi }
                } else if pick < 78 {
                    let rows = self.workload.tables[0].rows;
                    let (lo, hi) = self.key_range(0, rows / 20);
                    Op::FusedSum {
                        table: 0,
                        a: Pred { col: 0, lo, hi },
                        b: self.value_range(3, 30),
                    }
                } else if pick < 95 {
                    Op::Insert { table: 0, rows: 16 }
                } else {
                    Op::Delete { table: 0 }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(name: &str, seed: u64, client: usize, n: usize) -> String {
        let w = Workload::by_name(name, 1).unwrap();
        let ops: Vec<Op> = w.ops(seed, client).take(n).collect();
        format!("{ops:?}")
    }

    #[test]
    fn op_streams_repeat_for_a_seed_and_differ_across_seeds_and_clients() {
        for name in WORKLOADS {
            let a = first_ops(name, 7, 1, 5000);
            assert_eq!(a.as_bytes(), first_ops(name, 7, 1, 5000).as_bytes());
            assert_ne!(a, first_ops(name, 8, 1, 5000), "{name}: seed must matter");
        }
        assert_ne!(
            first_ops("oltp_wire", 7, 0, 5000),
            first_ops("oltp_wire", 7, 1, 5000)
        );
    }

    #[test]
    fn rows_are_a_function_of_seed_table_and_key() {
        assert_eq!(row(3, 1, 99), row(3, 1, 99));
        assert_ne!(row(3, 1, 99), row(4, 1, 99));
        assert_ne!(row(3, 1, 99), row(3, 2, 99));
        let r = row(3, 1, 99);
        assert_eq!(r[0], 99);
        assert!(r[1] < CARD[0] && r[2] < CARD[1] && r[3] < CARD[2]);
    }

    #[test]
    fn reads_stay_inside_the_preload_range_and_inserts_outside_it() {
        for name in WORKLOADS {
            let w = Workload::by_name(name, 20).unwrap();
            for client in 0..CLIENTS {
                for op in w.ops(11, client).take(20_000) {
                    match op {
                        Op::Lookup {
                            table,
                            key: KeyPick::Preload(k),
                        } => {
                            assert!(k < w.tables[table].rows)
                        }
                        Op::RangeCount { table, lo, hi } => {
                            assert!(lo <= hi && hi < w.tables[table].rows)
                        }
                        Op::FusedSum { a, b, .. } => assert!(a.lo <= a.hi && b.lo <= b.hi),
                        _ => {}
                    }
                }
                assert!(insert_base(client, 0) > w.tables[0].rows);
            }
        }
    }

    #[test]
    fn every_workload_sends_lookups_scans_and_inserts() {
        for name in WORKLOADS {
            let w = Workload::by_name(name, 1).unwrap();
            let mut seen = [false; 4];
            for client in 0..CLIENTS {
                for op in w.ops(1, client).take(2000) {
                    seen[op.class() as usize] = true;
                }
            }
            assert!(seen[0] && seen[1] && seen[2], "{name}: {seen:?}");
        }
    }
}

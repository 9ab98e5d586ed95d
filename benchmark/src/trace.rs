//! Spans, self-time arithmetic and the depth replay.
//!
//! A traced run records a client-side span per op; afterwards a sample of
//! those ops is replayed at each depth of the stack against the same live
//! server. Every depth is a span whose parent is the depth above and which
//! shares the op's id. A layer's self time is its span's duration minus its
//! child spans' durations.

use crate::engine::{
    depth_protocol_read, depth_protocol_write, Answer, Conn, Plan, Profile, Row, ScratchTable,
    Server, TableRef, Tail,
};
use crate::json::Json;
use crate::workload::{rows_from, Class};
use std::time::Instant;

/// One timed interval of one op.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the same op's list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// All spans that share one op id.
#[derive(Clone, Debug)]
pub struct OpTrace {
    pub op: u64,
    pub class: Class,
    pub spans: Vec<Span>,
}

/// Self time of every span: its duration minus its direct children's.
/// Signed, because replayed depths are separate executions and noise can
/// make a child outlast its parent.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, i64)> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns() as i64;
        }
    }
    spans.iter().map(|s| s.name).zip(own).collect()
}

/// Clock shared by every span of a run.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a new span appended to `spans`; returns the span's
    /// index and `f`'s result.
    pub fn span<T>(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.now_ns();
        let out = f();
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: self.now_ns(),
        });
        (spans.len() - 1, out)
    }
}

/// An op as the client sent it, kept so it can be replayed.
#[derive(Clone, Copy, Debug)]
pub enum Sent {
    Read {
        table: usize,
        plan: Plan,
        threads: usize,
    },
    Insert {
        table: usize,
        first_key: u64,
        rows: u32,
    },
}

impl Sent {
    /// Ops of one shape cost about the same, so their medians add up.
    pub fn shape(&self) -> &'static str {
        match self {
            Sent::Read { plan, .. } => match plan {
                Plan::Lookup { .. } => "lookup",
                Plan::RangeCount { .. } => "range_count",
                Plan::EqCount { .. } => "eq_count",
                Plan::FusedSum { .. } => "fused_sum",
                Plan::FullSum { .. } => "full_sum",
            },
            Sent::Insert { .. } => "insert",
        }
    }
}

/// Kernel-level facts of one replayed read, summed over shards.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelSample {
    pub ns: u64,
    pub rows: u64,
    pub bytes: u64,
    pub matched: u64,
}

/// One op replayed at every depth.
pub struct Replayed {
    pub trace: OpTrace,
    /// Request and response frame sizes.
    pub frames: (usize, usize),
    /// Reads only.
    pub kernel: Option<KernelSample>,
}

/// Everything the replay needs besides the sampled ops.
pub struct Replayer<'a> {
    pub clock: Clock,
    pub server: &'a Server,
    pub conn: Conn,
    /// Live tables, by workload table index.
    pub tables: Vec<(String, TableRef)>,
    /// Catalog scratch table writes are replayed on (`wire`..`server`).
    pub scratch_name: String,
    /// Scratch tables below the catalog: same durability as the workload's
    /// tables with two shards and with one, and a volatile one-shard table.
    pub shard: ScratchTable,
    pub wal: Option<ScratchTable>,
    pub manager: ScratchTable,
    pub tail: Tail,
    /// Seed the inserted rows derive from.
    pub seed: u64,
    /// Reads replayed so far.
    pub replayed_reads: u64,
}

impl Replayer<'_> {
    /// Replay one sampled op at every depth.
    pub fn replay(&mut self, op: u64, class: Class, sent: &Sent) -> Result<Replayed, String> {
        let mut spans = Vec::new();
        let (frames, kernel) = match *sent {
            Sent::Read {
                table,
                plan,
                threads,
            } => {
                let (frames, kernel) = self.replay_read(&mut spans, table, &plan, threads)?;
                (frames, Some(kernel))
            }
            Sent::Insert {
                table,
                first_key,
                rows,
            } => {
                let rows = rows_from(self.seed, table, first_key, rows);
                (self.replay_insert(&mut spans, &rows)?, None)
            }
        };
        Ok(Replayed {
            trace: OpTrace { op, class, spans },
            frames,
            kernel,
        })
    }

    fn replay_read(
        &mut self,
        spans: &mut Vec<Span>,
        table: usize,
        plan: &Plan,
        threads: usize,
    ) -> Result<((usize, usize), KernelSample), String> {
        let clock = self.clock;
        let (name, live) = &self.tables[table];
        // One untimed run first, so every depth finds the caches as warm
        // as the depth before it left them.
        live.run(plan, threads);
        let conn = &mut self.conn;
        let (wire, over_wire) = clock.span(spans, "wire", None, || conn.query(name, plan, threads));
        let over_wire = over_wire.map_err(|e| format!("replayed read failed: {e:?}"))?;
        let (_, frames) = clock.span(spans, "protocol", Some(wire), || {
            depth_protocol_read(name, plan, threads, over_wire)
        });
        // Of two back-to-back in-process runs of one plan the second
        // measured up to 6 % slower on the probe box (swapping them moved
        // `server`'s share on `olap_scan` from -7 % to +6 %), so `server`
        // and `shard` take turns going first.
        let server = spans.len();
        let shard = server + 1;
        let run_server = |out: &mut Vec<Span>| {
            let depth = || self.server.depth_server_read(name, plan, threads);
            clock.span(out, "server", Some(wire), depth).1
        };
        let run_shard = |out: &mut Vec<Span>| {
            clock
                .span(out, "shard", Some(server), || live.run(plan, threads))
                .1
        };
        self.replayed_reads += 1;
        let mut pair = Vec::new();
        let (in_server, fanned) = if self.replayed_reads.is_multiple_of(2) {
            (run_server(&mut pair), run_shard(&mut pair))
        } else {
            let fanned = run_shard(&mut pair);
            let in_server = run_server(&mut pair);
            pair.swap(0, 1);
            (in_server, fanned)
        };
        spans.extend(pair);

        // Per shard: the executor on the snapshot, then the bare kernels.
        // Shards run in parallel under the fan-out, so the slowest one is
        // the child that covers the `shard` span.
        let snaps = live.snapshots();
        let per_shard = self.server.per_shard_threads(threads);
        let mut per = Vec::new();
        let mut kernel = KernelSample::default();
        let mut stitched: Option<Answer> = None;
        for i in 0..snaps.len() {
            let mut pair = Vec::new();
            let (q, part) = clock.span(&mut pair, "query", Some(shard), || {
                snaps.depth_query(i, plan, per_shard)
            });
            let (_, work) = clock.span(&mut pair, "bitpack", Some(q), || {
                snaps.depth_kernel(i, plan)
            });
            kernel.ns += pair[1].dur_ns();
            kernel.rows += work.rows;
            kernel.bytes += work.bytes;
            kernel.matched += work.matched;
            stitched = Some(match (stitched, part) {
                (None, p) => p,
                (Some(Answer::Count(a)), Answer::Count(b)) => Answer::Count(a + b),
                (Some(Answer::Sum(a)), Answer::Sum(b)) => Answer::Sum(a + b),
                (a, b) => {
                    return Err(format!(
                        "shards disagree on the output kind: {a:?} vs {b:?}"
                    ))
                }
            });
            per.push(pair);
        }
        if Ok(over_wire) != in_server || over_wire != fanned || Some(over_wire) != stitched {
            return Err(format!(
                "depths disagree on {plan:?}: wire {over_wire:?}, server {in_server:?}, \
                 shard {fanned:?}, stitched {stitched:?}"
            ));
        }
        let slowest = per
            .into_iter()
            .max_by_key(|pair| pair[0].dur_ns())
            .ok_or("table has no shards")?;
        let base = spans.len();
        spans.extend(slowest.into_iter().map(|mut s| {
            // `bitpack`'s parent index was local to the pair.
            if s.name == "bitpack" {
                s.parent = Some(base);
            }
            s
        }));
        Ok((frames?, kernel))
    }

    fn replay_insert(
        &mut self,
        spans: &mut Vec<Span>,
        rows: &[Row],
    ) -> Result<(usize, usize), String> {
        let clock = self.clock;
        let name = &self.scratch_name;
        let conn = &mut self.conn;
        let (wire, ids) = clock.span(spans, "wire", None, || conn.insert(name, rows));
        let ids = ids.map_err(|e| format!("replayed insert failed: {e:?}"))?;
        let (_, frames) = clock.span(spans, "protocol", Some(wire), || {
            depth_protocol_write(name, rows, &ids)
        });
        let (server, r) = clock.span(spans, "server", Some(wire), || {
            self.server.depth_server_write(name, rows)
        });
        r?;
        let (mut above, r) = clock.span(spans, "shard", Some(server), || self.shard.insert(rows));
        r?;
        if let Some(durable) = &self.wal {
            let (wal, r) = clock.span(spans, "wal", Some(above), || durable.insert(rows));
            r?;
            above = wal;
        }
        let (manager, r) = clock.span(spans, "manager", Some(above), || self.manager.insert(rows));
        r?;
        let (_, r) = clock.span(spans, "tail", Some(manager), || self.tail.append(rows));
        r?;
        frames
    }
}

/// Stage costs of one merge shaped like the workload's: a one-shard table
/// of `main_rows` rows merged, then `delta_rows` more inserted and merged
/// under the clock.
pub fn measure_merge(
    main: impl Iterator<Item = Row>,
    delta: impl Iterator<Item = Row>,
    threads: usize,
    profile: &Profile,
) -> Result<crate::engine::MergeStages, String> {
    let table = ScratchTable::new(1, None)?;
    table.load(main)?;
    table.merge(threads, profile)?;
    table.load(delta)?;
    table.merge(threads, profile)
}

/// The trace file: one object per span.
pub fn to_json(workload: &str, seed: u64, ops: &[&OpTrace]) -> Json {
    let spans = ops
        .iter()
        .flat_map(|op| {
            op.spans.iter().enumerate().map(move |(i, s)| {
                Json::obj([
                    ("op", Json::Num(op.op as f64)),
                    ("class", Json::str(op.class.name())),
                    ("span", Json::Num(i as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // wire 100 ⊃ {protocol 10, server 70 ⊃ shard 50 ⊃ query 30 ⊃ bitpack 20}
        let spans = vec![
            span("wire", None, 0, 100),
            span("protocol", Some(0), 200, 210),
            span("server", Some(0), 300, 370),
            span("shard", Some(2), 400, 450),
            span("query", Some(3), 500, 530),
            span("bitpack", Some(4), 600, 620),
        ];
        let own = self_times(&spans);
        assert_eq!(
            own,
            vec![
                ("wire", 20),
                ("protocol", 10),
                ("server", 20),
                ("shard", 20),
                ("query", 10),
                ("bitpack", 20)
            ]
        );
        // The selves of a chain add up to the root's duration.
        assert_eq!(own.iter().map(|(_, ns)| ns).sum::<i64>(), 100);
    }

    #[test]
    fn a_child_that_outlasts_its_parent_gives_a_negative_self_time() {
        let spans = vec![span("shard", None, 0, 40), span("query", Some(0), 50, 95)];
        assert_eq!(self_times(&spans), vec![("shard", -5), ("query", 45)]);
    }

    #[test]
    fn clock_spans_nest_by_index() {
        let clock = Clock::start();
        let mut spans = Vec::new();
        let (root, ()) = clock.span(&mut spans, "op", None, || ());
        let (child, v) = clock.span(&mut spans, "call", Some(root), || 7);
        assert_eq!((root, child, v), (0, 1, 7));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns <= spans[1].start_ns);
    }
}

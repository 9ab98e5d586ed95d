//! One run of one workload: set-up, the closed-loop measured phase, the
//! correctness oracle and, with `--trace`, the depth replay.

use crate::engine::{
    Answer, CallError, Conn, Plan, Profile, Recovered, Row, RowId, ScratchTable, Server, TableRef,
    TableStats, Tail, SHARDS,
};
use crate::stats::{median, p99, percentile};
use crate::trace::{self, Clock, KernelSample, OpTrace, Replayed, Replayer, Sent, Span};
use crate::workload::{
    insert_base, row, rows_from, Class, KeyPick, Op, Rng, Workload, CLIENTS, SUM_COL,
};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// An untraced run sets up at least `MIN_SETUPS` times and keeps going, up
/// to `MAX_SETUPS`, while set-up has taken under `SETUP_BUDGET` in total, so
/// that a set-up of milliseconds is repeated often enough for a steady
/// median; `setup_s` is the median of them all.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Unmeasured lead-in, so caches, connections and the pool are warm.
const WARMUP: Duration = Duration::from_millis(500);
/// Throttled writes are retried this often before they count as failed:
/// 10 s of back-off at the server's 25 ms. The issue's 64 (1.6 s) was
/// exceeded once in twenty `ingest_merge` runs, when one merge round of
/// the grown table outlasted it.
const RETRY_BUDGET: usize = 400;
/// Every n-th read reply is compared with an in-process serial run.
const CHECK_EVERY: u64 = 50;
/// Ops replayed per class at most, and the replay's share of `--seconds`.
const REPLAY_PER_CLASS: usize = 500;
const REPLAY_SHARE: f64 = 0.5;
/// Memory sampling period of a traced run.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

pub struct RunOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further facts worth a printed line.
    pub notes: Vec<Metric>,
}

pub struct RunConfig<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out`.
    pub out_dir: &'a Path,
    pub nproc: usize,
    pub profile: &'a Profile,
}

const WARM: u8 = 0;
const UNTRACED: u8 = 1;
const TRACED: u8 = 2;
const STOP: u8 = 3;

/// What a client knows about its own writes: enough to say what any of its
/// keys must answer and what the table must hold at the end.
#[derive(Default)]
struct ClientModel {
    /// Keys inserted per table: `insert_base + 0..n`.
    inserted: Vec<u64>,
    deleted: HashSet<(usize, u64)>,
    /// Live inserted rows, oldest first (kept only when the workload
    /// deletes).
    owned: VecDeque<(usize, u64, RowId)>,
}

#[derive(Default)]
struct PhaseCounts {
    lat_ns: [Vec<u64>; 4],
    attempted: u64,
    failed: u64,
    rows_acked: u64,
}

#[derive(Default)]
struct ClientOutput {
    /// Index 0 untraced, 1 traced.
    phases: [PhaseCounts; 2],
    throttled: u64,
    queued_ms: u64,
    checked: u64,
    traces: Vec<(OpTrace, Sent)>,
    model: ClientModel,
}

enum Request {
    /// A read, with the answer the model knows it must have if it knows
    /// one, or an insert: the ops a traced run replays.
    Replayable(Sent, Option<Answer>),
    /// Timed, but not replayed.
    Delete { table: usize, key: u64, id: RowId },
}

impl Request {
    fn class(&self) -> Class {
        match self {
            Request::Replayable(Sent::Read { plan, .. }, _) => match plan {
                Plan::Lookup { .. } => Class::Lookup,
                _ => Class::Scan,
            },
            Request::Replayable(Sent::Insert { .. }, _) => Class::Insert,
            Request::Delete { .. } => Class::Delete,
        }
    }
}

/// How a request ended.
enum Reply {
    /// Completed; reads carry the answer.
    Done(Option<Answer>),
    /// Shed, or dropped after the retry budget.
    Failed,
}

struct Client<'a> {
    index: usize,
    cfg: &'a RunConfig<'a>,
    conn: Conn,
    tables: Vec<TableRef>,
    clock: Clock,
    out: ClientOutput,
    reads: u64,
}

impl Client<'_> {
    fn resolve(&mut self, op: Op) -> Request {
        let w = self.cfg.workload;
        let read = |table: usize, plan: Plan, expect: Option<Answer>| {
            let threads = match plan {
                Plan::Lookup { .. } => 1,
                _ => w.scan_threads,
            };
            let sent = Sent::Read {
                table,
                plan,
                threads,
            };
            Request::Replayable(sent, expect)
        };
        let lookup = |table: usize, key: u64, live: bool| {
            read(
                table,
                Plan::Lookup { key },
                Some(Answer::Count(live as u64)),
            )
        };
        match op {
            Op::Lookup {
                table,
                key: KeyPick::Preload(key),
            } => lookup(table, key, true),
            Op::Lookup {
                table,
                key: KeyPick::Own(draw),
            } => match self.out.model.inserted[table] {
                0 => lookup(table, draw % w.tables[table].rows, true),
                n => {
                    let key = insert_base(self.index, table) + draw % n;
                    lookup(table, key, !self.out.model.deleted.contains(&(table, key)))
                }
            },
            Op::RangeCount { table, lo, hi } => read(
                table,
                Plan::RangeCount { lo, hi },
                Some(Answer::Count(hi - lo + 1)),
            ),
            Op::EqCount { table, value } => read(table, Plan::EqCount { col: 1, value }, None),
            Op::FusedSum { table, a, b } => {
                let sum_col = SUM_COL;
                read(table, Plan::FusedSum { a, b, sum_col }, None)
            }
            Op::FullSum { table } => read(table, Plan::FullSum { col: SUM_COL }, None),
            Op::Insert { table, rows } => {
                let first_key = insert_base(self.index, table) + self.out.model.inserted[table];
                let sent = Sent::Insert {
                    table,
                    first_key,
                    rows,
                };
                Request::Replayable(sent, None)
            }
            // With nothing of its own left to delete, the client reads.
            Op::Delete { table } => match self.out.model.owned.pop_front() {
                Some((table, key, id)) => Request::Delete { table, key, id },
                None => lookup(table, 0, true),
            },
        }
    }

    /// Send one request, retrying throttled writes after the back-off the
    /// server asks for. `Err` ends the run.
    fn send(&mut self, req: &Request, mut spans: Option<&mut Vec<Span>>) -> Result<Reply, String> {
        let w = self.cfg.workload;
        let clock = self.clock;
        let mut child = |name: &'static str, start_ns: u64| {
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(Span {
                    name,
                    parent: Some(0),
                    start_ns,
                    end_ns: clock.now_ns(),
                });
            }
        };
        for _ in 0..=RETRY_BUDGET {
            let start_ns = clock.now_ns();
            let result = match *req {
                Request::Replayable(
                    Sent::Read {
                        table,
                        plan,
                        threads,
                    },
                    _,
                ) => self
                    .conn
                    .query(&w.tables[table].name, &plan, threads)
                    .map(Some),
                Request::Replayable(
                    Sent::Insert {
                        table,
                        first_key,
                        rows,
                    },
                    _,
                ) => {
                    let batch = rows_from(self.cfg.seed, table, first_key, rows);
                    self.conn.insert(&w.tables[table].name, &batch).map(|ids| {
                        self.out.model.inserted[table] += ids.len() as u64;
                        if w.deletes {
                            let owned = (first_key..).zip(ids).map(|(k, id)| (table, k, id));
                            self.out.model.owned.extend(owned);
                        }
                        None
                    })
                }
                Request::Delete { table, key, id } => {
                    self.conn.delete(&w.tables[table].name, &[id]).map(|()| {
                        self.out.model.deleted.insert((table, key));
                        None
                    })
                }
            };
            child("call", start_ns);
            self.out.queued_ms += self.conn.queued_ms();
            match result {
                Ok(answer) => return Ok(Reply::Done(answer)),
                Err(CallError::Shed) => return Ok(Reply::Failed),
                Err(CallError::Throttled(retry_after)) => {
                    self.out.throttled += 1;
                    let start_ns = clock.now_ns();
                    std::thread::sleep(retry_after);
                    child("backoff", start_ns);
                }
                Err(CallError::Fatal(e)) => return Err(e),
            }
        }
        // A dropped delete keeps its row: put it back so the model holds.
        if let Request::Delete { table, key, id } = *req {
            self.out.model.owned.push_front((table, key, id));
        }
        Ok(Reply::Failed)
    }

    /// Compare a read's reply with what the model knows it must be and,
    /// every [`CHECK_EVERY`]-th time, with a serial in-process run.
    fn check(&mut self, req: &Request, got: Answer) -> Result<(), String> {
        let Request::Replayable(Sent::Read { table, plan, .. }, expect) = req else {
            return Ok(());
        };
        self.reads += 1;
        let reference = self
            .reads
            .is_multiple_of(CHECK_EVERY)
            .then(|| self.tables[*table].run(plan, 1));
        self.out.checked += reference.is_some() as u64;
        match expect.iter().chain(&reference).find(|want| **want != got) {
            Some(want) => Err(format!(
                "{}: {plan:?} answered {got:?}, expected {want:?}",
                self.cfg.workload.tables[*table].name
            )),
            None => Ok(()),
        }
    }

    fn run(mut self, phase: &AtomicU8) -> Result<ClientOutput, String> {
        let mut ops = self.cfg.workload.ops(self.cfg.seed, self.index);
        let mut next_id = (self.index as u64) << 48;
        loop {
            let now = phase.load(Ordering::Acquire);
            if now == STOP {
                return Ok(self.out);
            }
            let req = self.resolve(ops.next().expect("op streams are endless"));
            let class = req.class();
            // A traced op is a root span whose children are its attempts
            // and back-offs; the root is closed once the op has completed.
            let start_ns = self.clock.now_ns();
            let mut spans = (now == TRACED).then(|| {
                vec![Span {
                    name: "op",
                    parent: None,
                    start_ns,
                    end_ns: start_ns,
                }]
            });
            let reply = self.send(&req, spans.as_mut())?;
            let end_ns = self.clock.now_ns();
            if let Reply::Done(Some(got)) = reply {
                self.check(&req, got)?;
            }
            if now == WARM {
                continue;
            }
            let counts = &mut self.out.phases[(now == TRACED) as usize];
            counts.attempted += 1;
            if let Reply::Failed = reply {
                counts.failed += 1;
                continue;
            }
            counts.lat_ns[class as usize].push(end_ns - start_ns);
            let Request::Replayable(sent, _) = req else {
                continue;
            };
            if let Sent::Insert { rows, .. } = sent {
                counts.rows_acked += rows as u64;
            }
            if let Some(mut spans) = spans {
                spans[0].end_ns = end_ns;
                let trace = OpTrace {
                    op: next_id,
                    class,
                    spans,
                };
                self.out.traces.push((trace, sent));
                next_id += 1;
            }
        }
    }
}

/// A started server with the workload's tables loaded and merged.
struct Loaded {
    server: Server,
    data_dir: PathBuf,
    setup_s: f64,
}

fn set_up(cfg: &RunConfig, round: usize) -> Result<Loaded, String> {
    let data_dir = cfg
        .out_dir
        .join(format!("data-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let t0 = Instant::now();
    let durable = cfg.workload.tables.iter().any(|t| t.durable);
    let server = Server::start(durable.then(|| data_dir.clone()))?;
    for (i, def) in cfg.workload.tables.iter().enumerate() {
        server.create(&def.name, def.durable)?;
        let rows = (0..def.rows).map(|k| row(cfg.seed, i, k));
        server.table(&def.name)?.preload(rows, cfg.nproc)?;
    }
    Ok(Loaded {
        server,
        data_dir,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

fn tear_down(loaded: Loaded) {
    loaded.server.shutdown();
    let _ = std::fs::remove_dir_all(&loaded.data_dir);
}

/// Peak memory and merge rewrite volume, sampled over the wire.
#[derive(Default)]
struct Sampled {
    peak_mem_bytes: u64,
    samples: usize,
    /// Rows rewritten by merges: each merge rewrites one shard's main.
    rewritten_rows: f64,
}

fn sample_tables(
    cfg: &RunConfig,
    addr: &str,
    phase: &AtomicU8,
    done: &AtomicBool,
) -> Result<Sampled, String> {
    let mut conn = Conn::connect(addr)?;
    let mut out = Sampled::default();
    let mut last_merges: Vec<Option<u64>> = vec![None; cfg.workload.tables.len()];
    while !done.load(Ordering::Acquire) {
        if phase.load(Ordering::Acquire) == TRACED {
            let mut mem = 0;
            for (i, def) in cfg.workload.tables.iter().enumerate() {
                let s = conn.stats(&def.name).map_err(|e| format!("{e:?}"))?;
                mem += s.memory_bytes;
                if let Some(before) = last_merges[i] {
                    out.rewritten_rows +=
                        (s.merges - before) as f64 * s.rows as f64 / SHARDS as f64;
                }
                last_merges[i] = Some(s.merges);
            }
            out.peak_mem_bytes = out.peak_mem_bytes.max(mem);
            out.samples += 1;
        } else {
            last_merges.fill(None);
        }
        std::thread::sleep(SAMPLE_EVERY);
    }
    Ok(out)
}

fn table_stats(conn: &mut Conn, cfg: &RunConfig) -> Result<Vec<TableStats>, String> {
    cfg.workload
        .tables
        .iter()
        .map(|def| conn.stats(&def.name).map_err(|e| format!("{e:?}")))
        .collect()
}

/// The keys table `table` must hold: the preload plus every client's
/// inserts minus its deletes.
fn live_keys<'a>(
    cfg: &'a RunConfig,
    models: &'a [ClientModel],
    table: usize,
) -> impl Iterator<Item = u64> + 'a {
    let preload = 0..cfg.workload.tables[table].rows;
    let inserted = models.iter().enumerate().flat_map(move |(c, m)| {
        let base = insert_base(c, table);
        (base..base + m.inserted[table]).filter(move |k| !m.deleted.contains(&(table, *k)))
    });
    preload.chain(inserted)
}

/// What the table must answer after the run, asked through `ask`.
fn check_table(
    cfg: &RunConfig,
    models: &[ClientModel],
    table: usize,
    valid_rows: u64,
    mut ask: impl FnMut(&Plan) -> Result<Answer, String>,
) -> Result<(), String> {
    let name = &cfg.workload.tables[table].name;
    let (mut count, mut sum) = (0u64, 0u128);
    for key in live_keys(cfg, models, table) {
        count += 1;
        sum += row(cfg.seed, table, key)[SUM_COL] as u128;
    }
    if valid_rows != count {
        return Err(format!(
            "{name}: holds {valid_rows} valid rows, model says {count}"
        ));
    }
    let got = ask(&Plan::FullSum { col: SUM_COL })?;
    if got != Answer::Sum(sum) {
        return Err(format!("{name}: column sum {got:?}, model says {sum}"));
    }
    // Membership of a sample: preloaded, inserted, deleted and absent keys.
    let mut rng = Rng::new(cfg.seed ^ 0x0AC1E);
    let mut probes: Vec<(u64, u64)> = (0..16)
        .map(|_| (rng.below(cfg.workload.tables[table].rows), 1))
        .collect();
    for (c, m) in models.iter().enumerate() {
        let base = insert_base(c, table);
        if m.inserted[table] > 0 {
            for _ in 0..16 {
                let key = base + rng.below(m.inserted[table]);
                probes.push((key, !m.deleted.contains(&(table, key)) as u64));
            }
        }
        probes.push((base + m.inserted[table], 0));
        probes.extend(
            m.deleted
                .iter()
                .filter(|(t, _)| *t == table)
                .take(16)
                .map(|(_, k)| (*k, 0)),
        );
    }
    for (key, want) in probes {
        let got = ask(&Plan::Lookup { key })?;
        if got != Answer::Count(want) {
            return Err(format!(
                "{name}: key {key} counted {got:?}, model says {want}"
            ));
        }
    }
    Ok(())
}

/// Run the workload once.
pub fn run(cfg: &RunConfig) -> Result<RunOutcome, String> {
    std::fs::create_dir_all(cfg.out_dir).map_err(|e| format!("create {:?}: {e}", cfg.out_dir))?;
    let w = cfg.workload;

    // Set-up, several times over; the last one is kept and measured on.
    let mut setup_s = Vec::new();
    let mut loaded = set_up(cfg, 0)?;
    setup_s.push(loaded.setup_s);
    while !cfg.trace
        && (setup_s.len() < MIN_SETUPS
            || (setup_s.len() < MAX_SETUPS
                && setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64()))
    {
        tear_down(loaded);
        loaded = set_up(cfg, setup_s.len())?;
        setup_s.push(loaded.setup_s);
    }
    let server = &loaded.server;
    let addr = server.addr();
    let tables: Vec<TableRef> = w
        .tables
        .iter()
        .map(|def| server.table(&def.name))
        .collect::<Result<_, _>>()?;

    let clock = Clock::start();
    let mut clients = Vec::new();
    for index in 0..CLIENTS {
        clients.push(Client {
            index,
            cfg,
            conn: Conn::connect(&addr)?,
            tables: tables.clone(),
            clock,
            out: ClientOutput {
                model: ClientModel {
                    inserted: vec![0; w.tables.len()],
                    ..ClientModel::default()
                },
                ..ClientOutput::default()
            },
            reads: 0,
        });
    }
    let mut control = Conn::connect(&addr)?;

    // The measured phase. Untraced: one segment of `seconds`. Traced: four
    // segments, untraced-traced-traced-untraced, so drift (the tables grow)
    // hits both halves alike and their ratio is the tracing overhead.
    let segments: &[u8] = if cfg.trace {
        &[UNTRACED, TRACED, TRACED, UNTRACED]
    } else {
        &[UNTRACED]
    };
    let segment = Duration::from_secs_f64(cfg.seconds / segments.len() as f64);
    let phase = AtomicU8::new(WARM);
    let done = AtomicBool::new(false);
    let mut wall = [Duration::ZERO; 2];
    let mut before = Vec::new();
    let mut gate_before = server.gate_stats();
    let (outputs, sampled) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|c| {
                let phase = &phase;
                s.spawn(move || {
                    let out = c.run(phase);
                    if out.is_err() {
                        phase.store(STOP, Ordering::Release);
                    }
                    out
                })
            })
            .collect();
        let sampler = cfg
            .trace
            .then(|| s.spawn(|| sample_tables(cfg, &addr, &phase, &done)));
        std::thread::sleep(WARMUP);
        before = table_stats(&mut control, cfg)?;
        gate_before = server.gate_stats();
        server.pool_reset_peak();
        for &seg in segments {
            if phase.swap(seg, Ordering::AcqRel) == STOP {
                phase.store(STOP, Ordering::Release);
                break;
            }
            let t0 = Instant::now();
            std::thread::sleep(segment);
            wall[(seg == TRACED) as usize] += t0.elapsed();
        }
        phase.store(STOP, Ordering::Release);
        let outputs: Result<Vec<ClientOutput>, String> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect();
        done.store(true, Ordering::Release);
        let sampled = match sampler {
            Some(h) => h
                .join()
                .map_err(|_| "sampler thread panicked".to_string())??,
            None => Sampled::default(),
        };
        Ok::<_, String>((outputs?, sampled))
    })?;
    let after = table_stats(&mut control, cfg)?;
    let gate_after = server.gate_stats();
    let pool_peak = server.pool_peak();

    let mut outputs = outputs;
    let models: Vec<ClientModel> = outputs
        .iter_mut()
        .map(|o| std::mem::take(&mut o.model))
        .collect();

    // Final drain, then the oracle over the wire.
    for t in &tables {
        t.drain(cfg.nproc)?;
    }
    let drained = table_stats(&mut control, cfg)?;
    for (i, def) in w.tables.iter().enumerate() {
        check_table(cfg, &models, i, drained[i].valid_rows, |plan| {
            control
                .query(&def.name, plan, 1)
                .map_err(|e| format!("{}: oracle query failed: {e:?}", def.name))
        })?;
    }

    let total = |phase: usize, f: fn(&PhaseCounts) -> u64| -> u64 {
        outputs.iter().map(|o| f(&o.phases[phase])).sum()
    };
    let completed = |phase: usize| total(phase, |p| p.attempted) - total(phase, |p| p.failed);
    let ops_per_s = [0, 1].map(|phase| completed(phase) as f64 / wall[phase].as_secs_f64());
    let attempted = total(0, |p| p.attempted) + total(1, |p| p.attempted);
    let failed = total(0, |p| p.failed) + total(1, |p| p.failed);
    let rows_in = [0, 1].map(|phase| total(phase, |p| p.rows_acked));
    let checked: u64 = outputs.iter().map(|o| o.checked).sum();
    let throttled: u64 = outputs.iter().map(|o| o.throttled).sum();
    // Untraced latencies per class, ascending.
    let lat: Vec<Vec<u64>> = Class::ALL
        .iter()
        .map(|class| {
            let mut v: Vec<u64> = outputs
                .iter()
                .flat_map(|o| o.phases[0].lat_ns[*class as usize].iter().copied())
                .collect();
            v.sort_unstable();
            v
        })
        .collect();

    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let metric = |name: &str, value: f64, unit: &'static str, n: usize| Metric {
        name: name.to_string(),
        value,
        unit,
        n,
    };
    for class in [Class::Lookup, Class::Scan, Class::Insert] {
        if lat[class as usize].is_empty() {
            return Err(format!("{}: no {} completed", w.name, class.name()));
        }
    }
    let at = |class: Class, p: f64, value: Option<u64>| {
        metric(
            &format!("{}_p{p}_us", class.name()),
            value.map_or(0.0, |ns| ns as f64 / 1e3),
            "us",
            lat[class as usize].len(),
        )
    };
    let pct = |class: Class, p: f64| at(class, p, Some(percentile(&lat[class as usize], p)));
    let p50 = |class: Class| pct(class, 50.0);
    // The highest percentile every workload's sample supports on the
    // probe box (the fewest lookups a run completes is about 1 200).
    let p95 = |class: Class| pct(class, 95.0);
    // Zero, with the sample count beside it, below the p99 sample floor.
    let tail = |class: Class| at(class, 99.0, p99(&lat[class as usize]));
    let unbounded = [
        tail(Class::Lookup),
        tail(Class::Scan),
        p50(Class::Insert),
        tail(Class::Insert),
    ];
    notes.push(metric(
        "checked_reads",
        checked as f64,
        "count",
        checked as usize,
    ));
    notes.push(metric(
        "throttled_attempts",
        throttled as f64,
        "count",
        throttled as usize,
    ));
    if !cfg.trace {
        metrics.push(metric("setup_s", median(&setup_s), "s", setup_s.len()));
        metrics.push(metric(
            "ops_per_s",
            ops_per_s[0],
            "1/s",
            completed(0) as usize,
        ));
        metrics.push(metric(
            "rows_in_per_s",
            rows_in[0] as f64 / wall[0].as_secs_f64(),
            "rows/s",
            rows_in[0] as usize,
        ));
        metrics.push(p50(Class::Lookup));
        metrics.push(p95(Class::Lookup));
        metrics.push(p50(Class::Scan));
        metrics.push(p95(Class::Scan));
        let (bytes, rows) = drained
            .iter()
            .fold((0, 0), |(b, r), s| (b + s.memory_bytes, r + s.valid_rows));
        metrics.push(metric(
            "bytes_per_row",
            bytes as f64 / rows as f64,
            "B",
            rows as usize,
        ));
        notes.extend(unbounded);
        if !lat[Class::Delete as usize].is_empty() {
            notes.push(p50(Class::Delete));
        }
    } else {
        // Latencies too unsteady on two cores to carry a bound, from the
        // untraced half of this run.
        metrics.extend(unbounded);
        let traces: Vec<(OpTrace, Sent)> = outputs
            .iter_mut()
            .flat_map(|o| o.traces.drain(..))
            .collect();
        let queued_ms = outputs.iter().map(|o| o.queued_ms).sum();
        trace_metrics(
            cfg,
            &loaded,
            &tables,
            traces,
            TraceInputs {
                ops_per_s,
                rows_in_traced: rows_in[1],
                before: &before,
                after: &after,
                gate: (gate_before, gate_after),
                queued_ms,
                pool_peak,
                sampled,
                clock,
            },
            &mut |name, value, unit, n| metrics.push(metric(name, value, unit, n)),
        )?;
    }

    // Shut down, then recover every durable table from its files alone.
    let Loaded {
        server, data_dir, ..
    } = loaded;
    drop(control);
    drop(tables);
    server.shutdown();
    for (i, def) in w.tables.iter().enumerate().filter(|(_, d)| d.durable) {
        let t0 = Instant::now();
        let recovered = Recovered::open(&data_dir.join(&def.name))?;
        let recover_s = t0.elapsed().as_secs_f64();
        check_table(cfg, &models, i, recovered.valid_rows(), |plan| {
            Ok(recovered.run(plan))
        })
        .map_err(|e| format!("after recovery: {e}"))?;
        let rows = recovered.valid_rows();
        let out = if cfg.trace { &mut metrics } else { &mut notes };
        out.push(metric("recovery.recover_s", recover_s, "s", 1));
        out.push(metric(
            "recovery.rows_per_s",
            rows as f64 / recover_s,
            "rows/s",
            rows as usize,
        ));
    }
    let _ = std::fs::remove_dir_all(&data_dir);

    Ok(RunOutcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

struct TraceInputs<'a> {
    /// Untraced, traced.
    ops_per_s: [f64; 2],
    rows_in_traced: u64,
    before: &'a [TableStats],
    after: &'a [TableStats],
    gate: (crate::engine::GateStats, crate::engine::GateStats),
    queued_ms: u64,
    pool_peak: usize,
    sampled: Sampled,
    clock: Clock,
}

/// `wire` durations and per-layer self times of the replayed ops of one
/// shape.
#[derive(Default)]
struct ShapeTimes {
    wire: Vec<f64>,
    layers: [Vec<f64>; LAYERS.len()],
}

/// Layers in stack order; every one gets a `self_us` and a `share_pct`.
pub const LAYERS: [&str; 9] = [
    "wire", "protocol", "server", "shard", "query", "bitpack", "wal", "manager", "tail",
];

fn trace_metrics(
    cfg: &RunConfig,
    loaded: &Loaded,
    tables: &[TableRef],
    traces: Vec<(OpTrace, Sent)>,
    inputs: TraceInputs,
    push: &mut dyn FnMut(&str, f64, &'static str, usize),
) -> Result<(), String> {
    let w = cfg.workload;
    let server = &loaded.server;
    let durable = w.tables.iter().any(|t| t.durable);

    // An even sample of the traced ops, per class.
    let mut by_class: Vec<Vec<(OpTrace, Sent)>> = vec![Vec::new(); 3];
    for (t, sent) in traces {
        by_class[t.class as usize].push((t, sent));
    }
    for class in &mut by_class {
        let step = class.len().div_ceil(REPLAY_PER_CLASS).max(1);
        *class = std::mem::take(class).into_iter().step_by(step).collect();
    }

    let scratch_name = "scratch".to_string();
    server.create(&scratch_name, durable)?;
    server.table(&scratch_name)?.pause_merges();
    let scratch_dir = |tag: &str| loaded.data_dir.join(format!("scratch-{tag}"));
    let seed = cfg.seed;
    let mut replayer = Replayer {
        clock: inputs.clock,
        server,
        conn: Conn::connect(&server.addr())?,
        tables: w
            .tables
            .iter()
            .map(|d| d.name.clone())
            .zip(tables.iter().cloned())
            .collect(),
        scratch_name,
        shard: ScratchTable::new(
            SHARDS as usize,
            durable.then(|| scratch_dir("shard")).as_deref(),
        )?,
        wal: match durable {
            true => Some(ScratchTable::new(1, Some(&scratch_dir("wal")))?),
            false => None,
        },
        manager: ScratchTable::new(1, None)?,
        tail: Tail::new(),
        seed,
        replayed_reads: 0,
    };

    // Replay round-robin over the classes until the sample or the time
    // budget is used up, so every class gets an equal share of the budget.
    let budget = Duration::from_secs_f64(cfg.seconds * REPLAY_SHARE);
    let t0 = Instant::now();
    // Each replayed op: its live trace, its shape and its depths.
    let mut done: Vec<(&OpTrace, &'static str, Replayed)> = Vec::new();
    let mut wal_user_bytes = 0u64;
    let rounds = by_class.iter().map(Vec::len).max().unwrap_or(0);
    'replay: for i in 0..rounds {
        for class in &by_class {
            let Some((op, sent)) = class.get(i) else {
                continue;
            };
            if t0.elapsed() > budget {
                break 'replay;
            }
            if let Sent::Insert { rows, .. } = sent {
                wal_user_bytes += *rows as u64 * std::mem::size_of::<Row>() as u64;
            }
            done.push((op, sent.shape(), replayer.replay(op.op, op.class, sent)?));
        }
    }
    let frames: Vec<(usize, usize)> = done.iter().map(|d| d.2.frames).collect();
    let kernels: Vec<KernelSample> = done.iter().filter_map(|d| d.2.kernel).collect();

    // Self times per layer. Per op they add up to the `wire` span exactly;
    // the check is that their medians still do, within each op shape.
    let mut self_ns: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
    let mut wire_total = 0f64;
    let mut by_shape: BTreeMap<&str, ShapeTimes> = BTreeMap::new();
    for (_, shape, Replayed { trace: t, .. }) in &done {
        let times = by_shape.entry(shape).or_default();
        let wire = t.spans[0].dur_ns() as f64;
        wire_total += wire;
        times.wire.push(wire);
        for (name, ns) in trace::self_times(&t.spans) {
            let l = LAYERS
                .iter()
                .position(|n| *n == name)
                .expect("layer listed");
            self_ns[l].push(ns as f64);
            times.layers[l].push(ns as f64);
        }
    }
    let worst_dev = by_shape
        .values()
        .map(|ShapeTimes { wire, layers }| {
            let sum: f64 = layers
                .iter()
                .filter(|v| !v.is_empty())
                .map(|v| median(v))
                .sum();
            (sum / median(wire) - 1.0).abs() * 100.0
        })
        .fold(0.0, f64::max);
    for (l, layer) in LAYERS.iter().enumerate() {
        // Zero, with n=0 beside it, for a layer no replayed op crossed.
        let v = &self_ns[l];
        let (med, share) = if v.is_empty() {
            (0.0, 0.0)
        } else {
            (median(v) / 1e3, v.iter().sum::<f64>() / wire_total * 100.0)
        };
        push(&format!("{layer}.self_us"), med, "us", v.len());
        push(&format!("{layer}.share_pct"), share, "%", v.len());
    }
    push("trace.self_sum_dev_pct", worst_dev, "%", done.len());
    push(
        "trace_overhead_pct",
        (1.0 - inputs.ops_per_s[1] / inputs.ops_per_s[0]) * 100.0,
        "%",
        2,
    );

    // bitpack: kernel cost against the calibrated streaming bandwidth.
    let n = kernels.len();
    let med = |f: &dyn Fn(&KernelSample) -> f64| {
        if n == 0 {
            0.0
        } else {
            median(&kernels.iter().map(f).collect::<Vec<_>>())
        }
    };
    let bandwidth = cfg.profile.stream_bytes_per_s();
    push(
        "bitpack.ns_per_row",
        med(&|k| k.ns as f64 / k.rows.max(1) as f64),
        "ns",
        n,
    );
    push("bitpack.bytes_touched", med(&|k| k.bytes as f64), "B", n);
    push(
        "bitpack.roof_pct",
        med(&|k| k.bytes as f64 / bandwidth / (k.ns.max(1) as f64 / 1e9) * 100.0),
        "%",
        n,
    );
    push(
        "query.rows_examined_per_result",
        med(&|k| k.rows as f64 / k.matched.max(1) as f64),
        "rows",
        n,
    );
    push("pool.peak_depth", inputs.pool_peak as f64, "count", 1);

    // admission and protocol.
    let (g0, g1) = inputs.gate;
    push(
        "admission.queued",
        (g1.queued - g0.queued) as f64,
        "count",
        1,
    );
    push("admission.shed", (g1.shed - g0.shed) as f64, "count", 1);
    push(
        "admission.throttled",
        (g1.throttled - g0.throttled) as f64,
        "count",
        1,
    );
    push("admission.wait_ms", inputs.queued_ms as f64, "ms", 1);
    let frame_med = |f: fn(&(usize, usize)) -> usize| {
        if frames.is_empty() {
            0.0
        } else {
            median(&frames.iter().map(|x| f(x) as f64).collect::<Vec<_>>())
        }
    };
    push("protocol.req_bytes", frame_med(|f| f.0), "B", frames.len());
    push("protocol.resp_bytes", frame_med(|f| f.1), "B", frames.len());

    // wal: bytes the one-shard durable scratch table logged per user byte.
    let wal_ratio = match (&replayer.wal, wal_user_bytes) {
        (Some(_), user) if user > 0 => dir_bytes(&scratch_dir("wal")) as f64 / user as f64,
        _ => 0.0,
    };
    push(
        "wal.bytes_per_user_byte",
        wal_ratio,
        "ratio",
        (wal_user_bytes > 0) as usize,
    );

    // merge: live volume, and stage costs of one merge of the live shape.
    let delta = |f: fn(&TableStats) -> u64| -> u64 {
        inputs.after.iter().map(f).sum::<u64>() - inputs.before.iter().map(f).sum::<u64>()
    };
    let merges = delta(|s| s.merges);
    push(
        "merge.tuples_per_s",
        delta(|s| s.tuples_merged) as f64 / cfg.seconds,
        "1/s",
        merges as usize,
    );
    let rewrite = match inputs.rows_in_traced {
        0 => 0.0,
        rows => inputs.sampled.rewritten_rows / rows as f64,
    };
    push(
        "merge.rewrite_per_user_row",
        rewrite,
        "ratio",
        inputs.sampled.samples,
    );
    let stages = if merges > 0 {
        // The busiest table's shard: its main, plus the delta that arrives
        // between two merges of that shard.
        let busiest = (0..w.tables.len())
            .max_by_key(|&i| inputs.after[i].merges - inputs.before[i].merges)
            .expect("workloads have tables");
        let shard_rows = inputs.after[busiest].rows / SHARDS as u64;
        let per_merge = (inputs.after[busiest].tuples_merged
            - inputs.before[busiest].tuples_merged)
            / crate::engine::COLS as u64
            / (inputs.after[busiest].merges - inputs.before[busiest].merges);
        let main = (0..shard_rows).map(|k| row(seed, busiest, k));
        let fresh = (0..per_merge.max(1)).map(|k| row(seed, busiest, insert_base(0, busiest) + k));
        Some(trace::measure_merge(main, fresh, cfg.nproc, cfg.profile)?)
    } else {
        None
    };
    let per_tuple = |ns: fn(&crate::engine::MergeStages) -> f64| {
        stages.as_ref().map_or(0.0, |s| ns(s) / s.tuples.max(1.0))
    };
    let n = stages.is_some() as usize;
    push(
        "merge.step1a_ns_per_tuple",
        per_tuple(|s| s.step1a_ns),
        "ns",
        n,
    );
    push(
        "merge.step1b_ns_per_tuple",
        per_tuple(|s| s.step1b_ns),
        "ns",
        n,
    );
    push(
        "merge.step2_ns_per_tuple",
        per_tuple(|s| s.step2_ns),
        "ns",
        n,
    );
    push(
        "merge.roof_pct",
        stages.as_ref().map_or(0.0, |s| {
            s.predicted_ns / (s.step1a_ns + s.step1b_ns + s.step2_ns).max(1.0) * 100.0
        }),
        "%",
        n,
    );
    push(
        "storage.peak_mem_mb",
        inputs.sampled.peak_mem_bytes as f64 / (1 << 20) as f64,
        "MB",
        inputs.sampled.samples,
    );
    if !durable {
        push("recovery.recover_s", 0.0, "s", 0);
        push("recovery.rows_per_s", 0.0, "rows/s", 0);
    }

    // The trace file: each replayed op's live spans and its depth spans,
    // under the shared op id.
    let file: Vec<&OpTrace> = done
        .iter()
        .flat_map(|(live, _, replayed)| [*live, &replayed.trace])
        .collect();
    let path = cfg.out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, trace::to_json(w.name, cfg.seed, &file).to_string())
        .map_err(|e| format!("write {path:?}: {e}"))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

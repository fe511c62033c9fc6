//! `store-stream`: incremental publishing through the server's
//! `/datasets` routes with 4 shards, against a store in a fresh directory.
//!
//! The run is a sequence of blocks. Each block registers a 10k-row SAL
//! table and publishes it once (the set-up), then runs twelve rounds of
//! one append and one TP publish. Ten batches are one or two rows, which
//! leave most shards clean so their records are reused; two are 400
//! rows, which dirty all 4 shards.

use crate::check::Source;
use crate::http::{request, Reply, TimedFront};
use crate::inputs::{census, table_seed, Census, Input};
use crate::publish::{exec, int_field, params, same_summary, served_json, verify};
use crate::serve::replay_publication;
use crate::stats::{ms_since, rounds_for, timed, Outcome, TAIL_SAMPLES};
use crate::trace::Trace;
use crate::{Measured, Settings};
use ldiversity::core::{tuple_minimize, Phase};
use ldiversity::metrics::kl_divergence_with;
use ldiversity::microdata::Table;
use ldiversity::server::wire::publication_json;
use ldiversity::server::{AppState, Server, ServerConfig};
use ldiversity::shard::{remap_to_global, shard_params};
use ldiversity::store::{stable_shard_plan, DatasetStore};
use ldiversity::wire::Json;
use ldiversity::{standard_registry, Mechanism, Publication};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BASE_ROWS: usize = 10_000;
const D: usize = 7;
const SHARDS: u32 = 4;
const L: u32 = 4;
const MECHANISM: &str = "tp";
/// Rows appended by each round of a block: ten small batches, whose
/// appends and publishes give the tails, and two large ones.
const BATCHES: [usize; 12] = [1, 2, 1, 2, 1, 400, 1, 2, 1, 2, 1, 400];
/// Batches at least this large dirty every shard.
const LARGE: usize = 100;
/// Timed seconds of one block on the reference host.
const BLOCK_S: f64 = 0.8;

/// Blocks of a run: enough to fill `seconds`, and enough small batches
/// for a tail.
fn blocks(seconds: f64) -> usize {
    let small = BATCHES.iter().filter(|&&b| b < LARGE).count();
    rounds_for(seconds, BLOCK_S, TAIL_SAMPLES.div_ceil(small))
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let dir = PathBuf::from(".bench_work").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One block's inputs: the base table and its append batches.
struct Block {
    base: Input,
    /// CSV of each batch, header included.
    batches: Vec<Vec<u8>>,
    /// The benchmark's copy of every row: base rows, then each batch.
    rows: Vec<(Vec<u16>, u16)>,
}

impl Block {
    fn new(seed: u64, index: u64) -> Block {
        let base = census(Census::Sal, BASE_ROWS, D, table_seed(seed, 4, index));
        let src = &base.source;
        // Appended cells must be labels the registration already has, or
        // the store reads them as raw codes: keep only rows whose every
        // value occurs in the base table.
        let mut seen = vec![vec![false; 1 << 16]; D + 1];
        for r in 0..src.len() {
            for (a, &v) in src.row(r).iter().enumerate() {
                seen[a][v as usize] = true;
            }
            seen[D][src.sa[r] as usize] = true;
        }
        let wanted: usize = BATCHES.iter().sum();
        let pool = census(Census::Sal, 4 * wanted, D, table_seed(seed, 5, index)).source;
        let mut fresh = (0..pool.len()).filter(|&r| {
            pool.row(r)
                .iter()
                .enumerate()
                .all(|(a, &v)| seen[a][v as usize])
                && seen[D][pool.sa[r] as usize]
        });
        let header = std::str::from_utf8(&base.csv)
            .expect("generated CSV is UTF-8")
            .lines()
            .next()
            .expect("CSV has a header")
            .to_string();
        let mut rows: Vec<(Vec<u16>, u16)> = (0..src.len())
            .map(|r| (src.row(r).to_vec(), src.sa[r]))
            .collect();
        let mut batches = Vec::new();
        for &size in &BATCHES {
            let mut csv = format!("{header}\n");
            for _ in 0..size {
                let r = fresh.next().expect("the pool holds enough in-domain rows");
                let cells: Vec<String> = pool
                    .row(r)
                    .iter()
                    .chain([&pool.sa[r]])
                    .map(|v| v.to_string())
                    .collect();
                csv.push_str(&cells.join(","));
                csv.push('\n');
                rows.push((pool.row(r).to_vec(), pool.sa[r]));
            }
            batches.push(csv.into_bytes());
        }
        Block {
            base,
            batches,
            rows,
        }
    }

    /// The checker's copy of the first `n` rows.
    fn source(&self, n: usize) -> Source {
        Source {
            d: D,
            qi: self.rows[..n].iter().flat_map(|(q, _)| q.clone()).collect(),
            sa: self.rows[..n].iter().map(|(_, s)| *s).collect(),
            domains: Vec::new(),
        }
        .with_observed_domains()
    }

    /// Rows in the dataset after `rounds` appends.
    fn rows_after(&self, rounds: usize) -> usize {
        BASE_ROWS + BATCHES[..rounds].iter().sum::<usize>()
    }
}

fn config(root: PathBuf) -> ServerConfig {
    ServerConfig {
        workers: 2,
        threads: 1,
        shards: SHARDS,
        store_root: Some(root),
        ..ServerConfig::default()
    }
}

fn publish_target(fp: &str) -> String {
    format!("/datasets/{fp}/publish?algo={MECHANISM}&l={L}")
}

/// The dataset id a registration reply names.
fn dataset_id(reply: &Reply) -> Result<String, String> {
    if reply.status != 200 {
        return Err(format!(
            "register: status {} ({})",
            reply.status,
            reply.text()
        ));
    }
    match Json::parse(&reply.text())
        .as_ref()
        .and_then(|j| j.get("dataset"))
    {
        Some(Json::Str(fp)) => Ok(fp.clone()),
        _ => Err("register: reply names no dataset".into()),
    }
}

fn fingerprint(id: &str) -> Result<u64, String> {
    ldiversity::store::parse_fingerprint(id).ok_or_else(|| format!("bad dataset id {id}"))
}

/// Replies of one block, for the checks after it.
struct BlockReplies {
    id: String,
    setup_publish: Reply,
    appends: Vec<Reply>,
    publishes: Vec<Reply>,
}

pub fn run(settings: Settings, out: &mut Outcome) -> Result<Option<Measured>, String> {
    let work = WorkDir::new()?;
    if settings.trace {
        return traced(&work, settings, out).map(|()| None);
    }
    let mut measured = Measured::default();
    let server = Server::bind(
        "127.0.0.1:0",
        standard_registry(),
        config(work.join("server")),
    )
    .map_err(|e| format!("starting the server: {e}"))?;
    let addr = server.addr();
    let blocks = blocks(settings.seconds);
    let mut answered = Vec::with_capacity(blocks);
    for index in 0..blocks as u64 {
        let block = Block::new(settings.seed, index);
        let start = Instant::now();
        let registered = request(addr, "POST", "/datasets", &block.base.csv)
            .map_err(|e| format!("register: {e}"))?;
        let id = dataset_id(&registered)?;
        let setup_publish = request(addr, "POST", &publish_target(&id), b"")
            .map_err(|e| format!("first publish: {e}"))?;
        measured.setup_s.push(start.elapsed().as_secs_f64());

        let mut replies = BlockReplies {
            id: id.clone(),
            setup_publish,
            appends: Vec::new(),
            publishes: Vec::new(),
        };
        measured.req_tail.next_round();
        measured.publish_tail.next_round();
        let start = Instant::now();
        for (round, batch) in block.batches.iter().enumerate() {
            out.attempted += 2;
            let append = request(addr, "POST", &format!("/datasets/{id}/append"), batch);
            let publish = request(addr, "POST", &publish_target(&id), b"");
            for reply in [&append, &publish] {
                if !matches!(reply, Ok(r) if r.status == 200) {
                    out.failed += 1;
                }
            }
            if let (Ok(append), Ok(publish)) = (append, publish) {
                measured.ops += 2;
                measured.rows += block.rows_after(round + 1) as f64;
                measured.append.push(append.ms);
                measured.publish.push(publish.ms);
                if BATCHES[round] >= LARGE {
                    measured.miss.push(publish.ms);
                } else {
                    measured.hit.push(publish.ms);
                    measured.req_tail.push(append.ms);
                    measured.publish_tail.push(publish.ms);
                }
                replies.appends.push(append);
                replies.publishes.push(publish);
            }
        }
        measured.wall_ms += ms_since(start);
        answered.push(replies);
    }
    server.shutdown();
    // The checks write stores of their own; run after the timed blocks,
    // their disk traffic cannot delay a timed request.
    for (index, replies) in (0u64..).zip(&answered) {
        let block = Block::new(settings.seed, index);
        check_block(&block, replies, index, &work, &mut measured, out)?;
    }
    eprintln!("store-stream: {blocks} blocks of {} rounds", BATCHES.len());
    Ok(Some(measured))
}

/// The checks of one block, outside the timed window: a lockstep replay
/// into a store of the benchmark's own checks every publication and
/// every reply; the final table must be exactly the benchmark's copy of
/// the rows; and, on the first block, a cold replay of the whole segment
/// history into a fresh store must publish the same bytes. Both stores
/// are deleted afterwards.
fn check_block(
    block: &Block,
    replies: &BlockReplies,
    index: u64,
    work: &WorkDir,
    measured: &mut Measured,
    out: &mut Outcome,
) -> Result<(), String> {
    if replies.publishes.len() != BATCHES.len() {
        // A failed request leaves the segment history unknown; its
        // failure is counted, and the block cannot be replayed.
        eprintln!("block {index}: a request failed, the block is not replayed");
        return Ok(());
    }
    let dir = work.join("check");
    let store = DatasetStore::open(&dir).map_err(|e| e.to_string())?;
    let checked = replay_block(block, replies, &store, index, work, measured, out);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(work.join("cold"));
    checked
}

fn replay_block(
    block: &Block,
    replies: &BlockReplies,
    store: &DatasetStore,
    index: u64,
    work: &WorkDir,
    measured: &mut Measured,
    out: &mut Outcome,
) -> Result<(), String> {
    let registry = standard_registry();
    let tp = registry.get(MECHANISM).expect("registered");
    let p = params(L, SHARDS);
    let fp = fingerprint(&replies.id)?;
    let registered = store
        .register(&block.base.csv, &exec())
        .map_err(|e| format!("check register: {e}"))?;
    if registered.fingerprint != fp {
        out.wrong(format!(
            "block {index}: the server names the dataset {}",
            replies.id
        ));
        return Ok(());
    }
    let replay = Replay {
        block,
        store,
        tp,
        fp,
        index,
    };
    replay.publish(
        &replies.setup_publish,
        "first publish",
        BASE_ROWS,
        measured,
        out,
    )?;
    let mut last = None;
    for (round, (append, publish)) in replies.appends.iter().zip(&replies.publishes).enumerate() {
        let total = int_field(
            &served_json(false, &append.body).unwrap_or(Json::Null),
            "total_rows",
        );
        if total != Some(block.rows_after(round + 1) as i64) {
            out.wrong(format!(
                "block {index} append {round}: reply counts {total:?} rows"
            ));
        }
        store
            .append(fp, &block.batches[round], &exec())
            .map_err(|e| format!("check append: {e}"))?;
        let what = format!("publish {round}");
        last = Some(replay.publish(publish, &what, block.rows_after(round + 1), measured, out)?);
    }
    let (table, _) = store.load_table(fp, &exec()).map_err(|e| e.to_string())?;
    if let Err(e) = same_rows(&table, &block.rows) {
        out.wrong(format!("block {index} final table: {e}"));
    }
    let final_reply = &replies.publishes[BATCHES.len() - 1].body;
    if let Some(warm) = last {
        if warm.render().as_bytes() != &final_reply[..] {
            out.wrong(format!(
                "block {index}: the served final publication differs from the replay"
            ));
        }
    }
    if index == 0 {
        let cold = DatasetStore::open(work.join("cold")).map_err(|e| e.to_string())?;
        cold.register(&block.base.csv, &exec())
            .map_err(|e| e.to_string())?;
        for batch in &block.batches {
            cold.append(fp, batch, &exec()).map_err(|e| e.to_string())?;
        }
        let outcome = cold.publish(fp, tp, &p).map_err(|e| e.to_string())?;
        if outcome.stats.reused != 0 {
            out.wrong("the cold replay reused a shard record".into());
        }
        let kl = kl_divergence_with(&outcome.table, &outcome.publication, &exec());
        let bytes = publication_json(&outcome.table, &outcome.publication, &p, kl).render();
        if bytes.as_bytes() != &final_reply[..] {
            out.wrong(format!(
                "block {index}: the cold replay publishes different bytes"
            ));
        }
    }
    Ok(())
}

/// The lockstep replay of one block into the benchmark's own store.
struct Replay<'a> {
    block: &'a Block,
    store: &'a DatasetStore,
    tp: &'a dyn Mechanism,
    fp: u64,
    index: u64,
}

impl Replay<'_> {
    /// Publishes the replayed dataset, checks the publication and the
    /// served reply against it, and returns the library's summary.
    fn publish(
        &self,
        reply: &Reply,
        what: &str,
        rows: usize,
        measured: &mut Measured,
        out: &mut Outcome,
    ) -> Result<Json, String> {
        let p = params(L, SHARDS);
        let what = format!("block {} {what}", self.index);
        let outcome = self
            .store
            .publish(self.fp, self.tp, &p)
            .map_err(|e| format!("check publish: {e}"))?;
        let kl = kl_divergence_with(&outcome.table, &outcome.publication, &exec());
        let summary = publication_json(&outcome.table, &outcome.publication, &p, kl);
        let checked = verify(&self.block.source(rows), &outcome.publication, kl, L, &what)
            .and_then(|v| {
                let served = served_json(false, &reply.body).map_err(|e| format!("{what}: {e}"))?;
                same_summary(&served, &summary).map_err(|e| format!("{what}: {e}"))?;
                Ok(v)
            });
        match checked {
            Ok(v) if self.index == 0 && rows > BASE_ROWS => {
                measured.kl.push(v.kl);
                measured.stars += v.stars;
            }
            Ok(_) => {}
            Err(e) => out.wrong(e),
        }
        Ok(summary)
    }
}

/// Compares a loaded table, label by label, with the benchmark's rows.
fn same_rows(table: &Table, rows: &[(Vec<u16>, u16)]) -> Result<(), String> {
    if table.len() != rows.len() {
        return Err(format!("{} rows, expected {}", table.len(), rows.len()));
    }
    let schema = table.schema();
    for (r, (qi, sa)) in rows.iter().enumerate() {
        let id = r as u32;
        let same = qi
            .iter()
            .enumerate()
            .all(|(a, v)| schema.qi_attribute(a).label(table.qi_value(id, a)) == v.to_string())
            && schema.sensitive().label(table.sa_value(id)) == sa.to_string();
        if !same {
            return Err(format!("row {r} differs from the rows sent"));
        }
    }
    Ok(())
}

/// The store counters of `/stats`.
struct StoreCounters {
    computed: i64,
    reused: i64,
    hits: i64,
    misses: i64,
    evictions: i64,
    coalesced: i64,
    runs: i64,
}

fn store_counters(front: &TimedFront) -> Result<StoreCounters, String> {
    let (reply, _) = front
        .request("GET", "/stats", b"")
        .map_err(|e| format!("GET /stats: {e}"))?;
    let stats = Json::parse(&reply.text()).ok_or("GET /stats: unexpected body")?;
    let read = || -> Option<StoreCounters> {
        let store = stats.get("store")?;
        let cache = stats.get("cache")?;
        Some(StoreCounters {
            computed: int_field(store, "shards_computed")?,
            reused: int_field(store, "shards_reused")?,
            hits: int_field(cache, "hits")?,
            misses: int_field(cache, "misses")?,
            evictions: int_field(cache, "evictions")?,
            coalesced: int_field(&stats, "coalesced")?,
            runs: int_field(&stats, "anonymize_runs")?,
        })
    };
    read().ok_or_else(|| "GET /stats: missing counters".to_string())
}

/// Total size of the files under `dir`.
fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Shard publications the replay computed, by shard sub-table
/// fingerprint, as the store's records are keyed.
type ShardMemo = HashMap<u64, Publication>;

/// Replays the split, the dirty shards' runs and the repair of one
/// publish of `table`, charging each to its layer. Returns the time.
fn replay_shards(
    trace: &mut Trace,
    tp: &dyn Mechanism,
    table: &Table,
    memo: &mut ShardMemo,
) -> Result<f64, String> {
    let p = params(L, SHARDS);
    let (plan, split_ms) = timed(|| stable_shard_plan(table, SHARDS));
    trace.add("shard.split_ms", split_ms);
    let mut spent = split_ms;
    let mut shards = Vec::with_capacity(plan.len());
    for rows in &plan {
        let sub = table.select_rows(rows);
        let key = sub.fingerprint();
        let local = match memo.get(&key) {
            Some(p) => p.clone(),
            None => {
                let sp = shard_params(&p, &sub, 1);
                let (run, ms) = timed(|| tp.anonymize(&sub, &sp));
                let run = run.map_err(|e| format!("replayed shard run: {e}"))?;
                trace.add("core.tp_ms", ms);
                spent += ms;
                if let Ok(stats) = tuple_minimize(&sub, sp.l).map(|o| o.stats) {
                    if stats.termination_phase == Phase::Three {
                        trace.add("core.phase3_runs", 1.0);
                    }
                }
                memo.insert(key, run.clone());
                run
            }
        };
        shards.push(remap_to_global(local, rows));
    }
    let (merged, repair_ms) = timed(|| tp.repair_merge(table, &p, shards));
    merged.map_err(|e| format!("replayed repair: {e}"))?;
    trace.add("shard.repair_merge_ms", repair_ms);
    Ok(spent + repair_ms)
}

/// The traced replay: blocks go through a front end that times
/// `handle_request`, while a shadow store fed the same history replays
/// the store, shard, mechanism, metrics and wire calls of each request
/// outside the wall time. Untraced and traced blocks alternate, as many
/// of each as half the timed run's blocks.
fn traced(work: &WorkDir, settings: Settings, out: &mut Outcome) -> Result<(), String> {
    let state = std::sync::Arc::new(AppState::new(
        standard_registry(),
        config(work.join("server")),
    ));
    let front =
        TimedFront::start(std::sync::Arc::clone(&state)).map_err(|e| format!("front end: {e}"))?;
    let shadow = DatasetStore::open(work.join("shadow")).map_err(|e| e.to_string())?;
    let registry = standard_registry();
    let tp = registry.get(MECHANISM).expect("registered");
    let p = params(L, SHARDS);
    let mut trace = Trace::default();
    let mut memo = ShardMemo::new();
    let mut posted = 0u64;
    let (mut reused, mut computed) = (0i64, 0i64);
    let mut index = 0u64;
    for _ in 0..blocks(settings.seconds).div_ceil(2) {
        for traced_block in [false, true] {
            let block = Block::new(settings.seed, index);
            index += 1;
            let (reply, _) = front
                .request("POST", "/datasets", &block.base.csv)
                .map_err(|e| format!("register: {e}"))?;
            let id = dataset_id(&reply)?;
            let fp = fingerprint(&id)?;
            front
                .request("POST", &publish_target(&id), b"")
                .map_err(|e| format!("first publish: {e}"))?;
            posted += block.base.csv.len() as u64;
            if !traced_block {
                let start = Instant::now();
                for batch in &block.batches {
                    black_box(
                        front
                            .request("POST", &format!("/datasets/{id}/append"), batch)
                            .ok(),
                    );
                    black_box(front.request("POST", &publish_target(&id), b"").ok());
                    posted += batch.len() as u64;
                }
                trace.untraced_ms += ms_since(start);
                trace.untraced_rounds += 1;
                continue;
            }
            shadow
                .register(&block.base.csv, &exec())
                .map_err(|e| e.to_string())?;
            shadow.publish(fp, tp, &p).map_err(|e| e.to_string())?;
            let (table, _) = shadow.load_table(fp, &exec()).map_err(|e| e.to_string())?;
            replay_shards(&mut Trace::default(), tp, &table, &mut memo)?;
            let before = store_counters(&front)?;
            let start = Instant::now();
            let probes_before = trace.probe_ms;
            for (round, batch) in block.batches.iter().enumerate() {
                out.attempted += 2;
                posted += batch.len() as u64;
                let (append, handle_ms) = front
                    .request("POST", &format!("/datasets/{id}/append"), batch)
                    .map_err(|e| format!("append: {e}"))?;
                trace.add("server.http_ms", append.ms - handle_ms);
                trace.add("wire.json_bytes", append.body.len() as f64);
                if append.status != 200 {
                    out.failed += 2;
                    continue;
                }
                let probing = Instant::now();
                let (appended, append_ms) = timed(|| shadow.append(fp, batch, &exec()));
                appended.map_err(|e| format!("shadow append: {e}"))?;
                trace.add("store.append_ms", append_ms);
                trace.add("server.handle_ms", handle_ms - append_ms);
                trace.probe_ms += ms_since(probing);

                let (publish, handle_ms) = front
                    .request("POST", &publish_target(&id), b"")
                    .map_err(|e| format!("publish: {e}"))?;
                trace.add("server.http_ms", publish.ms - handle_ms);
                trace.add("wire.json_bytes", publish.body.len() as f64);
                if publish.status != 200 {
                    out.failed += 1;
                    continue;
                }
                let probing = Instant::now();
                let (outcome, publish_ms) = timed(|| shadow.publish(fp, tp, &p));
                let outcome = outcome.map_err(|e| format!("shadow publish: {e}"))?;
                trace.add("store.segments", outcome.stats.segments as f64);
                let (_, load_ms) = timed(|| black_box(shadow.load_table(fp, &exec()).is_ok()));
                trace.add("store.load_ms", load_ms);
                let inner = replay_shards(&mut trace, tp, &outcome.table, &mut memo)?;
                trace.add("store.publish_ms", publish_ms - load_ms - inner);
                let (spent, summary) =
                    replay_publication(&mut trace, &outcome.table, &outcome.publication, &p, false);
                trace.add("server.handle_ms", handle_ms - publish_ms - spent);

                let (_, validate_ms) =
                    timed(|| black_box(outcome.publication.validate(&outcome.table, L).is_ok()));
                trace.add("api.validate_ms", validate_ms);
                let src = block.source(block.rows_after(round + 1));
                trace.add("metrics.support_points", src.support_points() as f64);
                let what = format!("traced block {index} publish {round}");
                let kl = match summary.get("kl_divergence") {
                    Some(Json::Float(v)) => *v,
                    _ => f64::NAN,
                };
                let checked = verify(&src, &outcome.publication, kl, L, &what).and_then(|_| {
                    let served = served_json(false, &publish.body)?;
                    same_summary(&served, &summary)
                });
                if let Err(e) = checked {
                    out.wrong(format!("{what}: {e}"));
                }
                trace.probe_ms += ms_since(probing);
            }
            trace.traced_ms += ms_since(start) - (trace.probe_ms - probes_before);
            let after = store_counters(&front)?;
            reused += after.reused - before.reused;
            computed += after.computed - before.computed;
            trace.add("server.cache_hits", (after.hits - before.hits) as f64);
            trace.add("server.cache_misses", (after.misses - before.misses) as f64);
            trace.add(
                "server.evictions",
                (after.evictions - before.evictions) as f64,
            );
            trace.add(
                "server.coalesced",
                (after.coalesced - before.coalesced) as f64,
            );
            trace.add("server.anonymize_runs", (after.runs - before.runs) as f64);
            trace.rounds += 1;
        }
    }
    trace.add("store.shards_computed", computed as f64);
    trace.add("store.shards_reused", reused as f64);
    trace.set(
        "store.reuse_ratio",
        reused as f64 / (reused + computed).max(1) as f64,
    );
    trace.set(
        "store.bytes_per_input_byte",
        disk_bytes(&work.join("server")) as f64 / posted.max(1) as f64,
    );
    drop(front);
    drop(state);
    trace.report(out);
    Ok(())
}

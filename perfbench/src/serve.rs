//! `serve-mix`: closed-loop `POST /anonymize` from one connection against
//! a two-worker server.
//!
//! Set-up starts the server and primes eight hot keys (four 8k-row
//! datasets, two mechanisms each). Every round then sends 41 requests in
//! a seeded order: each hot key four times (cache hits) and nine fresh
//! datasets of 2k to 20k rows (misses), five of them 8k-row TP requests
//! whose times give the miss tail. A fixed share asks for
//! `?format=bin`. Every hit must be served from the cache and every miss
//! computed.
//!
//! One connection, not two: with two closed-loop connections both cores
//! of a 2-core host stay busy, and as the host's own load came and went
//! the miss median and the tails moved by half between runs of the same
//! inputs, far beyond any usable bound.

use crate::batch::probe;
use crate::check::Source;
use crate::http::{request, Reply, TimedFront};
use crate::inputs::{census, table_seed, Census, Input, Rng};
use crate::publish::{exec, int_field, is_boxes, params, same_summary, served_json, verify};
use crate::stats::{ms_since, rounds_for, timed, Outcome, TAIL_SAMPLES};
use crate::trace::{mechanism_layer, Trace};
use crate::{Measured, Settings};
use ldiversity::metrics::{kl_divergence_with, PublicationSummary};
use ldiversity::microdata::{read_csv_with, Table};
use ldiversity::server::wire::publication_json;
use ldiversity::server::{AppState, Server, ServerConfig};
use ldiversity::wire::{encode, Json};
use ldiversity::{standard_registry, Publication};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const D: usize = 7;
const HOT_ROWS: usize = 8_000;
const HOT_DATASETS: [Census; 4] = [Census::Sal, Census::Occ, Census::Sal, Census::Occ];
/// Hot keys: dataset, mechanism, l.
const HOT_KEYS: [(usize, &str, u32); 8] = [
    (0, "tp", 4),
    (0, "mondrian", 4),
    (1, "tp+", 4),
    (1, "anatomy", 6),
    (2, "hilbert", 4),
    (2, "tds", 4),
    (3, "tp", 6),
    (3, "anatomy", 4),
];
const HOT_REPEATS: usize = 4;
/// Hits per round that ask for the binary format.
const BIN_HITS: usize = 8;
/// Fresh datasets per round: rows, table, mechanism, l, binary.
const MISSES: [(usize, Census, &str, u32, bool); 9] = [
    (2_000, Census::Sal, "mondrian", 4, false),
    (5_000, Census::Occ, "tds", 4, false),
    (8_000, Census::Sal, "tp", 4, false),
    (12_000, Census::Occ, "anatomy", 4, true),
    (20_000, Census::Sal, "tp+", 4, false),
    (8_000, Census::Sal, "tp", 4, false),
    (8_000, Census::Sal, "tp", 4, false),
    (8_000, Census::Sal, "tp", 4, false),
    (8_000, Census::Sal, "tp", 4, false),
];
/// The miss shape the miss tail is read over.
const TAIL_MISS: (usize, Census, &str, u32, bool) = (8_000, Census::Sal, "tp", 4, false);
const WORKERS: usize = 2;
const SETUPS: usize = 7;
/// Timed seconds of one round on the reference host.
const ROUND_S: f64 = 1.0;

/// Rounds of a run: enough to fill `seconds`, and enough misses of the
/// tail shape for a tail.
fn rounds(seconds: f64) -> usize {
    let tails = MISSES.iter().filter(|&&m| m == TAIL_MISS).count();
    rounds_for(seconds, ROUND_S, TAIL_SAMPLES.div_ceil(tails))
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        threads: 1,
        shards: 1,
        ..ServerConfig::default()
    }
}

fn target(mechanism: &str, l: u32, binary: bool) -> String {
    let algo = mechanism.replace('+', "%2B");
    let format = if binary { "&format=bin" } else { "" };
    format!("/anonymize?algo={algo}&l={l}{format}")
}

/// A dataset the workload sends, with the checker's copy of its rows
/// (QI domains as the server infers them from the CSV).
struct Dataset {
    input: Input,
    observed: Source,
}

impl Dataset {
    fn new(input: Input) -> Dataset {
        let observed = input.source.clone().with_observed_domains();
        Dataset { input, observed }
    }
}

/// The library's publication of one request, as the server would
/// compute it from the request body.
struct Reference {
    publication: Publication,
    kl: f64,
    summary: Json,
}

fn reference(data: &Dataset, mechanism: &str, l: u32) -> Result<Reference, String> {
    let registry = standard_registry();
    let table = read_csv_with(&data.input.csv[..], None, &exec()).map_err(|e| e.to_string())?;
    let p = params(l, 1);
    let publication = registry
        .get(mechanism)
        .expect("registered")
        .anonymize(&table, &p)
        .map_err(|e| format!("{mechanism} l={l}: {e}"))?;
    let kl = kl_divergence_with(&table, &publication, &exec());
    let summary = publication_json(&table, &publication, &p, kl);
    Ok(Reference {
        publication,
        kl,
        summary,
    })
}

/// One request of a round.
#[derive(Clone, Copy)]
enum Ask {
    Hot(usize),
    Fresh(usize),
}

#[derive(Clone, Copy)]
struct Req {
    ask: Ask,
    binary: bool,
}

fn round_plan(seed: u64, round: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed, 100 + round);
    let mut hits: Vec<usize> = (0..HOT_KEYS.len())
        .flat_map(|k| std::iter::repeat_n(k, HOT_REPEATS))
        .collect();
    rng.shuffle(&mut hits);
    let mut plan: Vec<Req> = hits
        .into_iter()
        .enumerate()
        .map(|(i, k)| Req {
            ask: Ask::Hot(k),
            binary: i < BIN_HITS,
        })
        .collect();
    for (i, miss) in MISSES.iter().enumerate() {
        let at = rng.below(plan.len() + 1);
        plan.insert(
            at,
            Req {
                ask: Ask::Fresh(i),
                binary: miss.4,
            },
        );
    }
    plan
}

fn fresh_datasets(seed: u64, round: u64) -> Vec<Dataset> {
    MISSES
        .iter()
        .enumerate()
        .map(|(i, &(rows, kind, _, _, _))| {
            Dataset::new(census(
                kind,
                rows,
                D,
                table_seed(seed, 3, round * MISSES.len() as u64 + i as u64),
            ))
        })
        .collect()
}

fn key_of(req: Req) -> (&'static str, u32) {
    match req.ask {
        Ask::Hot(k) => (HOT_KEYS[k].1, HOT_KEYS[k].2),
        Ask::Fresh(i) => (MISSES[i].2, MISSES[i].3),
    }
}

fn dataset_of<'a>(req: Req, hot: &'a [Dataset], fresh: &'a [Dataset]) -> &'a Dataset {
    match req.ask {
        Ask::Hot(k) => &hot[HOT_KEYS[k].0],
        Ask::Fresh(i) => &fresh[i],
    }
}

/// The hot datasets and their checked references.
fn hot_inputs(
    seed: u64,
    out: &mut Outcome,
    measured: &mut Measured,
) -> Result<(Vec<Dataset>, Vec<Reference>), String> {
    let hot: Vec<Dataset> = HOT_DATASETS
        .iter()
        .enumerate()
        .map(|(i, &kind)| Dataset::new(census(kind, HOT_ROWS, D, table_seed(seed, 2, i as u64))))
        .collect();
    let mut refs = Vec::new();
    for &(dataset, mechanism, l) in &HOT_KEYS {
        let r = reference(&hot[dataset], mechanism, l)?;
        let what = format!("hot key {mechanism} l={l} dataset {dataset}");
        match verify(&hot[dataset].observed, &r.publication, r.kl, l, &what) {
            Ok(v) => {
                measured.kl.push(v.kl);
                measured.stars += v.stars;
            }
            Err(e) => out.wrong(e),
        }
        refs.push(r);
    }
    Ok((hot, refs))
}

/// Checks one reply against the library's summary of the same request,
/// and that it was served from the cache exactly when `cached`.
fn check_reply(reply: &Reply, reference: &Json, cached: bool, what: &str) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "{what}: status {} ({})",
            reply.status,
            reply.text()
        ));
    }
    let served = served_json(reply.binary, &reply.body).map_err(|e| format!("{what}: {e}"))?;
    same_summary(&served, reference).map_err(|e| format!("{what}: {e}"))?;
    match served.get("cached") {
        Some(Json::Bool(flag)) if *flag == cached => Ok(()),
        flag => Err(format!(
            "{what}: cached is {}, expected {cached}",
            flag.map(Json::render).unwrap_or_default()
        )),
    }
}

/// The `/stats` counters the ledger check reads.
struct Counters {
    requests: i64,
    runs: i64,
    coalesced: i64,
    hits: i64,
    misses: i64,
    evictions: i64,
}

fn counters(stats: &Json) -> Option<Counters> {
    let cache = stats.get("cache")?;
    Some(Counters {
        requests: int_field(stats, "requests")?,
        runs: int_field(stats, "anonymize_runs")?,
        coalesced: int_field(stats, "coalesced")?,
        hits: int_field(cache, "hits")?,
        misses: int_field(cache, "misses")?,
        evictions: int_field(cache, "evictions")?,
    })
}

fn stats_over(addr: SocketAddr) -> Result<Counters, String> {
    let reply = request(addr, "GET", "/stats", b"").map_err(|e| format!("GET /stats: {e}"))?;
    stats_of(&reply)
}

fn front_stats(front: &TimedFront) -> Result<Counters, String> {
    let (reply, _) = front
        .request("GET", "/stats", b"")
        .map_err(|e| format!("GET /stats: {e}"))?;
    stats_of(&reply)
}

fn stats_of(reply: &Reply) -> Result<Counters, String> {
    Json::parse(&reply.text())
        .as_ref()
        .and_then(counters)
        .ok_or_else(|| "GET /stats: unexpected body".to_string())
}

pub fn run(settings: Settings, out: &mut Outcome) -> Result<Option<Measured>, String> {
    let mut measured = Measured::default();
    let (hot, refs) = hot_inputs(settings.seed, out, &mut measured)?;
    if settings.trace {
        return traced(&hot, &refs, settings, out).map(|()| None);
    }

    let mut server = None;
    let mut primed = Vec::new();
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            Server::shutdown(old);
        }
        let start = Instant::now();
        let s = Server::bind("127.0.0.1:0", standard_registry(), config())
            .map_err(|e| format!("starting the server: {e}"))?;
        primed.clear();
        for &(dataset, mechanism, l) in &HOT_KEYS {
            primed.push(request(
                s.addr(),
                "POST",
                &target(mechanism, l, false),
                &hot[dataset].input.csv,
            ));
        }
        measured.setup_s.push(start.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("set up at least once");
    let addr = server.addr();
    let mut sent = 0i64;
    for (reply, r) in primed.iter().zip(&refs) {
        sent += 1;
        match reply {
            Ok(reply) => {
                if let Err(e) = check_reply(reply, &r.summary, false, "priming") {
                    out.wrong(e);
                }
            }
            Err(e) => out.wrong(format!("priming request failed: {e}")),
        }
    }

    let rounds = rounds(settings.seconds);
    for round in 0..rounds as u64 {
        measured.req_tail.next_round();
        measured.publish_tail.next_round();
        let fresh = fresh_datasets(settings.seed, round);
        let plan = round_plan(settings.seed, round);
        let start = Instant::now();
        let replies: Vec<std::io::Result<Reply>> = plan
            .iter()
            .map(|&req| {
                let (mechanism, l) = key_of(req);
                let body = &dataset_of(req, &hot, &fresh).input.csv;
                request(addr, "POST", &target(mechanism, l, req.binary), body)
            })
            .collect();
        measured.wall_ms += ms_since(start);

        let mut fresh_refs: Vec<Option<Reference>> = Vec::new();
        for (i, (data, &(_, _, mechanism, l, _))) in fresh.iter().zip(&MISSES).enumerate() {
            match reference(data, mechanism, l) {
                Ok(r) => {
                    let what = format!("round {round} fresh {i} {mechanism} l={l}");
                    match verify(&data.observed, &r.publication, r.kl, l, &what) {
                        Ok(v) if round == 0 => {
                            measured.kl.push(v.kl);
                            measured.stars += v.stars;
                        }
                        Ok(_) => {}
                        Err(e) => out.wrong(e),
                    }
                    fresh_refs.push(Some(r));
                }
                Err(e) => {
                    out.wrong(format!("library reference failed: {e}"));
                    fresh_refs.push(None);
                }
            }
        }
        for (i, (reply, &req)) in replies.into_iter().zip(&plan).enumerate() {
            out.attempted += 1;
            sent += 1;
            let reply = match reply {
                Ok(r) if r.status == 200 => r,
                Ok(r) => {
                    out.failed += 1;
                    eprintln!("request failed: status {} {}", r.status, r.text());
                    continue;
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("request failed: {e}");
                    continue;
                }
            };
            let reference = match req.ask {
                Ask::Hot(k) => Some(&refs[k]),
                Ask::Fresh(f) => fresh_refs[f].as_ref(),
            };
            let Some(reference) = reference else { continue };
            let what = format!("round {round} request {i}");
            let hot_key = matches!(req.ask, Ask::Hot(_));
            if let Err(e) = check_reply(&reply, &reference.summary, hot_key, &what) {
                out.wrong(e);
            }
            match req.ask {
                Ask::Hot(_) => {
                    measured.hit.push(reply.ms);
                    if !req.binary {
                        measured.req_tail.push(reply.ms);
                    }
                }
                Ask::Fresh(f) => {
                    measured.miss.push(reply.ms);
                    if MISSES[f] == TAIL_MISS {
                        measured.publish_tail.push(reply.ms);
                    }
                }
            }
            measured.ops += 1;
            measured.rows += dataset_of(req, &hot, &fresh).input.table.len() as f64;
        }
    }

    let stats = stats_over(addr)?;
    if stats.hits + stats.coalesced + stats.runs != sent {
        out.wrong(format!(
            "/stats ledger: hits {} + coalesced {} + runs {} != {sent} requests",
            stats.hits, stats.coalesced, stats.runs
        ));
    }
    if stats.requests != sent + 1 {
        out.wrong(format!(
            "/stats counts {} requests, {} were sent",
            stats.requests,
            sent + 1
        ));
    }
    server.shutdown();
    measured.append = measured.hit.clone();
    measured.publish = measured.miss.clone();
    eprintln!(
        "serve-mix: {rounds} rounds, {} hits, {} misses",
        measured.hit.len(),
        measured.miss.len()
    );
    Ok(Some(measured))
}

/// The traced replay: untraced and traced rounds alternate, as many of
/// each as half the timed run's rounds. One connection, sequential,
/// through a front end
/// that times `handle_request`. Each request's client latency splits
/// into `server.http_ms` (latency minus handle time), the layers the
/// handler calls (replayed on the same input, outside the wall time)
/// and `server.handle_ms` (the handler's self time).
fn traced(
    hot: &[Dataset],
    refs: &[Reference],
    settings: Settings,
    out: &mut Outcome,
) -> Result<(), String> {
    let state = Arc::new(AppState::new(standard_registry(), config()));
    let front = TimedFront::start(Arc::clone(&state)).map_err(|e| format!("front end: {e}"))?;
    for &(dataset, mechanism, l) in &HOT_KEYS {
        front
            .request(
                "POST",
                &target(mechanism, l, false),
                &hot[dataset].input.csv,
            )
            .map_err(|e| format!("priming: {e}"))?;
    }
    let registry = standard_registry();
    let mut trace = Trace::default();
    // Cache lines whose binary block the server has encoded already.
    let mut encoded = vec![false; HOT_KEYS.len()];
    let mut round = 0u64;
    for _ in 0..rounds(settings.seconds).div_ceil(2) {
        // An untraced round, for the tracing overhead.
        let fresh = fresh_datasets(settings.seed, round);
        let start = Instant::now();
        for req in round_plan(settings.seed, round) {
            let (mechanism, l) = key_of(req);
            let body = &dataset_of(req, hot, &fresh).input.csv;
            black_box(
                front
                    .request("POST", &target(mechanism, l, req.binary), body)
                    .ok(),
            );
            if let (Ask::Hot(k), true) = (req.ask, req.binary) {
                encoded[k] = true;
            }
        }
        trace.untraced_ms += ms_since(start);
        trace.untraced_rounds += 1;
        round += 1;

        let fresh = fresh_datasets(settings.seed, round);
        let before = front_stats(&front)?;
        let start = Instant::now();
        let probes_before = trace.probe_ms;
        for req in round_plan(settings.seed, round) {
            out.attempted += 1;
            let (mechanism, l) = key_of(req);
            let data = dataset_of(req, hot, &fresh);
            let (reply, handle_ms) = front
                .request("POST", &target(mechanism, l, req.binary), &data.input.csv)
                .map_err(|e| format!("traced request: {e}"))?;
            if reply.status != 200 {
                out.failed += 1;
                continue;
            }
            let probing = Instant::now();
            trace.add("server.http_ms", reply.ms - handle_ms);
            let bytes = if req.binary {
                "wire.bin_bytes"
            } else {
                "wire.json_bytes"
            };
            trace.add(bytes, reply.body.len() as f64);

            let (table, csv_ms) = timed(|| read_csv_with(&data.input.csv[..], None, &exec()));
            let table = table.map_err(|e| format!("replayed parse: {e}"))?;
            trace.csv_read(data.input.csv.len(), csv_ms);
            let (_, fp_ms) = timed(|| black_box(table.fingerprint()));
            trace.add("microdata.fingerprint_ms", fp_ms);
            let mut inner = csv_ms + fp_ms;
            match req.ask {
                Ask::Hot(k) => {
                    let line = refs[k].summary.clone().field("cached", true);
                    if !req.binary {
                        let (_, ms) = timed(|| black_box(line.render()));
                        trace.add("wire.render_ms", ms);
                        inner += ms;
                    } else if !encoded[k] {
                        let (_, ms) = timed(|| black_box(encode(&line)));
                        trace.add("wire.encode_ms", ms);
                        inner += ms;
                        encoded[k] = true;
                    }
                }
                Ask::Fresh(_) => {
                    let p = params(l, 1);
                    let mech = registry.get(mechanism).expect("registered");
                    let (publication, anonymize_ms) = timed(|| mech.anonymize(&table, &p));
                    let publication =
                        publication.map_err(|e| format!("replayed {mechanism}: {e}"))?;
                    trace.add(mechanism_layer(mechanism), anonymize_ms);
                    let (spent, summary) =
                        replay_publication(&mut trace, &table, &publication, &p, req.binary);
                    inner += anonymize_ms + spent;
                    probe(
                        &mut trace,
                        &table,
                        &data.observed,
                        &publication,
                        mechanism,
                        l,
                    );
                    let what = format!("traced round {round} {mechanism} l={l}");
                    let kl = summary.get("kl_divergence").and_then(|k| match k {
                        Json::Float(v) => Some(*v),
                        Json::Int(v) => Some(*v as f64),
                        _ => None,
                    });
                    let checked = verify(
                        &data.observed,
                        &publication,
                        kl.unwrap_or(f64::NAN),
                        l,
                        &what,
                    )
                    .and_then(|_| check_reply(&reply, &summary, false, &what));
                    if let Err(e) = checked {
                        out.wrong(e);
                    }
                }
            }
            if let Ask::Hot(k) = req.ask {
                if let Err(e) = check_reply(&reply, &refs[k].summary, true, "traced hit") {
                    out.wrong(e);
                }
            }
            trace.add("server.handle_ms", handle_ms - inner);
            trace.probe_ms += ms_since(probing);
        }
        trace.traced_ms += ms_since(start) - (trace.probe_ms - probes_before);
        let after = front_stats(&front)?;
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
        round += 1;
    }
    drop(front);
    trace.report(out);
    Ok(())
}

/// Replays what a handler does with a fresh publication after the
/// mechanism ran: KL, the wire summary (whose summary statistics and
/// table fingerprint are charged to their own layers) and its render,
/// plus the binary encode when asked for. Returns the time spent and
/// the summary.
pub fn replay_publication(
    trace: &mut Trace,
    table: &Table,
    publication: &Publication,
    p: &ldiversity::Params,
    binary: bool,
) -> (f64, Json) {
    let (kl, kl_ms) = timed(|| kl_divergence_with(table, publication, &exec()));
    let kl_layer = if is_boxes(publication) {
        "metrics.kl_boxes_ms"
    } else {
        "metrics.kl_ms"
    };
    trace.add(kl_layer, kl_ms);
    let (text, render_ms) = timed(|| publication_json(table, publication, p, kl).render());
    let summary = Json::parse(&text).expect("a rendered summary parses");
    let (_, summary_ms) =
        timed(|| black_box(PublicationSummary::of_publication(table, publication)));
    let (_, fp_ms) = timed(|| black_box(table.fingerprint()));
    trace.add("metrics.summary_ms", summary_ms);
    trace.add("microdata.fingerprint_ms", fp_ms);
    trace.add("wire.render_ms", render_ms - summary_ms - fp_ms);
    let mut spent = kl_ms + render_ms;
    if binary {
        let (_, encode_ms) = timed(|| black_box(Json::parse(&text).map(|j| encode(&j))));
        trace.add("wire.encode_ms", encode_ms);
        spent += encode_ms;
    }
    (spent, summary)
}

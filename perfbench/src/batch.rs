//! `batch-grid`: library publishing across the paper's §6 grid.
//!
//! Every round draws a fresh SAL and a fresh OCC table of 10k rows,
//! projects each to d = 3..7 QIs and publishes every projection at l = 4
//! and 8 by all six mechanisms; each publication is followed by its
//! Eq. (2) KL-divergence and summary. After every sixth of them comes one
//! more publication of a single fixed cell (TP at l = 4 on the SAL table
//! with d = 7), whose times give the tails: a tail over the grid's unlike
//! cells would only rank the cells. No CSV, HTTP or store runs in the
//! timed operations. The set-up parses the first round's input CSVs;
//! later rounds parse theirs outside the timed window.

use crate::check::Source;
use crate::inputs::{census, source_of, table_seed, Census};
use crate::publish::{exec, is_boxes, params, verify};
use crate::stats::{ms_since, rounds_for, timed, Outcome, TAIL_SAMPLES};
use crate::trace::{mechanism_layer, Trace};
use crate::{Measured, Settings};
use ldiversity::core::{tuple_minimize, Phase};
use ldiversity::metrics::{kl_divergence_with, PublicationSummary};
use ldiversity::microdata::{read_csv_with, Table};
use ldiversity::{standard_registry, MechanismRegistry, Publication};
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 10_000;
const DIMS: [usize; 5] = [3, 4, 5, 6, 7];
const LS: [u32; 2] = [4, 8];
const MECHANISMS: [&str; 6] = ["tp", "tp+", "hilbert", "anatomy", "mondrian", "tds"];
/// Times the set-up is repeated before the first round, and again before
/// each later round on that round's tables; the median of all of them is
/// `setup_s`, so it stands on parses spread over the whole run.
const SETUPS: usize = 9;
const ROUND_SETUPS: usize = 3;
/// A publication of the tail cell follows every this many grid cells.
const TAIL_EVERY: usize = 6;
/// The tail cell: the SAL table with d = 7, TP, l = 4.
const TAIL_CELL: Op = Op {
    table: DIMS.len() - 1,
    mechanism: "tp",
    l: 4,
    tail: true,
};
/// Timed seconds of one round on the reference host.
const ROUND_S: f64 = 3.3;

struct GridTable {
    table: Table,
    source: Source,
}

/// One publication of a round: table index, mechanism, l, and whether
/// it is the tail cell's.
#[derive(Clone, Copy)]
struct Op {
    table: usize,
    mechanism: &'static str,
    l: u32,
    tail: bool,
}

fn plan(tables: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut cells = 0;
    for table in 0..tables {
        for l in LS {
            for mechanism in MECHANISMS {
                ops.push(Op {
                    table,
                    mechanism,
                    l,
                    tail: false,
                });
                cells += 1;
                if cells % TAIL_EVERY == 0 {
                    ops.push(TAIL_CELL);
                }
            }
        }
    }
    ops
}

/// Rounds of a run: enough to fill `seconds`, and enough tail-cell
/// publications for a tail.
fn rounds(seconds: f64, ops: &[Op]) -> usize {
    let tails = ops.iter().filter(|op| op.tail).count();
    rounds_for(seconds, ROUND_S, TAIL_SAMPLES.div_ceil(tails))
}

/// Generates the inputs of one round and parses their CSVs `parses`
/// times, recording each parse of the whole set in `setup_s`.
fn grid(
    seed: u64,
    round: u64,
    parses: usize,
    setup_s: &mut Vec<f64>,
) -> Result<Vec<GridTable>, String> {
    let mut inputs = Vec::new();
    for (k, kind) in [Census::Sal, Census::Occ].into_iter().enumerate() {
        let tseed = table_seed(seed, 1, round * 2 + k as u64);
        for d in DIMS {
            inputs.push(census(kind, ROWS, d, tseed));
        }
    }
    let mut parsed = Vec::new();
    for _ in 0..parses {
        let start = Instant::now();
        parsed = inputs
            .iter()
            .map(|input| read_csv_with(&input.csv[..], Some(input.table.schema().clone()), &exec()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("parsing a grid CSV: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    inputs
        .into_iter()
        .zip(parsed)
        .map(|(input, table)| {
            let copy = source_of(&table);
            if copy.qi != input.source.qi || copy.sa != input.source.sa {
                return Err("a parsed grid CSV differs from the generated rows".to_string());
            }
            Ok(GridTable {
                table,
                source: input.source,
            })
        })
        .collect()
}

/// A published grid operation, kept for the checks after the round.
struct Done {
    op: Op,
    publication: Publication,
    kl: f64,
}

pub fn run(settings: Settings, out: &mut Outcome) -> Result<Option<Measured>, String> {
    let mut measured = Measured::default();
    let mut tables = grid(settings.seed, 0, SETUPS, &mut measured.setup_s)?;
    let registry = standard_registry();
    let ops = plan(tables.len());
    if settings.trace {
        traced(tables, &ops, &registry, settings, out)?;
        return Ok(None);
    }
    let rounds = rounds(settings.seconds, &ops);
    for round in 0..rounds as u64 {
        measured.req_tail.next_round();
        measured.publish_tail.next_round();
        if round > 0 {
            tables = grid(settings.seed, round, ROUND_SETUPS, &mut measured.setup_s)?;
        }
        let mut done = Vec::with_capacity(ops.len());
        let start = Instant::now();
        for &op in &ops {
            out.attempted += 1;
            let table = &tables[op.table].table;
            let mechanism = registry.get(op.mechanism).expect("registered");
            let (published, anonymize_ms) = timed(|| mechanism.anonymize(table, &params(op.l, 1)));
            let Ok(publication) = published else {
                out.failed += 1;
                continue;
            };
            let ((kl, summary), score_ms) = timed(|| {
                let kl = kl_divergence_with(table, &publication, &exec());
                (kl, PublicationSummary::of_publication(table, &publication))
            });
            black_box(summary);
            measured.ops += 1;
            measured.rows += table.len() as f64;
            if op.tail {
                measured.publish_tail.push(anonymize_ms);
                measured.req_tail.push(score_ms);
            } else {
                measured.publish.push(anonymize_ms);
                measured.miss.push(anonymize_ms);
                measured.hit.push(score_ms);
                measured.append.push(score_ms);
            }
            done.push(Done {
                op,
                publication,
                kl,
            });
        }
        measured.wall_ms += ms_since(start);
        for d in &done {
            let src = &tables[d.op.table].source;
            let what = format!(
                "round {round} {} l={} table {}",
                d.op.mechanism, d.op.l, d.op.table
            );
            match verify(src, &d.publication, d.kl, d.op.l, &what) {
                Ok(v) if round == 0 && !d.op.tail => {
                    measured.kl.push(v.kl);
                    measured.stars += v.stars;
                }
                Ok(_) => {}
                Err(e) => out.wrong(e),
            }
        }
    }
    eprintln!("batch-grid: {rounds} rounds of {} publications", ops.len());
    Ok(Some(measured))
}

/// The traced replay: untraced and traced rounds alternate, as many of
/// each as half the timed run's rounds; probes outside the wall time add
/// the phase counts, the support points and the cost of
/// `Publication::validate`.
fn traced(
    mut tables: Vec<GridTable>,
    ops: &[Op],
    registry: &MechanismRegistry,
    settings: Settings,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut trace = Trace::default();
    let mut round = 0;
    for _ in 0..rounds(settings.seconds, ops).div_ceil(2) {
        if round > 0 {
            tables = grid(settings.seed, round, 1, &mut Vec::new())?;
        }
        round += 1;
        let start = Instant::now();
        for &op in ops {
            let table = &tables[op.table].table;
            let mechanism = registry.get(op.mechanism).expect("registered");
            if let Ok(p) = mechanism.anonymize(table, &params(op.l, 1)) {
                black_box(kl_divergence_with(table, &p, &exec()));
                black_box(PublicationSummary::of_publication(table, &p));
            }
        }
        trace.untraced_ms += ms_since(start);
        trace.untraced_rounds += 1;

        if round > 0 {
            tables = grid(settings.seed, round, 1, &mut Vec::new())?;
        }
        round += 1;
        let start = Instant::now();
        let probes_before = trace.probe_ms;
        for &op in ops {
            out.attempted += 1;
            let input = &tables[op.table];
            let table = &input.table;
            let mechanism = registry.get(op.mechanism).expect("registered");
            let (published, anonymize_ms) = timed(|| mechanism.anonymize(table, &params(op.l, 1)));
            trace.add(mechanism_layer(op.mechanism), anonymize_ms);
            let Ok(publication) = published else {
                out.failed += 1;
                continue;
            };
            let (kl, kl_ms) = timed(|| kl_divergence_with(table, &publication, &exec()));
            let kl_layer = if is_boxes(&publication) {
                "metrics.kl_boxes_ms"
            } else {
                "metrics.kl_ms"
            };
            trace.add(kl_layer, kl_ms);
            let (summary, summary_ms) =
                timed(|| PublicationSummary::of_publication(table, &publication));
            black_box(summary);
            trace.add("metrics.summary_ms", summary_ms);

            let probing = Instant::now();
            probe(
                &mut trace,
                table,
                &input.source,
                &publication,
                op.mechanism,
                op.l,
            );
            let what = format!("{} l={} table {}", op.mechanism, op.l, op.table);
            if let Err(e) = verify(&input.source, &publication, kl, op.l, &what) {
                out.wrong(e);
            }
            trace.probe_ms += ms_since(probing);
        }
        trace.traced_ms += ms_since(start) - (trace.probe_ms - probes_before);
        trace.rounds += 1;
    }
    trace.report(out);
    Ok(())
}

/// Work measured beside the replay, outside its wall time: the cost of
/// `Publication::validate`, TP's termination phase and the support size
/// KL iterated over.
pub fn probe(
    trace: &mut Trace,
    table: &Table,
    source: &Source,
    publication: &Publication,
    mechanism: &str,
    l: u32,
) {
    let (valid, validate_ms) = timed(|| publication.validate(table, l));
    black_box(valid.is_ok());
    trace.add("api.validate_ms", validate_ms);
    trace.add("metrics.support_points", source.support_points() as f64);
    if mechanism == "tp" {
        if let Ok(run) = tuple_minimize(table, l) {
            if run.stats.termination_phase == Phase::Three {
                trace.add("core.phase3_runs", 1.0);
            }
        }
    }
}

//! The traced run's accounting: per-layer self times and counts, kept by
//! timers in the benchmark's own code around its calls into each layer.
//!
//! Each timed call is charged to exactly one layer; a call that contains
//! calls into other layers
//! (a whole `handle_request`, a whole `DatasetStore::publish`) is charged
//! only its self time, its duration minus what same-input replays of
//! the inner calls took. Untraced rounds of the same shape alternate
//! with the traced ones; the remainder is the untraced wall time per
//! round minus the layer times per traced round, so the layers plus the
//! remainder add up to the untraced wall time.

use crate::stats::Outcome;
use std::collections::BTreeMap;

/// Layer times that partition the wall time, in milliseconds.
pub const ATTRIBUTED: [&str; 20] = [
    "microdata.csv_read_ms",
    "microdata.fingerprint_ms",
    "core.tp_ms",
    "hilbert.tp_plus_ms",
    "hilbert.hilbert_ms",
    "anatomy.anatomy_ms",
    "multidim.mondrian_ms",
    "tds.tds_ms",
    "metrics.kl_ms",
    "metrics.kl_boxes_ms",
    "metrics.summary_ms",
    "shard.split_ms",
    "shard.repair_merge_ms",
    "store.append_ms",
    "store.load_ms",
    "store.publish_ms",
    "server.handle_ms",
    "server.http_ms",
    "wire.render_ms",
    "wire.encode_ms",
];

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("microdata.csv_read_ms", "ms"),
    ("microdata.csv_mb_per_s", "MB/s"),
    ("microdata.fingerprint_ms", "ms"),
    ("core.tp_ms", "ms"),
    ("core.phase3_runs", "count"),
    ("hilbert.tp_plus_ms", "ms"),
    ("hilbert.hilbert_ms", "ms"),
    ("anatomy.anatomy_ms", "ms"),
    ("multidim.mondrian_ms", "ms"),
    ("tds.tds_ms", "ms"),
    ("metrics.kl_ms", "ms"),
    ("metrics.kl_boxes_ms", "ms"),
    ("metrics.support_points", "count"),
    ("metrics.summary_ms", "ms"),
    ("shard.split_ms", "ms"),
    ("shard.repair_merge_ms", "ms"),
    ("store.append_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.publish_ms", "ms"),
    ("store.shards_computed", "count"),
    ("store.shards_reused", "count"),
    ("store.reuse_ratio", "ratio"),
    ("store.segments", "count"),
    ("store.bytes_per_input_byte", "ratio"),
    ("server.handle_ms", "ms"),
    ("server.http_ms", "ms"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.evictions", "count"),
    ("server.coalesced", "count"),
    ("server.anonymize_runs", "count"),
    ("wire.render_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("wire.json_bytes", "bytes"),
    ("wire.bin_bytes", "bytes"),
    ("api.validate_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.traced_wall_ms", "ms"),
    ("trace.remainder_ms", "ms"),
];

/// Metrics that are ratios of totals rather than totals; they are not
/// divided by the number of rounds.
const RATIOS: [&str; 3] = [
    "microdata.csv_mb_per_s",
    "store.reuse_ratio",
    "store.bytes_per_input_byte",
];

/// Per-layer totals of a traced run.
#[derive(Debug, Default)]
pub struct Trace {
    totals: BTreeMap<&'static str, f64>,
    /// Traced rounds so far.
    pub rounds: u32,
    /// Rounds replayed without timers or probes, and their wall time:
    /// the wall time the layers are attributed against.
    pub untraced_rounds: u32,
    pub untraced_ms: f64,
    /// Wall time of the traced rounds, probes excluded.
    pub traced_ms: f64,
    /// Time spent in probes: replays and checks beside the traced rounds.
    pub probe_ms: f64,
    /// CSV bytes parsed by the `csv_read` probes.
    pub csv_bytes: f64,
}

impl Trace {
    /// Adds to a layer time or a count.
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        *self.totals.entry(name).or_default() += value;
    }

    /// Sets a ratio.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.totals.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Charges a parse of `bytes` CSV bytes that took `ms`.
    pub fn csv_read(&mut self, bytes: usize, ms: f64) {
        self.add("microdata.csv_read_ms", ms);
        self.csv_bytes += bytes as f64;
    }

    /// Sum of the attributed layer times.
    pub fn attributed(&self) -> f64 {
        ATTRIBUTED.iter().map(|n| self.get(n)).sum()
    }

    /// Untraced wall time per round.
    fn wall(&self) -> f64 {
        self.untraced_ms / f64::from(self.untraced_rounds.max(1))
    }

    /// Writes every per-layer metric, per traced round.
    pub fn report(&self, out: &mut Outcome) {
        let rounds = f64::from(self.rounds.max(1));
        let csv_ms = self.get("microdata.csv_read_ms");
        for (name, unit) in PER_LAYER {
            let value = match name {
                "microdata.csv_mb_per_s" if csv_ms > 0.0 => self.csv_bytes / 1e6 / (csv_ms / 1e3),
                "trace.wall_ms" => self.wall(),
                "trace.traced_wall_ms" => self.traced_ms / rounds,
                "trace.remainder_ms" => self.wall() - self.attributed() / rounds,
                _ if RATIOS.contains(&name) => self.get(name),
                _ => self.get(name) / rounds,
            };
            out.metric(name, value, unit);
        }
    }
}

/// The mechanism layer a registry name belongs to.
pub fn mechanism_layer(name: &str) -> &'static str {
    match name {
        "tp" => "core.tp_ms",
        "tp+" => "hilbert.tp_plus_ms",
        "hilbert" => "hilbert.hilbert_ms",
        "anatomy" => "anatomy.anatomy_ms",
        "mondrian" => "multidim.mondrian_ms",
        "tds" => "tds.tds_ms",
        other => panic!("no layer for mechanism {other}"),
    }
}

//! Order statistics, the result line and process measurements.

use std::time::Instant;

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its duration in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The level every round's tail is read at (nearest rank). Levels above
/// p90 moved by up to a factor of two between runs of the same inputs on
/// a 2-core host, with host load coming and going, and could not hold any
/// regression bound.
pub const TAIL_LEVEL: f64 = 90.0;

/// Fewest samples a tail is read from: at [`TAIL_LEVEL`] this leaves at
/// least ten samples beyond it. Every workload's plan guarantees it.
pub const TAIL_SAMPLES: usize = 100;

/// Fewest rounds a tail is read from, so that its median over rounds
/// stands on more than one or two rounds.
pub const TAIL_ROUNDS: usize = 5;

/// Latency samples of one operation type, grouped by the round that took
/// them.
#[derive(Debug, Default)]
pub struct PerRound(Vec<Vec<f64>>);

impl PerRound {
    /// Starts the samples of the next round.
    pub fn next_round(&mut self) {
        self.0.push(Vec::new());
    }

    pub fn push(&mut self, value: f64) {
        if self.0.is_empty() {
            self.next_round();
        }
        self.0.last_mut().expect("a round was started").push(value);
    }

    pub fn count(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

/// The [`TAIL_LEVEL`] percentile (nearest rank) of one sample set.
fn percentile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((TAIL_LEVEL / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.max(1) - 1]
}

/// The tail of a run: each round's [`TAIL_LEVEL`] percentile, and the
/// median of those over the rounds. A busy spell of the host that covers
/// fewer than half the rounds moves it no more than it moves a median,
/// where a percentile over the pooled samples counts every slowed sample.
/// `None` below [`TAIL_SAMPLES`] samples or [`TAIL_ROUNDS`] rounds.
pub fn tail(samples: &PerRound) -> Option<f64> {
    let rounds: Vec<f64> = samples
        .0
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| percentile(r))
        .collect();
    if samples.count() < TAIL_SAMPLES || rounds.len() < TAIL_ROUNDS {
        return None;
    }
    Some(median(&rounds))
}

/// Rounds a run makes: enough to fill `seconds` at `round_s` seconds a
/// round on the reference host, and never fewer than `min_rounds`. The
/// count depends only on the settings, so a slower or faster program
/// does the same operations and every percentile is read at the same
/// rank.
pub fn rounds_for(seconds: f64, round_s: f64, min_rounds: usize) -> usize {
    ((seconds / round_s).round() as usize).max(min_rounds)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The benchmark's result: the last line of standard output.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a failed output check; the run then reports
    /// `"correct": false`.
    pub fn wrong(&mut self, problem: String) {
        self.correct = false;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn rounds_of(rounds: &[Vec<f64>]) -> PerRound {
        let mut samples = PerRound::default();
        for round in rounds {
            samples.next_round();
            for &v in round {
                samples.push(v);
            }
        }
        samples
    }

    #[test]
    fn tail_is_the_median_of_round_p90s() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&rounds_of(&vec![ten.clone(); 9])), None);
        assert_eq!(tail(&rounds_of(&vec![ten.clone(); 10])), Some(9.0));
        assert_eq!(tail(&rounds_of(&[vec![1.0; 100]])), None);
        // Two slowed rounds out of five do not move it.
        let mut rounds = vec![ten.clone(); 3];
        rounds.extend(vec![vec![1000.0; 40]; 2]);
        assert_eq!(tail(&rounds_of(&rounds)), Some(9.0));
        let reversed: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail(&rounds_of(&vec![reversed; 5])), Some(18.0));
    }

    #[test]
    fn rounds_depend_on_the_settings_only() {
        assert_eq!(rounds_for(20.0, 1.0, 5), 20);
        assert_eq!(rounds_for(20.0, 3.0, 5), 7);
        assert_eq!(rounds_for(1.0, 3.0, 5), 5);
    }
}

//! Metrics, repetition statistics and the JSON the harness emits.
//!
//! Every timed quantity is sampled several times per run; a metric's value
//! is the median of its samples, and the result file keeps the sample
//! count and quartiles next to it so the within-run spread stays visible.

use plssvm_core::trace::{json_f64, json_str};

/// The median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples` (which must not be empty). Quartiles use the
    /// "exclusive" interpolation of Python's `statistics.quantiles`, so they
    /// match the spread check applied to the harness's own output.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Self {
                n,
                q1: median,
                median,
                q3: median,
            };
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self {
            n,
            q1: quartile(1),
            median,
            q3: quartile(3),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value (the median when `spread` is present).
    pub value: f64,
    /// Repetition statistics behind `value`, when it is a median.
    pub spread: Option<Summary>,
}

/// One correctness check of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Short stable name.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// The gated metrics of this mode: every end-to-end metric with tracing
    /// off, every per-layer metric with tracing on.
    pub metrics: Vec<Metric>,
    /// Printed and recorded, never gated (tail percentiles, sender
    /// lateness, CG iteration counts of every repetition, ...).
    pub diagnostics: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Operations attempted (training repetitions, or serve requests).
    pub attempted: u64,
    /// Operations that failed a check or got no correct reply.
    pub failed: u64,
}

impl RunReport {
    /// Records a single-valued metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            spread: None,
        });
    }

    /// Records the median of `samples` as a metric, keeping its quartiles.
    pub fn median_metric(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value: s.median,
            spread: Some(s),
        });
    }

    /// Records an ungated diagnostic value.
    pub fn diagnostic(&mut self, name: &str, unit: &'static str, value: f64) {
        self.diagnostics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            spread: None,
        });
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_owned(),
            passed,
            detail: detail.into(),
        });
    }

    /// The value of metric `name`, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// True when every check passed, nothing failed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|c| c.passed)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the gated
    /// metrics with their units.
    pub fn summary_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_f64(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full result document: the summary fields plus quartiles, the
    /// diagnostics, the checks and the host fingerprint (`fingerprint` is a
    /// rendered JSON object).
    pub fn to_json(&self, run: &[(&str, String)], fingerprint: &str) -> String {
        let metric_json = |m: &Metric| {
            let mut s = format!(
                "{{\"name\": {}, \"unit\": {}, \"value\": {}",
                json_str(&m.name),
                json_str(m.unit),
                json_f64(m.value)
            );
            if let Some(sp) = &m.spread {
                s.push_str(&format!(
                    ", \"n\": {}, \"q1\": {}, \"q3\": {}, \"iqr_frac\": {}",
                    sp.n,
                    json_f64(sp.q1),
                    json_f64(sp.q3),
                    json_f64(sp.iqr_frac())
                ));
            }
            s.push('}');
            s
        };
        let list = |ms: &[Metric]| {
            ms.iter()
                .map(|m| format!("    {}", metric_json(m)))
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let checks = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                    json_str(&c.name),
                    c.passed,
                    json_str(&c.detail)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let run = run
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"run\": {{{run}}},\n  \"correct\": {},\n  \"attempted\": {},\n  \
             \"failed\": {},\n  \"metrics\": [\n{}\n  ],\n  \"diagnostics\": [\n{}\n  ],\n  \
             \"checks\": [\n{checks}\n  ],\n  \"fingerprint\": {fingerprint}\n}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            list(&self.metrics),
            list(&self.diagnostics),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let one = Summary::of(&[4.0]);
        assert_eq!((one.q1, one.q3, one.iqr_frac()), (4.0, 4.0, 0.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn summary_line_has_exactly_the_result_keys() {
        let mut r = RunReport {
            attempted: 3,
            ..RunReport::default()
        };
        r.metric("setup_s", "s", 0.5);
        r.median_metric("latency_ms", "ms", &[1.0, 2.0, 3.0]);
        r.check("ok", true, "fine");
        assert!(r.correct());
        assert_eq!(
            r.summary_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_ms\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
        r.check("bad", false, "broken");
        assert!(!r.correct());
    }
}

//! The run's result: correctness tally, metrics and the info line.

use std::collections::BTreeMap;

use crate::calibrate;
use crate::stats::Samples;

/// End-to-end metrics, `(name, unit)`, emitted by every untraced run. Each
/// workload defines its own unit of work (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ingest_events_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("store_bytes", "bytes"),
    ("disk_bytes", "bytes"),
];

/// Per-layer metrics, `(name, unit)`, emitted by every traced run. A layer
/// a workload does not touch reads 0 there (listed under `bypassed` in
/// the info line).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.generate_us", "us"),
    ("ttkv.build_us", "us"),
    ("ttkv.save_us", "us"),
    ("ttkv.load_us", "us"),
    ("ttkv.segment_bytes", "bytes"),
    ("cluster.cluster_events_us", "us"),
    ("cluster.keys", "count"),
    ("cluster.accuracy_pct", "%"),
    ("repair.search_us", "us"),
    ("repair.search_seq_us", "us"),
    ("repair.trials", "count"),
    ("repair.us_per_trial", "us"),
    ("repair.useful_trial_frac", "ratio"),
    ("repair.trials_to_fix_mean", "count"),
    ("repair.screenshots_to_fix_mean", "count"),
    ("fleet.shard.lock_wait_us", "us"),
    ("fleet.shard.batch_apply_us", "us"),
    ("fleet.shard.seal_us", "us"),
    ("fleet.shard.seals", "count"),
    ("fleet.wal.append_us", "us"),
    ("fleet.wal.frames", "count"),
    ("fleet.wal.compact_us", "us"),
    ("fleet.wal.rebase_us", "us"),
    ("fleet.sweep.stall_us", "us"),
    ("fleet.sweep.count", "count"),
    ("fleet.sweep.reclaimed_versions", "count"),
    ("fleet.sweep.pin_clamps", "count"),
    ("fleet.sweep.share_pct", "%"),
    ("fleet.ingest.plain_events_per_s", "1/s"),
    ("fleet.snapshot.pin_us", "us"),
    ("fleet.snapshot.pin_preseal_us", "us"),
    ("fleet.snapshot.materialize_us", "us"),
    ("stream.absorb_us", "us"),
    ("stream.clustering_us", "us"),
    ("live.mid_ingest_frac", "ratio"),
    ("obs.overhead_pct", "%"),
];

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Observations behind each per-layer metric.
    samples: BTreeMap<&'static str, u64>,
    info: BTreeMap<String, String>,
    failures: Vec<String>,
    /// Calibration kernel times (ms) taken between units of work.
    kernel_ms: Samples,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Report {
            traced,
            ..Report::default()
        }
    }

    /// Counts one unit of work; `failure` names the check it failed, if any.
    pub fn attempt(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(message) = failure {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(message);
            }
        }
    }

    /// Times the calibration kernel; call between units of work.
    pub fn calibrate(&mut self) {
        self.kernel_ms.push(calibrate::kernel_ms());
    }

    /// Reference kernel time over this run's median kernel time: timings
    /// are multiplied by it, rates divided.
    fn speed_factor(&self) -> f64 {
        if self.kernel_ms.len() == 0 {
            1.0
        } else {
            calibrate::REFERENCE_MS / self.kernel_ms.median()
        }
    }

    /// A metric's value at the reference host speed.
    fn scaled(&self, value: f64, unit: &str) -> f64 {
        match unit {
            "s" | "ms" | "us" => value * self.speed_factor(),
            "1/s" => value / self.speed_factor(),
            _ => value,
        }
    }

    /// Sets a metric; the name must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Sets a per-layer metric derived from `samples` observations.
    pub fn set_layer(&mut self, name: &'static str, value: f64, samples: u64) {
        self.set(name, value);
        self.samples.insert(name, samples);
    }

    pub fn info_number(&mut self, key: &str, value: f64) {
        self.info.insert(key.to_owned(), number(value));
    }

    pub fn info_text(&mut self, key: &str, value: &str) {
        self.info
            .insert(key.to_owned(), format!("\"{}\"", escape(value)));
    }

    /// The detail line printed before the result: sizes, sample counts,
    /// the host-speed factor, failed checks and the layers this workload
    /// bypasses.
    pub fn info_json(&self) -> String {
        let mut fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        if self.traced {
            let bypassed: Vec<String> = PER_LAYER
                .iter()
                .filter(|(name, _)| !self.metrics.contains_key(name))
                .map(|(name, _)| format!("\"{name}\""))
                .collect();
            fields.push(format!("\"bypassed\": [{}]", bypassed.join(", ")));
            let samples: Vec<String> = self
                .samples
                .iter()
                .map(|(name, n)| format!("\"{name}\": {n}"))
                .collect();
            fields.push(format!("\"layer_samples\": {{{}}}", samples.join(", ")));
        }
        fields.push(format!("\"speed_factor\": {}", number(self.speed_factor())));
        fields.push(format!(
            "\"kernel_ms\": {{\"median\": {}, \"samples\": {}}}",
            number(self.kernel_ms.median()),
            self.kernel_ms.len()
        ));
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        fields.push(format!("\"failed_checks\": [{}]", failures.join(", ")));
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }

    /// The result line: every declared metric of this mode, exactly.
    pub fn result_json(&self) -> String {
        let declared = if self.traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                // Layers the workload bypasses did no work: 0.
                let value = self.scaled(self.metrics.get(name).copied().unwrap_or(0.0), unit);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// End-to-end metrics the workload failed to set (a benchmark bug).
    pub fn missing_end_to_end(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.metrics.contains_key(name))
            .collect()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

//! Collects one run's metrics, prints them, and writes the run record.

use perfbench::manifest::{Metric, END_TO_END, PER_LAYER};
use serde_json::{Number, Value};
use std::path::Path;

/// Build a JSON object from literal entries, preserving key order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON number.
pub fn num(x: f64) -> Value {
    Value::Number(Number::F64(x))
}

/// A JSON integer.
pub fn int(x: u64) -> Value {
    Value::Number(Number::U64(x))
}

/// A JSON string.
pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// One measured value with the number of samples behind it.
struct Measured {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: u64,
}

/// The metrics, correctness counts and record of one run.
pub struct Report {
    /// Operations attempted (requests or runs, warm-up included).
    pub attempted: u64,
    /// Operations that failed, were refused, were abandoned by the
    /// load generator, or returned bits that differ from the oracle.
    pub failed: u64,
    /// Replies whose bits differ from the oracle (a subset of `failed`).
    pub mismatches: u64,
    measured: Vec<Measured>,
    /// Figures printed and recorded but outside the manifest.
    info: Vec<Measured>,
    record: Vec<(String, Value)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            mismatches: 0,
            measured: Vec::new(),
            info: Vec::new(),
            record: Vec::new(),
        }
    }

    /// Record metric `name` (declared in the manifest) measured over
    /// `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, samples: u64) {
        let m = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in the manifest"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.measured.retain(|x| x.name != name);
        self.measured.push(Measured {
            name: m.name,
            unit: m.unit,
            value,
            samples,
        });
    }

    /// Record a figure that is printed and kept in the record but is
    /// not one of the manifest's metrics.
    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.info.push(Measured {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Add a key to the run record.
    pub fn note(&mut self, key: &str, value: Value) {
        self.record.push((key.to_string(), value));
    }

    /// Count `n` operations, `bad` of which failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Print every metric of `wanted` by name, unit and sample count,
    /// write the record into `out_dir`, and print the result line.
    /// Returns whether the run was correct.
    pub fn finish(mut self, wanted: &[Metric], record_name: &str, out_dir: &Path) -> bool {
        let correct = self.failed == 0 && self.mismatches == 0 && self.attempted > 0;
        let mut line = Vec::new();
        let mut metrics_doc = Vec::new();
        for w in wanted {
            let m = self
                .measured
                .iter()
                .find(|m| m.name == w.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", w.name));
            println!(
                "{:<38} {:>16.6} {:<10} (n={})",
                m.name, m.value, m.unit, m.samples
            );
            line.push((
                m.name,
                obj(vec![("value", num(m.value)), ("unit", text(m.unit))]),
            ));
            metrics_doc.push((
                m.name,
                obj(vec![
                    ("value", num(m.value)),
                    ("unit", text(m.unit)),
                    ("samples", int(m.samples)),
                ]),
            ));
        }
        let mut info_doc = Vec::new();
        for m in &self.info {
            println!(
                "{:<38} {:>16.6} {:<10} (n={}, not gated)",
                m.name, m.value, m.unit, m.samples
            );
            info_doc.push((
                m.name,
                obj(vec![
                    ("value", num(m.value)),
                    ("unit", text(m.unit)),
                    ("samples", int(m.samples)),
                ]),
            ));
        }
        println!(
            "attempted {}  failed {}  mismatches {}  error_ratio {}",
            self.attempted,
            self.failed,
            self.mismatches,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        self.record.push(("metrics".into(), obj(metrics_doc)));
        self.record.push(("not_gated".into(), obj(info_doc)));
        self.record.push(("attempted".into(), int(self.attempted)));
        self.record.push(("failed".into(), int(self.failed)));
        self.record
            .push(("mismatches".into(), int(self.mismatches)));
        let record = Value::Object(self.record);
        let path = out_dir.join(format!("{record_name}.json"));
        let written = std::fs::create_dir_all(out_dir).and_then(|()| {
            std::fs::write(
                &path,
                serde_json::to_string_pretty(&record).expect("record serializes"),
            )
        });
        match written {
            Ok(()) => eprintln!("[record written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write record {}: {e}", path.display()),
        }
        let result = obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failed)),
            ("metrics", obj(line)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&result).expect("result serializes")
        );
        correct
    }
}

//! # bench — the figure/table regeneration harness
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig2_hbm_channel` | Fig. 2 — single-channel HBM throughput vs request size, two clock configs |
//! | `table1_resources` | Table I — resource utilization, this work vs prior work \[8\] |
//! | `fig4_scaling` | Fig. 4 — samples/s vs PE count, with/without host transfers |
//! | `fig5_scaling_potential` | Fig. 5 — required memory throughput vs HBM limits |
//! | `fig6_end_to_end` | Fig. 6 — end-to-end rates across platforms + §V-D speedups |
//! | `pcie_outlook` | §V-C — the PCIe 3.0→6.0 outlook |
//!
//! Each binary prints an aligned text table (with paper-reported values
//! side by side where the paper states them) and writes a JSON record
//! under `results/` for EXPERIMENTS.md bookkeeping.
//!
//! The `benches/` directory holds Criterion micro-benchmarks of the real
//! computational kernels (arithmetic emulation, datapath execution, CPU
//! baseline, runtime, simulation speed).
//!
//! The serving studies (`scheduler_study`, `serving_study`,
//! `reactor_study`, `router_study`) share one fixture: a scheduler
//! over a *paced* paper card ([`paced_scheduler`]), served by
//! [`paced_server`], with [`no_listen_overflows`] guarding each point
//! against dropped handshakes.

use serde::Serialize;
use spn_core::NipsBenchmark;
use spn_replay::RunStore;
use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{BatchPolicy, ModelSpec, ServerConfig, SpnServer};
use spn_telemetry::RunRecord;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A scheduler over the paper's `pes`-PE card for `model` whose
/// launches sleep `pacing` per sample while holding the PE, so each
/// PE's capacity is the known constant `1 / pacing` samples/s whatever
/// the host speed. Blocks of `block_samples`, one control thread per
/// PE, no verification sampling.
pub fn paced_scheduler(
    model: NipsBenchmark,
    pes: u32,
    pacing: Duration,
    block_samples: u64,
) -> Arc<Scheduler> {
    let device = VirtualDevice::paper(&model.build_spn(), pes).with_pacing(pacing);
    let config = RuntimeConfig::builder()
        .block_samples(block_samples)
        .threads_per_pe(1)
        .verify_fraction(0.0)
        .build()
        .expect("valid runtime config");
    Arc::new(Scheduler::new(Arc::new(device), config).expect("scheduler starts"))
}

/// Serve `model` under each of `names` from one `scheduler`, batching
/// up to `max_batch_samples` samples for at most 200 µs; `config`
/// supplies every other server setting.
pub fn paced_server(
    scheduler: &Arc<Scheduler>,
    model: NipsBenchmark,
    names: &[String],
    max_batch_samples: u64,
    config: ServerConfig,
) -> SpnServer {
    let specs = names
        .iter()
        .map(|name| ModelSpec::new(name, Arc::clone(scheduler), model.num_vars() as u32, 256))
        .collect();
    let config = ServerConfig {
        batch: BatchPolicy {
            max_batch_samples,
            max_batch_delay: Duration::from_micros(200),
        },
        ..config
    };
    SpnServer::serve(config, specs).expect("server starts")
}

/// The kernel's `TcpExt: ListenOverflows` counter from
/// `/proc/net/netstat`: handshakes dropped because a listen backlog
/// was full. `None` where the file or the counter is missing.
pub fn listen_overflows() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/netstat").ok()?;
    let mut lines = text.lines();
    while let Some(header) = lines.next() {
        let values = lines.next()?;
        if !header.starts_with("TcpExt:") {
            continue;
        }
        let col = header
            .split_whitespace()
            .position(|h| h == "ListenOverflows")?;
        return values.split_whitespace().nth(col)?.parse().ok();
    }
    None
}

/// Run one study point, panicking if `ListenOverflows` rose while it
/// ran: a dropped handshake makes its client wait out SYN
/// retransmits, so the point would time the kernel's retry clock
/// instead of the system under test.
pub fn no_listen_overflows<T>(point: &str, run: impl FnOnce() -> T) -> T {
    let before = listen_overflows();
    let out = run();
    if let (Some(before), Some(after)) = (before, listen_overflows()) {
        assert_eq!(
            after,
            before,
            "{point}: {} listen overflow(s) during the run",
            after.saturating_sub(before)
        );
    }
    out
}

/// Write a JSON result record under `results/<name>.json`.
///
/// Failures to write are reported but non-fatal: the printed table is
/// the primary output.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("note: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("note: cannot write {}: {e}", path.display());
            } else {
                eprintln!("[written {}]", path.display());
            }
        }
        Err(e) => eprintln!("note: cannot serialize {name}: {e}"),
    }
}

/// Shared command-line knobs of the study binaries (`plan_study`,
/// `router_study`): `--quick` shrinks the sweep for CI, `--out PATH`
/// redirects the committed artifact (so CI candidates don't clobber
/// baselines), `--runs DIR` appends the record to a durable run store.
#[derive(Debug, Default, Clone)]
pub struct StudyArgs {
    /// Smaller sweep, shorter timing budgets.
    pub quick: bool,
    /// Where to write the artifact (each study has its default).
    pub out: Option<String>,
    /// Run-store directory to append to.
    pub runs: Option<String>,
}

impl StudyArgs {
    /// Parse from `std::env::args`, exiting with a message on unknown
    /// flags (the studies have no other arguments).
    pub fn parse() -> StudyArgs {
        let mut out = StudyArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(tok) = iter.next() {
            match tok.as_str() {
                "--quick" => out.quick = true,
                "--out" => out.out = iter.next(),
                "--runs" => out.runs = iter.next(),
                other => {
                    eprintln!(
                        "unknown argument '{other}' (known: --quick, --out PATH, --runs DIR)"
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    }
}

/// Persist a study's [`RunRecord`]: the primary artifact at `out_path`
/// (e.g. the committed `BENCH_plan.json`), a `results/` copy, and —
/// when `runs` is set — an append into that run store.
pub fn write_study_record(record: &RunRecord, out_path: &str, runs: Option<&str>) {
    let json = record.to_json();
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("note: cannot write {out_path}: {e}");
    } else {
        eprintln!("[written {out_path}]");
    }
    write_json(&record.name, record);
    if let Some(dir) = runs {
        match RunStore::open(dir).and_then(|s| s.append(record)) {
            Ok(path) => eprintln!("[appended {}]", path.display()),
            Err(e) => eprintln!("note: cannot append to run store {dir}: {e}"),
        }
    }
}

/// A JSON object from literal entries, preserving key order.
pub fn jobj(entries: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A simple fixed-width table printer for terminal reports.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a samples/s rate as `xxx.xM`.
pub fn fmt_rate(r: f64) -> String {
    format!("{:.1}M", r / 1e6)
}

/// Format a ratio as `x.xx×`.
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "22"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_rate(133_139_305.0), "133.1M");
        assert_eq!(fmt_speedup(1.294), "1.29x");
    }
}

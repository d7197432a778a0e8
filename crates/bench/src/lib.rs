//! # vt-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`). Every
//! binary prints the human-readable table or ASCII figure, writes a
//! machine-readable JSON record under `results/`, and — in `--quick`
//! mode — asserts its acceptance criterion from `DESIGN.md §5` so CI can
//! smoke-test the whole evaluation.
//!
//! ```text
//! cargo run --release -p vt-bench --bin fig03_speedup          # paper scale
//! cargo run --release -p vt-bench --bin fig03_speedup -- --quick
//! ```
#![forbid(unsafe_code)]

pub mod cli;
pub mod cpi;
pub mod hotspot;
pub mod record;

use std::fs;
use std::path::PathBuf;
use std::time::Instant;
use vt_core::{Architecture, CoreConfig, Gpu, GpuConfig, MemConfig, Report};
use vt_isa::Kernel;
use vt_json::ToJson;
use vt_workloads::{suite, Scale, Workload};

/// Common experiment context: hardware configuration, problem scale and
/// output directory.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Reduced problem size and relaxed assertions for CI smoke runs.
    pub quick: bool,
    /// Directory JSON records are written to.
    pub out_dir: PathBuf,
    /// Core configuration shared by every run.
    pub core: CoreConfig,
    /// Memory configuration shared by every run.
    pub mem: MemConfig,
}

impl Harness {
    /// Builds a harness from `std::env::args` (`--quick`,
    /// `--out <dir>`).
    pub fn from_env() -> Harness {
        let mut quick = false;
        let mut out_dir = PathBuf::from("results");
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--out" => {
                    if let Some(d) = args.next() {
                        out_dir = PathBuf::from(d);
                    }
                }
                other => eprintln!("ignoring unknown argument `{other}`"),
            }
        }
        Harness {
            quick,
            out_dir,
            core: CoreConfig::default(),
            mem: MemConfig::default(),
        }
    }

    /// The problem scale experiments run at: [`Scale::quick`] in quick
    /// mode, [`Scale::paper`] otherwise.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::paper()
        }
    }

    /// The benchmark suite at this harness's scale.
    pub fn suite(&self) -> Vec<Workload> {
        suite(&self.scale())
    }

    /// Runs `kernel` under `arch`, logging wall time to stderr.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails; experiment inputs are all valid by
    /// construction, so a failure is a harness bug worth a loud stop.
    pub fn run(&self, arch: Architecture, kernel: &Kernel) -> Report {
        let t0 = Instant::now();
        let report = Gpu::new(GpuConfig {
            core: self.core.clone(),
            mem: self.mem.clone(),
            arch,
        })
        .run(kernel)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", kernel.name(), arch.label()));
        eprintln!(
            "  [{} / {}: {} cycles, {:.2}s]",
            kernel.name(),
            arch.label(),
            report.stats.cycles,
            t0.elapsed().as_secs_f64()
        );
        report
    }

    /// Prints the experiment output and writes its JSON record.
    pub fn emit<T: ToJson>(&self, name: &str, human: &str, record: &T) {
        println!("{human}");
        if let Err(e) = fs::create_dir_all(&self.out_dir) {
            eprintln!("cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{name}.json"));
        let json = record.to_json().pretty();
        if let Err(e) = fs::write(&path, json) {
            eprintln!("cannot write {}: {e}", path.display());
        } else {
            eprintln!("  [record: {}]", path.display());
        }
    }
}

/// Geometric mean of positive values (the paper's averaging convention
/// for speedups).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A fixed-width ASCII horizontal bar for figure-style output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let max = if max <= 0.0 { 1.0 } else { max };
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    let mut s = "█".repeat(n);
    s.push_str(&" ".repeat(width - n));
    s
}

/// A minimal aligned-column table renderer.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(out.chars().count().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// The architecture set most figures compare.
pub fn standard_archs() -> Vec<Architecture> {
    vec![
        Architecture::Baseline,
        Architecture::virtual_thread(),
        Architecture::Ideal,
        Architecture::MemSwap(vt_core::MemSwapParams::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(2.0, 1.0, 4), "████");
        assert_eq!(bar(0.0, 1.0, 4), "    ");
        assert_eq!(bar(0.5, 1.0, 4), "██  ");
        assert_eq!(bar(1.0, 0.0, 2).chars().count(), 2);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a     "));
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn standard_archs_are_the_paper_comparison() {
        let archs = standard_archs();
        assert_eq!(archs.len(), 4);
        assert_eq!(archs[0].label(), "baseline");
        assert_eq!(archs[1].label(), "vt");
    }
}

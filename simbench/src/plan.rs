//! The four workloads: which (kernel, configuration) cells each runs,
//! how they are grouped, and the set-up each needs.

use crate::spans::{Layer, Tracer};
use vt_analysis::{model, KernelModel, ModelConfig};
use vt_core::{Architecture, GpuConfig, MemSwapParams, Pool, Session, VtParams};
use vt_isa::Kernel;
use vt_prng::Prng;
use vt_workloads::{suite, AccessPattern, Scale, SyntheticParams};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig03's grid: the 14 core kernels x {baseline, vt} at paper
    /// scale, one `Gpu::run` at a time. Dominated by the per-SM tick.
    PaperKernels,
    /// Paper-scale VT runs of kernels spanning the idle range, with the
    /// SM phase sharded over a 2-worker pool: dominated by the per-cycle
    /// `run_pairs` handoff of the parallel engine.
    ShardedKernels,
    /// The cells of four figure binaries at `--quick` scale, duplicates
    /// kept, plus seeded synthetic kernels, fanned across a 2-worker
    /// `vt_par::sweep`: many short cells, so per-run set-up and grid
    /// scheduling matter.
    FigureGrid,
    /// The explain-a-result path: every probe on, every export, and a
    /// checkpoint / parse / resume round trip per kernel.
    Investigate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperKernels,
        Workload::ShardedKernels,
        Workload::FigureGrid,
        Workload::Investigate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperKernels => "paper-kernels",
            Workload::ShardedKernels => "sharded-kernels",
            Workload::FigureGrid => "figure-grid",
            Workload::Investigate => "investigate",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Kernels of sharded-kernels: sgemm (1% idle) to lbm (28% idle).
pub const SHARDED: [&str; 6] = ["sgemm", "bfs", "spmv", "lbm", "kmeans", "histo"];
/// Kernels of investigate: short paper-scale runs whose traces stay a
/// few tens of MB.
pub const INVESTIGATE: [&str; 3] = ["bfs", "spmv", "streamcluster"];
/// Seeded synthetic kernels in figure-grid, each run under both
/// baseline and VT.
pub const SYNTHETIC: u32 = 8;

/// How a cell's outputs are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Against the recorded digest under the cell's key.
    Digest,
    /// Against `vt_isa::interp::Interpreter`'s memory image.
    Interpreter,
}

/// One simulation the workload runs per pass.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable name; also the digest key for [`Check::Digest`] cells.
    pub key: String,
    /// Index into [`Plan::kernels`].
    pub kernel: usize,
    pub cfg: GpuConfig,
    /// For a VT cell, the key of the baseline run it is compared with.
    pub base: Option<String>,
    pub check: Check,
}

/// A workload after set-up: its kernels, static models, cells, and the
/// pool or session it runs on.
pub struct Plan {
    pub workload: Workload,
    /// (suite name, kernel).
    pub kernels: Vec<(String, Kernel)>,
    pub models: Vec<KernelModel>,
    pub cells: Vec<Cell>,
    /// Cells that run together: one sweep each on figure-grid, one cell
    /// each elsewhere. The reference loop runs between batches.
    pub batches: Vec<Vec<usize>>,
    /// figure-grid's 2-worker sweep pool.
    pub pool: Option<Pool>,
    /// sharded-kernels' session over a 2-worker pool.
    pub session: Option<Session>,
}

fn vt(p: VtParams) -> Architecture {
    Architecture::VirtualThread(p)
}

/// Declares cells of one kernel set under one hardware configuration.
struct Builder {
    kernels: Vec<(String, Kernel)>,
    cells: Vec<Cell>,
    batches: Vec<Vec<usize>>,
}

impl Builder {
    fn kernel(&mut self, name: &str, scale_tag: &str, k: &Kernel) -> usize {
        let tagged = format!("{scale_tag}:{name}");
        if let Some(i) = self.kernels.iter().position(|(n, _)| *n == tagged) {
            return i;
        }
        self.kernels.push((tagged, k.clone()));
        self.kernels.len() - 1
    }

    /// Adds a baseline cell and one cell per `variants` entry, all on
    /// `cfg`'s hardware; VT variants pair with the baseline.
    fn group(
        &mut self,
        prefix: &str,
        kernel: usize,
        cfg: &GpuConfig,
        variants: &[(&str, Architecture)],
        check: Check,
    ) {
        let base_key = format!("{prefix}/baseline");
        let mut batch = self.batches.pop().unwrap_or_default();
        for (label, arch) in [("baseline", Architecture::Baseline)]
            .iter()
            .chain(variants)
        {
            batch.push(self.cells.len());
            self.cells.push(Cell {
                key: format!("{prefix}/{label}"),
                kernel,
                cfg: GpuConfig {
                    arch: *arch,
                    ..cfg.clone()
                },
                base: matches!(arch, Architecture::VirtualThread(_)).then(|| base_key.clone()),
                check,
            });
        }
        self.batches.push(batch);
    }
}

fn name(k: &(String, Kernel)) -> &str {
    k.0.split_once(':').map_or(&k.0, |(_, n)| n)
}

impl Plan {
    /// Builds `workload`'s set-up at its standard scale.
    pub fn build(workload: Workload, seed: u64, tr: &mut Tracer) -> Plan {
        let scale = match workload {
            Workload::FigureGrid => Scale {
                ctas: 240,
                iters: 4,
            },
            _ => Scale::paper(),
        };
        Plan::build_at(workload, seed, scale, tr)
    }

    /// Builds `workload`'s set-up with its kernels at `scale` (tests use
    /// a small scale; the benchmark uses [`Plan::build`]).
    pub fn build_at(workload: Workload, seed: u64, scale: Scale, tr: &mut Tracer) -> Plan {
        let mut b = Builder {
            kernels: Vec::new(),
            cells: Vec::new(),
            batches: Vec::new(),
        };
        let base_cfg = GpuConfig::default();
        let suite_at =
            |tr: &mut Tracer, s: Scale| tr.span(Layer::Workloads, "workloads.build", |_| suite(&s));
        let mut pool = None;
        let mut session = None;
        match workload {
            Workload::PaperKernels => {
                for w in suite_at(tr, scale) {
                    let k = b.kernel(w.name, "paper", &w.kernel);
                    b.batches.push(Vec::new());
                    b.group(
                        &format!("paper/{}", w.name),
                        k,
                        &base_cfg,
                        &[("vt", Architecture::virtual_thread())],
                        Check::Digest,
                    );
                }
                // One cell per batch: split each kernel's pair.
                b.batches = b.batches.iter().flatten().map(|&c| vec![c]).collect();
            }
            Workload::FigureGrid => {
                figure_cells(&mut b, scale, tr);
                synthetic_cells(&mut b, seed, tr);
                pool = Some(tr.span(Layer::Par, "par.pool", |_| Pool::new(2)));
            }
            Workload::ShardedKernels | Workload::Investigate => {
                let names: &[&str] = if workload == Workload::ShardedKernels {
                    &SHARDED
                } else {
                    &INVESTIGATE
                };
                let cfg = GpuConfig::with_arch(Architecture::virtual_thread());
                for w in suite_at(tr, scale) {
                    if !names.contains(&w.name) {
                        continue;
                    }
                    let k = b.kernel(w.name, "paper", &w.kernel);
                    b.batches.push(vec![b.cells.len()]);
                    b.cells.push(Cell {
                        key: format!("paper/{}/vt", w.name),
                        kernel: k,
                        cfg: cfg.clone(),
                        base: Some(format!("paper/{}/baseline", w.name)),
                        check: Check::Digest,
                    });
                }
                if workload == Workload::ShardedKernels {
                    session = Some(tr.span(Layer::Core, "core.session", |tr| {
                        let pool = tr.span(Layer::Par, "par.pool", |_| Pool::new(2));
                        Session::new(cfg).with_pool(pool)
                    }));
                }
            }
        }
        let mcfg = ModelConfig::default();
        let models = b
            .kernels
            .iter()
            .map(|(_, k)| tr.span(Layer::Analysis, "analysis.model", |_| model(k, &mcfg)))
            .collect();
        Plan {
            workload,
            kernels: b.kernels,
            models,
            cells: b.cells,
            batches: b.batches,
            pool,
            session,
        }
    }

    /// The suite name of cell `c`'s kernel.
    pub fn kernel_name(&self, c: usize) -> &str {
        name(&self.kernels[self.cells[c].kernel])
    }

    /// The order batches run in on pass `pass`, as (batch index, cells): a
    /// seeded shuffle of the batches. Cells inside a sweep keep their
    /// figure's order, so the seed does not change which cells overlap
    /// on the two workers (and so the sweep's tail and peak memory).
    pub fn order(&self, seed: u64, pass: u64) -> Vec<(usize, Vec<usize>)> {
        let mut r = Prng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pass);
        let mut batches: Vec<(usize, Vec<usize>)> =
            self.batches.iter().cloned().enumerate().collect();
        r.shuffle(&mut batches);
        batches
    }

    /// Share of cells that repeat an earlier cell's (kernel, config).
    pub fn duplicate_frac(&self) -> f64 {
        let mut seen = std::collections::BTreeSet::new();
        let dups = self
            .cells
            .iter()
            .filter(|c| !seen.insert((c.kernel, format!("{:?}", c.cfg))))
            .count();
        dups as f64 / self.cells.len().max(1) as f64
    }
}

/// The cells that fig04 (architectures), fig06 (swap latency), fig11
/// (L1 size) and fig12 (memory latency) declare in `--quick` mode, in
/// the figures' own order and with their duplicates. One batch (one
/// sweep) per figure. fig05, fig07 and fig09 are left out: with them a
/// pass took 15-18 s on a 2-vCPU VM, too long for the three passes a
/// run needs for its medians.
fn figure_cells(b: &mut Builder, quick: Scale, tr: &mut Tracer) {
    let kernels = tr.span(Layer::Workloads, "workloads.build", |_| suite(&quick));
    let base = GpuConfig::default();
    let subset = |names: &'static [&'static str]| {
        kernels
            .iter()
            .filter(move |w| names.contains(&w.name))
            .collect::<Vec<_>>()
    };
    let figure = |b: &mut Builder, f: &mut dyn FnMut(&mut Builder)| {
        b.batches.push(Vec::new());
        f(b);
    };

    // fig04: the four CTA architectures.
    figure(b, &mut |b| {
        for w in &kernels {
            let k = b.kernel(w.name, "quick", &w.kernel);
            b.group(
                &format!("fig04/{}", w.name),
                k,
                &base,
                &[
                    ("vt", Architecture::virtual_thread()),
                    ("ideal", Architecture::Ideal),
                    ("memswap", Architecture::MemSwap(MemSwapParams::default())),
                ],
                Check::Digest,
            );
        }
    });
    // fig06: context-buffer port width (swap latency).
    figure(b, &mut |b| {
        for w in subset(&["streamcluster", "bfs", "nw", "hotspot"]) {
            let k = b.kernel(w.name, "quick", &w.kernel);
            let width = |n| {
                vt(VtParams {
                    buffer_words_per_cycle: n,
                    ..VtParams::default()
                })
            };
            b.group(
                &format!("fig06/{}", w.name),
                k,
                &base,
                &[
                    ("vt-w64", width(64)),
                    ("vt-w8", width(8)),
                    ("vt-w1", width(1)),
                ],
                Check::Digest,
            );
        }
    });
    // fig11: L1 size.
    figure(b, &mut |b| {
        for kib in [8u32, 16, 64] {
            for w in subset(&["streamcluster", "kmeans", "spmv", "stencil"]) {
                let k = b.kernel(w.name, "quick", &w.kernel);
                let mut cfg = base.clone();
                cfg.mem.l1_bytes = kib * 1024;
                b.group(
                    &format!("fig11/{}/l1-{kib}k", w.name),
                    k,
                    &cfg,
                    &[("vt", Architecture::virtual_thread())],
                    Check::Digest,
                );
            }
        }
    });
    // fig12: memory latency scale.
    figure(b, &mut |b| {
        for (label, scale) in [("0.5", 0.5f64), ("1", 1.0), ("2", 2.0)] {
            let s = |v: u32| ((f64::from(v) * scale).round() as u32).max(1);
            let mut cfg = base.clone();
            cfg.mem.icnt_latency = s(base.mem.icnt_latency);
            cfg.mem.l2_hit_latency = s(base.mem.l2_hit_latency);
            cfg.mem.dram_row_hit_latency = s(base.mem.dram_row_hit_latency);
            cfg.mem.dram_row_miss_latency = s(base.mem.dram_row_miss_latency);
            for w in subset(&["streamcluster", "bfs", "nw", "hotspot"]) {
                let k = b.kernel(w.name, "quick", &w.kernel);
                b.group(
                    &format!("fig12/{}/lat-{label}", w.name),
                    k,
                    &cfg,
                    &[("vt", Architecture::virtual_thread())],
                    Check::Digest,
                );
            }
        }
    });
}

/// Seeded synthetic kernels, drawn like the property tests draw them,
/// each under baseline and VT and checked against the interpreter.
fn synthetic_cells(b: &mut Builder, seed: u64, tr: &mut Tracer) {
    let mut r = Prng::new(seed ^ 0x5eed_cafe);
    b.batches.push(Vec::new());
    for i in 0..SYNTHETIC {
        let barrier = r.gen_bool(0.4);
        let access = match r.gen_range(0..3) {
            0 => AccessPattern::Coalesced,
            1 => AccessPattern::Strided(r.gen_range(1..64)),
            _ => AccessPattern::Random,
        };
        let p = SyntheticParams {
            name: format!("synth{i}"),
            ctas: r.gen_range(1..6),
            threads_per_cta: *r.choose(&[32u32, 48, 64, 96]),
            regs_per_thread: *r.choose(&[8u16, 16, 24, 48]),
            smem_bytes: if barrier {
                *r.choose(&[128u32, 256, 1024])
            } else {
                0
            },
            iters: r.gen_range(1..3),
            loads_per_iter: r.gen_range(1..3),
            alu_per_load: r.gen_range(0..5),
            access,
            barrier_per_iter: barrier,
        };
        let kernel = tr.span(Layer::Workloads, "workloads.build", |_| p.build());
        let k = b.kernel(&p.name, "synthetic", &kernel);
        b.group(
            &format!("synthetic/{}", p.name),
            k,
            &GpuConfig::default(),
            &[("vt", Architecture::virtual_thread())],
            Check::Interpreter,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(w: Workload, seed: u64) -> Plan {
        Plan::build_at(w, seed, Scale::test(), &mut Tracer::new(false))
    }

    fn listing(p: &Plan) -> Vec<String> {
        p.cells
            .iter()
            .map(|c| format!("{} {} {:?}", c.key, p.kernels[c.kernel].0, c.cfg))
            .collect()
    }

    #[test]
    fn cell_lists_are_deterministic_for_a_seed() {
        for w in Workload::ALL {
            assert_eq!(listing(&small(w, 7)), listing(&small(w, 7)), "{}", w.name());
            let p = small(w, 7);
            assert_eq!(p.order(7, 3), p.order(7, 3));
        }
    }

    #[test]
    fn every_cell_runs_in_exactly_one_batch() {
        for w in Workload::ALL {
            let p = small(w, 1);
            let mut seen: Vec<usize> = p.batches.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..p.cells.len()).collect::<Vec<_>>(), "{}", w.name());
        }
    }

    #[test]
    fn grid_shapes_match_the_figures() {
        assert_eq!(small(Workload::PaperKernels, 0).cells.len(), 28);
        assert_eq!(
            small(Workload::ShardedKernels, 0).cells.len(),
            SHARDED.len()
        );
        let grid = small(Workload::FigureGrid, 0);
        // 56 + 16 + 24 + 24 figure cells, 2 per synthetic kernel.
        assert_eq!(grid.cells.len(), 120 + 2 * SYNTHETIC as usize);
        assert_eq!(grid.batches.len(), 5);
        // fig06's baselines and the default-hardware cells of fig11 and
        // fig12 repeat fig04's.
        assert_eq!(grid.cells.len() as f64 * grid.duplicate_frac(), 20.0);
    }

    #[test]
    fn seed_changes_order_and_synthetics_only() {
        let p = small(Workload::PaperKernels, 1);
        assert_ne!(p.order(1, 0), p.order(2, 0));
        assert_eq!(listing(&p), listing(&small(Workload::PaperKernels, 2)));
        let a = small(Workload::FigureGrid, 1);
        let b = small(Workload::FigureGrid, 2);
        let fixed = |p: &Plan| {
            p.cells
                .iter()
                .filter(|c| c.check == Check::Digest)
                .map(|c| c.key.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(fixed(&a), fixed(&b));
        let synthetic = |p: &Plan| {
            p.kernels
                .iter()
                .filter(|(n, _)| n.starts_with("synthetic:"))
                .map(|(_, k)| format!("{k:?}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(synthetic(&a).len(), SYNTHETIC as usize);
        assert_ne!(synthetic(&a), synthetic(&b));
    }
}

//! Running cells and passes, untraced through the public façade or
//! traced through the same public calls the façade makes, each wrapped
//! in a span.

use crate::check::{Digest, Expect};
use crate::plan::{Cell, Plan, Workload};
use crate::refloop::RefLoop;
use crate::spans::{Layer, Tracer};
use crate::stats::fnv1a;
use std::time::Instant;
use vt_bench::hotspot::{rank_deltas, ProfileRecord};
use vt_core::{Gpu, GpuConfig, Pool, RunRequest, Session};
use vt_isa::kernel::MemImage;
use vt_isa::Kernel;
use vt_json::Json;
use vt_sim::{Checkpoint, GpuSim, RunBudget, RunOutcome, RunResult, RunStats, SimConfig};
use vt_trace::{to_chrome_json_with, BufSink, NullSink, TraceSink};

/// Metric window of investigate's probed runs, in cycles.
const WINDOW: u64 = 512;

/// What one cell produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Statistics without the metric series and per-PC profile.
    pub stats: RunStats,
    pub num_sms: u32,
    pub mem_fnv: u64,
    /// Bytes of records, traces and checkpoints the cell rendered.
    pub artifact_bytes: u64,
    pub events: u64,
    pub checkpoint_bytes: u64,
    /// Problems found while the cell ran (investigate's round trips).
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn digest(&self) -> Digest {
        Digest {
            cycles: self.stats.cycles,
            thread_instrs: self.stats.thread_instrs,
            mem_fnv: self.mem_fnv,
        }
    }

    pub fn sm_cycles(&self) -> u64 {
        self.stats.cycles * u64::from(self.num_sms)
    }
}

/// One cell of a pass.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub cell: usize,
    /// Host seconds of this cell alone (a sweep job's own time on
    /// figure-grid, where batches overlap two cells).
    pub host_s: f64,
    pub out: Outcome,
    /// `None` when the outputs passed every check.
    pub error: Option<String>,
}

/// One pass over every cell of the plan.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of each batch, by batch index.
    pub batch_s: Vec<f64>,
    /// Mean of the reference-loop times just before and just after each
    /// batch, by batch index.
    pub batch_ref_s: Vec<f64>,
    /// Every reference-loop time taken in the pass.
    pub ref_s: Vec<f64>,
    pub cells: Vec<CellRun>,
}

impl Pass {
    /// Host seconds of the simulator's work, without the reference loop.
    pub fn host_s(&self) -> f64 {
        self.batch_s.iter().sum()
    }
}

/// Renders the cell's result record, as the figure binaries and vtsweep
/// do, and returns its size.
fn render_record(tr: &mut Tracer, stats: &RunStats) -> u64 {
    tr.span(Layer::Json, "json.render", |_| {
        stats.snapshot().compact().len() as u64
    })
}

fn outcome(tr: &mut Tracer, mut stats: RunStats, image: &MemImage, num_sms: u32) -> Outcome {
    let artifact_bytes = render_record(tr, &stats);
    stats.series = None;
    stats.hotspots = None;
    Outcome {
        stats,
        num_sms,
        mem_fnv: fnv1a(image.as_words()),
        artifact_bytes,
        ..Outcome::default()
    }
}

fn sim_config(cfg: &GpuConfig, kernel: &Kernel) -> SimConfig {
    SimConfig {
        core: cfg.core.clone(),
        mem: cfg.mem.clone(),
        residency: cfg.arch.residency_for(kernel, &cfg.core, &cfg.mem),
    }
}

/// The steps `Gpu::run` / `Session::run` take, one span each.
fn run_spanned<S: TraceSink>(
    tr: &mut Tracer,
    cfg: &GpuConfig,
    kernel: &Kernel,
    pool: Option<&Pool>,
    sink: &mut S,
) -> Result<RunResult, String> {
    tr.span(Layer::Core, "core.run", |tr| {
        let sim_cfg = tr.span(Layer::Core, "core.residency", |_| sim_config(cfg, kernel));
        let sim = tr
            .span(Layer::Sim, "sim.new", |_| GpuSim::new(&sim_cfg, kernel))
            .map_err(|e| e.to_string())?;
        tr.span(Layer::Sim, "sim.execute", |_| {
            sim.execute(pool, sink, &RunBudget::unlimited(), None)
        })
        .and_then(RunOutcome::completed)
        .map_err(|e| e.to_string())
    })
}

/// Runs one cell through `Gpu::run` (or the session's pool).
fn run_cell(
    tr: &mut Tracer,
    cell: &Cell,
    kernel: &Kernel,
    session: Option<&mut Session>,
) -> Result<Outcome, String> {
    let num_sms = cell.cfg.core.num_sms;
    let (stats, image) = if tr.on() {
        let pool = session.as_ref().and_then(|s| s.pool());
        let r = run_spanned(tr, &cell.cfg, kernel, pool, &mut NullSink)?;
        (r.stats, r.mem_image)
    } else {
        let r = match session {
            Some(s) => s
                .run(RunRequest::kernel(kernel))
                .and_then(|o| o.completed())
                .map(|mut v| v.remove(0)),
            None => Gpu::new(cell.cfg.clone()).run(kernel),
        }
        .map_err(|e| e.to_string())?;
        (r.stats, r.mem_image)
    };
    Ok(outcome(tr, stats, &image, num_sms))
}

/// investigate's cell: a run with every probe on, every export of its
/// results, and a checkpoint / text / parse / resume round trip at
/// `cut` (a share of the run's cycles). The same calls run traced and
/// untraced.
fn run_investigate(
    tr: &mut Tracer,
    cell: &Cell,
    name: &str,
    kernel: &Kernel,
    cut: f64,
) -> Result<Outcome, String> {
    let mut cfg = cell.cfg.clone();
    cfg.core.metrics_window = Some(WINDOW);
    cfg.core.profile = true;
    let label = cfg.arch.label();
    let mut events = Vec::new();
    let full = run_spanned(tr, &cfg, kernel, None, &mut BufSink(&mut events))?;
    let mut errors = Vec::new();

    let chrome = tr.span(Layer::Trace, "trace.chrome", |_| {
        to_chrome_json_with(&events, full.stats.metrics())
    });
    let chrome = tr.span(Layer::Json, "json.render", |_| chrome.compact());
    let prom = tr.span(Layer::Trace, "trace.prometheus", |_| {
        full.stats
            .metrics()
            .map(|m| m.to_prometheus())
            .unwrap_or_default()
    });
    let rec = tr.span(Layer::Bench, "bench.profile_record", |_| {
        ProfileRecord::from_run(name, label, kernel.program(), &full.stats)
    })?;
    let rec_text = tr.span(Layer::Json, "json.render", |_| rec.to_json().compact());
    let rec_json = tr.span(Layer::Json, "json.parse", |_| Json::parse(&rec_text))?;
    // `from_json` re-checks per-PC conservation.
    let loaded = tr.span(Layer::Bench, "bench.profile_load", |_| {
        ProfileRecord::from_json(&rec_json)
    })?;

    let sim_cfg = sim_config(&cfg, kernel);
    let cut_at = ((full.stats.cycles as f64 * cut) as u64).max(1);
    let truncated = tr
        .span(Layer::Sim, "sim.execute_cut", |_| {
            GpuSim::new(&sim_cfg, kernel)?.execute(
                None,
                &mut NullSink,
                &RunBudget::unlimited().with_max_cycles(cut_at),
                None,
            )
        })
        .map_err(|e| e.to_string())?;
    let RunOutcome::Truncated(t) = truncated else {
        return Err(format!("{}: no truncation at cycle {cut_at}", cell.key));
    };
    let text = tr.span(Layer::Sim, "sim.checkpoint_text", |_| {
        t.checkpoint.to_text()
    });
    let parsed = tr
        .span(Layer::Sim, "sim.checkpoint_parse", |_| {
            Checkpoint::parse(&text)
        })
        .map_err(|e| e.to_string())?;
    if parsed.to_text() != text {
        errors.push(format!("{}: checkpoint text does not round-trip", cell.key));
    }
    let resumed = tr
        .span(Layer::Sim, "sim.resume", |_| {
            GpuSim::resume(&sim_cfg, kernel, &parsed)
        })
        .map_err(|e| e.to_string())?;
    let again = tr.span(Layer::Sim, "sim.checkpoint", |_| resumed.checkpoint());
    if tr.span(Layer::Sim, "sim.checkpoint_text", |_| again.to_text()) != text {
        errors.push(format!(
            "{}: checkpoint of the resumed state differs",
            cell.key
        ));
    }
    let fin = tr
        .span(Layer::Sim, "sim.execute_resumed", |_| {
            resumed.execute(None, &mut NullSink, &RunBudget::unlimited(), None)
        })
        .and_then(RunOutcome::completed)
        .map_err(|e| e.to_string())?;
    if fin.stats != full.stats || fin.mem_image != full.mem_image {
        errors.push(format!(
            "{}: resumed run differs from the uninterrupted one",
            cell.key
        ));
    }
    let rec2 = ProfileRecord::from_run(name, label, kernel.program(), &fin.stats)?;
    let deltas = tr.span(Layer::Bench, "bench.cpi_rank", |_| {
        rank_deltas(&loaded, &rec2)
    })?;
    if !deltas.is_empty() {
        errors.push(format!(
            "{}: {} per-PC deltas after resume",
            cell.key,
            deltas.len()
        ));
    }

    let mut out = outcome(tr, full.stats, &full.mem_image, cfg.core.num_sms);
    out.events = events.len() as u64;
    out.checkpoint_bytes = text.len() as u64;
    out.artifact_bytes += (chrome.len() + prom.len() + rec_text.len() + text.len()) as u64;
    out.errors = errors;
    Ok(out)
}

/// The share of a run's cycles at which investigate cuts pass `pass`'s
/// checkpoint, drawn from the seed.
fn cut_share(seed: u64, pass: u64, cell: usize) -> f64 {
    let mut r = vt_prng::Prng::new(seed ^ (pass << 32) ^ cell as u64 ^ 0xc4ec_4b01);
    0.2 + 0.6 * f64::from(r.gen_range(0..1000)) / 1000.0
}

/// Runs batch `batch` and returns (cell, own host seconds, outcome).
fn run_batch(
    plan: &mut Plan,
    batch: &[usize],
    tr: &mut Tracer,
    seed: u64,
    pass: u64,
) -> Vec<(usize, f64, Result<Outcome, String>)> {
    match plan.workload {
        Workload::FigureGrid => {
            let pool = plan.pool.as_ref().expect("figure-grid has a sweep pool");
            let (cells, kernels) = (&plan.cells, &plan.kernels);
            tr.span(Layer::Par, "par.sweep", |tr| {
                let jobs: Vec<_> = batch
                    .iter()
                    .map(|&c| {
                        let mut t = tr.fork(c as u32);
                        let cell = &cells[c];
                        let kernel = &kernels[cell.kernel].1;
                        move || {
                            let t0 = Instant::now();
                            let out = run_cell(&mut t, cell, kernel, None);
                            (c, t0.elapsed().as_secs_f64(), out, t)
                        }
                    })
                    .collect();
                vt_par::sweep(pool, jobs)
                    .into_iter()
                    .map(|(c, s, out, t)| {
                        tr.join(t);
                        (c, s, out)
                    })
                    .collect()
            })
        }
        _ => batch
            .iter()
            .map(|&c| {
                tr.cell = c as u32;
                let t0 = Instant::now();
                let cell = &plan.cells[c];
                let kernel = &plan.kernels[cell.kernel].1;
                let out = if plan.workload == Workload::Investigate {
                    let name = plan.kernel_name(c);
                    run_investigate(tr, cell, name, kernel, cut_share(seed, pass, c))
                } else {
                    run_cell(tr, cell, kernel, plan.session.as_mut())
                };
                let s = t0.elapsed().as_secs_f64();
                tr.cell = crate::spans::NO_CELL;
                (c, s, out)
            })
            .collect(),
    }
}

/// Runs one pass: every batch once in the seeded order, the reference
/// loop before the first batch and after each one, then the checks.
/// With `inject` set, one cell's memory digest is corrupted per pass so
/// the checks must fail it. `between` runs after each batch's checks,
/// outside the timed work.
#[allow(clippy::too_many_arguments)]
pub fn run_pass(
    plan: &mut Plan,
    expect: &Expect,
    reference: &RefLoop,
    tr: &mut Tracer,
    seed: u64,
    pass: u64,
    inject: bool,
    between: &mut dyn FnMut(),
) -> Pass {
    let n = plan.batches.len();
    let mut p = Pass {
        batch_s: vec![0.0; n],
        batch_ref_s: vec![0.0; n],
        ..Pass::default()
    };
    let mut before = tr.span(Layer::Harness, "harness.ref", |_| reference.time());
    p.ref_s.push(before);
    for (b, batch) in plan.order(seed, pass) {
        let t0 = Instant::now();
        let runs = run_batch(plan, &batch, tr, seed, pass);
        p.batch_s[b] = t0.elapsed().as_secs_f64();
        let after = tr.span(Layer::Harness, "harness.ref", |_| reference.time());
        p.ref_s.push(after);
        p.batch_ref_s[b] = 0.5 * (before + after);
        before = after;
        tr.span(Layer::Harness, "harness.check", |_| {
            for (c, host_s, out) in runs {
                let (out, error) = match out {
                    Ok(mut out) => {
                        if inject && p.cells.is_empty() {
                            out.mem_fnv ^= 1;
                        }
                        let error = match out.errors.first() {
                            Some(e) => Some(e.clone()),
                            None => expect.check(plan, c, &out.digest()).err(),
                        };
                        (out, error)
                    }
                    Err(e) => (
                        Outcome::default(),
                        Some(format!("{}: {e}", plan.cells[c].key)),
                    ),
                };
                p.cells.push(CellRun {
                    cell: c,
                    host_s,
                    out,
                    error,
                });
            }
        });
        between();
    }
    p.cells.sort_by_key(|r| r.cell);
    p
}

/// Runs every cell of `plan` once through `Gpu::run` (no pool, no
/// session, no probe) and returns the host seconds: the serial side of
/// `par.shard_speedup` and the unprobed side of `probe.overhead`.
pub fn plain_seconds(plan: &Plan) -> f64 {
    let t0 = Instant::now();
    for c in &plan.cells {
        // Only the time matters here; the same cells are checked in the
        // passes.
        let _ = Gpu::new(c.cfg.clone()).run(&plan.kernels[c.kernel].1);
    }
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_workloads::Scale;

    #[test]
    fn seed_permutes_paper_kernels_order_but_not_sim_cycles() {
        let pass = |seed| {
            let mut plan = Plan::build_at(
                Workload::PaperKernels,
                seed,
                Scale::test(),
                &mut Tracer::new(false),
            );
            let order = plan.order(seed, 0);
            let expect = Expect::new(&plan).expect("digests parse");
            let p = run_pass(
                &mut plan,
                &expect,
                &RefLoop::new(),
                &mut Tracer::new(false),
                seed,
                0,
                false,
                &mut || (),
            );
            let cycles: u64 = p.cells.iter().map(|c| c.out.stats.cycles).sum();
            (order, cycles, p.cells.len())
        };
        let (order1, cycles1, n1) = pass(1);
        let (order2, cycles2, n2) = pass(2);
        assert_ne!(order1, order2);
        assert_eq!((cycles1, n1), (cycles2, n2));
        assert!(cycles1 > 0);
    }
}

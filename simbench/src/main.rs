//! `vt-simbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload paper-kernels --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints human-readable tables on stderr and, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. See `simbench/README.md` for what each metric
//! means and which workload should move it.

mod check;
mod metrics;
mod plan;
mod refloop;
mod run;
mod spans;
mod stats;

use check::Expect;
use plan::{Plan, Workload};
use refloop::RefLoop;
use spans::Tracer;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_fault: bool,
    write_digests: bool,
}

const USAGE: &str =
    "usage: vt-simbench --workload <paper-kernels|sharded-kernels|figure-grid|investigate> \
--seed <n> --seconds <s> --trace <0|1> [--inject-fault] [--write-digests]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject_fault = false;
    let mut write_digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--inject-fault" => inject_fault = true,
            "--write-digests" => write_digests = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(30.0).max(0.0),
        trace: trace.unwrap_or(false),
        inject_fault,
        write_digests,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vt-simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vt-simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let setup = |setups: &mut Vec<(f64, Vec<spans::Span>)>| {
        let mut tr = Tracer::new(args.trace);
        let t0 = Instant::now();
        let p = Plan::build(args.workload, args.seed, &mut tr);
        setups.push((t0.elapsed().as_secs_f64(), tr.spans));
        p
    };
    let mut setups = Vec::new();
    let mut plan = setup(&mut setups);
    let expect = Expect::new(&plan)?;
    eprintln!(
        "{}: {} cells over {} kernels; the static model predicts a VT gain for {}",
        args.workload.name(),
        plan.cells.len(),
        plan.kernels.len(),
        plan.models.iter().filter(|m| m.predicts_vt_gain()).count()
    );
    if args.write_digests {
        return write_digests(&mut plan, &expect);
    }

    let reference = RefLoop::new();
    let budget = args.seconds;
    let start = Instant::now();
    // Further set-ups are spread evenly over the run, between batches,
    // so `setup_s` is a median over the run's contention like `wall_s`
    // rather than a burst of samples taken in one moment.
    let every = budget / SETUP_SAMPLES as f64;
    let mut between = || {
        if setups.len() < SETUP_SAMPLES
            && start.elapsed().as_secs_f64() >= every * setups.len() as f64
        {
            drop(setup(&mut setups));
        }
    };
    // Untraced passes fill the run; with --trace 1 they fill 40% and
    // traced passes the next 45%, leaving room for the serial and
    // unprobed comparison runs.
    let plain_until = if args.trace { 0.40 * budget } else { budget };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut tr = Tracer::new(true);
    let mut tracing = false;
    for pass_no in 0.. {
        let mut off = Tracer::new(false);
        let t0 = Instant::now();
        let pass = run::run_pass(
            &mut plan,
            &expect,
            &reference,
            if tracing { &mut tr } else { &mut off },
            args.seed,
            pass_no,
            args.inject_fault,
            &mut between,
        );
        let next = start.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64();
        if tracing {
            traced.push(pass);
            if next > 0.85 * budget {
                break;
            }
        } else {
            plain.push(pass);
            if next > plain_until {
                if !args.trace {
                    break;
                }
                tracing = true;
            }
        }
    }
    while setups.len() < SETUP_SAMPLES {
        drop(setup(&mut setups));
    }

    let all: Vec<&run::Pass> = plain.iter().chain(&traced).collect();
    let attempted: usize = all.iter().map(|p| p.cells.len()).sum();
    let failures: Vec<&String> = all
        .iter()
        .flat_map(|p| p.cells.iter().filter_map(|c| c.error.as_ref()))
        .collect();
    for e in failures.iter().take(10) {
        eprintln!("check failed: {e}");
    }
    let mut correct = failures.is_empty();

    let out = if args.trace {
        let problems = spans::check_nesting(&tr.spans);
        for p in problems.iter().take(10) {
            eprintln!("span self-check: {p}");
        }
        correct &= problems.is_empty();
        let plain_s = matches!(
            plan.workload,
            Workload::ShardedKernels | Workload::Investigate
        )
        .then(|| run::plain_seconds(&plan));
        let m = metrics::per_layer(&plan, &setups, &plain, &traced, &tr.spans, plain_s);
        let mut all_spans: Vec<spans::Span> =
            setups.iter().flat_map(|(_, s)| s.iter().cloned()).collect();
        all_spans.extend(tr.spans);
        write_spans(args, &all_spans);
        m
    } else {
        metrics::end_to_end(&plan, &expect, &setups, &plain)
    };
    eprintln!(
        "{}: {} passes, {} cells attempted, {} failed, {:.1} s",
        args.workload.name(),
        all.len(),
        attempted,
        failures.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        metrics::result_json(correct, attempted, failures.len(), &out).compact()
    );
    Ok(())
}

/// Prints one digest line per fixed cell, from a single untraced pass.
fn write_digests(plan: &mut Plan, expect: &Expect) -> Result<(), String> {
    let pass = run::run_pass(
        plan,
        expect,
        &RefLoop::new(),
        &mut Tracer::new(false),
        0,
        0,
        false,
        &mut || (),
    );
    for c in &pass.cells {
        let cell = &plan.cells[c.cell];
        if cell.check == plan::Check::Digest {
            println!("{}", c.out.digest().line(&cell.key));
        }
    }
    Ok(())
}

/// Writes the traced run's spans as a Perfetto-loadable trace under
/// the benchmark's `out/` directory.
fn write_spans(args: &Args, spans: &[spans::Span]) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "simbench".into()),
    )
    .join("out");
    let path = dir.join(format!(
        "spans.{}.seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let res = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_chrome_json(spans).compact()));
    match res {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), spans.len()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

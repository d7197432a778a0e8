//! Output checks: recorded per-cell digests for fixed cells and the ISA
//! interpreter for seeded synthetic cells.

use crate::plan::{Check, Plan};
use crate::stats::fnv1a;
use std::collections::BTreeMap;
use vt_isa::interp::Interpreter;

/// What a fixed cell must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub cycles: u64,
    pub thread_instrs: u64,
    /// FNV-1a of the final global memory image.
    pub mem_fnv: u64,
}

impl Digest {
    pub fn line(&self, key: &str) -> String {
        format!(
            "{key} {} {} {:016x}",
            self.cycles, self.thread_instrs, self.mem_fnv
        )
    }
}

/// The recorded digests, compiled into the benchmark.
pub const DIGESTS: &str = include_str!("../digests.txt");

/// Parses `key cycles thread_instrs mem_fnv_hex` lines; `#` starts a
/// comment line.
pub fn parse_digests(text: &str) -> Result<BTreeMap<String, Digest>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("digests line {}: {line:?}", n + 1);
        let [key, cycles, instrs, fnv] = f[..] else {
            return Err(bad());
        };
        let d = Digest {
            cycles: cycles.parse().map_err(|_| bad())?,
            thread_instrs: instrs.parse().map_err(|_| bad())?,
            mem_fnv: u64::from_str_radix(fnv, 16).map_err(|_| bad())?,
        };
        if out.insert(key.to_string(), d).is_some() {
            return Err(format!("digests line {}: duplicate key {key}", n + 1));
        }
    }
    Ok(out)
}

/// Expected outputs for one plan.
pub struct Expect {
    digests: BTreeMap<String, Digest>,
    /// Interpreter memory-image FNV per kernel index, for
    /// [`Check::Interpreter`] cells.
    interp: BTreeMap<usize, u64>,
}

impl Expect {
    /// Loads the digests and runs the interpreter on every synthetic
    /// kernel of `plan`.
    pub fn new(plan: &Plan) -> Result<Expect, String> {
        let digests = parse_digests(DIGESTS)?;
        let mut interp = BTreeMap::new();
        for c in plan.cells.iter().filter(|c| c.check == Check::Interpreter) {
            if interp.contains_key(&c.kernel) {
                continue;
            }
            let k = &plan.kernels[c.kernel].1;
            let r = Interpreter::new(k)
                .and_then(|i| i.run())
                .map_err(|e| format!("interpreter on {}: {e}", k.name()))?;
            interp.insert(c.kernel, fnv1a(r.mem().as_words()));
        }
        Ok(Expect { digests, interp })
    }

    /// Checks cell `c`'s outputs; returns the mismatch, if any.
    pub fn check(&self, plan: &Plan, c: usize, got: &Digest) -> Result<(), String> {
        let cell = &plan.cells[c];
        match cell.check {
            Check::Digest => {
                let want = self
                    .digests
                    .get(&cell.key)
                    .ok_or_else(|| format!("{}: no recorded digest", cell.key))?;
                if want != got {
                    return Err(format!(
                        "{}: got {}, want {}",
                        cell.key,
                        got.line(""),
                        want.line("")
                    ));
                }
            }
            Check::Interpreter => {
                let want = self.interp[&cell.kernel];
                if want != got.mem_fnv {
                    return Err(format!(
                        "{}: memory image {:016x} differs from the interpreter's {want:016x}",
                        cell.key, got.mem_fnv
                    ));
                }
            }
        }
        Ok(())
    }

    /// Cycles of the baseline cell `key`, from the digests.
    pub fn cycles(&self, key: &str) -> Option<u64> {
        self.digests.get(key).map(|d| d.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_bench::geomean;
    use vt_workloads::{suite, Scale};

    #[test]
    fn recorded_digests_parse_and_cover_every_fixed_cell() {
        let d = parse_digests(DIGESTS).expect("digests parse");
        for w in crate::plan::Workload::ALL {
            let plan = Plan::build(w, 0, &mut crate::spans::Tracer::new(false));
            for c in plan.cells.iter().filter(|c| c.check == Check::Digest) {
                assert!(
                    d.contains_key(&c.key),
                    "{}: {} has no digest",
                    w.name(),
                    c.key
                );
                if let Some(b) = &c.base {
                    assert!(d.contains_key(b), "{}: baseline {b} has no digest", c.key);
                }
            }
        }
    }

    #[test]
    fn recorded_digests_reproduce_fig03() {
        let d = parse_digests(DIGESTS).expect("digests parse");
        let speedups: Vec<f64> = suite(&Scale::paper())
            .iter()
            .map(|w| {
                let c = |arch: &str| d[&format!("paper/{}/{arch}", w.name)].cycles as f64;
                c("baseline") / c("vt")
            })
            .collect();
        let g = geomean(&speedups);
        assert_eq!(format!("{g:.3}"), "1.220", "geomean {g}");
    }

    #[test]
    fn malformed_digest_lines_are_refused() {
        assert!(parse_digests("a 1 2").is_err());
        assert!(parse_digests("a 1 2 zz").is_err());
        assert!(parse_digests("a 1 2 3\na 1 2 3").is_err());
        assert!(parse_digests("# comment\n\na 1 2 ff").is_ok());
    }
}

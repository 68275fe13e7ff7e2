//! The performance-evaluation harness (Tables 7–8, Figure 9).

use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_metrics::MetricSet;
use bioperf_pipe::{CycleSim, PlatformConfig, SimResult};
use bioperf_trace::{Batched, Tape};

/// One (program, platform) cell of Table 8: both variants simulated.
#[derive(Debug, Clone, Copy)]
pub struct EvalCell {
    /// Program.
    pub program: ProgramId,
    /// Platform name.
    pub platform: &'static str,
    /// Simulation of the original source shape.
    pub original: SimResult,
    /// Simulation of the load-transformed shape.
    pub transformed: SimResult,
}

impl EvalCell {
    /// Speedup ratio (original cycles / transformed cycles).
    pub fn speedup(&self) -> f64 {
        if self.transformed.cycles == 0 {
            1.0
        } else {
            self.original.cycles as f64 / self.transformed.cycles as f64
        }
    }
}

/// The full Table 8 / Figure 9 result matrix.
#[derive(Debug, Clone, Default)]
pub struct EvalMatrix {
    /// All simulated cells, program-major in the paper's order.
    pub cells: Vec<EvalCell>,
}

impl EvalMatrix {
    /// Whether a (program, platform) cell exists in the paper's Table 8.
    /// dnapenny did not compile on the Itanium ("n.a." in the paper); the
    /// reproduction mirrors that hole so the harmonic means stay
    /// comparable.
    pub fn cell_applicable(program: ProgramId, platform: &str) -> bool {
        !(program == ProgramId::Dnapenny && platform.contains("Itanium"))
    }

    /// Runs the full evaluation: every transformed program on every
    /// platform, both variants. `scale` should be [`Scale::Large`] for
    /// the paper-shaped run (class-C-like inputs); smaller scales give
    /// the same shape faster.
    ///
    /// Each (program, variant) is executed once and its trace recorded;
    /// the four platform models then replay the recording — four
    /// simulations per kernel execution instead of four re-executions.
    ///
    /// This is the sequential entry point; it delegates to
    /// [`crate::orchestrate::evaluate_all`] with one worker, which the
    /// parallel callers also use, so both paths share one implementation.
    pub fn run(scale: Scale, seed: u64) -> Self {
        crate::orchestrate::evaluate_all(scale, seed, 1)
            .unwrap_or_else(|e| panic!("evaluation failed: {e}"))
    }

    /// Cells for one platform, in program order.
    pub fn platform_cells(&self, platform: &str) -> Vec<&EvalCell> {
        self.cells.iter().filter(|c| c.platform == platform).collect()
    }

    /// Harmonic-mean speedup for one platform (the paper's Figure 9
    /// summary bars).
    pub fn harmonic_mean_speedup(&self, platform: &str) -> f64 {
        let cells = self.platform_cells(platform);
        if cells.is_empty() {
            return 1.0;
        }
        cells.len() as f64 / cells.iter().map(|c| 1.0 / c.speedup()).sum::<f64>()
    }

    /// Exports the Table 8 / Figure 9 numbers as named series under
    /// `prefix` (conventionally `eval/`): per (program, platform) cell
    /// the simulated cycle and instruction counts of both variants plus
    /// the speedup, and per platform the harmonic-mean speedup.
    pub fn export_metrics(&self, out: &mut MetricSet, prefix: &str) {
        for cell in &self.cells {
            let c = |name: &str| {
                format!("{prefix}{}/{}/{name}", cell.program.name(), cell.platform)
            };
            out.counter_add(&c("original_cycles"), cell.original.cycles);
            out.counter_add(&c("transformed_cycles"), cell.transformed.cycles);
            out.counter_add(&c("original_instructions"), cell.original.instructions);
            out.counter_add(&c("transformed_instructions"), cell.transformed.instructions);
            out.counter_add(&c("original_mispredicts"), cell.original.mispredicts);
            out.counter_add(&c("transformed_mispredicts"), cell.transformed.mispredicts);
            out.gauge_set(&c("speedup"), cell.speedup());
        }
        let mut platforms: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if !platforms.contains(&cell.platform) {
                platforms.push(cell.platform);
            }
        }
        for platform in platforms {
            out.gauge_set(
                &format!("{prefix}harmonic_mean/{platform}"),
                self.harmonic_mean_speedup(platform),
            );
        }
    }
}

/// Simulates one program on one platform in both source shapes.
pub fn evaluate_program(
    program: ProgramId,
    platform: PlatformConfig,
    scale: Scale,
    seed: u64,
) -> EvalCell {
    let run_variant = |variant: Variant| -> SimResult {
        let mut tape = Tape::new(Batched::new(CycleSim::new(platform)));
        registry::run(&mut tape, program, variant, scale, seed);
        let (_, sim) = tape.finish();
        sim.into_inner().into_result()
    };
    EvalCell {
        program,
        platform: platform.name,
        original: run_variant(Variant::Original),
        transformed: run_variant(Variant::LoadTransformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmmsearch_speeds_up_on_alpha() {
        let cell =
            evaluate_program(ProgramId::Hmmsearch, PlatformConfig::alpha21264(), Scale::Test, 5);
        assert!(
            cell.speedup() > 1.2,
            "transformed hmmsearch must be much faster on Alpha: {:.2}",
            cell.speedup()
        );
    }

    #[test]
    fn variants_execute_comparable_work() {
        let cell =
            evaluate_program(ProgramId::Predator, PlatformConfig::alpha21264(), Scale::Test, 5);
        let ratio = cell.original.instructions as f64 / cell.transformed.instructions as f64;
        assert!((0.5..2.0).contains(&ratio), "instruction counts differ wildly: {ratio}");
    }

    #[test]
    fn dnapenny_itanium_is_not_applicable() {
        assert!(!EvalMatrix::cell_applicable(ProgramId::Dnapenny, "Itanium 2"));
        assert!(EvalMatrix::cell_applicable(ProgramId::Dnapenny, "Alpha 21264"));
        assert!(EvalMatrix::cell_applicable(ProgramId::Hmmsearch, "Itanium 2"));
    }

    #[test]
    fn matrix_covers_paper_cells() {
        let m = EvalMatrix::run(Scale::Test, 2);
        // 6 programs x 4 platforms - 1 n.a. cell.
        assert_eq!(m.cells.len(), 23);
        let hm = m.harmonic_mean_speedup("Alpha 21264");
        assert!(hm > 1.0, "Alpha harmonic mean must show a speedup: {hm}");
    }
}

//! Inspecting the run-time stage: how the *input-aware* planner reacts to
//! different matrix properties — the framework's namesake behavior.
//!
//! Every plan carries a structured explainer (`GemmPlan::explain`,
//! `TrsmPlan::explain`, `TrmmPlan::explain`) reporting the selected main
//! and edge kernel sizes, the tile grid, the pack strategy, and static
//! per-kernel schedule statistics from the code generator. This example
//! renders those reports; add `--features obs` to any real run to also get
//! live counters (see `reproduce obs`).
//!
//! ```sh
//! cargo run --release --example plan_inspect
//! ```

use iatf::obs::PlanExplain;
use iatf::prelude::*;

fn show(label: &str, ex: &PlanExplain) {
    println!("── {label}");
    for line in ex.render_text().lines() {
        println!("   {line}");
    }
}

fn describe_gemm(label: &str, m: usize, n: usize, k: usize, mode: GemmMode, batch: usize) {
    let cfg = TuningConfig::host();
    let plan =
        GemmPlan::<f32>::new(GemmDims::new(m, n, k), mode, false, false, batch, &cfg).unwrap();
    show(label, &plan.explain());
}

fn describe_trsm(label: &str, m: usize, n: usize, mode: TrsmMode, batch: usize) {
    let cfg = TuningConfig::host();
    let plan = TrsmPlan::<f64>::new(TrsmDims::new(m, n), mode, false, batch, &cfg).unwrap();
    show(label, &plan.explain());
}

fn main() {
    println!("=== input-aware GEMM planning ===============================");
    // tiny: both operands streamed in place (no-pack strategy, §4.4)
    describe_gemm("tiny", 4, 4, 4, GemmMode::NN, 1000);
    // M exceeds the 4-row kernel: three tile rows, A still streams —
    // its native strides are all the kernel needs
    describe_gemm("tall", 12, 4, 4, GemmMode::NN, 1000);
    // large square: edge kernels appear (15 = 3·4 + 3); one pack of
    // either operand is far inside the L2 bound, so both stream
    describe_gemm("15x15 (Figure 4)", 15, 15, 15, GemmMode::NN, 1000);
    // bigger matrices shrink the super-block (Batch Counter, §5.1)
    describe_gemm("L1 pressure", 33, 33, 33, GemmMode::NN, 1000);
    // transpose is an index permutation: swapped strides, no packing
    describe_gemm("transposed", 8, 8, 8, GemmMode::TT, 1000);

    println!();
    println!("=== input-aware TRSM planning ===============================");
    // register-resident triangle (M ≤ 5): single block, no rect phase
    describe_trsm("register-resident", 5, 16, TrsmMode::LNLN, 1000);
    // blocked solve with 4-row diagonal blocks
    describe_trsm("blocked", 11, 16, TrsmMode::LNLN, 1000);
    // canonical mode: B solved in place, A packs only its triangles
    describe_trsm("canonical", 8, 8, TrsmMode::LNLN, 1000);
    // upper triangle: index reversal makes it lower; B is solved in
    // place from the stored last row downwards (negative row stride)
    describe_trsm("upper", 8, 8, TrsmMode::LNUN, 1000);
    // transposed-upper is effectively lower again: A's strides swap
    describe_trsm("trans-upper", 8, 8, TrsmMode::LTUN, 1000);
    // right side: the panel is B transposed — swapped strides, in place
    describe_trsm(
        "right side",
        8,
        6,
        TrsmMode::new(Side::Right, Trans::No, Uplo::Upper, Diag::NonUnit),
        1000,
    );
}

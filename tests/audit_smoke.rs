//! Tier-1 smoke for the differential fuzz-audit subsystem.
//!
//! Runs a fixed-seed audit batch (the same entry point as
//! `igo-sim audit`) and asserts it is clean, then proves the harness has
//! teeth: a deliberately corrupted report must trip the conservation
//! checker. Failures print the reproducer seeds so the exact case can be
//! replayed with `igo-sim audit --seed S --seeds 1`.

use igo_core::{
    audit_case, check_report_conservation, run_audit, AuditCase, AuditSummary, BackwardBuilder,
    BackwardOrder, LayerTensors, TilePolicy,
};
use igo_npu_sim::{Engine, NpuConfig, Schedule};
use igo_tensor::GemmShape;

/// Fixed-seed audit batch: every differential, accounting, merge-legality
/// and Algorithm-1 check must pass. 48 seeds keeps the smoke under a
/// second while still covering single/multi-core, ragged shapes and every
/// technique.
#[test]
fn fixed_seed_audit_batch_is_clean() {
    let summary = run_audit(48, 0x1960);
    assert!(
        summary.passed(),
        "audit regression; rerun failing seeds {:?} with `igo-sim audit --seed S --seeds 1`\n{}",
        summary.reproducer_seeds(),
        summary.to_json()
    );
    assert_eq!(summary.cases, 48);
    assert!(summary.checks >= 5 * 48, "checks = {}", summary.checks);
}

/// `run_audit` fans its cases over the worker pool; the summary must be
/// exactly the one built by auditing the same seeds one after another.
#[test]
fn pooled_audit_matches_sequential_cases() {
    let mut want = AuditSummary::default();
    for seed in 0x1960..0x1960 + 48 {
        let (violations, checks) = audit_case(&AuditCase::from_seed(seed));
        want.cases += 1;
        want.checks += checks;
        want.violations.extend(violations);
    }
    assert_eq!(run_audit(48, 0x1960).to_json(), want.to_json());
}

/// The audit must not be vacuous: corrupting a genuine engine report in a
/// single accounting class has to produce a violation.
#[test]
fn audit_catches_injected_accounting_bug() {
    let config = NpuConfig::small_edge();
    let policy = TilePolicy::for_config(&config);
    let mut proto = Schedule::new("smoke");
    let tensors = LayerTensors::register(&mut proto, "layer");
    let mut schedule = proto.fork("bwd");
    BackwardBuilder::new(GemmShape::new(120, 96, 72), policy, tensors).emit(
        BackwardOrder::Interleaved,
        false,
        &mut schedule,
    );

    let clean = Engine::new(&config).run(&schedule);
    assert!(
        check_report_conservation(&schedule, &config, &clean, 0).is_empty(),
        "clean report must pass"
    );

    let mut corrupted = clean;
    corrupted.spm_misses += 1;
    let violations = check_report_conservation(&schedule, &config, &corrupted, 0);
    assert!(
        violations
            .iter()
            .any(|v| v.check == "access-conservation" || v.check == "hit-miss-mismatch"),
        "injected miscount not caught: {violations:?}"
    );
}

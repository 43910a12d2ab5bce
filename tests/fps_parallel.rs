//! Differential tests for FPS under the matrix fan-out: `verify_matrix`
//! and `run_catalog` run many sequential FPS checks at once on the
//! `parfait_parallel` pool, sharing firmware images, predecoded
//! instruction caches and the process-wide memos. Every concurrent run
//! must be observationally identical to the same check run alone —
//! same reports on passing scripts (modulo wall/cpu timing),
//! byte-identical `FpsError`s (same cycle, op index, everything) with
//! the same partial statistics on failing ones — at fan-out widths 2
//! and 8.

mod common;

use common::{cmd, standard_script, token_fps, RunOutcome, TokenFps, TOKEN_LC};
use parfait_knox2::{FpsError, HostOp};
use parfait_parallel::parallel_map;

const THREADS: [usize; 2] = [2, 8];

/// Reports must agree on everything except wall/cpu timing.
fn assert_same_pass(alone: &RunOutcome, fanned: &RunOutcome, label: &str) {
    let a = alone.result.as_ref().unwrap_or_else(|e| panic!("{label}: lone run failed: {e}"));
    let b = fanned.result.as_ref().unwrap_or_else(|e| panic!("{label}: fanned run failed: {e}"));
    assert_eq!(a.cycles, b.cycles, "{label}: cycles");
    assert_eq!(a.commands, b.commands, "{label}: commands");
    assert_eq!(a.spec_queries, b.spec_queries, "{label}: spec queries");
    // On success both runs leave their worlds in the same final states.
    assert_eq!(alone.final_state, fanned.final_state, "{label}: real-world final state");
    assert_eq!(alone.spec_state, fanned.spec_state, "{label}: ideal-world spec state");
    assert_eq!(alone.spec_responses, fanned.spec_responses, "{label}: spec responses");
}

/// Failures must be byte-identical, including the partial statistics
/// accumulated up to the failure point.
fn assert_same_fail(alone: &RunOutcome, fanned: &RunOutcome, label: &str) -> FpsError {
    let a = alone.result.as_ref().err().unwrap_or_else(|| panic!("{label}: lone run passed"));
    let b = fanned.result.as_ref().err().unwrap_or_else(|| panic!("{label}: fanned run passed"));
    assert_eq!(a.error, b.error, "{label}: error");
    assert_eq!(a.partial.cycles, b.partial.cycles, "{label}: partial cycles");
    assert_eq!(a.partial.commands, b.partial.commands, "{label}: partial commands");
    assert_eq!(a.partial.spec_queries, b.partial.spec_queries, "{label}: partial spec queries");
    a.error.clone()
}

/// `threads` copies of the same check, run concurrently on the pool.
fn fanned(fps: &TokenFps, script: &[HostOp], threads: usize) -> Vec<RunOutcome> {
    parallel_map(threads, vec![(); threads], |_, ()| fps.run(script))
}

fn differential_pass(fps: &TokenFps, script: &[HostOp], label: &str) {
    let alone = fps.run(script);
    for t in THREADS {
        for (i, run) in fanned(fps, script, t).iter().enumerate() {
            assert_same_pass(&alone, run, &format!("{label}@{t}#{i}"));
        }
    }
}

fn differential_fail(fps: &TokenFps, script: &[HostOp], label: &str) -> FpsError {
    let alone = fps.run(script);
    let mut err = None;
    for t in THREADS {
        for (i, run) in fanned(fps, script, t).iter().enumerate() {
            err = Some(assert_same_fail(&alone, run, &format!("{label}@{t}#{i}")));
        }
    }
    err.unwrap()
}

// --- passing scripts -------------------------------------------------------

#[test]
fn clean_standard_script_is_identical() {
    let fps = token_fps();
    differential_pass(fps, &standard_script(), "standard");
}

#[test]
fn garbage_and_idle_boundaries_are_identical() {
    let fps = token_fps();
    // A partial command split across two Garbage ops leaves bytes
    // pending at an op boundary; the completed garbage command's
    // response must still bind to the spec.
    let garbage = cmd(0x77, 0xABCD);
    let script = vec![
        HostOp::Command(cmd(3, 5)),
        HostOp::Idle(500),
        HostOp::Garbage(garbage[..2].to_vec()),
        HostOp::Garbage(garbage[2..].to_vec()),
        HostOp::Command(cmd(2, 1)),
        HostOp::Idle(1),
        HostOp::Command(cmd(3, 0)),
    ];
    differential_pass(fps, &script, "garbage+idle");
}

#[test]
fn trivial_scripts_are_identical() {
    let fps = token_fps();
    differential_pass(fps, &[], "empty");
    differential_pass(fps, &[HostOp::Idle(2_000)], "idle-only");
}

// --- injected divergences (the §7.2 catalog) -------------------------------

#[test]
fn secret_branch_divergence_is_identical() {
    let buggy = TOKEN_LC.replace(
        "u32 secret = ld32(state);",
        "u32 secret = ld32(state); if (secret > 1000) { u32 w = 0; for (u32 i = 0; i < 50; i = i + 1) { w = w + i; } st32(resp + 1, w); }",
    );
    assert_ne!(buggy, TOKEN_LC);
    let fps = TokenFps::build(&buggy, None, None, |a| a);
    let err = differential_fail(&fps, &standard_script(), "secret-branch");
    assert!(
        matches!(err, FpsError::TraceDivergence { .. } | FpsError::Leak { .. }),
        "expected a leak symptom, got {err}"
    );
}

#[test]
fn compiler_timing_divergence_is_identical() {
    let patch = |asm: String| {
        asm.replacen("handle:", "handle:\n    lbu t0, 0(a0)\n    beqz t0, 12\n    nop\n    nop", 1)
    };
    let fps = TokenFps::build(TOKEN_LC, None, None, patch);
    let err = differential_fail(&fps, &standard_script(), "compiler-timing");
    assert!(
        matches!(err, FpsError::TraceDivergence { .. } | FpsError::Leak { .. }),
        "expected a timing divergence, got {err}"
    );
}

#[test]
fn variable_latency_divergence_is_identical() {
    // `secret / (arg|1)`: divider latency depends on the secret. The
    // spec is built from the same buggy source (the bug is *hardware*
    // latency, not functional behavior).
    let buggy = TOKEN_LC.replace(
        "st32(resp + 1, (secret * 2654435761 + c) ^ arg);",
        "st32(resp + 1, (secret / (arg | 1)) + c);",
    );
    assert_ne!(buggy, TOKEN_LC);
    let fps = TokenFps::build(&buggy, None, Some(&buggy), |a| a);
    let err = differential_fail(&fps, &[HostOp::Command(cmd(3, 5))], "variable-latency");
    assert!(
        matches!(err, FpsError::TraceDivergence { .. } | FpsError::Leak { .. }),
        "expected latency divergence, got {err}"
    );
}

#[test]
fn stack_overflow_fault_is_identical() {
    let buggy = TOKEN_LC
        .replace("u32 secret = ld32(state);", "u32 secret = ld32(state) + burn(400);")
        + "
    u32 burn(u32 n) {
        u32 big[256];
        big[0] = n;
        if (n == 0) { return 0; }
        return big[0] + burn(n - 1);
    }
    ";
    let fps = TokenFps::build(&buggy, None, None, |a| a);
    let err = differential_fail(&fps, &[HostOp::Command(cmd(3, 1))], "stack-overflow");
    assert!(
        matches!(
            err,
            FpsError::Fault { .. } | FpsError::TraceDivergence { .. } | FpsError::Timeout { .. }
        ),
        "expected a fault, got {err}"
    );
}

#[test]
fn io_encoding_mismatch_is_identical() {
    // write_response sends the bytes in reverse order. Both circuit
    // instances share the bug, so their traces agree — the end-of-script
    // spec binding catches it, in every run, identically.
    let buggy_syssw = parfait_hsms::syssw::syssw_source(common::STATE, common::CMD, common::RESP)
        .replace(
            "void write_response(u8* resp) {\n    for (u32 i = 0; i < 5; i = i + 1) {\n        ss_write_byte(resp[i]);",
            "void write_response(u8* resp) {\n    for (u32 i = 0; i < 5; i = i + 1) {\n        ss_write_byte(resp[4 - i]);",
        );
    assert!(buggy_syssw.contains("resp[4 - i]"), "injection must apply");
    let fps = TokenFps::build(TOKEN_LC, Some(&buggy_syssw), None, |a| a);
    let err = differential_fail(&fps, &standard_script(), "io-encoding");
    assert!(matches!(err, FpsError::ResponseMismatch { .. }), "expected a mismatch, got {err}");
}

//! Differential validation of the bound stage (DESIGN.md §16): the
//! *certified* bounds must dominate what the wire-level simulation
//! *observes*, for every production firmware at every optimization
//! level its verification covers.
//!
//! Two inequalities per (app × opt) cell, both read off certificates:
//!
//! * certified WCET ≥ the FPS report's simulated cycle count (the
//!   whole dual-world script, boot included);
//! * certified worst-case stack depth ≥ the observed high-water mark
//!   (the lowest stack address the real SoC stored to, recorded by
//!   `Soc::stack_high_water` during the FPS run).
//!
//! A violation of either is a soundness bug in the static analysis —
//! there is no tolerance, slack may only be positive. The test also
//! pins the derived-timeout plumbing: the FPS budget a cell runs under
//! comes from its own bound certificate, not the last-resort constant.

use parfait_hsms::platform::Cpu;
use parfait_knox2::{FpsConfig, FpsObserver};
use parfait_pipeline::{CertCache, Pipeline, StdApp};
use parfait_soc::STACK_FLOOR;
use parfait_telemetry::Telemetry;

fn pipeline() -> Pipeline {
    Pipeline::new(CertCache::disabled(), Telemetry::disabled())
}

fn stat(cert: &parfait_pipeline::StageCertificate, name: &str) -> i64 {
    cert.stat(name).unwrap_or_else(|| panic!("{} certificate lacks stat {name}", cert.app))
}

/// Every production firmware certifies on both platforms at every opt
/// level, with a finite WCET and a stack envelope inside the region.
#[test]
fn production_firmwares_certify_on_both_platforms() {
    let p = pipeline();
    for app in [StdApp::Hasher, StdApp::Totp, StdApp::Ecdsa] {
        let a = app.pipeline();
        for &opt in &a.opt_levels.clone() {
            for cpu in [Cpu::Ibex, Cpu::Pico] {
                let b = p
                    .bound_stage(&a, cpu, opt)
                    .unwrap_or_else(|e| panic!("{}/{cpu}/{opt}: {e}", a.slug));
                let wcet = stat(&b.certificate, "wcet_cycles");
                let depth = stat(&b.certificate, "stack_depth");
                let top = stat(&b.certificate, "stack_top");
                assert!(wcet > 0, "{}/{cpu}/{opt}: WCET must be positive", a.slug);
                assert!(
                    wcet < i64::MAX,
                    "{}/{cpu}/{opt}: WCET must be finite, not saturated",
                    a.slug
                );
                assert!(depth > 0, "{}/{cpu}/{opt}: stack depth must be positive", a.slug);
                assert!(
                    top - depth >= STACK_FLOOR as i64,
                    "{}/{cpu}/{opt}: certified envelope [{:#x}, {:#x}) leaves the stack region",
                    a.slug,
                    top - depth,
                    top
                );
                assert!(stat(&b.certificate, "functions") > 0, "{}: call graph empty", a.slug);
                assert!(stat(&b.certificate, "loops") > 0, "{}: no loops bounded", a.slug);
            }
        }
    }
}

/// Certified WCET ≥ observed cycles and certified depth ≥ observed
/// stack high-water, for every production firmware at every opt level
/// (one platform: the inequalities are per-firmware; the cross-platform
/// certification is covered above, and simulating ECDSA twice would
/// double the suite's most expensive run for no new claim).
#[test]
fn certified_bounds_dominate_observation() {
    let p = pipeline();
    let obs = FpsObserver::default();
    for app in [StdApp::Hasher, StdApp::Totp, StdApp::Ecdsa] {
        let a = app.pipeline();
        for &opt in &a.opt_levels.clone() {
            let cell = format!("{}/Ibex/{opt}", a.slug);
            let bound = p.bound_stage(&a, Cpu::Ibex, opt).expect(&cell);
            let fps = p
                .fps_stage_bounded(&a, Cpu::Ibex, opt, &obs, 1, &bound)
                .unwrap_or_else(|e| panic!("{cell}: FPS under derived budget failed: {e}"));

            let wcet = stat(&bound.certificate, "wcet_cycles");
            let observed = stat(&fps.certificate, "cycles");
            assert!(
                wcet >= observed,
                "{cell}: certified WCET {wcet} < observed {observed} — unsound cycle bound"
            );

            let depth = stat(&bound.certificate, "stack_depth");
            let top = stat(&bound.certificate, "stack_top");
            let low_water = stat(&fps.certificate, "stack_min_addr");
            assert!(
                top - depth <= low_water,
                "{cell}: certified floor {:#x} above observed low store {low_water:#x} — \
                 unsound stack bound",
                top - depth
            );

            // The budget the cell actually ran under is priced off its
            // own certificate, far below the last-resort constant.
            let derived = FpsConfig::timeout_from_wcet(wcet as u64);
            assert!(observed as u64 <= derived, "{cell}: honest run exceeded derived budget");
            assert!(
                derived < 8_000_000_000,
                "{cell}: derived budget should undercut the last-resort constant"
            );
        }
    }
}

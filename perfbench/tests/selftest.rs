//! Self-test of the benchmark drivers on shrunk windows: a profiled pass
//! must reproduce an unprofiled one exactly, and each driver's measured
//! window must equal the program's own run of it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use oltp::service_graph::{self, ProdParams, RunOpts};
use oltp::workload::{OpenLoop, TokenBucket, WorkloadCfg};
use oltp::{dipc_stack, linux_stack, OltpParams, StorageKind};
use perfbench::{OltpShape, Pass, ProdShape, Profile, Report, Spec, BUCKET_BURST, BUCKET_RATE};

fn small_oltp() -> OltpShape {
    OltpShape { conc: 16, warm_ms: 30, measure_ms: 60 }
}

fn small_prod(seed: u64) -> ProdShape {
    ProdShape {
        sessions: 4_000,
        rate: 650_000,
        window_ns: 3_000_000,
        seed,
        warm_window_ns: 1_000_000,
        warm_seed: 7,
    }
}

/// Runs an unprofiled and a profiled pass and checks they agree.
fn traced_equals_untraced(spec: Spec) -> (Pass, Profile) {
    let plain = spec.pass(None);
    let mut prof = Profile::default();
    let traced = spec.pass(Some(&mut prof));
    let report = Report::new(vec![plain.clone()], vec![(traced, prof.clone())]);
    assert!(report.mismatches.is_empty(), "{spec:?}: {:?}", report.mismatches);
    assert!(prof.steps.iter().sum::<u64>() > 0, "{spec:?}: the profile saw no step");
    let window = report.traced[0].0.window.raw_ns;
    let in_steps: u64 = prof.ns.iter().sum::<u64>() + prof.inject_ns;
    assert!(in_steps <= window, "{spec:?}: profiled time exceeds the window");
    assert!(!report.per_layer().is_empty());
    let mut tampered = plain.clone();
    *tampered.sim.get_mut("ops").expect("ops is reported") += 1.0;
    let caught = Report::new(vec![plain.clone(), tampered], Vec::new());
    assert_eq!(caught.mismatches.len(), 1, "{spec:?}: a changed output must be caught");
    (plain, prof)
}

#[test]
fn oltp_drivers_match_stack_run_and_profiling_is_passive() {
    let shape = small_oltp();
    for (dipc, spec) in [(false, Spec::OltpLinux(shape)), (true, Spec::OltpDipc(shape))] {
        let (pass, prof) = traced_equals_untraced(spec);
        let p = OltpParams::with(shape.conc, StorageKind::InMemory);
        let mut st = if dipc { dipc_stack::build(&p) } else { linux_stack::build(&p) };
        let r = st.run(shape.warm_ms, shape.measure_ms, shape.conc);
        assert!(r.ops > 0, "{spec:?}: no operation completed");
        assert_eq!(pass.sim["ops"], r.ops as f64, "{spec:?}");
        assert_eq!(pass.sim["ops_per_min"].to_bits(), r.ops_per_min.to_bits(), "{spec:?}");
        assert_eq!(
            pass.sim["simkernel.sim_frac.user"].to_bits(),
            r.breakdown.fraction(simkernel::TimeCat::User).to_bits(),
            "{spec:?}"
        );
        assert_eq!(pass.sim["sim.samples"] + pass.sim["sim.unsampled"], pass.sim["ops"]);
        if !dipc {
            assert!(prof.steps[1] > 0, "the Linux stack must take syscall steps");
        }
    }
}

#[test]
fn prod_redrive_matches_run_open_loop_on_a_non_default_seed() {
    let shape = small_prod(0x5EED_1234);
    let (pass, prof) = traced_equals_untraced(Spec::Prod(shape));
    assert!(prof.inject_ns > 0, "the open loop must inject");

    let mut s = service_graph::build(&ProdParams::production());
    let mut cfg = WorkloadCfg::production(shape.seed, shape.rate as f64, shape.window_ns);
    cfg.sessions = shape.sessions;
    let mut gen = OpenLoop::new(cfg);
    let mut tb = TokenBucket::new(BUCKET_RATE, BUCKET_BURST);
    let r = s.run_open_loop(&mut gen, &mut tb, &RunOpts::default());
    assert!(r.completed > 0, "the graph must complete requests");
    let sim = &pass.sim;
    for (key, want) in [
        ("oltp.offered", r.offered as f64),
        ("oltp.admitted", r.admitted as f64),
        ("oltp.shed_bucket", r.shed_bucket as f64),
        ("oltp.shed_ring", r.shed_ring as f64),
        ("oltp.shed_queue", r.guest.shed_queue as f64),
        ("oltp.shed_app", r.guest.shed_app as f64),
        ("oltp.failed", r.guest.failed as f64),
        ("ops", r.completed as f64),
        ("sim.samples", r.samples as f64),
        ("sim_p50_us", r.p50_us),
        ("sim_p99_us", r.p99_us),
        ("sim_throughput_per_s", r.throughput_per_s),
        ("oltp.tenant_touches", r.tenant_touches as f64),
    ] {
        assert_eq!(
            sim[key].to_bits(),
            want.to_bits(),
            "{key}: {} vs run_open_loop {want}",
            sim[key]
        );
    }
    assert_eq!(sim["done_frac"], r.goodput_frac());
}

//! Every workload through the benchmark's own code path at a tiny size:
//! each metric `BENCHMARK.json` names comes out present, finite and in
//! its unit, and every output check passes.

use wspbench::spec::BenchSpec;
use wspbench::{run, Params, Size, Workload};

fn smoke(workload: Workload) {
    let spec = BenchSpec::load();
    for trace in [false, true] {
        let params = Params {
            seed: 3,
            seconds: 0.0,
            trace,
            size: Size::TINY,
        };
        let out = run(workload, &params);
        let name = workload.name();
        assert_eq!(out.checks.failed, 0, "{name}: {:?}", out.checks.failures);
        assert!(out.checks.attempted > 0, "{name}: nothing was checked");
        assert_eq!(
            out.trace.is_some(),
            trace,
            "{name}: span tree only when traced"
        );
        let wanted = if trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        for want in wanted {
            let got = out
                .metrics
                .iter()
                .find(|m| m.name == want.name)
                .unwrap_or_else(|| panic!("{name}: no metric {}", want.name));
            assert!(
                got.value.is_finite(),
                "{name}: {} = {}",
                got.name,
                got.value
            );
            assert_eq!(got.unit, want.unit, "{name}: unit of {}", got.name);
            if !trace {
                assert!(got.value > 0.0, "{name}: {} reads 0", got.name);
            }
        }
    }
}

#[test]
fn explore_cold() {
    smoke(Workload::ExploreCold);
}

#[test]
fn explore_warm() {
    smoke(Workload::ExploreWarm);
}

#[test]
fn iss_fast() {
    smoke(Workload::IssFast);
}

#[test]
fn iss_inorder() {
    smoke(Workload::IssInorder);
}

#[test]
fn iss_ooo() {
    smoke(Workload::IssOoo);
}

#[test]
fn serve_mixed() {
    smoke(Workload::ServeMixed);
}

#[test]
fn benchmark_json_describes_these_workloads() {
    let spec = BenchSpec::load();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
}

//! Every workload at reduced size through every gate, plus the contract
//! between the metric catalog and `BENCHMARK.json`.

use mbta_dispatchbench::inputs::{self, Scale};
use mbta_dispatchbench::metrics::{END_TO_END, PER_LAYER};
use mbta_dispatchbench::{report, run, Workload};
use std::path::PathBuf;

fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("dispatchbench-{tag}"))
}

#[test]
fn every_workload_passes_every_gate_at_reduced_size() {
    for w in Workload::ALL {
        let dir = work_dir(w.name());
        let r = run(w, 7, f64::MIN_POSITIVE, true, Scale::Reduced, &dir).expect("run completes");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            r.passes.len(),
            2,
            "{}: one untraced and one traced pass",
            w.name()
        );
        for p in &r.passes {
            assert!(p.events > 0, "{}: no events", w.name());
            for g in &p.gates {
                assert!(g.ok, "{}: gate {} failed: {}", w.name(), g.name, g.detail);
            }
            assert_eq!(p.failed, 0, "{}: refused or lost operations", w.name());
        }
        let traced = r.passes.iter().find(|p| p.traced).expect("a traced pass");
        let b = traced.breakdown.as_ref().expect("traced passes break down");
        let sum: f64 = b.rows.iter().sum();
        assert!(
            (sum - b.wall_s).abs() <= 1e-9 * b.wall_s.max(1.0),
            "{}: breakdown sums to {sum}, wall {}",
            w.name(),
            b.wall_s
        );
        let spans = traced.tracer.as_ref().expect("traced passes keep spans");
        assert!(spans
            .spans()
            .iter()
            .any(|s| s.name == "run" && s.parent.is_none()));

        let rendered = report::render(&r);
        let last = rendered.result;
        assert!(last.starts_with("{\"correct\": true, "), "{last}");
        for (name, _) in PER_LAYER {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
        }
        assert!(!last.contains("null"), "{last}");
    }
}

#[test]
fn inputs_repeat_exactly_for_a_seed() {
    for w in Workload::ALL {
        let a = inputs::build(w, 11, 3, Scale::Reduced).expect("inputs");
        let b = inputs::build(w, 11, 3, Scale::Reduced).expect("inputs");
        let c = inputs::build(w, 12, 3, Scale::Reduced).expect("inputs");
        let d = inputs::build(w, 11, 4, Scale::Reduced).expect("inputs");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events.len(), y.events.len());
            assert!(x
                .events
                .iter()
                .zip(&y.events)
                .all(|(p, q)| p.time.to_bits() == q.time.to_bits() && p.event == q.event));
            assert_eq!(x.weights, y.weights);
            assert_eq!(x.trace.render(), y.trace.render());
        }
        assert_ne!(a[0].trace.render(), c[0].trace.render(), "the seed matters");
        assert_ne!(
            a[0].trace.render(),
            d[0].trace.render(),
            "each pass draws anew"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_catalog() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let names = text.matches("\"name\": ").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len(),
        "one entry per workload and metric"
    );
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit, better) in END_TO_END {
        assert!(
            text.contains(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\""
            )),
            "{name}"
        );
    }
    for (name, unit) in PER_LAYER {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
    }
}

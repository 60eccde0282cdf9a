//! Turns a [`Run`] into the detail report and the one-line result.

use crate::metrics::{unit, END_TO_END, PER_LAYER};
use crate::stats::{median, nan0, quantile};
use crate::{Pass, Run, Workload};
use std::fmt::Write as _;
use std::path::Path;

/// A metric value with the sample count behind it; `None` = n/a.
struct Value {
    value: Option<f64>,
    samples: usize,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn untraced(run: &Run) -> impl Iterator<Item = &Pass> {
    run.passes.iter().filter(|p| !p.traced)
}

fn traced(run: &Run) -> impl Iterator<Item = &Pass> {
    run.passes.iter().filter(|p| p.traced)
}

/// Operations attempted and failed: events and requests, plus one per
/// correctness gate.
fn operations<'a>(passes: impl Iterator<Item = &'a Pass>) -> (u64, u64) {
    passes.fold((0, 0), |(attempted, failed), p| {
        (
            attempted + p.attempted + p.gates.len() as u64,
            failed + p.failed + p.gates.iter().filter(|g| !g.ok).count() as u64,
        )
    })
}

fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> Value {
    let v: Vec<f64> = passes.iter().map(|p| f(p)).collect();
    Value {
        value: (!v.is_empty()).then(|| median(&v)),
        samples: v.len(),
    }
}

fn pooled(samples: Vec<f64>, q: f64) -> Value {
    Value {
        value: (!samples.is_empty()).then(|| quantile(&samples, q)),
        samples: samples.len(),
    }
}

/// All thirteen end-to-end metrics over the untraced passes, in
/// report order. Metrics a workload does not have are n/a.
fn end_to_end(run: &Run) -> Vec<(&'static str, Value)> {
    let passes: Vec<&Pass> = untraced(run).collect();
    let cluster = run.workload == Workload::ClusterTcp;
    let decisions: Vec<f64> = passes.iter().flat_map(|p| p.decision_ms.clone()).collect();
    let acks: Vec<f64> = passes.iter().flat_map(|p| p.ack_ms.clone()).collect();
    let solves: u64 = passes.iter().map(|p| p.solves).sum();
    let exact: u64 = passes.iter().map(|p| p.tiers[0]).sum();
    let (attempted, failed) = operations(passes.iter().copied());
    let na = || Value {
        value: None,
        samples: 0,
    };
    vec![
        (
            "setup_s",
            Value {
                value: Some(median(&run.setup_s)),
                samples: run.setup_s.len(),
            },
        ),
        ("events_per_sec", median_of(&passes, Pass::events_per_sec)),
        ("finish_s", median_of(&passes, |p| p.finish_s)),
        (
            "decision_p50_ms",
            if cluster {
                na()
            } else {
                pooled(decisions.clone(), 0.5)
            },
        ),
        (
            "decision_p99_ms",
            if cluster {
                na()
            } else {
                pooled(decisions.clone(), 0.99)
            },
        ),
        (
            "decision_p999_ms",
            if cluster {
                na()
            } else {
                pooled(decisions, 0.999)
            },
        ),
        (
            "ack_p50_ms",
            if cluster {
                pooled(acks.clone(), 0.5)
            } else {
                na()
            },
        ),
        (
            "ack_p99_ms",
            if cluster { pooled(acks, 0.99) } else { na() },
        ),
        ("live_value", median_of(&passes, |p| p.live_value)),
        ("final_value", median_of(&passes, |p| p.final_value)),
        (
            "exact_share",
            if solves > 0 {
                Value {
                    value: Some(exact as f64 / solves as f64),
                    samples: solves as usize,
                }
            } else {
                na()
            },
        ),
        (
            "failed_frac",
            Value {
                value: Some(failed as f64 / attempted.max(1) as f64),
                samples: attempted as usize,
            },
        ),
        ("peak_rss_mb", median_of(&passes, |p| p.peak_rss_mb)),
    ]
}

/// Per-layer metrics: the median over traced passes, plus the tracing
/// overhead and the end-to-end metrics that only some workloads have.
fn per_layer(run: &Run, e2e: &[(&'static str, Value)]) -> Vec<(&'static str, f64, bool)> {
    let traced_passes: Vec<&Pass> = traced(run).collect();
    // Passes 2j (untraced) and 2j + 1 (traced) ran the same market.
    let overhead_pct = median(
        &run.passes
            .chunks_exact(2)
            .map(|p| (1.0 - p[1].events_per_sec() / p[0].events_per_sec()) * 100.0)
            .collect::<Vec<_>>(),
    );
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            if let Some((_, v)) = e2e.iter().find(|(n, _)| *n == name) {
                return (name, v.value.unwrap_or(0.0), v.value.is_some());
            }
            if name == "trace.overhead_pct" {
                return (name, nan0(overhead_pct), true);
            }
            let applies = traced_passes.iter().any(|p| p.layers.applies(name));
            let v = median(
                &traced_passes
                    .iter()
                    .map(|p| p.layers.get(name))
                    .collect::<Vec<_>>(),
            );
            (name, nan0(v), applies)
        })
        .collect()
}

/// The commit the checkout was made from, when it says.
fn commit() -> String {
    let from_git = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            None => Some(head.to_string()),
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
                .ok()
                .map(|s| s.trim().to_string()),
        }
    };
    from_git()
        .or_else(|| std::env::var("BENCH_COMMIT").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The rendered outputs of a run.
pub struct Rendered {
    /// Everything measured, as one JSON object.
    pub detail: String,
    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub result: String,
}

/// Renders `run`.
pub fn render(run: &Run) -> Rendered {
    let e2e = end_to_end(run);
    let layers = run.trace.then(|| per_layer(run, &e2e));
    let all = || run.passes.iter();
    let correct = all().all(|p| p.gates.iter().all(|g| g.ok));
    let (attempted, failed) = operations(all());

    let values: Vec<(&str, f64)> = match &layers {
        None => END_TO_END
            .iter()
            .map(|&(name, _, _)| {
                let v = e2e
                    .iter()
                    .find(|(n, _)| *n == name)
                    .and_then(|(_, v)| v.value);
                (name, v.unwrap_or(f64::NAN))
            })
            .collect(),
        Some(layers) => layers.iter().map(|&(name, v, _)| (name, v)).collect(),
    };
    let metrics: Vec<String> = values
        .iter()
        .map(|&(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit(name))
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );

    let mut d = String::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let solves: u64 = all().map(|p| p.solves).sum();
    let tier = |i: usize| all().map(|p| p.tiers[i]).sum::<u64>();
    let _ = write!(
        d,
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host_cores\": {cores}, \
         \"commit\": {}, \"passes\": {}, \"traced_passes\": {}, \"events\": {}, \
         \"tier_mix\": {{\"solves\": {solves}, \"exact\": {}, \"approximate\": {}, \
         \"degraded\": {}}}",
        json_str(run.workload.name()),
        run.seed,
        run.trace,
        json_str(&commit()),
        run.passes.len(),
        traced(run).count(),
        run.input_events,
        tier(0),
        tier(1),
        tier(2),
    );
    let e2e_json: Vec<String> = e2e
        .iter()
        .map(|(name, v)| match v.value {
            Some(x) => format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(name),
                json_num(x),
                json_str(unit(name)),
                v.samples
            ),
            None => format!("{}: \"n/a\"", json_str(name)),
        })
        .collect();
    let _ = write!(d, ", \"end_to_end\": {{{}}}", e2e_json.join(", "));
    if let Some(layers) = &layers {
        let l: Vec<String> = layers
            .iter()
            .map(|&(name, v, applies)| {
                if applies {
                    format!("{}: {}", json_str(name), json_num(v))
                } else {
                    format!("{}: \"n/a\"", json_str(name))
                }
            })
            .collect();
        let _ = write!(d, ", \"per_layer\": {{{}}}", l.join(", "));
    }
    if let Some(b) = traced(run).filter_map(|p| p.breakdown.as_ref()).last() {
        let rows: Vec<String> = crate::spans::ROWS
            .iter()
            .zip(b.rows)
            .map(|(name, s)| format!("{}: {}", json_str(name), json_num(s)))
            .collect();
        let _ = write!(
            d,
            ", \"breakdown_s\": {{\"run_wall\": {}, {}}}, \"unattributed_share\": {}",
            json_num(b.wall_s),
            rows.join(", "),
            json_num(b.unattributed_share())
        );
    }
    let gates: Vec<String> = run
        .passes
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.gates.iter().map(move |g| (i, g)))
        .filter(|(i, g)| !g.ok || *i + 1 == run.passes.len())
        .map(|(i, g)| {
            format!(
                "{{\"pass\": {i}, \"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&g.name),
                g.ok,
                json_str(&g.detail)
            )
        })
        .collect();
    let per_pass: Vec<String> = run
        .passes
        .iter()
        .map(|p| {
            format!(
                "{{\"traced\": {}, \"events\": {}, \"setup_s\": {}, \"events_per_sec\": {}, \
                 \"finish_s\": {}, \"live_value\": {}, \"final_value\": {}, \
                 \"peak_rss_mb\": {}}}",
                p.traced,
                p.events,
                json_num(p.setup_s),
                json_num(p.events_per_sec()),
                json_num(p.finish_s),
                json_num(p.live_value),
                json_num(p.final_value),
                json_num(p.peak_rss_mb)
            )
        })
        .collect();
    let _ = write!(d, ", \"per_pass\": [{}]", per_pass.join(", "));
    let _ = write!(d, ", \"gates\": [{}]}}", gates.join(", "));
    Rendered { detail: d, result }
}

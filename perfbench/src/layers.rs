//! Per-layer figures for the traced run.
//!
//! Serve-stage times come from the program's own `serve.*` spans; every
//! other layer is timed from outside by calling the crate's public
//! functions on the frames the traced window sent. A layer a workload
//! never reaches reports 0.

use crate::client::Checked;
use crate::report::Metric;
use crate::stats::{p50, percentile, time};
use crate::traffic::{Expect, Traffic};
use bagcq_arith::Nat;
use bagcq_containment::ContainmentChoice;
use bagcq_engine::{EngineConfig, EvalEngine, Job};
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_obs::{Event, EventKind};
use bagcq_query::Query;
use bagcq_serve::{parse_check_request, parse_count_request};
use bagcq_structure::Structure;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.memo_hit_share", "share"),
    ("serve.stage_parse_us_p50", "us"),
    ("serve.stage_admit_us_p50", "us"),
    ("serve.stage_count_us_p50", "us"),
    ("serve.stage_respond_us_p50", "us"),
    ("serve.stage_sum_us_p50", "us"),
    ("serve.client_us_p50", "us"),
    ("serve.residual_us_p50", "us"),
    ("wire.parse_count_us_p50", "us"),
    ("wire.parse_check_us_p50", "us"),
    ("wire.parse_ns_per_fact", "ns"),
    ("engine.hop_us_p50", "us"),
    ("engine.hop_us_p99", "us"),
    ("engine.overhead_us_p50", "us"),
    ("engine.cache_hit_ratio", "share"),
    ("homcount.count_us_p50", "us"),
    ("homcount.count_us_p99", "us"),
    ("homcount.auto_share.fast-naive", "share"),
    ("homcount.auto_share.fast-treewidth", "share"),
    ("containment.check_us_p50.bag-search", "us"),
    ("containment.check_us_p50.set-chandra-merlin", "us"),
    ("containment.check_us_p50.set-ucq", "us"),
    ("containment.check_us_p50.bag-ucq", "us"),
    ("containment.unknown_share", "share"),
    ("containment.unknown_ms_p50", "ms"),
    ("reduction.correct_database_us_p50", "us"),
    ("reduction.compare_phi_ms_p50", "ms"),
    ("homcount.power_self_ms_per_point", "ms"),
    ("homcount.treedec_self_ms_per_point", "ms"),
    ("homcount.bagsweep_self_ms_per_point", "ms"),
    ("homcount.naive_self_ms_per_point", "ms"),
    ("arith.acc_promotions", "count"),
    ("trace.overhead_throughput_ops_s", "1/s"),
    ("trace.overhead_latency_p50_ms", "ms"),
];

/// Per-layer values by name; [`Metrics::into_per_layer`] lays them out
/// as [`PER_LAYER`], 0 where a workload did not reach the layer.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(key, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Metrics) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }

    pub fn into_per_layer(self) -> Vec<Metric> {
        PER_LAYER.iter().map(|(name, unit)| Metric::new(name, self.get(name), unit)).collect()
    }
}

/// Median per-request time in each serve stage.
#[derive(Debug, Default)]
pub struct StageP50s {
    pub parse_us_p50: f64,
    pub admit_us_p50: f64,
    pub count_us_p50: f64,
    pub respond_us_p50: f64,
    /// Median of the per-request sum of the four stages.
    pub sum_us_p50: f64,
    /// `/v1` requests the spans were grouped into.
    pub requests: usize,
}

const SERVE_STAGES: [&str; 4] = ["serve.parse", "serve.admit", "serve.count", "serve.respond"];

/// Groups the `serve.*` spans into requests and takes per-stage p50s.
///
/// A connection is served on one thread, so its requests' spans follow
/// each other in that thread's timeline in stage order (a memo hit skips
/// parse, count and respond; a malformed frame stops after parse). A
/// span whose stage does not come after the previous one starts the next
/// request. A stage a request skipped counts 0, so the stage p50s add up
/// to the stage sum of a typical request.
pub fn serve_stages(events: &[Event]) -> StageP50s {
    let mut spans: Vec<(&Event, usize)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .filter_map(|e| SERVE_STAGES.iter().position(|s| *s == e.stage).map(|i| (e, i)))
        .collect();
    spans.sort_by_key(|(e, _)| (e.tid, e.ts_us, e.id));
    let mut requests: Vec<[u64; 4]> = Vec::new();
    let mut last: Option<(u64, usize)> = None;
    for (e, i) in spans {
        match last {
            Some((tid, prev)) if tid == e.tid && i > prev => {}
            _ => requests.push([0; 4]),
        }
        requests.last_mut().expect("a request was opened")[i] += e.dur_us;
        last = Some((e.tid, i));
    }
    let stage = |i: usize| -> f64 {
        let v: Vec<u64> = requests.iter().map(|r| r[i]).collect();
        p50(&v).ns as f64
    };
    let sums: Vec<u64> = requests.iter().map(|r| r.iter().sum()).collect();
    StageP50s {
        parse_us_p50: stage(0),
        admit_us_p50: stage(1),
        count_us_p50: stage(2),
        respond_us_p50: stage(3),
        sum_us_p50: p50(&sums).ns as f64,
        requests: requests.len(),
    }
}

/// Sum of each stage's self time (span duration minus its child spans),
/// in nanoseconds.
pub fn self_times_ns(events: &[Event]) -> HashMap<String, u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::Span) {
        if let Some(p) = e.parent {
            *children.entry(p).or_default() += e.dur_us;
        }
    }
    let mut out: HashMap<String, u64> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::Span) {
        let own = e.dur_us.saturating_sub(children.get(&e.id).copied().unwrap_or(0));
        *out.entry(e.stage.clone()).or_default() += own * 1000;
    }
    out
}

/// What the serve-layer pass produced.
pub struct ServeLayers {
    pub metrics: Metrics,
    /// Human-readable traffic summary.
    pub summary: String,
    /// p50 of every in-process frame parse (count and check).
    pub parse_us_p50: f64,
}

/// Frames of the traced window timed through each layer.
const LAYER_OPS: usize = 1500;
/// Further `Unknown`-verdict checks timed beyond the first `LAYER_OPS`.
const UNKNOWN_EXTRA: usize = 16;

fn share<K: Ord + Clone>(counts: &BTreeMap<K, usize>, key: &K) -> f64 {
    let total: usize = counts.values().sum();
    counts.get(key).map_or(0.0, |&n| n as f64 / total.max(1) as f64)
}

fn us_p50(ns: &[u64]) -> f64 {
    p50(ns).us()
}

fn us_p99(ns: &[u64]) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    percentile(&v, 0.99).us()
}

/// Times wire parsing, the kernels, one-at-a-time engine hops and the
/// containment backends on the first [`LAYER_OPS`] frames of `sent`, and
/// summarizes what the whole of `sent` contained. Every result is checked
/// against the oracle; a mismatch is a failed operation.
pub fn serve_layers(traffic: &Traffic, sent: &[u32], checked: &mut Checked) -> ServeLayers {
    let mut m = Metrics::default();
    let mut summary = String::new();

    // Traffic summary over everything the window sent.
    let mut facts: Vec<usize> = Vec::new();
    let mut backends: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut choices: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut verdicts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut malformed = 0usize;
    for &i in sent {
        let a = traffic.answer(i);
        match &a.expect {
            Expect::Count(_) => {
                facts.push(a.facts);
                let b = a.backend.map_or("unknown", BackendChoice::label);
                *backends.entry(b).or_default() += 1;
            }
            Expect::Check { choice, verdict } => {
                *choices.entry(choice.label()).or_default() += 1;
                *verdicts.entry(verdict).or_default() += 1;
            }
            Expect::Malformed => malformed += 1,
        }
    }
    let mean_facts = facts.iter().sum::<usize>() as f64 / facts.len().max(1) as f64;
    for b in [BackendChoice::FastNaive, BackendChoice::FastTreewidth] {
        m.set(&format!("homcount.auto_share.{}", b.label()), share(&backends, &b.label()));
    }
    m.set("containment.unknown_share", share(&verdicts, &"unknown"));
    let checks: usize = choices.values().sum();
    writeln!(
        summary,
        "traffic: {} requests = {} counts + {checks} checks + {malformed} malformed; \
         {} distinct frames",
        sent.len(),
        facts.len(),
        sent.iter().collect::<std::collections::HashSet<_>>().len()
    )
    .ok();
    writeln!(
        summary,
        "traffic: facts per count frame mean {mean_facts:.1}, min {}, max {}",
        facts.iter().min().unwrap_or(&0),
        facts.iter().max().unwrap_or(&0)
    )
    .ok();
    writeln!(summary, "traffic: resolved BackendChoice {}", shares(&backends)).ok();
    writeln!(summary, "traffic: resolved ContainmentChoice {}", shares(&choices)).ok();
    writeln!(summary, "traffic: verdicts {}", shares(&verdicts)).ok();

    // Layer timings on the first LAYER_OPS frames.
    let engine = EvalEngine::new(EngineConfig::default());
    let mut parse_count = Vec::new();
    let mut parse_check = Vec::new();
    let mut parse_count_ns_total = 0u64;
    let mut facts_parsed = 0u64;
    let mut kernel = Vec::new();
    let mut hop = Vec::new();
    let mut overhead = Vec::new();
    let mut by_choice: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut unknown = Vec::new();
    let counter = |q: &Query, d: &Structure| -> Result<Nat, std::convert::Infallible> {
        Ok(CountRequest::new(q, d).count())
    };
    for &i in sent.iter().take(LAYER_OPS) {
        let f = &traffic.frames[i as usize];
        match &traffic.answer(i).expect {
            Expect::Count(want) => {
                checked.attempted += 1;
                let (job, ns) = time(|| parse_count_request(f.body()));
                let Ok(job) = job else {
                    checked.fail(format!("in-process parse failed: {:?}", job.err()));
                    continue;
                };
                parse_count.push(ns);
                parse_count_ns_total += ns;
                facts_parsed += job.bag.facts.len() as u64;
                let request = CountRequest::new(&job.query, &job.support).backend(job.backend);
                let (count, kns) = time(|| request.run());
                kernel.push(kns);
                let hits = engine.metrics().cache_hits;
                let job_in =
                    Job::count_with(job.backend, job.query.clone(), Arc::clone(&job.support));
                let (outcome, hns) = time(|| engine.submit(job_in).wait());
                hop.push(hns);
                if engine.metrics().cache_hits == hits {
                    overhead.push(hns as i64 - kns as i64);
                }
                if count.as_ref().ok() != Some(want) || outcome.as_count() != Some(want) {
                    checked.fail(format!("in-process count disagrees with the oracle {want}"));
                }
            }
            Expect::Check { choice, verdict } => {
                checked.attempted += 1;
                let (job, ns) = time(|| parse_check_request(f.body()));
                let Ok(job) = job else {
                    checked.fail(format!("in-process parse failed: {:?}", job.err()));
                    continue;
                };
                parse_check.push(ns);
                let resolved = job.spec.resolved_choice();
                let (v, cns) = time(|| job.spec.try_check_with_counter(&counter));
                let label = v.as_ref().map(crate::traffic::verdict_label).unwrap_or("error");
                by_choice.entry(resolved.label()).or_default().push(cns);
                if label == "unknown" {
                    unknown.push(cns);
                }
                if resolved != *choice || label != *verdict {
                    checked.fail(format!(
                        "in-process check {resolved}/{label}, oracle {choice}/{verdict}"
                    ));
                }
            }
            Expect::Malformed => {}
        }
    }
    // Unknown verdicts are rare; time the ones past the sample too.
    let late_unknown = sent
        .iter()
        .skip(LAYER_OPS)
        .filter(|&&i| matches!(traffic.answer(i).expect, Expect::Check { verdict: "unknown", .. }))
        .map(|&i| &traffic.frames[i as usize]);
    for f in late_unknown.take(UNKNOWN_EXTRA) {
        if let Ok(job) = parse_check_request(f.body()) {
            let (_, cns) = time(|| job.spec.try_check_with_counter(&counter));
            unknown.push(cns);
        }
    }
    let engine_metrics = engine.metrics();
    engine.drain(std::time::Duration::from_secs(5));

    m.set("wire.parse_count_us_p50", us_p50(&parse_count));
    m.set("wire.parse_check_us_p50", us_p50(&parse_check));
    m.set("wire.parse_ns_per_fact", parse_count_ns_total as f64 / facts_parsed.max(1) as f64);
    m.set("homcount.count_us_p50", us_p50(&kernel));
    m.set("homcount.count_us_p99", us_p99(&kernel));
    m.set("engine.hop_us_p50", us_p50(&hop));
    m.set("engine.hop_us_p99", us_p99(&hop));
    let mut over = overhead.clone();
    over.sort_unstable();
    let over_p50 = if over.is_empty() { 0.0 } else { over[(over.len() - 1) / 2] as f64 / 1e3 };
    m.set("engine.overhead_us_p50", over_p50);
    m.set("engine.cache_hit_ratio", engine_metrics.hit_rate().unwrap_or(0.0));
    for c in ContainmentChoice::REGISTERED {
        let v = by_choice.get(c.label()).map_or(0.0, |ns| us_p50(ns));
        m.set(&format!("containment.check_us_p50.{}", c.label()), v);
    }
    m.set("containment.unknown_ms_p50", us_p50(&unknown) / 1e3);

    let mut all_parse = parse_count.clone();
    all_parse.extend(&parse_check);
    writeln!(
        summary,
        "layers over {} frames: {} count parses, {} check parses, {} engine hops \
         ({} cache misses), {} checks; {} unknown verdicts timed",
        sent.len().min(LAYER_OPS),
        parse_count.len(),
        parse_check.len(),
        hop.len(),
        overhead.len(),
        by_choice.values().map(Vec::len).sum::<usize>(),
        unknown.len()
    )
    .ok();
    writeln!(
        summary,
        "engine jobs in the layer pass: {} submitted, cache hit ratio {:.3}",
        engine_metrics.jobs_submitted,
        engine_metrics.hit_rate().unwrap_or(0.0)
    )
    .ok();
    ServeLayers { metrics: m, summary, parse_us_p50: us_p50(&all_parse) }
}

fn shares(counts: &BTreeMap<&'static str, usize>) -> String {
    let total: usize = counts.values().sum();
    if total == 0 {
        return "(none)".into();
    }
    counts
        .iter()
        .map(|(k, n)| format!("{k} {:.3} ({n})", *n as f64 / total as f64))
        .collect::<Vec<_>>()
        .join(", ")
}

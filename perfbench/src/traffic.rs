//! Seeded request traffic for the serve workloads, with in-process
//! oracle answers.
//!
//! Each workload is a table of distinct frames plus two schedules of
//! frame indices: a warm-up pass and the measured sequence. The full
//! HTTP request bytes are built here, before any timing starts, so the
//! client's timed loop only writes prepared bytes and reads replies.
//! The oracle answers are computed outside the timed window too, and
//! only for the frames a run sent ([`Traffic::solve`]), so the schedule
//! can hold far more frames than a window uses.
//!
//! The expected answers come from the library, not from the server:
//! counts from [`CountRequest`] on the DLGP-parsed instance, verdicts
//! from [`CheckRequest`] on the DLGP-parsed unions.

use bagcq_arith::Nat;
use bagcq_containment::{CheckRequest, ContainmentChoice, Semantics, Verdict};
use bagcq_homcount::{BackendChoice, CountRequest};
use bagcq_query::{
    parse_bag_instance_infer, parse_dlgp_query, parse_dlgp_union, parse_dlgp_union_infer,
};
use bagcq_serve::{plan_requests, LoadgenConfig, SplitMix64};
use bagcq_structure::Schema;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// API key of the default tenant of `bagcq serve`.
pub const API_KEY: &str = "dev-key";

const COUNT_PATH: &str = "/v1/count";
const CHECK_PATH: &str = "/v1/check";

/// Which serve workload a traffic table belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeWorkload {
    /// The default loadgen mix: mostly repeated frames.
    Hot,
    /// Every body unique, in fixed size classes.
    Cold,
}

/// What a correct server answers to a frame.
#[derive(Clone, Debug)]
pub enum Expect {
    /// 200 count frame with this value.
    Count(Nat),
    /// 200 check frame from this backend with this verdict label.
    Check { choice: ContainmentChoice, verdict: &'static str },
    /// Typed 400 (`parse` or `frame`).
    Malformed,
}

/// The oracle's answer to one frame, with what the traffic summary
/// reports about it.
#[derive(Clone, Debug)]
pub struct Answer {
    pub expect: Expect,
    /// Facts in the data section (count frames).
    pub facts: usize,
    /// Kernel `Auto` resolves to (count frames).
    pub backend: Option<BackendChoice>,
}

/// One distinct request frame.
pub struct Frame {
    pub path: &'static str,
    /// The complete HTTP/1.1 request, head and body.
    pub wire: Vec<u8>,
    /// Offset of the body inside `wire`.
    body_at: usize,
    /// Deliberately malformed: a correct server answers a typed 400.
    malformed: bool,
}

impl Frame {
    fn new(path: &'static str, body: &str, malformed: bool) -> Frame {
        let head = format!(
            "POST {path} HTTP/1.1\r\nX-Api-Key: {API_KEY}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let body_at = head.len();
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.as_bytes());
        Frame { path, wire, body_at, malformed }
    }

    pub fn body(&self) -> &str {
        std::str::from_utf8(&self.wire[self.body_at..]).expect("frames are built from strings")
    }
}

/// A workload's frames, schedules and (once solved) oracle answers.
pub struct Traffic {
    pub frames: Vec<Frame>,
    /// Frame indices of the warm-up pass (run once per server start).
    pub warmup: Vec<u32>,
    /// Frame indices of the measured sequence, in send order.
    pub measured: Vec<u32>,
    answers: Vec<Option<Answer>>,
}

impl Traffic {
    /// Computes the oracle answer of every frame in `used` that has none
    /// yet, on `threads` threads.
    pub fn solve(&mut self, used: &[u32], threads: usize) {
        let mut todo: Vec<u32> =
            used.iter().copied().filter(|&i| self.answers[i as usize].is_none()).collect();
        todo.sort_unstable();
        todo.dedup();
        let chunk = todo.len().div_ceil(threads.max(1)).max(1);
        let frames = &self.frames;
        let solved: Vec<Vec<(u32, Answer)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter().map(|&i| (i, oracle(&frames[i as usize]))).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).collect()
        });
        for (i, answer) in solved.into_iter().flatten() {
            self.answers[i as usize] = Some(answer);
        }
    }

    /// The oracle answer of frame `i`; [`Traffic::solve`] must have
    /// covered it.
    pub fn answer(&self, i: u32) -> &Answer {
        self.answers[i as usize].as_ref().expect("frame solved before it is checked")
    }
}

/// Builds the frame table, keeping one frame per distinct body.
struct TableBuilder {
    frames: Vec<Frame>,
    /// Body hash → frame index (a colliding body gets its own frame).
    index: HashMap<u64, u32>,
}

impl TableBuilder {
    fn new() -> Self {
        TableBuilder { frames: Vec::new(), index: HashMap::new() }
    }

    /// Index of the frame with this body, and whether it is new.
    fn intern(&mut self, path: &'static str, body: &str, malformed: bool) -> (u32, bool) {
        let mut h = DefaultHasher::new();
        (path, body).hash(&mut h);
        let key = h.finish();
        if let Some(&i) = self.index.get(&key) {
            let f = &self.frames[i as usize];
            if f.path == path && f.body() == body {
                return (i, false);
            }
        }
        let i = self.frames.len() as u32;
        self.frames.push(Frame::new(path, body, malformed));
        self.index.entry(key).or_insert(i);
        (i, true)
    }

    fn finish(self, warmup: Vec<u32>, measured: Vec<u32>) -> Traffic {
        let answers = (0..self.frames.len()).map(|_| None).collect();
        Traffic { frames: self.frames, warmup, measured, answers }
    }
}

/// The content of section `name` of a frame body: the inline value of
/// its `name: value` line followed by its two-space-indented lines.
fn section(body: &str, name: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in body.lines() {
        if let Some(content) = line.strip_prefix("  ") {
            if inside {
                out.push_str(content);
                out.push('\n');
            }
            continue;
        }
        let (head, value) = line.split_once(':').unwrap_or((line, ""));
        inside = head == name;
        if inside {
            out.push_str(value.trim());
        }
    }
    out
}

/// The in-process answer to one frame, from its body's sections parsed
/// with the DLGP parsers (not the server's wire parser).
fn oracle(frame: &Frame) -> Answer {
    let body = frame.body();
    if frame.malformed {
        return Answer { expect: Expect::Malformed, facts: 0, backend: None };
    }
    if frame.path == COUNT_PATH {
        let (bag, support, schema) =
            parse_bag_instance_infer(&section(body, "data")).expect("generated data is valid DLGP");
        let q = parse_dlgp_query(&schema, &section(body, "query"))
            .expect("generated queries are valid DLGP");
        let request = CountRequest::new(&q, &support).backend(BackendChoice::Auto);
        let count = request.run().expect("generated counts succeed");
        Answer {
            expect: Expect::Count(count),
            facts: bag.facts.len(),
            backend: Some(request.resolved_backend()),
        }
    } else {
        let semantics: Semantics =
            section(body, "semantics").parse().expect("generated checks name their semantics");
        let (small, big) = (section(body, "small"), section(body, "big"));
        let schema = union_schema(&[&small, &big]);
        let q_s = parse_dlgp_union(&schema, &small).expect("generated unions are valid DLGP");
        let q_b = parse_dlgp_union(&schema, &big).expect("generated unions are valid DLGP");
        let request = CheckRequest::union(q_s, q_b).semantics(semantics);
        let choice = request.resolved_choice();
        let verdict = request.check().expect("generated checks are supported");
        Answer {
            expect: Expect::Check { choice, verdict: verdict_label(&verdict) },
            facts: 0,
            backend: None,
        }
    }
}

pub fn verdict_label(v: &Verdict) -> &'static str {
    match v {
        Verdict::Proved(_) => "proved",
        Verdict::Refuted(_) => "refuted",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// The schema both sides of a check resolve against: relations in order
/// of first appearance, first arity winning — the order the search's
/// random databases are drawn in.
pub fn union_schema(sources: &[&String]) -> Arc<Schema> {
    let mut sb = Schema::builder();
    let mut seen: Vec<String> = Vec::new();
    for src in sources {
        let (_, s) = parse_dlgp_union_infer(src).expect("generated unions are valid DLGP");
        for r in s.relations() {
            let name = &s.relation(r).name;
            if !seen.contains(name) {
                seen.push(name.clone());
                sb.relation(name, s.arity(r));
            }
        }
    }
    sb.build()
}

// ---------------------------------------------------------------------------
// serve-hot: the default loadgen shape
// ---------------------------------------------------------------------------

/// The loadgen's own plan for `seed` with the default mix: its first
/// `warmup` requests are the warm-up pass (they fill the response memo
/// with the hot pool), the next `requests` the measured sequence.
fn serve_hot(seed: u64, requests: usize, warmup: usize) -> Traffic {
    let config =
        LoadgenConfig { seed, requests: (warmup + requests) as u64, ..LoadgenConfig::default() };
    let mut table = TableBuilder::new();
    let mut schedule: Vec<u32> = plan_requests(&config)
        .iter()
        .map(|p| table.intern(p.path, &p.body, p.malformed).0)
        .collect();
    let measured = schedule.split_off(warmup.min(schedule.len()));
    table.finish(schedule, measured)
}

// ---------------------------------------------------------------------------
// serve-cold: unique frames in fixed size classes
// ---------------------------------------------------------------------------

/// Vertices and distinct facts of every serve-cold count frame.
pub const COLD_VERTICES: u64 = 30;
pub const COLD_FACTS: usize = 100;

fn path_query(len: usize) -> String {
    let atoms: Vec<String> = (0..len).map(|i| format!("e(X{i}, X{})", i + 1)).collect();
    format!("?- {}.", atoms.join(", "))
}

fn cycle_query(len: usize) -> String {
    let atoms: Vec<String> = (0..len).map(|i| format!("e(X{i}, X{})", (i + 1) % len)).collect();
    format!("?- {}.", atoms.join(", "))
}

/// A count frame: `COLD_FACTS` distinct edges over `COLD_VERTICES`
/// vertices, queried by a 3- or 4-atom path or cycle.
fn cold_count_body(rng: &mut SplitMix64) -> String {
    let mut edges: Vec<(u64, u64)> = Vec::with_capacity(COLD_FACTS);
    while edges.len() < COLD_FACTS {
        let e = (rng.below(COLD_VERTICES), rng.below(COLD_VERTICES));
        if e.0 != e.1 && !edges.contains(&e) {
            edges.push(e);
        }
    }
    let len = 3 + rng.below(2) as usize;
    let query = if rng.below(2) == 0 { path_query(len) } else { cycle_query(len) };
    let mut body = format!("backend: auto\nquery:\n  {query}\ndata:\n");
    for (u, v) in edges {
        body.push_str(&format!("  e(n{u}, n{v}).\n"));
    }
    body
}

/// A random boolean CQ of 2–5 atoms over the binary relations `e`, `r`.
fn random_cq(rng: &mut SplitMix64) -> String {
    let atoms = 2 + rng.below(4) as usize;
    let vars = atoms as u64;
    let body: Vec<String> = (0..atoms)
        .map(|_| {
            let rel = if rng.below(2) == 0 { "e" } else { "r" };
            format!("{rel}(X{}, X{})", rng.below(vars), rng.below(vars))
        })
        .collect();
    body.join(", ")
}

/// A check frame: bag or set semantics, a CQ pair or a pair of
/// two-disjunct unions — one of the four containment backends each.
fn cold_check_body(rng: &mut SplitMix64) -> String {
    let semantics = if rng.below(2) == 0 { Semantics::Bag } else { Semantics::Set };
    let disjuncts = 1 + rng.below(2) as usize;
    let mut side = || {
        let parts: Vec<String> = (0..disjuncts).map(|_| random_cq(rng)).collect();
        format!("?- {}.", parts.join(" ; "))
    };
    let small = side();
    let big = side();
    format!("semantics: {}\nsmall:\n  {small}\nbig:\n  {big}\n", semantics.label())
}

/// Two thirds count frames, one third check frames; every body distinct.
fn serve_cold(seed: u64, requests: usize, warmup: usize) -> Traffic {
    let mut table = TableBuilder::new();
    let mut unique = |rng: &mut SplitMix64, n: usize| -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let (path, body) = if rng.below(3) < 2 {
                (COUNT_PATH, cold_count_body(rng))
            } else {
                (CHECK_PATH, cold_check_body(rng))
            };
            if let (i, true) = table.intern(path, &body, false) {
                out.push(i);
            }
        }
        out
    };
    let warm = unique(&mut SplitMix64::new(seed ^ 0x5741_524D), warmup);
    let measured = unique(&mut SplitMix64::new(seed), requests);
    table.finish(warm, measured)
}

/// Builds a workload's traffic: `requests` measured requests and a
/// `warmup`-request warm-up pass. No oracle answer is computed yet.
pub fn build(workload: ServeWorkload, seed: u64, requests: usize, warmup: usize) -> Traffic {
    match workload {
        ServeWorkload::Hot => serve_hot(seed, requests, warmup),
        ServeWorkload::Cold => serve_cold(seed, requests, warmup),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved(workload: ServeWorkload, seed: u64, requests: usize, warmup: usize) -> Traffic {
        let mut t = build(workload, seed, requests, warmup);
        let all: Vec<u32> = t.warmup.iter().chain(&t.measured).copied().collect();
        t.solve(&all, 2);
        t
    }

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let a = build(ServeWorkload::Cold, 7, 30, 4);
        let b = build(ServeWorkload::Cold, 7, 30, 4);
        assert_eq!(a.measured, b.measured);
        for (x, y) in a.frames.iter().zip(&b.frames) {
            assert_eq!(x.wire, y.wire);
        }
    }

    #[test]
    fn cold_bodies_are_unique_and_sized() {
        let t = solved(ServeWorkload::Cold, 3, 60, 6);
        let mut seen = std::collections::HashSet::new();
        for &i in t.warmup.iter().chain(&t.measured) {
            assert!(seen.insert(i), "frame {i} scheduled twice");
            let a = t.answer(i);
            if matches!(a.expect, Expect::Count(_)) {
                assert_eq!(a.facts, COLD_FACTS);
            }
        }
        assert!(t.measured.iter().any(|&i| matches!(t.answer(i).expect, Expect::Check { .. })));
    }

    #[test]
    fn hot_traffic_is_the_loadgen_plan() {
        let t = solved(ServeWorkload::Hot, 42, 2000, 16);
        assert!(t.frames.len() < 200, "{} distinct frames", t.frames.len());
        let plan =
            plan_requests(&LoadgenConfig { seed: 42, requests: 2016, ..LoadgenConfig::default() });
        for (p, &i) in plan.iter().zip(t.warmup.iter().chain(&t.measured)) {
            assert_eq!(p.body, t.frames[i as usize].body());
            match (&t.answer(i).expect, &p.expected_count) {
                (Expect::Count(got), Some(want)) => assert_eq!(got, want),
                (Expect::Malformed, None) => assert!(p.malformed),
                (Expect::Check { .. }, None) => assert_eq!(p.path, CHECK_PATH),
                (got, want) => panic!("oracle {got:?} against plan {want:?}"),
            }
        }
    }

    #[test]
    fn sections_of_a_check_body() {
        let body = "semantics: bag\nsmall:\n  ?- e(X0, X1).\nbig:\n  ?- e(Y0, Y1).\n  ?- f(Z0).\n";
        assert_eq!(section(body, "semantics"), "bag");
        assert_eq!(section(body, "small"), "?- e(X0, X1).\n");
        assert_eq!(section(body, "big"), "?- e(Y0, Y1).\n?- f(Z0).\n");
    }
}

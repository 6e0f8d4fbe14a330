//! Property tests for the counting backends: differential agreement of
//! every registered backend against the `Nat` reference path (including
//! adversarial inputs straddling the `u64`/`u128` overflow boundaries),
//! and the paper's algebraic counting laws (Lemma 1, Definition 2,
//! Lemma 22).

use bagcq_arith::{acc_promotions, Nat};
use bagcq_homcount::{registered_backends, BackendChoice, CountRequest};
use bagcq_query::{path_query, Query, QueryGen};
use bagcq_structure::{Schema, SchemaBuilder, Structure, StructureGen, Vertex};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    let mut b = SchemaBuilder::default();
    b.relation("E", 2);
    b.relation("R", 3);
    b.constant("a");
    b.build()
}

fn small_query(seed: u64, vars: u32, atoms: usize, ineqs: usize) -> Query {
    let qg = QueryGen { variables: vars, atoms, constant_prob: 0.1, inequalities: ineqs };
    qg.sample(&schema(), seed)
}

fn small_structure(seed: u64, extra: u32, density: f64) -> Structure {
    let sg = StructureGen {
        extra_vertices: extra,
        density,
        max_tuples_per_relation: 300,
        diagonal_density: 0.4,
    };
    sg.sample(&schema(), seed)
}

/// The arbitrary-precision reference result every backend is judged
/// against.
fn nat_count(q: &Query, d: &Structure) -> Nat {
    CountRequest::new(q, d).backend(BackendChoice::Naive).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential test: every registered backend — the two independent
    /// algorithms and their machine-word fast paths — returns the exact
    /// `Nat` the reference path returns, on arbitrary queries (with
    /// inequalities and constants) and databases.
    #[test]
    fn all_backends_bit_identical(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        vars in 2u32..6,
        atoms in 1usize..7,
        ineqs in 0usize..3,
        extra in 1u32..5,
    ) {
        let q = small_query(qseed, vars, atoms, ineqs);
        let d = small_structure(dseed, extra, 0.35);
        let reference = nat_count(&q, &d);
        for (kernel, choice) in registered_backends() {
            let got = CountRequest::new(&q, &d).backend(choice).count();
            prop_assert_eq!(&got, &reference, "backend {} on query {}", kernel.name(), q);
        }
        // Auto must agree too, whatever it resolves to.
        prop_assert_eq!(CountRequest::new(&q, &d).count(), reference);
    }

    /// Lemma 1: (ρ ∧̄ ρ')(D) = ρ(D) · ρ'(D).
    #[test]
    fn lemma1_disjoint_conjunction_multiplies(
        s1 in 0u64..10_000,
        s2 in 0u64..10_000,
        dseed in 0u64..10_000,
    ) {
        let q1 = small_query(s1, 3, 3, 0);
        let q2 = small_query(s2, 3, 3, 0);
        let d = small_structure(dseed, 3, 0.4);
        let lhs = nat_count(&q1.disjoint_conj(&q2), &d);
        let rhs = nat_count(&q1, &d).mul_ref(&nat_count(&q2, &d));
        prop_assert_eq!(lhs, rhs);
    }

    /// Definition 2: (θ↑k)(D) = θ(D)^k — holds with inequalities too.
    #[test]
    fn definition2_power(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        k in 0u32..4,
        ineqs in 0usize..2,
    ) {
        let q = small_query(qseed, 3, 3, ineqs);
        let d = small_structure(dseed, 3, 0.4);
        let single = nat_count(&q, &d);
        prop_assert_eq!(nat_count(&q.power(k), &d), single.pow_u64(k as u64));
    }

    /// Lemma 22 (i): φ(blowup(D,k)) = k^j · φ(D) for pure CQs without
    /// constants, where j = number of variables.
    #[test]
    fn lemma22_blowup(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        k in 1u32..4,
    ) {
        let qg = QueryGen { variables: 3, atoms: 3, constant_prob: 0.0, inequalities: 0 };
        let q = qg.sample(&schema(), qseed);
        let d = small_structure(dseed, 3, 0.35);
        let base = nat_count(&q, &d);
        let blown = nat_count(&q, &d.blowup(k));
        let factor = Nat::from_u64(k as u64).pow_u64(q.var_count() as u64);
        prop_assert_eq!(blown, factor.mul_ref(&base));
    }

    /// Lemma 22 (ii): φ(D^×k) = φ(D)^k for pure CQs without constants.
    #[test]
    fn lemma22_product_power(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        k in 1u32..4,
    ) {
        let qg = QueryGen { variables: 3, atoms: 3, constant_prob: 0.0, inequalities: 0 };
        let q = qg.sample(&schema(), qseed);
        let d = small_structure(dseed, 2, 0.4);
        let base = nat_count(&q, &d);
        let powered = nat_count(&q, &d.power(k));
        prop_assert_eq!(powered, base.pow_u64(k as u64));
    }

    /// Counts are monotone under adding atoms to the database
    /// (for pure queries: more facts, at least as many homs).
    #[test]
    fn monotone_in_database(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
    ) {
        let qg = QueryGen { variables: 3, atoms: 3, constant_prob: 0.0, inequalities: 0 };
        let q = qg.sample(&schema(), qseed);
        let d1 = small_structure(dseed, 3, 0.25);
        // d2 = d1 plus extra random atoms (union with another sample is
        // awkward because vertices differ; instead resample denser over the
        // same seed base and union explicitly).
        let mut d2 = d1.clone();
        let extra = small_structure(dseed.wrapping_add(1), 3, 0.25);
        d2 = d2.union(&extra);
        let c1 = nat_count(&q, &d1);
        let c2 = nat_count(&q, &d2);
        prop_assert!(c1 <= c2, "{c1} > {c2}");
    }

    /// The legacy `Engine` selector routes through `CountRequest` to the
    /// same answers as the default `Auto` choice on every family.
    #[test]
    fn engine_selector_agrees_with_requests(qseed in 0u64..10_000, dseed in 0u64..10_000) {
        let q = small_query(qseed, 3, 4, 1);
        let d = small_structure(dseed, 3, 0.35);
        let via_engines = (
            CountRequest::new(&q, &d).backend(bagcq_homcount::Engine::Naive).count(),
            CountRequest::new(&q, &d).backend(bagcq_homcount::Engine::Treewidth).count(),
        );
        let want = CountRequest::new(&q, &d).count();
        prop_assert_eq!(&via_engines.0, &want);
        prop_assert_eq!(&via_engines.1, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counts are isomorphism-invariant: permuting the database's vertex
    /// ids never changes any count, on any backend.
    #[test]
    fn counts_invariant_under_vertex_permutation(
        qseed in 0u64..10_000,
        dseed in 0u64..10_000,
        pseed in 0u64..10_000,
    ) {
        let q = small_query(qseed, 3, 4, 1);
        let d = small_structure(dseed, 4, 0.35);
        // Build a deterministic permutation of the vertex ids.
        let n = d.vertex_count();
        let mut perm: Vec<u32> = (0..n).collect();
        let mut state = pseed | 1;
        for i in (1..n as usize).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let permuted = d.quotient(&perm, n);
        prop_assert!(bagcq_structure::isomorphic(&d, &permuted));
        for (kernel, choice) in registered_backends() {
            prop_assert_eq!(
                CountRequest::new(&q, &d).backend(choice).count(),
                CountRequest::new(&q, &permuted).backend(choice).count(),
                "backend {}",
                kernel.name()
            );
        }
    }

    /// The enumerative ablation counter agrees with the optimized one on
    /// random inputs (slow path, fewer cases).
    #[test]
    fn enumerative_ablation_agrees(qseed in 0u64..3000, dseed in 0u64..3000) {
        let q = small_query(qseed, 3, 3, 1);
        let d = small_structure(dseed, 2, 0.3);
        prop_assert_eq!(
            bagcq_homcount::NaiveCounter.count_enumerative(&q, &d),
            nat_count(&q, &d)
        );
    }
}

/// Adversarial overflow-boundary cases for the machine-word fast path.
///
/// `E(x,y)` into the complete 16-vertex digraph (loops included) has
/// exactly 16² = 2⁸ homomorphisms, so `E(x,y)↑k` has exactly `2^(8k)`:
/// picking `k` dials the true count to either side of the `u64` and
/// `u128` boundaries. Lemma 1's component factorization keeps every run
/// cheap (k components × 256 steps) — all the work is in the cross-
/// component multiplications, exactly where the widening fires.
mod overflow_boundaries {
    use super::*;

    fn edge_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    fn complete_digraph(n: u32) -> Structure {
        let schema = edge_schema();
        let e = schema.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(&schema));
        d.add_vertices(n);
        for a in 0..n {
            for b in 0..n {
                d.add_atom(e, &[Vertex(a), Vertex(b)]);
            }
        }
        d
    }

    /// Runs `E(x,y)↑k` on every fast backend against the `Nat` reference
    /// and returns how many promotions the whole workload performed.
    fn check_power(k: u32) -> (Nat, u64) {
        let schema = edge_schema();
        let q = path_query(&schema, "E", 1).power(k);
        let d = complete_digraph(16);
        let reference = nat_count(&q, &d);
        assert_eq!(reference, Nat::pow2(8 * k as u64), "ground truth is 2^(8k)");
        let before = acc_promotions();
        for choice in [BackendChoice::FastNaive, BackendChoice::FastTreewidth] {
            let got = CountRequest::new(&q, &d).backend(choice).count();
            assert_eq!(got, reference, "{choice} wrong at k = {k}");
        }
        (reference, acc_promotions() - before)
    }

    /// 2⁵⁶ — comfortably inside `u64`: fast paths agree bit-for-bit.
    #[test]
    fn just_below_u64_boundary() {
        let (n, _) = check_power(7);
        assert_eq!(n.bits(), 57);
    }

    /// 2⁶⁴ — one past `u64::MAX`: the forced promotion fires and the
    /// result is still exact. (The counter is process-global and other
    /// tests run concurrently, so only a lower bound is asserted.)
    #[test]
    fn just_above_u64_boundary_promotes_and_stays_exact() {
        let (n, promoted) = check_power(8);
        assert_eq!(n.bits(), 65);
        assert!(promoted >= 1, "crossing u64 must promote at least once");
    }

    /// 2¹²⁰ — inside `u128` after one widening.
    #[test]
    fn just_below_u128_boundary() {
        let (n, _) = check_power(15);
        assert_eq!(n.bits(), 121);
    }

    /// 2¹²⁸ — one past `u128::MAX`: both widenings fire (u64 → u128 →
    /// `Nat`) on each fast backend, and the result is still exact.
    #[test]
    fn just_above_u128_boundary_promotes_twice_and_stays_exact() {
        let (n, promoted) = check_power(16);
        assert_eq!(n.bits(), 129);
        assert!(promoted >= 2, "crossing u128 widens twice per backend, saw {promoted}");
    }

    /// Saturating a `u64` by pure increments (no multiplication): a star
    /// of loops query whose count is near-boundary via repeated add_one.
    /// Cheap variant: the increment path is exercised by counting 2⁸ homs
    /// per component with the accumulator pre-seeded by earlier factors —
    /// here we instead check a single huge component product chain:
    /// (2⁸)¹⁷ = 2¹³⁶ forces Small → Wide → Big inside one chain.
    #[test]
    fn one_chain_through_all_three_tiers() {
        let (n, promoted) = check_power(17);
        assert_eq!(n.bits(), 137);
        assert!(promoted >= 2, "chain must pass through u128 into Nat, saw {promoted}");
    }
}

/// Seeded differential cases aimed at the kernels' candidate paths:
/// index buckets iterated in place, treewidth candidates drawn from the
/// smallest bucket of a bag atom (deduplicated when the atom still has
/// unbound positions), the distinct values at a position, and the whole
/// domain for variables in no bag atom. Every registered backend and a
/// `for_each_hom_limited` tally must equal the `Nat` reference, and on
/// small instances a brute force over all assignments as well.
mod candidate_paths {
    use super::*;
    use bagcq_homcount::for_each_hom_limited;
    use bagcq_query::{cycle_query, Term};

    /// Every assignment of the query's variables, checked atom by atom:
    /// an oracle independent of both kernels.
    fn brute_force(q: &Query, d: &Structure) -> Nat {
        let n = d.vertex_count();
        let k = q.var_count() as usize;
        let value = |t: &Term, a: &[u32]| match t {
            Term::Var(v) => a[v.0 as usize],
            Term::Const(c) => d.constant_vertex(*c).0,
        };
        let mut assign = vec![0u32; k];
        let mut count = 0u64;
        loop {
            let atoms_hold = q.atoms().iter().all(|at| {
                let args: Vec<Vertex> = at.args.iter().map(|t| Vertex(value(t, &assign))).collect();
                d.contains_atom(at.rel, &args)
            });
            let ineqs_hold =
                q.inequalities().iter().all(|i| value(&i.lhs, &assign) != value(&i.rhs, &assign));
            if atoms_hold && ineqs_hold && (k == 0 || n > 0) {
                count += 1;
            }
            // Odometer step over n^k assignments.
            let mut i = 0;
            while i < k {
                assign[i] += 1;
                if assign[i] < n {
                    break;
                }
                assign[i] = 0;
                i += 1;
            }
            if i == k {
                return Nat::from_u64(count);
            }
        }
    }

    fn assert_all_agree(q: &Query, d: &Structure, label: &str) -> Nat {
        let reference = nat_count(q, d);
        for (kernel, choice) in registered_backends() {
            let got = CountRequest::new(q, d).backend(choice).count();
            assert_eq!(got, reference, "{label}: backend {} on {q}", kernel.name());
        }
        let mut tally = 0u64;
        for_each_hom_limited(q, d, 0, |_| {
            tally += 1;
            true
        });
        assert_eq!(Nat::from_u64(tally), reference, "{label}: enumeration tally on {q}");
        let work = (d.vertex_count() as f64).powi(q.var_count() as i32);
        if work <= 2e5 {
            assert_eq!(brute_force(q, d), reference, "{label}: brute force on {q}");
        }
        reference
    }

    /// A deterministic xorshift stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u32) -> u32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as u32
        }
    }

    /// `facts` distinct random `E` edges over `vertices` vertices (the
    /// shape of the serve-cold count frames).
    pub(super) fn random_graph(
        schema: &Arc<Schema>,
        vertices: u32,
        facts: usize,
        seed: u64,
    ) -> Structure {
        let e = schema.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(schema));
        d.add_vertices(vertices.saturating_sub(d.vertex_count()));
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        while d.atom_count(e) < facts {
            d.add_atom(e, &[Vertex(rng.below(vertices)), Vertex(rng.below(vertices))]);
        }
        d
    }

    /// A ternary relation whose bucket at position 0 repeats values at
    /// position 1 (`x` fixed: few `y`s, many `z`s each), plus a sparse
    /// `E` and a loop at the constant.
    fn repetitive_structure(seed: u64) -> Structure {
        let s = schema();
        let r = s.relation_by_name("R").unwrap();
        let e = s.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(6);
        let mut rng = Rng(seed | 1);
        for x in 0..7 {
            for _ in 0..6 {
                let (y, z) = (rng.below(2), rng.below(7));
                d.add_atom(r, &[Vertex(x), Vertex(y), Vertex(z)]);
            }
            d.add_atom(e, &[Vertex(x), Vertex(rng.below(7))]);
        }
        d.add_atom(e, &[Vertex(0), Vertex(0)]);
        d
    }

    fn build(f: impl FnOnce(&mut bagcq_query::QueryBuilder)) -> Query {
        let mut qb = Query::builder(schema());
        f(&mut qb);
        qb.build()
    }

    #[test]
    fn repeated_variables() {
        let d = repetitive_structure(3);
        let queries = [
            build(|qb| {
                let x = qb.var("x");
                qb.atom_named("E", &[x, x]);
            }),
            build(|qb| {
                let (x, y) = (qb.var("x"), qb.var("y"));
                qb.atom_named("E", &[x, x]).atom_named("E", &[x, y]);
            }),
            build(|qb| {
                let (x, y) = (qb.var("x"), qb.var("y"));
                qb.atom_named("R", &[x, y, y]).atom_named("E", &[y, x]);
            }),
            build(|qb| {
                let (x, y) = (qb.var("x"), qb.var("y"));
                qb.atom_named("R", &[x, y, x]).atom_named("R", &[y, x, x]);
            }),
        ];
        for q in &queries {
            assert_all_agree(q, &d, "repeated variables");
        }
    }

    #[test]
    fn constants_inside_atoms() {
        let d = repetitive_structure(5);
        let queries = [
            build(|qb| {
                let (a, x) = (qb.constant("a"), qb.var("x"));
                qb.atom_named("E", &[a, x]);
            }),
            build(|qb| {
                let (a, x, y) = (qb.constant("a"), qb.var("x"), qb.var("y"));
                qb.atom_named("E", &[x, a]).atom_named("R", &[x, y, a]);
            }),
            build(|qb| {
                let (a, x, y, z) = (qb.constant("a"), qb.var("x"), qb.var("y"), qb.var("z"));
                qb.atom_named("R", &[a, x, y]).atom_named("R", &[y, z, a]).atom_named("E", &[x, z]);
            }),
        ];
        for q in &queries {
            assert_all_agree(q, &d, "constants");
        }
    }

    /// `R(x, y, z)` with `x` bound: the bucket repeats `y` once per `z`,
    /// so a `y` candidate drawn from it must be deduplicated.
    #[test]
    fn ternary_buckets_repeat_values() {
        for seed in 1..6 {
            let d = repetitive_structure(seed);
            let queries = [
                build(|qb| {
                    let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
                    qb.atom_named("R", &[x, y, z]);
                }),
                build(|qb| {
                    let (x, y, z, w) = (qb.var("x"), qb.var("y"), qb.var("z"), qb.var("w"));
                    qb.atom_named("R", &[x, y, z]).atom_named("R", &[z, y, w]);
                }),
                build(|qb| {
                    let (x, y, z, w) = (qb.var("x"), qb.var("y"), qb.var("z"), qb.var("w"));
                    qb.atom_named("E", &[w, x])
                        .atom_named("R", &[x, y, z])
                        .atom_named("R", &[w, y, x])
                        .atom_named("E", &[z, w]);
                }),
            ];
            for q in &queries {
                assert_all_agree(q, &d, &format!("ternary dedup, seed {seed}"));
            }
        }
    }

    #[test]
    fn variables_only_in_inequalities() {
        let d = repetitive_structure(2);
        let queries = [
            build(|qb| {
                let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
                qb.atom_named("E", &[x, y]).neq(z, x).neq(z, y);
            }),
            build(|qb| {
                let (x, y, z, w) = (qb.var("x"), qb.var("y"), qb.var("z"), qb.var("w"));
                qb.atom_named("R", &[x, y, x]).neq(z, w).neq(w, x);
            }),
            build(|qb| {
                let (a, z, w) = (qb.constant("a"), qb.var("z"), qb.var("w"));
                qb.neq(z, a).neq(z, w);
            }),
        ];
        for q in &queries {
            assert_all_agree(q, &d, "inequality-only variables");
        }
    }

    #[test]
    fn empty_relations() {
        let mut d = repetitive_structure(4);
        let r = d.schema().relation_by_name("R").unwrap();
        d.clear_relation(r);
        let queries = [
            build(|qb| {
                let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
                qb.atom_named("R", &[x, y, z]);
            }),
            build(|qb| {
                let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
                qb.atom_named("E", &[x, y]).atom_named("R", &[y, z, z]);
            }),
            build(|qb| {
                let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
                qb.atom_named("E", &[x, y]).neq(x, z);
            }),
        ];
        for q in &queries {
            assert_all_agree(q, &d, "empty relation");
        }
        let empty = Structure::new(schema());
        for q in &queries {
            assert_eq!(assert_all_agree(q, &empty, "empty structure"), Nat::zero());
        }
    }

    /// The serve-cold count frames: 100 distinct facts over 30 vertices,
    /// 3- and 4-atom paths and cycles (plus a 5-atom path).
    #[test]
    fn serve_cold_frames() {
        let s = schema();
        for seed in [1u64, 7, 42] {
            let d = random_graph(&s, 30, 100, seed);
            for q in [
                path_query(&s, "E", 3),
                path_query(&s, "E", 4),
                path_query(&s, "E", 5),
                cycle_query(&s, "E", 3),
                cycle_query(&s, "E", 4),
            ] {
                assert_all_agree(&q, &d, &format!("100-fact frame, seed {seed}"));
            }
        }
    }

    /// Random queries (constants, inequalities, ternary atoms) over the
    /// repetitive structure.
    #[test]
    fn random_queries_on_repetitive_structures() {
        let mut nonzero = 0;
        for seed in 0..40u64 {
            let q = small_query(seed, 4, 4, (seed % 3) as usize);
            let d = repetitive_structure(seed + 11);
            if !assert_all_agree(&q, &d, &format!("random query, seed {seed}")).is_zero() {
                nonzero += 1;
            }
        }
        assert!(nonzero >= 10, "only {nonzero} of 40 random cases had a match");
    }

    /// Steps the kernel needs for `q` on `d`: the smallest step budget
    /// that lets it finish.
    pub(super) fn steps_needed(q: &Query, d: &Structure, choice: BackendChoice) -> u64 {
        let (mut lo, mut hi) = (0u64, 1 << 40);
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            match CountRequest::new(q, d).backend(choice).step_budget(mid).run() {
                Ok(_) => hi = mid,
                Err(_) => lo = mid,
            }
        }
        hi
    }
}

/// Cancellation still bites on the index-driven kernels: on a 100-fact,
/// 30-vertex instance shaped like the serve-cold count frames, a small
/// step budget and a checkpoint hook that fails at the ticker's polls
/// both stop every kernel (and the enumeration) with a typed
/// cancellation.
mod cancellation {
    use super::candidate_paths::{random_graph, steps_needed};
    use super::*;
    use bagcq_homcount::{
        try_for_each_hom_limited, CancelReason, Cancelled, CheckpointHook, CountError, EvalControl,
        CHECK_INTERVAL,
    };
    use bagcq_query::cycle_query;

    /// A 4-cycle beside a 4-edge path: two serve-cold queries in one
    /// count, so every kernel runs past its first ticker poll.
    fn instance(seed: u64) -> (Query, Structure) {
        let s = schema();
        let q = cycle_query(&s, "E", 4).disjoint_conj(&path_query(&s, "E", 4));
        (q, random_graph(&s, 30, 100, seed))
    }

    struct FailAtTicks;

    impl CheckpointHook for FailAtTicks {
        fn checkpoint(&self, site: &'static str) -> Result<(), Cancelled> {
            if site == "homcount/tick" {
                Err(Cancelled(CancelReason::Cancelled))
            } else {
                Ok(())
            }
        }
    }

    fn run(
        q: &Query,
        d: &Structure,
        choice: BackendChoice,
        ctl: EvalControl,
    ) -> Result<Nat, CountError> {
        CountRequest::new(q, d).backend(choice).control(ctl).run()
    }

    #[test]
    fn small_step_budget_stops_both_kernels() {
        for seed in [1u64, 7, 42] {
            let (q, d) = instance(seed);
            for (kernel, choice) in registered_backends() {
                let got = run(&q, &d, choice, EvalControl::new(64, None));
                assert!(
                    matches!(
                        got,
                        Err(CountError::Cancelled(Cancelled(CancelReason::BudgetExhausted)))
                    ),
                    "seed {seed}: {} ran past a 64-step budget: {got:?}",
                    kernel.name()
                );
            }
            let enumerated =
                try_for_each_hom_limited(&q, &d, 0, &EvalControl::new(64, None), |_| true);
            assert_eq!(enumerated, Err(Cancelled(CancelReason::BudgetExhausted)), "seed {seed}");
        }
    }

    #[test]
    fn failing_checkpoint_hook_stops_both_kernels() {
        for seed in [1u64, 7, 42] {
            let (q, d) = instance(seed);
            let ctl = EvalControl::with_hook(0, None, Some(Arc::new(FailAtTicks)));
            for (kernel, choice) in registered_backends() {
                let steps = steps_needed(&q, &d, choice);
                assert!(
                    steps > CHECK_INTERVAL,
                    "seed {seed}: {} finishes in {steps} steps, before any poll",
                    kernel.name()
                );
                let got = run(&q, &d, choice, ctl.clone());
                assert!(
                    matches!(got, Err(CountError::Cancelled(Cancelled(CancelReason::Cancelled)))),
                    "seed {seed}: {} ignored the failing hook: {got:?}",
                    kernel.name()
                );
            }
            assert_eq!(
                try_for_each_hom_limited(&q, &d, 0, &ctl, |_| true),
                Err(Cancelled(CancelReason::Cancelled)),
                "seed {seed}"
            );
        }
    }
}

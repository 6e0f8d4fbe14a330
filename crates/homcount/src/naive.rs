//! The baseline counting engine: indexed backtracking enumeration.
//!
//! `ψ(D) = |Hom(ψ, D)|` is computed by ordering the atoms greedily for
//! connectivity and backtracking over candidate tuples: each atom scans the
//! smallest bucket of the per-count tuple index among its bound positions,
//! in place. One search core serves counting and enumeration
//! ([`for_each_hom_limited`]). Two structural optimizations keep the engine
//! usable on the paper's constructions:
//!
//! * **component factorization** — by Lemma 1 the count of a query is the
//!   product over its connected components, so `θ↑k` costs `k` component
//!   counts, not `θ(D)^k` enumeration steps;
//! * **free-variable factor** — variables occurring in no atom and no
//!   inequality contribute `|V_D|` each.
//!
//! The engine is deliberately simple: it is the *reference* whose results
//! the tree-decomposition engine (and everything built on top) is
//! cross-validated against.

use crate::cancel::{Cancelled, EvalControl, Ticker};
use crate::common::{
    components, free_var_factor, ground_gates_hold, inequality_ok, resolve, TupleIndex, UNASSIGNED,
};
use bagcq_arith::{Accumulator, Nat};
use bagcq_query::{Atom, Query, Term};
use bagcq_structure::Structure;

/// Reference counting engine (indexed backtracking).
#[derive(Default, Clone, Copy, Debug)]
pub struct NaiveCounter;

impl NaiveCounter {
    /// Ablation baseline: counts by enumerating every homomorphism one at
    /// a time, with no component factorization and no free-variable
    /// shortcut. Exponentially slower on disjoint conjunctions (`θ↑k`
    /// costs `θ(D)^k` steps instead of `k` component counts) — used by the
    /// ablation benchmark to quantify what the factorization buys.
    pub fn count_enumerative(&self, q: &Query, d: &Structure) -> Nat {
        let mut total = Nat::zero();
        for_each_hom_limited(q, d, 0, |_| {
            total.add_assign_u64(1);
            true
        });
        total
    }

    /// Decides `D ⊨ ψ` (set semantics): is there at least one homomorphism?
    pub fn exists(&self, q: &Query, d: &Structure) -> bool {
        let mut any = false;
        for_each_hom_limited(q, d, 1, |_| {
            any = true;
            false
        });
        any
    }
}

/// The backtracking kernel, generic over the accumulator: `A = Nat` is the
/// arbitrary-precision reference path, `A = Acc` the machine-word fast
/// path. Both monomorphize to the same control flow, so their results are
/// bit-identical by construction of [`Accumulator`].
pub(crate) fn try_count_generic<A: Accumulator>(
    q: &Query,
    d: &Structure,
    ctl: &EvalControl,
) -> Result<Nat, Cancelled> {
    let _span = bagcq_obs::span("homcount.naive", "backtrack");
    let comps = components(q);

    // Ground atoms/inequalities gate the whole count.
    if !ground_gates_hold(q, d, &comps) {
        return Ok(Nat::zero());
    }

    let index = TupleIndex::new(d);
    let mut search = Search::new(q, d, &index);
    let mut ticker = ctl.ticker();
    let mut total = A::one();
    for (atom_idx, _, vars) in &comps.comps {
        // Component variables no atom binds occur only in inequalities:
        // the leaves enumerate them over the domain.
        let order = order_atoms(q, d, atom_idx);
        let tail = unbound_by(q, &order, vars.iter().copied());
        let mut tally = Tally(A::zero());
        search.run(&order, &tail, &mut ticker, &mut tally)?;
        let c = tally.0;
        if c.is_zero() {
            return Ok(Nat::zero());
        }
        ctl.charge(c.heap_bytes())?;
        total.mul_assign_acc(&c);
    }
    if comps.free_vars > 0 {
        total.mul_assign_nat(&free_var_factor(
            d.vertex_count() as u64,
            comps.free_vars as u64,
            ctl,
        )?);
    }
    Ok(total.into_nat())
}

/// Greedy atom ordering: repeatedly pick the atom with the most already-
/// bound variables (connectivity first), tie-breaking towards smaller
/// relations.
fn order_atoms(q: &Query, d: &Structure, atom_idx: &[usize]) -> Vec<usize> {
    let mut remaining: Vec<usize> = atom_idx.to_vec();
    let mut bound: Vec<bool> = vec![false; q.var_count() as usize];
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &ai)| {
                let a = &q.atoms()[ai];
                let bound_vars = a
                    .args
                    .iter()
                    .filter(|t| matches!(t, Term::Var(v) if bound[v.0 as usize]))
                    .count();
                let consts = a.args.iter().filter(|t| matches!(t, Term::Const(_))).count();
                // Prefer connectivity, then constants, then small relations.
                (bound_vars, consts, usize::MAX - d.atom_count(a.rel))
            })
            .expect("nonempty");
        order.push(best);
        for t in &q.atoms()[best].args {
            if let Term::Var(v) = t {
                bound[v.0 as usize] = true;
            }
        }
        remaining.swap_remove(pos);
    }
    order
}

/// The variables among `vars` that no atom of `order` mentions.
fn unbound_by(q: &Query, order: &[usize], vars: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut bound = vec![false; q.var_count() as usize];
    for &ai in order {
        for t in &q.atoms()[ai].args {
            if let Term::Var(v) = t {
                bound[v.0 as usize] = true;
            }
        }
    }
    vars.filter(|&v| !bound[v as usize]).collect()
}

/// What the search does with each complete match.
trait Visitor {
    /// Receives one complete assignment; `false` stops the search.
    fn visit(&mut self, assign: &[u32]) -> bool;
}

/// Counts matches.
struct Tally<A>(A);

impl<A: Accumulator> Visitor for Tally<A> {
    #[inline]
    fn visit(&mut self, _: &[u32]) -> bool {
        self.0.add_one();
        true
    }
}

/// Hands matches to a callback until it declines or `limit` (`0` =
/// unlimited) matches were seen.
struct Limited<F> {
    f: F,
    seen: u64,
    limit: u64,
}

impl<F: FnMut(&[u32]) -> bool> Visitor for Limited<F> {
    fn visit(&mut self, assign: &[u32]) -> bool {
        self.seen += 1;
        (self.f)(assign) && (self.limit == 0 || self.seen < self.limit)
    }
}

/// The one indexed backtracking core behind counting and enumeration.
///
/// Atoms are matched in a fixed order; each atom's candidate tuples are
/// the smallest index bucket among its bound positions (or the whole
/// relation), iterated in place. Once every atom matched, the `tail`
/// variables (those no atom binds) range over the domain. Each tuple or
/// domain value examined costs one [`Ticker::tick`]; a newly bound
/// variable is checked against the inequalities mentioning it.
struct Search<'a> {
    q: &'a Query,
    d: &'a Structure,
    index: &'a TupleIndex<'a>,
    /// `watch[v]`: the inequalities mentioning variable `v`.
    watch: Vec<Vec<usize>>,
    assign: Vec<u32>,
    trail: Vec<u32>,
}

impl<'a> Search<'a> {
    fn new(q: &'a Query, d: &'a Structure, index: &'a TupleIndex<'a>) -> Self {
        let mut watch = vec![Vec::new(); q.var_count() as usize];
        for (i, ineq) in q.inequalities().iter().enumerate() {
            for side in [ineq.lhs, ineq.rhs] {
                if let Term::Var(v) = side {
                    if watch[v.0 as usize].last() != Some(&i) {
                        watch[v.0 as usize].push(i);
                    }
                }
            }
        }
        Search {
            q,
            d,
            index,
            watch,
            assign: vec![UNASSIGNED; q.var_count() as usize],
            trail: Vec::new(),
        }
    }

    /// Visits every match of the atoms in `order` extended over `tail`;
    /// `Ok(false)` iff the visitor stopped the search.
    fn run(
        &mut self,
        order: &[usize],
        tail: &[u32],
        ticker: &mut Ticker<'_>,
        visitor: &mut impl Visitor,
    ) -> Result<bool, Cancelled> {
        let Some((&ai, rest)) = order.split_first() else {
            return self.enumerate_tail(tail, ticker, visitor);
        };
        let atom = &self.q.atoms()[ai];
        // The most selective access path: the bound position with the
        // smallest index bucket, else a full relation scan.
        let index = self.index;
        let mut best: Option<&[u32]> = None;
        for (pos, t) in atom.args.iter().enumerate() {
            let v = resolve(t, &self.assign, self.d);
            if v != UNASSIGNED {
                let bucket = index.bucket(atom.rel, pos, v);
                if best.is_none_or(|b| bucket.len() < b.len()) {
                    best = Some(bucket);
                }
            }
        }
        let flat = self.d.flat_tuples(atom.rel);
        let arity = atom.args.len();
        let mut try_tuple = |search: &mut Self, ti: usize| -> Result<bool, Cancelled> {
            ticker.tick()?;
            let mark = search.trail.len();
            let go = !search.bind(atom, &flat[ti * arity..(ti + 1) * arity])
                || search.run(rest, tail, ticker, visitor)?;
            search.unwind(mark);
            Ok(go)
        };
        match best {
            Some(ids) => {
                for &ti in ids {
                    if !try_tuple(self, ti as usize)? {
                        return Ok(false);
                    }
                }
            }
            None => {
                for ti in 0..self.d.atom_count(atom.rel) {
                    if !try_tuple(self, ti)? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Binds the atom's unbound variables to `tuple`; `false` (with the
    /// partial bindings left on the trail) if the tuple clashes with a
    /// constant, an earlier binding or an inequality.
    fn bind(&mut self, atom: &Atom, tuple: &[u32]) -> bool {
        for (t, &want) in atom.args.iter().zip(tuple) {
            match t {
                Term::Const(c) => {
                    if self.d.constant_vertex(*c).0 != want {
                        return false;
                    }
                }
                Term::Var(v) => {
                    let cur = self.assign[v.0 as usize];
                    if cur == UNASSIGNED {
                        self.assign[v.0 as usize] = want;
                        self.trail.push(v.0);
                        if !self.inequalities_hold(v.0) {
                            return false;
                        }
                    } else if cur != want {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[inline]
    fn inequalities_hold(&self, v: u32) -> bool {
        self.watch[v as usize]
            .iter()
            .all(|&i| inequality_ok(&self.q.inequalities()[i], &self.assign, self.d))
    }

    fn unwind(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.assign[v as usize] = UNASSIGNED;
        }
    }

    fn enumerate_tail(
        &mut self,
        tail: &[u32],
        ticker: &mut Ticker<'_>,
        visitor: &mut impl Visitor,
    ) -> Result<bool, Cancelled> {
        let Some((&v, rest)) = tail.split_first() else {
            return Ok(visitor.visit(&self.assign));
        };
        for u in 0..self.d.vertex_count() {
            ticker.tick()?;
            self.assign[v as usize] = u;
            if self.inequalities_hold(v) && !self.enumerate_tail(rest, ticker, visitor)? {
                self.assign[v as usize] = UNASSIGNED;
                return Ok(false);
            }
        }
        self.assign[v as usize] = UNASSIGNED;
        Ok(true)
    }
}

/// Enumerates complete homomorphisms (every variable assigned, including
/// free ones), invoking `f` with the assignment; `f` returns `false` to
/// stop early. `limit == 0` means unlimited.
///
/// This is the exhaustive path used by the onto-homomorphism search and by
/// cross-validation tests; the optimized counters above never materialize
/// individual homs.
pub fn for_each_hom_limited(q: &Query, d: &Structure, limit: u64, f: impl FnMut(&[u32]) -> bool) {
    try_for_each_hom_limited(q, d, limit, &EvalControl::unlimited(), f)
        .expect("unlimited enumeration cannot be cancelled")
}

/// Cancellable form of [`for_each_hom_limited`]: additionally stops with
/// [`Cancelled`] when the step budget or token of `ctl` trips.
pub fn try_for_each_hom_limited(
    q: &Query,
    d: &Structure,
    limit: u64,
    ctl: &EvalControl,
    f: impl FnMut(&[u32]) -> bool,
) -> Result<(), Cancelled> {
    let comps = components(q);
    if !ground_gates_hold(q, d, &comps) {
        return Ok(());
    }
    let all_atoms: Vec<usize> = (0..q.atoms().len()).collect();
    let order = order_atoms(q, d, &all_atoms);
    let tail = unbound_by(q, &order, 0..q.var_count());
    let index = TupleIndex::new(d);
    let mut ticker = ctl.ticker();
    Search::new(q, d, &index).run(
        &order,
        &tail,
        &mut ticker,
        &mut Limited { f, seen: 0, limit },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendChoice, CountError, CountRequest};
    use bagcq_query::{cycle_query, path_query, star_query};
    use bagcq_structure::{SchemaBuilder, Vertex};
    use std::sync::Arc;

    fn naive_count(q: &Query, d: &Structure) -> Nat {
        CountRequest::new(q, d).backend(BackendChoice::Naive).count()
    }

    fn naive_try_count(q: &Query, d: &Structure, ctl: &EvalControl) -> Result<Nat, Cancelled> {
        match CountRequest::new(q, d).backend(BackendChoice::Naive).control(ctl.clone()).run() {
            Ok(n) => Ok(n),
            Err(CountError::Cancelled(c)) => Err(c),
            Err(e) => panic!("naive backend only fails by cancellation: {e}"),
        }
    }

    fn digraph() -> Arc<bagcq_structure::Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    /// Directed cycle structure of length n.
    fn cycle_struct(schema: &Arc<bagcq_structure::Schema>, n: u32) -> Structure {
        let e = schema.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(schema));
        d.add_vertices(n);
        for i in 0..n {
            d.add_atom(e, &[Vertex(i), Vertex((i + 1) % n)]);
        }
        d
    }

    /// Complete digraph with loops on n vertices.
    fn complete_struct(schema: &Arc<bagcq_structure::Schema>, n: u32) -> Structure {
        let e = schema.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(schema));
        d.add_vertices(n);
        for i in 0..n {
            for j in 0..n {
                d.add_atom(e, &[Vertex(i), Vertex(j)]);
            }
        }
        d
    }

    #[test]
    fn edge_into_cycle() {
        let s = digraph();
        let d = cycle_struct(&s, 5);
        let q = path_query(&s, "E", 1);
        // Every edge is a hom: 5.
        assert_eq!(naive_count(&q, &d), Nat::from_u64(5));
    }

    #[test]
    fn paths_into_complete_graph() {
        let s = digraph();
        let d = complete_struct(&s, 4);
        // A path with k edges has k+1 vertices: 4^(k+1) homs.
        for k in 1..5 {
            let q = path_query(&s, "E", k);
            assert_eq!(naive_count(&q, &d), Nat::from_u64(4u64.pow(k + 1)), "path length {k}");
        }
    }

    #[test]
    fn cycle_into_cycle() {
        let s = digraph();
        // Homs C_k → C_n: k-cycle maps onto n-cycle iff n | k, and there
        // are n of them (choice of start).
        let d = cycle_struct(&s, 3);
        assert_eq!(naive_count(&cycle_query(&s, "E", 3), &d), Nat::from_u64(3));
        assert_eq!(naive_count(&cycle_query(&s, "E", 6), &d), Nat::from_u64(3));
        assert_eq!(naive_count(&cycle_query(&s, "E", 4), &d), Nat::zero());
    }

    #[test]
    fn star_counts() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(4);
        // 0 → 1,2,3
        for j in 1..4 {
            d.add_atom(e, &[Vertex(0), Vertex(j)]);
        }
        // Star with 2 leaves from the center: 3² choices of leaves.
        let q = star_query(&s, "E", 2);
        assert_eq!(naive_count(&q, &d), Nat::from_u64(9));
    }

    #[test]
    fn lemma1_multiplicativity() {
        // (ρ ∧̄ ρ')(D) = ρ(D)·ρ'(D) — the disjoint-conjunction law.
        let s = digraph();
        let d = cycle_struct(&s, 4);
        let p1 = path_query(&s, "E", 1);
        let p2 = path_query(&s, "E", 2);
        let conj = p1.disjoint_conj(&p2);
        let c1 = naive_count(&p1, &d);
        let c2 = naive_count(&p2, &d);
        assert_eq!(naive_count(&conj, &d), c1.mul_ref(&c2));
    }

    #[test]
    fn definition2_power_law() {
        let s = digraph();
        let d = complete_struct(&s, 3);
        let q = path_query(&s, "E", 1);
        let c = naive_count(&q, &d);
        for k in 0..4 {
            assert_eq!(naive_count(&q.power(k), &d), c.pow_u64(k as u64), "power {k}");
        }
    }

    #[test]
    fn inequality_semantics() {
        let s = digraph();
        let d = complete_struct(&s, 3);
        // E(x,y): 9 homs; with x ≠ y: 6.
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]).neq(x, y);
        assert_eq!(naive_count(&qb.build(), &d), Nat::from_u64(6));
    }

    #[test]
    fn inequality_only_variables() {
        let s = digraph();
        let d = complete_struct(&s, 4);
        // x ≠ y with neither in an atom: 4·3 = 12 assignments.
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.neq(x, y);
        assert_eq!(naive_count(&qb.build(), &d), Nat::from_u64(12));
    }

    #[test]
    fn free_variable_factor() {
        let s = digraph();
        let d = complete_struct(&s, 5);
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        let _free = qb.var("free");
        qb.atom_named("E", &[x, y]);
        // 25 edge homs × 5 for the free variable.
        assert_eq!(naive_count(&qb.build(), &d), Nat::from_u64(125));
    }

    #[test]
    fn empty_query_counts_one() {
        let s = digraph();
        let d = cycle_struct(&s, 3);
        let q = bagcq_query::Query::empty(Arc::clone(&s));
        assert_eq!(naive_count(&q, &d), Nat::one());
    }

    #[test]
    fn ground_atoms_gate() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        let s = b.build();
        let e = s.relation_by_name("E").unwrap();
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let a = qb.constant("a");
        qb.atom_named("E", &[a, a]);
        let q = qb.build();

        let mut d = Structure::new(Arc::clone(&s));
        assert_eq!(naive_count(&q, &d), Nat::zero());
        let av = d.constant_vertex(s.constant_by_name("a").unwrap());
        d.add_atom(e, &[av, av]);
        assert_eq!(naive_count(&q, &d), Nat::one());
    }

    #[test]
    fn repeated_variable_in_atom() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(3);
        d.add_atom(e, &[Vertex(0), Vertex(0)]); // loop
        d.add_atom(e, &[Vertex(0), Vertex(1)]);
        // E(x,x) matches only the loop.
        let q = cycle_query(&s, "E", 1);
        assert_eq!(naive_count(&q, &d), Nat::one());
    }

    #[test]
    fn exists_early_exit() {
        let s = digraph();
        let d = complete_struct(&s, 10);
        let q = path_query(&s, "E", 6);
        assert!(NaiveCounter.exists(&q, &d));
        let d0 = Structure::new(Arc::clone(&s));
        assert!(!NaiveCounter.exists(&q, &d0));
    }

    #[test]
    fn for_each_hom_enumerates_all() {
        let s = digraph();
        let d = complete_struct(&s, 3);
        let q = path_query(&s, "E", 1);
        let mut homs = Vec::new();
        for_each_hom_limited(&q, &d, 0, |a| {
            homs.push(a.to_vec());
            true
        });
        assert_eq!(homs.len(), 9);
        homs.sort();
        homs.dedup();
        assert_eq!(homs.len(), 9);
    }

    #[test]
    fn for_each_hom_respects_limit() {
        let s = digraph();
        let d = complete_struct(&s, 3);
        let q = path_query(&s, "E", 1);
        let mut n = 0;
        for_each_hom_limited(&q, &d, 4, |_| {
            n += 1;
            true
        });
        assert_eq!(n, 4);
    }

    #[test]
    fn step_budget_stops_count() {
        use crate::cancel::CancelReason;
        let s = digraph();
        let d = complete_struct(&s, 8);
        let q = path_query(&s, "E", 5);
        // A tiny budget must trip; a generous one must agree with count().
        let tiny = EvalControl::new(3, None);
        assert_eq!(naive_try_count(&q, &d, &tiny), Err(Cancelled(CancelReason::BudgetExhausted)));
        let roomy = EvalControl::new(100_000_000, None);
        assert_eq!(naive_try_count(&q, &d, &roomy), Ok(naive_count(&q, &d)));
    }

    #[test]
    fn pre_cancelled_token_stops_enumeration() {
        use crate::cancel::CancelToken;
        let s = digraph();
        let d = complete_struct(&s, 6);
        let q = path_query(&s, "E", 6);
        let token = CancelToken::new();
        token.cancel();
        let ctl = EvalControl::new(0, Some(token));
        let mut n = 0u64;
        let r = try_for_each_hom_limited(&q, &d, 0, &ctl, |_| {
            n += 1;
            true
        });
        assert!(r.is_err());
        // Polls happen every CHECK_INTERVAL steps, so a bounded prefix may
        // have been visited before the trip.
        assert!(n < 10 * crate::cancel::CHECK_INTERVAL, "saw {n} homs");
    }

    #[test]
    fn budget_counts_inequality_enumeration() {
        use crate::cancel::CancelReason;
        let s = digraph();
        let d = complete_struct(&s, 50);
        // x ≠ y with neither in an atom: pure enumeration territory.
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.neq(x, y);
        let q = qb.build();
        let tiny = EvalControl::new(10, None);
        assert_eq!(naive_try_count(&q, &d, &tiny), Err(Cancelled(CancelReason::BudgetExhausted)));
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::backend::{BackendChoice, CountRequest};
    use bagcq_query::{path_query, QueryGen};
    use bagcq_structure::{SchemaBuilder, StructureGen};
    use std::sync::Arc;

    fn naive_count(q: &Query, d: &Structure) -> Nat {
        CountRequest::new(q, d).backend(BackendChoice::Naive).count()
    }

    #[test]
    fn enumerative_agrees_with_factored() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        let s = b.build();
        let qg = QueryGen { variables: 3, atoms: 3, constant_prob: 0.1, inequalities: 1 };
        let sg = StructureGen { extra_vertices: 3, density: 0.4, ..Default::default() };
        for seed in 0..15u64 {
            let q = qg.sample(&s, seed);
            let d = sg.sample(&s, seed + 1000);
            assert_eq!(NaiveCounter.count_enumerative(&q, &d), naive_count(&q, &d), "seed {seed}");
        }
    }

    #[test]
    fn enumerative_agrees_on_powers() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        let s = b.build();
        let d =
            StructureGen { extra_vertices: 3, density: 0.5, ..Default::default() }.sample(&s, 3);
        let q = path_query(&s, "E", 1).power(2);
        assert_eq!(NaiveCounter.count_enumerative(&q, &d), naive_count(&q, &d));
        let _ = Arc::strong_count(&s);
    }
}

//! The optimized counting engine: `#Hom` by dynamic programming over a
//! tree decomposition of the query's primal graph.
//!
//! Each bag's satisfying assignments are enumerated from the per-count
//! tuple index: a bag variable's candidates are the smallest bucket of a
//! bag atom that pairs it with an already-bound term, else the distinct
//! values at its position in a bag atom, and the whole domain `0..n` only
//! for a variable in no bag atom. Atoms and inequalities are checked at the
//! depth where they become fully bound, and a child's table is joined (and
//! prunes) as soon as its separator is bound. For a query of treewidth `w`
//! over `n` vertices, `#bags · n^{w+1}` candidates remain the worst case
//! (dense data), but a bag over a sparse database costs about its number of
//! matching tuple combinations — for a path bag, `|E|` times the average
//! degree. Either way the cost is exponential in the *width*, not in the
//! number of variables, which is what separates it from
//! [`crate::NaiveCounter`] on low-width query families (paths, cycles,
//! stars, grids; experiment E-PERF1).

use crate::cancel::{Cancelled, EvalControl, Ticker};
use crate::common::{components, free_var_factor, ground_gates_hold, FxMap, TupleIndex};
use crate::treedec::{BitGraph, TreeDecomposition};
use bagcq_arith::{Accumulator, Nat};
use bagcq_query::{Query, Term};
use bagcq_structure::{RelId, Structure};
use std::collections::HashMap;

/// Tree-decomposition dynamic-programming counting engine.
#[derive(Default, Clone, Copy, Debug)]
pub struct TreewidthCounter;

impl TreewidthCounter {
    /// The width min-fill found for this query's primal graph (diagnostics
    /// and bench labeling).
    pub fn decomposition_width(&self, q: &Query) -> usize {
        let comps = components(q);
        comps
            .comps
            .iter()
            .map(|(atom_idx, ineq_idx, vars)| {
                let (td, _) = decompose_component(q, atom_idx, ineq_idx, vars);
                td.width()
            })
            .max()
            .unwrap_or(0)
    }
}

/// The DP kernel, generic over the accumulator — see
/// [`crate::naive::try_count_generic`] for the `Nat`/`Acc` contract.
pub(crate) fn try_count_generic<A: Accumulator>(
    q: &Query,
    d: &Structure,
    ctl: &EvalControl,
) -> Result<Nat, Cancelled> {
    let comps = components(q);

    // Ground gates, as in the naive engine.
    if !ground_gates_hold(q, d, &comps) {
        return Ok(Nat::zero());
    }

    let index = TupleIndex::new(d);
    let mut ticker = ctl.ticker();
    let mut total = A::one();
    for (atom_idx, ineq_idx, vars) in &comps.comps {
        let c = count_component::<A>(q, d, &index, atom_idx, ineq_idx, vars, &mut ticker)?;
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

/// Builds the local primal graph and its decomposition for one component.
/// Returns the TD (over *local* variable indexes) and the local index of
/// each global variable.
pub(crate) fn decompose_component(
    q: &Query,
    atom_idx: &[usize],
    ineq_idx: &[usize],
    vars: &[u32],
) -> (TreeDecomposition, HashMap<u32, u32>) {
    let _span = bagcq_obs::span("homcount.treedec", "min-fill");
    let local: HashMap<u32, u32> = vars.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
    let mut graph = BitGraph::new(vars.len() as u32);
    let mut connect_all = |terms: &mut dyn Iterator<Item = &Term>| {
        let vs: Vec<u32> = terms
            .filter_map(|t| match t {
                Term::Var(v) => Some(local[&v.0]),
                Term::Const(_) => None,
            })
            .collect();
        for (i, &a) in vs.iter().enumerate() {
            for &b in &vs[i + 1..] {
                if a != b {
                    graph.add_arc(a, b);
                    graph.add_arc(b, a);
                }
            }
        }
    };
    for &ai in atom_idx {
        connect_all(&mut q.atoms()[ai].args.iter());
    }
    for &ii in ineq_idx {
        let ineq = &q.inequalities()[ii];
        connect_all(&mut [ineq.lhs, ineq.rhs].iter());
    }
    (graph.decompose_min_fill(), local)
}

fn count_component<A: Accumulator>(
    q: &Query,
    d: &Structure,
    index: &TupleIndex<'_>,
    atom_idx: &[usize],
    ineq_idx: &[usize],
    vars: &[u32],
    ticker: &mut Ticker<'_>,
) -> Result<A, Cancelled> {
    let _span = bagcq_obs::span("homcount.bagsweep", "dp");
    let (td, local) = decompose_component(q, atom_idx, ineq_idx, vars);
    let slot_term = |t: &Term| match t {
        Term::Var(v) => Ok(local[&v.0]),
        Term::Const(c) => Err(d.constant_vertex(*c).0),
    };
    let atoms: Vec<(RelId, Vec<LocalTerm>)> = atom_idx
        .iter()
        .map(|&ai| {
            let a = &q.atoms()[ai];
            (a.rel, a.args.iter().map(slot_term).collect())
        })
        .collect();
    let ineqs: Vec<[LocalTerm; 2]> = ineq_idx
        .iter()
        .map(|&ii| {
            let ineq = &q.inequalities()[ii];
            [slot_term(&ineq.lhs), slot_term(&ineq.rhs)]
        })
        .collect();
    let width = packed_width(d.vertex_count());
    // Every constraint lies inside some bag (tree decompositions cover the
    // cliques of the primal graph), so some depth of some bag checks it.
    let in_some_bag = |terms: &[LocalTerm]| {
        td.bags
            .iter()
            .any(|bag| terms.iter().all(|t| t.map_or(true, |lv| bag.binary_search(&lv).is_ok())))
    };
    debug_assert!(atoms.iter().all(|(_, args)| in_some_bag(args)));
    debug_assert!(ineqs.iter().all(|lr| in_some_bag(lr)));

    // Bottom-up in post-order. Each non-root bag leaves behind one table:
    // its satisfying assignments, weighted by their extensions below and
    // summed per assignment of the separator with its parent.
    let mut parent = vec![usize::MAX; td.bags.len()];
    for (b, children) in td.children.iter().enumerate() {
        for &c in children {
            parent[c] = b;
        }
    }
    let mut tables: Vec<FxMap<Key, A>> = (0..td.bags.len()).map(|_| FxMap::default()).collect();
    let mut total = A::zero();
    for b in postorder(&td) {
        let bag = &td.bags[b];
        let children: Vec<(KeyShape, FxMap<Key, A>)> = td.children[b]
            .iter()
            .map(|&c| (KeyShape::new(bag, &td.bags[c], width), std::mem::take(&mut tables[c])))
            .collect();
        let plan = plan_bag(bag, &atoms, &ineqs, &children, index);
        let out = match parent[b] {
            usize::MAX => Out::Root(&mut total),
            p => Out::Parent(KeyShape::new(bag, &td.bags[p], width), &mut tables[b]),
        };
        // Placeholders until each child's join sets its weight.
        let one = A::one();
        let mut search = BagSearch {
            d,
            index,
            plan: &plan,
            children: &children,
            current: vec![0; bag.len()],
            buf: Vec::new(),
            cands: vec![Vec::new(); bag.len()],
            weights: vec![&one; children.len()],
            out,
        };
        search.step(0, ticker)?;
    }
    Ok(total)
}

/// A term of a component constraint: `Ok(local variable)` or
/// `Err(the vertex a constant denotes)`.
type LocalTerm = Result<u32, u32>;

fn postorder(td: &TreeDecomposition) -> Vec<usize> {
    let mut out = Vec::with_capacity(td.bags.len());
    let mut stack = vec![(td.root, false)];
    while let Some((b, visited)) = stack.pop() {
        if visited {
            out.push(b);
        } else {
            stack.push((b, true));
            for &c in &td.children[b] {
                stack.push((c, false));
            }
        }
    }
    out
}

/// A DP table key: the values of a bag's separator variables, bit-packed
/// when they fit 128 bits (always, for any realistic width and domain).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Packed(u128),
    Wide(Box<[u32]>),
}

/// Bits per packed vertex id over a domain of `n` vertices.
fn packed_width(n: u32) -> u32 {
    (u32::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// Where a separator's variables sit in a bag assignment, and how their
/// values pack into a [`Key`].
struct KeyShape {
    slots: Vec<usize>,
    width: u32,
}

impl KeyShape {
    /// The separator `bag ∩ other`, as slots of `bag` (both bags are
    /// sorted, so both sides list the shared variables in the same order).
    fn new(bag: &[u32], other: &[u32], width: u32) -> Self {
        let slots = (0..bag.len()).filter(|&i| other.binary_search(&bag[i]).is_ok()).collect();
        KeyShape { slots, width }
    }

    fn key(&self, current: &[u32]) -> Key {
        if self.slots.len() as u32 * self.width <= u128::BITS {
            Key::Packed(self.slots.iter().fold(0, |k, &i| k << self.width | current[i] as u128))
        } else {
            Key::Wide(self.slots.iter().map(|&i| current[i]).collect())
        }
    }
}

/// A term of a bag constraint: a constant's vertex, or a slot of the bag
/// assignment.
#[derive(Clone, Copy, PartialEq)]
enum Arg {
    Const(u32),
    Slot(usize),
}

impl Arg {
    #[inline]
    fn value(self, current: &[u32]) -> u32 {
        match self {
            Arg::Const(c) => c,
            Arg::Slot(i) => current[i],
        }
    }
}

/// One way to generate a variable's candidates: the bucket of atom `atom`
/// at position `at`, looked up by the already-bound term `key`; the
/// candidate is the tuple's value at `new`.
struct Generator {
    atom: usize,
    rel: RelId,
    at: usize,
    key: Arg,
    new: usize,
    /// Other positions a tuple must match: a bound term, or (`None`) the
    /// candidate itself where the variable repeats.
    filter: Vec<(usize, Option<Arg>)>,
    /// The atom still has unbound positions, so several tuples can yield
    /// one candidate.
    dedup: bool,
}

/// Candidates for a variable no generator covers.
enum Fallback {
    /// The distinct values at one position of a bag atom holding it.
    Values(RelId, usize),
    /// The whole domain: the variable is in no bag atom.
    Domain,
}

/// Everything one depth of a bag's enumeration does, fixed per bag.
struct Step {
    /// The bag slot this depth assigns.
    slot: usize,
    generators: Vec<Generator>,
    fallback: Fallback,
    /// Atoms that become fully bound at this depth: `(atom, relation, args)`.
    checks: Vec<(usize, RelId, Vec<Arg>)>,
    /// Inequalities that become fully bound at this depth.
    inequalities: Vec<[Arg; 2]>,
    /// Children whose separator becomes fully bound at this depth.
    joins: Vec<usize>,
}

/// A bag's enumeration order and per-depth work: one [`Step`] per bag
/// variable, in assignment order.
fn plan_bag<A>(
    bag: &[u32],
    atoms: &[(RelId, Vec<LocalTerm>)],
    ineqs: &[[LocalTerm; 2]],
    children: &[(KeyShape, FxMap<Key, A>)],
    index: &TupleIndex<'_>,
) -> Vec<Step> {
    let to_arg = |t: &LocalTerm| match *t {
        Ok(lv) => bag.binary_search(&lv).ok().map(Arg::Slot),
        Err(c) => Some(Arg::Const(c)),
    };
    // Constraints over the bag, as slot terms (`None` if some variable
    // lies outside the bag).
    let bag_atoms: Vec<(usize, RelId, Vec<Arg>)> = atoms
        .iter()
        .enumerate()
        .filter_map(|(k, (rel, args))| {
            Some((k, *rel, args.iter().map(to_arg).collect::<Option<Vec<_>>>()?))
        })
        .collect();
    let bag_ineqs: Vec<[Arg; 2]> =
        ineqs.iter().filter_map(|[l, r]| Some([to_arg(l)?, to_arg(r)?])).collect();
    let known = |a: Arg, bound: &[bool]| match a {
        Arg::Const(_) => true,
        Arg::Slot(i) => bound[i],
    };

    // Greedy order: next is a slot some bound term generates, else one
    // inside a bag atom, preferring slots shared with children.
    let mut bound = vec![false; bag.len()];
    let mut steps = Vec::with_capacity(bag.len());
    while steps.len() < bag.len() {
        let in_atom = |s: usize| bag_atoms.iter().any(|(_, _, args)| args.contains(&Arg::Slot(s)));
        let generated = |s: usize| {
            bag_atoms.iter().any(|(_, _, args)| {
                args.contains(&Arg::Slot(s))
                    && args.iter().any(|&a| a != Arg::Slot(s) && known(a, &bound))
            })
        };
        let slot = (0..bag.len())
            .filter(|&s| !bound[s])
            .max_by_key(|&s| {
                let shared = children.iter().filter(|(shape, _)| shape.slots.contains(&s)).count();
                (generated(s), in_atom(s), shared, std::cmp::Reverse(s))
            })
            .expect("an unbound slot remains");

        let mut generators = Vec::new();
        for (k, rel, args) in &bag_atoms {
            let Some(new) = args.iter().position(|a| *a == Arg::Slot(slot)) else {
                continue;
            };
            for (at, &key) in args.iter().enumerate() {
                if key == Arg::Slot(slot) || !known(key, &bound) {
                    continue;
                }
                let mut filter = Vec::new();
                let mut dedup = false;
                for (j, &a) in args.iter().enumerate() {
                    if j == at || j == new {
                        continue;
                    }
                    if a == Arg::Slot(slot) {
                        filter.push((j, None));
                    } else if known(a, &bound) {
                        filter.push((j, Some(a)));
                    } else {
                        dedup = true;
                    }
                }
                generators.push(Generator { atom: *k, rel: *rel, at, key, new, filter, dedup });
            }
        }
        let fallback = bag_atoms
            .iter()
            .filter_map(|(_, rel, args)| {
                args.iter().position(|a| *a == Arg::Slot(slot)).map(|p| (*rel, p))
            })
            .min_by_key(|&(rel, p)| index.at(rel, p).values().len())
            .map_or(Fallback::Domain, |(rel, p)| Fallback::Values(rel, p));

        bound[slot] = true;
        let completes = |args: &[Arg]| {
            args.contains(&Arg::Slot(slot)) && args.iter().all(|&a| known(a, &bound))
        };
        let checks = bag_atoms.iter().filter(|(_, _, args)| completes(args)).cloned().collect();
        let inequalities = bag_ineqs.iter().filter(|lr| completes(&lr[..])).copied().collect();
        let joins = (0..children.len())
            .filter(|&c| {
                let slots = &children[c].0.slots;
                if slots.is_empty() {
                    steps.is_empty()
                } else {
                    slots.contains(&slot) && slots.iter().all(|&s| bound[s])
                }
            })
            .collect();
        steps.push(Step { slot, generators, fallback, checks, inequalities, joins });
    }
    steps
}

/// Where a bag's weighted assignments go.
enum Out<'t, A> {
    /// The root bag: summed into the component count.
    Root(&'t mut A),
    /// A non-root bag: summed per separator assignment with the parent.
    Parent(KeyShape, &'t mut FxMap<Key, A>),
}

/// The enumeration of one bag's satisfying assignments.
struct BagSearch<'a, 't, A> {
    d: &'a Structure,
    index: &'a TupleIndex<'a>,
    plan: &'a [Step],
    children: &'a [(KeyShape, FxMap<Key, A>)],
    /// The bag assignment, in bag order.
    current: Vec<u32>,
    /// Scratch tuple for membership tests.
    buf: Vec<u32>,
    /// Per-depth candidate buffers for deduplicated generators.
    cands: Vec<Vec<u32>>,
    /// Per child: the weight of the current separator assignment.
    weights: Vec<&'a A>,
    out: Out<'t, A>,
}

impl<'a, A: Accumulator> BagSearch<'a, '_, A> {
    fn step(&mut self, i: usize, ticker: &mut Ticker<'_>) -> Result<(), Cancelled> {
        let plan = self.plan;
        let Some(step) = plan.get(i) else {
            self.emit();
            return Ok(());
        };
        // The smallest bucket among the generators, else the fallback.
        let index = self.index;
        let mut best: Option<(&Generator, &[u32])> = None;
        for g in &step.generators {
            let bucket = index.bucket(g.rel, g.at, g.key.value(&self.current));
            if best.is_none_or(|(_, b)| bucket.len() < b.len()) {
                best = Some((g, bucket));
            }
        }
        match best {
            Some((g, ids)) => {
                let flat = self.d.flat_tuples(g.rel);
                let arity = self.d.schema().arity(g.rel);
                let mut cands = std::mem::take(&mut self.cands[i]);
                cands.clear();
                for &ti in ids {
                    ticker.tick()?;
                    let t = &flat[ti as usize * arity..(ti as usize + 1) * arity];
                    let u = t[g.new];
                    let matches = g
                        .filter
                        .iter()
                        .all(|&(j, a)| t[j] == a.map_or(u, |a| a.value(&self.current)));
                    if !matches {
                        continue;
                    }
                    if g.dedup {
                        cands.push(u);
                    } else {
                        // Every position is bound: the tuple is this
                        // atom's check, already passed.
                        self.try_value(i, u, Some(g.atom), ticker)?;
                    }
                }
                cands.sort_unstable();
                cands.dedup();
                for &u in &cands {
                    self.try_value(i, u, None, ticker)?;
                }
                self.cands[i] = cands;
            }
            None => match step.fallback {
                Fallback::Values(rel, p) => {
                    for &u in index.at(rel, p).values() {
                        ticker.tick()?;
                        self.try_value(i, u, None, ticker)?;
                    }
                }
                Fallback::Domain => {
                    for u in 0..self.d.vertex_count() {
                        ticker.tick()?;
                        self.try_value(i, u, None, ticker)?;
                    }
                }
            },
        }
        Ok(())
    }

    /// Assigns `u` at depth `i`, runs the depth's checks (all but the
    /// generating atom `skip`) and joins, and descends.
    fn try_value(
        &mut self,
        i: usize,
        u: u32,
        skip: Option<usize>,
        ticker: &mut Ticker<'_>,
    ) -> Result<(), Cancelled> {
        let step = &self.plan[i];
        self.current[step.slot] = u;
        for (k, rel, args) in &step.checks {
            if skip == Some(*k) {
                continue;
            }
            self.buf.clear();
            self.buf.extend(args.iter().map(|a| a.value(&self.current)));
            if !self.d.contains_tuple(*rel, &self.buf) {
                return Ok(());
            }
        }
        if step.inequalities.iter().any(|[l, r]| l.value(&self.current) == r.value(&self.current)) {
            return Ok(());
        }
        let children = self.children;
        for &c in &step.joins {
            let (shape, table) = &children[c];
            match table.get(&shape.key(&self.current)) {
                Some(w) => self.weights[c] = w,
                None => return Ok(()),
            }
        }
        self.step(i + 1, ticker)
    }

    /// Adds the completed bag assignment, weighted by its extensions below.
    fn emit(&mut self) {
        let weight = match self.weights.split_first() {
            None => None,
            Some((first, rest)) => {
                let mut w = (*first).clone();
                for x in rest {
                    w.mul_assign_acc(x);
                }
                Some(w)
            }
        };
        let add = |acc: &mut A| match &weight {
            None => acc.add_one(),
            Some(w) => acc.add_assign_acc(w),
        };
        match &mut self.out {
            Out::Root(total) => add(total),
            Out::Parent(shape, table) => {
                add(table.entry(shape.key(&self.current)).or_insert_with(A::zero))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendChoice, CountError, CountRequest};
    use bagcq_query::{cycle_query, grid_query, path_query, star_query, QueryGen};
    use bagcq_structure::{SchemaBuilder, StructureGen, Vertex};
    use std::sync::Arc;

    fn naive_count(q: &Query, d: &Structure) -> Nat {
        CountRequest::new(q, d).backend(BackendChoice::Naive).count()
    }

    fn tw_count(q: &Query, d: &Structure) -> Nat {
        CountRequest::new(q, d).backend(BackendChoice::Treewidth).count()
    }

    fn tw_try_count(q: &Query, d: &Structure, ctl: &EvalControl) -> Result<Nat, Cancelled> {
        match CountRequest::new(q, d).backend(BackendChoice::Treewidth).control(ctl.clone()).run() {
            Ok(n) => Ok(n),
            Err(CountError::Cancelled(c)) => Err(c),
            Err(e) => panic!("treewidth backend only fails by cancellation: {e}"),
        }
    }

    fn digraph() -> Arc<bagcq_structure::Schema> {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.build()
    }

    fn cycle_struct(schema: &Arc<bagcq_structure::Schema>, n: u32) -> Structure {
        let e = schema.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(schema));
        d.add_vertices(n);
        for i in 0..n {
            d.add_atom(e, &[Vertex(i), Vertex((i + 1) % n)]);
        }
        d
    }

    #[test]
    fn agrees_with_naive_on_families() {
        let s = digraph();
        let d = cycle_struct(&s, 5);
        let mut d2 = d.clone();
        let e = s.relation_by_name("E").unwrap();
        d2.add_atom(e, &[Vertex(0), Vertex(0)]);
        d2.add_atom(e, &[Vertex(2), Vertex(0)]);
        for q in [
            path_query(&s, "E", 3),
            cycle_query(&s, "E", 4),
            star_query(&s, "E", 3),
            grid_query(&s, "E", 3, 2),
        ] {
            for dd in [&d, &d2] {
                assert_eq!(tw_count(&q, dd), naive_count(&q, dd), "query {q}");
            }
        }
    }

    #[test]
    fn agrees_with_naive_on_random_inputs() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.relation("F", 2);
        b.constant("a");
        let s = b.build();
        let qg = QueryGen { variables: 5, atoms: 6, constant_prob: 0.15, inequalities: 1 };
        let sg = StructureGen { extra_vertices: 4, density: 0.4, ..Default::default() };
        for seed in 0..30u64 {
            let q = qg.sample(&s, seed);
            let d = sg.sample(&s, seed.wrapping_mul(31) + 7);
            assert_eq!(tw_count(&q, &d), naive_count(&q, &d), "seed {seed}, query {q}");
        }
    }

    #[test]
    fn width_diagnostics() {
        let s = digraph();
        assert_eq!(TreewidthCounter.decomposition_width(&path_query(&s, "E", 5)), 1);
        assert_eq!(TreewidthCounter.decomposition_width(&cycle_query(&s, "E", 5)), 2);
        // Grids: min-fill is a heuristic; just check it is near-optimal.
        let w = TreewidthCounter.decomposition_width(&grid_query(&s, "E", 3, 3));
        assert!((2..=4).contains(&w), "grid width {w}");
    }

    #[test]
    fn power_queries_stay_cheap() {
        // θ↑6 over a 6-cycle: component factorization must keep this fast
        // and exact: count = (#homs θ)^6.
        let s = digraph();
        let d = cycle_struct(&s, 6);
        let q = path_query(&s, "E", 2).power(6);
        let single = tw_count(&path_query(&s, "E", 2), &d);
        assert_eq!(tw_count(&q, &d), single.pow_u64(6));
    }

    #[test]
    fn inequality_queries_agree() {
        let s = digraph();
        let d = cycle_struct(&s, 4);
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        qb.atom_named("E", &[x, y]).atom_named("E", &[y, z]).neq(x, z);
        let q = qb.build();
        assert_eq!(tw_count(&q, &d), naive_count(&q, &d));
    }

    #[test]
    fn step_budget_stops_dp() {
        use crate::cancel::{CancelReason, Cancelled, EvalControl};
        let s = digraph();
        let d = cycle_struct(&s, 40);
        let q = grid_query(&s, "E", 4, 4);
        let tiny = EvalControl::new(5, None);
        assert_eq!(tw_try_count(&q, &d, &tiny), Err(Cancelled(CancelReason::BudgetExhausted)));
        let roomy = EvalControl::new(500_000_000, None);
        assert_eq!(tw_try_count(&q, &d, &roomy), Ok(tw_count(&q, &d)));
    }

    /// Separators too wide to bit-pack (7 variables × 21 bits per vertex
    /// id > 128 bits) fall back to boxed keys and still count exactly.
    #[test]
    fn unpackable_separators_use_wide_keys() {
        let s = digraph();
        let e = s.relation_by_name("E").unwrap();
        let mut d = Structure::new(Arc::clone(&s));
        d.add_vertices(1 << 20);
        for a in 0..3 {
            for b in 0..3 {
                d.add_atom(e, &[Vertex(a), Vertex(b)]);
            }
        }
        // The 8-clique, oriented: every pair of its variables is an atom.
        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let xs: Vec<_> = (0..8).map(|i| qb.var(&format!("x{i}"))).collect();
        for i in 0..8 {
            for j in i + 1..8 {
                qb.atom_named("E", &[xs[i], xs[j]]);
            }
        }
        let q = qb.build();
        assert_eq!(TreewidthCounter.decomposition_width(&q), 7);
        assert!(7 * packed_width(d.vertex_count()) > u128::BITS);
        assert_eq!(tw_count(&q, &d), Nat::from_u64(3u64.pow(8)));
        assert_eq!(tw_count(&q, &d), naive_count(&q, &d));
    }

    #[test]
    fn empty_and_ground_queries() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        let s = b.build();
        let e = s.relation_by_name("E").unwrap();
        let q_empty = bagcq_query::Query::empty(Arc::clone(&s));
        let mut d = Structure::new(Arc::clone(&s));
        assert_eq!(tw_count(&q_empty, &d), Nat::one());

        let mut qb = bagcq_query::Query::builder(Arc::clone(&s));
        let a = qb.constant("a");
        qb.atom_named("E", &[a, a]);
        let q_ground = qb.build();
        assert_eq!(tw_count(&q_ground, &d), Nat::zero());
        let av = d.constant_vertex(s.constant_by_name("a").unwrap());
        d.add_atom(e, &[av, av]);
        assert_eq!(tw_count(&q_ground, &d), Nat::one());
    }
}

//! Shared machinery for the counting engines: term resolution, inequality
//! checking, the per-count tuple indexes, a cheap hasher for DP tables,
//! and decomposition of a query into connected components.

use crate::cancel::{CancelReason, Cancelled, EvalControl};
use bagcq_arith::Nat;
use bagcq_query::{Inequality, Query, Term};
use bagcq_structure::{RelId, Structure};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Resolves a term under a partial assignment of variables.
/// `assign[v] == u32::MAX` means unassigned.
pub(crate) const UNASSIGNED: u32 = u32::MAX;

#[inline]
pub(crate) fn resolve(term: &Term, assign: &[u32], d: &Structure) -> u32 {
    match term {
        Term::Var(v) => assign[v.0 as usize],
        Term::Const(c) => d.constant_vertex(*c).0,
    }
}

/// Checks an inequality under a (possibly partial) assignment: returns
/// `false` only when both sides are bound and equal.
#[inline]
pub(crate) fn inequality_ok(ineq: &Inequality, assign: &[u32], d: &Structure) -> bool {
    let a = resolve(&ineq.lhs, assign, d);
    let b = resolve(&ineq.rhs, assign, d);
    a == UNASSIGNED || b == UNASSIGNED || a != b
}

/// Heap bytes a [`Nat`] occupies (its limbs), for memory-gauge charges.
#[inline]
pub(crate) fn nat_bytes(n: &Nat) -> u64 {
    8 * n.limbs().len() as u64
}

/// The `|V_D|^k` factor contributed by variables occurring in no atom and
/// no inequality.
///
/// Routed through [`Nat::checked_pow`] with the a-priori bound
/// `bits(n)·k`, which the true result never exceeds — so the only failure
/// paths are the typed ones: the bound itself overflowing `u64` (a result
/// too large to even size) or the memory gauge refusing the bytes. A
/// hostile free-variable count therefore yields
/// [`CancelReason::MemoryBudgetExceeded`] instead of panicking or
/// aborting a worker mid-allocation.
pub(crate) fn free_var_factor(n: u64, k: u64, ctl: &EvalControl) -> Result<Nat, Cancelled> {
    if n <= 1 || k == 0 {
        return Ok(if n == 0 && k > 0 { Nat::zero() } else { Nat::one() });
    }
    let base = Nat::from_u64(n);
    let bound = base.bits().checked_mul(k).ok_or(Cancelled(CancelReason::MemoryBudgetExceeded))?;
    ctl.charge(bound.div_ceil(8))?;
    base.checked_pow(k, bound).ok_or(Cancelled(CancelReason::MemoryBudgetExceeded))
}

/// Dense inverted index over one `(relation, position)`: the ids of the
/// tuples holding vertex `v` at that position are
/// `ids[offsets[v]..offsets[v + 1]]`, in insertion order. Vertices are
/// already `0..n`, so this is CSR layout — a lookup is two array reads.
pub(crate) struct PositionIndex {
    offsets: Vec<u32>,
    ids: Vec<u32>,
    /// The distinct vertices occurring at this position, ascending.
    values: Vec<u32>,
}

impl PositionIndex {
    fn build(flat: &[u32], arity: usize, pos: usize, vertex_count: u32) -> Self {
        let tuples = flat.chunks_exact(arity);
        let n = tuples.clone().map(|t| t[pos] + 1).max().unwrap_or(0).max(vertex_count) as usize;
        // Counting sort: bucket sizes, then end offsets, then fill each
        // bucket back to front so ids stay in insertion order.
        let mut offsets = vec![0u32; n + 1];
        for t in tuples.clone() {
            offsets[t[pos] as usize] += 1;
        }
        let values = (0..n as u32).filter(|&v| offsets[v as usize] > 0).collect();
        for v in 1..=n {
            offsets[v] += offsets[v - 1];
        }
        let mut ids = vec![0u32; flat.len() / arity];
        for (i, t) in tuples.enumerate().rev() {
            let end = &mut offsets[t[pos] as usize];
            *end -= 1;
            ids[*end as usize] = i as u32;
        }
        PositionIndex { offsets, ids, values }
    }

    /// Ids of the tuples with `v` at this position.
    #[inline]
    pub(crate) fn bucket(&self, v: u32) -> &[u32] {
        match (self.offsets.get(v as usize), self.offsets.get(v as usize + 1)) {
            (Some(&lo), Some(&hi)) => &self.ids[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// The distinct vertices occurring at this position, ascending.
    pub(crate) fn values(&self) -> &[u32] {
        &self.values
    }
}

/// The tuple indexes of one count: a [`PositionIndex`] per
/// `(relation, position)`, each built the first time the count asks for
/// it and shared by every component.
pub(crate) struct TupleIndex<'d> {
    d: &'d Structure,
    /// Slot of each relation's position 0 in `slots`.
    first_slot: Vec<usize>,
    slots: Vec<OnceCell<PositionIndex>>,
}

impl<'d> TupleIndex<'d> {
    pub(crate) fn new(d: &'d Structure) -> Self {
        let schema = d.schema();
        let mut first_slot = Vec::new();
        let mut total = 0;
        for r in schema.relations() {
            first_slot.push(total);
            total += schema.arity(r);
        }
        TupleIndex { d, first_slot, slots: (0..total).map(|_| OnceCell::new()).collect() }
    }

    /// The index over position `pos` of `rel`.
    #[inline]
    pub(crate) fn at(&self, rel: RelId, pos: usize) -> &PositionIndex {
        self.slots[self.first_slot[rel.0 as usize] + pos].get_or_init(|| {
            PositionIndex::build(
                self.d.flat_tuples(rel),
                self.d.schema().arity(rel),
                pos,
                self.d.vertex_count(),
            )
        })
    }

    /// Ids of the tuples of `rel` with `v` at position `pos`.
    #[inline]
    pub(crate) fn bucket(&self, rel: RelId, pos: usize, v: u32) -> &[u32] {
        self.at(rel, pos).bucket(v)
    }
}

/// The query's ground atoms and inequalities (those mentioning no
/// variable) all hold in `d`: the gate every count and enumeration passes
/// before searching.
pub(crate) fn ground_gates_hold(q: &Query, d: &Structure, comps: &Components) -> bool {
    let mut tuple = Vec::new();
    comps.ground_atoms.iter().all(|&i| {
        let atom = &q.atoms()[i];
        tuple.clear();
        tuple.extend(atom.args.iter().map(|t| resolve(t, &[], d)));
        d.contains_tuple(atom.rel, &tuple)
    }) && comps.ground_inequalities.iter().all(|&i| inequality_ok(&q.inequalities()[i], &[], d))
}

/// A small, fast, non-cryptographic hasher (the multiply-rotate scheme
/// of `rustc`'s `FxHasher`) for the DP tables. Their keys are packed
/// vertex ids, which the structure numbers densely itself, and every row
/// costs a ticked candidate, so the step budget and deadline bound a
/// table however its keys collide.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write_u64(i as u64);
        self.write_u64((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` over [`FxHasher`].
pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Partitions the query's atoms, inequalities and variables into connected
/// components (variables are connected when they co-occur in an atom or
/// inequality; atoms/inequalities with no variables form their own
/// "ground" component).
///
/// By Lemma 1 the count of a query is the product of the counts of its
/// components, which is what makes `θ↑k` countable in time `k·cost(θ)`
/// instead of `cost(θ)^k`.
pub(crate) struct Components {
    /// For each component: (atom indexes, inequality indexes, variable ids).
    pub comps: Vec<(Vec<usize>, Vec<usize>, Vec<u32>)>,
    /// Atoms mentioning no variable at all (ground facts — e.g. `Arena`).
    pub ground_atoms: Vec<usize>,
    /// Inequalities mentioning no variable (constant ≠ constant).
    pub ground_inequalities: Vec<usize>,
    /// Variables in no atom and no inequality: each contributes a free
    /// factor `|V_D|`.
    pub free_vars: u32,
}

pub(crate) fn components(q: &Query) -> Components {
    let n = q.var_count() as usize;
    // Union-find over variables.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let union = |parent: &mut Vec<u32>, a: u32, b: u32| {
        let ra = find(parent, a);
        let rb = find(parent, b);
        if ra != rb {
            parent[ra as usize] = rb;
        }
    };

    let vars_of_atom = |args: &[Term]| -> Vec<u32> {
        args.iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(v.0),
                Term::Const(_) => None,
            })
            .collect()
    };

    let mut ground_atoms = Vec::new();
    for (i, a) in q.atoms().iter().enumerate() {
        let vs = vars_of_atom(&a.args);
        if vs.is_empty() {
            ground_atoms.push(i);
            continue;
        }
        for w in vs.windows(2) {
            union(&mut parent, w[0], w[1]);
        }
        let _ = i;
    }
    let mut ground_inequalities = Vec::new();
    for (i, ineq) in q.inequalities().iter().enumerate() {
        let mut vs = Vec::new();
        if let Term::Var(v) = ineq.lhs {
            vs.push(v.0);
        }
        if let Term::Var(v) = ineq.rhs {
            vs.push(v.0);
        }
        if vs.is_empty() {
            ground_inequalities.push(i);
            continue;
        }
        for w in vs.windows(2) {
            union(&mut parent, w[0], w[1]);
        }
    }

    // Group variables by root; only variables that occur somewhere get a
    // component — the rest are free.
    let mut occurs = vec![false; n];
    for a in q.atoms() {
        for t in &a.args {
            if let Term::Var(v) = t {
                occurs[v.0 as usize] = true;
            }
        }
    }
    for ineq in q.inequalities() {
        if let Term::Var(v) = ineq.lhs {
            occurs[v.0 as usize] = true;
        }
        if let Term::Var(v) = ineq.rhs {
            occurs[v.0 as usize] = true;
        }
    }

    let mut comp_of_root: HashMap<u32, usize> = HashMap::new();
    let mut comps: Vec<(Vec<usize>, Vec<usize>, Vec<u32>)> = Vec::new();
    for v in 0..n as u32 {
        if !occurs[v as usize] {
            continue;
        }
        let r = find(&mut parent, v);
        let idx = *comp_of_root.entry(r).or_insert_with(|| {
            comps.push((Vec::new(), Vec::new(), Vec::new()));
            comps.len() - 1
        });
        comps[idx].2.push(v);
    }
    for (i, a) in q.atoms().iter().enumerate() {
        let vs = vars_of_atom(&a.args);
        if let Some(&v0) = vs.first() {
            let r = find(&mut parent, v0);
            let idx = comp_of_root[&r];
            comps[idx].0.push(i);
        }
    }
    for (i, ineq) in q.inequalities().iter().enumerate() {
        let v0 = match (ineq.lhs, ineq.rhs) {
            (Term::Var(v), _) | (_, Term::Var(v)) => Some(v.0),
            _ => None,
        };
        if let Some(v0) = v0 {
            let r = find(&mut parent, v0);
            let idx = comp_of_root[&r];
            comps[idx].1.push(i);
        }
    }

    let free_vars = (0..n).filter(|&v| !occurs[v]).count() as u32;
    Components { comps, ground_atoms, ground_inequalities, free_vars }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcq_query::Query;
    use bagcq_structure::SchemaBuilder;
    use std::sync::Arc;

    #[test]
    fn splits_disjoint_conjunction() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        let schema = b.build();
        let mut qb = Query::builder(Arc::clone(&schema));
        let x = qb.var("x");
        let y = qb.var("y");
        qb.atom_named("E", &[x, y]);
        let q = qb.build();
        let q3 = q.power(3);
        let c = components(&q3);
        assert_eq!(c.comps.len(), 3);
        assert_eq!(c.free_vars, 0);
        assert!(c.ground_atoms.is_empty());
    }

    #[test]
    fn detects_ground_and_free() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        b.constant("a");
        let schema = b.build();
        let mut qb = Query::builder(Arc::clone(&schema));
        let a = qb.constant("a");
        let x = qb.var("x");
        let _unused = qb.var("floating");
        qb.atom_named("E", &[a, a]); // ground
        qb.atom_named("E", &[a, x]);
        let q = qb.build();
        let c = components(&q);
        assert_eq!(c.ground_atoms.len(), 1);
        assert_eq!(c.comps.len(), 1);
        assert_eq!(c.free_vars, 1);
    }

    #[test]
    fn inequalities_connect_variables() {
        let mut b = SchemaBuilder::default();
        b.relation("E", 2);
        let schema = b.build();
        let mut qb = Query::builder(Arc::clone(&schema));
        let x = qb.var("x");
        let y = qb.var("y");
        let z = qb.var("z");
        let w = qb.var("w");
        qb.atom_named("E", &[x, y]);
        qb.atom_named("E", &[z, w]);
        qb.neq(y, z); // bridges the two atom components
        let q = qb.build();
        let c = components(&q);
        assert_eq!(c.comps.len(), 1);
        assert_eq!(c.comps[0].0.len(), 2);
        assert_eq!(c.comps[0].1.len(), 1);
    }
}

//! Tree decompositions of query primal graphs.
//!
//! The optimized counting engine implements the textbook `#Hom` algorithm:
//! decompose the query's primal graph (variables are nodes; variables
//! co-occurring in an atom or inequality are adjacent), then run dynamic
//! programming over the bags. This module builds decompositions from
//! elimination orders produced by the **min-fill** heuristic and validates
//! the three tree-decomposition properties (used by property tests).

use std::collections::HashSet;

/// A rooted tree decomposition over variables `0..n`.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// Variable sets per bag, each sorted ascending.
    pub bags: Vec<Vec<u32>>,
    /// Parent bag index (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Children lists (derived from `parent`).
    pub children: Vec<Vec<usize>>,
    /// Root bag index.
    pub root: usize,
}

impl TreeDecomposition {
    /// Width = max bag size − 1 (width 0 for edgeless graphs).
    pub fn width(&self) -> usize {
        self.bags.iter().map(Vec::len).max().unwrap_or(1).saturating_sub(1)
    }

    /// Checks the three TD properties against the given vertex count and
    /// edge list: every vertex in some bag; every edge inside some bag;
    /// for each vertex, the bags containing it form a connected subtree.
    pub fn validate(&self, n_vars: u32, edges: &[(u32, u32)]) -> bool {
        // 1. Coverage of vertices.
        let mut covered = vec![false; n_vars as usize];
        for bag in &self.bags {
            for &v in bag {
                if v >= n_vars {
                    return false;
                }
                covered[v as usize] = true;
            }
        }
        if !covered.iter().all(|&c| c) {
            return false;
        }
        // 2. Coverage of edges.
        for &(a, b) in edges {
            if !self
                .bags
                .iter()
                .any(|bag| bag.binary_search(&a).is_ok() && bag.binary_search(&b).is_ok())
            {
                return false;
            }
        }
        // 3. Connectedness per vertex: count, for each vertex, the number
        // of tree edges inside its bag set; the bag set is connected iff
        // #bags_with_v − #tree_edges_with_both_endpoints_having_v == 1.
        for v in 0..n_vars {
            let holds = |i: usize| self.bags[i].binary_search(&v).is_ok();
            let bag_count = (0..self.bags.len()).filter(|&i| holds(i)).count();
            if bag_count == 0 {
                return false;
            }
            let edge_count = (0..self.bags.len())
                .filter(|&i| {
                    if !holds(i) {
                        return false;
                    }
                    match self.parent[i] {
                        Some(p) => holds(p),
                        None => false,
                    }
                })
                .count();
            if bag_count - edge_count != 1 {
                return false;
            }
        }
        true
    }
}

/// Builds a tree decomposition of the graph on `0..n` with the given
/// adjacency sets, using min-fill elimination. Isolated vertices get
/// singleton bags.
pub fn decompose_min_fill(n: u32, adj: &[HashSet<u32>]) -> TreeDecomposition {
    assert_eq!(adj.len(), n as usize);
    let mut graph = BitGraph::new(n);
    for (v, nbrs) in adj.iter().enumerate() {
        for &u in nbrs {
            graph.add_arc(v as u32, u);
        }
    }
    graph.decompose_min_fill()
}

/// A graph on `0..n` as adjacency bit rows: the working graph of min-fill
/// elimination, where a neighbourhood, its fill count and its fill-in are
/// a few word operations each.
pub(crate) struct BitGraph {
    n: u32,
    words: usize,
    rows: Vec<u64>,
}

impl BitGraph {
    pub(crate) fn new(n: u32) -> Self {
        let words = (n as usize).div_ceil(64);
        BitGraph { n, words, rows: vec![0; n as usize * words] }
    }

    /// Adds `u` to the neighbourhood of `v` (callers add both directions;
    /// a vertex is never its own neighbour).
    pub(crate) fn add_arc(&mut self, v: u32, u: u32) {
        if v != u {
            self.rows[v as usize * self.words + u as usize / 64] |= 1 << (u % 64);
        }
    }

    fn row(&self, v: u32) -> &[u64] {
        &self.rows[v as usize * self.words..(v as usize + 1) * self.words]
    }

    /// Writes `v`'s neighbours among `alive` into `out`.
    fn live_neighbours(&self, v: u32, alive: &[u64], out: &mut [u64]) {
        for (o, (r, a)) in out.iter_mut().zip(self.row(v).iter().zip(alive)) {
            *o = r & a;
        }
    }

    /// Min-fill elimination: repeatedly eliminates the remaining vertex
    /// whose remaining neighbourhood needs the fewest fill edges (lowest
    /// id on ties), recording that neighbourhood plus the vertex as its
    /// bag, then turns the bags into a tree.
    pub(crate) fn decompose_min_fill(mut self) -> TreeDecomposition {
        let n = self.n;
        let mut alive: Vec<u64> = vec![0; self.words];
        for v in 0..n {
            alive[v as usize / 64] |= 1 << (v % 64);
        }
        let mut order: Vec<u32> = Vec::with_capacity(n as usize);
        // Bag contents decided at elimination time: v plus its not-yet-
        // eliminated neighbors in the (filled) working graph.
        let mut bag_of: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        let mut nbrs = vec![0u64; self.words];
        for _ in 0..n {
            let mut best: Option<(u32, u32)> = None;
            for v in bits(&alive) {
                self.live_neighbours(v, &alive, &mut nbrs);
                // Non-adjacent neighbour pairs, each seen from both ends
                // (every `u` also counts itself once: `u ∉ row(u)`).
                let missing: u32 = bits(&nbrs)
                    .map(|u| {
                        let outside =
                            self.row(u).iter().zip(&nbrs).map(|(r, w)| (w & !r).count_ones());
                        outside.sum::<u32>() - 1
                    })
                    .sum();
                let fill = missing / 2;
                if best.is_none_or(|(_, bf)| fill < bf) {
                    best = Some((v, fill));
                }
            }
            let (v, _) = best.expect("some vertex remains");
            self.live_neighbours(v, &alive, &mut nbrs);
            // Fill in the neighborhood.
            let mut bag: Vec<u32> = bits(&nbrs).collect();
            for &u in &bag {
                let base = u as usize * self.words;
                for (i, w) in nbrs.iter().enumerate() {
                    self.rows[base + i] |= w;
                }
                self.rows[base + u as usize / 64] &= !(1 << (u % 64));
            }
            bag.push(v);
            bag.sort_unstable();
            bag_of[v as usize] = bag;
            alive[v as usize / 64] &= !(1 << (v % 64));
            order.push(v);
        }
        tree_of_bags(n, order, bag_of)
    }
}

/// The set bits of a bit row, ascending.
fn bits(row: &[u64]) -> impl Iterator<Item = u32> + '_ {
    row.iter().enumerate().flat_map(|(i, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros();
                w &= w - 1;
                i as u32 * 64 + b
            })
        })
    })
}

/// Links the bags of an elimination order into a rooted tree.
fn tree_of_bags(n: u32, order: Vec<u32>, bag_of: Vec<Vec<u32>>) -> TreeDecomposition {
    // Build the tree: bag(v) attaches to bag(u) where u is the earliest-
    // eliminated vertex of bag(v)\{v}; if none, it becomes a root; multiple
    // roots are joined under a synthetic empty root to keep one tree.
    let pos: Vec<usize> = {
        let mut p = vec![0usize; n as usize];
        for (i, &v) in order.iter().enumerate() {
            p[v as usize] = i;
        }
        p
    };
    let mut bags: Vec<Vec<u32>> = order.iter().map(|&v| bag_of[v as usize].clone()).collect();
    let mut parent: Vec<Option<usize>> = vec![None; bags.len()];
    for (i, &v) in order.iter().enumerate() {
        let next =
            bag_of[v as usize].iter().copied().filter(|&u| u != v).min_by_key(|&u| pos[u as usize]);
        if let Some(u) = next {
            parent[i] = Some(pos[u as usize]);
        }
    }
    // Join multiple roots (disconnected graphs shouldn't reach here —
    // callers decompose per component — but empty graphs of isolated
    // vertices do).
    let roots: Vec<usize> = (0..bags.len()).filter(|&i| parent[i].is_none()).collect();
    let root = if roots.len() == 1 {
        roots[0]
    } else if roots.is_empty() {
        // n == 0: single empty bag.
        bags.push(Vec::new());
        parent.push(None);
        bags.len() - 1
    } else {
        let r = bags.len();
        bags.push(Vec::new());
        parent.push(None);
        for &i in &roots {
            parent[i] = Some(r);
        }
        r
    };

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); bags.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            children[p].push(i);
        }
    }
    TreeDecomposition { bags, parent, children, root }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj_from_edges(n: u32, edges: &[(u32, u32)]) -> Vec<HashSet<u32>> {
        let mut adj = vec![HashSet::new(); n as usize];
        for &(a, b) in edges {
            adj[a as usize].insert(b);
            adj[b as usize].insert(a);
        }
        adj
    }

    #[test]
    fn path_has_width_one() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4)];
        let td = decompose_min_fill(5, &adj_from_edges(5, &edges));
        assert!(td.validate(5, &edges));
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn cycle_has_width_two() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let td = decompose_min_fill(4, &adj_from_edges(4, &edges));
        assert!(td.validate(4, &edges));
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn clique_has_full_width() {
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let td = decompose_min_fill(5, &adj_from_edges(5, &edges));
        assert!(td.validate(5, &edges));
        assert_eq!(td.width(), 4);
    }

    #[test]
    fn isolated_vertices() {
        let td = decompose_min_fill(3, &adj_from_edges(3, &[]));
        assert!(td.validate(3, &[]));
        assert_eq!(td.width(), 0);
    }

    #[test]
    fn grid_3x3_width() {
        // 3×3 grid, vertices row-major; treewidth 3... min-fill should
        // find width ≤ 4 and validation must hold regardless.
        let idx = |x: u32, y: u32| y * 3 + x;
        let mut edges = Vec::new();
        for y in 0..3u32 {
            for x in 0..3u32 {
                if x + 1 < 3 {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < 3 {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        let td = decompose_min_fill(9, &adj_from_edges(9, &edges));
        assert!(td.validate(9, &edges));
        assert!(td.width() <= 4, "width {}", td.width());
        assert!(td.width() >= 2);
    }

    #[test]
    fn empty_graph() {
        let td = decompose_min_fill(0, &[]);
        assert!(td.validate(0, &[]));
    }

    #[test]
    fn star_has_width_one() {
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)];
        let td = decompose_min_fill(6, &adj_from_edges(6, &edges));
        assert!(td.validate(6, &edges));
        assert_eq!(td.width(), 1);
    }
}

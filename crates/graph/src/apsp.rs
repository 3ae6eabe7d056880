//! All-pairs shortest paths over small (sub)graphs.
//!
//! Several per-ball computations — the distortion heuristic's "center"
//! selection (paper footnote 14) and pairwise statistics — need all-pairs
//! hop distances on ball subgraphs. Dense Floyd–Warshall would be O(n³);
//! repeated BFS is O(n·m) and wins on the sparse graphs at hand.

use crate::bfs::distances;
use crate::{Graph, NodeId, UNREACHED};
use std::cell::RefCell;

/// All-pairs hop distance matrix, row-major: `d[u * n + v]`.
/// `UNREACHED` marks disconnected pairs.
pub fn all_pairs_distances(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    let mut d = vec![UNREACHED; n * n];
    for u in 0..n as NodeId {
        let du = distances(g, u);
        d[(u as usize) * n..(u as usize + 1) * n].copy_from_slice(&du);
    }
    d
}

/// Node betweenness centrality (Brandes' algorithm, unweighted). Returns
/// the per-node betweenness (sum over ordered source–target pairs of the
/// fraction of shortest paths through the node). Used to pick ball
/// "centers" for the distortion metric.
///
/// One working set serves every source, so a call allocates O(n + m)
/// once instead of per source. The arithmetic is Brandes' textbook
/// order: σ accumulates in BFS order, dependencies in reverse BFS order
/// over each node's predecessors in discovery order, and the per-source
/// dependencies are summed into `bc` in source id order.
pub fn betweenness(g: &Graph) -> Vec<f64> {
    brandes(g).0
}

/// [`betweenness`] plus the number of adjacency entries its forward
/// passes scanned (Σ over sources of the degree sum of the source's
/// component) — a deterministic measure of the kernel's work.
fn brandes(g: &Graph) -> (Vec<f64>, u64) {
    let mut bc = vec![0.0f64; g.node_count()];
    let mut k = Brandes::new(g);
    let mut visits = 0u64;
    for s in g.nodes() {
        visits += k.forward(g, s);
        k.accumulate(s, &mut bc);
    }
    (bc, visits)
}

/// Per-ball working set of [`betweenness`]: allocated once per graph,
/// then reset after each source at exactly the nodes that source
/// reached, so a source costs O(component) and no allocation.
struct Brandes {
    /// Per-node state for the current source: one record per node, so a
    /// visit touches one record rather than five separate arrays.
    nodes: Vec<NodeState>,
    /// Nodes reached by the current source in BFS order; the forward
    /// pass uses it as its FIFO queue.
    order: Vec<NodeId>,
    /// Predecessor arena: `v`'s predecessors occupy
    /// `preds[start..start + len]` of its [`NodeState`]. A node has at
    /// most `degree(v)` predecessors, so `start` is the degree prefix sum.
    preds: Vec<NodeId>,
}

#[derive(Clone, Copy)]
struct NodeState {
    /// Hop distance from the current source (`UNREACHED` if not reached).
    dist: u32,
    /// Predecessors recorded so far.
    len: u32,
    /// Offset of this node's slots in the predecessor arena.
    start: usize,
    /// σ: shortest-path count from the current source.
    sigma: f64,
    /// δ: dependency of the current source on this node.
    delta: f64,
}

impl NodeState {
    const CLEAR: NodeState = NodeState {
        dist: UNREACHED,
        len: 0,
        start: 0,
        sigma: 0.0,
        delta: 0.0,
    };
}

impl Brandes {
    fn new(g: &Graph) -> Self {
        let mut nodes = Vec::with_capacity(g.node_count());
        let mut start = 0;
        for v in g.nodes() {
            nodes.push(NodeState {
                start,
                ..NodeState::CLEAR
            });
            start += g.degree(v);
        }
        Brandes {
            nodes,
            order: Vec::with_capacity(g.node_count()),
            preds: vec![0; start],
        }
    }

    /// BFS from `s` filling `dist`, `sigma`, `order` and the predecessor
    /// arena. Returns the adjacency entries scanned.
    fn forward(&mut self, g: &Graph, s: NodeId) -> u64 {
        let mut visits = 0u64;
        self.nodes[s as usize].dist = 0;
        self.nodes[s as usize].sigma = 1.0;
        self.order.push(s);
        let mut head = 0;
        while head < self.order.len() {
            let u = self.order[head];
            head += 1;
            let NodeState { dist, sigma, .. } = self.nodes[u as usize];
            let nbrs = g.neighbors(u);
            visits += nbrs.len() as u64;
            for &v in nbrs {
                let x = &mut self.nodes[v as usize];
                if x.dist == UNREACHED {
                    x.dist = dist + 1;
                    self.order.push(v);
                } else if x.dist != dist + 1 {
                    continue;
                }
                x.sigma += sigma;
                self.preds[x.start + x.len as usize] = u;
                x.len += 1;
            }
        }
        visits
    }

    /// Back-propagate the current source's dependencies in reverse BFS
    /// order, add them to `bc` (the source itself excluded), and clear
    /// the state of every node the source reached.
    fn accumulate(&mut self, s: NodeId, bc: &mut [f64]) {
        for &w in self.order.iter().rev() {
            let NodeState {
                start,
                len,
                sigma,
                delta,
                ..
            } = self.nodes[w as usize];
            for &v in &self.preds[start..start + len as usize] {
                let x = &mut self.nodes[v as usize];
                x.delta += x.sigma / sigma * (1.0 + delta);
            }
            if w != s {
                bc[w as usize] += delta;
            }
        }
        for &v in &self.order {
            let x = &mut self.nodes[v as usize];
            *x = NodeState {
                start: x.start,
                ..NodeState::CLEAR
            };
        }
        self.order.clear();
    }
}

/// The argmax of a betweenness vector, ties to the lowest id; `None` for
/// an empty vector.
pub fn center_of(bc: &[f64]) -> Option<NodeId> {
    bc.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i as NodeId)
}

/// The node with maximum betweenness — the paper's "center" of a ball:
/// "the node through which the highest number of pairs traverse"
/// (footnote 14). Ties break to the lowest id. Returns `None` for the
/// empty graph. Memoised per thread; see [`betweenness_center_counted`].
pub fn betweenness_center(g: &Graph) -> Option<NodeId> {
    betweenness_center_counted(g).0
}

thread_local! {
    /// The last graph this thread centred, with its center.
    static LAST_CENTER: RefCell<Option<(Graph, Option<NodeId>)>> = const { RefCell::new(None) };
}

/// [`betweenness_center`] plus the adjacency entries its Brandes run
/// scanned (zero on a memo hit).
///
/// Once a ball grown around one center covers its whole component,
/// every larger radius yields the same subgraph, and a worker measures
/// a center's radii in order. So each thread keeps the last graph it
/// centred: an exact `==` match returns the stored center without
/// rerunning Brandes. The answer is the same either way; only the
/// work differs.
pub fn betweenness_center_counted(g: &Graph) -> (Option<NodeId>, u64) {
    LAST_CENTER.with(|last| {
        let mut last = last.borrow_mut();
        if let Some((prev, center)) = last.as_ref() {
            if prev == g {
                return (*center, 0);
            }
        }
        let (bc, visits) = brandes(g);
        let center = center_of(&bc);
        *last = Some((g.clone(), center));
        (center, visits)
    })
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn apsp_on_path() {
        let g = Graph::from_edges(4, (0..3).map(|i| (i, i + 1)));
        let d = all_pairs_distances(&g);
        let n = 4;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(d[u * n + v], (u as i64 - v as i64).unsigned_abs() as u32);
            }
        }
    }

    #[test]
    fn apsp_disconnected() {
        let g = Graph::from_edges(3, vec![(0, 1)]);
        let d = all_pairs_distances(&g);
        assert_eq!(d[2], UNREACHED);
        assert_eq!(d[2 * 3 + 2], 0);
    }

    #[test]
    fn betweenness_path_middle_highest() {
        let g = Graph::from_edges(5, (0..4).map(|i| (i, i + 1)));
        let bc = betweenness(&g);
        // Middle node lies on the most shortest paths.
        assert!(bc[2] > bc[1]);
        assert!(bc[1] > bc[0]);
        assert_eq!(bc[0], 0.0);
        assert_eq!(betweenness_center(&g), Some(2));
    }

    #[test]
    fn betweenness_star_center() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let bc = betweenness(&g);
        // Ordered pairs among 4 leaves = 12, all through the hub.
        assert!((bc[0] - 12.0).abs() < 1e-9);
        for v in 1..5 {
            assert_eq!(bc[v], 0.0);
        }
        assert_eq!(betweenness_center(&g), Some(0));
    }

    #[test]
    fn betweenness_cycle_symmetric() {
        let g = Graph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)));
        let bc = betweenness(&g);
        for v in 1..6 {
            assert!(
                (bc[v] - bc[0]).abs() < 1e-9,
                "cycle betweenness must be uniform"
            );
        }
    }

    #[test]
    fn betweenness_equal_cost_split() {
        // 4-cycle: paths between opposite nodes split over both sides.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let bc = betweenness(&g);
        // By symmetry all nodes have the same betweenness: each pair of
        // opposite nodes contributes 1/2 to each intermediate node, and
        // there are 2 ordered pairs through each node → 1.0.
        for v in 0..4 {
            assert!((bc[v] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn center_of_empty_graph() {
        assert_eq!(betweenness_center(&Graph::empty(0)), None);
    }

    #[test]
    fn center_memo_hits_only_on_an_identical_graph() {
        let path = Graph::from_edges(5, (0..4).map(|i| (i, i + 1)));
        let star = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let (c, visits) = betweenness_center_counted(&path);
        assert_eq!(c, Some(2));
        // Five sources, each scanning the path's 8 adjacency entries.
        assert_eq!(visits, 5 * 8);
        assert_eq!(betweenness_center_counted(&path.clone()), (Some(2), 0));
        let (c, visits) = betweenness_center_counted(&star);
        assert_eq!(c, Some(0));
        assert!(visits > 0);
        assert_eq!(betweenness_center_counted(&path), (Some(2), 40));
    }

    #[test]
    fn edge_visits_cover_each_source_component() {
        // Two components: a triangle (each source scans 6 entries) and
        // an edge (each source scans 2), plus an isolated node.
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4)]);
        let (bc, visits) = brandes(&g);
        assert_eq!(visits, 3 * 6 + 2 * 2);
        assert!(bc.iter().all(|&b| b == 0.0));
        assert_eq!(center_of(&bc), Some(0));
    }
}

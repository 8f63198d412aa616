//! Road-network graphs with shortest-path routing.
//!
//! The large-scale experiments (Figures 9 and 10) run over a whole city's
//! road network; eco-routing (the paper's motivating application) needs
//! cost-parameterized shortest paths over the same graph.

use crate::road::Road;
use crate::route::{Route, RouteError};
use gradest_math::Vec2;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An edge of the network: a road connecting two node indices. The road's
/// geometry runs from node `a` to node `b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkEdge {
    /// Tail node index (road start).
    pub a: usize,
    /// Head node index (road end).
    pub b: usize,
    /// The road geometry and attributes.
    pub road: Road,
}

/// Errors mutating or querying a [`RoadNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// A node index was out of range.
    NodeOutOfRange {
        /// The offending index.
        index: usize,
    },
    /// The road's endpoints do not coincide with the given nodes.
    EndpointMismatch {
        /// Distance between road start and node `a`, metres.
        gap_a: f64,
        /// Distance between road end and node `b`, metres.
        gap_b: f64,
    },
    /// A route assembly failed (should not happen for well-formed graphs).
    Route(RouteError),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::NodeOutOfRange { index } => write!(f, "node {index} out of range"),
            NetworkError::EndpointMismatch { gap_a, gap_b } => {
                write!(f, "road endpoints miss nodes by {gap_a:.2} m / {gap_b:.2} m")
            }
            NetworkError::Route(e) => write!(f, "route assembly failed: {e}"),
        }
    }
}

impl std::error::Error for NetworkError {}

impl From<RouteError> for NetworkError {
    fn from(e: RouteError) -> Self {
        NetworkError::Route(e)
    }
}

/// Tolerance for matching road endpoints to node positions, metres.
const NODE_TOL_M: f64 = 1.0;

/// An undirected road network: roads are stored once and traversable in
/// both directions (a reversed [`Road`] is materialized when routing
/// backwards over an edge).
///
/// # Example
///
/// ```
/// use gradest_geo::generate::city_network;
///
/// let net = city_network(11);
/// assert!(net.total_length_km() > 100.0);
/// let route = net.route_between(0, net.node_count() - 1, |r| r.length()).unwrap();
/// assert!(route.length() > 0.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<Vec2>,
    edges: Vec<NetworkEdge>,
    /// adjacency[node] = (edge index, neighbour node)
    adjacency: Vec<Vec<(usize, usize)>>,
}

impl RoadNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        RoadNetwork::default()
    }

    /// Adds a node at planar position `p`, returning its index.
    pub fn add_node(&mut self, p: Vec2) -> usize {
        self.nodes.push(p);
        self.adjacency.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds a road as an undirected edge between nodes `a` and `b`.
    ///
    /// The road geometry must start at node `a` and end at node `b`
    /// (within 1 m).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NodeOutOfRange`] or
    /// [`NetworkError::EndpointMismatch`].
    pub fn add_edge(&mut self, a: usize, b: usize, road: Road) -> Result<usize, NetworkError> {
        for &n in &[a, b] {
            if n >= self.nodes.len() {
                return Err(NetworkError::NodeOutOfRange { index: n });
            }
        }
        let gap_a = (road.point_at(0.0) - self.nodes[a]).norm();
        let gap_b = (road.point_at(road.length()) - self.nodes[b]).norm();
        if gap_a > NODE_TOL_M || gap_b > NODE_TOL_M {
            return Err(NetworkError::EndpointMismatch { gap_a, gap_b });
        }
        let idx = self.edges.len();
        self.edges.push(NetworkEdge { a, b, road });
        self.adjacency[a].push((idx, b));
        self.adjacency[b].push((idx, a));
        Ok(idx)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (roads).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Node positions.
    pub fn nodes(&self) -> &[Vec2] {
        &self.nodes
    }

    /// The edges.
    pub fn edges(&self) -> &[NetworkEdge] {
        &self.edges
    }

    /// Total road length in kilometres.
    pub fn total_length_km(&self) -> f64 {
        self.edges.iter().map(|e| e.road.length()).sum::<f64>() / 1000.0
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(_, next) in &self.adjacency[n] {
                if !seen[next] {
                    seen[next] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Dijkstra shortest path from `from` to `to` under a per-road cost.
    ///
    /// Returns the sequence of `(edge index, forward?)` hops, or `None` if
    /// unreachable. Costs must be non-negative; the same cost applies in
    /// both travel directions. For direction-dependent costs (fuel on
    /// gradients!) use [`RoadNetwork::route_between_directed`].
    pub fn shortest_path(
        &self,
        from: usize,
        to: usize,
        cost: impl Fn(&Road) -> f64,
    ) -> Option<Vec<(usize, bool)>> {
        self.shortest_path_directed(from, to, |road, _forward| cost(road))
    }

    /// Dijkstra shortest path with a direction-aware cost: the closure
    /// receives the road and whether it would be traversed in its stored
    /// (forward) orientation. Essential for gradient-dependent costs,
    /// where climbing a road costs more than descending it.
    ///
    /// Returns the sequence of `(edge index, forward?)` hops, or `None`
    /// if unreachable. Costs must be non-negative.
    fn shortest_path_directed(
        &self,
        from: usize,
        to: usize,
        cost: impl Fn(&Road, bool) -> f64,
    ) -> Option<Vec<(usize, bool)>> {
        if from >= self.nodes.len() || to >= self.nodes.len() {
            return None;
        }
        #[derive(PartialEq)]
        struct Item {
            dist: f64,
            node: usize,
        }
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap over dist.
                other.dist.total_cmp(&self.dist)
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n]; // (edge, from node)
        let mut heap = BinaryHeap::new();
        dist[from] = 0.0;
        heap.push(Item { dist: 0.0, node: from });
        while let Some(Item { dist: d, node }) = heap.pop() {
            if node == to {
                break;
            }
            if d > dist[node] {
                continue;
            }
            for &(edge_idx, next) in &self.adjacency[node] {
                let forward = self.edges[edge_idx].a == node;
                let c = cost(&self.edges[edge_idx].road, forward);
                debug_assert!(c >= 0.0, "negative edge cost");
                let nd = d + c;
                if nd < dist[next] {
                    dist[next] = nd;
                    prev[next] = Some((edge_idx, node));
                    heap.push(Item { dist: nd, node: next });
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        let mut hops = Vec::new();
        let mut cur = to;
        while cur != from {
            // A finite dist[to] implies a complete predecessor chain;
            // bail defensively rather than panic if that ever breaks.
            let (edge_idx, parent) = prev[cur]?;
            let forward = self.edges[edge_idx].a == parent;
            hops.push((edge_idx, forward));
            cur = parent;
        }
        hops.reverse();
        Some(hops)
    }

    /// Builds a drivable [`Route`] along the shortest path between two
    /// nodes, reversing road geometry for backward hops.
    ///
    /// Returns `None` when unreachable.
    pub fn route_between(
        &self,
        from: usize,
        to: usize,
        cost: impl Fn(&Road) -> f64,
    ) -> Option<Route> {
        self.route_between_directed(from, to, |road, _forward| cost(road))
    }

    /// Builds a drivable [`Route`] along the shortest path under a
    /// direction-aware cost: the closure receives the road and whether
    /// it would be traversed in its stored (forward) orientation.
    ///
    /// Returns `None` when unreachable.
    pub fn route_between_directed(
        &self,
        from: usize,
        to: usize,
        cost: impl Fn(&Road, bool) -> f64,
    ) -> Option<Route> {
        let hops = self.shortest_path_directed(from, to, cost)?;
        let roads: Vec<Road> = hops
            .iter()
            .map(|&(idx, forward)| {
                if forward {
                    self.edges[idx].road.clone()
                } else {
                    self.edges[idx].road.reversed()
                }
            })
            .collect();
        if roads.is_empty() {
            return None; // from == to: no drivable route
        }
        Some(Route::new(roads).expect("adjacent hops share nodes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::{build_from_sections, RoadClass, SectionSpec};

    fn straight(id: u64, from: Vec2, to: Vec2) -> Road {
        let d = (to - from).norm();
        let heading = (to - from).angle();
        build_from_sections(
            id,
            format!("e{id}"),
            from,
            heading,
            &[SectionSpec { length_m: d, gradient_deg: 0.0, lanes: 1, curvature: 0.0 }],
            d / 4.0,
            0.0,
            13.0,
            RoadClass::Local,
        )
        .unwrap()
    }

    /// Square graph:
    /// 3 -- 2
    /// |    |
    /// 0 -- 1    plus diagonal 0-2.
    fn square() -> RoadNetwork {
        let mut net = RoadNetwork::new();
        let p = [
            Vec2::new(0.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(100.0, 100.0),
            Vec2::new(0.0, 100.0),
        ];
        for &pt in &p {
            net.add_node(pt);
        }
        net.add_edge(0, 1, straight(1, p[0], p[1])).unwrap();
        net.add_edge(1, 2, straight(2, p[1], p[2])).unwrap();
        net.add_edge(2, 3, straight(3, p[2], p[3])).unwrap();
        net.add_edge(3, 0, straight(4, p[3], p[0])).unwrap();
        net.add_edge(0, 2, straight(5, p[0], p[2])).unwrap();
        net
    }

    #[test]
    fn construction_and_counts() {
        let net = square();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.edge_count(), 5);
        assert!(net.is_connected());
        let expect_km = (400.0 + 2.0f64.sqrt() * 100.0) / 1000.0;
        assert!((net.total_length_km() - expect_km).abs() < 1e-6);
    }

    #[test]
    fn add_edge_validates() {
        let mut net = square();
        assert!(matches!(
            net.add_edge(0, 99, straight(9, Vec2::ZERO, Vec2::new(1.0, 0.0))),
            Err(NetworkError::NodeOutOfRange { index: 99 })
        ));
        // Road not touching the nodes.
        let far = straight(10, Vec2::new(500.0, 0.0), Vec2::new(600.0, 0.0));
        assert!(matches!(net.add_edge(0, 1, far), Err(NetworkError::EndpointMismatch { .. })));
    }

    #[test]
    fn shortest_path_prefers_diagonal() {
        let net = square();
        // 0 -> 2 by length: diagonal (141.4) beats 0-1-2 (200).
        let hops = net.shortest_path(0, 2, |r| r.length()).unwrap();
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0], (4, true));
    }

    #[test]
    fn shortest_path_respects_custom_cost() {
        let net = square();
        // Penalize the diagonal heavily.
        let hops = net.shortest_path(0, 2, |r| if r.id() == 5 { 1e9 } else { r.length() }).unwrap();
        assert_eq!(hops.len(), 2);
    }

    #[test]
    fn backward_hops_are_reversed() {
        let net = square();
        // 1 -> 0 traverses edge 0 backwards.
        let hops = net.shortest_path(1, 0, |r| r.length()).unwrap();
        assert_eq!(hops, vec![(0, false)]);
        let route = net.route_between(1, 0, |r| r.length()).unwrap();
        assert!((route.point_at(0.0) - Vec2::new(100.0, 0.0)).norm() < 1e-6);
        assert!((route.point_at(route.length()) - Vec2::ZERO).norm() < 1e-6);
    }

    #[test]
    fn route_between_concatenates() {
        let net = square();
        let route =
            net.route_between(3, 1, |r| if r.id() == 5 { 1e9 } else { r.length() }).unwrap();
        assert!((route.length() - 200.0).abs() < 1e-6);
    }

    #[test]
    fn unreachable_and_trivial_cases() {
        let mut net = square();
        let lonely = net.add_node(Vec2::new(9999.0, 9999.0));
        assert!(net.shortest_path(0, lonely, |r| r.length()).is_none());
        assert!(!net.is_connected());
        assert!(net.route_between(0, 0, |r| r.length()).is_none());
        assert!(net.shortest_path(0, 1234, |r| r.length()).is_none());
    }

    #[test]
    fn empty_network_is_connected() {
        assert!(RoadNetwork::new().is_connected());
    }

    #[test]
    fn directed_cost_sees_traversal_orientation() {
        let net = square();
        // Make edge 0 (between nodes 0 and 1) free only when traversed
        // backward (1 → 0): going 1 → 0 must take it, going 0 → 1 must
        // avoid it.
        let cost = |r: &Road, forward: bool| {
            if r.id() == 1 && !forward {
                0.0
            } else if r.id() == 1 {
                1e9
            } else {
                r.length()
            }
        };
        let back = net.shortest_path_directed(1, 0, cost).unwrap();
        assert_eq!(back, vec![(0, false)]);
        let fwd = net.shortest_path_directed(0, 1, cost).unwrap();
        assert!(fwd.iter().all(|&(e, _)| e != 0), "forward path avoids edge 0: {fwd:?}");
    }
}

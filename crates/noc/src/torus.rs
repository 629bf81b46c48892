//! The 2D torus topology.

use slicc_common::{CoreId, Cycle};

/// A `cols x rows` 2D torus of nodes, numbered row-major: node `i` sits at
/// `(i % cols, i / cols)`. Links wrap around in both dimensions.
///
/// Every core is co-located with one L2 bank at the same node (Table 2's
/// 16-bank NUCA L2 on the 4×4 torus), so core-to-bank latency uses the
/// same hop metric as core-to-core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus {
    cols: u32,
    rows: u32,
    hop_latency: Cycle,
    router_latency: Cycle,
}

impl Torus {
    /// Creates a torus with the paper's 1-cycle hop latency and no extra
    /// per-message router overhead.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: u32, rows: u32) -> Self {
        Torus::with_latencies(cols, rows, 1, 0)
    }

    /// Creates a torus with explicit per-hop and per-message router
    /// latencies (for NoC sensitivity ablations).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_latencies(cols: u32, rows: u32, hop_latency: Cycle, router_latency: Cycle) -> Self {
        assert!(cols > 0 && rows > 0, "torus dimensions must be positive");
        Torus { cols, rows, hop_latency, router_latency }
    }

    /// The paper's 16-core configuration: a 4×4 torus (Table 2).
    pub fn paper_4x4() -> Self {
        Torus::new(4, 4)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        (self.cols * self.rows) as usize
    }

    /// Grid width.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Grid height.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The `(x, y)` coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: CoreId) -> (u32, u32) {
        let i = node.index() as u32;
        assert!(
            i < self.cols * self.rows,
            "node {node} out of range for {}x{} torus",
            self.cols,
            self.rows
        );
        (i % self.cols, i / self.cols)
    }

    /// The node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn node_at(&self, x: u32, y: u32) -> CoreId {
        assert!(x < self.cols && y < self.rows, "({x},{y}) out of range");
        CoreId::new((y * self.cols + x) as u16)
    }

    /// Minimal wrap-around distance along one dimension.
    fn dim_distance(delta: u32, size: u32) -> u32 {
        delta.min(size - delta)
    }

    /// Minimal hop count between two nodes.
    pub fn hops(&self, a: CoreId, b: CoreId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        Torus::dim_distance(ax.abs_diff(bx), self.cols)
            + Torus::dim_distance(ay.abs_diff(by), self.rows)
    }

    /// One-way transfer latency between two nodes.
    pub fn latency(&self, a: CoreId, b: CoreId) -> Cycle {
        self.router_latency + self.hops(a, b) as Cycle * self.hop_latency
    }

    /// Round-trip latency between two nodes (request + response).
    pub fn round_trip(&self, a: CoreId, b: CoreId) -> Cycle {
        2 * self.latency(a, b)
    }

    /// Latency for a broadcast from `src` to every other node: the time
    /// until the farthest node has received it.
    pub fn broadcast_latency(&self, src: CoreId) -> Cycle {
        (0..self.num_nodes() as u16).map(|i| self.latency(src, CoreId::new(i))).max().unwrap_or(0)
    }

    /// The maximum hop count between any two nodes (network diameter).
    pub fn diameter(&self) -> u32 {
        self.cols / 2 + self.rows / 2
    }

    /// The node whose co-located L2 bank serves `bank_index`
    /// (identity mapping: bank *i* lives at node *i*).
    pub fn bank_home(&self, bank_index: usize) -> CoreId {
        assert!(bank_index < self.num_nodes(), "bank {bank_index} out of range");
        CoreId::new(bank_index as u16)
    }

    /// The deadlock-free dimension-ordered (XY) route from `a` to `b`,
    /// taking the shorter wrap-around direction in each dimension. The
    /// returned path includes both endpoints; its length is
    /// `hops(a, b) + 1`.
    pub fn route(&self, a: CoreId, b: CoreId) -> Vec<CoreId> {
        let (mut x, mut y) = self.coords(a);
        let (bx, by) = self.coords(b);
        let mut path = vec![a];
        let step = |cur: u32, dst: u32, size: u32| -> u32 {
            // +1 or -1 (mod size), whichever is the shorter way round.
            let fwd = (dst + size - cur) % size;
            let bwd = (cur + size - dst) % size;
            if fwd <= bwd {
                (cur + 1) % size
            } else {
                (cur + size - 1) % size
            }
        };
        while x != bx {
            x = step(x, bx, self.cols);
            path.push(self.node_at(x, y));
        }
        while y != by {
            y = step(y, by, self.rows);
            path.push(self.node_at(x, y));
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Torus {
        Torus::paper_4x4()
    }

    #[test]
    fn coords_roundtrip() {
        let noc = t();
        for i in 0..16u16 {
            let c = CoreId::new(i);
            let (x, y) = noc.coords(c);
            assert_eq!(noc.node_at(x, y), c);
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let noc = t();
        for i in 0..16u16 {
            assert_eq!(noc.hops(CoreId::new(i), CoreId::new(i)), 0);
        }
    }

    #[test]
    fn neighbours_are_one_hop() {
        let noc = t();
        assert_eq!(noc.hops(CoreId::new(0), CoreId::new(1)), 1);
        assert_eq!(noc.hops(CoreId::new(0), CoreId::new(4)), 1);
        // Wrap-around neighbours.
        assert_eq!(noc.hops(CoreId::new(0), CoreId::new(3)), 1);
        assert_eq!(noc.hops(CoreId::new(0), CoreId::new(12)), 1);
    }

    #[test]
    fn distance_is_symmetric() {
        let noc = t();
        for a in 0..16u16 {
            for b in 0..16u16 {
                assert_eq!(
                    noc.hops(CoreId::new(a), CoreId::new(b)),
                    noc.hops(CoreId::new(b), CoreId::new(a))
                );
            }
        }
    }

    #[test]
    fn triangle_inequality() {
        let noc = t();
        for a in 0..16u16 {
            for b in 0..16u16 {
                for c in 0..16u16 {
                    let (a, b, c) = (CoreId::new(a), CoreId::new(b), CoreId::new(c));
                    assert!(noc.hops(a, c) <= noc.hops(a, b) + noc.hops(b, c));
                }
            }
        }
    }

    #[test]
    fn diameter_of_4x4_is_4() {
        let noc = t();
        assert_eq!(noc.diameter(), 4);
        let max = (0..16u16)
            .flat_map(|a| (0..16u16).map(move |b| (a, b)))
            .map(|(a, b)| noc.hops(CoreId::new(a), CoreId::new(b)))
            .max()
            .unwrap();
        assert_eq!(max, 4);
    }

    #[test]
    fn latency_scales_with_hops_and_router_overhead() {
        let noc = Torus::with_latencies(4, 4, 2, 5);
        let (a, b) = (CoreId::new(0), CoreId::new(5)); // 2 hops
        assert_eq!(noc.hops(a, b), 2);
        assert_eq!(noc.latency(a, b), 5 + 2 * 2);
        assert_eq!(noc.round_trip(a, b), 18);
    }

    #[test]
    fn broadcast_reaches_farthest_node() {
        let noc = t();
        assert_eq!(noc.broadcast_latency(CoreId::new(0)), 4);
    }

    #[test]
    fn bank_home_is_identity() {
        let noc = t();
        assert_eq!(noc.bank_home(7), CoreId::new(7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        t().coords(CoreId::new(16));
    }

    #[test]
    fn route_is_minimal_and_connected() {
        let noc = t();
        for a in 0..16u16 {
            for b in 0..16u16 {
                let (a, b) = (CoreId::new(a), CoreId::new(b));
                let path = noc.route(a, b);
                assert_eq!(path.len() as u32, noc.hops(a, b) + 1, "{a}->{b}");
                assert_eq!(path[0], a);
                assert_eq!(*path.last().unwrap(), b);
                for w in path.windows(2) {
                    assert_eq!(noc.hops(w[0], w[1]), 1, "route must use links: {w:?}");
                }
            }
        }
    }

    #[test]
    fn route_prefers_wraparound_when_shorter() {
        let noc = t();
        // (0,0) -> (3,0): one wrap-around hop, not three forward hops.
        let path = noc.route(CoreId::new(0), CoreId::new(3));
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn non_square_torus() {
        let noc = Torus::new(8, 2);
        assert_eq!(noc.num_nodes(), 16);
        assert_eq!(noc.hops(CoreId::new(0), CoreId::new(7)), 1); // wrap in x
        assert_eq!(noc.hops(CoreId::new(0), CoreId::new(12)), 1 + 4);
    }
}

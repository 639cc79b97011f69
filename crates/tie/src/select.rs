//! Global custom-instruction selection (the paper's Section 3.4).
//!
//! Leaf routines carry A-D curves from the formulation phase. The
//! selector propagates them bottom-up through the call graph: for each
//! node `f`, every point of the composite curve is
//! `local_cycles(f) + Σ_{g ∈ children(f)} calls(g) · cycles(g)` for some
//! combination of child design points, with instruction sharing and
//! dominance collapsing equivalent combinations. Pareto pruning and the
//! area budget are applied at the root.

use crate::adcurve::{AdCurve, AdPoint};
use crate::callgraph::{CallGraph, CallGraphError};
use std::collections::BTreeMap;

/// Controls point-count growth during propagation: a node's composite
/// curve with more points than this after dedup is Pareto-pruned early.
/// Sharing across *siblings* can in principle make an
/// internally-dominated point globally useful, so early pruning is a
/// heuristic — the paper similarly "contains the potential explosion
/// using several techniques".
const MAX_POINTS_PER_NODE: usize = 4096;

/// Bottom-up A-D-curve propagation and selection over a call graph.
///
/// # Examples
///
/// ```
/// use tie::adcurve::{AdCurve, AdPoint};
/// use tie::callgraph::CallGraph;
/// use tie::insn::CustomInsn;
/// use tie::select::Selector;
///
/// let mut g = CallGraph::new();
/// g.add_node("root", 10.0);
/// g.add_node("leaf_add", 0.0);
/// g.add_call("root", "leaf_add", 4.0)?;
///
/// let mut sel = Selector::new(g);
/// sel.set_leaf_curve("leaf_add", AdCurve::from_points(vec![
///     AdPoint::base(202.0),
///     AdPoint::new(vec![CustomInsn::new("add", 2, 1000)], 109.0),
/// ]));
/// let root = sel.root_curve("root")?;
/// assert_eq!(root.points()[0].cycles, 10.0 + 4.0 * 202.0);
/// let chosen = sel.select("root", 1500)?.expect("a point fits");
/// assert_eq!(chosen.cycles, 10.0 + 4.0 * 109.0);
/// # Ok::<(), tie::callgraph::CallGraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Selector {
    graph: CallGraph,
    leaf_curves: BTreeMap<String, AdCurve>,
}

impl Selector {
    /// Creates a selector over a call graph.
    pub fn new(graph: CallGraph) -> Self {
        Selector {
            graph,
            leaf_curves: BTreeMap::new(),
        }
    }

    /// The underlying call graph.
    pub fn graph(&self) -> &CallGraph {
        &self.graph
    }

    /// Attaches the formulation-phase A-D curve of a routine. Nodes
    /// without a curve contribute only their local cycles.
    pub fn set_leaf_curve(&mut self, name: impl Into<String>, curve: AdCurve) {
        self.leaf_curves.insert(name.into(), curve);
    }

    /// Propagates curves bottom-up, returning the composite curve of
    /// every node.
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError`] if the graph has a cycle.
    pub fn propagate(&self) -> Result<BTreeMap<String, AdCurve>, CallGraphError> {
        let order = self.graph.postorder()?;
        let mut curves: BTreeMap<String, AdCurve> = BTreeMap::new();
        for name in order {
            let curve = if let Some(leaf) = self.leaf_curves.get(name) {
                // A formulated routine: its curve already includes its
                // full cost (local + any interior calls).
                leaf.clone()
            } else {
                // Composite node: combine children per Equation (1).
                let mut acc = AdCurve::constant(0.0);
                for (child, calls) in self.graph.children(name) {
                    let child_curve = curves
                        .get(child)
                        .expect("postorder guarantees children first")
                        .map_cycles(|c| calls * c);
                    acc = acc.combine(&child_curve);
                    if acc.len() > MAX_POINTS_PER_NODE {
                        acc = acc.pareto();
                    }
                }
                let local = self.graph.local_cycles(name);
                acc.map_cycles(|c| c + local)
            };
            curves.insert(name.to_owned(), curve);
        }
        Ok(curves)
    }

    /// The Pareto-pruned composite curve at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError`] if `root` is unknown or the graph has a
    /// cycle.
    pub fn root_curve(&self, root: &str) -> Result<AdCurve, CallGraphError> {
        if !self.graph.contains(root) {
            return Err(CallGraphError::UnknownNode(root.to_owned()));
        }
        let curves = self.propagate()?;
        Ok(curves[root].pareto())
    }

    /// Selects the fastest root design point within `area_budget` gate
    /// equivalents. Returns `None` if even the zero-area point is absent
    /// (empty curve).
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError`] if `root` is unknown or the graph has a
    /// cycle.
    pub fn select(&self, root: &str, area_budget: u64) -> Result<Option<AdPoint>, CallGraphError> {
        Ok(self.root_curve(root)?.best_under_area(area_budget).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::CustomInsn;

    fn add(level: u32) -> CustomInsn {
        CustomInsn::new("add", level, 400 * level as u64)
    }

    fn mul(level: u32) -> CustomInsn {
        CustomInsn::new("mul", level, 6000 * level as u64)
    }

    fn addn_curve() -> AdCurve {
        AdCurve::from_points(vec![
            AdPoint::base(202.0),
            AdPoint::new([add(2)], 109.0),
            AdPoint::new([add(4)], 75.0),
            AdPoint::new([add(8)], 60.0),
            AdPoint::new([add(16)], 53.0),
        ])
    }

    fn addmul_curve() -> AdCurve {
        AdCurve::from_points(vec![
            AdPoint::base(640.0),
            AdPoint::new([add(2), mul(1)], 280.0),
            AdPoint::new([add(4), mul(1)], 210.0),
            AdPoint::new([add(8), mul(1)], 180.0),
            AdPoint::new([add(16), mul(1)], 168.0),
        ])
    }

    /// The two-child example of Fig. 5(c): root calls the add leaf
    /// twice and the mac leaf once, plus 10 local cycles.
    fn fig5_selector() -> Selector {
        let mut g = CallGraph::new();
        g.add_node("root", 10.0);
        g.add_node("leaf_add", 0.0);
        g.add_node("leaf_mac", 0.0);
        g.add_call("root", "leaf_add", 2.0).unwrap();
        g.add_call("root", "leaf_mac", 1.0).unwrap();
        let mut sel = Selector::new(g);
        sel.set_leaf_curve("leaf_add", addn_curve());
        sel.set_leaf_curve("leaf_mac", addmul_curve());
        sel
    }

    #[test]
    fn base_point_matches_equation_1() {
        let sel = fig5_selector();
        let curves = sel.propagate().unwrap();
        let root = &curves["root"];
        let base = root
            .points()
            .iter()
            .find(|p| p.area() == 0)
            .expect("base point");
        assert!((base.cycles - (10.0 + 2.0 * 202.0 + 640.0)).abs() < 1e-9);
    }

    #[test]
    fn root_has_nine_reduced_points() {
        let sel = fig5_selector();
        let curves = sel.propagate().unwrap();
        assert_eq!(curves["root"].len(), 9, "Fig. 6 reduction applies");
    }

    #[test]
    fn pareto_root_curve_is_monotone() {
        let sel = fig5_selector();
        let curve = sel.root_curve("root").unwrap();
        let pts = curve.points();
        for w in pts.windows(2) {
            assert!(w[0].area() < w[1].area());
            assert!(w[0].cycles > w[1].cycles);
        }
    }

    #[test]
    fn selection_improves_with_budget() {
        let sel = fig5_selector();
        let no_hw = sel.select("root", 0).unwrap().unwrap();
        let small = sel.select("root", 7000).unwrap().unwrap();
        let large = sel.select("root", 100_000).unwrap().unwrap();
        assert!(no_hw.cycles > small.cycles);
        assert!(small.cycles >= large.cycles);
        assert!(no_hw.area() == 0);
        assert!(small.area() <= 7000);
    }

    #[test]
    fn shared_instruction_across_siblings_counted_once() {
        // Both children accelerated by the same add_16 + mul_1; budget
        // exactly equal to {add_16, mul_1} must suffice for the fastest
        // point.
        let sel = fig5_selector();
        let budget = add(16).area() + mul(1).area();
        let best = sel.select("root", budget).unwrap().unwrap();
        assert!((best.cycles - (10.0 + 2.0 * 53.0 + 168.0)).abs() < 1e-9);
    }

    #[test]
    fn deep_graph_propagates_through_interior_nodes() {
        let mut g = CallGraph::new();
        g.add_node("top", 5.0);
        g.add_node("mid", 7.0);
        g.add_node("leaf", 0.0);
        g.add_call("top", "mid", 3.0).unwrap();
        g.add_call("mid", "leaf", 2.0).unwrap();
        let mut sel = Selector::new(g);
        sel.set_leaf_curve(
            "leaf",
            AdCurve::from_points(vec![AdPoint::base(100.0), AdPoint::new([add(2)], 40.0)]),
        );
        let curve = sel.root_curve("top").unwrap();
        // base: 5 + 3*(7 + 2*100) = 626; accelerated: 5 + 3*(7+80) = 266.
        assert_eq!(curve.points()[0].cycles, 626.0);
        assert_eq!(curve.points()[1].cycles, 266.0);
    }

    #[test]
    fn unknown_root_is_an_error() {
        let sel = fig5_selector();
        assert!(sel.root_curve("nope").is_err());
    }

    #[test]
    fn explosion_contained_by_early_pruning() {
        // A node with many children each having many points: 6^6
        // combinations, all with distinct instruction sets; the cap
        // keeps the composite curve bounded.
        let mut g = CallGraph::new();
        g.add_node("root", 0.0);
        let mut sel_points = Vec::new();
        for i in 0..6 {
            let name = format!("leaf{i}");
            g.add_node(&name, 0.0);
            g.add_call("root", &name, 1.0).unwrap();
            let fam = format!("f{i}");
            let pts: Vec<AdPoint> = (0..6)
                .map(|l| {
                    if l == 0 {
                        AdPoint::base(100.0)
                    } else {
                        AdPoint::new(
                            [CustomInsn::new(fam.clone(), l, 100 * l as u64)],
                            100.0 / (l + 1) as f64,
                        )
                    }
                })
                .collect();
            sel_points.push((name, AdCurve::from_points(pts)));
        }
        let mut sel = Selector::new(g);
        for (name, curve) in sel_points {
            sel.set_leaf_curve(name, curve);
        }
        let n = sel.propagate().unwrap()["root"].len();
        assert!((1..=MAX_POINTS_PER_NODE).contains(&n), "{n} points");
    }
}

//! Annotated call graphs (the paper's Fig. 4).
//!
//! Nodes are functions with `local_cycles` (cycles spent outside any
//! call); edges carry call counts. The graph is a DAG — a function may
//! have several parents (`mpz_mul` is called by `decrypt`, `mod_mul`
//! and `mpz_gcdext` in the paper's example) — and propagation
//! ([`crate::select`]) processes it bottom-up.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Error for call-graph construction and traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallGraphError {
    /// An edge references a function that was never added.
    UnknownNode(String),
    /// The graph contains a cycle (recursion is not supported by the
    /// propagation algorithm).
    Cycle(String),
}

impl fmt::Display for CallGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallGraphError::UnknownNode(n) => write!(f, "unknown call-graph node {n:?}"),
            CallGraphError::Cycle(n) => write!(f, "call graph has a cycle through {n:?}"),
        }
    }
}

impl std::error::Error for CallGraphError {}

#[derive(Debug, Clone, Default)]
struct Node {
    local_cycles: f64,
    children: BTreeMap<String, f64>, // callee -> calls per invocation
}

/// A weighted, annotated call graph.
///
/// # Examples
///
/// ```
/// use tie::callgraph::CallGraph;
///
/// let mut g = CallGraph::new();
/// g.add_node("decrypt", 120.0);
/// g.add_node("mpz_mul", 900.0);
/// g.add_call("decrypt", "mpz_mul", 4.0)?;
/// assert_eq!(g.calls("decrypt", "mpz_mul"), 4.0);
/// # Ok::<(), tie::callgraph::CallGraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    nodes: BTreeMap<String, Node>,
}

impl CallGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a function node with its local cycle count.
    pub fn add_node(&mut self, name: impl Into<String>, local_cycles: f64) {
        let name = name.into();
        self.nodes.entry(name).or_default().local_cycles = local_cycles;
    }

    /// Adds a call edge: `caller` invokes `callee` `calls` times per
    /// invocation of `caller`.
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError::UnknownNode`] if either endpoint has not
    /// been added.
    pub fn add_call(
        &mut self,
        caller: &str,
        callee: &str,
        calls: f64,
    ) -> Result<(), CallGraphError> {
        if !self.nodes.contains_key(callee) {
            return Err(CallGraphError::UnknownNode(callee.to_owned()));
        }
        let node = self
            .nodes
            .get_mut(caller)
            .ok_or_else(|| CallGraphError::UnknownNode(caller.to_owned()))?;
        *node.children.entry(callee.to_owned()).or_insert(0.0) += calls;
        Ok(())
    }

    /// Whether the graph contains `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.nodes.contains_key(name)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node's local cycles (0 if unknown).
    pub fn local_cycles(&self, name: &str) -> f64 {
        self.nodes.get(name).map_or(0.0, |n| n.local_cycles)
    }

    /// Call count on an edge (0 if absent).
    pub fn calls(&self, caller: &str, callee: &str) -> f64 {
        self.nodes
            .get(caller)
            .and_then(|n| n.children.get(callee).copied())
            .unwrap_or(0.0)
    }

    /// The children of a node with their call counts.
    pub fn children(&self, name: &str) -> impl Iterator<Item = (&str, f64)> {
        self.nodes
            .get(name)
            .into_iter()
            .flat_map(|n| n.children.iter().map(|(k, &v)| (k.as_str(), v)))
    }

    /// Leaf nodes (no children) — the routines custom instructions are
    /// formulated for.
    pub fn leaves(&self) -> impl Iterator<Item = &str> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.children.is_empty())
            .map(|(k, _)| k.as_str())
    }

    /// Root nodes (never called by another node).
    pub fn roots(&self) -> Vec<&str> {
        let mut called: BTreeSet<&str> = BTreeSet::new();
        for node in self.nodes.values() {
            for callee in node.children.keys() {
                called.insert(callee);
            }
        }
        self.nodes
            .keys()
            .map(String::as_str)
            .filter(|n| !called.contains(n))
            .collect()
    }

    /// Post-order (children before parents) over the whole graph.
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError::Cycle`] if the graph is not a DAG.
    pub fn postorder(&self) -> Result<Vec<&str>, CallGraphError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Visiting,
            Done,
        }
        let mut marks: BTreeMap<&str, Mark> = BTreeMap::new();
        let mut order: Vec<&str> = Vec::new();

        // Iterative DFS with an explicit stack to avoid recursion limits.
        for start in self.nodes.keys() {
            if marks.contains_key(start.as_str()) {
                continue;
            }
            let mut stack: Vec<(&str, bool)> = vec![(start.as_str(), false)];
            while let Some((name, expanded)) = stack.pop() {
                if expanded {
                    marks.insert(name, Mark::Done);
                    order.push(name);
                    continue;
                }
                match marks.get(name) {
                    Some(Mark::Done) => continue,
                    Some(Mark::Visiting) => {
                        return Err(CallGraphError::Cycle(name.to_owned()));
                    }
                    None => {}
                }
                marks.insert(name, Mark::Visiting);
                stack.push((name, true));
                if let Some(node) = self.nodes.get(name) {
                    for child in node.children.keys() {
                        match marks.get(child.as_str()) {
                            Some(Mark::Done) => {}
                            Some(Mark::Visiting) => {
                                return Err(CallGraphError::Cycle(child.clone()));
                            }
                            None => stack.push((child.as_str(), false)),
                        }
                    }
                }
            }
        }
        Ok(order)
    }

    /// Total cycles of `root` with no custom instructions, by Equation
    /// (1): `cycles(f) = local(f) + Σ calls(g)·cycles(g)`.
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError`] if `root` is unknown or the graph has a
    /// cycle.
    pub fn total_cycles(&self, root: &str) -> Result<f64, CallGraphError> {
        if !self.contains(root) {
            return Err(CallGraphError::UnknownNode(root.to_owned()));
        }
        let order = self.postorder()?;
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        for name in order {
            let node = &self.nodes[name];
            let mut t = node.local_cycles;
            for (child, calls) in &node.children {
                t += calls * totals[child.as_str()];
            }
            totals.insert(name, t);
        }
        Ok(totals[root])
    }

    /// Renders the graph as `caller -> callee xN` lines plus
    /// `node (local cycles)` lines, for reports (cf. Fig. 4).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, node) in &self.nodes {
            out.push_str(&format!("{name} [local={:.1}]\n", node.local_cycles));
            for (child, calls) in &node.children {
                out.push_str(&format!("  {name} -> {child} x{calls}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The call-graph skeleton of the paper's Fig. 4.
    fn fig4() -> CallGraph {
        let mut g = CallGraph::new();
        for (n, local) in [
            ("decrypt", 100.0),
            ("mpz_mul", 50.0),
            ("mod_hw", 30.0),
            ("mpz_mod", 40.0),
            ("mpz_add", 10.0),
            ("mpz_sub", 10.0),
            ("leaf_add", 202.0),
            ("leaf_mac", 640.0),
        ] {
            g.add_node(n, local);
        }
        g.add_call("decrypt", "mpz_mul", 4.0).unwrap();
        g.add_call("decrypt", "mod_hw", 4.0).unwrap();
        g.add_call("decrypt", "mpz_mod", 2.0).unwrap();
        g.add_call("decrypt", "mpz_add", 2.0).unwrap();
        g.add_call("decrypt", "mpz_sub", 2.0).unwrap();
        g.add_call("mpz_mul", "leaf_mac", 32.0).unwrap();
        g.add_call("mpz_add", "leaf_add", 1.0).unwrap();
        g.add_call("mod_hw", "leaf_add", 3.0).unwrap();
        g
    }

    #[test]
    fn edges_accumulate() {
        let mut g = CallGraph::new();
        g.add_node("a", 1.0);
        g.add_node("b", 2.0);
        g.add_call("a", "b", 2.0).unwrap();
        g.add_call("a", "b", 3.0).unwrap();
        assert_eq!(g.calls("a", "b"), 5.0);
    }

    #[test]
    fn unknown_endpoints_rejected() {
        let mut g = CallGraph::new();
        g.add_node("a", 1.0);
        assert!(matches!(
            g.add_call("a", "missing", 1.0),
            Err(CallGraphError::UnknownNode(_))
        ));
        assert!(matches!(
            g.add_call("missing", "a", 1.0),
            Err(CallGraphError::UnknownNode(_))
        ));
    }

    #[test]
    fn roots_and_leaves_of_fig4() {
        let g = fig4();
        assert_eq!(g.roots(), vec!["decrypt"]);
        let leaves: Vec<&str> = g.leaves().collect();
        assert!(leaves.contains(&"leaf_add"));
        assert!(leaves.contains(&"leaf_mac"));
        assert!(leaves.contains(&"mpz_mod"));
        assert!(!leaves.contains(&"decrypt"));
    }

    #[test]
    fn postorder_places_children_first() {
        let g = fig4();
        let order = g.postorder().unwrap();
        let pos = |n: &str| order.iter().position(|&x| x == n).unwrap();
        assert!(pos("leaf_mac") < pos("mpz_mul"));
        assert!(pos("mpz_mul") < pos("decrypt"));
        assert!(pos("leaf_add") < pos("mod_hw"));
        assert_eq!(order.len(), g.len());
    }

    #[test]
    fn cycle_detected() {
        let mut g = CallGraph::new();
        g.add_node("a", 1.0);
        g.add_node("b", 1.0);
        g.add_call("a", "b", 1.0).unwrap();
        g.add_call("b", "a", 1.0).unwrap();
        assert!(matches!(g.postorder(), Err(CallGraphError::Cycle(_))));
    }

    #[test]
    fn total_cycles_follow_equation_1() {
        let mut g = CallGraph::new();
        g.add_node("root", 100.0);
        g.add_node("leaf", 10.0);
        g.add_call("root", "leaf", 4.0).unwrap();
        assert_eq!(g.total_cycles("root").unwrap(), 140.0);
        // Diamond sharing: both paths contribute.
        let g4 = fig4();
        let total = g4.total_cycles("decrypt").unwrap();
        let by_hand = 100.0
            + 4.0 * (50.0 + 32.0 * 640.0)
            + 4.0 * (30.0 + 3.0 * 202.0)
            + 2.0 * 40.0
            + 2.0 * (10.0 + 202.0)
            + 2.0 * 10.0;
        assert!((total - by_hand).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_nodes_and_edges() {
        let text = fig4().render();
        assert!(text.contains("decrypt"));
        assert!(text.contains("decrypt -> mpz_mul x4"));
    }

    #[test]
    fn multiple_parents_supported() {
        let g = fig4();
        // leaf_add has two parents: mpz_add and mod_hw.
        assert_eq!(g.calls("mpz_add", "leaf_add"), 1.0);
        assert_eq!(g.calls("mod_hw", "leaf_add"), 3.0);
    }
}

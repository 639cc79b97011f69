//! Area–delay (A-D) curves and their combination.
//!
//! An A-D curve records, for one routine or subgraph, the design points
//! reachable by different custom-instruction choices: each point is a
//! dominance-reduced [`InsnSet`] together with the routine's cycle count
//! under that set. Curves combine bottom-up through the call graph:
//! the Cartesian product of child points, with instruction sharing and
//! dominance collapsing equivalent entries (Fig. 6), and Pareto pruning
//! discarding inferior points (Fig. 5(c)).

use crate::insn::{CustomInsn, InsnSet};
use std::collections::BTreeMap;
use std::fmt;

/// Cartesian products at least this large are combined on a worker
/// pool; smaller ones stay serial (spawn overhead would dominate).
pub const PAR_COMBINE_THRESHOLD: usize = 1024;

/// One design point: a set of custom instructions and the resulting
/// cycle count.
#[derive(Debug, Clone, PartialEq)]
pub struct AdPoint {
    /// The custom instructions this point assumes (dominance-reduced).
    pub insns: InsnSet,
    /// Cycle count of the routine/subgraph under those instructions.
    pub cycles: f64,
}

impl AdPoint {
    /// A point with custom instructions.
    pub fn new<I: IntoIterator<Item = CustomInsn>>(insns: I, cycles: f64) -> Self {
        AdPoint {
            insns: InsnSet::from_insns(insns),
            cycles,
        }
    }

    /// The zero-area base point (original software implementation).
    pub fn base(cycles: f64) -> Self {
        AdPoint {
            insns: InsnSet::empty(),
            cycles,
        }
    }

    /// Area of the point's instruction set in gate equivalents.
    pub fn area(&self) -> u64 {
        self.insns.area()
    }
}

impl fmt::Display for AdPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} area={} cycles={:.1}",
            self.insns,
            self.area(),
            self.cycles
        )
    }
}

/// An A-D curve: design points for one routine or call-graph node,
/// deduplicated by instruction set (keeping the best cycles per set).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdCurve {
    points: Vec<AdPoint>,
}

impl AdCurve {
    /// A curve with a single zero-area point (an unaccelerated routine
    /// or a constant-cost leaf).
    pub fn constant(cycles: f64) -> Self {
        Self::from_points(vec![AdPoint::base(cycles)])
    }

    /// Builds a curve, deduplicating identical instruction sets (keeping
    /// the minimum cycles) and sorting by area then cycles.
    pub fn from_points(points: Vec<AdPoint>) -> Self {
        let mut best: BTreeMap<InsnSet, f64> = BTreeMap::new();
        for p in points {
            best.entry(p.insns)
                .and_modify(|c| *c = c.min(p.cycles))
                .or_insert(p.cycles);
        }
        let mut points: Vec<AdPoint> = best
            .into_iter()
            .map(|(insns, cycles)| AdPoint { insns, cycles })
            .collect();
        points.sort_by(|a, b| a.area().cmp(&b.area()).then(a.cycles.total_cmp(&b.cycles)));
        AdCurve { points }
    }

    /// The design points, sorted by area.
    pub fn points(&self) -> &[AdPoint] {
        &self.points
    }

    /// Number of design points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True for an empty curve.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns a new curve with every point's cycles transformed by
    /// `f` (used to apply Equation (1): weighting by call counts and
    /// adding local cycles).
    pub fn map_cycles(&self, f: impl Fn(f64) -> f64) -> AdCurve {
        AdCurve {
            points: self
                .points
                .iter()
                .map(|p| AdPoint {
                    insns: p.insns.clone(),
                    cycles: f(p.cycles),
                })
                .collect(),
        }
    }

    /// Combines two child curves: Cartesian product with instruction
    /// sharing and dominance reduction, keeping the best cycles per
    /// distinct reduced set. Cycle counts add.
    ///
    /// Products of [`PAR_COMBINE_THRESHOLD`] points or more are formed
    /// on an environment-sized worker pool, a row per task; the result
    /// is identical either way.
    pub fn combine(&self, other: &AdCurve) -> AdCurve {
        if self.len() * other.len() >= PAR_COMBINE_THRESHOLD {
            return self.combine_on(other, &xpar::Pool::from_env());
        }
        let mut out = Vec::with_capacity(self.len() * other.len());
        for a in &self.points {
            for b in &other.points {
                out.push(AdPoint {
                    insns: a.insns.union(&b.insns),
                    cycles: a.cycles + b.cycles,
                });
            }
        }
        AdCurve::from_points(out)
    }

    /// [`AdCurve::combine`] on an explicit worker pool: each row of the
    /// Cartesian product is formed in parallel and the rows are merged
    /// in order. The dedup-by-instruction-set merge keeps the minimum
    /// cycles per set (order-independent), so the combined curve is
    /// bit-identical to the serial product for any thread count.
    fn combine_on(&self, other: &AdCurve, pool: &xpar::Pool) -> AdCurve {
        let rows = pool.par_map(&self.points, |_, a| {
            other
                .points
                .iter()
                .map(|b| AdPoint {
                    insns: a.insns.union(&b.insns),
                    cycles: a.cycles + b.cycles,
                })
                .collect::<Vec<AdPoint>>()
        });
        AdCurve::from_points(rows.into_iter().flatten().collect())
    }

    /// Removes Pareto-dominated points: a point survives only if no
    /// other point has both area ≤ and cycles ≤ (with at least one
    /// strict). Applied at the call-graph root (Fig. 5(c), where P1 is
    /// pruned by P2/P3).
    pub fn pareto(&self) -> AdCurve {
        let mut kept: Vec<AdPoint> = Vec::new();
        // Points are sorted by area then cycles; sweep keeping strictly
        // decreasing cycles.
        let mut best_cycles = f64::INFINITY;
        for p in &self.points {
            if p.cycles < best_cycles {
                kept.push(p.clone());
                best_cycles = p.cycles;
            }
        }
        AdCurve { points: kept }
    }

    /// The fastest point whose area does not exceed `area_budget`
    /// (the paper's final selection step).
    pub fn best_under_area(&self, area_budget: u64) -> Option<&AdPoint> {
        self.points
            .iter()
            .filter(|p| p.area() <= area_budget)
            .min_by(|a, b| a.cycles.total_cmp(&b.cycles))
    }

    /// Renders the curve as an aligned text table for reports.
    pub fn render(&self) -> String {
        let mut out = String::from("area(GE)   cycles      instructions\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:>8}   {:>9.1}   {}\n",
                p.area(),
                p.cycles,
                p.insns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(level: u32) -> CustomInsn {
        CustomInsn::new("add", level, 400 * level as u64)
    }

    fn mul(level: u32) -> CustomInsn {
        CustomInsn::new("mul", level, 6000 * level as u64)
    }

    /// A curve shaped like the paper's mpn_add_n Fig. 5(a): base at 202
    /// cycles, then diminishing returns with more adders.
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

    #[test]
    fn from_points_dedups_keeping_best() {
        let c = AdCurve::from_points(vec![
            AdPoint::new([add(2)], 120.0),
            AdPoint::new([add(2)], 100.0),
        ]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.points()[0].cycles, 100.0);
    }

    #[test]
    fn points_sorted_by_area() {
        let c = addn_curve();
        let areas: Vec<u64> = c.points().iter().map(AdPoint::area).collect();
        let mut sorted = areas.clone();
        sorted.sort();
        assert_eq!(areas, sorted);
        assert_eq!(c.points()[0].area(), 0, "base point has zero area");
    }

    #[test]
    fn combine_reduces_cartesian_25_to_9() {
        let combined = addn_curve().combine(&addmul_curve());
        assert_eq!(combined.len(), 9, "Fig. 6: 25 candidates reduce to 9");
    }

    #[test]
    fn combine_adds_cycles_and_shares_area() {
        let a = AdCurve::from_points(vec![AdPoint::new([add(4)], 10.0)]);
        let b = AdCurve::from_points(vec![AdPoint::new([add(4)], 20.0)]);
        let c = a.combine(&b);
        assert_eq!(c.len(), 1);
        assert_eq!(c.points()[0].cycles, 30.0);
        assert_eq!(c.points()[0].area(), add(4).area(), "shared, not doubled");
    }

    #[test]
    fn parallel_combine_matches_serial() {
        // Big enough that combine() itself takes the pooled path
        // (40 × 40 = 1600 ≥ PAR_COMBINE_THRESHOLD).
        let big = |family: &str| {
            AdCurve::from_points(
                (1..=40u32)
                    .map(|k| {
                        AdPoint::new(
                            [CustomInsn::new(family, k, 100 * k as u64)],
                            1000.0 / k as f64,
                        )
                    })
                    .collect(),
            )
        };
        let (a, b) = (big("alpha"), big("beta"));
        let serial = {
            let mut out = Vec::new();
            for pa in a.points() {
                for pb in b.points() {
                    out.push(AdPoint {
                        insns: pa.insns.union(&pb.insns),
                        cycles: pa.cycles + pb.cycles,
                    });
                }
            }
            AdCurve::from_points(out)
        };
        assert_eq!(a.combine(&b), serial);
        assert_eq!(a.combine_on(&b, &xpar::Pool::new(1)), serial);
        assert_eq!(a.combine_on(&b, &xpar::Pool::new(7)), serial);
    }

    #[test]
    fn pareto_prunes_inferior_points() {
        // P1: expensive and slow; dominated by P2.
        let c = AdCurve::from_points(vec![
            AdPoint::base(100.0),
            AdPoint::new([add(2)], 90.0),         // P2
            AdPoint::new([add(2), mul(1)], 95.0), // P1: more area, more cycles
            AdPoint::new([add(4), mul(1)], 40.0), // P3
        ]);
        let p = c.pareto();
        assert_eq!(p.len(), 3);
        assert!(p.points().iter().all(|pt| pt.cycles != 95.0));
    }

    #[test]
    fn map_cycles_applies_equation_1() {
        // cycles(root) = local + calls * cycles(child)
        let child = addn_curve();
        let weighted = child.map_cycles(|c| 50.0 + 4.0 * c);
        assert_eq!(weighted.points()[0].cycles, 50.0 + 4.0 * 202.0);
        assert_eq!(weighted.len(), child.len());
    }

    #[test]
    fn best_under_area_respects_budget() {
        let c = addn_curve();
        assert_eq!(c.best_under_area(0).unwrap().cycles, 202.0);
        assert_eq!(c.best_under_area(add(2).area()).unwrap().cycles, 109.0);
        assert_eq!(c.best_under_area(u64::MAX).unwrap().cycles, 53.0);
        let empty = AdCurve::default();
        assert!(empty.best_under_area(100).is_none());
    }

    #[test]
    fn constant_curve_is_single_base_point() {
        let c = AdCurve::constant(42.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.points()[0].area(), 0);
        assert_eq!(c.points()[0].cycles, 42.0);
    }

    #[test]
    fn render_contains_all_points() {
        let text = addn_curve().render();
        assert!(text.contains("202.0"));
        assert!(text.contains("add_16"));
    }
}

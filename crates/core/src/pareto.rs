//! Pareto-frontier utilities for the accuracy/throughput plots of Fig. 1.

use serde::{Deserialize, Serialize};

/// One system's operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// System + configuration label.
    pub label: String,
    /// Normalized accuracy (higher is better).
    pub accuracy: f64,
    /// Normalized throughput (higher is better).
    pub throughput: f64,
}

impl ParetoPoint {
    /// True when `self` dominates `other` (at least as good on both axes,
    /// strictly better on one).
    fn dominates(&self, other: &ParetoPoint) -> bool {
        self.accuracy >= other.accuracy
            && self.throughput >= other.throughput
            && (self.accuracy > other.accuracy || self.throughput > other.throughput)
    }
}

/// Returns the indices of the non-dominated points, sorted by ascending
/// throughput (the order a frontier is plotted in).
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<usize> {
    let mut frontier: Vec<usize> = (0..points.len())
        .filter(|&i| !points.iter().any(|p| p.dominates(&points[i])))
        .collect();
    frontier.sort_by(|&a, &b| {
        points[a]
            .throughput
            .partial_cmp(&points[b].throughput)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(label: &str, acc: f64, thr: f64) -> ParetoPoint {
        ParetoPoint {
            label: label.into(),
            accuracy: acc,
            throughput: thr,
        }
    }

    #[test]
    fn dominated_points_are_excluded() {
        let pts = vec![
            p("good", 0.9, 5.0),
            p("dominated", 0.8, 4.0),
            p("fast", 0.7, 9.0),
        ];
        let f = pareto_frontier(&pts);
        assert_eq!(f, vec![0, 2]);
    }

    #[test]
    fn frontier_points_mutually_nondominated() {
        let pts = vec![
            p("a", 0.9, 1.0),
            p("b", 0.8, 2.0),
            p("c", 0.7, 3.0),
            p("d", 0.95, 0.5),
        ];
        let f = pareto_frontier(&pts);
        for &i in &f {
            for &j in &f {
                if i != j {
                    assert!(!pts[i].dominates(&pts[j]));
                }
            }
        }
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn frontier_dominates_all_discarded() {
        let pts = vec![p("a", 0.9, 5.0), p("weak", 0.5, 1.0), p("b", 0.6, 8.0)];
        let f = pareto_frontier(&pts);
        for i in 0..pts.len() {
            if !f.contains(&i) {
                assert!(f.iter().any(|&j| pts[j].dominates(&pts[i])));
            }
        }
    }

    #[test]
    fn equal_points_both_survive() {
        let pts = vec![p("x", 0.5, 0.5), p("y", 0.5, 0.5)];
        assert_eq!(pareto_frontier(&pts).len(), 2);
    }

    #[test]
    fn empty_input_empty_frontier() {
        assert!(pareto_frontier(&[]).is_empty());
    }
}

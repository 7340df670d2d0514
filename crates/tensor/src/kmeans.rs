//! K-means clustering over key vectors.
//!
//! This is the preprocessing substrate for the ClusterKV baseline
//! (Liu et al., 2024): keys are clustered in semantic space and retrieval
//! scores are computed against cluster centroids instead of individual keys.

use crate::{Matrix, SimRng};

/// The result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// `k x dim` centroid matrix.
    pub centroids: Matrix,
    /// For each input row, the index of its centroid.
    pub assignments: Vec<usize>,
    /// Members of each cluster, by input row index.
    pub clusters: Vec<Vec<usize>>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f32,
    /// Iterations executed before convergence or cut-off.
    pub iterations: usize,
}

/// Configuration for [`kmeans`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters. Clamped to the number of points.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Converged when inertia improves by less than this fraction.
    pub tol: f32,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 8,
            max_iters: 25,
            tol: 1e-4,
        }
    }
}

/// Lloyd's algorithm with k-means++ style seeding (greedy farthest-point).
///
/// # Panics
///
/// Panics if `points` is empty or `config.k == 0`.
pub fn kmeans(points: &Matrix, config: KMeansConfig, rng: &mut SimRng) -> KMeans {
    assert!(points.rows() > 0, "kmeans requires at least one point");
    assert!(config.k > 0, "kmeans requires k > 0");
    let n = points.rows();
    let dim = points.cols();
    let k = config.k.min(n);

    // k-means++ seeding: first centroid random, then greedily farthest.
    let mut centroid_rows: Vec<usize> = vec![rng.below(n)];
    let mut dist2: Vec<f32> = (0..n)
        .map(|i| sq_dist(points.row(i), points.row(centroid_rows[0])))
        .collect();
    while centroid_rows.len() < k {
        let next = dist2
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        centroid_rows.push(next);
        for (i, d2) in dist2.iter_mut().enumerate() {
            let d = sq_dist(points.row(i), points.row(next));
            if d < *d2 {
                *d2 = d;
            }
        }
    }
    let mut centroids = points.gather_rows(&centroid_rows);

    let mut assignments = vec![0usize; n];
    let mut inertia = f32::INFINITY;
    let mut iterations = 0;
    for it in 0..config.max_iters {
        iterations = it + 1;
        // Assignment step: each point's nearest centroid is independent,
        // so it fans out over `spec_parallel` (contiguous leaves); the
        // inertia is then folded serially in point order, keeping the sum
        // bit-for-bit identical at any thread count.
        let assigned = assign_all(points, &centroids);
        let mut new_inertia = 0.0;
        for (slot, &(best, d)) in assignments.iter_mut().zip(&assigned) {
            *slot = best;
            new_inertia += d;
        }
        // Update step.
        let mut sums = Matrix::zeros(k, dim);
        let mut counts = vec![0usize; k];
        for (i, &c) in assignments.iter().enumerate() {
            counts[c] += 1;
            let row = points.row(i);
            let dst = sums.row_mut(c);
            for (d, v) in dst.iter_mut().zip(row) {
                *d += v;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Re-seed an empty cluster at the farthest point.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        sq_dist(points.row(a), centroids.row(assignments[a]))
                            .partial_cmp(&sq_dist(points.row(b), centroids.row(assignments[b])))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap_or(0);
                centroids.row_mut(c).copy_from_slice(points.row(far));
                continue;
            }
            let inv = 1.0 / count as f32;
            let src = sums.row(c).to_vec();
            for (d, v) in centroids.row_mut(c).iter_mut().zip(src) {
                *d = v * inv;
            }
        }
        let improved = inertia - new_inertia;
        inertia = new_inertia;
        if improved >= 0.0 && improved <= config.tol * inertia.max(1e-12) {
            break;
        }
    }

    let mut clusters = vec![Vec::new(); k];
    for (i, &c) in assignments.iter().enumerate() {
        clusters[c].push(i);
    }
    KMeans {
        centroids,
        assignments,
        clusters,
        inertia,
        iterations,
    }
}

/// Below this many distance muladds per assignment sweep, the sweep runs
/// serially. Above it, `par_map_range` splits the points into
/// `max_threads()` contiguous leaves and offers all but one to
/// `spec_parallel::join`'s persistent helpers, a hand-off of well under a
/// microsecond. A whole ClusterKV run (k = n/16, dim 16, 15 iterations)
/// on a 2-vCPU host, best of 66 runs a cell:
///
/// | points | sweep muladds | 1 thread | 2 threads |
/// |---|---|---|---|
/// | 512 | 2^18 | 1.30 ms | 0.81 ms |
/// | 1024 | 2^20 | 7.33 ms | 4.26 ms |
/// | 2048 | 2^22 | 27.6 ms | 17.0 ms |
/// | 4096 | 2^24 | 115 ms | 66 ms |
///
/// Two threads pay from the smallest row, so the break-even lies at or
/// below 2^18. The threshold sits at 2^17 so that `determinism.rs`'s
/// sweeps (up to 200 x 40 x 24, about 2^17.6) take the parallel path;
/// moving it lower waits for a measurement of sweeps below 2^18.
const PAR_ASSIGN_MIN: usize = 1 << 17;

/// The nearest centroid of every row of `points`, in row order
/// (parallel over contiguous row leaves for large sweeps; identical to
/// the serial per-row loop at any thread count).
pub fn assign_all(points: &Matrix, centroids: &Matrix) -> Vec<(usize, f32)> {
    let work = points.rows() * points.cols() * centroids.rows();
    if work < PAR_ASSIGN_MIN {
        return (0..points.rows())
            .map(|i| nearest_centroid(points.row(i), centroids))
            .collect();
    }
    spec_parallel::par_map_range(points.rows(), |i| {
        nearest_centroid(points.row(i), centroids)
    })
}

/// Index of the nearest centroid and its squared distance.
pub fn nearest_centroid(point: &[f32], centroids: &Matrix) -> (usize, f32) {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for (c, row) in centroids.iter_rows().enumerate() {
        let d = sq_dist(point, row);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

#[inline]
fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(rng: &mut SimRng, per: usize) -> Matrix {
        let mut m = Matrix::default();
        for _ in 0..per {
            m.push_row(&[5.0 + rng.normal() * 0.1, 5.0 + rng.normal() * 0.1]);
        }
        for _ in 0..per {
            m.push_row(&[-5.0 + rng.normal() * 0.1, -5.0 + rng.normal() * 0.1]);
        }
        m
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = SimRng::seed(1);
        let pts = two_blobs(&mut rng, 20);
        let km = kmeans(
            &pts,
            KMeansConfig {
                k: 2,
                ..Default::default()
            },
            &mut rng,
        );
        // All points in the first blob share a cluster; likewise the second.
        let first = km.assignments[0];
        assert!(km.assignments[..20].iter().all(|&a| a == first));
        let second = km.assignments[20];
        assert!(km.assignments[20..].iter().all(|&a| a == second));
        assert_ne!(first, second);
    }

    #[test]
    fn assignments_cover_all_points() {
        let mut rng = SimRng::seed(2);
        let pts = rng.normal_matrix(50, 4, 1.0);
        let km = kmeans(
            &pts,
            KMeansConfig {
                k: 5,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(km.assignments.len(), 50);
        let total: usize = km.clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let mut rng = SimRng::seed(3);
        let pts = rng.normal_matrix(3, 2, 1.0);
        let km = kmeans(
            &pts,
            KMeansConfig {
                k: 10,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(km.centroids.rows(), 3);
    }

    #[test]
    fn inertia_zero_for_duplicate_points() {
        let mut rng = SimRng::seed(4);
        let pts = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]);
        let km = kmeans(
            &pts,
            KMeansConfig {
                k: 1,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(km.inertia < 1e-9);
    }

    #[test]
    fn nearest_centroid_picks_closest() {
        let cents = Matrix::from_rows(&[&[0.0, 0.0], &[10.0, 10.0]]);
        let (c, d) = nearest_centroid(&[9.0, 9.0], &cents);
        assert_eq!(c, 1);
        assert!((d - 2.0).abs() < 1e-6);
    }
}

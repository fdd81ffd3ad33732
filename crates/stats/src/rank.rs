//! Mid-rank computation with tie handling.
//!
//! Spearman correlation is Pearson over ranks; ties receive the average of
//! the ranks they span (the "fractional ranking" Pandas uses by default).

/// 1-based mid-ranks of `values`. NaNs receive NaN ranks.
pub fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<(f64, usize)> =
        values.iter().enumerate().filter(|(_, v)| !v.is_nan()).map(|(i, &v)| (v, i)).collect();
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = vec![f64::NAN; values.len()];
    let mut first = 0;
    // A linear tie pass; the dominant comparison sort above cannot poll.
    for tied in order.chunk_by(|a, b| a.0 == b.0) {
        // Positions first..first + len are tied; the mid-rank is the
        // average of their 1-based ranks.
        let rank = (2 * first + tied.len() - 1) as f64 / 2.0 + 1.0;
        for &(_, row) in tied {
            if let Some(slot) = out.get_mut(row) {
                *slot = rank;
            }
        }
        first += tied.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_values() {
        assert_eq!(ranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ties_get_mid_rank() {
        // [1, 2, 2, 3] -> ranks [1, 2.5, 2.5, 4]
        assert_eq!(ranks(&[1.0, 2.0, 2.0, 3.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn all_tied() {
        assert_eq!(ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn nan_ranks_stay_nan() {
        let r = ranks(&[2.0, f64::NAN, 1.0]);
        assert_eq!(r[0], 2.0);
        assert!(r[1].is_nan());
        assert_eq!(r[2], 1.0);
    }

    #[test]
    fn empty() {
        assert!(ranks(&[]).is_empty());
    }

    #[test]
    fn rank_sum_invariant() {
        // Sum of ranks of n distinct values is n(n+1)/2 — holds with ties too.
        let vals = [4.0, 1.0, 4.0, 2.0, 9.0, 2.0, 2.0];
        let s: f64 = ranks(&vals).iter().sum();
        let n = vals.len() as f64;
        assert!((s - n * (n + 1.0) / 2.0).abs() < 1e-12);
    }
}

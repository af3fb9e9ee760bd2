//! MADE mask construction (Germain et al. 2015).
//!
//! The autoregressive property — output `i` may depend only on inputs
//! `< i` — is enforced with two binary masks:
//!
//! * hidden mask `M¹ ∈ {0,1}^{h×n}`:  `M¹[k, d] = 1 ⇔ m(k) ≥ d + 1`,
//!   i.e. hidden unit `k` (with *degree* `m(k) ∈ [1, n−1]`) may see
//!   inputs with 1-based index `≤ m(k)`;
//! * output mask `M² ∈ {0,1}^{n×k}`:  `M²[i, k] = 1 ⇔ i + 1 > m(k)`,
//!   i.e. output `i` (1-based `i+1`) may use hidden units of strictly
//!   smaller degree.
//!
//! Composing the two: output `i` sees input `d` iff some `k` has
//! `d + 1 ≤ m(k) < i + 1`, which implies `d < i` — exactly the strict
//! autoregressive ordering.  Output 0 is connected to nothing and learns
//! the marginal `p(x₁)` through its bias alone.
//!
//! Degrees are assigned deterministically and evenly
//! (`m(k) = (k mod (n−1)) + 1`), so every degree class is populated when
//! `h ≥ n − 1`; determinism keeps cluster replicas identical.

use vqmc_tensor::Matrix;

/// Degree assignment for `h` hidden units over `n` inputs:
/// `m(k) ∈ [1, n−1]` cycling evenly.  For `n == 1` there are no valid
/// degrees (the single output depends on nothing); all degrees are 0 and
/// both masks come out empty.
pub fn hidden_degrees(n: usize, h: usize) -> Vec<usize> {
    if n <= 1 {
        return vec![0; h];
    }
    (0..h).map(|k| (k % (n - 1)) + 1).collect()
}

/// Hidden-layer mask `M¹ (h×n)`: unit `k` sees inputs `0..m(k)`.
pub fn input_mask(n: usize, degrees: &[usize]) -> Matrix {
    Matrix::from_fn(degrees.len(), n, |k, d| {
        if degrees[k] > d {
            1.0
        } else {
            0.0
        }
    })
}

/// Hidden-to-hidden mask `Mˡ (next×prev)` for stacks deeper than one
/// hidden layer: unit `k` of the next layer (degree `m_l(k)`) may see
/// unit `j` of the previous layer (degree `m_{l-1}(j)`) iff
/// `m_l(k) ≥ m_{l-1}(j)` — **non-strict**, unlike the output mask.
/// Strictness is only needed at the output: composing
/// `d + 1 ≤ m_1 ≤ m_2 ≤ … ≤ m_L < i + 1` still implies `d < i`, while
/// non-strict interior hops keep every degree class reachable at depth.
/// Degree-0 units (the `n == 1` degenerate case) carry no input
/// information, so connecting them is harmless; the composed
/// connectivity test below pins the invariant either way.
pub fn hidden_mask(prev_degrees: &[usize], degrees: &[usize]) -> Matrix {
    Matrix::from_fn(degrees.len(), prev_degrees.len(), |k, j| {
        if degrees[k] >= prev_degrees[j] {
            1.0
        } else {
            0.0
        }
    })
}

/// Output-layer mask `M² (n×h)`: output `i` uses units with
/// `m(k) < i + 1`, but never units with degree 0 (the `n == 1`
/// degenerate case).
pub fn output_mask(n: usize, degrees: &[usize]) -> Matrix {
    Matrix::from_fn(n, degrees.len(), |i, k| {
        if degrees[k] >= 1 && i + 1 > degrees[k] {
            1.0
        } else {
            0.0
        }
    })
}

/// The effective input-to-output connectivity `C = M² · M¹ (n×n)`:
/// `C[i, d] > 0` iff output `i` can be influenced by input `d`.
/// Strictly lower-triangular by construction; the tests assert it.
pub fn connectivity(input_mask: &Matrix, output_mask: &Matrix) -> Matrix {
    output_mask.matmul_nn(input_mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_cover_all_classes() {
        let d = hidden_degrees(5, 12);
        for deg in 1..5 {
            assert!(d.contains(&deg), "degree {deg} missing");
        }
        assert!(d.iter().all(|&m| (1..=4).contains(&m)));
    }

    /// Every layer's degrees are exactly `1..=min(h, n−1)`, with no
    /// gap: once a bit has no unit of some layer's degree, no later bit
    /// has one either.  The deep panel sampler relies on it to stop
    /// updating the layer-1 panel after layer 2's top degree.
    #[test]
    fn degrees_are_contiguous_from_one() {
        for n in 2..40 {
            for h in 1..100 {
                let mut d = hidden_degrees(n, h);
                d.sort_unstable();
                d.dedup();
                let top = h.min(n - 1);
                assert_eq!(d, (1..=top).collect::<Vec<_>>(), "n={n} h={h}");
            }
        }
    }

    #[test]
    fn connectivity_is_strictly_lower_triangular() {
        for (n, h) in [(2usize, 3usize), (5, 8), (8, 20), (10, 7)] {
            let deg = hidden_degrees(n, h);
            let m1 = input_mask(n, &deg);
            let m2 = output_mask(n, &deg);
            let c = connectivity(&m1, &m2);
            for i in 0..n {
                for d in 0..n {
                    if d >= i {
                        assert_eq!(
                            c.get(i, d),
                            0.0,
                            "n={n} h={h}: output {i} sees input {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn connectivity_is_maximal_below_diagonal_when_wide() {
        // With h >= n-1 every allowed (i, d) pair with d < i is realised.
        let (n, h) = (6, 16);
        let deg = hidden_degrees(n, h);
        let c = connectivity(&input_mask(n, &deg), &output_mask(n, &deg));
        for i in 0..n {
            for d in 0..i {
                assert!(
                    c.get(i, d) > 0.0,
                    "output {i} cannot see input {d} despite d < i"
                );
            }
        }
    }

    #[test]
    fn deep_connectivity_is_strictly_lower_triangular() {
        // Compose M_out · M_hid … · M_in through 2- and 3-hidden-layer
        // stacks: the end-to-end connectivity must stay strictly
        // lower-triangular, and with wide layers every d < i pair must
        // survive the extra hops.
        for widths in [vec![8usize, 6], vec![12, 9, 7]] {
            let n = 6usize;
            let degs: Vec<Vec<usize>> =
                widths.iter().map(|&h| hidden_degrees(n, h)).collect();
            let mut c = input_mask(n, &degs[0]);
            for l in 1..degs.len() {
                c = hidden_mask(&degs[l - 1], &degs[l]).matmul_nn(&c);
            }
            let c = output_mask(n, degs.last().unwrap()).matmul_nn(&c);
            for i in 0..n {
                for d in 0..n {
                    if d >= i {
                        assert_eq!(
                            c.get(i, d),
                            0.0,
                            "depth {}: output {i} sees input {d}",
                            widths.len()
                        );
                    } else {
                        assert!(
                            c.get(i, d) > 0.0,
                            "depth {}: output {i} lost input {d}",
                            widths.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_output_disconnected() {
        let deg = hidden_degrees(4, 9);
        let m2 = output_mask(4, &deg);
        assert!(m2.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_spin_degenerate_masks_empty() {
        let deg = hidden_degrees(1, 4);
        let m1 = input_mask(1, &deg);
        let m2 = output_mask(1, &deg);
        assert!(m1.as_slice().iter().all(|&v| v == 0.0));
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn masks_are_binary() {
        let deg = hidden_degrees(7, 15);
        for m in [input_mask(7, &deg), output_mask(7, &deg)] {
            assert!(m.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }
}

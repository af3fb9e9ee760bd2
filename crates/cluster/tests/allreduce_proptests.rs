//! Property tests for the binomial-tree allreduce and `Topology` at
//! **non-power-of-two** device counts.
//!
//! The in-crate unit tests only exercise L ∈ {1, 2, 4, 8, 16}; the
//! paper's own sweep includes 6×4 = 24 and the serving/training stack
//! is free to pick any L.  Two invariant classes:
//!
//! 1. **Bit-identity to a sequential-pairwise reference.**  The
//!    collective documents a fixed combination order (binomial tree:
//!    at stride `s`, rank `r` absorbs `r+s`), which makes the result
//!    bitwise deterministic.  We re-derive the mean with a plain,
//!    sequential re-statement of that pairwise order — naive `f64`
//!    loops, no `Vector` machinery, no cost model — and require exact
//!    `to_bits` equality for every rank count, including the odd ones
//!    where subtrees are ragged (L = 3, 5, 6, 7, 12).
//! 2. **Topology consistency off the power-of-two grid.**  Rank→node
//!    mapping, intra/inter link classification, and the monotone cost
//!    of crossing nodes must hold for every factorisation
//!    `L = nodes × devices_per_node`, not just the paper's grid.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_cluster::collective::tree_depth;
use vqmc_cluster::{allreduce_mean_tree, Topology};
use vqmc_tensor::Vector;

/// The device counts the issue calls out: 1 plus every small
/// non-power-of-two, and 12 (a 3×4 / 2×6 cluster).
const ODD_COUNTS: &[usize] = &[1, 3, 5, 6, 7, 12];

/// Sequential-pairwise reference mean: the binomial-tree combination
/// order (`buf[r] += buf[r + stride]` for doubling strides), restated
/// as plain nested loops over `Vec<f64>` so it shares no code with the
/// production collective, then a final divide by `l`.
fn reference_pairwise_mean(inputs: &[Vec<f64>]) -> Vec<f64> {
    let l = inputs.len();
    let mut bufs = inputs.to_vec();
    let mut stride = 1;
    while stride < l {
        let mut r = 0;
        while r + stride < l {
            let (head, tail) = bufs.split_at_mut(r + stride);
            for (x, y) in head[r].iter_mut().zip(tail[0].iter()) {
                *x += *y;
            }
            r += 2 * stride;
        }
        stride *= 2;
    }
    bufs[0].iter().map(|x| x / l as f64).collect()
}

/// Per-rank inputs mixing magnitudes badly enough that any deviation
/// from the documented combination order changes low-order bits:
/// exponents spread over ~60 binades plus sign flips.
fn rank_inputs(l: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..l)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let mantissa = rng.gen::<f64>() * 2.0 - 1.0;
                    let exponent = (rng.gen::<f64>() * 60.0 - 30.0) as i32;
                    mantissa * (exponent as f64).exp2()
                })
                .collect()
        })
        .collect()
}

/// Every `nodes × devices_per_node` factorisation of `l`.
fn factorisations(l: usize) -> Vec<(usize, usize)> {
    (1..=l).filter(|&d| l.is_multiple_of(d)).map(|d| (d, l / d)).collect()
}

fn as_vectors(inputs: &[Vec<f64>]) -> Vec<Vector> {
    inputs
        .iter()
        .map(|v| Vector::from_fn(v.len(), |i| v[i]))
        .collect()
}

fn assert_bits_eq(got: &Vector, want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for i in 0..want.len() {
        assert_eq!(
            got[i].to_bits(),
            want[i].to_bits(),
            "{ctx}: element {i} ({} vs {})",
            got[i],
            want[i]
        );
    }
}

#[test]
fn odd_device_counts_match_pairwise_reference_bitwise() {
    for &l in ODD_COUNTS {
        let inputs = rank_inputs(l, 129, 0xC0FFEE ^ l as u64);
        let want = reference_pairwise_mean(&inputs);
        for (nodes, dpn) in factorisations(l) {
            let topo = Topology::new(nodes, dpn);
            let (mean, comm) = allreduce_mean_tree(as_vectors(&inputs), &topo);
            assert_bits_eq(&mean, &want, &format!("L={l} topo {nodes}x{dpn}"));
            assert!(comm.is_finite() && comm >= 0.0, "L={l}: comm = {comm}");
            if l == 1 {
                assert_eq!(comm, 0.0, "single device must be free");
            } else {
                assert!(comm > 0.0, "L={l}: multi-device allreduce is not free");
            }
        }
    }
}

#[test]
fn odd_device_counts_are_deterministic() {
    for &l in ODD_COUNTS {
        let inputs = rank_inputs(l, 65, 0xBAD5EED ^ l as u64);
        let topo = Topology::new(1, l);
        let (a, ca) = allreduce_mean_tree(as_vectors(&inputs), &topo);
        let (b, cb) = allreduce_mean_tree(as_vectors(&inputs), &topo);
        assert_bits_eq(&a, b.as_slice(), &format!("L={l} rerun"));
        assert_eq!(ca.to_bits(), cb.to_bits(), "L={l}: comm time rerun");
    }
}

#[test]
fn odd_device_counts_mean_close_to_exact() {
    for &l in ODD_COUNTS {
        let len = 33;
        let mut rng = StdRng::seed_from_u64(l as u64);
        let inputs: Vec<Vec<f64>> = (0..l)
            .map(|_| (0..len).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect())
            .collect();
        let (mean, _) = allreduce_mean_tree(as_vectors(&inputs), &Topology::new(1, l));
        for i in 0..len {
            let exact: f64 = inputs.iter().map(|v| v[i]).sum::<f64>() / l as f64;
            assert!(
                (mean[i] - exact).abs() <= 1e-12,
                "L={l} element {i}: {} vs {exact}",
                mean[i]
            );
        }
    }
}

#[test]
fn crossing_nodes_never_cheapens_the_collective() {
    // Every step costs its slowest active link, and inter-node links
    // dominate intra-node ones, so concentrating a fixed L onto one
    // node is always at least as fast — strictly faster once any tree
    // edge crosses nodes.
    for &l in ODD_COUNTS {
        let inputs = rank_inputs(l, 257, 31 + l as u64);
        let single = allreduce_mean_tree(as_vectors(&inputs), &Topology::new(1, l)).1;
        for (nodes, dpn) in factorisations(l) {
            let comm = allreduce_mean_tree(as_vectors(&inputs), &Topology::new(nodes, dpn)).1;
            if nodes > 1 {
                assert!(
                    comm > single,
                    "L={l}: {nodes}x{dpn} comm {comm} ≤ 1x{l} comm {single}"
                );
            } else {
                assert_eq!(comm.to_bits(), single.to_bits());
            }
        }
    }
}

#[test]
fn topology_mapping_consistent_for_odd_factorisations() {
    for &l in ODD_COUNTS {
        for (nodes, dpn) in factorisations(l) {
            let t = Topology::new(nodes, dpn);
            assert_eq!(t.num_devices(), l);
            for rank in 0..l {
                let node = t.node_of(rank);
                assert!(node < nodes, "rank {rank} maps to node {node} ≥ {nodes}");
            }
            for a in 0..l {
                for b in 0..l {
                    let link = t.link(a, b);
                    let same = t.node_of(a) == t.node_of(b);
                    let expect = if same { t.intra } else { t.inter };
                    assert_eq!(link.latency.to_bits(), expect.latency.to_bits());
                    assert_eq!(link.bandwidth.to_bits(), expect.bandwidth.to_bits());
                }
            }
        }
    }
}

proptest! {
    /// Any (L, length, seed, factorisation) triple: tree mean is
    /// bit-identical to the sequential-pairwise reference and the
    /// step count respected ⌈log₂L⌉ both ways (comm of an L-device
    /// ring is at most 2·depth slowest-link transfers).
    #[test]
    fn tree_mean_matches_reference(
        l in 1usize..14,
        len in 0usize..40,
        seed in 0u64..u64::MAX,
        pick in 0usize..6,
    ) {
        let inputs = rank_inputs(l, len, seed);
        let want = reference_pairwise_mean(&inputs);
        let facs = factorisations(l);
        let (nodes, dpn) = facs[pick % facs.len()];
        let topo = Topology::new(nodes, dpn);
        let (mean, comm) = allreduce_mean_tree(as_vectors(&inputs), &topo);
        for i in 0..len {
            prop_assert_eq!(mean[i].to_bits(), want[i].to_bits());
        }
        let bytes = len * std::mem::size_of::<f64>();
        let bound = 2.0 * tree_depth(l) as f64 * topo.inter.transfer_time(bytes);
        prop_assert!(comm <= bound + 1e-18, "comm {} exceeds 2·depth·slowest = {}", comm, bound);
    }
}

//! Batches of binary spin configurations.
//!
//! A [`SpinBatch`] is the container every subsystem exchanges: samplers
//! produce them, Hamiltonians evaluate local energies on them, and
//! wavefunctions take them as network input.  Spins are stored as
//! `u8 ∈ {0, 1}` (one byte per spin keeps a 1024 x 10 000 batch at 10 MB);
//! the Ising convention `σ = 1 - 2x ∈ {+1, -1}` from the paper's Eq. 13
//! is applied on conversion.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// A dense `batch_size x num_spins` array of binary spins.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpinBatch {
    batch_size: usize,
    num_spins: usize,
    data: Vec<u8>,
}

impl SpinBatch {
    /// All-zero batch.
    pub fn zeros(batch_size: usize, num_spins: usize) -> Self {
        SpinBatch {
            batch_size,
            num_spins,
            data: vec![0; batch_size * num_spins],
        }
    }

    /// Builds a batch from a generating function of `(sample, spin)`.
    /// The function must return 0 or 1.
    pub fn from_fn(
        batch_size: usize,
        num_spins: usize,
        mut f: impl FnMut(usize, usize) -> u8,
    ) -> Self {
        let mut data = Vec::with_capacity(batch_size * num_spins);
        for s in 0..batch_size {
            for i in 0..num_spins {
                let bit = f(s, i);
                debug_assert!(bit <= 1, "SpinBatch entries must be 0 or 1");
                data.push(bit);
            }
        }
        SpinBatch {
            batch_size,
            num_spins,
            data,
        }
    }

    /// Builds a batch from a contiguous row-major byte slice (one byte
    /// per spin, values 0 or 1).  Bulk copy — the fast path for wire
    /// decode, where `from_fn`'s per-element closure is measurable at
    /// serving batch sizes.
    pub fn from_bytes(batch_size: usize, num_spins: usize, bytes: &[u8]) -> Self {
        assert_eq!(
            bytes.len(),
            batch_size * num_spins,
            "SpinBatch::from_bytes: length mismatch"
        );
        debug_assert!(
            bytes.iter().all(|&b| b <= 1),
            "SpinBatch entries must be 0 or 1"
        );
        SpinBatch {
            batch_size,
            num_spins,
            data: bytes.to_vec(),
        }
    }

    /// Fallible twin of [`SpinBatch::from_bytes`] for **untrusted**
    /// input — the wire-decode path.  Dimension overflow, length
    /// mismatch and out-of-`{0, 1}` bytes are `Err`s, never panics
    /// (and unlike `from_bytes`, the value check runs in release
    /// builds too), so a malformed frame can only fail its own
    /// request, not the worker that decodes it.
    pub fn try_from_bytes(
        batch_size: usize,
        num_spins: usize,
        bytes: &[u8],
    ) -> Result<Self, String> {
        let len = batch_size
            .checked_mul(num_spins)
            .ok_or_else(|| "batch dimensions overflow".to_string())?;
        if bytes.len() != len {
            return Err(format!(
                "expected {len} spin bytes ({batch_size}\u{d7}{num_spins}), got {}",
                bytes.len()
            ));
        }
        if let Some(&bad) = bytes.iter().find(|&&b| b > 1) {
            return Err(format!("spin bytes must be 0 or 1, got {bad}"));
        }
        Ok(SpinBatch {
            batch_size,
            num_spins,
            data: bytes.to_vec(),
        })
    }

    /// Builds a single-sample batch from a configuration slice.
    pub fn from_single(config: &[u8]) -> Self {
        SpinBatch::from_bytes(1, config.len(), config)
    }

    /// Concatenates batches with identical `num_spins` along the batch
    /// axis (used to gather per-device samples on the virtual cluster).
    pub fn concat(batches: &[SpinBatch]) -> Self {
        assert!(!batches.is_empty(), "SpinBatch::concat: nothing to concat");
        let num_spins = batches[0].num_spins;
        let total: usize = batches.iter().map(|b| b.batch_size).sum();
        let mut data = Vec::with_capacity(total * num_spins);
        for b in batches {
            assert_eq!(
                b.num_spins, num_spins,
                "SpinBatch::concat: spin-count mismatch"
            );
            data.extend_from_slice(&b.data);
        }
        SpinBatch {
            batch_size: total,
            num_spins,
            data,
        }
    }

    /// Reshapes in place to `batch_size x num_spins`, reusing the
    /// existing buffer when capacity suffices (no allocation at steady
    /// state).  Entries are **unspecified** afterwards; callers must
    /// overwrite every bit they read.
    pub fn resize(&mut self, batch_size: usize, num_spins: usize) {
        self.batch_size = batch_size;
        self.num_spins = num_spins;
        self.data.resize(batch_size * num_spins, 0);
    }

    /// Copies `other` into `self`, reshaping as needed (allocation-free
    /// once the buffer is warm).
    pub fn copy_from(&mut self, other: &SpinBatch) {
        self.resize(other.batch_size, other.num_spins);
        self.data.copy_from_slice(&other.data);
    }

    /// Number of samples in the batch.
    #[inline]
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of spins per sample.
    #[inline]
    pub fn num_spins(&self) -> usize {
        self.num_spins
    }

    /// Borrow of sample `s` as a slice of bits.
    #[inline]
    pub fn sample(&self, s: usize) -> &[u8] {
        let start = s * self.num_spins;
        &self.data[start..start + self.num_spins]
    }

    /// Mutable borrow of sample `s`.
    #[inline]
    pub fn sample_mut(&mut self, s: usize) -> &mut [u8] {
        let start = s * self.num_spins;
        &mut self.data[start..start + self.num_spins]
    }

    /// Iterator over sample slices (`batch_size` empty slices when
    /// `num_spins == 0`).
    pub fn samples(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.batch_size).map(move |s| self.sample(s))
    }

    /// Fills every spin with `bit` (0 or 1).
    pub fn fill(&mut self, bit: u8) {
        debug_assert!(bit <= 1);
        self.data.fill(bit);
    }

    /// Bit accessor.
    #[inline]
    pub fn get(&self, s: usize, i: usize) -> u8 {
        self.data[s * self.num_spins + i]
    }

    /// Bit mutator (`bit` must be 0 or 1).
    #[inline]
    pub fn set(&mut self, s: usize, i: usize, bit: u8) {
        debug_assert!(bit <= 1);
        self.data[s * self.num_spins + i] = bit;
    }

    /// Flips spin `i` of sample `s`.
    #[inline]
    pub fn flip(&mut self, s: usize, i: usize) {
        let idx = s * self.num_spins + i;
        self.data[idx] ^= 1;
    }

    /// Converts the batch to an `f64` matrix with entries in `{0, 1}`
    /// (network-input convention).
    pub fn to_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.batch_size, self.num_spins);
        self.to_matrix_into(&mut out);
        out
    }

    /// [`SpinBatch::to_matrix`] into a caller-owned matrix (reshaped in
    /// place).
    pub fn to_matrix_into(&self, out: &mut Matrix) {
        out.resize(self.batch_size, self.num_spins);
        for (v, &b) in out.as_mut_slice().iter_mut().zip(&self.data) {
            *v = b as f64;
        }
    }

    /// Converts to the Ising convention `σ = 1 - 2x ∈ {+1, -1}` (Eq. 13).
    pub fn to_ising_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.batch_size, self.num_spins);
        self.to_ising_matrix_into(&mut out);
        out
    }

    /// [`SpinBatch::to_ising_matrix`] into a caller-owned matrix
    /// (reshaped in place).
    pub fn to_ising_matrix_into(&self, out: &mut Matrix) {
        out.resize(self.batch_size, self.num_spins);
        for (v, &b) in out.as_mut_slice().iter_mut().zip(&self.data) {
            *v = 1.0 - 2.0 * b as f64;
        }
    }

    /// Copies the sample rows `src` into `dst` (reshaped to
    /// `src.len() × num_spins`) as one contiguous memcpy — the bulk form
    /// of per-row `sample_mut(..).copy_from_slice(..)` scatter loops,
    /// used when a coalesced batch is split back into per-request
    /// replies.
    pub fn copy_rows_into(&self, src: std::ops::Range<usize>, dst: &mut SpinBatch) {
        assert!(
            src.start <= src.end && src.end <= self.batch_size,
            "copy_rows_into: row range {src:?} out of bounds (batch {})",
            self.batch_size
        );
        let rows = src.len();
        dst.resize(rows, self.num_spins);
        let start = src.start * self.num_spins;
        dst.data
            .copy_from_slice(&self.data[start..start + rows * self.num_spins]);
    }

    /// Wraps a row-major byte buffer without copying (the
    /// [`crate::Workspace`] batch pool).
    pub(crate) fn from_raw(batch_size: usize, num_spins: usize, data: Vec<u8>) -> Self {
        debug_assert_eq!(data.len(), batch_size * num_spins);
        SpinBatch {
            batch_size,
            num_spins,
            data,
        }
    }

    /// The backing byte buffer (capacity intact).
    pub(crate) fn into_raw(self) -> Vec<u8> {
        self.data
    }

    /// Raw byte view (for hashing / dedup in tests).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Raw mutable byte view, row-major (`batch_size · num_spins`).
    /// Exists for bulk writers — the batched sampler's transpose and the
    /// local-energy neighbour builder stripe disjoint row ranges of this
    /// across the worker pool.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Encodes a spin configuration as a basis-state index, most significant
/// bit first: `x = 2^{n-1} x_1 + ... + 2^0 x_n` as in the paper's §2.4.
///
/// Panics if `config.len() > 63`.
pub fn encode_config(config: &[u8]) -> usize {
    assert!(
        config.len() <= 63,
        "encode_config: index would overflow usize"
    );
    config
        .iter()
        .fold(0usize, |acc, &b| (acc << 1) | (b as usize))
}

/// Inverse of [`encode_config`]: expands index `x` into `n` bits, most
/// significant first.
pub fn decode_config(x: usize, n: usize) -> Vec<u8> {
    assert!(n <= 63, "decode_config: more than 63 spins");
    assert!(x < (1usize << n), "decode_config: index out of range");
    (0..n).map(|i| ((x >> (n - 1 - i)) & 1) as u8).collect()
}

/// Enumerates all `2^n` configurations as a batch (ascending index
/// order).  Only sensible for small `n`; used by exactness tests and the
/// exact-diagonalisation oracle.
pub fn enumerate_configs(n: usize) -> SpinBatch {
    assert!(n <= 24, "enumerate_configs: 2^n would be enormous");
    let total = 1usize << n;
    SpinBatch::from_fn(total, n, |s, i| ((s >> (n - 1 - i)) & 1) as u8)
}

impl Default for SpinBatch {
    /// An empty `0 x 0` batch — the natural initial state for scratch
    /// buffers that are `resize`d by the first `_into` call.
    fn default() -> Self {
        SpinBatch::zeros(0, 0)
    }
}

impl std::fmt::Debug for SpinBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SpinBatch(bs={}, n={})",
            self.batch_size, self.num_spins
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_width_samples() {
        let b = SpinBatch::zeros(4, 0);
        let rows: Vec<&[u8]> = b.samples().collect();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.is_empty()));
        assert_eq!(SpinBatch::zeros(0, 3).samples().count(), 0);
    }

    #[test]
    fn construction_and_access() {
        let mut b = SpinBatch::zeros(2, 3);
        assert_eq!(b.batch_size(), 2);
        assert_eq!(b.num_spins(), 3);
        b.set(1, 2, 1);
        assert_eq!(b.get(1, 2), 1);
        b.flip(1, 2);
        assert_eq!(b.get(1, 2), 0);
        b.flip(0, 0);
        assert_eq!(b.sample(0), &[1, 0, 0]);
    }

    #[test]
    fn codec_round_trip() {
        for n in 1..=10 {
            for x in 0..(1usize << n) {
                assert_eq!(encode_config(&decode_config(x, n)), x);
            }
        }
    }

    #[test]
    fn codec_msb_first_convention() {
        // x = [1, 0] should be index 2 = 2^1*1 + 2^0*0.
        assert_eq!(encode_config(&[1, 0]), 2);
        assert_eq!(decode_config(2, 2), vec![1, 0]);
    }

    #[test]
    fn enumerate_covers_all_states_once() {
        let n = 4;
        let all = enumerate_configs(n);
        assert_eq!(all.batch_size(), 16);
        for (s, config) in all.samples().enumerate() {
            assert_eq!(encode_config(config), s);
        }
    }

    #[test]
    fn ising_conversion() {
        let b = SpinBatch::from_single(&[0, 1]);
        let m = b.to_ising_matrix();
        assert_eq!(m.row(0), &[1.0, -1.0]);
        let m01 = b.to_matrix();
        assert_eq!(m01.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn concat_stacks_samples() {
        let a = SpinBatch::from_single(&[0, 1]);
        let b = SpinBatch::from_single(&[1, 1]);
        let c = SpinBatch::concat(&[a, b]);
        assert_eq!(c.batch_size(), 2);
        assert_eq!(c.sample(0), &[0, 1]);
        assert_eq!(c.sample(1), &[1, 1]);
    }

    #[test]
    fn copy_rows_into_extracts_contiguous_rows() {
        let b = SpinBatch::from_fn(5, 3, |s, i| (((s + 1) * (i + 2)) % 2) as u8);
        let mut dst = SpinBatch::default();
        b.copy_rows_into(1..4, &mut dst);
        assert_eq!(dst.batch_size(), 3);
        assert_eq!(dst.num_spins(), 3);
        for s in 0..3 {
            assert_eq!(dst.sample(s), b.sample(1 + s));
        }
        // Empty range is legal and yields an empty batch.
        b.copy_rows_into(2..2, &mut dst);
        assert_eq!(dst.batch_size(), 0);
    }

    #[test]
    fn try_from_bytes_validates_untrusted_input() {
        // Well-formed input round-trips.
        let ok = SpinBatch::try_from_bytes(2, 3, &[0, 1, 1, 0, 0, 1]).unwrap();
        assert_eq!(ok, SpinBatch::from_bytes(2, 3, &[0, 1, 1, 0, 0, 1]));
        // Length mismatch.
        assert!(SpinBatch::try_from_bytes(2, 3, &[0, 1]).is_err());
        // Out-of-range spin byte (checked in release builds too).
        assert!(SpinBatch::try_from_bytes(1, 3, &[0, 2, 1]).is_err());
        // Dimension overflow.
        assert!(SpinBatch::try_from_bytes(usize::MAX, 2, &[]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn copy_rows_into_rejects_out_of_range() {
        let b = SpinBatch::zeros(2, 3);
        let mut dst = SpinBatch::default();
        b.copy_rows_into(1..3, &mut dst);
    }

    #[test]
    #[should_panic(expected = "spin-count mismatch")]
    fn concat_rejects_ragged() {
        let a = SpinBatch::zeros(1, 2);
        let b = SpinBatch::zeros(1, 3);
        let _ = SpinBatch::concat(&[a, b]);
    }
}

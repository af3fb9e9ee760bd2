//! A scratch-buffer pool for allocation-free steady-state loops.
//!
//! The training loop runs the same sequence of kernels every iteration,
//! so the sequence of scratch-buffer checkouts is identical from one
//! iteration to the next.  [`Workspace`] exploits that: `take` pops the
//! most recently returned buffer (LIFO) and resizes it, `give` returns
//! it.  Because the checkout order is deterministic, each call site gets
//! the *same* buffer every iteration — after the first (warm-up)
//! iteration every buffer has the right capacity and no heap allocation
//! happens again.
//!
//! Buffers move in and out as owned `Vec<f64>`s so they compose with
//! [`Matrix::from_vec`] / [`Matrix::into_vec`] (both allocation-free)
//! without any lifetime plumbing.

use crate::{Matrix, SpinBatch, Vector};

/// A LIFO pool of reusable `f64` buffers, plus a second LIFO pool of
/// byte buffers for scratch [`SpinBatch`]es.
#[derive(Default, Debug)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
    bytes: Vec<Vec<u8>>,
}

impl Workspace {
    /// An empty pool; buffers are created on first checkout.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Checks out a zeroed buffer of length `len`.  Allocation-free once
    /// this call site's buffer is warm (see module docs).
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Checks out a zeroed `rows x cols` matrix.
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take(rows * cols))
    }

    /// Checks out a zeroed vector of length `len`.
    pub fn take_vector(&mut self, len: usize) -> Vector {
        Vector(self.take(len))
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&mut self, buf: Vec<f64>) {
        self.pool.push(buf);
    }

    /// Returns a matrix's buffer to the pool.
    pub fn give_matrix(&mut self, m: Matrix) {
        self.give(m.into_vec());
    }

    /// Returns a vector's buffer to the pool.
    pub fn give_vector(&mut self, v: Vector) {
        self.give(v.into_vec());
    }

    /// Checks out a zeroed `batch_size x num_spins` spin batch from the
    /// byte pool (same LIFO discipline as [`Workspace::take`]).
    pub fn take_batch(&mut self, batch_size: usize, num_spins: usize) -> SpinBatch {
        let mut buf = self.bytes.pop().unwrap_or_default();
        buf.clear();
        buf.resize(batch_size * num_spins, 0);
        SpinBatch::from_raw(batch_size, num_spins, buf)
    }

    /// Returns a spin batch's buffer to the byte pool.
    pub fn give_batch(&mut self, batch: SpinBatch) {
        self.bytes.push(batch.into_raw());
    }

    /// Number of `f64` buffers currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_pool_reuses_capacity_and_zeroes() {
        let mut ws = Workspace::new();
        let mut b = ws.take_batch(3, 5);
        b.set(2, 4, 1);
        let ptr = b.as_bytes().as_ptr();
        ws.give_batch(b);
        let b = ws.take_batch(2, 5);
        assert_eq!((b.batch_size(), b.num_spins()), (2, 5));
        assert!(b.as_bytes().iter().all(|&v| v == 0));
        // Same backing buffer, so no allocation at steady state.
        assert_eq!(b.as_bytes().as_ptr(), ptr);
        assert_eq!(ws.parked(), 0);
    }

    #[test]
    fn take_returns_zeroed_buffers() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(4);
        buf.iter().for_each(|&v| assert_eq!(v, 0.0));
        buf[2] = 7.0;
        ws.give(buf);
        // Dirty buffer comes back zeroed.
        let buf = ws.take(4);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn steady_state_reuses_capacity() {
        let mut ws = Workspace::new();
        // Warm-up checkout establishes capacity...
        let buf = ws.take(100);
        let ptr = buf.as_ptr();
        ws.give(buf);
        // ...and the same-size checkout reuses the same storage.
        let buf = ws.take(100);
        assert_eq!(buf.as_ptr(), ptr);
        ws.give(buf);
        // Smaller checkouts also reuse it.
        let buf = ws.take(10);
        assert_eq!(buf.as_ptr(), ptr);
    }

    #[test]
    fn matrix_and_vector_checkout_roundtrip() {
        let mut ws = Workspace::new();
        let m = ws.take_matrix(3, 4);
        assert_eq!(m.shape(), (3, 4));
        ws.give_matrix(m);
        assert_eq!(ws.parked(), 1);
        let v = ws.take_vector(12);
        assert_eq!(v.len(), 12);
        ws.give_vector(v);
        assert_eq!(ws.parked(), 1);
    }

    #[test]
    fn lifo_discipline_matches_callsites() {
        let mut ws = Workspace::new();
        let a = ws.take(8);
        let b = ws.take(16);
        ws.give(b);
        ws.give(a);
        // Next take pops the last returned (a's storage).
        let again = ws.take(8);
        assert_eq!(again.capacity(), 8);
    }
}

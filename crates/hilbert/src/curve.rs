//! d-dimensional Hilbert curve encoding.
//!
//! Implements John Skilling's transpose algorithm (*Programming the Hilbert
//! curve*, AIP 2004): axes are converted in place to the "transposed" Gray
//! code representation of the Hilbert index, which is then bit-interleaved
//! into a single integer. Works for any dimensionality `d ≥ 1` and
//! per-axis precision `b` with `d · b ≤ 128`.

/// A Hilbert curve over a `d`-dimensional grid of side `2^bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: usize,
    bits: u32,
}

impl HilbertCurve {
    /// Creates a curve. Panics unless `1 ≤ dims`, `1 ≤ bits` and
    /// `dims · bits ≤ 128`.
    pub fn new(dims: usize, bits: u32) -> Self {
        assert!(dims >= 1, "need at least one dimension");
        assert!(bits >= 1, "need at least one bit per axis");
        assert!(
            dims as u32 * bits <= 128,
            "index does not fit in 128 bits (dims = {dims}, bits = {bits})"
        );
        HilbertCurve { dims, bits }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bits per axis.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total number of cells on the curve (`2^(dims·bits)`), saturating.
    pub fn cells(&self) -> u128 {
        1u128
            .checked_shl(self.dims as u32 * self.bits)
            .unwrap_or(u128::MAX)
    }

    /// Maps grid coordinates to their Hilbert index. Each coordinate must
    /// be below `2^bits`.
    pub fn index_of(&self, axes: &[u32]) -> u128 {
        self.index_into(&mut axes.to_vec())
    }

    /// [`Self::index_of`] without an allocation: transforms `axes` in
    /// place (leaving it in Skilling's transposed form) and returns the
    /// index.
    pub fn index_into(&self, axes: &mut [u32]) -> u128 {
        assert_eq!(axes.len(), self.dims, "coordinate arity mismatch");
        for &a in axes.iter() {
            debug_assert!(a < (1u64 << self.bits) as u32, "coordinate out of range");
        }
        if self.dims == 1 {
            // Degenerate curve: the identity ordering.
            return axes[0] as u128;
        }
        self.axes_to_transpose(axes);
        self.interleave(axes)
    }

    /// Maps a Hilbert index back to grid coordinates — the inverse of
    /// [`Self::index_of`].
    pub fn point_of(&self, index: u128) -> Vec<u32> {
        debug_assert!(index < self.cells(), "index out of range");
        if self.dims == 1 {
            return vec![index as u32];
        }
        let mut x = self.deinterleave(index);
        self.transpose_to_axes(&mut x);
        x
    }

    /// Skilling's TransposeToAxes: inverse of the encode transform.
    fn transpose_to_axes(&self, x: &mut [u32]) {
        let n = self.dims;
        let m = 2u32 << (self.bits - 1);

        // Gray decode.
        let mut t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;

        // Undo excess work.
        let mut q = 2u32;
        while q != m {
            let p = q - 1;
            for i in (0..n).rev() {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Splits an interleaved index back into the transposed bit planes.
    fn deinterleave(&self, h: u128) -> Vec<u32> {
        let mut x = vec![0u32; self.dims];
        let total_bits = self.dims as u32 * self.bits;
        for bit in 0..total_bits {
            // Bits were emitted MSB-plane first, axis 0 first.
            let shift = total_bits - 1 - bit;
            let plane = self.bits - 1 - bit / self.dims as u32;
            let axis = (bit as usize) % self.dims;
            if (h >> shift) & 1 == 1 {
                x[axis] |= 1 << plane;
            }
        }
        x
    }

    /// Skilling's AxesToTranspose: converts coordinates in place into the
    /// transposed Hilbert index.
    fn axes_to_transpose(&self, x: &mut [u32]) {
        let n = self.dims;
        let m = 1u32 << (self.bits - 1);

        // Inverse undo.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p; // invert
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }

        // Gray encode.
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u32;
        let mut q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Interleaves the transposed form into a single index, most significant
    /// bit plane first.
    fn interleave(&self, x: &[u32]) -> u128 {
        let mut h: u128 = 0;
        for j in (0..self.bits).rev() {
            for &xi in x {
                h = (h << 1) | ((xi >> j) & 1) as u128;
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Walks every cell of a small grid and checks the defining properties:
    /// the mapping is a bijection onto `0..2^(d·b)` and consecutive indices
    /// are grid neighbours (Manhattan distance 1).
    fn check_curve(dims: usize, bits: u32) {
        let curve = HilbertCurve::new(dims, bits);
        let side = 1u32 << bits;
        let cells = curve.cells() as usize;
        let mut by_index: Vec<Option<Vec<u32>>> = vec![None; cells];
        let mut coords = vec![0u32; dims];
        for cell in 0..cells {
            let mut c = cell;
            for coord in coords.iter_mut() {
                *coord = (c % side as usize) as u32;
                c /= side as usize;
            }
            let h = curve.index_of(&coords) as usize;
            assert!(h < cells, "index out of range");
            assert!(by_index[h].is_none(), "index collision at {h}");
            by_index[h] = Some(coords.clone());
        }
        for w in by_index.windows(2) {
            let (a, b) = (w[0].as_ref().unwrap(), w[1].as_ref().unwrap());
            let dist: u32 = a.iter().zip(b).map(|(x, y)| x.abs_diff(*y)).sum();
            assert_eq!(dist, 1, "curve jump between {a:?} and {b:?}");
        }
    }

    #[test]
    fn two_d_one_bit_matches_textbook_order() {
        let c = HilbertCurve::new(2, 1);
        let order: Vec<u128> = [[0u32, 0], [0, 1], [1, 1], [1, 0]]
            .iter()
            .map(|p| c.index_of(p))
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn contiguity_2d() {
        check_curve(2, 1);
        check_curve(2, 2);
        check_curve(2, 4);
    }

    #[test]
    fn contiguity_3d_and_4d() {
        check_curve(3, 2);
        check_curve(4, 2);
    }

    #[test]
    fn contiguity_high_dimension() {
        check_curve(5, 1);
        check_curve(6, 1);
    }

    #[test]
    fn decode_inverts_encode_exhaustively() {
        for (dims, bits) in [(2usize, 3u32), (3, 2), (4, 2), (7, 1)] {
            let c = HilbertCurve::new(dims, bits);
            for h in 0..c.cells() {
                let p = c.point_of(h);
                assert_eq!(c.index_of(&p), h, "dims={dims} bits={bits} h={h}");
            }
        }
    }

    #[test]
    fn decode_matches_textbook_order_2d() {
        let c = HilbertCurve::new(2, 1);
        assert_eq!(c.point_of(0), vec![0, 0]);
        assert_eq!(c.point_of(1), vec![0, 1]);
        assert_eq!(c.point_of(2), vec![1, 1]);
        assert_eq!(c.point_of(3), vec![1, 0]);
    }

    #[test]
    fn one_dimensional_curve_is_identity() {
        let c = HilbertCurve::new(1, 6);
        for v in [0u32, 1, 17, 63] {
            assert_eq!(c.index_of(&[v]), v as u128);
            assert_eq!(c.point_of(v as u128), vec![v]);
        }
    }

    #[test]
    fn distinct_points_get_distinct_indices() {
        let c = HilbertCurve::new(3, 3);
        let mut seen = HashSet::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    assert!(seen.insert(c.index_of(&[x, y, z])));
                }
            }
        }
        assert_eq!(seen.len(), 512);
    }

    #[test]
    #[should_panic(expected = "128 bits")]
    fn oversized_curve_rejected() {
        HilbertCurve::new(8, 17);
    }
}

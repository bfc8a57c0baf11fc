//! d-dimensional Hilbert curve encoding.
//!
//! Implements John Skilling's transpose algorithm (*Programming the Hilbert
//! curve*, AIP 2004) for any dimensionality `d ≥ 1` and per-axis precision
//! `1 ≤ b ≤ 16` with `d · b ≤ 128`: coordinates are converted into the
//! "transposed" Gray code form of the Hilbert index, whose bits are then
//! interleaved into one integer.
//!
//! # One encoder, eight points at a time
//!
//! [`HilbertCurve::index_lanes`] is the only forward transform. It indexes
//! [`HilbertCurve::LANES`] points per call, one lane per point: each axis is
//! a `[u32; LANES]`, so every step is one operation on eight independent
//! words, which the compiler vectorizes for the baseline x86-64 target
//! without `unsafe` or a target feature. Skilling's branches on coordinate
//! bits become masks:
//!
//! - the inverse undo, for bit `q` (with `p = q − 1`) and axis `i`:
//!   `set = 0 − ((x_i & q) ≠ 0)`, `t = (x_0 ^ x_i) & p & !set`,
//!   `x_0 ^= (p & set) | t`, `x_i ^= t`;
//! - after the Gray encode, the correction every axis takes is the suffix
//!   parity of `x_{d−1} >> 1`: an xor-fold by 1, 2, 4 and 8, because an
//!   axis holds at most 16 bits;
//! - the interleave looks each byte of a coordinate up in a per-curve table
//!   that spreads its bits to stride `d`: one lookup per byte instead of
//!   `d · b` one-bit shifts.
//!
//! Most of the gain comes from the lanes: one point at a time, the same
//! branch-free steps take about four times as long per point as eight
//! lanes do. [`HilbertCurve::index_of`] and [`HilbertCurve::index_into`]
//! run the kernel with one live lane.
//!
//! # The decoder is the reference
//!
//! [`HilbertCurve::point_of`] is Skilling's TransposeToAxes, kept one bit
//! at a time as the paper writes it. It exactly inverts the original
//! one-point encoder, so `point_of(index(x)) == x` for every point `x`
//! shows that the kernel computes that encoder's index, bit for bit; the
//! tests check it for every `(d, b)` a table can produce.

use std::fmt;

/// A Hilbert curve over a `d`-dimensional grid of side `2^bits`.
#[derive(Clone, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: usize,
    bits: u32,
    /// `spread[v]` holds bit `t` of the byte `v` at bit `t · dims`, for
    /// every `t < min(8, bits)`: one coordinate byte interleaved.
    spread: Box<[u128; 256]>,
}

impl fmt::Debug for HilbertCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HilbertCurve")
            .field("dims", &self.dims)
            .field("bits", &self.bits)
            .finish_non_exhaustive()
    }
}

/// All ones if `bits` is non-zero, else zero.
#[inline]
fn mask(bits: u32) -> u32 {
    0u32.wrapping_sub(u32::from(bits != 0))
}

impl HilbertCurve {
    /// Points indexed by one call of [`Self::index_lanes`].
    pub const LANES: usize = 8;

    /// Creates a curve. Panics unless `1 ≤ dims`, `1 ≤ bits ≤ 16` and
    /// `dims · bits ≤ 128`.
    pub fn new(dims: usize, bits: u32) -> Self {
        assert!(dims >= 1, "need at least one dimension");
        assert!(bits >= 1, "need at least one bit per axis");
        assert!(
            dims as u32 * bits <= 128,
            "index does not fit in 128 bits (dims = {dims}, bits = {bits})"
        );
        assert!(bits <= 16, "an axis holds at most 16 bits (bits = {bits})");
        let mut spread = Box::new([0u128; 256]);
        for (v, s) in spread.iter_mut().enumerate() {
            for t in 0..bits.min(8) as usize {
                *s |= ((v >> t) as u128 & 1) << (t * dims);
            }
        }
        HilbertCurve { dims, bits, spread }
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
        let mut buffer = [[0u32; Self::LANES]; 128];
        let lanes = &mut buffer[..self.dims];
        for (lane, &a) in lanes.iter_mut().zip(axes.iter()) {
            lane[0] = a;
        }
        let index = self.index_lanes(lanes)[0];
        for (a, lane) in axes.iter_mut().zip(lanes.iter()) {
            *a = lane[0];
        }
        index
    }

    /// The Hilbert indices of [`Self::LANES`] points at once: `axes[i][k]`
    /// is coordinate `i` of point `k`, and lane `k` of the result is that
    /// point's index. Each coordinate must be below `2^bits`. Leaves
    /// `axes` in Skilling's transposed form.
    pub fn index_lanes(&self, axes: &mut [[u32; Self::LANES]]) -> [u128; Self::LANES] {
        assert_eq!(axes.len(), self.dims, "coordinate arity mismatch");
        debug_assert!(
            axes.iter().flatten().all(|&a| a >> self.bits == 0),
            "coordinate out of range"
        );
        // A one-dimensional curve is the identity ordering: the
        // interleave passes the coordinate through.
        if self.dims > 1 {
            self.axes_to_transpose(axes);
        }
        self.interleave(axes)
    }

    /// Maps a Hilbert index back to grid coordinates — the inverse of
    /// [`Self::index_of`].
    pub fn point_of(&self, index: u128) -> Vec<u32> {
        debug_assert!(
            matches!(
                index.checked_shr(self.dims as u32 * self.bits),
                None | Some(0)
            ),
            "index out of range"
        );
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

    /// Skilling's AxesToTranspose on every lane: converts coordinates in
    /// place into the transposed Hilbert index, with masks in place of
    /// branches on coordinate bits.
    fn axes_to_transpose(&self, x: &mut [[u32; Self::LANES]]) {
        let n = self.dims;

        // Inverse undo: where bit q of x_i is set, invert the low bits of
        // x_0; elsewhere exchange the low bits of x_0 and x_i. The axes
        // are copied into locals so that the compiler keeps x_0 in
        // registers and vectorizes across the lanes.
        let (x0, rest) = x.split_first_mut().expect("at least one axis");
        let mut a = *x0;
        let mut q = 1u32 << (self.bits - 1);
        while q > 1 {
            let p = q - 1;
            for v in a.iter_mut() {
                *v ^= p & mask(*v & q);
            }
            for xi in rest.iter_mut() {
                let mut b = *xi;
                for (a, b) in a.iter_mut().zip(b.iter_mut()) {
                    let set = mask(*b & q);
                    let t = (*a ^ *b) & p & !set;
                    *a ^= (p & set) | t;
                    *b ^= t;
                }
                *xi = b;
            }
            q >>= 1;
        }
        *x0 = a;

        // Gray encode.
        for i in 1..n {
            let prev = x[i - 1];
            for (v, p) in x[i].iter_mut().zip(prev) {
                *v ^= p;
            }
        }
        // Bit j of the correction is the parity of bits j + 1 and up of
        // x_{n−1}, which holds at most 16 bits.
        let mut t = x[n - 1].map(|v| v >> 1);
        for step in [1, 2, 4, 8] {
            for v in t.iter_mut() {
                *v ^= *v >> step;
            }
        }
        for xi in x.iter_mut() {
            for (v, c) in xi.iter_mut().zip(t) {
                *v ^= c;
            }
        }
    }

    /// Interleaves the transposed form into one index per lane, most
    /// significant bit plane first and axis 0 first within a plane: bit
    /// `j` of axis `i` lands on bit `j · d + (d − 1 − i)`.
    fn interleave(&self, x: &[[u32; Self::LANES]]) -> [u128; Self::LANES] {
        let mut h = [0u128; Self::LANES];
        // The high byte exists only past 8 bits, where `8 · d < 128`.
        let high = (self.bits > 8).then_some(8 * self.dims as u32);
        for xi in x {
            for (h, &v) in h.iter_mut().zip(xi) {
                let mut s = self.spread[(v & 0xff) as usize];
                if let Some(shift) = high {
                    s |= self.spread[((v >> 8) & 0xff) as usize] << shift;
                }
                *h = *h << 1 | s;
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

    #[test]
    #[should_panic(expected = "16 bits")]
    fn axes_wider_than_a_code_rejected() {
        HilbertCurve::new(2, 17);
    }

    /// The kernel is the encoder that the decoder inverts: for every curve
    /// a table can produce, `point_of` recovers each lane's point from its
    /// index, on random batches and on the all-zero and all-max points.
    #[test]
    fn decode_inverts_the_kernel_on_every_curve() {
        const LANES: usize = HilbertCurve::LANES;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        for dims in 1..=128usize {
            for bits in 1..=(128 / dims as u32).min(16) {
                let curve = HilbertCurve::new(dims, bits);
                let max = u32::MAX >> (32 - bits);
                let mut batches = vec![vec![[0; LANES]; dims], vec![[max; LANES]; dims]];
                for _ in 0..4 {
                    let random = (0..dims)
                        .map(|_| std::array::from_fn(|_| next() & max))
                        .collect();
                    batches.push(random);
                }
                for points in batches {
                    let indices = curve.index_lanes(&mut points.clone());
                    for (k, &h) in indices.iter().enumerate() {
                        let point: Vec<u32> = points.iter().map(|axis| axis[k]).collect();
                        assert_eq!(curve.point_of(h), point, "dims={dims} bits={bits}");
                    }
                }
            }
        }
    }

    /// `index_into` leaves its argument in the transposed form: the
    /// index's bit planes, split back out.
    #[test]
    fn index_into_leaves_the_transposed_form() {
        for (dims, bits) in [(1usize, 5u32), (3, 4), (7, 12)] {
            let c = HilbertCurve::new(dims, bits);
            let mut axes: Vec<u32> = (0..dims as u32)
                .map(|i| (i * 37 + 5) % (1 << bits))
                .collect();
            let h = c.index_into(&mut axes);
            assert_eq!(axes, c.deinterleave(h), "dims={dims} bits={bits}");
        }
    }

    /// At `d · b = 128` the index fills a `u128` and `cells()` saturates:
    /// the last cell, `u128::MAX`, is a valid index all the same.
    #[test]
    fn first_and_last_cells_of_full_width_curves_round_trip() {
        for (dims, bits) in [(8usize, 16u32), (16, 8), (128, 1)] {
            let c = HilbertCurve::new(dims, bits);
            for h in [0, u128::MAX] {
                assert_eq!(c.index_of(&c.point_of(h)), h, "dims={dims} bits={bits}");
            }
        }
    }
}

/// A separable Gaussian convolution kernel used as the optical point-spread
/// function of the imaging model.
///
/// The kernel is truncated at 3 σ and normalised to unit sum, so convolving a
/// constant image leaves it unchanged (energy conservation away from the
/// boundary).
///
/// ```
/// use hotspot_litho::GaussianKernel;
/// let k = GaussianKernel::new(2.0);
/// let sum: f64 = k.taps().iter().map(|&t| t as f64).sum();
/// assert!((sum - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianKernel {
    sigma_px: f64,
    taps: Vec<f32>,
}

impl GaussianKernel {
    /// Builds a 1-D Gaussian tap vector for the given sigma in pixels.
    ///
    /// # Panics
    ///
    /// Panics when `sigma_px` is not finite and positive.
    pub fn new(sigma_px: f64) -> Self {
        assert!(
            sigma_px.is_finite() && sigma_px > 0.0,
            "kernel sigma must be positive, got {sigma_px}"
        );
        let radius = (sigma_px * 3.0).ceil() as i64;
        let mut taps = Vec::with_capacity((2 * radius + 1) as usize);
        let inv = 1.0 / (2.0 * sigma_px * sigma_px);
        for i in -radius..=radius {
            taps.push((-(i * i) as f64 * inv).exp());
        }
        let sum: f64 = taps.iter().sum();
        let taps = taps.into_iter().map(|t| (t / sum) as f32).collect();
        GaussianKernel { sigma_px, taps }
    }

    /// The sigma this kernel was built with, in pixels.
    pub fn sigma_px(&self) -> f64 {
        self.sigma_px
    }

    /// Half-width of the tap vector in pixels.
    pub fn radius(&self) -> usize {
        self.taps.len() / 2
    }

    /// The normalised 1-D taps (odd length, symmetric).
    pub fn taps(&self) -> &[f32] {
        &self.taps
    }

    /// Convolves `src` (row-major, `width × height`) with the kernel along
    /// rows then columns, writing into `dst`. Borders are handled by edge
    /// clamping, which models the clip context continuing outside the window.
    ///
    /// Both passes work on whole rows: each output row starts at `0.0` and
    /// adds `tap × source` one tap at a time, so every pixel sums the same
    /// products in the same order as a per-pixel loop would (the result is
    /// bit-identical), while the inner loop runs over contiguous columns with
    /// no clamping.
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` lengths disagree with `width * height`.
    pub fn convolve_2d(&self, src: &[f32], dst: &mut [f32], width: usize, height: usize) {
        assert_eq!(src.len(), width * height, "src size mismatch");
        assert_eq!(dst.len(), width * height, "dst size mismatch");
        record_aerial_kernel(self.taps.len(), width, height);
        if width == 0 || height == 0 {
            return;
        }
        let r = self.radius();
        let mut tmp = vec![0.0f32; src.len()];
        // Horizontal pass over an edge-clamped copy of each source row:
        // `padded[col + ti]` is the source pixel tap `ti` reads for `col`.
        let mut padded = vec![0.0f32; width + 2 * r];
        for (src_row, tmp_row) in src.chunks_exact(width).zip(tmp.chunks_exact_mut(width)) {
            for (j, p) in padded.iter_mut().enumerate() {
                *p = src_row[j.saturating_sub(r).min(width - 1)];
            }
            for (ti, &t) in self.taps.iter().enumerate() {
                for (acc, &v) in tmp_row.iter_mut().zip(&padded[ti..ti + width]) {
                    *acc += t * v;
                }
            }
        }
        // Vertical pass: tap `ti` of output row `row` reads the whole clamped
        // row `row + ti - r` of the horizontal result.
        for (row, dst_row) in dst.chunks_exact_mut(width).enumerate() {
            dst_row.fill(0.0);
            for (ti, &t) in self.taps.iter().enumerate() {
                let rr = (row + ti).saturating_sub(r).min(height - 1);
                for (acc, &v) in dst_row.iter_mut().zip(&tmp[rr * width..(rr + 1) * width]) {
                    *acc += t * v;
                }
            }
        }
    }
}

/// Books one separable aerial-image convolution into the `kernel.aerial.*`
/// performance counters (ROADMAP item 1 hot loop): two tap passes of one
/// multiply–add per pixel each, plus src + tmp + dst + taps traffic. One
/// counter update per image.
fn record_aerial_kernel(taps: usize, width: usize, height: usize) {
    use hotspot_telemetry::{counter, names};
    let pixels = (width * height) as u64;
    counter(names::KERNEL_AERIAL_CALLS).incr();
    counter(names::KERNEL_AERIAL_ELEMENTS).add(pixels);
    counter(names::KERNEL_AERIAL_FLOPS).add(4 * pixels * taps as u64);
    counter(names::KERNEL_AERIAL_BYTES).add(4 * (3 * pixels + taps as u64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-pixel loop `convolve_2d` replaced, kept as the reference its
    /// output must match bit for bit.
    fn reference_convolve_2d(
        kernel: &GaussianKernel,
        src: &[f32],
        dst: &mut [f32],
        width: usize,
        height: usize,
    ) {
        let r = kernel.radius() as isize;
        let mut tmp = vec![0.0f32; src.len()];
        for row in 0..height {
            let base = row * width;
            for col in 0..width {
                let mut acc = 0.0f32;
                for (ti, &t) in kernel.taps().iter().enumerate() {
                    let offset = ti as isize - r;
                    let c = (col as isize + offset).clamp(0, width as isize - 1) as usize;
                    acc += t * src[base + c];
                }
                tmp[base + col] = acc;
            }
        }
        for col in 0..width {
            for row in 0..height {
                let mut acc = 0.0f32;
                for (ti, &t) in kernel.taps().iter().enumerate() {
                    let offset = ti as isize - r;
                    let rr = (row as isize + offset).clamp(0, height as isize - 1) as usize;
                    acc += t * tmp[rr * width + col];
                }
                dst[row * width + col] = acc;
            }
        }
    }

    #[test]
    fn empty_image_is_a_no_op() {
        let k = GaussianKernel::new(1.0);
        let mut dst: Vec<f32> = Vec::new();
        k.convolve_2d(&[], &mut dst, 0, 5);
        k.convolve_2d(&[], &mut dst, 5, 0);
        assert!(dst.is_empty());
    }

    #[test]
    fn taps_are_normalized_and_symmetric() {
        let k = GaussianKernel::new(1.5);
        let taps = k.taps();
        let sum: f64 = taps.iter().map(|&t| t as f64).sum();
        assert!((sum - 1.0).abs() < 1e-6);
        for i in 0..taps.len() / 2 {
            assert!((taps[i] - taps[taps.len() - 1 - i]).abs() < 1e-7);
        }
        assert_eq!(taps.len() % 2, 1);
    }

    #[test]
    fn radius_is_three_sigma() {
        assert_eq!(GaussianKernel::new(2.0).radius(), 6);
        assert_eq!(GaussianKernel::new(0.5).radius(), 2);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn zero_sigma_panics() {
        let _ = GaussianKernel::new(0.0);
    }

    #[test]
    fn constant_image_is_fixed_point() {
        let k = GaussianKernel::new(2.0);
        let src = vec![0.7f32; 16 * 16];
        let mut dst = vec![0.0f32; 16 * 16];
        k.convolve_2d(&src, &mut dst, 16, 16);
        for &v in &dst {
            assert!((v - 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn impulse_spreads_symmetrically() {
        let k = GaussianKernel::new(1.0);
        let n = 15usize;
        let mut src = vec![0.0f32; n * n];
        src[7 * n + 7] = 1.0;
        let mut dst = vec![0.0f32; n * n];
        k.convolve_2d(&src, &mut dst, n, n);
        // Peak stays at the centre and response is 4-fold symmetric.
        let peak = dst[7 * n + 7];
        assert!(peak > 0.0);
        for &v in &dst {
            assert!(v <= peak + 1e-7);
        }
        assert!((dst[7 * n + 5] - dst[7 * n + 9]).abs() < 1e-6);
        assert!((dst[5 * n + 7] - dst[9 * n + 7]).abs() < 1e-6);
        assert!((dst[5 * n + 7] - dst[7 * n + 5]).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_convolution_matches_reference_bits(
            (width, height) in (1usize..=40, 1usize..=40),
            sigma in 0.5f64..=4.0,
            values in proptest::collection::vec(-1.0f32..2.0, 1600),
        ) {
            // σ up to 4 px gives a 12 px radius, wider than the small images.
            let k = GaussianKernel::new(sigma);
            let src = &values[..width * height];
            let mut fast = vec![f32::NAN; width * height];
            let mut slow = vec![f32::NAN; width * height];
            k.convolve_2d(src, &mut fast, width, height);
            reference_convolve_2d(&k, src, &mut slow, width, height);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "{width}x{height} sigma {sigma}: pixel {i} is {a} vs reference {b}"
                );
            }
        }

        #[test]
        fn prop_convolution_preserves_bounds(values in proptest::collection::vec(0.0f32..1.0, 64)) {
            let k = GaussianKernel::new(1.2);
            let mut dst = vec![0.0f32; 64];
            k.convolve_2d(&values, &mut dst, 8, 8);
            for &v in &dst {
                prop_assert!((-1e-5..=1.0 + 1e-5).contains(&v));
            }
        }

        #[test]
        fn prop_monotone_in_input(values in proptest::collection::vec(0.0f32..0.5, 36)) {
            // Adding mask everywhere can only raise intensity everywhere.
            let k = GaussianKernel::new(1.0);
            let brighter: Vec<f32> = values.iter().map(|v| v + 0.25).collect();
            let mut a = vec![0.0f32; 36];
            let mut b = vec![0.0f32; 36];
            k.convolve_2d(&values, &mut a, 6, 6);
            k.convolve_2d(&brighter, &mut b, 6, 6);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(y >= x);
            }
        }
    }
}

//! RGBA + depth framebuffer and image-difference metrics.

use accelviz_math::Rgba;
use rayon::prelude::*;
use std::ops::Range;

/// A software framebuffer: linear RGBA color plus a depth buffer.
///
/// Depth follows the OpenGL convention used by the rest of the pipeline:
/// values in [-1, 1] after projection, *smaller is closer*, initialized to
/// `f32::INFINITY`.
#[derive(Clone, Debug)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    color: Vec<Rgba>,
    depth: Vec<f32>,
}

impl Framebuffer {
    /// A cleared framebuffer of the given size.
    pub fn new(width: usize, height: usize) -> Framebuffer {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Framebuffer {
            width,
            height,
            color: vec![Rgba::TRANSPARENT; width * height],
            depth: vec![f32::INFINITY; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Clears color to `c` and depth to infinity.
    pub fn clear(&mut self, c: Rgba) {
        self.color.fill(c);
        self.depth.fill(f32::INFINITY);
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Color at a pixel.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Rgba {
        self.color[self.idx(x, y)]
    }

    /// Depth at a pixel.
    #[inline]
    pub fn get_depth(&self, x: usize, y: usize) -> f32 {
        self.depth[self.idx(x, y)]
    }

    /// Overwrites a pixel (no blending, no depth test).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: Rgba) {
        let i = self.idx(x, y);
        self.color[i] = c;
    }

    /// Writes a fragment with depth test and source-over blending.
    /// `write_depth` false is used for translucent geometry.
    #[inline]
    pub fn blend_fragment(&mut self, x: usize, y: usize, z: f32, c: Rgba, write_depth: bool) {
        let i = self.idx(x, y);
        blend(&mut self.color[i], &mut self.depth[i], z, c, write_depth);
    }

    /// Raw color pixels, row-major top row first.
    pub fn pixels(&self) -> &[Rgba] {
        &self.color
    }

    /// Mutable raw pixels (used by the parallel volume renderer, which
    /// owns disjoint rows).
    pub(crate) fn pixels_mut(&mut self) -> &mut [Rgba] {
        &mut self.color
    }

    /// Runs `f` on bands of `rows` rows (the last may be shorter) in
    /// parallel and sums what it returns; one band of every row runs on
    /// the calling thread.
    pub(crate) fn par_bands(&mut self, rows: usize, f: impl Fn(Band<'_>) -> usize + Sync) -> usize {
        let (width, height) = (self.width, self.height);
        self.color
            .par_chunks_mut(rows * width)
            .zip(self.depth.par_chunks_mut(rows * width))
            .enumerate()
            .map(|(i, (color, depth))| {
                f(Band {
                    width,
                    height,
                    y0: i * rows,
                    color,
                    depth,
                })
            })
            .sum()
    }

    /// Mean squared error against another framebuffer of the same size
    /// (per channel, including alpha).
    pub fn mse(&self, other: &Framebuffer) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "framebuffer sizes differ"
        );
        let mut sum = 0.0f64;
        for (a, b) in self.color.iter().zip(&other.color) {
            let dr = (a.r - b.r) as f64;
            let dg = (a.g - b.g) as f64;
            let db = (a.b - b.b) as f64;
            let da = (a.a - b.a) as f64;
            sum += dr * dr + dg * dg + db * db + da * da;
        }
        sum / (4.0 * self.color.len() as f64)
    }

    /// Number of pixels whose luminance exceeds `threshold` — the "how
    /// much structure is visible" metric used by the FIG1 detail
    /// comparison.
    pub fn lit_pixel_count(&self, threshold: f32) -> usize {
        self.color
            .iter()
            .filter(|c| c.luminance() * c.a > threshold)
            .count()
    }

    /// Luminance variance over a pixel rectangle — a contrast/detail proxy
    /// (more resolved stratification ⇒ higher variance). The rectangle is
    /// clamped to the framebuffer.
    pub fn region_luminance_variance(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        let x1 = x1.min(self.width);
        let y1 = y1.min(self.height);
        if x0 >= x1 || y0 >= y1 {
            return 0.0;
        }
        let mut stats = accelviz_math::OnlineStats::new();
        for y in y0..y1 {
            for x in x0..x1 {
                stats.push(self.get(x, y).luminance() as f64);
            }
        }
        stats.variance()
    }
}

/// The depth test and source-over blend of one fragment into one pixel.
#[inline]
fn blend(color: &mut Rgba, depth: &mut f32, z: f32, c: Rgba, write_depth: bool) {
    if z > *depth {
        return;
    }
    *color = c.over(*color);
    if write_depth {
        // Partial coverage occludes too in the hardware pipeline when
        // depth writes are on.
        *depth = z;
    }
}

/// Consecutive whole rows of a framebuffer, borrowed for writing: what one
/// parallel task of a pass owns.
pub(crate) struct Band<'a> {
    width: usize,
    height: usize,
    y0: usize,
    color: &'a mut [Rgba],
    depth: &'a mut [f32],
}

impl Band<'_> {
    /// Width and height of the whole framebuffer.
    pub(crate) fn frame_size(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// The framebuffer rows this band holds.
    pub(crate) fn rows(&self) -> Range<usize> {
        self.y0..self.y0 + self.color.len() / self.width
    }

    /// [`Framebuffer::blend_fragment`] at framebuffer coordinates, for a
    /// pixel in [`Band::rows`].
    #[inline]
    pub(crate) fn blend_fragment(
        &mut self,
        x: usize,
        y: usize,
        z: f32,
        c: Rgba,
        write_depth: bool,
    ) {
        debug_assert!(x < self.width && self.rows().contains(&y));
        let i = (y - self.y0) * self.width + x;
        blend(&mut self.color[i], &mut self.depth[i], z, c, write_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_buffer_is_transparent_and_far() {
        let fb = Framebuffer::new(4, 3);
        assert_eq!(fb.width(), 4);
        assert_eq!(fb.height(), 3);
        assert_eq!(fb.get(0, 0), Rgba::TRANSPARENT);
        assert_eq!(fb.get_depth(3, 2), f32::INFINITY);
    }

    #[test]
    fn clear_resets_everything() {
        let mut fb = Framebuffer::new(2, 2);
        fb.blend_fragment(0, 0, 0.5, Rgba::WHITE, true);
        fb.clear(Rgba::BLACK);
        assert_eq!(fb.get(0, 0), Rgba::BLACK);
        assert_eq!(fb.get_depth(0, 0), f32::INFINITY);
    }

    #[test]
    fn depth_test_rejects_farther_fragments() {
        let mut fb = Framebuffer::new(2, 2);
        fb.blend_fragment(0, 0, 0.3, Rgba::rgb(1.0, 0.0, 0.0), true);
        fb.blend_fragment(0, 0, 0.7, Rgba::rgb(0.0, 1.0, 0.0), true);
        // The farther green fragment is rejected.
        assert!((fb.get(0, 0).r - 1.0).abs() < 1e-6);
        assert!((fb.get_depth(0, 0) - 0.3).abs() < 1e-6);
        // A closer fragment replaces it.
        fb.blend_fragment(0, 0, 0.1, Rgba::rgb(0.0, 0.0, 1.0), true);
        assert!((fb.get(0, 0).b - 1.0).abs() < 1e-6);
    }

    #[test]
    fn translucent_fragments_blend_without_depth_write() {
        let mut fb = Framebuffer::new(1, 1);
        fb.blend_fragment(0, 0, 0.5, Rgba::new(1.0, 0.0, 0.0, 0.5), false);
        assert_eq!(fb.get_depth(0, 0), f32::INFINITY);
        let c = fb.get(0, 0);
        assert!(c.a > 0.49 && c.a < 0.51);
    }

    #[test]
    fn mse_of_identical_buffers_is_zero() {
        let mut a = Framebuffer::new(8, 8);
        a.clear(Rgba::grey(0.3));
        let b = a.clone();
        assert_eq!(a.mse(&b), 0.0);
        let mut c = Framebuffer::new(8, 8);
        c.clear(Rgba::grey(0.8));
        assert!(a.mse(&c) > 0.0);
    }

    #[test]
    fn lit_pixel_count() {
        let mut fb = Framebuffer::new(4, 1);
        fb.set(0, 0, Rgba::WHITE);
        fb.set(1, 0, Rgba::grey(0.05));
        assert_eq!(fb.lit_pixel_count(0.1), 1);
        assert_eq!(fb.lit_pixel_count(0.0), 2);
    }

    #[test]
    fn region_variance_detects_structure() {
        let mut flat = Framebuffer::new(8, 8);
        flat.clear(Rgba::grey(0.5));
        assert_eq!(flat.region_luminance_variance(0, 0, 8, 8), 0.0);
        let mut striped = Framebuffer::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                striped.set(x, y, if y % 2 == 0 { Rgba::WHITE } else { Rgba::BLACK });
            }
        }
        assert!(striped.region_luminance_variance(0, 0, 8, 8) > 0.2);
        // Degenerate rectangle.
        assert_eq!(striped.region_luminance_variance(5, 5, 5, 9), 0.0);
    }

    #[test]
    #[should_panic]
    fn mse_size_mismatch_panics() {
        let a = Framebuffer::new(2, 2);
        let b = Framebuffer::new(3, 2);
        let _ = a.mse(&b);
    }
}

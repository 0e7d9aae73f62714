//! The dual transfer functions of the hybrid method (§2.4, Figure 3).
//!
//! *Volume TF*: "maps point density to color and opacity for the
//! volume-rendered portion of the image. Typically, a step function is
//! used to map low-density regions to 0 (fully transparent) and higher
//! density regions to some low constant so that one can see inside the
//! volume. The program also allows a ramp to transition between the high
//! and low values."
//!
//! *Point TF*: "maps density to number of points rendered ... Below a
//! certain threshold density, the data is rendered as points; above that
//! threshold, no points are drawn. Intermediate values are mapped to the
//! fraction of points drawn."
//!
//! *Inverse linking*: "By default, the two transfer functions are inverses
//! of each other. Changing one results in an equal and opposite change in
//! the other. This way, the user can change the boundary between the
//! volume- and the point-rendered regions."

use accelviz_math::{smoothstep, Rgba};
use accelviz_render::volume::VolumeTransfer;

/// The volume transfer function: a step at `threshold` with a smooth ramp
/// of width `ramp_width`, topping out at `max_opacity` (kept low "so that
/// one can see inside the volume").
#[derive(Clone, Copy, Debug)]
pub struct VolumeTransferFunction {
    /// Normalized density at which the volume becomes visible.
    pub threshold: f64,
    /// Width of the smooth transition below the threshold (0 = hard
    /// step). Softens "the artificial boundary of the volume-rendered
    /// region".
    pub ramp_width: f64,
    /// Opacity of the volume-rendered region.
    pub max_opacity: f32,
    /// Color at the threshold.
    pub low_color: Rgba,
    /// Color at maximum density.
    pub high_color: Rgba,
}

impl Default for VolumeTransferFunction {
    fn default() -> VolumeTransferFunction {
        VolumeTransferFunction {
            threshold: 0.05,
            ramp_width: 0.02,
            max_opacity: 0.08,
            low_color: Rgba::rgb(0.15, 0.3, 0.9),
            high_color: Rgba::rgb(1.0, 0.95, 0.5),
        }
    }
}

impl VolumeTransferFunction {
    /// The visibility weight in [0, 1] at normalized density `d` (opacity
    /// divided by `max_opacity`).
    pub fn weight(&self, d: f64) -> f64 {
        smoothstep(self.threshold - self.ramp_width, self.threshold, d)
    }

    /// Color + opacity at normalized density `d`.
    pub fn sample(&self, d: f64) -> Rgba {
        let w = self.weight(d);
        if w <= 0.0 {
            return Rgba::TRANSPARENT;
        }
        let t = ((d - self.threshold) / (1.0 - self.threshold).max(1e-9)).clamp(0.0, 1.0) as f32;
        self.low_color
            .lerp(self.high_color, t)
            .with_alpha(self.max_opacity * w as f32)
    }
}

/// What lets the volume pass skip empty space: the ramp's lower edge.
/// Below it smoothstep is 0 (with `ramp_width > 0` it is 0 *at* the edge
/// too); with `ramp_width == 0` the edge is the threshold itself, which is
/// visible — so the level is exclusive.
impl VolumeTransfer for VolumeTransferFunction {
    fn transparent_below(&self) -> f64 {
        self.threshold - self.ramp_width
    }
    fn sample(&self, d: f64) -> Rgba {
        VolumeTransferFunction::sample(self, d)
    }
}

/// The point transfer function: fraction of points drawn as a function of
/// normalized density — 1 in the halo, ramping to 0 above the threshold.
#[derive(Clone, Copy, Debug)]
pub struct PointTransferFunction {
    /// Normalized density above which no points are drawn.
    pub threshold: f64,
    /// Width of the fraction ramp below the threshold.
    pub ramp_width: f64,
}

impl Default for PointTransferFunction {
    fn default() -> PointTransferFunction {
        PointTransferFunction {
            threshold: 0.05,
            ramp_width: 0.02,
        }
    }
}

impl PointTransferFunction {
    /// Fraction of points drawn at normalized density `d` (e.g. 0.75 means
    /// "three out of every four points are drawn").
    pub fn fraction(&self, d: f64) -> f64 {
        1.0 - smoothstep(self.threshold - self.ramp_width, self.threshold, d)
    }
}

/// The linked pair. While linked (the default), the two functions share
/// their boundary so that `point_fraction(d) + volume_weight(d) = 1` at
/// every density — the paper's "equal and opposite change".
///
/// ```
/// use accelviz_core::transfer::TransferFunctionPair;
///
/// let mut pair = TransferFunctionPair::linked_at(0.1, 0.04);
/// // Dragging one side moves the other: the inverse invariant holds at
/// // every density.
/// pair.edit_volume_threshold(0.2);
/// for i in 0..=100 {
///     let d = i as f64 / 100.0;
///     assert!((pair.coverage(d) - 1.0).abs() < 1e-12);
/// }
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct TransferFunctionPair {
    /// The volume side.
    pub volume: VolumeTransferFunction,
    /// The point side.
    pub point: PointTransferFunction,
    /// Whether edits propagate inversely (set false to "edit separately").
    pub linked: bool,
}

impl TransferFunctionPair {
    /// A linked pair with the given region boundary.
    pub fn linked_at(threshold: f64, ramp_width: f64) -> TransferFunctionPair {
        let mut pair = TransferFunctionPair {
            volume: VolumeTransferFunction::default(),
            point: PointTransferFunction::default(),
            linked: true,
        };
        pair.set_boundary(threshold, ramp_width);
        pair
    }

    /// Moves the point/volume boundary (both functions when linked).
    pub fn set_boundary(&mut self, threshold: f64, ramp_width: f64) {
        self.volume.threshold = threshold;
        self.volume.ramp_width = ramp_width;
        if self.linked {
            self.point.threshold = threshold;
            self.point.ramp_width = ramp_width;
        }
    }

    /// Edits the volume threshold; when linked, the point function makes
    /// the equal and opposite change.
    pub fn edit_volume_threshold(&mut self, threshold: f64) {
        self.volume.threshold = threshold;
        if self.linked {
            self.point.threshold = threshold;
            self.point.ramp_width = self.volume.ramp_width;
        }
    }

    /// Edits the point threshold; when linked, the volume function
    /// follows.
    pub fn edit_point_threshold(&mut self, threshold: f64) {
        self.point.threshold = threshold;
        if self.linked {
            self.volume.threshold = threshold;
            self.volume.ramp_width = self.point.ramp_width;
        }
    }

    /// The linking invariant: point fraction + volume weight at a density.
    pub fn coverage(&self, d: f64) -> f64 {
        self.point.fraction(d) + self.volume.weight(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_tf_is_transparent_below_threshold() {
        let tf = VolumeTransferFunction::default();
        assert_eq!(tf.sample(0.0), Rgba::TRANSPARENT);
        assert_eq!(tf.sample(0.02), Rgba::TRANSPARENT);
        let above = tf.sample(0.5);
        assert!(above.a > 0.0);
        assert!((above.a - tf.max_opacity).abs() < 1e-6);
    }

    #[test]
    fn volume_tf_opacity_is_monotone_through_ramp() {
        let tf = VolumeTransferFunction::default();
        let mut prev = -1.0f32;
        for i in 0..=100 {
            let a = tf.sample(i as f64 / 100.0).a;
            assert!(a >= prev, "opacity must be monotone");
            prev = a;
        }
    }

    #[test]
    fn volume_tf_color_shifts_with_density() {
        let tf = VolumeTransferFunction::default();
        let low = tf.sample(0.06);
        let high = tf.sample(1.0);
        assert!(low.b > low.r, "low densities are blue");
        assert!(high.r > high.b, "high densities are warm");
    }

    #[test]
    fn hard_step_when_ramp_is_zero() {
        let tf = VolumeTransferFunction {
            ramp_width: 0.0,
            ..Default::default()
        };
        assert_eq!(tf.weight(tf.threshold - 1e-9), 0.0);
        assert_eq!(tf.weight(tf.threshold + 1e-9), 1.0);
    }

    #[test]
    fn volume_tf_is_transparent_strictly_below_its_level() {
        for (threshold, ramp_width) in [(0.05, 0.02), (0.3, 0.0), (0.0, 0.0), (1.0, 0.5)] {
            let tf = VolumeTransferFunction {
                threshold,
                ramp_width,
                ..Default::default()
            };
            let level = tf.transparent_below();
            for d in [level - 1.0, level - 1e-9, level.next_down(), -0.0] {
                if d < level {
                    assert_eq!(tf.sample(d).a, 0.0, "{tf:?} visible at {d}");
                }
            }
        }
        // A hard step is visible at its threshold: the level is exclusive.
        let step = VolumeTransferFunction {
            ramp_width: 0.0,
            ..Default::default()
        };
        assert!(step.sample(step.transparent_below()).a > 0.0);
    }

    #[test]
    fn point_tf_draws_halo_fully_core_not_at_all() {
        let tf = PointTransferFunction::default();
        assert_eq!(tf.fraction(0.0), 1.0);
        assert_eq!(tf.fraction(1.0), 0.0);
        // Intermediate densities draw an intermediate fraction.
        let mid = tf.fraction(tf.threshold - tf.ramp_width / 2.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn linked_pair_sums_to_one_everywhere() {
        let pair = TransferFunctionPair::linked_at(0.1, 0.04);
        for i in 0..=200 {
            let d = i as f64 / 200.0;
            assert!(
                (pair.coverage(d) - 1.0).abs() < 1e-12,
                "coverage at {d} is {}",
                pair.coverage(d)
            );
        }
    }

    #[test]
    fn editing_one_side_moves_the_other_when_linked() {
        let mut pair = TransferFunctionPair::linked_at(0.1, 0.04);
        pair.edit_volume_threshold(0.2);
        assert_eq!(pair.point.threshold, 0.2);
        pair.edit_point_threshold(0.05);
        assert_eq!(pair.volume.threshold, 0.05);
        // Invariant still holds after edits.
        for i in 0..=100 {
            let d = i as f64 / 100.0;
            assert!((pair.coverage(d) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unlinked_pair_edits_independently() {
        let mut pair = TransferFunctionPair::linked_at(0.1, 0.04);
        pair.linked = false;
        pair.edit_volume_threshold(0.3);
        assert_eq!(pair.point.threshold, 0.1, "point TF must not move");
        // Non-inverse configurations are now possible ("the regions can
        // overlap, as in this example" — Figure 3a): here the edit opened
        // a gap where neither representation covers the density.
        let d = 0.2;
        assert_eq!(pair.point.fraction(d), 0.0, "past the point threshold");
        assert_eq!(pair.volume.weight(d), 0.0, "below the volume threshold");
        assert!(pair.coverage(0.25) < 1.0, "a gap between regions exists");
    }
}

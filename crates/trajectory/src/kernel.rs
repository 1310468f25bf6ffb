//! The flat, allocation-free segment distance kernel.
//!
//! The S2T voting inner loop evaluates the time-synchronized segment distance
//! millions of times per query. The object-level entry point
//! ([`crate::Segment::mean_synchronized_distance`]) delegates to the kernel
//! here, so callers that keep their segments in structure-of-arrays
//! form (the `SegmentArena` of `hermes-s2t`) can feed the kernel straight
//! from `f64`/`i64` lanes without materializing `Segment`s or `Point`s —
//! and both paths are bit-identical by construction, because they are the
//! same arithmetic.
//!
//! Contract kept by every function in this module:
//!
//! * **no heap allocation**, ever;
//! * **fixed arithmetic order** — the operations and their order match the
//!   original `Segment` methods exactly, so results agree bit for bit;
//! * **early temporal reject** — the common-lifespan test runs before any
//!   interpolation touches the spatial lanes.

/// One trajectory segment in scalar-lane form: the endpoints' coordinates and
/// timestamps. This is the row a `SegmentArena` reconstitutes from its
/// parallel arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegLanes {
    /// x at the segment start.
    pub x0: f64,
    /// y at the segment start.
    pub y0: f64,
    /// x at the segment end.
    pub x1: f64,
    /// y at the segment end.
    pub y1: f64,
    /// Start time, milliseconds.
    pub t0: i64,
    /// End time, milliseconds (strictly after `t0` for well-formed segments).
    pub t1: i64,
}

impl SegLanes {
    /// The interpolated spatial position at time `t`, clamped to the
    /// segment's lifespan. Mirrors `Segment::position_at` + `Point::lerp`
    /// exactly (same operations, same order), minus the unused temporal
    /// component.
    #[inline]
    pub fn position_at(&self, t: i64) -> (f64, f64) {
        let span = self.t1 - self.t0;
        if span == 0 {
            return (self.x0, self.y0);
        }
        let f = ((t - self.t0) as f64 / span as f64).clamp(0.0, 1.0);
        (
            self.x0 + (self.x1 - self.x0) * f,
            self.y0 + (self.y1 - self.y0) * f,
        )
    }
}

/// Euclidean distance between the two segments' interpolated positions at
/// instant `t` (both clamped to their own lifespans).
#[inline]
fn distance_at(a: &SegLanes, b: &SegLanes, t: i64) -> f64 {
    let (px, py) = a.position_at(t);
    let (qx, qy) = b.position_at(t);
    let dx = px - qx;
    let dy = py - qy;
    (dx * dx + dy * dy).sqrt()
}

/// Mean time-synchronized distance between two segments over their common
/// lifespan — Simpson's rule on the interval endpoints and midpoint, exact
/// for the linear relative displacement of two uniform movers. `None` when
/// the lifespans are disjoint (checked **before** any interpolation).
///
/// This is the voting kernel: `Segment::mean_synchronized_distance` is a
/// thin wrapper around it, so the flat and object paths cannot drift apart.
#[inline]
pub fn mean_sync_distance(a: &SegLanes, b: &SegLanes) -> Option<f64> {
    // Early temporal reject: closed-interval intersection on the i64 lanes.
    let common_start = if a.t0 >= b.t0 { a.t0 } else { b.t0 };
    let common_end = if a.t1 <= b.t1 { a.t1 } else { b.t1 };
    if common_start > common_end {
        return None;
    }
    let mid = (common_start + common_end) / 2;
    Some(
        (distance_at(a, b, common_start)
            + 4.0 * distance_at(a, b, mid)
            + distance_at(a, b, common_end))
            / 6.0,
    )
}

/// Name of the one distance kernel: [`mean_sync_distance`], scalar. Kept
/// because the benchmark's run metadata prints it (with `{:?}`) in its
/// `# meta` line.
pub fn simd_level() -> &'static str {
    "scalar"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::segment::Segment;
    use crate::time::Timestamp;

    fn seg(x0: f64, y0: f64, t0: i64, x1: f64, y1: f64, t1: i64) -> Segment {
        Segment::new(
            Point::new(x0, y0, Timestamp(t0)),
            Point::new(x1, y1, Timestamp(t1)),
        )
    }

    fn lanes(s: &Segment) -> SegLanes {
        SegLanes {
            x0: s.start.x,
            y0: s.start.y,
            x1: s.end.x,
            y1: s.end.y,
            t0: s.start.t.millis(),
            t1: s.end.t.millis(),
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_segment_method() {
        // A grid of awkward offsets: partial overlaps, containment, touching
        // endpoints, irrational-ish coordinates.
        let cases = [
            (
                seg(0.0, 0.0, 0, 10.0, 0.0, 10_000),
                seg(0.0, 3.0, 0, 10.0, 3.0, 10_000),
            ),
            (
                seg(0.1, 0.2, 0, 9.7, 4.3, 7_001),
                seg(1.3, -2.0, 3_000, 8.0, 5.5, 12_345),
            ),
            (
                seg(5.0, 5.0, 1_000, 6.0, 7.0, 1_001),
                seg(0.0, 0.0, 0, 100.0, 0.0, 100_000),
            ),
            (
                seg(-3.5, 2.25, -5_000, 4.125, -1.0, 5_000),
                seg(0.0, 0.0, -1_000, 0.0, 0.0, 1_000),
            ),
            (
                seg(0.0, 0.0, 0, 1.0, 1.0, 1_000),
                seg(2.0, 2.0, 1_000, 3.0, 3.0, 2_000),
            ),
        ];
        for (a, b) in &cases {
            let via_segment = a.mean_synchronized_distance(b);
            let via_kernel = mean_sync_distance(&lanes(a), &lanes(b));
            // Exact equality, not approximate: the two paths are the same
            // arithmetic and must never diverge by even one bit.
            assert_eq!(via_segment, via_kernel, "{a:?} vs {b:?}");
            assert_eq!(
                b.mean_synchronized_distance(a),
                mean_sync_distance(&lanes(b), &lanes(a))
            );
        }
    }

    #[test]
    fn disjoint_lifespans_reject_before_interpolating() {
        let a = SegLanes {
            x0: f64::NAN,
            y0: f64::NAN,
            x1: f64::NAN,
            y1: f64::NAN,
            t0: 0,
            t1: 1_000,
        };
        let b = SegLanes {
            x0: 0.0,
            y0: 0.0,
            x1: 1.0,
            y1: 1.0,
            t0: 2_000,
            t1: 3_000,
        };
        // NaN lanes never poison the result because the temporal reject fires
        // first — proof the reject really is hoisted above the interpolation.
        assert_eq!(mean_sync_distance(&a, &b), None);
        assert_eq!(mean_sync_distance(&b, &a), None);
    }

    #[test]
    fn touching_endpoints_still_evaluate() {
        let a = seg(0.0, 0.0, 0, 1.0, 0.0, 1_000);
        let b = seg(1.0, 4.0, 1_000, 2.0, 4.0, 2_000);
        let d = mean_sync_distance(&lanes(&a), &lanes(&b)).unwrap();
        assert!(
            (d - 4.0).abs() < 1e-12,
            "single shared instant, offset 4: {d}"
        );
    }

    #[test]
    fn degenerate_zero_span_lane_uses_start_point() {
        let a = SegLanes {
            x0: 5.0,
            y0: 5.0,
            x1: 9.0,
            y1: 9.0,
            t0: 100,
            t1: 100,
        };
        let b = SegLanes {
            x0: 5.0,
            y0: 2.0,
            x1: 5.0,
            y1: 2.0,
            t0: 100,
            t1: 100,
        };
        assert_eq!(mean_sync_distance(&a, &b), Some(3.0));
    }
}

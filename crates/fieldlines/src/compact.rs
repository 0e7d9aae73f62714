//! Compact storage of pre-integrated field lines.
//!
//! "Storing the precomputed field lines rather than the raw data can
//! significantly cut down the data storage and transfer requirements ...
//! The typical saving is about a factor of 25" (§3.4). The compact layout
//! stores single-precision positions plus a quantized magnitude — all a
//! viewer needs to rebuild every representation (strips orient at render
//! time from the view position; tangents are recovered from differences).

use crate::line::FieldLine;
use accelviz_math::{Reader, Vec3};
use std::io::{self, Write};

/// Magic bytes of the compact line format.
pub const MAGIC: [u8; 8] = *b"AVIZLINE";

/// Bytes per stored line vertex: 3 × f32 position + f32 magnitude.
pub const BYTES_PER_VERTEX: u64 = 16;

/// Exact serialized size of a line set.
pub fn compact_bytes(lines: &[FieldLine]) -> u64 {
    let header = 8 + 8; // magic + line count
    let per_line: u64 = lines
        .iter()
        .map(|l| 4 + l.len() as u64 * BYTES_PER_VERTEX)
        .sum();
    header + per_line
}

/// Serializes a line set to the compact format.
pub fn serialize_lines<W: Write>(w: &mut W, lines: &[FieldLine]) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&(lines.len() as u64).to_le_bytes())?;
    for line in lines {
        w.write_all(&(line.len() as u32).to_le_bytes())?;
        for i in 0..line.len() {
            let p = line.points[i];
            w.write_all(&(p.x as f32).to_le_bytes())?;
            w.write_all(&(p.y as f32).to_le_bytes())?;
            w.write_all(&(p.z as f32).to_le_bytes())?;
            w.write_all(&(line.magnitudes[i] as f32).to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserializes a compact line set from the front of `bytes`, leaving
/// `bytes` at what follows it; tangents are reconstructed from central
/// differences of the stored polyline. A line or vertex count the bytes
/// cannot hold is refused before anything is sized from it.
pub fn deserialize_lines(bytes: &mut &[u8]) -> io::Result<Vec<FieldLine>> {
    let mut r = Reader::new(bytes);
    if r.array()? != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad line-set magic",
        ));
    }
    // Every line is at least its vertex count.
    let n_lines = r.u64()?;
    let lines = r.vec(n_lines, 4, |r| -> io::Result<FieldLine> {
        // x, y, z and |F| a vertex.
        let n = r.u32()?;
        let vertices = r.f32s(u64::from(n) * 4)?;
        let vertices = vertices.as_chunks().0;
        let points: Vec<Vec3> = vertices
            .iter()
            .map(|&[x, y, z, _]| Vec3::new(x.into(), y.into(), z.into()))
            .collect();
        let magnitudes = vertices.iter().map(|&[.., m]| m.into()).collect();
        // Rebuild tangents from the polyline.
        let last = points.len().saturating_sub(1);
        let tangents = (0..points.len())
            .map(|i| {
                (points[(i + 1).min(last)] - points[i.saturating_sub(1)])
                    .normalized_or(Vec3::UNIT_X)
            })
            .collect();
        Ok(FieldLine {
            points,
            tangents,
            magnitudes,
        })
    })?;
    *bytes = r.rest();
    Ok(lines)
}

/// The storage-saving factor of a compact line set relative to a raw
/// E+B field dump over `mesh_elements` elements — the paper's "factor of
/// 25".
pub fn saving_factor(lines: &[FieldLine], mesh_elements: u64) -> f64 {
    let raw = accelviz_emsim::io::snapshot_bytes(mesh_elements) as f64;
    let compact = compact_bytes(lines) as f64;
    if compact <= 0.0 {
        f64::INFINITY
    } else {
        raw / compact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lines() -> Vec<FieldLine> {
        (0..5)
            .map(|li| {
                let mut l = FieldLine::new();
                for i in 0..20 {
                    l.push(
                        Vec3::new(i as f64 * 0.1, li as f64, (i as f64 * 0.3).sin()),
                        Vec3::UNIT_X,
                        0.5 + i as f64 * 0.01,
                    );
                }
                l
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_geometry_within_f32() {
        let lines = sample_lines();
        let mut buf = Vec::new();
        serialize_lines(&mut buf, &lines).unwrap();
        assert_eq!(buf.len() as u64, compact_bytes(&lines));
        let back = deserialize_lines(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), lines.len());
        for (a, b) in lines.iter().zip(&back) {
            assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                assert!(a.points[i].distance(b.points[i]) < 1e-6);
                assert!((a.magnitudes[i] - b.magnitudes[i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn tangents_are_reconstructed() {
        let lines = sample_lines();
        let mut buf = Vec::new();
        serialize_lines(&mut buf, &lines).unwrap();
        let back = deserialize_lines(&mut buf.as_slice()).unwrap();
        for l in &back {
            for t in &l.tangents {
                assert!((t.length() - 1.0).abs() < 1e-9, "tangents must be unit");
            }
        }
    }

    #[test]
    fn empty_set_roundtrips() {
        let mut buf = Vec::new();
        serialize_lines(&mut buf, &[]).unwrap();
        let back = deserialize_lines(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(compact_bytes(&[]), 16);
    }

    #[test]
    fn paper_scale_saving_factor_is_about_25() {
        // Paper-typical budget: a few thousand pre-integrated lines versus
        // an 80 MB (1.6 M-element) raw field step. 4 000 lines × ~47
        // vertices × 16 B ≈ 3 MB → saving ≈ 25×.
        let lines: Vec<FieldLine> = (0..4_000)
            .map(|_| {
                let mut l = FieldLine::new();
                for i in 0..47 {
                    l.push(Vec3::new(i as f64, 0.0, 0.0), Vec3::UNIT_X, 1.0);
                }
                l
            })
            .collect();
        let factor = saving_factor(&lines, 1_600_000);
        assert!(
            (20.0..32.0).contains(&factor),
            "saving factor ≈25, got {factor:.1}"
        );
    }
}

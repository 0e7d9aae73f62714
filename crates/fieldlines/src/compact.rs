//! Compact storage of pre-integrated field lines.
//!
//! "Storing the precomputed field lines rather than the raw data can
//! significantly cut down the data storage and transfer requirements ...
//! The typical saving is about a factor of 25" (§3.4). The compact layout
//! stores single-precision positions plus a quantized magnitude — all a
//! viewer needs to rebuild every representation (strips orient at render
//! time from the view position; tangents are recovered from differences).

use crate::line::FieldLine;
use std::io::{self, Read, Write};

/// Magic bytes of the compact line format.
pub const MAGIC: [u8; 8] = *b"AVIZLINE";

/// Bytes per stored line vertex: 3 × f32 position + f32 magnitude.
pub const BYTES_PER_VERTEX: u64 = 16;

/// Most lines the reader reserves room for on the strength of the header
/// alone; a longer set grows as its lines arrive.
const RESERVE_LINES: usize = 1_024;

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

/// Deserializes a compact line set; tangents are reconstructed from
/// central differences of the stored polyline.
pub fn deserialize_lines<R: Read>(r: &mut R) -> io::Result<Vec<FieldLine>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad line-set magic",
        ));
    }
    let mut u64b = [0u8; 8];
    r.read_exact(&mut u64b)?;
    let n_lines = u64::from_le_bytes(u64b);
    if n_lines > (1 << 32) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "implausible line count",
        ));
    }
    let mut f32b = [0u8; 4];
    let mut read_f32 = |r: &mut R| -> io::Result<f32> {
        r.read_exact(&mut f32b)?;
        Ok(f32::from_le_bytes(f32b))
    };
    // `n_lines` is only the header's claim: reserve a bounded number of
    // lines and grow as lines (and, inside each, vertices) actually arrive.
    let mut out = Vec::with_capacity((n_lines as usize).min(RESERVE_LINES));
    for _ in 0..n_lines {
        let mut u32b = [0u8; 4];
        r.read_exact(&mut u32b)?;
        let count = u32::from_le_bytes(u32b) as usize;
        let mut line = FieldLine::new();
        for _ in 0..count {
            let x = read_f32(r)? as f64;
            let y = read_f32(r)? as f64;
            let z = read_f32(r)? as f64;
            let m = read_f32(r)? as f64;
            line.push(
                accelviz_math::Vec3::new(x, y, z),
                accelviz_math::Vec3::ZERO,
                m,
            );
        }
        // Rebuild tangents from the polyline.
        let n = line.len();
        for i in 0..n {
            let prev = line.points[i.saturating_sub(1)];
            let next = line.points[(i + 1).min(n.saturating_sub(1))];
            line.tangents[i] = (next - prev).normalized_or(accelviz_math::Vec3::UNIT_X);
        }
        out.push(line);
    }
    Ok(out)
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
    use accelviz_math::Vec3;

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
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        serialize_lines(&mut buf, &sample_lines()).unwrap();
        buf[3] ^= 0x55;
        assert!(deserialize_lines(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let mut buf = Vec::new();
        serialize_lines(&mut buf, &sample_lines()).unwrap();
        let cut = &buf[..buf.len() - 3];
        assert!(deserialize_lines(&mut &cut[..]).is_err());
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

//! Binary snapshot format for particle data.
//!
//! The paper's storage arithmetic rests on the raw layout: six
//! double-precision coordinates per particle, so "the primary simulation,
//! consisting of 100 million particles, requires 5 GB of storage per time
//! step" and "the initial time step of a billion point simulation requires
//! 48 GB". This module implements that exact layout (48 bytes per particle
//! plus a 24-byte header) so the SIZE experiment can measure real bytes.

use crate::particle::Particle;
use accelviz_math::Reader;
use std::io::{self, Write};

/// Magic bytes identifying a snapshot stream.
pub const MAGIC: [u8; 8] = *b"AVIZSNAP";

/// Bytes per particle in the on-disk layout (six `f64`s).
pub const BYTES_PER_PARTICLE: u64 = 48;

/// Header size: magic + u64 step index + u64 particle count.
pub const HEADER_BYTES: u64 = 24;

/// Exact serialized size of a snapshot with `n` particles.
pub fn snapshot_bytes(n: u64) -> u64 {
    HEADER_BYTES + n * BYTES_PER_PARTICLE
}

/// Particles staged per write call by [`write_snapshot`]: 16 Ki records
/// ≈ 768 KiB, large enough that syscall overhead is noise, small enough
/// that streaming never allocates the whole payload.
pub const IO_CHUNK_PARTICLES: usize = 16_384;

/// Writes a snapshot in the fixed binary format. Particle records are
/// staged through a [`IO_CHUNK_PARTICLES`]-record buffer, so the writer
/// issues large writes instead of one 48-byte write per particle.
pub fn write_snapshot<W: Write>(w: &mut W, step: u64, particles: &[Particle]) -> io::Result<()> {
    let mut header = [0u8; HEADER_BYTES as usize];
    header[..8].copy_from_slice(&MAGIC);
    header[8..16].copy_from_slice(&step.to_le_bytes());
    header[16..24].copy_from_slice(&(particles.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    let mut buf =
        Vec::with_capacity(particles.len().min(IO_CHUNK_PARTICLES) * BYTES_PER_PARTICLE as usize);
    for chunk in particles.chunks(IO_CHUNK_PARTICLES) {
        buf.clear();
        for p in chunk {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads a snapshot written by [`write_snapshot`] from the front of
/// `bytes`, and leaves `bytes` at what follows it. Returns
/// `(step, particles)`. A particle count the bytes cannot hold is refused
/// before anything is sized from it.
pub fn read_snapshot(bytes: &mut &[u8]) -> io::Result<(u64, Vec<Particle>)> {
    let mut r = Reader::new(bytes);
    if r.array()? != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad snapshot magic",
        ));
    }
    let step = r.u64()?;
    let count = r.u64()?;
    let particles = r.records(count, Particle::from_le_bytes)?;
    *bytes = r.rest();
    Ok((step, particles))
}

/// Serializes a snapshot to a byte vector (convenience for size accounting
/// and in-memory transfer modeling).
pub fn snapshot_to_vec(step: u64, particles: &[Particle]) -> Vec<u8> {
    let mut v = Vec::with_capacity(snapshot_bytes(particles.len() as u64) as usize);
    write_snapshot(&mut v, step, particles).expect("writing to Vec cannot fail");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;

    #[test]
    fn roundtrip_preserves_everything() {
        let ps = Distribution::default_beam().sample(257, 9);
        let bytes = snapshot_to_vec(42, &ps);
        assert_eq!(bytes.len() as u64, snapshot_bytes(257));
        let (step, back) = read_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(step, 42);
        assert_eq!(back, ps);
    }

    #[test]
    fn empty_snapshot() {
        let bytes = snapshot_to_vec(0, &[]);
        assert_eq!(bytes.len() as u64, HEADER_BYTES);
        let (step, ps) = read_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(step, 0);
        assert!(ps.is_empty());
    }

    /// Counts the `write` calls reaching the underlying stream — each one
    /// is what a syscall would be against a real fd.
    struct CountingIo<T> {
        inner: T,
        calls: u64,
    }

    impl<W: Write> Write for CountingIo<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn snapshot_io_is_chunked_not_per_particle() {
        let ps = Distribution::default_beam().sample(10_000, 3);
        let mut sink = CountingIo {
            inner: Vec::new(),
            calls: 0,
        };
        write_snapshot(&mut sink, 5, &ps).unwrap();
        // Header + one buffered write per 16 Ki records — not 10_000.
        assert!(sink.calls <= 3, "write used {} calls", sink.calls);
        let (_, back) = read_snapshot(&mut sink.inner.as_slice()).unwrap();
        assert_eq!(back, ps);
    }

    #[test]
    fn a_read_consumes_exactly_its_snapshot() {
        let ps = Distribution::default_beam().sample(7, 2);
        let mut bytes = snapshot_to_vec(3, &ps);
        bytes.extend_from_slice(b"NEXT");
        let mut rest = bytes.as_slice();
        assert_eq!(read_snapshot(&mut rest).unwrap(), (3, ps));
        assert_eq!(rest, b"NEXT");
    }

    #[test]
    fn paper_storage_arithmetic() {
        // 100 M particles → ~4.8 GB ("5 GB" in the paper); 1 B → ~48 GB.
        let hundred_million = snapshot_bytes(100_000_000);
        assert_eq!(hundred_million, 24 + 100_000_000 * 48);
        let gib = hundred_million as f64 / 1e9;
        assert!(
            (gib - 4.8).abs() < 0.01,
            "≈5 GB per 100 M-particle step: {gib}"
        );
        let billion = snapshot_bytes(1_000_000_000) as f64 / 1e9;
        assert!(
            (billion - 48.0).abs() < 0.1,
            "≈48 GB per 1 B-particle step: {billion}"
        );
    }
}

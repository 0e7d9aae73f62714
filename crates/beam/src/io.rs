//! Binary snapshot format for particle data.
//!
//! The paper's storage arithmetic rests on the raw layout: six
//! double-precision coordinates per particle, so "the primary simulation,
//! consisting of 100 million particles, requires 5 GB of storage per time
//! step" and "the initial time step of a billion point simulation requires
//! 48 GB". This module implements that exact layout (48 bytes per particle
//! plus a 24-byte header) so the SIZE experiment can measure real bytes.

use crate::particle::Particle;
use std::io::{self, Read, Write};

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

/// Particles moved per I/O call by the chunked read/write paths:
/// 16 Ki records ≈ 768 KiB, large enough that syscall overhead is noise,
/// small enough that streaming never allocates the whole payload.
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

/// Reads a snapshot written by [`write_snapshot`]. Returns
/// `(step, particles)`.
///
/// Reads are sized: one 24-byte header read, then bulk reads of up to
/// [`IO_CHUNK_PARTICLES`] records — never one syscall per particle, and
/// never a byte past the declared count (callers stream snapshots out of
/// larger files and rely on exact consumption).
pub fn read_snapshot<R: Read>(r: &mut R) -> io::Result<(u64, Vec<Particle>)> {
    let mut header = [0u8; HEADER_BYTES as usize];
    r.read_exact(&mut header)?;
    if header[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad snapshot magic",
        ));
    }
    let step = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let count = u64::from_le_bytes(header[16..24].try_into().unwrap());
    // Refuse absurd counts from corrupt headers before reading anything.
    const MAX_REASONABLE: u64 = 1 << 33;
    if count > MAX_REASONABLE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible particle count {count}"),
        ));
    }
    // `count` is only the header's claim: the vector grows by one I/O chunk
    // at a time, each reserved after its bytes have arrived.
    let mut particles = Vec::new();
    let mut buf = vec![0u8; (count as usize).min(IO_CHUNK_PARTICLES) * BYTES_PER_PARTICLE as usize];
    let mut remaining = count as usize;
    while remaining > 0 {
        let n = remaining.min(IO_CHUNK_PARTICLES);
        let bytes = &mut buf[..n * BYTES_PER_PARTICLE as usize];
        r.read_exact(bytes)?;
        particles.extend(bytes.as_chunks().0.iter().map(Particle::from_le_bytes));
        remaining -= n;
    }
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

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = snapshot_to_vec(1, &Distribution::default_beam().sample(3, 1));
        bytes[0] ^= 0xFF;
        assert!(read_snapshot(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let bytes = snapshot_to_vec(1, &Distribution::default_beam().sample(10, 1));
        let cut = &bytes[..bytes.len() - 5];
        assert!(read_snapshot(&mut &cut[..]).is_err());
    }

    #[test]
    fn implausible_count_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_snapshot(&mut bytes.as_slice()).is_err());
    }

    /// Counts the `read`/`write` calls reaching the underlying stream —
    /// each one is what a syscall would be against a real fd.
    struct CountingIo<T> {
        inner: T,
        calls: u64,
    }

    impl<R: Read> Read for CountingIo<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
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

        let mut src = CountingIo {
            inner: sink.inner.as_slice(),
            calls: 0,
        };
        let (_, back) = read_snapshot(&mut src).unwrap();
        assert_eq!(back, ps);
        assert!(src.calls <= 3, "read used {} calls", src.calls);
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

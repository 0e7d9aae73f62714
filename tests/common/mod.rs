//! Helpers shared by the serving suites (`mod common;` in a test file
//! pulls them in): the frame data they serve, and replies compared as
//! raw bytes. A suite may use only some of them.
#![allow(dead_code)]

use accelviz::beam::distribution::Distribution;
use accelviz::octree::builder::{partition, BuildParams};
use accelviz::octree::plots::PlotType;
use accelviz::octree::sorted_store::PartitionedData;
use accelviz::serve::lod::ProgressiveAssembler;
use accelviz::serve::protocol::{write_request, Request, RESP_FRAME_CHUNK};
use std::io::Read;
use std::net::TcpStream;

/// `n` frames of the suites' run: frame `i` is the default beam sampled
/// with `particles` particles at seed `i + 1`, partitioned in `XYZ`.
pub fn stores(n: usize, particles: usize) -> Vec<PartitionedData> {
    (0..n)
        .map(|i| {
            let ps = Distribution::default_beam().sample(particles, i as u64 + 1);
            partition(&ps, PlotType::XYZ, BuildParams::default())
        })
        .collect()
}

/// Sends `req` and returns the raw bytes of the whole reply, read off
/// the socket by the envelope layout alone (16-byte header — magic,
/// version, kind at byte 6, reserved, `u64` payload length — then the
/// payload and an 8-byte checksum). Only an accepted progressive stream
/// spans several envelopes; it ends when an assembler has its final
/// record.
pub fn raw_reply(stream: &mut TcpStream, req: Request) -> Vec<u8> {
    write_request(stream, &req).unwrap();
    let mut reply = Vec::new();
    let mut assembler = ProgressiveAssembler::new();
    loop {
        let mut header = [0u8; 16];
        stream.read_exact(&mut header).unwrap();
        let len = u64::from_le_bytes(header[8..].try_into().unwrap()) as usize;
        let mut rest = vec![0u8; len + 8];
        stream.read_exact(&mut rest).unwrap();
        reply.extend_from_slice(&header);
        reply.extend_from_slice(&rest);
        if header[6] != RESP_FRAME_CHUNK || assembler.accept(&rest[..len]).unwrap() {
            return reply;
        }
    }
}

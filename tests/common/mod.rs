//! Helpers shared by the serving suites that compare replies as raw
//! bytes (`mod common;` in a test file pulls them in).

use accelviz::serve::lod::ProgressiveAssembler;
use accelviz::serve::protocol::{write_request, Request, RESP_FRAME_CHUNK};
use std::io::Read;
use std::net::TcpStream;

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

//! Every decoder of bytes from outside the process is total: damaged
//! input is an error or a valid value, never a panic, and never costs
//! more memory than the input could honestly decode to.
//!
//! One table, one row per format: its valid encodings (drawn from the
//! seed), its decode function, and an expansion bound `E` taken from the
//! format. Each row's encodings are mutated four ways — truncation at
//! every offset, single-bit flips, 4- and 8-byte words set to huge
//! values (the length and count fields), and splices of two valid
//! encodings — at least 10 000 times, and every mutation must
//!
//! - return (`catch_unwind` sees no panic; an `Ok` passes the row's own
//!   validity check inside its decode function), and
//! - peak at no more than `E` × input + 1 MiB of allocation, measured by
//!   the counting allocator in `common/alloc.rs`.
//!
//! The rule those decoders share lives in one place,
//! `accelviz_math::Reader::count`: a count read from the input is
//! refused unless the bytes that follow can hold it. The seed is
//! `ACCELVIZ_CHAOS_SEED` (CI runs this file under both of its seeds);
//! a failure names the row, the mutation and the seed. New formats add
//! their row to [`ROWS`].
//!
//! Beside the table, single flips aimed where the checksums look — each
//! quarter of an envelope's payload, each block and trailer field of a
//! v2 frame, a progressive record's body — must each be refused as a
//! checksum mismatch or as corrupt, never accepted and never a panic.

use accelviz::beam::distribution::Distribution;
use accelviz::beam::io::{read_snapshot, snapshot_to_vec};
use accelviz::beam::particle::Particle;
use accelviz::core::hybrid::HybridFrame;
use accelviz::fieldlines::compact::{deserialize_lines, serialize_lines};
use accelviz::fieldlines::line::FieldLine;
use accelviz::math::{Aabb, Vec3};
use accelviz::octree::density::DensityGrid;
use accelviz::octree::plots::PlotType;
use accelviz::octree::store_io::{read_node_file, write_node_file};
use accelviz::serve::error::ServeError;
use accelviz::serve::protocol::{
    read_request, read_response, write_request, write_response, FrameInfo, Request, Response,
};
use accelviz::serve::wire::{
    decode_frame, decode_frame_v2, encode_frame, encode_frame_v2, read_envelope, write_envelope,
    FramePeek,
};
use accelviz::store::codec::{decode_f32s, decode_f64s, encode_f32s, encode_f64s, CodecError};
use accelviz::store::progressive::{
    decode_record, encode_record, Record, RECORD_COARSE, RECORD_DELTA, RECORD_FINAL,
};
use accelviz::store::run::{write_run, RunStore};
use accelviz::trace::hist::{LogHistogram, LATENCY_BUCKETS};
use accelviz::trace::registry::Snapshot;
use alloc::peak_of;
use common::{chaos_seed, stores};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

#[path = "common/alloc.rs"]
mod alloc;
mod common;

/// Mutations each row survives per seed, at least.
const MUTATIONS: usize = 10_000;
/// Allocation every decode may make whatever its input.
const SLACK: usize = 1 << 20;

/// One format under test.
struct Row {
    name: &'static str,
    /// The valid encodings mutations start from, drawn from a seed.
    encodings: fn(&mut Mix) -> Vec<Vec<u8>>,
    /// Decodes one input; `Err` is a refusal, and an `Ok` value that is
    /// not valid for the format panics.
    decode: fn(&[u8]) -> Result<(), String>,
    /// Most bytes of allocation one input byte may cost.
    expansion: usize,
}

const ROWS: &[Row] = &[
    Row {
        name: "v1 frame",
        encodings: v1_frames,
        decode: v1_frame,
        // Raw records: a 48-byte particle per six `f64`s, an `f64` per
        // density, an `f32` per cell.
        expansion: 2,
    },
    Row {
        name: "v2 frame",
        encodings: v2_frames,
        decode: v2_frame,
        // Seven BITPACK columns of 64 values per width byte decode into
        // 104 bytes a point (seven `f64` columns and the 48-byte
        // particle): 104 × 64 / 7 < 1024.
        expansion: 1024,
    },
    Row {
        name: "progressive record",
        encodings: records,
        decode: record,
        // The payload, copied once.
        expansion: 2,
    },
    Row {
        name: "f32 codec block",
        encodings: f32_blocks,
        decode: f32_block,
        // DELTA_VARINT: a two-byte run token is up to 256 cells, so a
        // payload byte decodes to at most 128 four-byte cells: 512.
        expansion: 512,
    },
    Row {
        name: "f64 codec block",
        encodings: f64_blocks,
        decode: f64_block,
        // BITPACK: 64 `f64`s per width byte.
        expansion: 512,
    },
    Row {
        name: "reply",
        encodings: replies,
        decode: reply,
        // A catalog or a stats table expands by less than this.
        expansion: 1024,
    },
    Row {
        name: "request",
        encodings: requests,
        decode: request,
        // Requests size nothing from their content.
        expansion: 2,
    },
    Row {
        name: "envelope",
        encodings: reply_envelopes,
        decode: envelope,
        // The reply row's bound: an envelope carries a reply.
        expansion: 1024,
    },
    Row {
        name: "node blob",
        encodings: node_blobs,
        decode: node_blob,
        // An 88-byte node per 88-byte record.
        expansion: 2,
    },
    Row {
        name: "snapshot",
        encodings: snapshots,
        decode: snapshot,
        // A 48-byte particle per 48-byte record.
        expansion: 2,
    },
    Row {
        name: "line set",
        encodings: line_sets,
        decode: line_set,
        // A 72-byte `FieldLine` per 4-byte empty line; a 16-byte vertex
        // is read as 32 bytes, then kept as 56.
        expansion: 18,
    },
    Row {
        name: "run file",
        encodings: run_files,
        decode: run_file,
        // The directories as bytes and parsed, then one node blob as
        // bytes and parsed.
        expansion: 4,
    },
    Row {
        name: "v2 frame peek",
        encodings: v2_frames,
        decode: v2_peek,
        // The peek sizes nothing; its check decodes the frame as the
        // v2 frame row does.
        expansion: 1024,
    },
];

#[test]
fn v1_frames_are_total() {
    check(&ROWS[0]);
}

#[test]
fn v2_frames_are_total() {
    check(&ROWS[1]);
}

#[test]
fn progressive_records_are_total() {
    check(&ROWS[2]);
}

#[test]
fn f32_codec_blocks_are_total() {
    check(&ROWS[3]);
}

#[test]
fn f64_codec_blocks_are_total() {
    check(&ROWS[4]);
}

#[test]
fn replies_are_total() {
    check(&ROWS[5]);
}

#[test]
fn requests_are_total() {
    check(&ROWS[6]);
}

#[test]
fn envelopes_are_total() {
    check(&ROWS[7]);
}

#[test]
fn node_blobs_are_total() {
    check(&ROWS[8]);
}

#[test]
fn snapshots_are_total() {
    check(&ROWS[9]);
}

#[test]
fn line_sets_are_total() {
    check(&ROWS[10]);
}

#[test]
fn run_files_are_total() {
    check(&ROWS[11]);
}

#[test]
fn v2_frame_peeks_are_total() {
    check(&ROWS[12]);
}

/// Runs every mutation of `row` and fails with the first few that
/// panicked or allocated past the bound.
/// `decode` of `input` under `catch_unwind`: a panic fails the test, and
/// so does anything but the refusal `refused` accepts.
fn refuses<T, E: std::fmt::Debug>(
    what: &str,
    input: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    refused: impl Fn(&E) -> bool,
) {
    match catch_unwind(AssertUnwindSafe(|| decode(input))) {
        Err(_) => panic!("{what}: panicked"),
        Ok(Ok(_)) => panic!("{what}: accepted"),
        Ok(Err(e)) => assert!(refused(&e), "{what}: refused as {e:?}"),
    }
}

/// `bytes` with the byte at `at` flipped.
fn flipped(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    bad[at] ^= 0x41;
    bad
}

fn checksum_or_corrupt(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::ChecksumMismatch { .. } | ServeError::Corrupt(_)
    )
}

#[test]
fn a_flip_in_any_quarter_of_an_envelope_is_refused() {
    let mut rng = Mix(chaos_seed(20_261_017) ^ fnv("envelope quarters"));
    for len in [0usize, 1, 3, 5, 4_097] {
        let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let mut wire = Vec::new();
        write_envelope(&mut wire, 0x83, &payload).unwrap();
        let read = |bytes: &[u8]| read_envelope(&mut &bytes[..]);
        assert_eq!(read(&wire).unwrap().payload(), payload);
        // One byte inside each non-empty quarter of ⌈len/4⌉ bytes, and
        // the first and last bytes of the checksum itself.
        let q = len.div_ceil(4);
        let mut at: Vec<usize> = (0..4)
            .map(|k| k * q + rng.below(q))
            .filter(|&i| i < len)
            .map(|i| 16 + i)
            .collect();
        at.extend([16 + len, 16 + len + 7]);
        for at in at {
            refuses(
                &format!("{len}-byte payload flipped at {at}"),
                &flipped(&wire, at),
                read,
                checksum_or_corrupt,
            );
        }
    }
}

#[test]
fn a_flip_in_any_block_or_trailer_field_of_a_v2_frame_is_refused() {
    let mut rng = Mix(chaos_seed(20_261_017) ^ fnv("v2 frame blocks"));
    for frame in [
        frame(&mut rng, 70, [4, 3, 2]),
        frame(&mut rng, 300, [9, 8, 7]),
    ] {
        let (payload, _) = encode_frame_v2(&frame);
        // The blocks as the encoder laid them out: the 83-byte header,
        // seven column blocks, the grid's 72-byte head and its cells,
        // and the trailer's two words.
        let mut columns: Vec<Vec<f64>> = (0..6)
            .map(|c| frame.points.iter().map(|p| p.to_array()[c]).collect())
            .collect();
        columns.push(frame.point_densities.clone());
        let mut blocks = Vec::new();
        let mut at = 83;
        for col in &columns {
            let len = encode_f64s(col).len();
            blocks.push((format!("column block at {at}"), at, len));
            at += len;
        }
        at += 72;
        let cells = encode_f32s(frame.grid.data()).len();
        blocks.push((format!("grid block at {at}"), at, cells));
        at += cells;
        blocks.push(("trailer length".into(), at, 8));
        blocks.push(("trailer hash".into(), at + 8, 8));
        assert_eq!(at + 16, payload.len(), "block layout");
        for (what, start, len) in blocks {
            for at in [start, start + len / 2, start + len - 1] {
                refuses(
                    &format!("{what} flipped at {at}"),
                    &flipped(&payload, at),
                    decode_frame_v2,
                    checksum_or_corrupt,
                );
            }
        }
    }
}

#[test]
fn a_flip_in_a_record_body_is_refused() {
    let mut rng = Mix(chaos_seed(20_261_017) ^ fnv("record body"));
    let record = encode_record(&Record {
        kind: RECORD_DELTA,
        seq: 1,
        total: 3,
        payload: (0..4_097).map(|_| rng.next() as u8).collect(),
    });
    for at in [
        0,
        5,
        17,
        17 + rng.below(4_097),
        record.len() - 9,
        record.len() - 1,
    ] {
        refuses(
            &format!("record flipped at {at}"),
            &flipped(&record, at),
            decode_record,
            |e| matches!(e, CodecError::Corrupt(_)),
        );
    }
}

fn check(row: &Row) {
    // One row at a time: the allocation counters are process-wide.
    static ONE_ROW: Mutex<()> = Mutex::new(());
    let _alone = ONE_ROW.lock().unwrap_or_else(|e| e.into_inner());
    let seed = chaos_seed(20_261_017);
    let mut rng = Mix(seed ^ fnv(row.name));
    let encodings = (row.encodings)(&mut rng);
    for (i, e) in encodings.iter().enumerate() {
        if let Err(why) = (row.decode)(e) {
            panic!("{}: valid encoding {i} refused: {why}", row.name);
        }
    }
    let mutations = mutations(&encodings, &mut rng);
    assert!(mutations.len() >= MUTATIONS);
    let (mut failures, mut panics, mut refused) = (Vec::new(), 0, 0);
    // The largest peak, and the largest peak per input byte among inputs
    // of a header's size or more (below that, an error message outweighs
    // the input).
    let (mut worst_peak, mut worst_ratio) = (0, 0.0f64);
    for (i, (what, input)) in mutations.iter().enumerate() {
        let (outcome, peak) = peak_of(|| catch_unwind(AssertUnwindSafe(|| (row.decode)(input))));
        worst_peak = worst_peak.max(peak);
        if input.len() >= 24 {
            worst_ratio = worst_ratio.max(peak as f64 / input.len() as f64);
        }
        match outcome {
            Err(_) => {
                panics += 1;
                failures.push(format!("mutation {i} ({what}) panicked"));
            }
            Ok(Err(_)) => refused += 1,
            Ok(Ok(())) => {}
        }
        if peak > row.expansion * input.len() + SLACK {
            failures.push(format!(
                "mutation {i} ({what}) of {} bytes allocated {peak} bytes",
                input.len()
            ));
        }
    }
    println!(
        "{}: seed {seed}, {} mutations, {refused} refused, {panics} panics, \
         worst peak {worst_peak} B, {worst_ratio:.1} B per input byte",
        row.name,
        mutations.len(),
    );
    assert!(
        failures.is_empty(),
        "{} at seed {seed}: {} of {} mutations failed, first: {:#?}",
        row.name,
        failures.len(),
        mutations.len(),
        &failures[..failures.len().min(5)]
    );
}

/// Huge values a length or count field is set to.
const HUGE_U32: [u32; 3] = [u32::MAX, 1 << 31, (1 << 31) - 1];
const HUGE_U64: [u64; 5] = [u64::MAX, 1 << 62, 1 << 40, (1 << 32) + 1, 1 << 24];

/// The mutations of `encodings`: every truncation, then single-bit flips
/// and huge words (all of them, or a seeded sample of a few thousand),
/// then seeded splices until there are at least [`MUTATIONS`].
fn mutations(encodings: &[Vec<u8>], rng: &mut Mix) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (e, bytes) in encodings.iter().enumerate() {
        for at in 0..bytes.len() {
            out.push((format!("encoding {e} cut at {at}"), bytes[..at].to_vec()));
        }
    }
    let bits: Vec<(usize, usize)> = encodings
        .iter()
        .enumerate()
        .flat_map(|(e, b)| (0..b.len() * 8).map(move |bit| (e, bit)))
        .collect();
    for (e, bit) in sample(bits, 4_000, rng) {
        let mut bytes = encodings[e].clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("encoding {e} bit {bit} flipped"), bytes));
    }
    let words: Vec<(usize, usize, u64, usize)> = encodings
        .iter()
        .enumerate()
        .flat_map(|(e, b)| {
            let fours = (0..b.len().saturating_sub(3))
                .flat_map(move |at| HUGE_U32.map(|v| (e, at, u64::from(v), 4)));
            let eights =
                (0..b.len().saturating_sub(7)).flat_map(move |at| HUGE_U64.map(|v| (e, at, v, 8)));
            fours.chain(eights)
        })
        .collect();
    for (e, at, value, width) in sample(words, 3_000, rng) {
        let mut bytes = encodings[e].clone();
        bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        out.push((
            format!("encoding {e} {width}-byte word at {at} set to {value}"),
            bytes,
        ));
    }
    let splices = MUTATIONS.saturating_sub(out.len()).max(1_000);
    for _ in 0..splices {
        let (a, b) = (rng.below(encodings.len()), rng.below(encodings.len()));
        let (i, j) = (
            rng.below(encodings[a].len() + 1),
            rng.below(encodings[b].len() + 1),
        );
        let mut bytes = encodings[a][..i].to_vec();
        bytes.extend_from_slice(&encodings[b][j..]);
        out.push((
            format!("encoding {a} up to {i}, then encoding {b} from {j}"),
            bytes,
        ));
    }
    out
}

/// All of `items` if there are at most `n`, else `n` of them drawn with
/// replacement.
fn sample<T: Copy>(items: Vec<T>, n: usize, rng: &mut Mix) -> Vec<T> {
    if items.len() <= n {
        return items;
    }
    (0..n).map(|_| items[rng.below(items.len())]).collect()
}

/// SplitMix64: every encoding and mutation is a function of the seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a of a row name, so each row draws its own stream from the seed.
fn fnv(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

// ---------------------------------------------------------------------
// Encodings.
// ---------------------------------------------------------------------

/// A small frame: `n` points of smooth phase-space data with sorted
/// densities, and a mostly-zero count grid of `dims`.
fn frame(rng: &mut Mix, n: usize, dims: [usize; 3]) -> HybridFrame {
    let bounds = Aabb {
        min: Vec3::new(-1.0, -2.0, -3.0),
        max: Vec3::new(1.0, 2.0, 3.0),
    };
    let phase = rng.unit();
    let points = (0..n)
        .map(|i| {
            let t = phase + i as f64 * 0.37;
            Particle::from_array([t.sin(), t.cos() * 1e-3, -t.sin(), t * 1e-4, t, -t])
        })
        .collect();
    let point_densities = (0..n).map(|i| 1.0 + (i / 3) as f64).collect();
    let cells = (0..dims.iter().product())
        .map(|_| match rng.below(4) {
            0 => rng.below(40) as f32,
            _ => 0.0,
        })
        .collect();
    HybridFrame {
        step: rng.below(1_000),
        plot: PlotType::FIGURE2[rng.below(4)],
        bounds,
        points,
        point_densities,
        grid: DensityGrid::from_raw(bounds, dims, cells),
        threshold: 2.5,
        discarded: rng.below(10_000) as u64,
    }
}

fn frames(rng: &mut Mix) -> Vec<HybridFrame> {
    vec![
        frame(rng, 0, [1, 1, 1]),
        frame(rng, 5, [2, 2, 2]),
        frame(rng, 70, [4, 3, 2]),
    ]
}

fn v1_frames(rng: &mut Mix) -> Vec<Vec<u8>> {
    frames(rng).iter().map(encode_frame).collect()
}

fn v2_frames(rng: &mut Mix) -> Vec<Vec<u8>> {
    frames(rng).iter().map(|f| encode_frame_v2(f).0).collect()
}

fn records(rng: &mut Mix) -> Vec<Vec<u8>> {
    [RECORD_COARSE, RECORD_DELTA, RECORD_FINAL]
        .iter()
        .enumerate()
        .map(|(seq, &kind)| {
            encode_record(&Record {
                kind,
                seq: seq as u32,
                total: 3,
                payload: (0..rng.below(120)).map(|_| rng.next() as u8).collect(),
            })
        })
        .collect()
}

/// Grids (DELTA_VARINT) and noise (RAW), and a mostly empty volume whose
/// runs decode to more than [`SLACK`], so the row's expansion bound is
/// what holds its peak.
fn f32_blocks(rng: &mut Mix) -> Vec<Vec<u8>> {
    let grid: Vec<f32> = (0..300)
        .map(|_| (rng.below(5) * rng.below(9)) as f32)
        .collect();
    let noise: Vec<f32> = (0..40).map(|_| f32::from_bits(rng.next() as u32)).collect();
    let fractions: Vec<f32> = (0..90).map(|i| i as f32 * 0.25).collect();
    let mut empty = vec![0.0f32; SLACK / 4 + 40_000];
    for _ in 0..24 {
        let at = rng.below(empty.len());
        empty[at] = 1.0 + rng.below(8) as f32;
    }
    vec![
        encode_f32s(&grid),
        encode_f32s(&noise),
        encode_f32s(&fractions),
        encode_f32s(&empty),
    ]
}

/// Runs of repeats (BITPACK) and noise (RAW).
fn f64_blocks(rng: &mut Mix) -> Vec<Vec<u8>> {
    let sorted: Vec<f64> = (0..400).map(|i| (i / 50) as f64 + 0.5).collect();
    let smooth: Vec<f64> = (0..150).map(|i| (i as f64 * 0.01).sin()).collect();
    let noise: Vec<f64> = (0..20).map(|_| f64::from_bits(rng.next())).collect();
    vec![
        encode_f64s(&sorted),
        encode_f64s(&smooth),
        encode_f64s(&noise),
    ]
}

/// A reply or request as its kind byte, then its payload: the form a
/// mutation is applied to before [`sealed`] frames it again.
fn kind_and_payload(envelope: &[u8]) -> Vec<u8> {
    let mut out = vec![envelope[6]];
    out.extend_from_slice(&envelope[16..envelope.len() - 8]);
    out
}

/// `bytes` (kind byte, then payload) in a valid envelope.
fn sealed(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let (&kind, payload) = bytes.split_first().ok_or("no kind byte")?;
    let mut out = Vec::new();
    write_envelope(&mut out, kind, payload).map_err(|e| e.to_string())?;
    Ok(out)
}

fn reply_envelopes(rng: &mut Mix) -> Vec<Vec<u8>> {
    let mut counters = BTreeMap::new();
    for name in ["serve.cache_hits", "serve.frames_served", "z"] {
        counters.insert(name.to_string(), rng.next() % 1000);
    }
    let mut hist = LogHistogram::default();
    hist.counts[rng.below(LATENCY_BUCKETS)] = 3;
    let histograms = BTreeMap::from([("serve.request_latency".to_string(), hist)]);
    let list = (0..3)
        .map(|i| FrameInfo {
            frame: i,
            step: rng.next() % 100,
            particles: 1_000,
            default_threshold: 0.5,
        })
        .collect();
    [
        Response::HelloAck {
            version: 2,
            frame_count: 12,
        },
        Response::FrameList(list),
        Response::Stats(Snapshot {
            counters,
            histograms,
        }),
        Response::Error {
            code: 5,
            message: "busy, retry in 10 ms".into(),
        },
    ]
    .iter()
    .map(|resp| {
        let mut out = Vec::new();
        write_response(&mut out, resp).unwrap();
        out
    })
    .collect()
}

fn replies(rng: &mut Mix) -> Vec<Vec<u8>> {
    reply_envelopes(rng)
        .iter()
        .map(|e| kind_and_payload(e))
        .collect()
}

fn requests(rng: &mut Mix) -> Vec<Vec<u8>> {
    let frame = rng.below(12) as u32;
    [
        Request::Hello { version: 2 },
        Request::ListFrames,
        Request::RequestFrame {
            frame,
            threshold: 0.25,
        },
        Request::Stats,
        Request::RequestFrameProgressive {
            frame,
            threshold: f64::INFINITY,
            chunk_bytes: 4_096,
        },
    ]
    .iter()
    .map(|req| {
        let mut out = Vec::new();
        write_request(&mut out, req).unwrap();
        kind_and_payload(&out)
    })
    .collect()
}

fn node_blobs(rng: &mut Mix) -> Vec<Vec<u8>> {
    let seed = rng.next();
    [40, 400]
        .iter()
        .map(|&n| {
            let ps = Distribution::default_beam().sample(n, seed);
            let data = accelviz::octree::builder::partition(
                &ps,
                PlotType::X_PX_Y,
                accelviz::octree::builder::BuildParams::default(),
            );
            let mut blob = Vec::new();
            write_node_file(&data, &mut blob).unwrap();
            blob
        })
        .collect()
}

fn snapshots(rng: &mut Mix) -> Vec<Vec<u8>> {
    let seed = rng.next();
    [0, 3, 20]
        .iter()
        .map(|&n| snapshot_to_vec(seed % 100, &Distribution::default_beam().sample(n, seed)))
        .collect()
}

fn line_sets(rng: &mut Mix) -> Vec<Vec<u8>> {
    let lines: Vec<FieldLine> = (0..4)
        .map(|l| {
            let mut line = FieldLine::new();
            for i in 0..rng.below(12) {
                let t = i as f64 * 0.2;
                line.push(Vec3::new(t, l as f64, t.sin()), Vec3::UNIT_X, 1.0 + t);
            }
            line
        })
        .collect();
    [&lines[..0], &lines[..1], &lines[..]]
        .iter()
        .map(|set| {
            let mut out = Vec::new();
            serialize_lines(&mut out, set).unwrap();
            out
        })
        .collect()
}

fn run_files(rng: &mut Mix) -> Vec<Vec<u8>> {
    let particles = 10 + rng.below(20);
    [1, 2]
        .iter()
        .map(|&n| {
            let mut out = Vec::new();
            write_run(&mut out, &stores(n, particles), 480).unwrap();
            out
        })
        .collect()
}

// ---------------------------------------------------------------------
// Decoders, each with its check of a value it accepted.
// ---------------------------------------------------------------------

fn v1_frame(bytes: &[u8]) -> Result<(), String> {
    let frame = decode_frame(bytes).map_err(|e| e.to_string())?;
    // The v1 layout is canonical: what decodes re-encodes to its bytes.
    assert_eq!(encode_frame(&frame), bytes, "a v1 frame decoded lossily");
    Ok(())
}

fn v2_frame(bytes: &[u8]) -> Result<(), String> {
    // An `Ok` passed the trailer over the decoded frame.
    decode_frame_v2(bytes).map(drop).map_err(|e| e.to_string())
}

/// A router's read of a reply it forwards: the step and the raw length,
/// nothing decoded.
fn v2_peek(bytes: &[u8]) -> Result<(), String> {
    let peek = FramePeek::read(bytes).map_err(|e| e.to_string())?;
    // Where the whole payload decodes, the peek read what the decoder did.
    if let Ok(frame) = decode_frame_v2(bytes) {
        let decoded = FramePeek {
            step: frame.step as u64,
            raw_len: encode_frame(&frame).len() as u64,
        };
        assert_eq!(peek, decoded, "a peek disagreed with the decoder");
    }
    Ok(())
}

fn record(bytes: &[u8]) -> Result<(), String> {
    // An `Ok` passed the record's checksum.
    decode_record(bytes).map(drop).map_err(|e| e.to_string())
}

/// The element count a codec block claims: the varint after its codec
/// byte.
fn claimed_count(block: &[u8]) -> Result<usize, String> {
    let mut count = 0u64;
    for (i, &b) in block.iter().skip(1).take(10).enumerate() {
        count |= u64::from(b & 0x7f).checked_shl(7 * i as u32).unwrap_or(0);
        if b < 0x80 {
            return Ok(count as usize);
        }
    }
    Err("no count".into())
}

/// Decodes a block at the count it claims, so an inflated count reaches
/// the codec's own check.
fn f32_block(bytes: &[u8]) -> Result<(), String> {
    let claimed = claimed_count(bytes)?;
    let values = decode_f32s(bytes, &mut 0, claimed).map_err(|e| e.to_string())?;
    assert_eq!(values.len(), claimed, "an f32 block decoded short or long");
    Ok(())
}

fn f64_block(bytes: &[u8]) -> Result<(), String> {
    let claimed = claimed_count(bytes)?;
    let values = decode_f64s(bytes, &mut 0, claimed).map_err(|e| e.to_string())?;
    assert_eq!(values.len(), claimed, "an f64 block decoded short or long");
    Ok(())
}

fn reply(bytes: &[u8]) -> Result<(), String> {
    let envelope = sealed(bytes)?;
    read_response(&mut envelope.as_slice())
        .map(drop)
        .map_err(|e| e.to_string())
}

fn request(bytes: &[u8]) -> Result<(), String> {
    let envelope = sealed(bytes)?;
    read_request(&mut envelope.as_slice())
        .map(drop)
        .map_err(|e| e.to_string())
}

fn envelope(bytes: &[u8]) -> Result<(), String> {
    read_response(&mut &bytes[..])
        .map(drop)
        .map_err(|e| e.to_string())
}

fn node_blob(bytes: &[u8]) -> Result<(), String> {
    let mut rest = bytes;
    let (tree, _) = read_node_file(&mut rest).map_err(|e| e.to_string())?;
    assert_eq!(
        rest.len() + 72 + 88 * tree.nodes.len(),
        bytes.len(),
        "a node blob consumed other than its records"
    );
    Ok(())
}

fn snapshot(bytes: &[u8]) -> Result<(), String> {
    let mut rest = bytes;
    let (_, particles) = read_snapshot(&mut rest).map_err(|e| e.to_string())?;
    assert_eq!(
        rest.len() + 24 + 48 * particles.len(),
        bytes.len(),
        "a snapshot consumed other than its records"
    );
    Ok(())
}

fn line_set(bytes: &[u8]) -> Result<(), String> {
    deserialize_lines(&mut &bytes[..])
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Where the run-file row writes each input.
fn run_path() -> PathBuf {
    std::env::temp_dir().join(format!("accelviz-decoders-total-{}", std::process::id()))
}

fn run_file(bytes: &[u8]) -> Result<(), String> {
    let path = run_path();
    std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
    let outcome = RunStore::open(&path)
        .and_then(|store| (0..store.frame_count()).try_for_each(|i| store.read_tree(i).map(drop)));
    let _ = std::fs::remove_file(&path);
    outcome.map_err(|e| e.to_string())
}

//! Deterministic fault injection for the frame service.
//!
//! Real links stall, reset, and corrupt; a resilience layer that is only
//! exercised by luck is not tested at all. This module makes faults a
//! *scheduled, seeded input*: a [`FaultPlan`] lists exactly which byte
//! offset of the connection suffers which [`FaultKind`], a [`FaultScript`]
//! tracks the plan's progress across reconnects, and [`FaultyTransport`]
//! wraps any `Read + Write` stream and fires the scheduled faults as the
//! bytes flow. The same seed always produces the same plan, so a chaos
//! run that fails is a chaos run that reproduces.
//!
//! Faults enter at one seam, the client's connector: a test or chaos
//! harness dials through [`crate::client::FaultyConnector`], and servers
//! and routers only ever speak over bare `TcpStream`s, so production pays
//! nothing. A fault on the server's side of a link is the same plan with
//! its directions swapped: what the server writes, the client reads.
//!
//! Every injected fault is counted in the script's [`FaultStats`] and
//! mirrored to `fault.*` counters on the global
//! [`accelviz_trace`] registry, so a Chrome trace of a chaos run shows
//! what was injected next to how the pipeline coped.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Global-registry counter: injected read/write delays.
pub const CTR_FAULT_DELAYS: &str = "fault.delays";
/// Global-registry counter: injected mid-message disconnects.
pub const CTR_FAULT_DISCONNECTS: &str = "fault.disconnects";
/// Global-registry counter: injected truncations (peer-close mid-message).
pub const CTR_FAULT_TRUNCATIONS: &str = "fault.truncations";
/// Global-registry counter: injected single-bit corruptions.
pub const CTR_FAULT_BIT_FLIPS: &str = "fault.bit_flips";

/// What goes wrong when a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The link stalls for the given duration before delivering the byte.
    Delay(Duration),
    /// The connection drops hard: the operation fails with
    /// `ConnectionReset` and every later operation on this transport
    /// fails the same way.
    Disconnect,
    /// The peer appears to close cleanly mid-message: reads return EOF
    /// from the scheduled offset on, writes fail with `BrokenPipe`.
    Truncate,
    /// The byte at the scheduled offset has one bit flipped (the wire
    /// checksum is expected to catch it downstream).
    FlipBit(u8),
}

/// Which half of the stream a fault applies to, counted in that
/// direction's cumulative bytes across the whole session (reconnects
/// continue the count — the plan describes the *link*, not one socket).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDirection {
    /// Bytes flowing into the wrapped side (`read`).
    Read,
    /// Bytes flowing out of the wrapped side (`write`).
    Write,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug)]
pub struct FaultEvent {
    /// Stream half the fault applies to.
    pub direction: FaultDirection,
    /// Cumulative byte offset in that half at which the fault fires.
    pub at_byte: u64,
    /// What happens there.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults. Build one explicitly with
/// [`FaultPlan::new`] or generate a seeded chaos mix with
/// [`FaultPlan::chaos`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// SplitMix64 — the plan generator's only randomness, fully determined
/// by the seed.
fn splitmix64(state: &mut u64) -> u64 {
    let out = accelviz_core::shard::splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

impl FaultPlan {
    /// A plan firing exactly `events` (sorted by offset per direction).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at_byte);
        FaultPlan { events }
    }

    /// A seeded chaos mix of `faults >= 3` events spread over a link
    /// expected to carry about `byte_span` bytes in the faulted
    /// direction. The first three events are guaranteed to be one delay,
    /// one disconnect, and one truncation, placed in the first half of
    /// the span so a session that runs to completion provably survived
    /// all three; the rest are drawn uniformly from all four kinds. The
    /// same `(seed, faults, byte_span)` always yields the same plan.
    pub fn chaos(seed: u64, faults: usize, byte_span: u64) -> FaultPlan {
        assert!(
            faults >= 3,
            "a chaos plan needs room for all three mandatory faults"
        );
        let span = byte_span.max(64);
        let mut s = seed ^ 0xC4A0_5CA7_A5C4_0FEE;
        let mut events = Vec::with_capacity(faults);
        // Mandatory trio, early enough to certainly fire.
        let early = |s: &mut u64| span / 8 + splitmix64(s) % (span / 2 - span / 8).max(1);
        for kind in [
            FaultKind::Delay(Duration::from_millis(1 + splitmix64(&mut s) % 8)),
            FaultKind::Disconnect,
            FaultKind::Truncate,
        ] {
            events.push(FaultEvent {
                direction: FaultDirection::Read,
                at_byte: early(&mut s),
                kind,
            });
        }
        for _ in 3..faults {
            let kind = match splitmix64(&mut s) % 4 {
                0 => FaultKind::Delay(Duration::from_millis(1 + splitmix64(&mut s) % 8)),
                1 => FaultKind::Disconnect,
                2 => FaultKind::Truncate,
                _ => FaultKind::FlipBit((splitmix64(&mut s) % 8) as u8),
            };
            // Bit flips only corrupt the inbound half: a flipped *request*
            // byte is rejected server-side as ERR_BAD_REQUEST, which a
            // client correctly treats as its own fatal bug — the chaos
            // generator must only schedule faults resilience can heal.
            let direction =
                if matches!(kind, FaultKind::FlipBit(_)) || !splitmix64(&mut s).is_multiple_of(4) {
                    FaultDirection::Read
                } else {
                    FaultDirection::Write
                };
            events.push(FaultEvent {
                direction,
                at_byte: 16 + splitmix64(&mut s) % span,
                kind,
            });
        }
        FaultPlan::new(events)
    }

    /// The scheduled events, sorted by offset.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Turns the plan into a shareable runtime script (one per session;
    /// hand clones of the `Arc` to every transport the session opens).
    pub fn script(self) -> Arc<FaultScript> {
        Arc::new(FaultScript::new(self))
    }
}

/// How many faults of each kind have actually fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Delays slept.
    pub delays: u64,
    /// Hard disconnects injected.
    pub disconnects: u64,
    /// Truncations injected.
    pub truncations: u64,
    /// Bits flipped.
    pub bit_flips: u64,
}

impl FaultStats {
    /// Total faults fired.
    pub fn total(&self) -> u64 {
        self.delays + self.disconnects + self.truncations + self.bit_flips
    }
}

struct Lane {
    queue: VecDeque<(u64, FaultKind)>,
    pos: u64,
}

struct ScriptState {
    read: Lane,
    write: Lane,
    stats: FaultStats,
}

/// The runtime state of a [`FaultPlan`]: per-direction event queues and
/// cumulative byte positions that survive reconnects, plus the fired-fault
/// statistics. Shared (`Arc`) between every [`FaultyTransport`] of one
/// session.
pub struct FaultScript {
    inner: Mutex<ScriptState>,
}

impl FaultScript {
    /// A fresh script at byte position zero in both directions.
    pub fn new(plan: FaultPlan) -> FaultScript {
        let lane = |dir: FaultDirection| Lane {
            queue: plan
                .events
                .iter()
                .filter(|e| e.direction == dir)
                .map(|e| (e.at_byte, e.kind))
                .collect(),
            pos: 0,
        };
        FaultScript {
            inner: Mutex::new(ScriptState {
                read: lane(FaultDirection::Read),
                write: lane(FaultDirection::Write),
                stats: FaultStats::default(),
            }),
        }
    }

    /// Faults fired so far.
    pub fn stats(&self) -> FaultStats {
        self.lock().stats
    }

    /// Scheduled faults that have not fired yet.
    pub fn remaining(&self) -> usize {
        let g = self.lock();
        g.read.queue.len() + g.write.queue.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ScriptState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn count(stats: &mut FaultStats, kind: FaultKind) {
        let (field, ctr) = match kind {
            FaultKind::Delay(_) => (&mut stats.delays, CTR_FAULT_DELAYS),
            FaultKind::Disconnect => (&mut stats.disconnects, CTR_FAULT_DISCONNECTS),
            FaultKind::Truncate => (&mut stats.truncations, CTR_FAULT_TRUNCATIONS),
            FaultKind::FlipBit(_) => (&mut stats.bit_flips, CTR_FAULT_BIT_FLIPS),
        };
        *field += 1;
        accelviz_trace::global().add(ctr, 1);
    }
}

/// Why a transport stopped working after an injected fault.
#[derive(Clone, Copy, Debug)]
enum Poison {
    /// Hard reset: every later operation fails `ConnectionReset`.
    Reset,
    /// Clean peer close: reads return EOF, writes fail `BrokenPipe`.
    Closed,
}

impl Poison {
    /// What a write (or flush) on a transport poisoned this way fails with.
    fn write_error(self) -> io::Error {
        match self {
            Poison::Reset => reset_err(),
            Poison::Closed => broken_err(),
        }
    }
}

/// A `Read + Write` wrapper that fires the faults its shared
/// [`FaultScript`] schedules. Wrap a `TcpStream` (or an in-memory pipe in
/// unit tests) and use it wherever the bare stream went.
pub struct FaultyTransport<S> {
    inner: S,
    script: Arc<FaultScript>,
    poison: Option<Poison>,
}

impl<S> FaultyTransport<S> {
    /// Wraps `inner`, drawing faults from `script`.
    pub fn new(inner: S, script: Arc<FaultScript>) -> FaultyTransport<S> {
        FaultyTransport {
            inner,
            script,
            poison: None,
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

fn reset_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        "injected fault: connection reset",
    )
}

fn broken_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::BrokenPipe,
        "injected fault: peer closed the stream",
    )
}

impl<S: Read> Read for FaultyTransport<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.poison {
            Some(Poison::Reset) => return Err(reset_err()),
            Some(Poison::Closed) => return Ok(0),
            None => {}
        }
        // Faults already due at the current offset fire before we block
        // on the inner stream — a disconnect scheduled "now" must not
        // wait for the peer to send more data first.
        loop {
            let due = {
                let mut g = self.script.lock();
                match g.read.queue.front().copied() {
                    Some((at, kind))
                        if at <= g.read.pos && !matches!(kind, FaultKind::FlipBit(_)) =>
                    {
                        g.read.queue.pop_front();
                        let ScriptState { stats, .. } = &mut *g;
                        FaultScript::count(stats, kind);
                        Some(kind)
                    }
                    _ => None,
                }
            };
            match due {
                Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                Some(FaultKind::Disconnect) => {
                    self.poison = Some(Poison::Reset);
                    return Err(reset_err());
                }
                Some(FaultKind::Truncate) => {
                    self.poison = Some(Poison::Closed);
                    return Ok(0);
                }
                Some(FaultKind::FlipBit(_)) => unreachable!("flips are applied post-read"),
                None => break,
            }
        }
        let n = self.inner.read(buf)?;
        if n == 0 {
            return Ok(0);
        }
        // Now fire everything scheduled inside the chunk we just read.
        let mut delay = Duration::ZERO;
        let mut keep = n;
        {
            let mut g = self.script.lock();
            let pos = g.read.pos;
            while let Some(&(at, kind)) = g.read.queue.front() {
                if at >= pos + keep as u64 {
                    break;
                }
                g.read.queue.pop_front();
                let ScriptState { stats, .. } = &mut *g;
                FaultScript::count(stats, kind);
                let idx = at.saturating_sub(pos) as usize;
                match kind {
                    FaultKind::Delay(d) => delay += d,
                    FaultKind::FlipBit(bit) => buf[idx.min(keep - 1)] ^= 1 << (bit % 8),
                    FaultKind::Disconnect => {
                        keep = idx;
                        self.poison = Some(Poison::Reset);
                        break;
                    }
                    FaultKind::Truncate => {
                        keep = idx;
                        self.poison = Some(Poison::Closed);
                        break;
                    }
                }
            }
            g.read.pos = pos + keep as u64;
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        match (keep, self.poison) {
            (0, Some(Poison::Reset)) => Err(reset_err()),
            (0, Some(Poison::Closed)) => Ok(0),
            _ => Ok(keep),
        }
    }
}

impl<S: Write> Write for FaultyTransport<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(poison) = self.poison {
            return Err(poison.write_error());
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        // Decide what this call does while holding the lock, then touch
        // the inner stream outside it: after `delay`, pass the first `n`
        // bytes (with one bit flipped, unless a cut fired), then poison
        // the transport if a disconnect or truncation cut the write.
        let (n, delay, flip, cut) = {
            let mut g = self.script.lock();
            let pos = g.write.pos;
            let (mut delay, mut flip, mut cut) = (Duration::ZERO, None, None);
            while let Some(&(at, kind)) = g.write.queue.front() {
                if at >= pos + buf.len() as u64 || cut.is_some() {
                    break;
                }
                g.write.queue.pop_front();
                let ScriptState { stats, .. } = &mut *g;
                FaultScript::count(stats, kind);
                let idx = at.saturating_sub(pos) as usize;
                match kind {
                    FaultKind::Delay(d) => delay += d,
                    FaultKind::FlipBit(bit) => flip = Some((idx.min(buf.len() - 1), bit % 8)),
                    FaultKind::Disconnect => cut = Some((idx, Poison::Reset)),
                    FaultKind::Truncate => cut = Some((idx, Poison::Closed)),
                }
            }
            let n = cut.map_or(buf.len(), |(idx, _)| idx);
            g.write.pos = pos + n as u64;
            (n, delay, flip, cut)
        };
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        match (flip, cut) {
            (Some((idx, bit)), None) => {
                let mut corrupted = buf[..n].to_vec();
                corrupted[idx] ^= 1 << bit;
                self.inner.write_all(&corrupted)?;
            }
            _ => self.inner.write_all(&buf[..n])?,
        }
        match cut {
            Some((0, poison)) => {
                self.poison = Some(poison);
                Err(poison.write_error())
            }
            Some((_, poison)) => {
                self.poison = Some(poison);
                Ok(n)
            }
            None => Ok(n),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.poison {
            Some(poison) => Err(poison.write_error()),
            None => self.inner.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn plan(events: Vec<FaultEvent>) -> Arc<FaultScript> {
        FaultPlan::new(events).script()
    }

    fn read_event(at_byte: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            direction: FaultDirection::Read,
            at_byte,
            kind,
        }
    }

    #[test]
    fn chaos_plans_are_deterministic_per_seed() {
        let a = FaultPlan::chaos(7, 10, 100_000);
        let b = FaultPlan::chaos(7, 10, 100_000);
        let c = FaultPlan::chaos(8, 10, 100_000);
        let key = |p: &FaultPlan| -> Vec<(u64, bool)> {
            p.events()
                .iter()
                .map(|e| (e.at_byte, e.direction == FaultDirection::Read))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c), "different seeds must differ");
        assert_eq!(a.events().len(), 10);
        // The mandatory trio is present and early.
        let kinds: Vec<_> = a.events().iter().map(|e| e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, FaultKind::Delay(_))));
        assert!(kinds.contains(&FaultKind::Disconnect));
        assert!(kinds.contains(&FaultKind::Truncate));
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let data = vec![0u8; 16];
        let script = plan(vec![read_event(5, FaultKind::FlipBit(3))]);
        let mut t = FaultyTransport::new(Cursor::new(data), Arc::clone(&script));
        let mut out = [0u8; 16];
        let mut filled = 0;
        while filled < 16 {
            filled += t.read(&mut out[filled..]).unwrap();
        }
        assert_eq!(out[5], 1 << 3);
        assert!(out.iter().enumerate().all(|(i, &b)| i == 5 || b == 0));
        assert_eq!(script.stats().bit_flips, 1);
    }

    #[test]
    fn disconnect_cuts_the_stream_and_poisons_it() {
        let data = vec![7u8; 32];
        let script = plan(vec![read_event(10, FaultKind::Disconnect)]);
        let mut t = FaultyTransport::new(Cursor::new(data), Arc::clone(&script));
        let mut out = vec![0u8; 32];
        let n = t.read(&mut out).unwrap();
        assert_eq!(n, 10, "bytes before the fault still arrive");
        let err = t.read(&mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Writes on the poisoned transport fail the same way.
        assert_eq!(
            t.write(b"x").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(script.stats().disconnects, 1);
    }

    #[test]
    fn truncation_is_a_clean_eof_mid_stream() {
        let data = vec![9u8; 32];
        let script = plan(vec![read_event(4, FaultKind::Truncate)]);
        let mut t = FaultyTransport::new(Cursor::new(data), Arc::clone(&script));
        let mut out = vec![0u8; 32];
        assert_eq!(t.read(&mut out).unwrap(), 4);
        assert_eq!(t.read(&mut out).unwrap(), 0, "EOF from the cut on");
        assert_eq!(t.read(&mut out).unwrap(), 0);
        assert_eq!(t.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(script.stats().truncations, 1);
    }

    #[test]
    fn delays_fire_once_and_data_is_untouched() {
        let data: Vec<u8> = (0..20).collect();
        let script = plan(vec![read_event(
            3,
            FaultKind::Delay(Duration::from_millis(5)),
        )]);
        let mut t = FaultyTransport::new(Cursor::new(data.clone()), Arc::clone(&script));
        let t0 = std::time::Instant::now();
        let mut out = vec![0u8; 20];
        let mut filled = 0;
        while filled < 20 {
            filled += t.read(&mut out[filled..]).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_millis(4));
        assert_eq!(out, data, "a delay never corrupts");
        assert_eq!(script.stats().delays, 1);
        assert_eq!(script.remaining(), 0);
    }

    #[test]
    fn write_faults_hit_the_outbound_half() {
        let script = plan(vec![FaultEvent {
            direction: FaultDirection::Write,
            at_byte: 6,
            kind: FaultKind::Disconnect,
        }]);
        let mut t = FaultyTransport::new(Cursor::new(Vec::new()), Arc::clone(&script));
        assert_eq!(t.write(&[1u8; 6]).unwrap(), 6);
        let err = t.write(&[2u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(
            t.get_ref().get_ref().len(),
            6,
            "nothing past the fault leaks out"
        );
        assert_eq!(script.stats().disconnects, 1);
    }

    #[test]
    fn positions_continue_across_transports() {
        // The script describes the link; a reconnect (new transport, same
        // script) keeps counting where the old one stopped.
        let script = plan(vec![
            read_event(4, FaultKind::Disconnect),
            read_event(10, FaultKind::FlipBit(0)),
        ]);
        let mut a = FaultyTransport::new(Cursor::new(vec![0u8; 8]), Arc::clone(&script));
        let mut buf = [0u8; 8];
        assert_eq!(a.read(&mut buf).unwrap(), 4);
        assert!(a.read(&mut buf).is_err());
        // New transport: 4 bytes already consumed, flip lands at link
        // offset 10 = 6 bytes into this stream.
        let mut b = FaultyTransport::new(Cursor::new(vec![0u8; 12]), Arc::clone(&script));
        let mut out = [0u8; 12];
        let mut filled = 0;
        while filled < 12 {
            filled += b.read(&mut out[filled..]).unwrap();
        }
        assert_eq!(out[6], 1, "flip offset is link-cumulative");
        assert_eq!(script.stats().total(), 2);
    }
}

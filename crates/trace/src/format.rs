//! The versioned binary trace format (`.vxtr`) for recorded per-warp
//! event streams — the on-disk half of the record/replay engine.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    4 B   "VXTR"
//! version  u32   TRACE_FORMAT_VERSION
//! key      u64   caller-provided identity (see `docs/TRACE.md` keying)
//! flags    u32   bit 0 = tainted (run read a timing CSR)
//! cores    u32   recording topology
//! warps    u32   warps per core
//! launches u32   launch records (one per kernel phase)
//! length   u32   payload bytes
//! digest   u64   FNV-1a/64 over the payload bytes
//! payload        launches × (cores·warps) streams, each:
//!                  count u32, then `count` tagged events
//! ```
//!
//! Event encoding: tag `u8`, then the operands —
//! `0` Ctl (`next_pc u32`, `tmask u32`), `1` Halt, `2` Wspawn
//! (`count u32`, `target u32`), `3` Bar (`id u32`, `count u32`),
//! `4` MemSpan (`addr0 u32`, `last u32`, `store u8`), `5` MemLanes
//! (`n u8`, `n × addr u32`, `store u8`).
//!
//! The reader is truncation-tolerant: any byte-level damage — short
//! file, bad magic, foreign version, payload digest mismatch, an
//! unknown tag — yields a clean [`TraceDecodeError`], never a panic and
//! never a silently partial trace. A decoded trace is always complete.

use std::error::Error;
use std::fmt;

use vortex_sim::{LaunchRecord, RecordedTrace, WarpEvent};

/// Version stamp of the `.vxtr` byte format. Bump on **any** layout
/// change; readers reject other versions outright (re-recording a trace
/// is always cheaper than a misdecoded one).
pub const TRACE_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"VXTR";
const HEADER_LEN: usize = 4 + 4 + 8 + 4 + 4 + 4 + 4 + 4 + 8;

/// Why a byte buffer failed to decode as a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The buffer does not start with the `VXTR` magic.
    BadMagic,
    /// The file was written by a different format version.
    VersionMismatch {
        /// The version found in the header.
        found: u32,
    },
    /// The buffer ends before the structure it promises.
    Truncated,
    /// The payload digest does not match the header (bit rot or a
    /// torn write that slipped past the atomic-rename path).
    DigestMismatch,
    /// An event tag or operand is out of range.
    Corrupt,
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::BadMagic => f.write_str("not a VXTR trace file"),
            TraceDecodeError::VersionMismatch { found } => write!(
                f,
                "trace format version {found} (this build reads {TRACE_FORMAT_VERSION}); re-record"
            ),
            TraceDecodeError::Truncated => f.write_str("trace file truncated"),
            TraceDecodeError::DigestMismatch => f.write_str("trace payload digest mismatch"),
            TraceDecodeError::Corrupt => f.write_str("trace payload corrupt"),
        }
    }
}

impl Error for TraceDecodeError {}

/// FNV-1a/64 over `bytes` (the same function the campaign store keys
/// with, duplicated here so the format crate stays dependency-free).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn event_bytes(out: &mut Vec<u8>, ev: &WarpEvent) {
    match ev {
        WarpEvent::Ctl { next_pc, tmask } => {
            out.push(0);
            put_u32(out, *next_pc);
            put_u32(out, *tmask);
        }
        WarpEvent::Halt => out.push(1),
        WarpEvent::Wspawn { count, target } => {
            out.push(2);
            put_u32(out, *count);
            put_u32(out, *target);
        }
        WarpEvent::Bar { id, count } => {
            out.push(3);
            put_u32(out, *id);
            put_u32(out, *count);
        }
        WarpEvent::MemSpan { addr0, last, store } => {
            out.push(4);
            put_u32(out, *addr0);
            put_u32(out, *last);
            out.push(u8::from(*store));
        }
        WarpEvent::MemLanes { addrs, store } => {
            out.push(5);
            debug_assert!(addrs.len() <= 32, "SIMT width bounds the lane set");
            out.push(addrs.len() as u8);
            for &a in addrs {
                put_u32(out, a);
            }
            out.push(u8::from(*store));
        }
    }
}

/// Serialises `trace` under identity `key` into a self-describing,
/// digest-protected byte buffer.
pub fn encode_trace(key: u64, trace: &RecordedTrace) -> Vec<u8> {
    let mut payload = Vec::new();
    for launch in &trace.launches {
        for stream in launch.streams() {
            put_u32(&mut payload, stream.len() as u32);
            for ev in stream {
                event_bytes(&mut payload, ev);
            }
        }
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, TRACE_FORMAT_VERSION);
    out.extend_from_slice(&key.to_le_bytes());
    put_u32(&mut out, u32::from(trace.tainted));
    put_u32(&mut out, trace.cores as u32);
    put_u32(&mut out, trace.warps as u32);
    put_u32(&mut out, trace.launches.len() as u32);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A bounds-checked little-endian reader over the payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, TraceDecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(TraceDecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, TraceDecodeError> {
        let end = self.pos.checked_add(4).ok_or(TraceDecodeError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(TraceDecodeError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    fn event(&mut self) -> Result<WarpEvent, TraceDecodeError> {
        Ok(match self.u8()? {
            0 => WarpEvent::Ctl { next_pc: self.u32()?, tmask: self.u32()? },
            1 => WarpEvent::Halt,
            2 => WarpEvent::Wspawn { count: self.u32()?, target: self.u32()? },
            3 => WarpEvent::Bar { id: self.u32()?, count: self.u32()? },
            4 => WarpEvent::MemSpan { addr0: self.u32()?, last: self.u32()?, store: self.bool()? },
            5 => {
                let n = self.u8()? as usize;
                if n > 32 {
                    return Err(TraceDecodeError::Corrupt);
                }
                let mut addrs = Vec::with_capacity(n);
                for _ in 0..n {
                    addrs.push(self.u32()?);
                }
                WarpEvent::MemLanes { addrs, store: self.bool()? }
            }
            _ => return Err(TraceDecodeError::Corrupt),
        })
    }

    fn bool(&mut self) -> Result<bool, TraceDecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TraceDecodeError::Corrupt),
        }
    }
}

/// Decodes a buffer produced by [`encode_trace`], returning the stored
/// key alongside the trace. The caller compares the key against the one
/// it expects — a mismatch means the file belongs to a different
/// (program, data, mapping, engine version) identity and must not be
/// replayed.
///
/// # Errors
///
/// Any structural damage decodes to a [`TraceDecodeError`]; no partial
/// trace is ever returned.
pub fn decode_trace(bytes: &[u8]) -> Result<(u64, RecordedTrace), TraceDecodeError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= 4 && &bytes[..4] != MAGIC {
            return Err(TraceDecodeError::BadMagic);
        }
        return Err(TraceDecodeError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(TraceDecodeError::BadMagic);
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("header word"));
    let version = word(4);
    if version != TRACE_FORMAT_VERSION {
        return Err(TraceDecodeError::VersionMismatch { found: version });
    }
    let key = u64::from_le_bytes(bytes[8..16].try_into().expect("header key"));
    let flags = word(16);
    if flags > 1 {
        return Err(TraceDecodeError::Corrupt);
    }
    let cores = word(20) as usize;
    let warps = word(24) as usize;
    let launches = word(28) as usize;
    let payload_len = word(32) as usize;
    let digest = u64::from_le_bytes(bytes[36..44].try_into().expect("header digest"));
    // The header is outside the digest, and these three words size the
    // allocations below: every stream costs at least its 4-byte count, so
    // a shape the payload cannot hold is damage, not a large trace.
    let min_payload = cores
        .checked_mul(warps)
        .and_then(|streams| streams.checked_mul(launches))
        .and_then(|streams| streams.checked_mul(4));
    if cores == 0 || warps == 0 || min_payload.is_none_or(|min| min > payload_len) {
        return Err(TraceDecodeError::Corrupt);
    }
    let payload =
        bytes.get(HEADER_LEN..HEADER_LEN + payload_len).ok_or(TraceDecodeError::Truncated)?;
    if fnv64(payload) != digest {
        return Err(TraceDecodeError::DigestMismatch);
    }

    let mut r = Reader { bytes: payload, pos: 0 };
    let mut trace = RecordedTrace {
        cores,
        warps,
        tainted: flags & 1 != 0,
        launches: Vec::with_capacity(launches),
    };
    for _ in 0..launches {
        let mut streams = Vec::with_capacity(cores * warps);
        for _ in 0..cores * warps {
            let count = r.u32()? as usize;
            let mut stream = Vec::with_capacity(count.min(payload.len()));
            for _ in 0..count {
                stream.push(r.event()?);
            }
            streams.push(stream);
        }
        trace.launches.push(LaunchRecord::from_streams(warps, streams));
    }
    if r.pos != payload.len() {
        // Trailing garbage protected by the digest would mean the writer
        // and reader disagree on the structure.
        return Err(TraceDecodeError::Corrupt);
    }
    Ok((key, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecordedTrace {
        let mut rec = LaunchRecord::new(2, 2);
        rec.push(0, 0, WarpEvent::Ctl { next_pc: 0x8000_0010, tmask: 0xF });
        rec.push(0, 0, WarpEvent::MemSpan { addr0: 0x1000, last: 0x103C, store: false });
        rec.push(0, 1, WarpEvent::Wspawn { count: 2, target: 0x8000_0000 });
        rec.push(1, 0, WarpEvent::Bar { id: 0, count: 2 });
        rec.push(1, 1, WarpEvent::MemLanes { addrs: vec![0x2000, 0x2100, 0x2040], store: true });
        rec.push(1, 1, WarpEvent::Halt);
        let mut second = LaunchRecord::new(2, 2);
        second.push(0, 0, WarpEvent::Halt);
        RecordedTrace { cores: 2, warps: 2, tainted: false, launches: vec![rec, second] }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let trace = sample();
        let bytes = encode_trace(0xDEAD_BEEF_0123_4567, &trace);
        let (key, decoded) = decode_trace(&bytes).unwrap();
        assert_eq!(key, 0xDEAD_BEEF_0123_4567);
        assert_eq!(decoded, trace);
    }

    #[test]
    fn tainted_flag_survives() {
        let mut trace = sample();
        trace.tainted = true;
        let (_, decoded) = decode_trace(&encode_trace(1, &trace)).unwrap();
        assert!(decoded.tainted);
    }

    #[test]
    fn header_golden_bytes() {
        // Pin the exact header layout: any byte-level drift is a format
        // change and must bump TRACE_FORMAT_VERSION.
        let bytes = encode_trace(0x0102_0304_0506_0708, &sample());
        assert_eq!(&bytes[..4], b"VXTR");
        assert_eq!(bytes[4..8], 1u32.to_le_bytes());
        assert_eq!(bytes[8..16], 0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(bytes[16..20], 0u32.to_le_bytes()); // untainted
        assert_eq!(bytes[20..24], 2u32.to_le_bytes()); // cores
        assert_eq!(bytes[24..28], 2u32.to_le_bytes()); // warps
        assert_eq!(bytes[28..32], 2u32.to_le_bytes()); // launches
                                                       // Golden payload digest: pins the event encoding end to end.
        let payload_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        assert_eq!(HEADER_LEN + payload_len, bytes.len());
        let digest = u64::from_le_bytes(bytes[36..44].try_into().unwrap());
        assert_eq!(digest, fnv64(&bytes[HEADER_LEN..]));
        assert_eq!(digest, 0xdad9_d81e_c36d_fee0, "payload encoding drifted");
    }

    #[test]
    fn foreign_versions_are_rejected() {
        let mut bytes = encode_trace(7, &sample());
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode_trace(&bytes).unwrap_err(),
            TraceDecodeError::VersionMismatch { found: 2 }
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_trace(7, &sample());
        bytes[0] = b'X';
        assert_eq!(decode_trace(&bytes).unwrap_err(), TraceDecodeError::BadMagic);
        assert_eq!(decode_trace(b"XO").unwrap_err(), TraceDecodeError::Truncated);
    }

    #[test]
    fn every_truncation_point_fails_cleanly() {
        let bytes = encode_trace(7, &sample());
        for len in 0..bytes.len() {
            let err = decode_trace(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, TraceDecodeError::Truncated | TraceDecodeError::DigestMismatch),
                "prefix of {len} bytes: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn header_shape_words_cannot_outgrow_the_payload() {
        // cores, warps, launches sit outside the payload digest and size
        // the decoder's allocations.
        let bytes = encode_trace(7, &sample());
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let payload_len = word(32);
        let shape = [20, 24, 28];
        for at in shape {
            let others: u32 = shape.iter().filter(|&&o| o != at).map(|&o| word(o)).product();
            let fits = payload_len / (4 * others);
            assert!(fits >= word(at), "the sample's own shape fits its payload");
            for bad in [u32::MAX, fits + 1] {
                let mut damaged = bytes.clone();
                damaged[at..at + 4].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    decode_trace(&damaged).unwrap_err(),
                    TraceDecodeError::Corrupt,
                    "header word at {at} = {bad}"
                );
            }
        }
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut bytes = encode_trace(7, &sample());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert_eq!(decode_trace(&bytes).unwrap_err(), TraceDecodeError::DigestMismatch);
    }
}

//! The `gradest-serve` wire protocol: length-prefixed binary frames
//! over TCP.
//!
//! # Grammar
//!
//! ```text
//! frame    := tag:u8  len:u32le  payload[len]          (len ≤ 4 MiB)
//!
//! request  := UPLOAD(0x01)   payload = road_id:u64le streams
//!           | TILE(0x02)     payload = bounds (32 B, geo::tile codec)
//!           | METRICS(0x03)  payload = empty
//!           | STATUS(0x04)   payload = empty
//! streams  := imu gps speedometer can barometer
//!             each: count:u32le then `count` fixed-width samples
//!
//! reply    := ACK(0x81)      payload = road_id:u64le
//!           | TILE(0x82)     payload = edges:u32le then per-edge
//!                            (edge_id:u32le n:u32le n×(s θ P):f64le)
//!           | METRICS(0x83)  payload = utf8 Prometheus exposition
//!           | BUSY(0x84)     payload = reason:u8
//!           | ERR(0x85)      payload = code:u8 (DecodeError::code)
//!           | STATUS(0x86)   payload = utf8 JSON (live SLO states,
//!                            drift flags, window quantiles, uptime)
//! ```
//!
//! All multi-byte integers and every `f64` are little-endian; an `f64`
//! travels as its exact IEEE-754 bit pattern, so encode → decode is
//! bit-lossless and served tiles can be byte-compared against tiles
//! assembled directly from an in-process aggregator.
//!
//! # Robustness
//!
//! Decoding is total: any input — truncated, oversized, garbage-tagged,
//! or length-lying — produces a typed [`DecodeError`], never a panic.
//! The decoder reads through a checked byte cursor (no indexing, no
//! `unwrap`), and per-sample reads fail on exhaustion *before* any
//! count-driven allocation, so a frame claiming 4 billion samples
//! cannot make the server reserve more memory than the actual payload
//! (itself capped at [`MAX_PAYLOAD_LEN`]). A well-formed frame whose log
//! breaks the estimator's input contract (`SensorLog::validate`) is
//! [`DecodeError::Malformed`] as well. The warm decode entry
//! [`decode_upload_into`] reuses caller buffers and is registered in
//! the lint's warm no-alloc list.

use gradest_core::track::GradientTrack;
use gradest_math::Vec2;
use gradest_sensors::samples::{BaroSample, GpsSample, ImuSample, SpeedSample};
use gradest_sensors::suite::SensorLog;

/// Frame header width: tag byte + little-endian `u32` payload length.
pub const HEADER_BYTES: usize = 5;

/// Maximum accepted payload length (4 MiB): comfortably above a
/// half-hour 50 Hz trip (~3 MiB) while bounding what a hostile header
/// can make the server buffer.
pub const MAX_PAYLOAD_LEN: usize = 4 << 20;

/// Request: upload one trip's sensor log for a road.
pub const TAG_UPLOAD: u8 = 0x01;
/// Request: fused-map tile for a bbox.
pub const TAG_TILE_QUERY: u8 = 0x02;
/// Request: Prometheus exposition of the service counters.
pub const TAG_METRICS: u8 = 0x03;
/// Request: live-telemetry status snapshot (SLO states, drift flags,
/// window quantiles, uptime).
pub const TAG_STATUS: u8 = 0x04;
/// Reply: upload accepted and fused.
pub const TAG_ACK: u8 = 0x81;
/// Reply: tile payload.
pub const TAG_TILE: u8 = 0x82;
/// Reply: metrics text.
pub const TAG_METRICS_TEXT: u8 = 0x83;
/// Reply: request refused by backpressure (payload carries the reason).
pub const TAG_BUSY: u8 = 0x84;
/// Reply: request rejected as malformed (payload carries the code).
pub const TAG_ERR: u8 = 0x85;
/// Reply: status snapshot as UTF-8 JSON.
pub const TAG_STATUS_TEXT: u8 = 0x86;

/// BUSY reason: the accept queue was full.
pub const BUSY_QUEUE_FULL: u8 = 0;
/// BUSY reason: the server is draining for shutdown.
pub const BUSY_DRAINING: u8 = 1;

/// Why a frame failed to decode. Every variant maps to a stable wire
/// code carried by ERR reply frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame tag is not a known request.
    UnknownTag(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// The payload ended before the declared content.
    Truncated,
    /// The payload is structurally invalid (reason attached).
    Malformed(&'static str),
}

impl DecodeError {
    /// Stable wire code (the ERR frame payload byte).
    pub fn code(self) -> u8 {
        match self {
            DecodeError::UnknownTag(_) => 1,
            DecodeError::Oversized { .. } => 2,
            DecodeError::Truncated => 3,
            DecodeError::Malformed(_) => 4,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownTag(tag) => write!(f, "unknown frame tag 0x{tag:02x}"),
            DecodeError::Oversized { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD_LEN}")
            }
            DecodeError::Truncated => f.write_str("payload truncated"),
            DecodeError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame tag byte.
    pub tag: u8,
    /// Declared payload length, bytes.
    pub len: u32,
}

/// Decodes a frame header, rejecting lengths past the cap. Tags are
/// *not* validated here (replies share the header shape); the server
/// checks request tags at dispatch.
pub fn decode_header(bytes: [u8; HEADER_BYTES]) -> Result<FrameHeader, DecodeError> {
    let tag = bytes[0];
    let len = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
    if len as usize > MAX_PAYLOAD_LEN {
        return Err(DecodeError::Oversized { len });
    }
    Ok(FrameHeader { tag, len })
}

/// Starts a frame in `out` (cleared): tag plus a length placeholder
/// patched by [`finish_frame`].
pub fn begin_frame(tag: u8, out: &mut Vec<u8>) {
    out.clear();
    out.push(tag);
    out.extend_from_slice(&0u32.to_le_bytes());
}

/// Patches the length prefix of a frame started by [`begin_frame`].
pub fn finish_frame(out: &mut [u8]) {
    let len = out.len().saturating_sub(HEADER_BYTES) as u32;
    if let Some(slot) = out.get_mut(1..HEADER_BYTES) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a complete UPLOAD request frame into `out` (cleared).
pub fn encode_upload_frame(road_id: u64, log: &SensorLog, out: &mut Vec<u8>) {
    begin_frame(TAG_UPLOAD, out);
    put_u64(out, road_id);
    put_u32(out, log.imu.len() as u32);
    for s in &log.imu {
        put_f64(out, s.t);
        put_f64(out, s.accel_long);
        put_f64(out, s.accel_lat);
        put_f64(out, s.gyro_z);
    }
    put_u32(out, log.gps.len() as u32);
    for s in &log.gps {
        put_f64(out, s.t);
        put_f64(out, s.position.x);
        put_f64(out, s.position.y);
        put_f64(out, s.speed_mps);
        put_f64(out, s.heading);
        out.push(u8::from(s.valid));
    }
    put_u32(out, log.speedometer.len() as u32);
    for s in &log.speedometer {
        put_f64(out, s.t);
        put_f64(out, s.speed_mps);
    }
    put_u32(out, log.can.len() as u32);
    for s in &log.can {
        put_f64(out, s.t);
        put_f64(out, s.speed_mps);
    }
    put_u32(out, log.barometer.len() as u32);
    for s in &log.barometer {
        put_f64(out, s.t);
        put_f64(out, s.altitude_m);
    }
    finish_frame(out);
}

/// Encodes a TILE_QUERY request frame into `out` (cleared).
pub fn encode_tile_query_frame(bounds: &gradest_geo::Aabb, out: &mut Vec<u8>) {
    begin_frame(TAG_TILE_QUERY, out);
    gradest_geo::tile::encode_tile_bounds(bounds, out);
    finish_frame(out);
}

/// Encodes a METRICS request frame into `out` (cleared).
pub fn encode_metrics_frame(out: &mut Vec<u8>) {
    begin_frame(TAG_METRICS, out);
    finish_frame(out);
}

/// Encodes a STATUS request frame into `out` (cleared).
pub fn encode_status_frame(out: &mut Vec<u8>) {
    begin_frame(TAG_STATUS, out);
    finish_frame(out);
}

/// Encodes an ACK reply frame into `out` (cleared).
pub fn encode_ack_frame(road_id: u64, out: &mut Vec<u8>) {
    begin_frame(TAG_ACK, out);
    put_u64(out, road_id);
    finish_frame(out);
}

/// Encodes a BUSY reply frame into `out` (cleared).
pub fn encode_busy_frame(reason: u8, out: &mut Vec<u8>) {
    begin_frame(TAG_BUSY, out);
    out.push(reason);
    finish_frame(out);
}

/// Encodes an ERR reply frame into `out` (cleared).
pub fn encode_err_frame(code: u8, out: &mut Vec<u8>) {
    begin_frame(TAG_ERR, out);
    out.push(code);
    finish_frame(out);
}

/// A checked, non-panicking byte cursor over a frame payload.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Cursor { rest: payload }
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let (first, rest) = self.rest.split_first().ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(*first)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let (chunk, rest) = self.rest.split_first_chunk::<4>().ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(u32::from_le_bytes(*chunk))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let (chunk, rest) = self.rest.split_first_chunk::<8>().ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(u64::from_le_bytes(*chunk))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        let (chunk, rest) = self.rest.split_first_chunk::<8>().ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(f64::from_le_bytes(*chunk))
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes after payload"))
        }
    }
}

/// Reusable decode target for UPLOAD payloads: the road id and the
/// reconstructed [`SensorLog`]. One per worker; the sample vectors
/// retain capacity across frames, so a warm decode allocates nothing.
#[derive(Debug, Default)]
pub struct UploadScratch {
    /// Road the trip is filed under.
    pub road_id: u64,
    /// The decoded sensor streams.
    pub log: SensorLog,
}

impl UploadScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        UploadScratch::default()
    }
}

/// Decodes an UPLOAD payload into `scratch` (cleared first, capacity
/// reused). This is the service's warm decode entry: allocation-free
/// once the scratch vectors have grown to the fleet's trip size.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the payload ends early,
/// [`DecodeError::Malformed`] on trailing bytes, a GPS validity byte
/// other than 0/1, or a log that [`SensorLog::validate`] refuses (the
/// broken rule's `InputError::reason` is the `Malformed` reason), so the
/// service refuses an out-of-domain upload whole.
pub fn decode_upload_into(payload: &[u8], scratch: &mut UploadScratch) -> Result<(), DecodeError> {
    let log = &mut scratch.log;
    log.imu.clear();
    log.gps.clear();
    log.speedometer.clear();
    log.can.clear();
    log.barometer.clear();
    let mut cur = Cursor::new(payload);
    scratch.road_id = cur.u64()?;
    let n_imu = cur.u32()?;
    for _ in 0..n_imu {
        let t = cur.f64()?;
        let accel_long = cur.f64()?;
        let accel_lat = cur.f64()?;
        let gyro_z = cur.f64()?;
        log.imu.push(ImuSample { t, accel_long, accel_lat, gyro_z });
    }
    let n_gps = cur.u32()?;
    for _ in 0..n_gps {
        let t = cur.f64()?;
        let x = cur.f64()?;
        let y = cur.f64()?;
        let speed_mps = cur.f64()?;
        let heading = cur.f64()?;
        let valid = match cur.byte()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::Malformed("gps validity byte not 0/1")),
        };
        log.gps.push(GpsSample { t, position: Vec2::new(x, y), speed_mps, heading, valid });
    }
    let n_speedo = cur.u32()?;
    for _ in 0..n_speedo {
        let t = cur.f64()?;
        let speed_mps = cur.f64()?;
        log.speedometer.push(SpeedSample { t, speed_mps });
    }
    let n_can = cur.u32()?;
    for _ in 0..n_can {
        let t = cur.f64()?;
        let speed_mps = cur.f64()?;
        log.can.push(SpeedSample { t, speed_mps });
    }
    let n_baro = cur.u32()?;
    for _ in 0..n_baro {
        let t = cur.f64()?;
        let altitude_m = cur.f64()?;
        log.barometer.push(BaroSample { t, altitude_m });
    }
    cur.finish()?;
    log.validate().map_err(|e| DecodeError::Malformed(e.reason()))
}

/// Decodes an ACK reply payload.
pub fn decode_ack(payload: &[u8]) -> Result<u64, DecodeError> {
    let mut cur = Cursor::new(payload);
    let road_id = cur.u64()?;
    cur.finish()?;
    Ok(road_id)
}

/// Bytes of one encoded tile cell: `s`, `θ` and `P` as `f64le`.
const CELL_BYTES: usize = 24;

/// Streaming writer for TILE reply payloads. Both the service worker
/// and the direct-aggregation reference path in the soak test build
/// their tile bytes through this one encoder, so "bit-identical tiles"
/// compares fusion output, not formatting. Each edge is encoded as one
/// block: its cells are sized once and filled in place.
pub struct TileWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Offset of the edge-count placeholder in `out`.
    start: usize,
    edges: u32,
}

impl<'a> TileWriter<'a> {
    /// Starts a tile payload in `out` (cleared; edge-count placeholder
    /// patched by [`Self::finish`]). `out` is the bare payload — the
    /// caller frames it.
    pub fn begin(out: &'a mut Vec<u8>) -> Self {
        out.clear();
        Self::append(out)
    }

    /// Starts a tile payload after the bytes already in `out`, such as
    /// a frame header from [`begin_frame`], so a reply frame needs no
    /// staging copy of its tile.
    pub(crate) fn append(out: &'a mut Vec<u8>) -> Self {
        let start = out.len();
        put_u32(out, 0);
        TileWriter { out, start, edges: 0 }
    }

    /// Appends one edge's fused profile: the edge id, the cell count
    /// `n` — the shortest of the three columns — and exactly `n`
    /// `(s, θ, P)` cells.
    pub fn push_edge(&mut self, edge_id: u32, track: &GradientTrack) {
        let n = track.s.len().min(track.theta.len()).min(track.variance.len());
        let n = n.min(u32::MAX as usize);
        put_u32(self.out, edge_id);
        put_u32(self.out, n as u32);
        let at = self.out.len();
        self.out.resize(at + n * CELL_BYTES, 0);
        let (cells, _) = self.out[at..].as_chunks_mut::<CELL_BYTES>();
        for (((cell, s), theta), var) in
            cells.iter_mut().zip(&track.s).zip(&track.theta).zip(&track.variance)
        {
            cell[..8].copy_from_slice(&s.to_le_bytes());
            cell[8..16].copy_from_slice(&theta.to_le_bytes());
            cell[16..].copy_from_slice(&var.to_le_bytes());
        }
        self.edges += 1;
    }

    /// Patches the edge count and returns it.
    pub fn finish(self) -> u32 {
        if let Some(slot) = self.out.get_mut(self.start..self.start + 4) {
            slot.copy_from_slice(&self.edges.to_le_bytes());
        }
        self.edges
    }
}

/// Decodes a TILE reply payload into `(edge_id, track)` pairs (tracks
/// labelled `""`, matching what [`TileWriter`] encodes).
pub fn decode_tile(payload: &[u8]) -> Result<Vec<(u32, GradientTrack)>, DecodeError> {
    let mut cur = Cursor::new(payload);
    let edges = cur.u32()?;
    let mut out = Vec::new();
    for _ in 0..edges {
        let edge_id = cur.u32()?;
        let n = cur.u32()?;
        let mut track = GradientTrack::default();
        for _ in 0..n {
            // Field pushes, not GradientTrack::push: a hostile payload
            // may carry non-monotone s values and must still decode
            // into plain data rather than trip the track's debug
            // monotonicity assert.
            track.s.push(cur.f64()?);
            track.theta.push(cur.f64()?);
            track.variance.push(cur.f64()?);
        }
        out.push((edge_id, track));
    }
    cur.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_core::cloud::CloudAggregator;
    use proptest::prelude::*;

    fn sample_log() -> SensorLog {
        let mut log = SensorLog::default();
        for i in 0..10 {
            let t = i as f64 * 0.02;
            log.imu.push(ImuSample {
                t,
                accel_long: 0.1 * i as f64,
                accel_lat: -0.05,
                gyro_z: 0.001,
            });
        }
        log.gps.push(GpsSample {
            t: 0.0,
            position: Vec2::new(3.25, -7.5),
            speed_mps: 13.0,
            heading: 0.4,
            valid: true,
        });
        log.gps.push(GpsSample {
            t: 1.0,
            position: Vec2::new(16.25, -7.5),
            speed_mps: 13.1,
            heading: 0.4,
            valid: false,
        });
        log.speedometer.push(SpeedSample { t: 0.5, speed_mps: 13.05 });
        log.can.push(SpeedSample { t: 0.5, speed_mps: 13.04 });
        log.barometer.push(BaroSample { t: 0.5, altitude_m: 120.5 });
        log
    }

    #[test]
    fn upload_roundtrip_is_bit_exact() {
        let log = sample_log();
        let mut wire = Vec::new();
        encode_upload_frame(42, &log, &mut wire);
        let mut header = [0u8; HEADER_BYTES];
        header.copy_from_slice(&wire[..HEADER_BYTES]);
        let hdr = decode_header(header).unwrap();
        assert_eq!(hdr.tag, TAG_UPLOAD);
        assert_eq!(hdr.len as usize, wire.len() - HEADER_BYTES);
        let mut scratch = UploadScratch::new();
        decode_upload_into(&wire[HEADER_BYTES..], &mut scratch).unwrap();
        assert_eq!(scratch.road_id, 42);
        assert_eq!(scratch.log, log);
    }

    #[test]
    fn decode_reuses_scratch_capacity() {
        let log = sample_log();
        let mut wire = Vec::new();
        encode_upload_frame(7, &log, &mut wire);
        let mut scratch = UploadScratch::new();
        decode_upload_into(&wire[HEADER_BYTES..], &mut scratch).unwrap();
        let cap = scratch.log.imu.capacity();
        decode_upload_into(&wire[HEADER_BYTES..], &mut scratch).unwrap();
        assert_eq!(scratch.log.imu.capacity(), cap);
        assert_eq!(scratch.log, log);
    }

    #[test]
    fn header_rejects_oversized_lengths() {
        let mut bytes = [0u8; HEADER_BYTES];
        bytes[0] = TAG_UPLOAD;
        bytes[1..].copy_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_le_bytes());
        assert_eq!(
            decode_header(bytes),
            Err(DecodeError::Oversized { len: MAX_PAYLOAD_LEN as u32 + 1 })
        );
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed_errors() {
        let log = sample_log();
        let mut wire = Vec::new();
        encode_upload_frame(1, &log, &mut wire);
        let payload = &wire[HEADER_BYTES..];
        let mut scratch = UploadScratch::new();
        for cut in [0, 1, 7, 8, 11, payload.len() - 1] {
            assert_eq!(
                decode_upload_into(&payload[..cut], &mut scratch),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
        let mut trailing = payload.to_vec();
        trailing.push(0xff);
        assert!(matches!(
            decode_upload_into(&trailing, &mut scratch),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn too_few_imu_samples_are_malformed() {
        let mut log = sample_log();
        log.imu.truncate(1);
        let mut wire = Vec::new();
        encode_upload_frame(1, &log, &mut wire);
        let mut scratch = UploadScratch::new();
        assert_eq!(
            decode_upload_into(&wire[HEADER_BYTES..], &mut scratch),
            Err(DecodeError::Malformed("fewer than two imu samples"))
        );
    }

    #[test]
    fn lying_sample_count_fails_before_allocating_past_payload() {
        let log = sample_log();
        let mut wire = Vec::new();
        encode_upload_frame(1, &log, &mut wire);
        // Lie: claim u32::MAX IMU samples, keep the actual bytes.
        wire[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut scratch = UploadScratch::new();
        assert_eq!(
            decode_upload_into(&wire[HEADER_BYTES..], &mut scratch),
            Err(DecodeError::Truncated)
        );
        // The decoder only kept what the payload actually carried.
        assert!(scratch.log.imu.capacity() <= wire.len());
    }

    #[test]
    fn tile_writer_roundtrip() {
        let mut a = GradientTrack::new("");
        a.push(2.5, 0.03, 1e-4);
        a.push(7.5, 0.031, 2e-4);
        let b = GradientTrack::new("");
        let mut c = GradientTrack::new("");
        c.push(12.5, -0.01, 5e-4);
        let mut payload = Vec::new();
        let mut w = TileWriter::begin(&mut payload);
        w.push_edge(3, &a);
        w.push_edge(9, &b);
        w.push_edge(11, &c);
        assert_eq!(w.finish(), 3);
        let tiles = decode_tile(&payload).unwrap();
        assert_eq!(tiles.len(), 3);
        assert_eq!(tiles[0].0, 3);
        assert_eq!(tiles[0].1.s, a.s);
        assert_eq!(tiles[0].1.theta, a.theta);
        assert_eq!(tiles[1].1.len(), 0);
        assert_eq!(tiles[2].1.variance, c.variance);
    }

    /// The per-value edge encoder the block writer replaced, verbatim:
    /// the oracle `push_edge` is pinned to on well-formed tracks.
    fn push_edge_per_value(out: &mut Vec<u8>, edge_id: u32, track: &GradientTrack) {
        put_u32(out, edge_id);
        put_u32(out, track.len() as u32);
        for ((s, theta), var) in track.s.iter().zip(&track.theta).zip(&track.variance) {
            put_f64(out, *s);
            put_f64(out, *theta);
            put_f64(out, *var);
        }
    }

    fn per_value_tile(edges: &[(u32, GradientTrack)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, edges.len() as u32);
        for (edge, track) in edges {
            push_edge_per_value(&mut out, *edge, track);
        }
        out
    }

    /// `edges` through [`TileWriter::begin`], over stale bytes it must
    /// clear.
    fn block_tile(edges: &[(u32, GradientTrack)]) -> Vec<u8> {
        let mut out = vec![0xaa; 7];
        let mut writer = TileWriter::begin(&mut out);
        for (edge, track) in edges {
            writer.push_edge(*edge, track);
        }
        assert_eq!(writer.finish() as usize, edges.len());
        out
    }

    /// One upload to road 0–3 (four stripes): arcs `step` apart from
    /// `start`, so tracks overlap and leave gaps, reversed half the
    /// time; about one sample in ten has a non-finite variance or θ,
    /// which the upload filter skips.
    fn upload() -> impl Strategy<Value = (u64, GradientTrack)> {
        let samples = prop::collection::vec((-0.15..0.15f64, -6.0..-2.0f64, 0u32..20), 0..30);
        (0u64..4, 0.0..120.0f64, 0.5..14.0f64, any::<bool>(), samples).prop_map(
            |(road, start, step, reversed, samples)| {
                let mut t = GradientTrack::new("vehicle");
                for (i, (theta, log_var, fault)) in samples.into_iter().enumerate() {
                    t.s.push(start + i as f64 * step);
                    t.theta.push(if fault == 0 { f64::NAN } else { theta });
                    t.variance.push(if fault == 1 { f64::INFINITY } else { 10f64.powf(log_var) });
                }
                if reversed {
                    t.s.reverse();
                }
                (road, t)
            },
        )
    }

    proptest! {
        #[test]
        fn block_writer_matches_per_value_writer(uploads in prop::collection::vec(upload(), 1..24)) {
            let cloud = CloudAggregator::new(5.0);
            let mut track = GradientTrack::new("");
            for (road, upload) in uploads {
                cloud.upload(road, &upload);
                let mut edges = vec![(404, GradientTrack::default())];
                for road in 0..4u32 {
                    if cloud.road_profile_into(u64::from(road), &mut track) {
                        edges.push((road, track.clone()));
                    }
                }
                prop_assert_eq!(block_tile(&edges), per_value_tile(&edges));
            }
        }
    }

    #[test]
    fn tile_after_a_frame_header_equals_the_framed_payload() {
        let mut a = GradientTrack::new("");
        a.push(2.5, 0.03, 1e-4);
        a.push(7.5, f64::NAN, 2e-4);
        let mut c = GradientTrack::new("");
        c.push(12.5, -0.01, 5e-4);
        let edges = [(3, a), (9, GradientTrack::default()), (11, c)];
        let mut direct = Vec::new();
        begin_frame(TAG_TILE, &mut direct);
        let mut writer = TileWriter::append(&mut direct);
        for (edge, track) in &edges {
            writer.push_edge(*edge, track);
        }
        assert_eq!(writer.finish(), 3);
        finish_frame(&mut direct);
        let mut staged = Vec::new();
        begin_frame(TAG_TILE, &mut staged);
        staged.extend_from_slice(&block_tile(&edges));
        finish_frame(&mut staged);
        assert_eq!(direct, staged);
    }

    #[test]
    fn push_edge_announces_the_cells_it_writes() {
        let mut short = GradientTrack::new("");
        short.push(2.5, 0.03, 1e-4);
        short.push(7.5, 0.031, 2e-4);
        short.push(12.5, 0.032, 3e-4);
        short.theta.pop(); // θ column one value short
        let mut next = GradientTrack::new("");
        next.push(2.5, -0.01, 5e-4);
        let tile = decode_tile(&block_tile(&[(1, short.clone()), (2, next.clone())]))
            .expect("the tile decodes");
        assert_eq!(tile.len(), 2);
        assert_eq!(tile[0].0, 1);
        assert_eq!(tile[0].1.s, short.s[..2]);
        assert_eq!(tile[0].1.theta, short.theta);
        assert_eq!(tile[0].1.variance, short.variance[..2]);
        assert_eq!(tile[1], (2, next));
    }

    #[test]
    fn status_request_frame_is_empty_and_tagged() {
        let mut wire = Vec::new();
        encode_status_frame(&mut wire);
        assert_eq!(wire.len(), HEADER_BYTES);
        let mut header = [0u8; HEADER_BYTES];
        header.copy_from_slice(&wire);
        let hdr = decode_header(header).unwrap();
        assert_eq!(hdr.tag, TAG_STATUS);
        assert_eq!(hdr.len, 0);
    }

    #[test]
    fn reply_frames_roundtrip() {
        let mut wire = Vec::new();
        encode_ack_frame(99, &mut wire);
        assert_eq!(wire[0], TAG_ACK);
        assert_eq!(decode_ack(&wire[HEADER_BYTES..]), Ok(99));
        encode_busy_frame(BUSY_DRAINING, &mut wire);
        assert_eq!(wire[0], TAG_BUSY);
        assert_eq!(wire[HEADER_BYTES..], [BUSY_DRAINING]);
        encode_err_frame(DecodeError::Truncated.code(), &mut wire);
        assert_eq!(wire[0], TAG_ERR);
        assert_eq!(wire[HEADER_BYTES..], [3]); // the stable `truncated` wire code
    }
}

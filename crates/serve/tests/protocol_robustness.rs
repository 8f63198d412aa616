//! Property-based and fixture robustness tests for the wire protocol:
//! decoding must be *total* — truncated, oversized, garbage-tagged,
//! bit-flipped, and length-lying inputs all land in a typed
//! [`DecodeError`], never a panic, and never make the decoder allocate
//! past what the actual payload carries.

use gradest_math::Vec2;
use gradest_sensors::samples::{BaroSample, GpsSample, ImuSample, SpeedSample};
use gradest_sensors::suite::SensorLog;
use gradest_serve::protocol::{
    decode_ack, decode_header, decode_tile, decode_upload_into, encode_upload_frame, DecodeError,
    UploadScratch, HEADER_BYTES, MAX_PAYLOAD_LEN, TAG_UPLOAD,
};
use proptest::prelude::*;

/// Well-formed logs: IMU times strictly increasing (positive steps
/// from a random start), every other stream unconstrained.
fn log_strategy() -> impl Strategy<Value = SensorLog> {
    let imu = (
        0.0..100.0f64,
        prop::collection::vec((1e-3..1.0f64, -5.0..5.0f64, -5.0..5.0f64, -1.0..1.0f64), 2..40),
    )
        .prop_map(|(t0, steps)| {
            let mut t = t0;
            steps
                .into_iter()
                .map(|(dt, accel_long, accel_lat, gyro_z)| {
                    t += dt;
                    ImuSample { t, accel_long, accel_lat, gyro_z }
                })
                .collect::<Vec<_>>()
        });
    let gps = prop::collection::vec(
        (0.0..100.0f64, -1e4..1e4f64, -1e4..1e4f64, 0.0..40.0f64, -4.0..4.0f64, any::<bool>())
            .prop_map(|(t, x, y, speed_mps, heading, valid)| GpsSample {
                t,
                position: Vec2::new(x, y),
                speed_mps,
                heading,
                valid,
            }),
        0..10,
    );
    let speed = prop::collection::vec(
        (0.0..100.0f64, 0.0..40.0f64).prop_map(|(t, speed_mps)| SpeedSample { t, speed_mps }),
        0..10,
    );
    let baro = prop::collection::vec(
        (0.0..100.0f64, -100.0..3000.0f64).prop_map(|(t, altitude_m)| BaroSample { t, altitude_m }),
        0..10,
    );
    (imu, gps, speed.clone(), speed, baro).prop_map(|(imu, gps, speedometer, can, barometer)| {
        SensorLog { imu, gps, speedometer, can, barometer }
    })
}

/// The sample at fraction `at` of `stream`, after pushing `fill` into an
/// empty stream.
fn sample_at<T>(stream: &mut Vec<T>, at: f64, fill: T) -> &mut T {
    if stream.is_empty() {
        stream.push(fill);
    }
    let j = ((stream.len() - 1) as f64 * at) as usize;
    &mut stream[j]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Roundtrip: encode → decode reproduces the log bit-for-bit.
    #[test]
    fn upload_roundtrips_bit_exactly(road_id in 0..u64::MAX, log in log_strategy()) {
        let mut wire = Vec::new();
        encode_upload_frame(road_id, &log, &mut wire);
        let mut scratch = UploadScratch::new();
        decode_upload_into(&wire[HEADER_BYTES..], &mut scratch).expect("well-formed frame");
        prop_assert_eq!(scratch.road_id, road_id);
        prop_assert_eq!(&scratch.log, &log);
    }

    /// Each rule of `SensorLog::validate` broken once decodes to
    /// `Malformed`: IMU times that repeat, go backwards, or are not
    /// finite; a non-finite `accel_long` or `gyro_z`; a GPS fix with a
    /// non-finite time, or a valid one with a non-finite position or
    /// speed; a speedometer or CAN sample with a non-finite time or speed.
    #[test]
    fn bad_imu_samples_are_malformed(log in log_strategy(), at in 0.0..1.0f64) {
        let last = log.imu.len() - 1;
        let i = (last as f64 * at) as usize;
        let fix = GpsSample {
            t: 1.0,
            position: Vec2::new(0.0, 0.0),
            speed_mps: 10.0,
            heading: 0.0,
            valid: true,
        };
        let nan_xy = Vec2::new(f64::NAN, 0.0);
        let speed = SpeedSample { t: 1.0, speed_mps: 10.0 };
        for kind in 0..17u8 {
            let mut log = log.clone();
            match kind {
                0 => log.imu[i + 1].t = log.imu[i].t,
                1 => log.imu.swap(i, i + 1),
                2 => log.imu[i].t = f64::NAN,
                3 => log.imu[i].t = f64::NEG_INFINITY,
                // In order, so only the finiteness check can catch it.
                4 => log.imu[last].t = f64::INFINITY,
                5 => log.imu[i].accel_long = f64::NAN,
                6 => log.imu[i].accel_long = f64::INFINITY,
                7 => log.imu[i].gyro_z = f64::NAN,
                8 => log.imu[i].gyro_z = f64::INFINITY,
                9 => sample_at(&mut log.gps, at, fix).t = f64::NAN,
                10 => sample_at(&mut log.gps, at, fix).t = f64::INFINITY,
                11 => *sample_at(&mut log.gps, at, fix) = GpsSample { position: nan_xy, ..fix },
                12 => *sample_at(&mut log.gps, at, fix) = GpsSample { speed_mps: f64::NAN, ..fix },
                13 => sample_at(&mut log.speedometer, at, speed).t = f64::NAN,
                14 => sample_at(&mut log.speedometer, at, speed).speed_mps = f64::INFINITY,
                15 => sample_at(&mut log.can, at, speed).t = f64::NEG_INFINITY,
                _ => sample_at(&mut log.can, at, speed).speed_mps = f64::NAN,
            }
            let mut wire = Vec::new();
            encode_upload_frame(3, &log, &mut wire);
            let mut scratch = UploadScratch::new();
            prop_assert!(
                matches!(
                    decode_upload_into(&wire[HEADER_BYTES..], &mut scratch),
                    Err(DecodeError::Malformed(_))
                ),
                "kind {}",
                kind
            );
        }
    }

    /// Fields the estimator never reads are not checked: an invalid
    /// fix's position and speed, a heading, `accel_lat` and the
    /// barometer decode whatever they hold.
    #[test]
    fn unread_fields_are_not_checked(log in log_strategy(), at in 0.0..1.0f64) {
        let mut log = log;
        let i = ((log.imu.len() - 1) as f64 * at) as usize;
        log.imu[i].accel_lat = f64::NAN;
        log.gps.push(GpsSample {
            t: 1.0,
            position: Vec2::new(f64::NAN, f64::INFINITY),
            speed_mps: f64::NAN,
            heading: f64::NAN,
            valid: false,
        });
        log.barometer.push(BaroSample { t: f64::NAN, altitude_m: f64::INFINITY });
        let mut wire = Vec::new();
        encode_upload_frame(3, &log, &mut wire);
        let mut scratch = UploadScratch::new();
        prop_assert_eq!(decode_upload_into(&wire[HEADER_BYTES..], &mut scratch), Ok(()));
    }

    /// Every prefix of a valid payload is a typed error, never a panic.
    #[test]
    fn every_truncation_is_a_typed_error(log in log_strategy(), frac in 0.0..1.0f64) {
        let mut wire = Vec::new();
        encode_upload_frame(9, &log, &mut wire);
        let payload = &wire[HEADER_BYTES..];
        let cut = ((payload.len() - 1) as f64 * frac) as usize;
        let mut scratch = UploadScratch::new();
        prop_assert_eq!(
            decode_upload_into(&payload[..cut], &mut scratch),
            Err(DecodeError::Truncated)
        );
    }

    /// A single flipped byte decodes to *something* — Ok for payload
    /// bytes whose meaning survives, a typed error otherwise — without
    /// panicking or over-allocating.
    #[test]
    fn bit_flips_never_panic(log in log_strategy(), frac in 0.0..1.0f64, flip in 1..255u8) {
        let mut wire = Vec::new();
        encode_upload_frame(9, &log, &mut wire);
        let payload_len = wire.len() - HEADER_BYTES;
        let pos = HEADER_BYTES + ((payload_len - 1) as f64 * frac) as usize;
        wire[pos] ^= flip;
        let mut scratch = UploadScratch::new();
        let _ = decode_upload_into(&wire[HEADER_BYTES..], &mut scratch);
        prop_assert!(scratch.log.imu.capacity() <= wire.len());
    }

    /// Arbitrary garbage bytes decode to a typed result (total decode).
    #[test]
    fn arbitrary_bytes_decode_totally(payload in prop::collection::vec(0..=255u8, 0..512)) {
        let mut scratch = UploadScratch::new();
        let _ = decode_upload_into(&payload, &mut scratch);
        let _ = decode_tile(&payload);
        let _ = decode_ack(&payload);
    }

    /// Headers beyond the payload cap are rejected regardless of tag.
    #[test]
    fn oversized_headers_are_rejected(tag in 0..=255u8, extra in 1..u32::MAX - MAX_PAYLOAD_LEN as u32) {
        let len = MAX_PAYLOAD_LEN as u32 + extra;
        let mut hdr = [tag, 0, 0, 0, 0];
        hdr[1..].copy_from_slice(&len.to_le_bytes());
        prop_assert_eq!(decode_header(hdr), Err(DecodeError::Oversized { len }));
    }

    /// A frame lying upward about any stream's sample count fails with
    /// `Truncated` before count-driven allocation: the scratch never
    /// grows past the actual payload size.
    #[test]
    fn lying_counts_cannot_inflate_allocation(
        log in log_strategy(),
        lie in (8usize..13), // which count field region to corrupt
        claimed in 1000u32..u32::MAX,
    ) {
        let mut wire = Vec::new();
        encode_upload_frame(9, &log, &mut wire);
        // The first count (imu) sits right after road_id; corrupting a
        // byte range that holds a count for *some* stream is enough —
        // aim at the imu count deterministically plus a fuzzed offset
        // that may land mid-sample (also fine: still must not panic).
        let pos = HEADER_BYTES + lie;
        if pos + 4 <= wire.len() {
            wire[pos..pos + 4].copy_from_slice(&claimed.to_le_bytes());
        }
        let mut scratch = UploadScratch::new();
        let _ = decode_upload_into(&wire[HEADER_BYTES..], &mut scratch);
        let cap = scratch.log.imu.capacity().max(scratch.log.gps.capacity());
        prop_assert!(cap <= wire.len(), "decoder reserved {cap} for a {}-byte frame", wire.len());
    }
}

#[test]
fn upload_frame_claiming_imu_count_max_is_truncated() {
    let mut log = SensorLog::default();
    for i in 0..4 {
        log.imu.push(ImuSample { t: i as f64, accel_long: 0.0, accel_lat: 0.0, gyro_z: 0.0 });
    }
    let mut wire = Vec::new();
    encode_upload_frame(1, &log, &mut wire);
    let count_at = HEADER_BYTES + 8;
    wire[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut scratch = UploadScratch::new();
    assert_eq!(
        decode_upload_into(&wire[HEADER_BYTES..], &mut scratch),
        Err(DecodeError::Truncated)
    );
    assert!(scratch.log.imu.capacity() <= wire.len());
}

#[test]
fn header_tag_passthrough_is_checked_at_dispatch_not_decode() {
    // Reply tags share the header shape; decode_header accepts any tag
    // below the length cap and the server rejects unknown *request*
    // tags with a typed error at dispatch (covered end-to-end in
    // service_e2e.rs).
    let hdr = decode_header([0xee, 4, 0, 0, 0]).expect("tag not validated here");
    assert_eq!(hdr.tag, 0xee);
    assert_eq!(hdr.len, 4);
    assert_eq!(DecodeError::UnknownTag(0xee).code(), 1);
}

#[test]
fn gps_validity_byte_is_strict() {
    let mut log = SensorLog::default();
    for i in 0..2 {
        log.imu.push(ImuSample { t: i as f64, accel_long: 0.0, accel_lat: 0.0, gyro_z: 0.0 });
    }
    log.gps.push(GpsSample {
        t: 0.0,
        position: Vec2::new(0.0, 0.0),
        speed_mps: 1.0,
        heading: 0.0,
        valid: true,
    });
    let mut wire = Vec::new();
    encode_upload_frame(1, &log, &mut wire);
    assert_eq!(wire[0], TAG_UPLOAD);
    // The validity byte is the last payload byte of the gps record
    // block (before the three trailing empty counts).
    let validity_at = wire.len() - 12 - 1;
    assert_eq!(wire[validity_at], 1);
    wire[validity_at] = 2;
    let mut scratch = UploadScratch::new();
    assert_eq!(
        decode_upload_into(&wire[HEADER_BYTES..], &mut scratch),
        Err(DecodeError::Malformed("gps validity byte not 0/1"))
    );
}

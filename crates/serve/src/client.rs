//! A small blocking client for the `gradest-serve` protocol, used by
//! the soak bench, the CI smoke, and as the reference implementation
//! for anyone speaking the wire format from another process.

use crate::protocol::{
    decode_ack, decode_header, encode_metrics_frame, encode_status_frame, encode_tile_query_frame,
    encode_upload_frame, DecodeError, FrameHeader, HEADER_BYTES, TAG_ACK, TAG_BUSY, TAG_ERR,
    TAG_METRICS_TEXT, TAG_STATUS_TEXT, TAG_TILE,
};
use gradest_geo::Aabb;
use gradest_sensors::suite::SensorLog;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A reply frame, decoded into its meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerReply {
    /// The upload was fused; echoes the road id.
    Ack {
        /// The acknowledged road.
        road_id: u64,
    },
    /// A tile payload, returned raw so callers can byte-compare it
    /// (decode with [`crate::protocol::decode_tile`]).
    Tile(Vec<u8>),
    /// Prometheus exposition text.
    Metrics(String),
    /// Live-telemetry status snapshot (JSON: per-SLO state, drift
    /// flags, window quantiles, uptime).
    Status(String),
    /// The server refused the request under backpressure.
    Busy {
        /// `BUSY_QUEUE_FULL` or `BUSY_DRAINING`.
        reason: u8,
    },
    /// The server rejected the request as malformed.
    Err {
        /// A [`DecodeError`] wire code (see [`DecodeError::code`]).
        code: u8,
    },
}

/// What can go wrong talking to the server.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, or write).
    Io(std::io::Error),
    /// The server's reply itself failed to decode.
    BadReply(DecodeError),
    /// The server replied with a tag the client does not know.
    UnexpectedTag(u8),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport error: {err}"),
            ClientError::BadReply(err) => write!(f, "undecodable reply: {err}"),
            ClientError::UnexpectedTag(tag) => write!(f, "unexpected reply tag 0x{tag:02x}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// One persistent connection to a `gradest-serve` instance. The frame
/// buffer is reused across requests, so a warm client allocates only
/// inside reply payload handling.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to the server with a transport timeout applied to
    /// reads and writes.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream, buf: Vec::new() })
    }

    fn read_reply(&mut self) -> Result<(FrameHeader, Vec<u8>), ClientError> {
        let mut hdr = [0u8; HEADER_BYTES];
        self.stream.read_exact(&mut hdr)?;
        let header = decode_header(hdr).map_err(ClientError::BadReply)?;
        let mut payload = vec![0u8; header.len as usize];
        self.stream.read_exact(&mut payload)?;
        Ok((header, payload))
    }

    fn request(&mut self) -> Result<ServerReply, ClientError> {
        self.stream.write_all(&self.buf)?;
        let (header, payload) = self.read_reply()?;
        match header.tag {
            TAG_ACK => {
                let road_id = decode_ack(&payload).map_err(ClientError::BadReply)?;
                Ok(ServerReply::Ack { road_id })
            }
            TAG_TILE => Ok(ServerReply::Tile(payload)),
            TAG_METRICS_TEXT => match String::from_utf8(payload) {
                Ok(text) => Ok(ServerReply::Metrics(text)),
                Err(_) => Err(ClientError::BadReply(DecodeError::Malformed("metrics not utf8"))),
            },
            TAG_STATUS_TEXT => match String::from_utf8(payload) {
                Ok(text) => Ok(ServerReply::Status(text)),
                Err(_) => Err(ClientError::BadReply(DecodeError::Malformed("status not utf8"))),
            },
            TAG_BUSY => match payload.first() {
                Some(reason) => Ok(ServerReply::Busy { reason: *reason }),
                None => Err(ClientError::BadReply(DecodeError::Truncated)),
            },
            TAG_ERR => match payload.first() {
                Some(code) => Ok(ServerReply::Err { code: *code }),
                None => Err(ClientError::BadReply(DecodeError::Truncated)),
            },
            tag => Err(ClientError::UnexpectedTag(tag)),
        }
    }

    /// Uploads one trip for `road_id`.
    pub fn upload(&mut self, road_id: u64, log: &SensorLog) -> Result<ServerReply, ClientError> {
        encode_upload_frame(road_id, log, &mut self.buf);
        self.request()
    }

    /// Queries the fused-map tile covering `bounds`.
    pub fn tile_query(&mut self, bounds: &Aabb) -> Result<ServerReply, ClientError> {
        encode_tile_query_frame(bounds, &mut self.buf);
        self.request()
    }

    /// Fetches the server's Prometheus exposition.
    pub fn metrics(&mut self) -> Result<ServerReply, ClientError> {
        encode_metrics_frame(&mut self.buf);
        self.request()
    }

    /// Fetches the server's live status snapshot (SLO states, drift
    /// flags, window quantiles, uptime) as JSON.
    pub fn status(&mut self) -> Result<ServerReply, ClientError> {
        encode_status_frame(&mut self.buf);
        self.request()
    }

    /// Sends raw bytes as-is and reads one reply frame — the hostile
    /// path used by the robustness tests to deliver malformed frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<ServerReply, ClientError> {
        self.buf.clear();
        self.buf.extend_from_slice(bytes);
        self.request()
    }
}

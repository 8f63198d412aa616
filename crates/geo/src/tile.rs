//! Bbox tile support for the ingestion service: a fixed-width wire
//! encoding of query bounds and a deterministic edge-set assembly over
//! [`EdgeIndex::edges_in_bbox`].
//!
//! The R-tree's bbox iterator yields edge ids in *traversal* order —
//! fast, but dependent on tree packing. A served tile must be
//! byte-stable (the soak test byte-compares service tiles against a
//! direct in-process aggregation), so [`edges_in_tile_into`] collects,
//! sorts, and dedups the ids into ascending order before anything is
//! encoded.

use crate::index::{Aabb, EdgeIndex, QueryScratch};

/// Appends the 32-byte encoding of `bounds` to `out`: four
/// little-endian `f64`s (`min_x`, `min_y`, `max_x`, `max_y`).
pub fn encode_tile_bounds(bounds: &Aabb, out: &mut Vec<u8>) {
    out.extend_from_slice(&bounds.min_x.to_le_bytes());
    out.extend_from_slice(&bounds.min_y.to_le_bytes());
    out.extend_from_slice(&bounds.max_x.to_le_bytes());
    out.extend_from_slice(&bounds.max_y.to_le_bytes());
}

/// Decodes a 32-byte payload back into an [`Aabb`].
///
/// Returns `None` unless the payload is exactly 32 bytes and describes
/// a well-formed box: all four coordinates finite and `min <= max` on
/// both axes (NaNs fail the comparison and are rejected with the rest).
pub fn decode_tile_bounds(payload: &[u8]) -> Option<Aabb> {
    let (xs, rest) = payload.split_first_chunk::<8>()?;
    let (ys, rest) = rest.split_first_chunk::<8>()?;
    let (xe, rest) = rest.split_first_chunk::<8>()?;
    let (ye, rest) = rest.split_first_chunk::<8>()?;
    if !rest.is_empty() {
        return None;
    }
    let bounds = Aabb {
        min_x: f64::from_le_bytes(*xs),
        min_y: f64::from_le_bytes(*ys),
        max_x: f64::from_le_bytes(*xe),
        max_y: f64::from_le_bytes(*ye),
    };
    let finite = bounds.min_x.is_finite()
        && bounds.min_y.is_finite()
        && bounds.max_x.is_finite()
        && bounds.max_y.is_finite();
    if finite && bounds.min_x <= bounds.max_x && bounds.min_y <= bounds.max_y {
        Some(bounds)
    } else {
        None
    }
}

/// Collects the edge ids intersecting `query` into `out` in ascending
/// id order (sorted + deduped), clearing any previous contents.
/// `index` is an [`EdgeIndex`] or a
/// [`NetworkIndex`](crate::index::NetworkIndex), whose edge half
/// answers.
///
/// Reuses both the traversal `scratch` and `out`'s capacity, so a warm
/// call over a previously-seen tile size allocates nothing.
pub fn edges_in_tile_into<'a>(
    index: impl Into<&'a EdgeIndex>,
    query: Aabb,
    scratch: &mut QueryScratch,
    out: &mut Vec<u32>,
) {
    out.clear();
    for edge in index.into().edges_in_bbox(query, scratch) {
        out.push(edge);
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::city_network;
    use crate::index::NetworkIndex;

    #[test]
    fn bounds_roundtrip_is_exact() {
        let b = Aabb { min_x: -1234.5, min_y: 0.125, max_x: 9.75e3, max_y: 0.1 + 0.2 };
        let mut wire = Vec::new();
        encode_tile_bounds(&b, &mut wire);
        assert_eq!(wire.len(), 32);
        let back = decode_tile_bounds(&wire).unwrap();
        assert_eq!(back.min_x.to_bits(), b.min_x.to_bits());
        assert_eq!(back.min_y.to_bits(), b.min_y.to_bits());
        assert_eq!(back.max_x.to_bits(), b.max_x.to_bits());
        assert_eq!(back.max_y.to_bits(), b.max_y.to_bits());
    }

    #[test]
    fn decode_rejects_malformed_bounds() {
        let b = Aabb { min_x: 0.0, min_y: 0.0, max_x: 10.0, max_y: 10.0 };
        let mut wire = Vec::new();
        encode_tile_bounds(&b, &mut wire);
        // Wrong length.
        assert!(decode_tile_bounds(&wire[..31]).is_none());
        let mut long = wire.clone();
        long.push(0);
        assert!(decode_tile_bounds(&long).is_none());
        // Inverted box (min_x > max_x).
        let inv = Aabb { min_x: 11.0, ..b };
        let mut wire = Vec::new();
        encode_tile_bounds(&inv, &mut wire);
        assert!(decode_tile_bounds(&wire).is_none());
        // NaN and infinity coordinates.
        for bad in [f64::NAN, f64::INFINITY] {
            let mut wire = Vec::new();
            encode_tile_bounds(&Aabb { max_y: bad, ..b }, &mut wire);
            assert!(decode_tile_bounds(&wire).is_none());
        }
    }

    #[test]
    fn tile_edges_are_sorted_dedup_and_match_iterator_set() {
        let net = city_network(7);
        let index = NetworkIndex::build(&net);
        let full = index.bounds();
        let query = Aabb {
            min_x: full.min_x,
            min_y: full.min_y,
            max_x: 0.5 * (full.min_x + full.max_x),
            max_y: 0.5 * (full.min_y + full.max_y),
        };
        let mut scratch = QueryScratch::new();
        let mut tile = Vec::new();
        edges_in_tile_into(&index, query, &mut scratch, &mut tile);
        assert!(!tile.is_empty(), "quadrant query must hit edges");
        assert!(tile.windows(2).all(|w| w[0] < w[1]), "ids strictly ascending");
        let mut raw: Vec<u32> = index.edges_in_bbox(query, &mut scratch).collect();
        raw.sort_unstable();
        raw.dedup();
        assert_eq!(tile, raw);
        // Warm reuse keeps prior capacity and produces the same tile.
        let first = tile.clone();
        edges_in_tile_into(&index, query, &mut scratch, &mut tile);
        assert_eq!(tile, first);
    }
}

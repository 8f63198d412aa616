//! GeoJSON export of road networks with per-road value overlays.
//!
//! The paper's Figures 7, 9(a), and 10 are maps; this module serializes
//! the corresponding data as GeoJSON `FeatureCollection`s so any GIS tool
//! (QGIS, kepler.gl, geojson.io) can render them.

use crate::latlon::LocalFrame;
use crate::road::Road;
use crate::RoadNetwork;
use serde::Serialize;
use serde_json::{json, Value};

/// Properties attached to each exported road feature.
#[derive(Debug, Clone, Serialize)]
struct RoadProperties {
    id: u64,
    name: String,
    class: String,
    lanes: u32,
    length_m: f64,
    mean_gradient_deg: f64,
    /// Optional numeric overlay (fuel, emission, estimated gradient, …).
    #[serde(skip_serializing_if = "Option::is_none")]
    value: Option<f64>,
}

fn road_coordinates(road: &Road, frame: &LocalFrame) -> Vec<[f64; 2]> {
    road.centerline()
        .points()
        .iter()
        .map(|&p| {
            let ll = frame.to_latlon(p);
            [ll.lon_deg, ll.lat_deg] // GeoJSON is [lon, lat]
        })
        .collect()
}

fn mean_gradient_deg(road: &Road) -> f64 {
    let mut s = 5.0;
    let (mut acc, mut n) = (0.0, 0usize);
    while s < road.length() {
        acc += road.gradient_at(s);
        n += 1;
        s += 25.0;
    }
    if n == 0 {
        0.0
    } else {
        (acc / n as f64).to_degrees()
    }
}

fn road_feature(road: &Road, frame: &LocalFrame, value: Option<f64>) -> Value {
    json!({
        "type": "Feature",
        "geometry": {
            "type": "LineString",
            "coordinates": road_coordinates(road, frame),
        },
        "properties": RoadProperties {
            id: road.id(),
            name: road.name().to_string(),
            class: format!("{:?}", road.class()),
            lanes: road.lanes_at(road.length() / 2.0),
            length_m: road.length(),
            mean_gradient_deg: mean_gradient_deg(road),
            value,
        },
    })
}

/// Exports a network as a GeoJSON `FeatureCollection` of `LineString`s,
/// georeferenced through `frame`. `overlay` supplies an optional numeric
/// property per road (e.g. a fuel rate) keyed by edge index.
pub fn network_to_geojson(
    network: &RoadNetwork,
    frame: &LocalFrame,
    overlay: impl Fn(usize, &Road) -> Option<f64>,
) -> String {
    let features: Vec<Value> = network
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| road_feature(&e.road, frame, overlay(i, &e.road)))
        .collect();
    json!({
        "type": "FeatureCollection",
        "features": features,
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::city_network;
    use crate::LatLon;

    fn frame() -> LocalFrame {
        LocalFrame::new(LatLon::new(38.0293, -78.4767))
    }

    #[test]
    fn network_export_is_valid_json_with_all_edges() {
        let net = city_network(2);
        let s = network_to_geojson(&net, &frame(), |_, _| None);
        let v: Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v["type"], "FeatureCollection");
        assert_eq!(v["features"].as_array().unwrap().len(), net.edge_count());
        let f0 = &v["features"][0];
        assert_eq!(f0["geometry"]["type"], "LineString");
        assert!(f0["properties"]["length_m"].as_f64().unwrap() > 0.0);
        // No overlay requested → property absent.
        assert!(f0["properties"].get("value").is_none());
    }

    #[test]
    fn overlay_values_are_attached() {
        let net = city_network(2);
        let s = network_to_geojson(&net, &frame(), |i, _| Some(i as f64 * 1.5));
        let v: Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v["features"][2]["properties"]["value"], 3.0);
    }

    #[test]
    fn coordinates_are_lon_lat_near_anchor() {
        let net = city_network(2);
        let s = network_to_geojson(&net, &frame(), |_, _| None);
        let v: Value = serde_json::from_str(&s).unwrap();
        let c = v["features"][0]["geometry"]["coordinates"][0].as_array().unwrap();
        let lon = c[0].as_f64().unwrap();
        let lat = c[1].as_f64().unwrap();
        assert!((lat - 38.03).abs() < 0.3, "lat {lat}");
        assert!((lon + 78.48).abs() < 0.3, "lon {lon}");
    }
}

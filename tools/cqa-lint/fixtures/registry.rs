// Miniature name registry the fixture tests lint against.
pub const SPANS: &[&str] = &["server/request", "demo/work"];
pub const METRICS: &[&str] = &["server_requests_total"];
pub const SERIES: &[&str] = &["demo/build_ns", "demo/throughput_rps"];
pub const FIELDS: &[&str] = &["request_id", "total_us"];
pub const POINTS: &[&str] = &["demo/parse", "demo/write"];

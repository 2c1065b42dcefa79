//! Offline stand-in for `serde_json`. `hoard-trace` declares the
//! dependency but only its tests call it, and the benchmark never
//! builds those, so the crate is empty.

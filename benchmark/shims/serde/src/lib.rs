//! Offline stand-in for `serde`: the marker traits and (with the
//! `derive` feature) no-op derives. The benchmark serialises nothing
//! through serde; the library crates only need their `#[derive]`s and
//! `#[serde(..)]` attributes to compile.

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

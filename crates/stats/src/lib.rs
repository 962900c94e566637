//! # resemble-stats
//!
//! Metric and reporting utilities for the ReSemble harness: curve
//! smoothing (Fig 6), geometric means (Fig 12 averages), and plain-text
//! table/series rendering used by every figure/table binary.

#![warn(missing_docs)]

pub mod series;
pub mod summary;
pub mod table;

pub use series::smooth;
pub use summary::{geo_mean, mean, percent};
pub use table::{render_series, Table};

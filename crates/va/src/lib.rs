//! # hermes-va
//!
//! Data-side reproduction of the Visual Analytics views of the demo (Fig. 1,
//! Fig. 3, Fig. 4). The interactive V-Analytics GUI is out of scope; every
//! figure, however, is backed by a derived dataset, and this crate
//! regenerates those datasets and renders them to SVG/CSV:
//!
//! * [`map`] — the map display: cluster members projected on the x/y plane,
//!   colour-coded by cluster (Fig. 1 top), as SVG and CSV,
//! * [`histogram`] — the time histogram of cluster cardinality over time
//!   (Fig. 1 middle),
//! * [`cube`] — the space–time cube: 3D polylines (x, y, t) per cluster
//!   member (Fig. 1 bottom / Fig. 3), exported as CSV for external 3D tools,
//! * [`compare`] — side-by-side comparison of two clustering runs (Fig. 3),
//! * [`holding`] — detection of holding patterns among cluster
//!   representatives (Fig. 4).
//!
//! **Layer:** a read-only consumer of clustering results, above the engine;
//! nothing depends on it. See `docs/ARCHITECTURE.md` for the layer map.

pub mod compare;
pub mod cube;
pub mod histogram;
pub mod holding;
pub mod map;

pub use compare::{compare_runs, RunComparison};
pub use cube::space_time_cube_csv;
pub use histogram::{histogram_cells, time_histogram, TimeHistogram};
pub use holding::{detect_holding_patterns, HoldingPattern};
pub use map::{cluster_map_csv, cluster_map_svg};

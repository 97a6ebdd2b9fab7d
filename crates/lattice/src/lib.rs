//! # rescq-lattice
//!
//! The surface-code fabric substrate for the RESCQ reproduction: tiles with
//! X/Z boundary orientation ([`Orientation`]), the rectangular [`Grid`], STAR-block
//! [`Layout`]s with §5.3's seeded grid compression, the ancilla routing
//! [`AncillaGraph`], and the incrementally-maintained [`IncrementalMst`]
//! (paper §4.2 / §5.4.1).
//!
//! # Quick example
//!
//! ```
//! use rescq_lattice::{AncillaGraph, IncrementalMst, Layout, LayoutKind};
//!
//! let mut layout = Layout::new(LayoutKind::Star2x2, 16).unwrap();
//! layout.compress(0.5, 42);
//! assert!(layout.is_routable());
//!
//! let graph = AncillaGraph::from_grid(layout.grid());
//! let edges: Vec<_> = graph.edges().iter().map(|&(a, b)| (a, b, 0)).collect();
//! let mst = IncrementalMst::new(graph.len(), &edges);
//! assert_eq!(mst.tree_size(), graph.len() - 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graph;
mod grid;
mod layout;
mod mst;
mod tile;

pub use graph::{ancilla_network_connected, AncillaGraph, AncillaIndex, UnionFind};
pub use grid::Grid;
pub use layout::{DataAdjacency, Layout, LayoutError, LayoutKind};
pub use mst::{EdgeId, IncrementalMst, NodeId, TreePathScratch};
pub use tile::{Corner, EdgeType, Orientation, Side, TileId, TileKind};

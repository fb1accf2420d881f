//! # floorplan — FPGA resource model and floorplanner for MultiNoC
//!
//! Section 3 of the paper reports the prototyping results on a Xilinx
//! Spartan-IIe XC2S200E: the system occupies **98% of the slices and 78%
//! of the LUTs**, and only a manual floorplan (Fig. 7) let physical
//! synthesis succeed — the NoC in the middle, the serial IP next to its
//! I/O pins, each processor next to its BlockRAM column, the memory IP in
//! the remaining space.
//!
//! This crate rebuilds that part of the work as an optimization problem:
//!
//! - [`device`] — the XC2S200E resource model (2352 slices, 4704 LUTs,
//!   14 × 4-Kbit BlockRAMs in two edge columns);
//! - [`estimate`] — per-IP resource requirements, calibrated against the
//!   paper's totals (see the module docs for the calibration);
//! - [`place`] — a simulated-annealing floorplanner minimizing weighted
//!   half-perimeter wirelength over the system netlist;
//! - [`scaling`] — the "NoC area fraction shrinks below 10%/5% for large
//!   systems" analysis (§3, last paragraph).
//!
//! ## Example
//!
//! ```rust
//! use floorplan::device::Device;
//! use floorplan::estimate::multinoc_components;
//! use floorplan::place::paper_layout;
//!
//! let device = Device::xc2s200e();
//! let (components, nets) = multinoc_components();
//! let utilization = floorplan::estimate::utilization(&components, &device);
//! assert!(utilization.slice_fraction() > 0.95); // the paper reports 98%
//! // The automatic placer fails at this utilization (as in the paper);
//! // the encoded Fig. 7 floorplan is legal.
//! let plan = paper_layout(&device, &components)?;
//! assert!(plan.is_legal());
//! println!("{}", plan.ascii_art());
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod device;
pub mod estimate;
pub mod place;
pub mod scaling;

pub use device::Device;
pub use estimate::{Component, ComponentKind, Net, Utilization};
pub use place::{paper_layout, Floorplan, Placer, Rect};

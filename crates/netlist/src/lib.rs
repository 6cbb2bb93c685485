//! Gate-level netlist IR with cycle-accurate simulation and fault hooks.
//!
//! This crate is the reproduction's stand-in for the Yosys RTLIL layer the
//! SCFI paper's pass operates on (§5). It provides:
//!
//! * [`Module`] — a flat gate-level netlist of 2-input gates, inverters,
//!   2:1 muxes, constants and D flip-flops, where every cell drives exactly
//!   one net ([`NetId`] ≡ [`CellId`]),
//! * [`ModuleBuilder`] — an ergonomic way to emit logic, with word-level
//!   helpers (XOR/AND reduction trees, comparators, one-hot mux arrays),
//! * [`Simulator`] — deterministic two-phase clocked evaluation
//!   (combinational settle, then register update) with the fault-injection
//!   hooks the SYNFI-style analysis needs: transient bit-flips and stuck-at
//!   faults on any net or any individual cell input pin, and direct register
//!   manipulation,
//! * [`PackedNetlist`] / [`PackedSimulator`]`<W>` — the word-level,
//!   bit-parallel campaign engine: the module compiled once into a
//!   levelized struct-of-arrays program, evaluated over `[u64; W]` net
//!   waves where each bit is an independent simulation lane (64, 128 or
//!   256 fault injections per gate operation for `W` ∈ {1, 2, 4}, faults
//!   as precompiled AND/OR/XOR masks),
//! * [`ModuleStats`] — cell histograms and logic depth,
//! * DOT and structural-Verilog export.
//!
//! # Example
//!
//! A toggle flip-flop with an enable input:
//!
//! ```
//! use scfi_netlist::{ModuleBuilder, Simulator};
//!
//! let mut b = ModuleBuilder::new("toggle");
//! let en = b.input("en");
//! let q = b.dff_uninit(false);
//! let next = b.xor2(q, en);
//! b.set_dff_input(q, next);
//! b.output("q", q);
//! let module = b.finish().expect("valid netlist");
//!
//! let mut sim = Simulator::new(&module);
//! assert_eq!(sim.step(&[true]), vec![false]); // output before the edge
//! assert_eq!(sim.step(&[true]), vec![true]);
//! assert_eq!(sim.step(&[false]), vec![false]); // toggled again, then holds
//! ```

#![deny(missing_docs)]

mod builder;
mod export;
mod ir;
mod packed;
mod sim;
mod stats;

pub use builder::ModuleBuilder;
pub use ir::{Cell, CellId, CellKind, Module, NetId, ValidateError};
pub use packed::{extract_lane, lane_mask, PackedNetlist, PackedSimulator, LANES};
pub use sim::Simulator;
pub use stats::ModuleStats;

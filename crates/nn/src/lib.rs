//! # resemble-nn
//!
//! Minimal dependency-free `f32` neural-network library backing the
//! ReSemble MLP controller and the Voyager-like neural prefetcher. The
//! paper's controller is deliberately tiny (a 4→100→5 MLP, Table IV), so
//! this crate favours exactness, determinism, and allocation-free hot
//! paths over generality: row-major matrices, manual backprop, and plain
//! SGD applied in place (the hardware-faithful rule of Eq. 11).
//!
//! The batched kernels dispatch through [`simd`] to runtime-detected
//! AVX-512/AVX2 tiers (overridable with `RESEMBLE_SIMD`), all
//! bit-identical to the scalar fallback by construction.
//!
//! ```
//! use resemble_nn::{Activation, Mlp};
//!
//! let net = Mlp::new(&[4, 100, 5], Activation::Relu, 42);
//! let q = net.predict(&[0.1, 0.9, 0.3, 0.5]);
//! assert_eq!(q.len(), 5);
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod align;
pub mod checkpoint;
pub mod matrix;
pub mod mlp;
pub mod quant;
pub mod simd;

pub use activation::Activation;
pub use align::AlignedVec;
pub use checkpoint::{load_mlp_binary, save_mlp_binary};
pub use matrix::Matrix;
pub use mlp::{BatchScratch, GradBuffer, Mlp, Scratch};
pub use quant::{argmax_agreement, quantize_mlp, QuantSpec, QuantizedMlp};
pub use simd::{CpuCaps, KernelBackend};

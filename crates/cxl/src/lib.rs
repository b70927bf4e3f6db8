//! # dtl-cxl — CXL link and controller-front-end models
//!
//! Models the attachment point between hosts and the DTL memory device:
//!
//! * [`LinkModel`] — the added latency of CXL vs native DRAM (Table 1 of
//!   the paper: 121 ns native, 210 ns CXL);
//! * [`RetryEngine`] — the CXL link-layer CRC/ack/replay loop, charging
//!   exponential-backoff latency and link energy to corrupted transfers;
//! * [`AmatModel`] — the paper's §6.1 analytical AMAT under DTL address
//!   translation (Equations 1–2).
//!
//! ```
//! use dtl_cxl::AmatModel;
//! use dtl_dram::Picos;
//!
//! let m = AmatModel::paper(Picos::from_ns(121));
//! assert!((m.amat().as_ns_f64() - 214.2).abs() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod amat;
mod link;
mod loaded;

pub use amat::AmatModel;
pub use link::{LinkDelivery, LinkModel, LinkRetryStats, RetryEngine, RetryPolicy};
pub use loaded::LoadedLatencyModel;

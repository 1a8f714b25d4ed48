//! `mcast-serve`: measurement-as-a-service for the multicast-scaling
//! workspace.
//!
//! ROADMAP item 3 in one crate: the content-addressed result cache and
//! fault-isolated scheduler already answer `N(m)`/`L̂(m)` queries — this
//! crate puts a daemon in front of them so *many concurrent clients*
//! can ask, which is the regime where the Chuang–Sirbu scaling question
//! actually lives (an operator observing tree cost across millions of
//! group-size queries).
//!
//! Layers, bottom-up:
//!
//! * [`protocol`] — hand-rolled HTTP/1.1 subset + JSONL streaming
//!   (incremental parser, split-point tolerant; no hyper/tokio — the
//!   workspace is std-only below the experiment layer).
//! * [`admission`] — bounded connection queue between the acceptor and
//!   the worker pool; overflow is load-shed with a 503 at the door.
//! * [`quota`] — per-client token buckets (`X-Client-Id`), 429 with a
//!   retry hint when a client outruns its rate.
//! * [`registry`] — content-addressed topology catalogue (uploads are
//!   validated through the store's `try_from_csr` decode path) and the
//!   single-flight table that coalesces identical in-flight queries
//!   into one scheduler execution with shared, byte-identical bodies.
//! * [`router`] — the endpoint table, the [`router::Backend`] trait the
//!   experiment layer implements, and the structured error payloads
//!   that map exit-2 partial-failure semantics onto per-request JSON.
//! * [`server`] — acceptor + worker pool + request log + graceful
//!   drain.
//!
//! The crate deliberately knows nothing about measurement itself: the
//! scheduler/cache glue lives in `mcast-experiments`, which implements
//! [`router::Backend`] and wires `mcs serve`. DESIGN.md §12 documents
//! the protocol and its invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod protocol;
pub mod quota;
pub mod registry;
pub mod router;
pub mod server;

pub use admission::{AdmissionError, BoundedQueue};
pub use protocol::{
    encode_request, error_body, parse_response, ParsedResponse, ProtocolError, Request,
    RequestParser,
};
pub use quota::{QuotaConfig, QuotaDecision, Quotas};
pub use registry::{Flights, TopologyRegistry};
pub use router::{Backend, BackendError, GroupFailureInfo, MeasureOutput, MeasureSpec, QueryKind};
pub use server::{serve, ServeConfig, ServerHandle};

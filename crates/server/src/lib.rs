//! # eris-server — the network serving layer of the ERIS engine
//!
//! ERIS itself is an in-memory storage engine: AEUs own partitions,
//! commands are routed latch-free to their owners, and an epoch boundary
//! executes one batch everywhere.  This crate puts a *front end* on
//! that: framed client connections multiplexed into the engine's
//! per-AEU routing buffers, with admission control as a first-class
//! subsystem rather than an afterthought.
//!
//! * [`frame`] — the length-prefixed binary protocol.  The only command
//!   wire format is the stable `DataCommand` encoding from
//!   `eris_core::command`; frames add connection/tenant/credit headers
//!   around it, hardened against hostile bytes.
//! * [`admission`] — credit windows (bounded outstanding commands per
//!   connection; backpressure by withholding grants), per-tenant token
//!   buckets, and the overload-shed decision.  Latch-free, on the
//!   `eris-sync` facade, loom-modelled; checked as a hot path.
//! * [`transport`] — non-blocking byte transports behind one trait:
//!   deterministic in-process loopback pipes and TCP.
//! * [`server`] — [`EngineServer`], the batch-aligned serving core:
//!   read + admit, epoch boundary, settle + flush.  Every received
//!   command gets exactly one typed response (`Accepted` / `Shed` /
//!   `QuotaDenied` / `Rejected`), and the [`ServingLedger`] composes
//!   with the engine's conservation law to prove accepted == executed
//!   and shed-after-accept == 0.
//! * [`client`] — a small client mirroring the credit window locally.
//! * [`tcp`] — the readiness-polling TCP listener loop and its idle rule
//!   ([`IdleRule`]: spin while there is traffic, sleep when there is none).
//! * [`tenant`] — the per-tenant admission counters, written only by
//!   the serving loop.

pub mod admission;
pub mod client;
pub mod frame;
pub mod server;
pub mod tcp;
pub mod tenant;
pub mod transport;

pub use admission::{Admission, AdmissionConfig, Admit, CreditWindow, LoadSignal, TokenBucket};
pub use client::{Client, ClientStats};
pub use frame::{
    FrameError, ReqKind, RequestFrame, RespKind, ResponseFrame, MAX_PAYLOAD_BYTES, REJ_DECODE,
    REJ_PROTOCOL, REJ_ROUTING, SHED_CREDIT_VIOLATION, SHED_OVERLOAD,
};
pub use server::{
    ClockSource, EngineServer, PumpReport, ServerConfig, ServerCounters, ServerSnapshot,
    ServingLedger, ShutdownOutcome,
};
pub use tcp::{IdleRule, IdleStep, TcpServer};
pub use tenant::{TenantCounts, TenantShard};
pub use transport::{loopback_pair, PipeTransport, TcpTransport, Transport};

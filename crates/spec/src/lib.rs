//! # nbc-spec — the spec parser's old name
//!
//! The parser for the `.nbc` protocol format lives in `nbc-core` as
//! [`nbc_core::spec`], where the protocol catalog is written in it. This
//! crate only re-exports it for callers that still name `nbc_spec`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use nbc_core::spec::{parse, ParseError};

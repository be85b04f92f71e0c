//! `aida-data`: the data-lake substrate for the AIDA runtime.
//!
//! This crate provides the foundational data model shared by every other
//! crate in the workspace:
//!
//! * [`Value`] — a dynamically-typed scalar/list value (the unit of all
//!   record fields, SQL cells, and script interop).
//! * [`Record`] and [`Schema`] — ordered, schema-carrying tuples produced and
//!   consumed by semantic operators and the SQL engine.
//! * [`Document`] — a named file in an unstructured data lake (CSV, HTML,
//!   plain text, or email), optionally carrying hidden ground-truth labels
//!   used by the simulated LLM oracle.
//! * [`csv`] — an RFC-4180-ish CSV reader/writer built from scratch.
//! * [`html`] — a minimal HTML text/`<table>` extractor.
//! * [`Table`] — an in-memory column-typed table (the structured side of the
//!   runtime, fed into `aida-sql`).
//! * [`DataLake`] — an in-memory collection of documents with name lookup.
//!
//! Everything here is deterministic and dependency-free; parsing never
//! panics on malformed input (errors are reported via [`DataError`]).

pub mod csv;
pub mod document;
pub mod error;
pub mod html;
pub mod lake;
pub mod record;
pub mod table;
pub mod value;

pub use document::{line_spans, may_contain, DocKind, Document, GramSet, TableView};
pub use error::DataError;
pub use lake::DataLake;
pub use record::{Field, Record, Schema};
pub use table::Table;
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;

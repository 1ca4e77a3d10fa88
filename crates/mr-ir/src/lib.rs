//! # MR-IR — the compiled-program substrate for Manimal
//!
//! The Manimal paper analyzes *compiled, unmodified* MapReduce programs:
//! JVM bytecode inspected through the ASM library. This crate provides
//! the equivalent artifact for the Rust reproduction: **MR-IR**, a small
//! register-based intermediate representation with
//!
//! * a typed [`value`] model and record [`schema`]s ("the code that
//!   serializes these classes effectively declares the file's schema"),
//! * an [`instr`]uction set with branches, field reads, library
//!   [`stdlib`] calls (with analyzer-visible purity), mapper member
//!   variables, and an `emit` primitive,
//! * a [`builder`] API, a textual [`asm`] assembler (the "compilers") and
//!   a re-parseable [`printer`],
//! * a [`verify`] pass (the bytecode verifier), and
//! * an [`interp`]reter used by the execution fabric to run map tasks.
//!
//! Static analysis itself (CFGs, reaching definitions, the selection /
//! projection / compression detectors) lives in the `mr-analysis` crate;
//! this crate deliberately knows nothing about optimization.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asm;
pub mod builder;
pub mod error;
pub mod function;
pub mod instr;
pub mod interp;
pub mod printer;
pub mod record;
pub mod schema;
pub mod stdlib;
pub mod value;
pub mod verify;

pub use error::IrError;
pub use function::{Function, Program};
pub use instr::{BinOp, CmpOp, Instr, ParamId, Reg, SideEffectKind};
pub use record::{record, FieldMap, Record, RecordError};
pub use schema::{FieldDef, FieldType, Schema};
pub use value::Value;

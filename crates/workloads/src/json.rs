//! The workspace's JSON parser and writer live in [`orc_util::json`];
//! this path is kept so `workloads::json::Json` keeps resolving.

pub use orc_util::json::*;

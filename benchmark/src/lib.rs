//! The repo benchmark of the DROM reproduction: four scheduler replays and
//! one real-path co-allocation loop, measured from outside the library, at
//! its public calls. `benchmark/README.md` says what is measured and why.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod coalloc;
pub mod layers;
pub mod manifest;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;

//! DROM — Dynamic Resource Ownership Management.
//!
//! This crate is the paper's primary contribution: an API that lets a resource
//! manager (or any *administrator process*) change, at run time, the CPUs owned
//! by processes attached to the DLB runtime, together with the application-side
//! runtime those processes use to observe the changes.
//!
//! The public surface mirrors the C interface of Section 3.2 of the paper:
//!
//! | Paper API | This crate |
//! |---|---|
//! | `DROM_Attach` / `DROM_Detach` | [`DromAdmin::attach`] / [`DromAdmin::detach`] |
//! | `DROM_GetPidList` | [`DromAdmin::get_pid_list`] |
//! | `DROM_GetProcessMask` / `DROM_SetProcessMask` | [`DromAdmin::get_process_mask`] / [`DromAdmin::set_process_mask`] |
//! | `DROM_PreInit` / `DROM_PostFinalize` | [`DromAdmin::pre_init`] / [`DromAdmin::post_finalize`] |
//! | `DLB_Init` / `DLB_Finalize` | [`DromProcess::init`] / [`DromProcess::finalize`] |
//! | `DLB_PollDROM` | [`DromProcess::poll_drom`] |
//! | asynchronous mode (helper thread + callbacks) | [`AsyncListener`] |
//! | LeWI (Lend When Idle) | [`Lewi`] |
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use drom_core::{DromAdmin, DromFlags, DromProcess};
//! use drom_shmem::NodeShmem;
//! use drom_cpuset::CpuSet;
//!
//! // One shared-memory segment per node (here: a 16-CPU node).
//! let shmem = Arc::new(NodeShmem::new("node1", 16));
//!
//! // An application initialises DLB with its starting mask.
//! let app = DromProcess::init(100, CpuSet::first_n(16), Arc::clone(&shmem)).unwrap();
//!
//! // The resource manager attaches and shrinks the application to 8 CPUs.
//! let admin = DromAdmin::attach(Arc::clone(&shmem));
//! admin.set_process_mask(100, &CpuSet::from_range(0..8).unwrap(), DromFlags::default()).unwrap();
//!
//! // At its next malleability point the application picks up the new mask.
//! let update = app.poll_drom().unwrap().expect("an update is pending");
//! assert_eq!(update.count(), 8);
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod callbacks;
pub mod error;
pub mod flags;
pub mod lewi;
pub mod process;

pub use api::{DromAdmin, DromEnviron, SetMaskReport};
pub use callbacks::AsyncListener;
pub use error::{DromError, DromResult};
pub use flags::DromFlags;
pub use lewi::{Lewi, LewiStats};
pub use process::{DromProcess, ProcessStats};

/// Re-export of the pid type used across the DROM stack.
pub use drom_shmem::Pid;

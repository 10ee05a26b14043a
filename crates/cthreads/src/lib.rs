//! A C-Threads-style programming layer over the ACE simulator.
//!
//! The paper's applications (other than the EPEX FORTRAN FFT) are written
//! against Mach's C-Threads package: one task, a single uniform address
//! space where *all data is implicitly shared*, spin locks for mutual
//! exclusion, and ad-hoc work piles for load balancing. This crate
//! provides those pieces for simulated threads:
//!
//! * [`SpinLock`] — a test-and-set spin lock in simulated memory;
//! * [`Barrier`] — a sense-reversing barrier built on a spin lock;
//! * [`WorkPile`] — a shared index dispenser for self-scheduling loops;
//! * [`Arena`] — bump allocation within an allocated region, with both
//!   the C-Threads discipline (objects packed together regardless of
//!   sharing class) and the tuned discipline the paper describes
//!   (page-aligned padding to segregate private, read-shared and
//!   write-shared data);
//! * [`LayoutCompiler`] — the "language processor" solution the paper
//!   asks for (sections 4.2 and 5): declare objects with their sharing
//!   class and get a false-sharing-free layout automatically.

#![forbid(unsafe_code)]

pub mod arena;
pub mod layout;
pub mod sync;
pub mod workpile;

pub use arena::Arena;
pub use layout::{Layout, LayoutCompiler, SharingClass};
pub use sync::{Barrier, SpinLock};
pub use workpile::WorkPile;

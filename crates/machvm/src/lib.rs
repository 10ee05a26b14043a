//! Mach-style machine-independent virtual memory.
//!
//! The SOSP '89 NUMA work lives *below* Mach's pmap interface; this crate
//! reimplements the parts of Mach above it that the paper depends on:
//!
//! * **tasks** and their **address maps** ([`VmMap`]): ranges of virtual
//!   pages mapped to offsets within memory objects, each with a user
//!   protection;
//! * **memory objects** ([`VmObject`]): zero-fill backing store whose
//!   resident pages are logical pages;
//! * the **logical page pool** ([`LogicalPool`]): Mach's fixed-size pool
//!   of "machine independent physical pages". On the ACE the pool is the
//!   same size as global memory and logical page *i* corresponds to global
//!   frame *i*; a logical page may additionally be cached in local
//!   memories by the pmap layer;
//! * the **fault handler** ([`VmState::fault`]): resolves page faults by
//!   finding (or zero-filling) the logical page and re-entering the
//!   mapping through the pmap interface;
//! * the **pmap interface** ([`NumaPmap`]): the machine-dependent
//!   contract, *including the paper's three NUMA extensions* (section
//!   2.3.3): min/max protection arguments to `pmap_enter`, a target
//!   processor argument, and the `pmap_free_page` / `pmap_free_page_sync`
//!   lazy-reclamation pair.

#![forbid(unsafe_code)]

pub mod addr;
pub mod map;
pub mod object;
pub mod pmap;
pub mod pool;
pub mod state;

pub use addr::VAddr;
pub use map::{VmEntry, VmMap};
pub use object::{VmObject, VmObjectId};
pub use pmap::{FreeTag, NullPmap, NumaError, NumaPmap};
pub use pool::{LPageId, LogicalPool, PoolFreeError};
pub use state::{TaskId, VmError, VmState};

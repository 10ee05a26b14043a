//! Simulated IBM ACE multiprocessor workstation.
//!
//! The ACE (Advanced Computing Environment) was a NUMA workstation built at
//! the IBM T. J. Watson Research Center: up to eight ROMP-C processor
//! modules, each with a Rosetta-C memory management unit and 8 MB of local
//! memory, plus up to 256 MB of global memory, all connected by an 80 MB/s
//! Inter-Processor Communication (IPC) bus. Every processor can address any
//! memory, but local memory is roughly twice as fast as global memory
//! (2.3x on fetches, 1.7x on stores).
//!
//! This crate models the pieces of that machine that the SOSP '89 NUMA
//! memory management work depends on:
//!
//! * [`MachineConfig`] — processor count, memory sizes, page size, and the
//!   access-cost model with the paper's measured constants;
//! * [`PhysMem`] — physical page frames holding real bytes, split into one
//!   global region and one local region per processor, with per-region
//!   frame allocators;
//! * [`Mmu`] — a Rosetta-like per-processor MMU, including Rosetta's
//!   restriction of a single virtual address per physical page per
//!   processor;
//! * [`Machine`] — the assembled machine: memory, MMUs, per-processor
//!   user/system clocks, and IPC-bus accounting.
//!
//! Everything above this layer (the Mach-style VM, the NUMA manager, the
//! execution engine) manipulates the machine only through these types, just
//! as the paper's pmap layer sat between Mach and the Rosetta hardware.

pub mod bus;
pub mod clock;
pub mod config;
pub mod fault;
pub mod idhash;
pub mod machine;
pub mod mem;
pub mod mmu;
pub mod prot;
pub mod time;
pub mod topology;
pub mod types;

pub use bus::{BusQueue, BusStats};
pub use clock::{CpuClocks, CpuTime};
pub use config::{MachineConfig, PageSize};
pub use fault::{BusTimeout, CopyFault, FaultConfig, FaultInjector, FaultStats, HardFault};
pub use idhash::{IdHashMap, IdHashSet, IdHasher};
pub use machine::{Machine, MachineEvent, MachineTap};
pub use mem::{Frame, MemError, MemRegion, PhysMem};
pub use mmu::{AccessKind, Mmu, MmuFault};
pub use prot::Prot;
pub use time::{Access, CostModel, Distance, Ns};
pub use topology::{HopCost, Topology, TopologyBuilder};
pub use types::{CpuId, CpuSet, NodeId};

//! Trace persistence: a line-oriented text format for reference traces,
//! so traces can be captured once and analyzed offline (the workflow
//! behind "we have begun to make and analyze reference traces of
//! parallel programs", section 3.1).
//!
//! Format: a header line `#numa-trace v1 page=<bytes>`, then one event
//! per line: `<t_ns> <cpu> <addr_hex> <R|W> <L|G|M> <words>`.
//!
//! The file format is unchanged by the run-compressed [`Trace`]: writing
//! expands every run back into its references and reading pushes them
//! one by one, so a file says nothing about how a trace was held.

use crate::record::Trace;
use ace_machine::{Access, CpuId, Distance, Ns, PageSize};
use ace_sim::RefEvent;
use mach_vm::VAddr;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors when decoding a stored trace.
#[derive(Debug)]
pub enum TraceFormatError {
    /// Missing or malformed header line.
    BadHeader(String),
    /// A malformed event line (line number, content).
    BadLine(usize, String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFormatError::BadHeader(h) => write!(f, "bad trace header: {h:?}"),
            TraceFormatError::BadLine(n, l) => write!(f, "bad trace line {n}: {l:?}"),
            TraceFormatError::Io(e) => write!(f, "trace i/o: {e}"),
        }
    }
}

impl std::error::Error for TraceFormatError {}

impl From<std::io::Error> for TraceFormatError {
    fn from(e: std::io::Error) -> Self {
        TraceFormatError::Io(e)
    }
}

/// Serializes a trace to the text format.
pub fn write_trace(trace: &Trace, mut out: impl Write) -> Result<(), TraceFormatError> {
    let mut buf = String::new();
    writeln!(buf, "#numa-trace v1 page={}", trace.page_size.bytes()).expect("string write");
    for e in trace.iter() {
        let kind = match e.kind {
            Access::Fetch => 'R',
            Access::Store => 'W',
        };
        let dist = match e.dist {
            Distance::Local => 'L',
            Distance::Global => 'G',
            Distance::Remote => 'M',
        };
        writeln!(
            buf,
            "{} {} {:x} {kind} {dist} {}",
            e.t.0, e.cpu.0, e.addr.0, e.words
        )
        .expect("string write");
        if buf.len() > 1 << 20 {
            out.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    out.write_all(buf.as_bytes())?;
    Ok(())
}

/// Parses a trace from the text format.
pub fn read_trace(input: impl Read) -> Result<Trace, TraceFormatError> {
    let mut lines = BufReader::new(input).lines();
    let header = lines
        .next()
        .ok_or_else(|| TraceFormatError::BadHeader("<empty>".into()))??;
    let page = header
        .strip_prefix("#numa-trace v1 page=")
        .and_then(|p| p.trim().parse::<usize>().ok())
        .filter(|p| p.is_power_of_two() && *p >= 64)
        .ok_or_else(|| TraceFormatError::BadHeader(header.clone()))?;
    let mut trace = Trace::new(PageSize::new(page));
    for (n, line) in lines.enumerate() {
        let line = line?;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        let parse = || TraceFormatError::BadLine(n + 2, line.clone());
        let t: u64 = it.next().and_then(|s| s.parse().ok()).ok_or_else(parse)?;
        let cpu: u16 = it.next().and_then(|s| s.parse().ok()).ok_or_else(parse)?;
        let addr = it
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(parse)?;
        let kind = match it.next() {
            Some("R") => Access::Fetch,
            Some("W") => Access::Store,
            _ => return Err(parse()),
        };
        let dist = match it.next() {
            Some("L") => Distance::Local,
            Some("G") => Distance::Global,
            Some("M") => Distance::Remote,
            _ => return Err(parse()),
        };
        let words: u64 = it.next().and_then(|s| s.parse().ok()).ok_or_else(parse)?;
        if it.next().is_some() {
            return Err(parse());
        }
        trace.push(&RefEvent {
            t: Ns(t),
            cpu: CpuId(cpu),
            addr: VAddr(addr),
            kind,
            dist,
            words,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_events(
            PageSize::new(2048),
            [
                RefEvent {
                    t: Ns(100),
                    cpu: CpuId(0),
                    addr: VAddr(0x2000),
                    kind: Access::Store,
                    dist: Distance::Local,
                    words: 1,
                },
                RefEvent {
                    t: Ns(250),
                    cpu: CpuId(3),
                    addr: VAddr(0x2ff8),
                    kind: Access::Fetch,
                    dist: Distance::Global,
                    words: 2,
                },
                RefEvent {
                    t: Ns(300),
                    cpu: CpuId(1),
                    addr: VAddr(0x4000),
                    kind: Access::Fetch,
                    dist: Distance::Remote,
                    words: 1,
                },
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert!(back.iter().eq(t.iter()));
        assert_eq!(back.page_size.bytes(), 2048);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "#numa-trace v1 page=256\n\n# a comment\n5 1 10 R L 1\n";
        let t = read_trace(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().next().unwrap().addr, VAddr(0x10));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(matches!(
            read_trace("nonsense\n".as_bytes()),
            Err(TraceFormatError::BadHeader(_))
        ));
        // A page size no machine can have is a bad header, not a panic.
        assert!(matches!(
            read_trace("#numa-trace v1 page=100\n".as_bytes()),
            Err(TraceFormatError::BadHeader(_))
        ));
        assert!(matches!(
            read_trace("#numa-trace v1 page=256\n1 2 zz R L 1\n".as_bytes()),
            Err(TraceFormatError::BadLine(2, _))
        ));
        assert!(matches!(
            read_trace("#numa-trace v1 page=256\n1 2 10 X L 1\n".as_bytes()),
            Err(TraceFormatError::BadLine(..))
        ));
        assert!(matches!(
            read_trace("#numa-trace v1 page=256\n1 2 10 R L 1 extra\n".as_bytes()),
            Err(TraceFormatError::BadLine(..))
        ));
    }

    #[test]
    fn remote_hops_reach_the_disk_format() {
        // On a hierarchical machine a page hosted in another node's
        // local memory is charged at Remote distance. The flat paper
        // machine never produces that arm, so exercise it end to end:
        // the recorder must capture 'M' events and the disk format must
        // round-trip them.
        use crate::record::Recorder;
        use ace_machine::{NodeId, Prot, TopologyBuilder};
        use ace_sim::{SimConfig, Simulator};
        use mach_vm::LPageId;
        use numa_core::{CachePolicy, Placement};

        struct HostOnNode1;
        impl CachePolicy for HostOnNode1 {
            fn name(&self) -> &'static str {
                "host-on-node1"
            }
            fn decide(&mut self, _lpage: LPageId, _access: Access, _cpu: CpuId) -> Placement {
                Placement::RemoteAt(NodeId(1))
            }
        }

        let cfg = SimConfig::small(2).topology(TopologyBuilder::two_socket(2).build());
        let mut sim = Simulator::new(cfg, Box::new(HostOnNode1));
        let a = sim.alloc(512, Prot::READ_WRITE);
        let rec = Recorder::install(&sim);
        // Two threads, one per socket: the thread homed on node 0
        // references node 1's frames remotely.
        for t in 0..2u64 {
            sim.spawn(format!("t{t}"), move |ctx| {
                for i in 0..20u64 {
                    ctx.write_u32(a + ((t * 20 + i) % 64) * 4, i as u32);
                    ctx.read_u32(a + ((t * 20 + i) % 64) * 4);
                }
            });
        }
        sim.run();
        let trace = rec.take(&sim);
        assert!(
            trace.iter().any(|e| e.dist == Distance::Remote),
            "a cross-socket host never produced a Remote reference"
        );
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.lines().any(|l| l.split_whitespace().nth(4) == Some("M")));
        let back = read_trace(&buf[..]).unwrap();
        assert!(back.iter().eq(trace.iter()));
    }

    #[test]
    fn captured_trace_roundtrips_through_disk_format() {
        use crate::record::Recorder;
        use ace_machine::Prot;
        use ace_sim::{SimConfig, Simulator};
        use numa_core::MoveLimitPolicy;
        let mut sim =
            Simulator::new(SimConfig::small(2), Box::new(MoveLimitPolicy::default()));
        let a = sim.alloc(512, Prot::READ_WRITE);
        let rec = Recorder::install(&sim);
        for t in 0..2u64 {
            sim.spawn(format!("t{t}"), move |ctx| {
                for i in 0..20u64 {
                    ctx.write_u32(a + ((t * 20 + i) % 64) * 4, i as u32);
                }
            });
        }
        sim.run();
        let trace = rec.take(&sim);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert!(back.iter().eq(trace.iter()));
        // Analyses agree on the recovered trace.
        let a1 = crate::analysis::SharingReport::from_trace(&trace);
        let a2 = crate::analysis::SharingReport::from_trace(&back);
        assert_eq!(a1.alpha(), a2.alpha());
        assert_eq!(a1.pages.len(), a2.pages.len());
    }
}

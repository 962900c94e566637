//! Plain-text trace serialization.
//!
//! The paper's artifact exchanges traces as text files between ChampSim and
//! the Python RL code. We keep a compatible spirit: one access per line,
//! `instr_id pc addr rw`, hex for pc/addr. Useful for archiving generated
//! workloads and replaying identical traces across harness runs.

use crate::gen::VecSource;
use crate::record::MemAccess;
use std::io::{self, BufRead, Write};

/// Write a trace in the line format `instr_id pc addr rw`.
pub fn write_trace<W: Write>(w: &mut W, trace: &[MemAccess]) -> io::Result<()> {
    for a in trace {
        writeln!(
            w,
            "{} {:#x} {:#x} {}",
            a.instr_id,
            a.pc,
            a.addr,
            if a.is_write { "W" } else { "R" }
        )?;
    }
    Ok(())
}

/// Parse a trace written by [`write_trace`]. Lines that are empty or start
/// with `#` are skipped; malformed lines produce an error naming the line.
/// A line holds exactly four fields: a decimal `instr_id`, a hex `pc` and
/// `addr` (`0x` prefix optional, no sign) and `R` or `W`.
pub fn read_trace<R: BufRead>(r: R) -> io::Result<Vec<MemAccess>> {
    let mut out = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let at_line = |kind, what: &dyn std::fmt::Display| {
            io::Error::new(kind, format!("trace line {}: {what}", lineno + 1))
        };
        let line = line.map_err(|e| at_line(e.kind(), &e))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let access = parse_line(t).map_err(|what| at_line(io::ErrorKind::InvalidData, &what))?;
        out.push(access);
    }
    Ok(out)
}

/// One `instr_id pc addr rw` line; the error names what was wrong.
fn parse_line(t: &str) -> Result<MemAccess, &'static str> {
    let mut it = t.split_whitespace();
    let instr_id = it.next().and_then(parse_dec).ok_or("bad instr_id")?;
    let pc = it.next().and_then(parse_hex).ok_or("bad pc")?;
    let addr = it.next().and_then(parse_hex).ok_or("bad addr")?;
    let is_write = match it.next() {
        Some("R") => false,
        Some("W") => true,
        _ => return Err("bad rw flag"),
    };
    if it.next().is_some() {
        return Err("trailing field");
    }
    Ok(MemAccess {
        instr_id,
        pc,
        addr,
        is_write,
    })
}

/// Unsigned decimal: digits only, so `+1` is rejected.
fn parse_dec(s: &str) -> Option<u64> {
    if !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// Unsigned hex with an optional `0x`/`0X` prefix.
fn parse_hex(s: &str) -> Option<u64> {
    let s = s
        .strip_prefix("0x")
        .or_else(|| s.strip_prefix("0X"))
        .unwrap_or(s);
    if !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Read a trace into a replayable [`VecSource`].
pub fn read_trace_source<R: BufRead>(r: R) -> io::Result<VecSource> {
    Ok(VecSource::new(read_trace(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = vec![
            MemAccess::load(0, 0x400, 0x1234_5678),
            MemAccess::store(5, 0x404, 0xdead_bee0),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# header\n\n1 0x10 0x40 R\n";
        let t = read_trace(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].pc, 0x10);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(read_trace("1 0x10 R".as_bytes()).is_err());
        assert!(read_trace("x 0x10 0x40 R".as_bytes()).is_err());
        assert!(read_trace("1 0x10 0x40 Q".as_bytes()).is_err());
        let err = |text: &[u8]| read_trace(text).unwrap_err().to_string();
        assert_eq!(err(b"1 0x10 0x40 R junk"), "trace line 1: trailing field");
        assert_eq!(err(b"1 +10 +40 R"), "trace line 1: bad pc");
        assert_eq!(err(b"+1 0x10 0x40 R"), "trace line 1: bad instr_id");
        assert_eq!(err(b"1 0x10 0x-40 R"), "trace line 1: bad addr");
        let utf8 = err(b"1 0x10 0x40 R\n2 0x\xff 0x40 R\n");
        assert!(utf8.starts_with("trace line 2: "), "{utf8}");
    }

    #[test]
    fn accepts_bare_hex() {
        let t = read_trace("1 10 40 W".as_bytes()).unwrap();
        assert_eq!(t[0].pc, 0x10);
        assert!(t[0].is_write);
    }
}

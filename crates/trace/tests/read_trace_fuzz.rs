//! Fuzzes `read_trace` with damaged copies of valid `write_trace` output:
//! every truncation point and single-byte flip must parse or fail with an
//! error naming the damaged line, never panic.

use proptest::collection::vec;
use proptest::prelude::*;
use resemble_trace::io::{read_trace, write_trace};
use resemble_trace::MemAccess;

fn encode(raw: &[(u64, u64, u64, bool)]) -> Vec<u8> {
    let trace: Vec<MemAccess> = raw
        .iter()
        .map(|&(instr_id, pc, addr, is_write)| MemAccess {
            instr_id,
            pc,
            addr,
            is_write,
        })
        .collect();
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).unwrap();
    buf
}

/// 1-based number of the line holding byte `at`.
fn line_of(bytes: &[u8], at: usize) -> usize {
    1 + bytes[..at].iter().filter(|&&b| b == b'\n').count()
}

/// Parses `bytes`; on error, returns the line number the message names.
fn error_line(bytes: &[u8]) -> Option<Result<usize, String>> {
    let msg = read_trace(bytes).err()?.to_string();
    let named = msg
        .strip_prefix("trace line ")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse().ok());
    Some(named.ok_or(msg))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_trace_fails_on_its_last_line(
        raw in vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()), 1..12),
        cut in any::<usize>(),
    ) {
        let full = encode(&raw);
        let cut = cut % full.len();
        if let Some(named) = error_line(&full[..cut]) {
            prop_assert_eq!(named, Ok(line_of(&full, cut)));
        }
    }

    #[test]
    fn flipped_byte_fails_on_its_line(
        raw in vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()), 1..12),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = encode(&raw);
        let at = at % bytes.len();
        bytes[at] ^= mask;
        if let Some(named) = error_line(&bytes) {
            // A flip to '\n' splits the line, so the damage may surface on
            // the second half.
            let line = line_of(&bytes, at);
            let split = bytes[at] == b'\n';
            prop_assert!(
                named == Ok(line) || split && named == Ok(line + 1),
                "flip on line {line}: {named:?}"
            );
        }
    }
}

//! Content checksums for checkpoint artifacts.
//!
//! Every durable artifact the campaign writes — shard checkpoints, round
//! manifests, round catalogs, and the daemon's `state.json` journal — gets
//! a trailing FNV-1a checksum line appended by [`seal`] and verified by
//! [`unseal`]. The line is an s-expression comment (`;fnv1a:<16 hex>`), so
//! the store layer's parser skips it transparently and the sealed payload
//! is byte-for-byte the text the writer produced.
//!
//! The checksum turns two failure modes into one recoverable verdict:
//! a *torn* write (the file was truncated mid-write, so the checksum line
//! is missing or covers different bytes) and a *corrupted* read (bit
//! flips) both fail [`unseal`], and the loader treats the artifact as
//! absent — a shard checkpoint re-runs its shard instead of wedging or
//! degrading the whole job.

use ompfuzz_backends::sched::fnv1a;

/// Prefix of the checksum trailer line.
const SEAL_PREFIX: &str = ";fnv1a:";

/// Append the checksum trailer to `text`. The trailer covers every byte
/// before it, so a sealed artifact is self-verifying: any truncation or
/// bit flip (including of the trailer itself) fails [`unseal`].
pub fn seal(text: &str) -> String {
    let mut sealed = String::with_capacity(text.len() + SEAL_PREFIX.len() + 17);
    sealed.push_str(text);
    if !text.is_empty() && !text.ends_with('\n') {
        sealed.push('\n');
    }
    let checksum = fnv1a(sealed.as_bytes());
    sealed.push_str(SEAL_PREFIX);
    sealed.push_str(&format!("{checksum:016x}\n"));
    sealed
}

/// Verify and strip the checksum trailer, returning the original payload.
///
/// A missing trailer is an integrity failure too: every writer seals, so
/// an unsealed file is a truncated one.
pub fn unseal(sealed: &str) -> Result<&str, String> {
    let Some(line_start) = sealed
        .trim_end_matches('\n')
        .rfind('\n')
        .map(|i| i + 1)
        .or({
            // Single-line file: the whole text would have to be the trailer.
            if sealed.starts_with(SEAL_PREFIX) {
                Some(0)
            } else {
                None
            }
        })
    else {
        return Err("missing checksum trailer".to_string());
    };
    let trailer = sealed[line_start..].trim_end_matches('\n');
    let Some(hex) = trailer.strip_prefix(SEAL_PREFIX) else {
        return Err("missing checksum trailer".to_string());
    };
    if hex.len() != 16 {
        return Err(format!("malformed checksum trailer {trailer:?}"));
    }
    let expected = u64::from_str_radix(hex, 16)
        .map_err(|_| format!("malformed checksum trailer {trailer:?}"))?;
    let payload = &sealed[..line_start];
    let actual = fnv1a(payload.as_bytes());
    if actual != expected {
        return Err(format!(
            "checksum mismatch: trailer says {expected:016x}, content hashes to {actual:016x}"
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_round_trips() {
        for text in [
            "",
            "one line\n",
            "no trailing newline",
            "; ompfuzz shard checkpoint v2\n(shard v2 1 2 3)\n",
        ] {
            let sealed = seal(text);
            let back = unseal(&sealed).unwrap();
            if text.is_empty() || text.ends_with('\n') {
                assert_eq!(back, text);
            } else {
                assert_eq!(back, format!("{text}\n"));
            }
        }
    }

    #[test]
    fn trailer_is_a_store_comment() {
        let sealed = seal("(node a b)\n");
        let trailer = sealed.lines().last().unwrap();
        assert!(trailer.starts_with(';'), "{trailer}");
    }

    #[test]
    fn bit_flips_fail_verification() {
        let sealed = seal("; header\n(payload 1 2 3)\n");
        for i in 0..sealed.len() {
            let mut bytes = sealed.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(flipped) = String::from_utf8(bytes) {
                assert!(
                    unseal(&flipped).is_err(),
                    "flip at byte {i} went undetected: {flipped:?}"
                );
            }
        }
    }

    #[test]
    fn truncation_fails_verification() {
        let text = "; header\n(payload 1 2 3)\n(more 4 5 6)\n";
        let sealed = seal(text);
        for k in 0..sealed.len() {
            let torn = &sealed[..k];
            // Any truncation that loses payload bytes must be detected.
            // (Losing only the trailer's own final newline leaves the
            // payload intact and verifiable — that is not corruption.)
            if let Ok(payload) = unseal(torn) {
                assert_eq!(
                    payload, text,
                    "truncation at byte {k} verified with altered payload"
                );
            }
        }
    }

    #[test]
    fn unsealed_text_is_rejected() {
        assert!(unseal("(node a b)\n").is_err());
        assert!(unseal("").is_err());
        assert!(unseal(";fnv1a:nothex_nothex_\n").is_err());
    }
}

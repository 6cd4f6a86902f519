//! Little-endian pair codec shared by the partition serializers.
//!
//! The layout — `[u64 n][n × (u64 key, u64 value)]` — is the stable
//! checkpoint payload of both the prefix tree and the hash table.  It is
//! decoded defensively: checkpoint files are external input that may be
//! truncated by a crash, so malformed bytes yield `None`, never a panic
//! or an oversized allocation.

/// Append `[u64 n][pairs]` to `out`.
pub fn encode_pairs(pairs: &[(u64, u64)], out: &mut Vec<u8>) {
    out.reserve(8 + pairs.len() * 16);
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for &(k, v) in pairs {
        encode_pair(k, v, out);
    }
}

/// Append one pair of an [`encode_pairs`] body, for a writer that streams
/// its pairs after writing their count itself.
pub fn encode_pair(key: u64, value: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&value.to_le_bytes());
}

/// Decode an [`encode_pairs`] payload.  `None` if the buffer is truncated,
/// carries trailing bytes, or declares more pairs than it holds.
pub fn decode_pairs(payload: &[u8]) -> Option<Vec<(u64, u64)>> {
    if payload.len() < 8 {
        return None;
    }
    let n = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
    let body = &payload[8..];
    if body.len() != n.checked_mul(16)? {
        return None;
    }
    let mut pairs = Vec::with_capacity(n);
    for chunk in body.chunks_exact(16) {
        let k = u64::from_le_bytes(chunk[..8].try_into().unwrap());
        let v = u64::from_le_bytes(chunk[8..].try_into().unwrap());
        pairs.push((k, v));
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_rejection() {
        let pairs = vec![(1u64, 10u64), (2, 20), (u64::MAX, 0)];
        let mut buf = Vec::new();
        encode_pairs(&pairs, &mut buf);
        assert_eq!(decode_pairs(&buf), Some(pairs));
        assert_eq!(decode_pairs(&[]), None, "empty");
        assert_eq!(decode_pairs(&buf[..buf.len() - 1]), None, "truncated");
        let mut extra = buf.clone();
        extra.push(0);
        assert_eq!(decode_pairs(&extra), None, "trailing byte");
        let mut lying = buf;
        lying[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_pairs(&lying), None, "count overflow");
    }
}

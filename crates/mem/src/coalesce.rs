//! Warp memory-access coalescing.
//!
//! A warp memory instruction presents up to 32 lane addresses. The
//! coalescer groups them into the minimal set of aligned segments
//! (transactions); fully-coalesced unit-stride accesses produce one
//! 128-byte transaction, scattered accesses produce up to 32.

/// Coalesces per-lane byte addresses into the aligned `segment_bytes`
/// segments they touch, one transaction each, and returns each
/// transaction's line address (the segment-aligned address divided by
/// the segment size) in first-touch order (the order the hardware would
/// issue them). Allocates once, for the returned list.
///
/// `addrs[lane]` is consulted only for lanes set in `mask`.
///
/// # Panics
///
/// Panics if `segment_bytes` is not a power of two.
pub fn coalesce(addrs: &[u32; 32], mask: u32, segment_bytes: u32) -> Vec<u64> {
    assert!(
        segment_bytes.is_power_of_two(),
        "segment size must be a power of two"
    );
    let shift = segment_bytes.trailing_zeros();
    let mut lines = [0u64; 32];
    let mut n = 0;
    let mut m = mask;
    while m != 0 {
        let lane = m.trailing_zeros();
        m &= m - 1;
        let line = u64::from(addrs[lane as usize] >> shift);
        if !lines[..n].contains(&line) {
            lines[n] = line;
            n += 1;
        }
    }
    lines[..n].to_vec()
}

/// Number of serialised shared-memory access rounds for a warp access with
/// the given lane addresses: the maximum number of distinct *words* that
/// map to the same bank (accesses to the same word broadcast and do not
/// conflict).
pub fn shared_bank_conflicts(addrs: &[u32; 32], mask: u32, banks: u32) -> u32 {
    let mut rounds = 0u32;
    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks as usize];
    let mut m = mask;
    while m != 0 {
        let lane = m.trailing_zeros();
        m &= m - 1;
        let word = addrs[lane as usize] / 4;
        let bank = (word % banks) as usize;
        if !per_bank[bank].contains(&word) {
            per_bank[bank].push(word);
        }
    }
    for b in &per_bank {
        rounds = rounds.max(b.len() as u32);
    }
    rounds.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_addrs(base: u32, stride: u32) -> [u32; 32] {
        let mut a = [0u32; 32];
        for (lane, slot) in a.iter_mut().enumerate() {
            *slot = base + lane as u32 * stride;
        }
        a
    }

    /// The active lanes of `mask` that fall in each of `lines`' 128-byte
    /// segments.
    fn lane_masks(addrs: &[u32; 32], mask: u32, lines: &[u64]) -> Vec<u32> {
        lines
            .iter()
            .map(|&line| {
                (0..32)
                    .filter(|&lane| mask >> lane & 1 == 1)
                    .filter(|&lane| u64::from(addrs[lane] >> 7) == line)
                    .fold(0, |m, lane| m | 1 << lane)
            })
            .collect()
    }

    #[test]
    fn unit_stride_coalesces_to_one_transaction() {
        let addrs = seq_addrs(0x1000, 4);
        let lines = coalesce(&addrs, u32::MAX, 128);
        assert_eq!(lines, [0x1000 / 128]);
        assert_eq!(lane_masks(&addrs, u32::MAX, &lines), [u32::MAX]);
    }

    #[test]
    fn misaligned_unit_stride_needs_two() {
        let lines = coalesce(&seq_addrs(0x1000 + 64, 4), u32::MAX, 128);
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn large_stride_fully_diverges() {
        let addrs = seq_addrs(0, 128);
        let lines = coalesce(&addrs, u32::MAX, 128);
        assert_eq!(lines.len(), 32);
        let masks = lane_masks(&addrs, u32::MAX, &lines);
        for (i, (&line, &lanes)) in lines.iter().zip(&masks).enumerate() {
            assert_eq!(line, i as u64);
            assert_eq!(lanes, 1 << i);
        }
    }

    #[test]
    fn inactive_lanes_are_ignored() {
        let addrs = seq_addrs(0, 128);
        let lines = coalesce(&addrs, 0b101, 128);
        assert_eq!(lines.len(), 2);
        assert_eq!(lane_masks(&addrs, 0b101, &lines), [0b001, 0b100]);
    }

    #[test]
    fn same_address_broadcast_is_one_transaction() {
        let lines = coalesce(&[0x40; 32], u32::MAX, 128);
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn lane_masks_partition_the_active_mask() {
        let addrs = seq_addrs(100, 52);
        let mask = 0xff00_f00fu32;
        let lines = coalesce(&addrs, mask, 128);
        let mut union = 0u32;
        for lanes in lane_masks(&addrs, mask, &lines) {
            assert_ne!(lanes, 0, "transaction no active lane touches");
            assert_eq!(union & lanes, 0, "disjoint");
            union |= lanes;
        }
        assert_eq!(union, mask);
    }

    #[test]
    fn bank_conflict_free_unit_stride() {
        assert_eq!(shared_bank_conflicts(&seq_addrs(0, 4), u32::MAX, 32), 1);
    }

    #[test]
    fn stride_two_words_gives_two_way_conflict() {
        assert_eq!(shared_bank_conflicts(&seq_addrs(0, 8), u32::MAX, 32), 2);
    }

    #[test]
    fn stride_of_bank_count_serialises_fully() {
        assert_eq!(shared_bank_conflicts(&seq_addrs(0, 128), u32::MAX, 32), 32);
    }

    #[test]
    fn broadcast_same_word_is_conflict_free() {
        assert_eq!(shared_bank_conflicts(&[0x40; 32], u32::MAX, 32), 1);
    }

    #[test]
    fn empty_mask_counts_one_round() {
        assert_eq!(shared_bank_conflicts(&[0; 32], 0, 32), 1);
        assert!(coalesce(&[0; 32], 0, 128).is_empty());
    }
}

//! Output checks shared by the workloads.

/// Whether two per-vertex label vectors induce the same partition of
/// the vertices (labels may differ by a renaming). Labels are vertex
/// ids, so both are below the vector length.
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let n = a.len();
    let mut a_to_b = vec![u32::MAX; n];
    let mut b_to_a = vec![u32::MAX; n];
    for (&la, &lb) in a.iter().zip(b) {
        let (ia, ib) = (la as usize, lb as usize);
        if ia >= n || ib >= n {
            return false;
        }
        if a_to_b[ia] == u32::MAX && b_to_a[ib] == u32::MAX {
            a_to_b[ia] = lb;
            b_to_a[ib] = la;
        } else if a_to_b[ia] != lb || b_to_a[ib] != la {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_compare_up_to_renaming() {
        assert!(same_partition(&[0, 0, 2, 2], &[1, 1, 3, 3]));
        assert!(!same_partition(&[0, 0, 2, 2], &[1, 1, 1, 3]));
        assert!(!same_partition(&[0, 1, 2], &[0, 0, 2]));
        assert!(!same_partition(&[0, 0], &[0, 0, 0]));
    }
}

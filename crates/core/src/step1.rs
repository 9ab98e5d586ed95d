//! Serial Step 1(b): merging the two sorted dictionaries with duplicate
//! removal while building the auxiliary translation tables (Section 5.3,
//! "Modified Step 1(b)").

use hyrise_storage::Value;

/// Output of the dictionary merge: the merged sorted dictionary `U'_M` plus
/// the auxiliary structures `X_M` and `X_D`.
///
/// "At the end of Step 1(b), each entry in `X_M` corresponds to the location
/// of the corresponding uncompressed value of `U_M` in the updated `U'_M`.
/// Similar observations hold true for `X_D`."
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DictMerge<V> {
    /// `U'_M`: sorted union of the two dictionaries, no duplicates.
    pub merged: Vec<V>,
    /// `X_M`: old main code -> new code. `len == |U_M|`.
    pub x_m: Vec<u32>,
    /// `X_D`: delta code -> new code. `len == |U_D|`.
    pub x_d: Vec<u32>,
}

/// Merge two sorted, duplicate-free dictionaries (the classic sort-merge-join
/// two-pointer walk of Section 5.1, extended with the mapping tables of
/// Section 5.3). `O(|U_M| + |U_D|)`.
///
/// When both pointers see the same value, it is "appended to the dictionary
/// once and ... the same index will be added to the two mapping tables".
pub fn merge_dictionaries<V: Value>(u_m: &[V], u_d: &[V]) -> DictMerge<V> {
    let mut merged = Vec::new();
    let mut x_m = Vec::new();
    let mut x_d = Vec::new();
    merge_dictionaries_into(u_m, u_d, &mut merged, &mut x_m, &mut x_d);
    DictMerge { merged, x_m, x_d }
}

/// Start Stage 1b with its copied prefix: the `f0` entries of `U_M` below
/// every delta value keep their codes, so `U'_M` begins with them and
/// `X_M` maps them to themselves. Clears `merged` and `x_m`, copies the
/// prefix into both and returns `f0`; the union then runs over
/// `(U_M[f0..], U_D)` at output offset `f0`.
pub(crate) fn copy_prefix<V: Value>(
    u_m: &[V],
    u_d: &[V],
    merged: &mut Vec<V>,
    x_m: &mut Vec<u32>,
) -> usize {
    debug_assert!(
        u_m.windows(2).all(|w| w[0] < w[1]),
        "U_M must be sorted unique"
    );
    debug_assert!(
        u_d.windows(2).all(|w| w[0] < w[1]),
        "U_D must be sorted unique"
    );
    let f0 = match u_d.first() {
        Some(first) => u_m.partition_point(|v| v < first),
        None => u_m.len(),
    };
    merged.clear();
    merged.reserve(u_m.len() + u_d.len());
    merged.extend_from_slice(&u_m[..f0]);
    x_m.clear();
    x_m.extend(0..f0 as u32);
    f0
}

/// As [`merge_dictionaries`], writing into caller-provided buffers (cleared
/// first). With warm capacities this performs no heap allocation — the
/// merge pipeline's serial Stage 1b. Returns the length of the copied
/// prefix the union starts after.
pub fn merge_dictionaries_into<V: Value>(
    u_m: &[V],
    u_d: &[V],
    merged: &mut Vec<V>,
    x_m: &mut Vec<u32>,
    x_d: &mut Vec<u32>,
) -> usize {
    let f0 = copy_prefix(u_m, u_d, merged, x_m);
    x_m.resize(u_m.len(), 0);
    x_d.clear();
    x_d.resize(u_d.len(), 0);
    let (mut i, mut j) = (f0, 0usize);
    while i < u_m.len() && j < u_d.len() {
        let out = merged.len() as u32;
        match u_m[i].cmp(&u_d[j]) {
            std::cmp::Ordering::Less => {
                x_m[i] = out;
                merged.push(u_m[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                x_d[j] = out;
                merged.push(u_d[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                x_m[i] = out;
                x_d[j] = out;
                merged.push(u_m[i]);
                i += 1;
                j += 1;
            }
        }
    }
    while i < u_m.len() {
        x_m[i] = merged.len() as u32;
        merged.push(u_m[i]);
        i += 1;
    }
    while j < u_d.len() {
        x_d[j] = merged.len() as u32;
        merged.push(u_d[j]);
        j += 1;
    }
    f0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 6 example, as integers:
    /// U_M = apple charlie delta frank hotel inbox = 1 3 4 6 8 9
    /// U_D = bravo charlie golf young             = 2 3 7 25
    #[test]
    fn figure6_auxiliary_structures() {
        let u_m = vec![1u64, 3, 4, 6, 8, 9];
        let u_d = vec![2u64, 3, 7, 25];
        let r = merge_dictionaries(&u_m, &u_d);
        // merged: apple bravo charlie delta frank golf hotel inbox young
        assert_eq!(r.merged, vec![1, 2, 3, 4, 6, 7, 8, 9, 25]);
        // Figure 6 main auxiliary: 0000 0010 0011 0100 0110 0111
        assert_eq!(r.x_m, vec![0, 2, 3, 4, 6, 7]);
        // Figure 6 delta auxiliary: 0001 0010 0101 1000
        assert_eq!(r.x_d, vec![1, 2, 5, 8]);
    }

    #[test]
    fn disjoint_dictionaries_interleave() {
        let r = merge_dictionaries(&[1u64, 3, 5], &[2u64, 4, 6]);
        assert_eq!(r.merged, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(r.x_m, vec![0, 2, 4]);
        assert_eq!(r.x_d, vec![1, 3, 5]);
    }

    #[test]
    fn identical_dictionaries_collapse() {
        let d = vec![10u64, 20, 30];
        let r = merge_dictionaries(&d, &d);
        assert_eq!(r.merged, d);
        assert_eq!(r.x_m, vec![0, 1, 2]);
        assert_eq!(r.x_d, vec![0, 1, 2]);
    }

    #[test]
    fn empty_sides() {
        let r = merge_dictionaries::<u64>(&[], &[1, 2]);
        assert_eq!(r.merged, vec![1, 2]);
        assert!(r.x_m.is_empty());
        assert_eq!(r.x_d, vec![0, 1]);

        let r = merge_dictionaries::<u64>(&[1, 2], &[]);
        assert_eq!(r.merged, vec![1, 2]);
        assert_eq!(r.x_m, vec![0, 1]);
        assert!(r.x_d.is_empty());

        let r = merge_dictionaries::<u64>(&[], &[]);
        assert!(r.merged.is_empty());
    }

    #[test]
    fn prefix_below_the_delta_is_copied() {
        let (mut merged, mut x_m, mut x_d) = (Vec::new(), Vec::new(), Vec::new());
        // Appended keys: all of U_M lies below U_D.
        let f0 = merge_dictionaries_into(&[1u64, 2, 3], &[5, 6], &mut merged, &mut x_m, &mut x_d);
        assert_eq!(
            (f0, &merged[..], &x_m[..]),
            (3, &[1, 2, 3, 5, 6][..], &[0, 1, 2][..])
        );
        // A delta value equal to an entry ends the prefix before it.
        let f0 = merge_dictionaries_into(&[1u64, 2, 3], &[2, 9], &mut merged, &mut x_m, &mut x_d);
        assert_eq!(
            (f0, &merged[..], &x_d[..]),
            (1, &[1, 2, 3, 9][..], &[1, 3][..])
        );
        // An empty delta copies the whole dictionary.
        let f0 = merge_dictionaries_into(&[4u64, 7], &[], &mut merged, &mut x_m, &mut x_d);
        assert_eq!((f0, &x_m[..]), (2, &[0, 1][..]));
    }

    #[test]
    fn mapping_tables_point_at_values() {
        // Generic invariant: merged[x_m[i]] == u_m[i] and likewise for delta.
        let u_m: Vec<u64> = (0..200).map(|i| i * 3).collect();
        let u_d: Vec<u64> = (0..150).map(|i| i * 4 + 1).collect();
        let r = merge_dictionaries(&u_m, &u_d);
        for (i, v) in u_m.iter().enumerate() {
            assert_eq!(r.merged[r.x_m[i] as usize], *v);
        }
        for (j, v) in u_d.iter().enumerate() {
            assert_eq!(r.merged[r.x_d[j] as usize], *v);
        }
        assert!(r.merged.windows(2).all(|w| w[0] < w[1]));
    }
}

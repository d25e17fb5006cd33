//! Sequential disjoint-set forest.

/// Union-find over the dense id space `0..n` with path halving and union by
/// rank — effectively linear in the number of operations.
///
/// Alongside the forest it keeps a cyclic *member ring* (`next`): every set
/// is one cycle of `next` pointers, so [`UnionFind::class_of`] lists a
/// single class in O(|class|) without touching the rest of the forest.
/// The ring costs 4 bytes per element.
///
/// Ids are `u32` because the paper's closure operates on "pairs of tuple
/// id's, each at most 30 bits" (§3.3); four billion records is comfortably
/// beyond the billion-record scenario of §4.3.
///
/// ```
/// use mp_closure::UnionFind;
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(0, 2));
/// assert_eq!(uf.set_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Member ring: `next[x]` is the next member of `x`'s set, cyclically.
    next: Vec<u32>,
    sets: usize,
}

impl UnionFind {
    /// `n` singleton sets `{0}, {1}, ..., {n-1}`.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds `u32::MAX` elements.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "id space exceeds u32");
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            next: (0..n as u32).collect(),
            sets: n,
        }
    }

    /// Number of elements in the id space.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Extends the id space to `n` elements, adding `n − len` fresh
    /// singletons; a no-op when `n ≤ len`. Existing connectivity is
    /// untouched, so incremental pipelines can grow the forest as new
    /// record batches arrive instead of rebuilding it.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds `u32::MAX` elements.
    pub fn grow(&mut self, n: usize) {
        assert!(n <= u32::MAX as usize, "id space exceeds u32");
        let old = self.parent.len();
        if n <= old {
            return;
        }
        self.parent.extend(old as u32..n as u32);
        self.rank.resize(n, 0);
        self.next.extend(old as u32..n as u32);
        self.sets += n - old;
    }

    /// True when the id space is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// True when `x` has never been merged with another element.
    ///
    /// Singletons are exactly the rank-0 roots (a root that ever won a
    /// union has rank ≥ 1, and a merged loser is no longer a root), so this
    /// is two array loads with no find walk — cheap enough to gate a full
    /// [`Self::connected`] query in hot scans.
    pub fn is_singleton(&self, x: u32) -> bool {
        self.parent[x as usize] == x && self.rank[x as usize] == 0
    }

    /// Representative of `x`'s set, compressing the path by halving.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Joins the sets of `a` and `b`; returns `true` when they were
    /// previously disjoint.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (hi, lo) = match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Equal => {
                self.rank[ra as usize] += 1;
                (ra, rb)
            }
        };
        self.parent[lo as usize] = hi;
        // Swapping the successors of two nodes on different cycles splices
        // the cycles into one.
        self.next.swap(ra as usize, rb as usize);
        self.sets -= 1;
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Every member of `x`'s set, sorted ascending (`[x]` for a singleton).
    ///
    /// Walks the member ring, so the cost is O(k log k) for a class of `k`
    /// members whatever the size of the forest; takes `&self` because it
    /// needs no `find` (and so no path compression).
    ///
    /// ```
    /// use mp_closure::UnionFind;
    /// let mut uf = UnionFind::new(6);
    /// uf.union(4, 1);
    /// uf.union(1, 5);
    /// assert_eq!(uf.class_of(5), vec![1, 4, 5]);
    /// assert_eq!(uf.class_of(2), vec![2]);
    /// ```
    pub fn class_of(&self, x: u32) -> Vec<u32> {
        let mut class = vec![x];
        let mut y = self.next[x as usize];
        while y != x {
            class.push(y);
            y = self.next[y as usize];
        }
        class.sort_unstable();
        class
    }

    /// Every equivalence class with at least two members: members sorted
    /// ascending, classes ordered by smallest member.
    pub fn classes(&mut self) -> Vec<Vec<u32>> {
        let n = self.parent.len();
        // Map root -> slot, first-seen (= smallest member) order.
        let mut slot_of_root = vec![u32::MAX; n];
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for x in 0..n as u32 {
            let r = self.find(x) as usize;
            let slot = slot_of_root[r];
            if slot == u32::MAX {
                slot_of_root[r] = classes.len() as u32;
                classes.push(vec![x]);
            } else {
                classes[slot as usize].push(x);
            }
        }
        classes.retain(|c| c.len() > 1);
        classes
    }

    /// All pairs `(a, b)`, `a < b`, implied by the closure — every pair of
    /// records in the same class. The multi-pass evaluation compares this
    /// set against ground truth.
    ///
    /// The output size is quadratic in class sizes; real duplicate classes
    /// are tiny (the generator caps duplicates per record), so this stays
    /// close to linear in practice.
    pub fn closed_pairs(&mut self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for class in self.classes() {
            for i in 0..class.len() {
                for j in i + 1..class.len() {
                    out.push((class[i], class[j]));
                }
            }
        }
        out
    }

    /// Count of [`UnionFind::closed_pairs`] without materializing them.
    pub fn closed_pair_count(&mut self) -> u64 {
        self.classes()
            .iter()
            .map(|c| {
                let k = c.len() as u64;
                k * (k - 1) / 2
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_is_all_singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.set_count(), 5);
        assert!(uf.classes().is_empty());
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_reduces_set_count_once_per_merge() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.set_count(), 2);
        assert!(uf.union(0, 3));
        assert_eq!(uf.set_count(), 1);
        assert!(!uf.union(1, 2));
        assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn classes_sorted_and_deterministic() {
        let mut uf = UnionFind::new(7);
        uf.union(5, 3);
        uf.union(3, 6);
        uf.union(0, 2);
        assert_eq!(uf.classes(), vec![vec![0, 2], vec![3, 5, 6]]);
    }

    #[test]
    fn closed_pairs_quadratic_expansion() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(1, 2);
        assert_eq!(uf.closed_pairs(), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(uf.closed_pair_count(), 3);
    }

    #[test]
    fn grow_adds_singletons_and_preserves_connectivity() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 2);
        uf.grow(6);
        assert_eq!(uf.len(), 6);
        assert_eq!(uf.set_count(), 5); // {0,2} {1} {3} {4} {5}
        assert!(uf.connected(0, 2));
        for i in 3..6 {
            assert!(uf.is_singleton(i));
        }
        uf.grow(2); // shrinking request is a no-op
        assert_eq!(uf.len(), 6);
        assert!(uf.union(5, 1));
        assert_eq!(uf.set_count(), 4);
    }

    #[test]
    fn empty_universe() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.set_count(), 0);
        assert!(uf.classes().is_empty());
    }

    proptest! {
        #[test]
        fn connectivity_matches_naive_model(
            n in 1usize..40,
            unions in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
        ) {
            let mut uf = UnionFind::new(n);
            // Naive model: component label per element, relabel on union.
            let mut label: Vec<usize> = (0..n).collect();
            for (a, b) in unions {
                let (a, b) = (a % n as u32, b % n as u32);
                uf.union(a, b);
                let (la, lb) = (label[a as usize], label[b as usize]);
                if la != lb {
                    for l in &mut label {
                        if *l == lb {
                            *l = la;
                        }
                    }
                }
            }
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    prop_assert_eq!(
                        uf.connected(a, b),
                        label[a as usize] == label[b as usize]
                    );
                }
            }
            let distinct: std::collections::HashSet<usize> = label.iter().copied().collect();
            prop_assert_eq!(uf.set_count(), distinct.len());
        }

        #[test]
        fn class_of_matches_classes_through_grow(
            n in 1usize..30,
            extra in 0usize..10,
            before in proptest::collection::vec((0u32..40, 0u32..40), 0..40),
            middle in proptest::collection::vec((0u32..40, 0u32..40), 0..20),
            after in proptest::collection::vec((0u32..40, 0u32..40), 0..20),
        ) {
            fn check(uf: &UnionFind) {
                let classes = uf.clone().classes();
                for x in 0..uf.len() as u32 {
                    let want = classes
                        .iter()
                        .find(|c| c.contains(&x))
                        .cloned()
                        .unwrap_or_else(|| vec![x]);
                    prop_assert_eq!(uf.class_of(x), want);
                }
            }
            let mut uf = UnionFind::new(n);
            for (a, b) in before {
                uf.union(a % n as u32, b % n as u32);
            }
            check(&uf);
            let m = n + extra;
            uf.grow(m);
            for (a, b) in middle {
                uf.union(a % m as u32, b % m as u32);
            }
            check(&uf);
            for (a, b) in after {
                uf.union(a % m as u32, b % m as u32);
            }
            check(&uf);
        }

        #[test]
        fn closed_pair_count_matches_materialized(
            n in 1usize..30,
            unions in proptest::collection::vec((0u32..30, 0u32..30), 0..40),
        ) {
            let mut uf = UnionFind::new(n);
            for (a, b) in unions {
                uf.union(a % n as u32, b % n as u32);
            }
            prop_assert_eq!(uf.closed_pair_count() as usize, uf.closed_pairs().len());
        }
    }
}

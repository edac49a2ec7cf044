//! The exact least-recently-used order that SLP's Filter and Accumulation
//! Tables and TLP's Recent Page Table evict by.
//!
//! [`Recency`] is a doubly-linked list over a table's occupied slots,
//! sorted by `(last, touch order)` with the least recent slot at the head.
//! The owning table keeps the stamps (`lasts`, one per slot) and passes
//! them in; the list only orders slots. Time almost always moves forward,
//! so a touch or an allocation appends at the tail in O(1); a stamp earlier
//! than the tail's walks back to its sorted position.
//!
//! The slots sharing the head's stamp form the head's run, and the victim
//! is the one among them with the lowest caller-supplied *key*: the page
//! number for SLP (its `(last, page)` order, which keeps slot assignment —
//! the hasher — out of results) and the slot itself for TLP (the paper's
//! first-minimum scan in slot order). [`lru_scan`] is that pick as one
//! linear scan, the debug-build oracle every eviction is checked against.

use planaria_common::Cycle;

/// Sentinel for "no slot" in the links; also bounds the slot count.
const NIL: u16 = u16::MAX;

/// A table's occupied slots in `(last, touch order)` order.
#[derive(Debug, Clone)]
pub(crate) struct Recency {
    /// `(prev, next)` per slot, meaningful only for slots in the list.
    links: Vec<(u16, u16)>,
    head: u16,
    tail: u16,
}

impl Recency {
    /// An empty list over `slots` slots. `Recency::new(0)` allocates
    /// nothing, for a table that does not evict by recency.
    ///
    /// # Panics
    ///
    /// Panics if `slots` does not fit the 16-bit links.
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots <= usize::from(NIL), "a recency list holds at most {NIL} slots, not {slots}");
        Self { links: vec![(NIL, NIL); slots], head: NIL, tail: NIL }
    }

    /// Removes listed slot `i` from the list.
    pub(crate) fn unlink(&mut self, i: usize) {
        let (p, n) = self.links[i];
        match p {
            NIL => self.head = n,
            p => self.links[usize::from(p)].1 = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.links[usize::from(n)].0 = p,
        }
    }

    /// Links unlisted slot `i` in after every slot whose stamp is at most
    /// `lasts[i]`, walking back from the tail.
    pub(crate) fn link(&mut self, i: usize, lasts: &[Cycle]) {
        let mut p = self.tail;
        while p != NIL && lasts[usize::from(p)] > lasts[i] {
            p = self.links[usize::from(p)].0;
        }
        let n = match p {
            NIL => std::mem::replace(&mut self.head, i as u16),
            p => std::mem::replace(&mut self.links[usize::from(p)].1, i as u16),
        };
        match n {
            NIL => self.tail = i as u16,
            n => self.links[usize::from(n)].0 = i as u16,
        }
        self.links[i] = (p, n);
    }

    /// Moves listed slot `i` to its place after its stamp `lasts[i]`
    /// changed. Page bursts re-touch the tail, which stays put unless its
    /// new stamp went below its predecessor's.
    #[inline]
    pub(crate) fn touch(&mut self, i: usize, lasts: &[Cycle]) {
        let p = self.links[i].0;
        if i == usize::from(self.tail) && (p == NIL || lasts[usize::from(p)] <= lasts[i]) {
            return;
        }
        self.unlink(i);
        self.link(i, lasts);
    }

    /// The least recent slot of a non-empty list: the lowest `key` in the
    /// head's run of equal stamps. Debug builds check the pick against
    /// [`lru_scan`] over the table's `occupied` slots.
    pub(crate) fn victim<K: Ord>(
        &self,
        lasts: &[Cycle],
        occupied: impl IntoIterator<Item = usize>,
        key: impl Fn(usize) -> K,
    ) -> usize {
        let mut victim = usize::from(self.head);
        let oldest = lasts[victim];
        let mut j = self.links[victim].1;
        while j != NIL && lasts[usize::from(j)] == oldest {
            if key(usize::from(j)) < key(victim) {
                victim = usize::from(j);
            }
            j = self.links[usize::from(j)].1;
        }
        debug_assert_eq!(
            Some(victim),
            lru_scan(occupied, lasts, key),
            "recency list diverged from the LRU scan"
        );
        victim
    }

    /// The listed slots from head to tail, checked against the walk from
    /// tail to head (the `prev` links must mirror the `next` links).
    #[cfg(test)]
    pub(crate) fn order(&self) -> Vec<usize> {
        let walk = |mut j: u16, step: fn((u16, u16)) -> u16| {
            let mut order = Vec::new();
            while j != NIL {
                order.push(usize::from(j));
                assert!(order.len() <= self.links.len(), "the links form a cycle");
                j = step(self.links[usize::from(j)]);
            }
            order
        };
        let forward = walk(self.head, |(_, next)| next);
        let mut backward = walk(self.tail, |(prev, _)| prev);
        backward.reverse();
        assert_eq!(forward, backward, "prev and next links disagree");
        forward
    }
}

/// The LRU victim as one linear scan: the `occupied` slot minimising
/// `(lasts[slot], key(slot))`, or `None` if there is none.
pub(crate) fn lru_scan<K: Ord>(
    occupied: impl IntoIterator<Item = usize>,
    lasts: &[Cycle],
    key: impl Fn(usize) -> K,
) -> Option<usize> {
    occupied.into_iter().min_by_key(|&slot| (lasts[slot], key(slot)))
}

//! FIFOs of fixed-size blocks drawn from one shared pool.
//!
//! A network interface's source queue is empty most of the time below
//! saturation and holds thousands of packets past it. A `VecDeque` per
//! queue keeps its high-water capacity for the whole run and grows by
//! doubling, so a saturated backlog costs up to twice its entries, plus a
//! copy of them at every doubling. [`BlockFifos`] instead chains blocks of
//! [`BLOCK`] entries taken from a pool that all of its queues share:
//!
//! - an empty queue holds no block;
//! - a queue's unused slots are the consumed front of its head block and
//!   the free back of its tail block, so its slack is under two blocks and
//!   under one when a single block holds it;
//! - a queue grows by linking one more block and copies nothing;
//! - a block that a queue drains goes back to the pool for any queue.
//!
//! The pool carves blocks out of slabs of [`SLAB`] blocks, so the
//! allocator sees one call per slab, not per block, and a slab is
//! released only with the whole set.

/// Entries per block: a shallow queue costs no more than the smallest
/// `VecDeque` allocation, and the one link per block is cheap next to a
/// deep queue's entries.
const BLOCK: usize = 4;

/// Blocks per pool slab.
const SLAB: usize = 64;

/// End of a chain (no block).
const NIL: u32 = u32::MAX;

/// One block: its entries and the block after it in its queue, or in the
/// pool's free list. A tail block's link is stale until the next block is
/// linked, and nothing reads it before then.
#[derive(Debug, Clone, Copy)]
struct Block<T> {
    items: [T; BLOCK],
    next: u32,
}

/// One queue's chain: head and tail blocks, the head block's slot of the
/// front entry, and the entry count.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    front: u32,
    len: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
        front: 0,
        len: 0,
    };
}

/// A fixed number of FIFO queues of `T` sharing one pool of blocks. See
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct BlockFifos<T> {
    chains: Vec<Chain>,
    slabs: Vec<Box<[Block<T>]>>,
    /// Blocks carved out of the slabs so far.
    carved: u32,
    /// Head of the free list of returned blocks.
    free: u32,
}

impl<T: Copy + Default> BlockFifos<T> {
    /// `queues` empty FIFOs; no block is allocated until the first push.
    pub fn new(queues: usize) -> Self {
        BlockFifos {
            chains: vec![Chain::EMPTY; queues],
            slabs: Vec::new(),
            carved: 0,
            free: NIL,
        }
    }

    /// Entries in queue `q`.
    #[inline]
    pub fn len(&self, q: usize) -> usize {
        self.chains[q].len as usize
    }

    #[inline]
    fn block(&self, b: u32) -> &Block<T> {
        let b = b as usize;
        &self.slabs[b / SLAB][b % SLAB]
    }

    #[inline]
    fn block_mut(&mut self, b: u32) -> &mut Block<T> {
        let b = b as usize;
        &mut self.slabs[b / SLAB][b % SLAB]
    }

    /// Takes a block from the free list, or carves a new one.
    fn take_block(&mut self) -> u32 {
        if self.free != NIL {
            let b = self.free;
            self.free = self.block(b).next;
            return b;
        }
        let b = self.carved;
        if (b as usize).is_multiple_of(SLAB) {
            let fresh = Block {
                items: [T::default(); BLOCK],
                next: NIL,
            };
            self.slabs.push(vec![fresh; SLAB].into());
        }
        self.carved += 1;
        b
    }

    /// Returns a block to the free list.
    fn give_block(&mut self, b: u32) {
        let free = self.free;
        self.block_mut(b).next = free;
        self.free = b;
    }

    /// Appends `item` to the back of queue `q`.
    pub fn push_back(&mut self, q: usize, item: T) {
        let chain = self.chains[q];
        let end = chain.front as usize + chain.len as usize;
        let tail = if chain.len == 0 {
            let b = self.take_block();
            self.chains[q].head = b;
            b
        } else if end.is_multiple_of(BLOCK) {
            let b = self.take_block();
            self.block_mut(chain.tail).next = b;
            b
        } else {
            chain.tail
        };
        self.block_mut(tail).items[end % BLOCK] = item;
        let chain = &mut self.chains[q];
        chain.tail = tail;
        chain.len = chain
            .len
            .checked_add(1)
            .expect("a queue holds fewer than 2^32 entries");
    }

    /// Front entry of queue `q`.
    #[inline]
    pub fn front(&self, q: usize) -> Option<&T> {
        let chain = &self.chains[q];
        (chain.len > 0).then(|| &self.block(chain.head).items[chain.front as usize])
    }

    /// Removes and returns the front entry of queue `q`.
    pub fn pop_front(&mut self, q: usize) -> Option<T> {
        let chain = self.chains[q];
        if chain.len == 0 {
            return None;
        }
        let item = self.block(chain.head).items[chain.front as usize];
        if chain.len == 1 {
            self.give_block(chain.head);
            self.chains[q] = Chain::EMPTY;
        } else if chain.front as usize + 1 == BLOCK {
            let next = self.block(chain.head).next;
            self.give_block(chain.head);
            let chain = &mut self.chains[q];
            chain.head = next;
            chain.front = 0;
            chain.len -= 1;
        } else {
            let chain = &mut self.chains[q];
            chain.front += 1;
            chain.len -= 1;
        }
        Some(item)
    }

    /// Blocks on queue `q`'s chain, counted by walking it.
    #[cfg(test)]
    fn blocks_held(&self, q: usize) -> usize {
        let mut n = 0;
        let mut b = self.chains[q].head;
        if self.chains[q].len == 0 {
            return 0;
        }
        loop {
            n += 1;
            if b == self.chains[q].tail {
                return n;
            }
            b = self.block(b).next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// One step of a random workload: push `value` to a queue, or pop one.
    #[derive(Debug, Clone)]
    enum Op {
        Push(usize, u32),
        Pop(usize),
        /// Pop a queue until it is empty.
        Drain(usize),
    }

    fn ops(queues: usize) -> impl Strategy<Value = Vec<Op>> {
        // Pushes outnumber pops 5:4, so queues build up and span blocks;
        // one op in ten drains a queue to empty.
        let op = (0u8..10, 0..queues, 0u32..1_000_000).prop_map(|(kind, q, v)| match kind {
            0..=4 => Op::Push(q, v),
            5..=8 => Op::Pop(q),
            _ => Op::Drain(q),
        });
        prop::collection::vec(op, 0..600)
    }

    proptest! {
        /// Every push, pop, front and length agrees with a `VecDeque` per
        /// queue, and every queue holds exactly the blocks its entries span.
        #[test]
        fn block_fifos_match_vecdeques(ops in ops(3)) {
            let mut fifos = BlockFifos::<u32>::new(3);
            let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); 3];
            for op in ops {
                match op {
                    Op::Push(q, v) => {
                        fifos.push_back(q, v);
                        model[q].push_back(v);
                    }
                    Op::Pop(q) => prop_assert_eq!(fifos.pop_front(q), model[q].pop_front()),
                    Op::Drain(q) => {
                        while let Some(v) = model[q].pop_front() {
                            prop_assert_eq!(fifos.pop_front(q), Some(v));
                        }
                        prop_assert_eq!(fifos.pop_front(q), None);
                    }
                }
                for (q, m) in model.iter().enumerate() {
                    prop_assert_eq!(fifos.len(q), m.len());
                    prop_assert_eq!(fifos.front(q), m.front());
                    let front = fifos.chains[q].front as usize;
                    let spans = if m.is_empty() { 0 } else { (front + m.len()).div_ceil(BLOCK) };
                    prop_assert_eq!(fifos.blocks_held(q), spans);
                }
            }
        }
    }

    #[test]
    fn drained_blocks_are_reused_before_new_ones_are_carved() {
        let mut fifos = BlockFifos::<u32>::new(2);
        assert!(fifos.slabs.is_empty(), "empty queues hold nothing");
        for v in 0..10 * BLOCK as u32 {
            fifos.push_back(0, v);
        }
        assert_eq!(fifos.carved, 10);
        while fifos.pop_front(0).is_some() {}
        assert_eq!(fifos.len(0), 0);
        for v in 0..10 * BLOCK as u32 {
            fifos.push_back(1, v);
        }
        assert_eq!(fifos.carved, 10, "queue 1 refilled from queue 0's blocks");
        assert_eq!(fifos.slabs.len(), 1);
        for v in 0..10 * BLOCK as u32 {
            assert_eq!(fifos.pop_front(1), Some(v));
        }
        assert_eq!(fifos.pop_front(1), None);
    }

    #[test]
    fn slabs_are_added_without_moving_blocks() {
        let mut fifos = BlockFifos::<u64>::new(1);
        let n = (2 * SLAB + 1) * BLOCK;
        for v in 0..n as u64 {
            fifos.push_back(0, v);
        }
        assert_eq!(fifos.slabs.len(), 3);
        for v in 0..n as u64 {
            assert_eq!(fifos.front(0), Some(&v));
            assert_eq!(fifos.pop_front(0), Some(v));
        }
    }
}

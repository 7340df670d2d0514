//! Paged KV memory allocator.
//!
//! vLLM/FlashInfer-style *paged* allocation: fixed-size token blocks
//! allocated on demand against a byte capacity. A serving replica
//! mirrors its running batch into one to decide what fits. The eager
//! baseline's batch cap of 4 in the paper's Table 3 does not come from
//! here: it is a constant of `spec_runtime::serving::SystemKind::max_batch`.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A request's allocation handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AllocId(pub usize);

/// The allocator: tracks bytes against a capacity.
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    block_tokens: usize,
    bytes_per_token: u64,
    capacity: u64,
    used: u64,
    next_id: usize,
    /// Per allocation: the bytes it holds.
    live: HashMap<AllocId, u64>,
}

impl BlockAllocator {
    /// Creates an allocator of `block_tokens`-token blocks over
    /// `capacity` bytes of KV memory.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_token == 0`.
    pub fn new(block_tokens: usize, bytes_per_token: u64, capacity: u64) -> Self {
        assert!(bytes_per_token > 0, "bytes per token must be positive");
        Self {
            block_tokens,
            bytes_per_token,
            capacity,
            used: 0,
            next_id: 0,
            live: HashMap::new(),
        }
    }

    /// KV bytes one token costs under this allocator.
    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    /// The total KV capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Admits a request with an initial `tokens`-token cache.
    /// Returns `None` when it does not fit.
    pub fn admit(&mut self, tokens: usize) -> Option<AllocId> {
        let bytes = self.bytes_for(tokens.max(1));
        if self.used + bytes > self.capacity {
            return None;
        }
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.used += bytes;
        self.live.insert(id, bytes);
        Some(id)
    }

    /// Releases an allocation.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn release(&mut self, id: AllocId) {
        let bytes = self.live.remove(&id).expect("unknown allocation");
        self.used -= bytes;
    }

    fn bytes_for(&self, tokens: usize) -> u64 {
        (tokens.div_ceil(self.block_tokens) * self.block_tokens) as u64 * self.bytes_per_token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BPT: u64 = 1000;

    #[test]
    fn paged_admits_many_short_requests() {
        let mut a = BlockAllocator::new(16, BPT, 1_000_000);
        let mut ids = Vec::new();
        while let Some(id) = a.admit(100) {
            ids.push(id);
            if ids.len() > 100 {
                break;
            }
        }
        // 100 tokens round to 112 per request -> ~8 requests per MB.
        assert!(ids.len() >= 8, "admitted {}", ids.len());
    }

    #[test]
    fn release_returns_bytes() {
        let mut a = BlockAllocator::new(8, BPT, 100_000);
        let id = a.admit(64).unwrap();
        assert!(a.used_bytes() > 0);
        a.release(id);
        assert_eq!(a.used_bytes(), 0);
    }

    #[test]
    fn fragmentation_measured_correctly() {
        // 100 tokens take seven 16-token blocks: 12 tokens' bytes unused.
        let mut p = BlockAllocator::new(16, BPT, 10_000_000);
        p.admit(100).unwrap();
        assert_eq!(p.used_bytes() - 100 * BPT, 12 * BPT);
    }
}

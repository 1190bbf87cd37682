//! The benchmark's inputs and its own model of every block.
//!
//! The stored data is fixed: one archive seed, one file per partition,
//! partition seeds `1000 + t` and files `tenant_files(7, t, 1, blocks)`.
//! The workload seed (`--seed`) only chooses the order of operations and
//! the update images, so the same seed gives the same inputs and every
//! seed reads the same archive.

use dna_block_store::workload::tenant_files;
use dna_block_store::BLOCK_SIZE;
use std::fmt;

/// Seed of the archive (`served --seed`).
pub const STORE_SEED: u64 = 42;

/// Partition count and blocks per partition of one workload's archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Partitions, one file each.
    pub partitions: u64,
    /// Blocks in each partition's file.
    pub blocks: u64,
}

impl Shape {
    /// Blocks across all partitions.
    pub fn total_blocks(self) -> u64 {
        self.partitions * self.blocks
    }
}

/// `cold-read` and `range-scan`: 1280 blocks, more than the 1024-block
/// cache of `ServerConfig::paper_default`.
pub const LARGE: Shape = Shape {
    partitions: 8,
    blocks: 160,
};

/// `hot-zipf`: the `WorkloadSpec::serving_default` population of 4
/// tenants × 8 blocks, which fits the cache.
pub const SMALL: Shape = Shape {
    partitions: 4,
    blocks: 8,
};

/// Seed of partition `t` (the `x-seed` of its create call).
pub fn partition_seed(t: u64) -> u64 {
    1000 + t
}

/// The file written into partition `t`.
pub fn partition_file(t: u64, blocks: u64) -> Vec<u8> {
    let blocks = usize::try_from(blocks).expect("block count fits usize");
    tenant_files(7, t, 1, blocks).remove(0)
}

/// A block whose returned bytes differ from the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Partition index (not the store's pid).
    pub partition: u64,
    /// Block within the partition.
    pub block: u64,
    /// First differing byte offset (or the shorter length).
    pub at: usize,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partition {} block {} differs from the model at byte {}",
            self.partition, self.block, self.at
        )
    }
}

/// The benchmark's own copy of every block: the generated base bytes,
/// replaced by each update image once the update is acknowledged.
#[derive(Debug, Clone)]
pub struct Model {
    shape: Shape,
    blocks: Vec<Vec<Vec<u8>>>,
}

impl Model {
    /// The model of a freshly loaded archive of `shape`.
    pub fn new(shape: Shape) -> Model {
        let blocks = (0..shape.partitions)
            .map(|t| {
                partition_file(t, shape.blocks)
                    .chunks(BLOCK_SIZE)
                    .map(<[u8]>::to_vec)
                    .collect()
            })
            .collect();
        Model { shape, blocks }
    }

    /// The archive shape the model covers.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The current bytes of a block.
    pub fn block(&self, partition: u64, block: u64) -> &[u8] {
        &self.blocks[index(partition)][index(block)]
    }

    /// Records an acknowledged update.
    pub fn set(&mut self, partition: u64, block: u64, image: Vec<u8>) {
        self.blocks[index(partition)][index(block)] = image;
    }

    /// Compares returned bytes with the model.
    pub fn check(&self, partition: u64, block: u64, got: &[u8]) -> Result<(), Mismatch> {
        let want = self.block(partition, block);
        if want == got {
            return Ok(());
        }
        let at = want
            .iter()
            .zip(got)
            .position(|(a, b)| a != b)
            .unwrap_or(want.len().min(got.len()));
        Err(Mismatch {
            partition,
            block,
            at,
        })
    }
}

fn index(i: u64) -> usize {
    usize::try_from(i).expect("index fits usize")
}

/// The image an update of `block` writes: the block's base bytes with a
/// 16-byte stamp at a fixed per-block offset. Every image of a block
/// differs from every other one only inside that window, which one §6.4
/// delete-then-insert patch can carry.
pub fn stamped(base: &[u8], block: u64, seed: u64, n: u64) -> Vec<u8> {
    let mut image = base.to_vec();
    let at = index((block * 29) % (BLOCK_SIZE as u64 - 16));
    let stamp = format!("[{:03}:{:08}!!]", seed % 1000, n % 100_000_000);
    image[at..at + 16].copy_from_slice(stamp.as_bytes());
    image
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_catches_a_one_byte_corruption() {
        let model = Model::new(SMALL);
        let mut got = model.block(2, 5).to_vec();
        assert_eq!(model.check(2, 5, &got), Ok(()));
        got[77] ^= 0x01;
        assert_eq!(
            model.check(2, 5, &got),
            Err(Mismatch {
                partition: 2,
                block: 5,
                at: 77
            })
        );
        assert!(model.check(2, 5, &got[..BLOCK_SIZE - 1]).is_err());
    }

    #[test]
    fn model_follows_acknowledged_updates() {
        let mut model = Model::new(SMALL);
        let image = stamped(model.block(1, 3), 3, 11, 0);
        assert_eq!(image.len(), BLOCK_SIZE);
        assert!(model.check(1, 3, &image).is_err());
        model.set(1, 3, image.clone());
        assert_eq!(model.check(1, 3, &image), Ok(()));
    }

    #[test]
    fn large_archive_outgrows_the_serving_cache() {
        let cache = dna_block_store::ServerConfig::paper_default().cache_capacity as u64;
        assert!(LARGE.total_blocks() > cache);
        assert!(SMALL.total_blocks() < cache);
    }
}

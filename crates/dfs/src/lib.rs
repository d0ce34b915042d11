//! The paper's HDFS as the one thing the simulator reads from it:
//! which datanodes host a byte range of a file.
//!
//! The paper's cluster stores its datasets in HDFS with 128 MB blocks
//! and 3× replication over 24 datanodes on one switch (§4). Hadoop
//! places a Map near its split's bytes, so the only HDFS fact the
//! reproduction needs is that placement: `sidr-simcluster` asks
//! [`hosts`] for each simulated map's byte range. The engine and the
//! fleet read their input from a local SciNC file and place no task by
//! locality, so nothing else calls this crate.
//!
//! Placement is HDFS's default shape on a single rack: each block's
//! replicas land on distinct, pseudo-randomly drawn nodes, a pure
//! function of the file's path and the block's index.

/// Datanodes of the paper's cluster (§4).
pub const DATANODES: usize = 24;
/// HDFS block size of the paper's cluster (§4).
pub const BLOCK_SIZE: u64 = 128 << 20;
/// Replicas of each block (§4).
pub const REPLICAS: usize = 3;
/// Seed of the deterministic placement draws.
const PLACEMENT_SEED: u64 = 0x51D8;

/// The datanodes hosting any byte of `[start, end)` of the `len`-byte
/// file at `path`, each with the bytes of the range it hosts: most
/// bytes first, ties by node id. Every byte of the range that lies in
/// the file counts once per replica, so an empty range has no hosts.
pub fn hosts(path: &str, len: u64, start: u64, end: u64) -> Vec<(usize, u64)> {
    let path_hash = path
        .bytes()
        .fold(PLACEMENT_SEED, |h, b| splitmix64(h ^ u64::from(b)));
    let n_blocks = len.div_ceil(BLOCK_SIZE).max(1);
    let mut per_node = [0u64; DATANODES];
    for index in start / BLOCK_SIZE..end.div_ceil(BLOCK_SIZE).min(n_blocks) {
        let offset = index * BLOCK_SIZE;
        let block_end = (offset + BLOCK_SIZE).min(len);
        let overlap = block_end.min(end).saturating_sub(offset.max(start));
        for node in replicas(splitmix64(path_hash ^ index)) {
            per_node[node] += overlap;
        }
    }
    let mut ranked: Vec<(usize, u64)> = (per_node.into_iter().enumerate())
        .filter(|&(_, bytes)| bytes > 0)
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// A block's replicas: distinct nodes drawn from the block's hash.
fn replicas(mut h: u64) -> [usize; REPLICAS] {
    let mut out = [usize::MAX; REPLICAS];
    for i in 0..REPLICAS {
        loop {
            let node = (h % DATANODES as u64) as usize;
            h = splitmix64(h);
            if !out[..i].contains(&node) {
                out[i] = node;
                break;
            }
        }
    }
    out
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

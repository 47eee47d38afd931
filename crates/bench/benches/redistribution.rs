//! Real wall-time cost of the GridCCM redistribution machinery: schedule
//! computation for the four distribution pairings and block reassembly.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use padico_core::dist::Distribution;
use padico_core::parallel::wire::{assemble_block, Chunk};
use padico_core::redistribute::schedule;

fn bench_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("redistribution_schedule");
    for (src, dst, label) in [
        (Distribution::Block, Distribution::Block, "block_to_block"),
        (Distribution::Block, Distribution::Cyclic, "block_to_cyclic"),
        (
            Distribution::BlockCyclic(64),
            Distribution::Block,
            "blockcyclic_to_block",
        ),
        (Distribution::Cyclic, Distribution::Cyclic, "cyclic_to_cyclic"),
    ] {
        for (m, n) in [(4usize, 4usize), (8, 16), (64, 64)] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("{m}x{n}")),
                &(m, n),
                |b, &(m, n)| {
                    b.iter(|| schedule(1 << 16, src, m, dst, n).unwrap());
                },
            );
        }
    }
    group.finish();
}

fn bench_assemble(c: &mut Criterion) {
    let mut group = c.benchmark_group("assemble_block");
    // The gated 8-piece scatter measures first: these are memory-bound
    // 1 MiB copies, the ids most sensitive to burstable-host throttling.
    for pieces in [8usize, 1, 64] {
        let total = 1usize << 20;
        let piece_len = total / pieces;
        let chunks: Vec<Chunk> = (0..pieces)
            .map(|i| Chunk {
                dst_offset: (i * piece_len) as u64,
                chunk_elems: piece_len as u64,
                dst_stride: 0,
                count: 1,
                data: Bytes::from(vec![1u8; piece_len]),
            })
            .collect();
        group.throughput(Throughput::Bytes(total as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(pieces),
            &chunks,
            |b, chunks| {
                b.iter(|| assemble_block(1, total as u64, chunks).unwrap());
            },
        );
    }
    // Strided scatter: one chunk per source whose pieces interleave, the
    // shape the strided wire format produces for cyclic destinations.
    let total = 1usize << 20;
    let sources = 8usize;
    let piece = 1usize << 10;
    let count = total / (sources * piece);
    let strided: Vec<Chunk> = (0..sources)
        .map(|s| Chunk {
            dst_offset: (s * piece) as u64,
            chunk_elems: piece as u64,
            dst_stride: (sources * piece) as u64,
            count: count as u64,
            data: Bytes::from(vec![1u8; piece * count]),
        })
        .collect();
    group.throughput(Throughput::Bytes(total as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("strided_8x128"),
        &strided,
        |b, chunks| {
            b.iter(|| assemble_block(1, total as u64, chunks).unwrap());
        },
    );
    group.finish();
}

fn bench_owned_ranges(c: &mut Criterion) {
    c.bench_function("cyclic_owned_ranges_64k", |b| {
        b.iter(|| Distribution::Cyclic.owned_ranges(1 << 16, 3, 8))
    });
    c.bench_function("block_owned_ranges_64k", |b| {
        b.iter(|| Distribution::Block.owned_ranges(1 << 16, 3, 8))
    });
    // The closed-form descriptor and O(1) local length the hot paths use
    // instead of materialized ranges.
    c.bench_function("cyclic_strided_run_64k", |b| {
        b.iter(|| Distribution::Cyclic.strided_run(1 << 16, 3, 8))
    });
    c.bench_function("cyclic_local_len_64k", |b| {
        b.iter(|| Distribution::Cyclic.local_len(1 << 16, 3, 8))
    });
}

// bench_assemble runs first: its large copies are the most sensitive to
// burstable-host CPU throttling, so measure them before the other
// groups burn through the host's burst budget.
criterion_group!(benches, bench_assemble, bench_schedule, bench_owned_ranges);
criterion_main!(benches);

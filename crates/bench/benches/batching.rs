//! Batched vs per-op hot-path microbenchmarks (host wall time).
//!
//! Each pair times the same simulated work through the legacy
//! per-operation path and the batched path introduced with `StoreBatch`,
//! so the amortization win (and any regression in it) is visible in
//! isolation from the full pipeline:
//!
//! * `Machine` store — `write_batch` vs one `Machine::write` per span
//!   (the end-to-end batch: cache + arena + wbuf with one arena borrow).
//! * `wbuf` merge — `TxPort::store_no_deliver` × N + one `deliver_up_to`
//!   vs the per-op `StoreSink::store` that delivers after every span.
//! * `cache::touch_range` — one ranged touch vs a touch per word.
//! * `Arena::write` — one contiguous span vs word-at-a-time writes.
//!
//! Non-gating: numbers vary with the host; nothing diffs them.

use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

use dsnrep_core::{Machine, StoreBatch};
use dsnrep_mcsim::{Link, TxPort};
use dsnrep_rio::Arena;
use dsnrep_simcore::{Addr, Clock, CostModel, DirectMappedCache, Region, StoreSink, TrafficClass};

/// Spans per batch: the order of magnitude one debit-credit transaction
/// stages across its set-range chunks and redo records.
const SPANS: u64 = 16;
const SPAN_LEN: u64 = 16;

fn replicated_machine() -> Machine {
    let costs = CostModel::alpha_21164a();
    let arena = Rc::new(RefCell::new(Arena::new(1 << 20)));
    let backup = Rc::new(RefCell::new(Arena::new(1 << 20)));
    let link = Rc::new(RefCell::new(Link::new(&costs)));
    let mut m = Machine::standalone(costs.clone(), arena);
    m.attach_port(TxPort::new(&costs, link, backup));
    m.replicate(Region::new(Addr::new(0), 1 << 20));
    m
}

fn bench_machine_store_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_store_16x16B");
    let payload = [7u8; SPAN_LEN as usize];

    let mut per_op = replicated_machine();
    let mut base = 0u64;
    group.bench_function("per_op", |b| {
        b.iter(|| {
            base = (base + 4096) & ((1 << 20) - 1);
            for i in 0..SPANS {
                per_op.write(
                    Addr::new(base + i * SPAN_LEN),
                    &payload,
                    TrafficClass::Modified,
                );
            }
        })
    });

    let mut batched = replicated_machine();
    let mut batch = StoreBatch::new();
    let mut base = 0u64;
    group.bench_function("batched", |b| {
        b.iter(|| {
            base = (base + 4096) & ((1 << 20) - 1);
            for i in 0..SPANS {
                batch.push(
                    Addr::new(base + i * SPAN_LEN),
                    &payload,
                    TrafficClass::Modified,
                );
            }
            batched.write_batch(&mut batch);
        })
    });
    group.finish();
}

fn bench_wbuf_merge_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("wbuf_merge_16x16B");
    let costs = CostModel::alpha_21164a();
    let payload = [3u8; SPAN_LEN as usize];

    let backup = Rc::new(RefCell::new(Arena::new(1 << 20)));
    let link = Rc::new(RefCell::new(Link::new(&costs)));
    let mut port = TxPort::new(&costs, link, backup);
    let mut clock = Clock::new();
    let mut base = 0u64;
    group.bench_function("store_per_op_deliver", |b| {
        b.iter(|| {
            base = (base + 4096) & ((1 << 20) - 1);
            for i in 0..SPANS {
                port.store(
                    &mut clock,
                    Addr::new(base + i * SPAN_LEN),
                    &payload,
                    TrafficClass::Modified,
                );
            }
        })
    });

    let backup = Rc::new(RefCell::new(Arena::new(1 << 20)));
    let link = Rc::new(RefCell::new(Link::new(&costs)));
    let mut port = TxPort::new(&costs, link, backup);
    let mut clock = Clock::new();
    let mut base = 0u64;
    group.bench_function("store_batched_deliver", |b| {
        b.iter(|| {
            base = (base + 4096) & ((1 << 20) - 1);
            for i in 0..SPANS {
                port.store_no_deliver(
                    &mut clock,
                    Addr::new(base + i * SPAN_LEN),
                    &payload,
                    TrafficClass::Modified,
                );
            }
            port.deliver_up_to(clock.now());
        })
    });
    group.finish();
}

fn bench_cache_touch_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_touch_256B");
    let mut cache = DirectMappedCache::alpha_board_cache();
    let mut addr = 0u64;
    group.bench_function("touch_per_word", |b| {
        b.iter(|| {
            addr = (addr + 4096) & ((1 << 26) - 1);
            let mut hits = 0u64;
            for i in 0..32 {
                hits += cache.touch(Addr::new(addr + i * 8), 8).hits;
            }
            black_box(hits)
        })
    });
    let mut cache = DirectMappedCache::alpha_board_cache();
    let mut addr = 0u64;
    group.bench_function("touch_range", |b| {
        b.iter(|| {
            addr = (addr + 4096) & ((1 << 26) - 1);
            black_box(cache.touch_range(Addr::new(addr), 256))
        })
    });
    group.finish();
}

fn bench_arena_write_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_write_256B");
    let mut arena = Arena::new(1 << 20);
    let payload = [9u8; 256];
    let mut addr = 0u64;
    group.bench_function("write_per_word", |b| {
        b.iter(|| {
            addr = (addr + 4096) & ((1 << 20) - 1);
            for i in 0..32u64 {
                arena.write(
                    Addr::new(addr + i * 8),
                    &payload[i as usize * 8..(i as usize + 1) * 8],
                );
            }
        })
    });
    let mut arena = Arena::new(1 << 20);
    let mut addr = 0u64;
    group.bench_function("write_span", |b| {
        b.iter(|| {
            addr = (addr + 4096) & ((1 << 20) - 1);
            arena.write(Addr::new(addr), &payload)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_machine_store_paths,
    bench_wbuf_merge_paths,
    bench_cache_touch_paths,
    bench_arena_write_paths
);
criterion_main!(benches);

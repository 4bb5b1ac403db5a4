//! Bit-identity of the geometry-only grid solve with the named
//! floorplan.
//!
//! The mapping engine floorplans every surviving swap candidate through
//! [`GridGeometry::solve`] directly, with its blocks in its own order
//! (switch blocks first, then cores) and one set of buffers reused for
//! every candidate; the reported areas and link lengths must still be
//! exactly those of [`RelativePlacement::floorplan`]. These properties
//! pin that down on random sparse grids (empty rows and columns between
//! blocks), hard and soft blocks, aspect ranges narrow enough to clamp,
//! shuffled block orders, and buffers left over from a larger grid (so a
//! stale trailing row or column would show).

use proptest::collection::vec;
use proptest::prelude::*;

use sunmap_floorplan::{BlockId, BlockShape, BlockSpec, GridGeometry, RelativePlacement};

/// One generated block: area, aspect-range seed, spread, shape kind and
/// an occupancy flag.
type BlockGen = (f64, f64, f64, usize, bool);

fn block_strategy() -> impl Strategy<Value = Vec<BlockGen>> {
    vec(
        (
            0.01f64..80.0,
            0.2f64..1.0,
            1.0f64..4.0,
            0usize..4,
            (0usize..4).prop_map(|o| o > 0),
        ),
        1..30,
    )
}

/// Builds a placement whose slot `i` sits at `(i / cols, i % cols)`
/// scaled by `stride`, so `stride > 1` leaves empty rows and columns
/// between blocks. Kinds: 0 hard, 1 default soft, 2 a random range, 3 a
/// range so narrow the row-height stretch always clamps.
fn build(cols: usize, stride: usize, blocks: &[BlockGen]) -> Option<RelativePlacement> {
    let mut rp = RelativePlacement::new();
    for (i, &(area, min, spread, kind, occupied)) in blocks.iter().enumerate() {
        if !occupied {
            continue;
        }
        let name = format!("b{i}");
        let spec = match kind {
            0 => BlockSpec::hard(name, area),
            1 => BlockSpec::soft(name, area),
            2 => BlockSpec::with_aspect(name, area, min, min * spread),
            _ => BlockSpec::with_aspect(name, area, min, min * (1.0 + 1e-6)),
        };
        rp.add_block(spec, i / cols * stride, i % cols * stride);
    }
    (rp.block_count() > 0).then_some(rp)
}

/// A deterministic permutation of `0..n` (SplitMix64-driven
/// Fisher–Yates).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn bits((x, y): (f64, f64)) -> (u64, u64) {
    (x.to_bits(), y.to_bits())
}

/// Solves `rp`'s blocks in the order `order` (input position `k` holds
/// block `order[k]`) into `geometry`.
fn solve_in_order(rp: &RelativePlacement, order: &[usize], geometry: &mut GridGeometry) {
    let slots: Vec<(usize, usize)> = order.iter().map(|&i| rp.position(BlockId(i))).collect();
    let shapes: Vec<BlockShape> = order
        .iter()
        .map(|&i| rp.block(BlockId(i)).shape())
        .collect();
    geometry.solve(&slots, &shapes);
}

proptest! {
    #[test]
    fn grid_solve_matches_the_named_floorplan_in_any_block_order(
        cols in 1usize..7,
        stride in 1usize..4,
        blocks in block_strategy(),
        warm_cols in 1usize..9,
        warm in block_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let Some(rp) = build(cols, stride, &blocks) else { return Ok(()) };
        let plan = rp.floorplan().expect("valid placements always solve");

        // Dirty the buffers with an unrelated, usually larger grid first.
        let mut geometry = GridGeometry::new();
        if let Some(previous) = build(warm_cols, stride + 1, &warm) {
            let order: Vec<usize> = (0..previous.block_count()).collect();
            solve_in_order(&previous, &order, &mut geometry);
        }

        let order = permutation(rp.block_count(), seed);
        solve_in_order(&rp, &order, &mut geometry);
        prop_assert_eq!(geometry.len(), rp.block_count());
        prop_assert_eq!(geometry.chip_width().to_bits(), plan.chip_width().to_bits());
        prop_assert_eq!(geometry.chip_height().to_bits(), plan.chip_height().to_bits());
        prop_assert_eq!(geometry.chip_area().to_bits(), plan.chip_area().to_bits());
        prop_assert_eq!(geometry.chip_aspect().to_bits(), plan.chip_aspect().to_bits());
        for (k, &i) in order.iter().enumerate() {
            prop_assert!(
                bits(geometry.center(k)) == bits(plan.block(BlockId(i)).center()),
                "block {} (solved at position {}) moved", i, k
            );
        }
        for (ka, &a) in order.iter().enumerate() {
            for (kb, &b) in order.iter().enumerate() {
                prop_assert_eq!(
                    geometry.link_length(ka, kb).to_bits(),
                    plan.link_length(BlockId(a), BlockId(b)).to_bits()
                );
            }
        }
    }
}

#[test]
fn reused_buffers_forget_a_larger_grid() {
    let mut big = RelativePlacement::new();
    for r in 0..4 {
        for c in 0..5 {
            big.add_block(
                BlockSpec::soft(format!("b{r}{c}"), 1.0 + (r * 5 + c) as f64),
                r,
                c,
            );
        }
    }
    let mut small = RelativePlacement::new();
    small.add_block(BlockSpec::hard("h", 9.0), 0, 0);
    small.add_block(BlockSpec::soft("s", 2.0), 1, 1);
    let plan = small.floorplan().expect("valid");

    let mut geometry = GridGeometry::new();
    solve_in_order(&big, &(0..20).collect::<Vec<_>>(), &mut geometry);
    solve_in_order(&small, &[0, 1], &mut geometry);
    assert_eq!(geometry.len(), 2);
    assert_eq!(geometry.chip_width(), plan.chip_width());
    assert_eq!(geometry.chip_height(), plan.chip_height());
    assert_eq!(geometry.center(1), plan.block(BlockId(1)).center());
}

//! Property-based packing tests: mode canonicalization and round-trips
//! over random shapes and all modes.

use iatf_layout::{CompactBatch, Diag, Side, StdBatch, Trans, TrsmMode, Uplo};
use iatf_pack::{gemm as pg, trsm as pt};
use iatf_simd::{c64, VecWidth};

// The offset arithmetic below assumes P=2 (f64/c64 at 128-bit), so every
// batch is pinned to W128 regardless of the host's dispatched width.
const W: VecWidth = VecWidth::W128;
use proptest::prelude::*;

fn trsm_mode_strategy() -> impl Strategy<Value = TrsmMode> {
    (
        prop_oneof![Just(Side::Left), Just(Side::Right)],
        prop_oneof![Just(Trans::No), Just(Trans::Yes)],
        prop_oneof![Just(Uplo::Lower), Just(Uplo::Upper)],
        prop_oneof![Just(Diag::NonUnit), Just(Diag::Unit)],
    )
        .prop_map(|(s, t, u, d)| TrsmMode::new(s, t, u, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_pack_a_places_every_element(
        m in 1usize..=20,
        k in 1usize..=20,
        trans in prop_oneof![Just(Trans::No), Just(Trans::Yes)],
        count in 1usize..=6,
        seed in any::<u32>(),
    ) {
        let (rows, cols) = match trans { Trans::No => (m, k), Trans::Yes => (k, m) };
        let std = StdBatch::<f64>::random(rows, cols, count, seed as u64);
        let compact = CompactBatch::from_std_at(&std, W);
        let mut dst = vec![0.0f64; pg::panel_a_len::<f64>(2, m, k)];
        for pack in 0..compact.packs() {
            pg::pack_a(&mut dst, &compact, pack, trans, false, 4, m, k);
            // verify via the documented panel addressing
            let g = compact.group();
            let mut i0 = 0;
            while i0 < m {
                let h = 4.min(m - i0);
                for kk in 0..k {
                    for i in 0..h {
                        let off = pg::a_tile_offset::<f64>(2, i0, k) + (kk * h + i) * g;
                        for lane in 0..2 {
                            let v = pack * 2 + lane;
                            if v >= count { continue; }
                            let want = match trans {
                                Trans::No => std.get(v, i0 + i, kk),
                                Trans::Yes => std.get(v, kk, i0 + i),
                            };
                            prop_assert_eq!(dst[off + lane], want);
                        }
                    }
                }
                i0 += h;
            }
        }
    }

    #[test]
    fn trsm_map_composition_is_involutive_on_b(
        mode in trsm_mode_strategy(),
        m in 1usize..=12,
        n in 1usize..=12,
    ) {
        // writing through b_src then reading through b_src is the identity
        let map = pt::TrsmIndexMap::new(mode, false, m, n);
        let mut grid = vec![usize::MAX; m * n];
        for i in 0..map.t {
            for j in 0..map.bn {
                let (r, c) = map.b_src(i, j);
                grid[c * m + r] = i * map.bn + j;
            }
        }
        // bijection: every B element hit exactly once
        prop_assert!(grid.iter().all(|&x| x != usize::MAX));
        let mut seen = grid.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), m * n);
    }

    #[test]
    fn trsm_a_map_respects_referenced_triangle(
        mode in trsm_mode_strategy(),
        t in 1usize..=16,
    ) {
        let (m, n) = match mode.side { Side::Left => (t, 3), Side::Right => (3, t) };
        let map = pt::TrsmIndexMap::new(mode, false, m, n);
        for i in 0..map.t {
            for j in 0..=i {
                let (r, c) = map.a_src(i, j);
                prop_assert!(r < t && c < t);
                match mode.uplo {
                    Uplo::Lower => prop_assert!(r >= c),
                    Uplo::Upper => prop_assert!(r <= c),
                }
            }
        }
    }

    #[test]
    fn trsm_b_panel_pack_unpack_round_trip(
        mode in trsm_mode_strategy(),
        m in 1usize..=10,
        n in 1usize..=10,
        seed in any::<u32>(),
    ) {
        let src = StdBatch::<c64>::random(m, n, 3, seed as u64);
        let compact = CompactBatch::from_std_at(&src, W);
        let map = pt::TrsmIndexMap::new(mode, false, m, n);
        let mut out = CompactBatch::<c64>::zeroed_at(m, n, 3, W);
        // pack every panel with α = 1 and immediately unpack into `out`:
        // the result must equal the source (on live lanes)
        let w_step = 2usize;
        for pack in 0..compact.packs() {
            let mut j0 = 0;
            while j0 < map.bn {
                let w = w_step.min(map.bn - j0);
                let mut panel = vec![0.0f64; pt::panel_b_len::<c64>(2, map.t, w)];
                pt::pack_b_panel::<c64>(
                    &mut panel,
                    compact.pack_slice(pack),
                    compact.rows(),
                    2,
                    &map,
                    j0,
                    w,
                    c64::new(1.0, 0.0),
                );
                pt::unpack_b_panel::<c64>(
                    &panel,
                    out.pack_slice_mut(pack),
                    m,
                    2,
                    &map,
                    j0,
                    w,
                );
                j0 += w;
            }
        }
        prop_assert_eq!(src.max_abs_diff(&out.to_std()), 0.0);
    }

    #[test]
    fn packed_reciprocal_inverts_diagonal(
        t in 1usize..=12,
        seed in any::<u32>(),
    ) {
        let std = StdBatch::<f64>::random_triangular(t, 2, Uplo::Lower, Diag::NonUnit, seed as u64);
        let compact = CompactBatch::from_std_at(&std, W);
        let map = pt::TrsmIndexMap::new(TrsmMode::LNLN, false, t, 1);
        let blocks = pt::block_decomposition(t, 4, 5);
        let (layout, total) = pt::a_layout::<f64>(2, &blocks);
        let mut dst = vec![0.0f64; total];
        pt::pack_a_tri::<f64>(&mut dst, compact.pack_slice(0), t, 2, &map, &layout, 2, true);
        for blk in &layout {
            for i in 0..blk.mb {
                let base = blk.tri_off + i * 2;
                for lane in 0..2 {
                    let d = std.get(lane, blk.r0 + i, blk.r0 + i);
                    let prod = dst[base + lane] * d;
                    prop_assert!((prod - 1.0).abs() < 1e-12);
                    // the off-diagonal triangle continues the strip
                    for j in 0..i {
                        let at = blk.rect_off + ((blk.r0 + j) * blk.mb + i) * 2 + lane;
                        prop_assert_eq!(dst[at], std.get(lane, blk.r0 + i, blk.r0 + j));
                    }
                }
            }
        }
    }
}

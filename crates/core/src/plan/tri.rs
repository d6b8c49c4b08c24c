//! Pack Selecter for the triangular ops — one decision, shared by
//! [`TrsmPlan`](super::TrsmPlan) and [`TrmmPlan`](super::TrmmPlan).
//!
//! Every mode's canonical map is affine (`iatf_pack::trsm`), so under
//! `PackPolicy::Auto` / `Never` both operands are streamed in place: B̂ is
//! solved or multiplied where it is stored, each diagonal block's strip —
//! its rectangular part and, continuing it, its strictly lower triangle —
//! is read where A is stored, and only the `t` diagonal groups are packed
//! (they carry the reciprocal or direct diagonal and the padded-lane ones).
//! `PackPolicy::Always` keeps the fully packed path as the ablation and the
//! bitwise reference; a conjugated complex A keeps the full strip pack too,
//! since conjugation is not a stride, while its B still runs in place.
//!
//! Whatever was decided, the executors address both operands the same way —
//! a base offset and two signed strides per block / panel, the same kernels
//! — so the hot loops differ only in *which slice* the base is taken from.

use crate::config::PackPolicy;
use crate::elem::CompactElement;
use crate::plan::gemm::OperandPlan;
use iatf_pack::trsm as pk;

/// Operand access of one triangular plan.
#[derive(Clone, Debug)]
pub(crate) struct TriOperands {
    /// `Direct`: strips and triangles read in place, diagonals packed.
    pub a_plan: OperandPlan,
    /// `Direct`: B̂ solved / multiplied in place.
    pub b_plan: OperandPlan,
    /// What the 128-bit rule packed: `Always`, or a mode that is not the
    /// identity on B. Kept for consumers that do their own left/unreversed
    /// in-place addressing and key on it.
    pub pack_b_structural: bool,
    /// Packed-A layout: full strips + diagonals, or diagonals only.
    pub a_blocks: Vec<pk::ABlockLayout>,
    /// Scalars of packed A per pack.
    pub a_len: usize,
    /// Scalars of B-panel scratch (0 in place).
    pub panel_cap: usize,
    /// Per diagonal block: where its strip (rectangle, then triangle) is
    /// read — inside the stored A pack (`Direct`) or the packed-A buffer
    /// (`Packed`).
    pub rect: Vec<pk::InPlaceAccess>,
    /// Per column panel: where B̂ lives — inside the stored B pack
    /// (`Direct`) or the panel scratch (`Packed`).
    pub panel: Vec<pk::InPlaceAccess>,
}

impl TriOperands {
    /// Decides operand access for `blocks` × `panels` of `map` at
    /// interleaving factor `p`.
    pub fn select<E: CompactElement>(
        policy: PackPolicy,
        map: &pk::TrsmIndexMap,
        p: usize,
        blocks: &[(usize, usize)],
        panels: &[(usize, usize)],
    ) -> Self {
        let g = (p * E::SCALARS) as isize;
        let always = policy == PackPolicy::Always;
        let identity_b = !map.reversed && !map.side_right;
        let b_plan = if always {
            OperandPlan::Packed
        } else {
            OperandPlan::Direct
        };
        let a_plan = if always || (map.conj && E::IS_COMPLEX) {
            OperandPlan::Packed
        } else {
            OperandPlan::Direct
        };

        let (a_blocks, a_len) = match a_plan {
            OperandPlan::Packed => pk::a_layout::<E>(p, blocks),
            OperandPlan::Direct => pk::a_layout_diag::<E>(p, blocks),
        };
        let rect = a_blocks
            .iter()
            .map(|blk| match a_plan {
                // packed strip: `r0 + mb` slivers of `mb` contiguous groups
                OperandPlan::Packed => pk::InPlaceAccess {
                    base: blk.rect_off,
                    row: g,
                    col: blk.mb as isize * g,
                },
                OperandPlan::Direct => map.a_rect_in_place::<E>(p, blk.r0),
            })
            .collect();
        let panel = panels
            .iter()
            .map(|&(j0, w)| match b_plan {
                // packed panel: row-major, `w` groups per row
                OperandPlan::Packed => pk::InPlaceAccess {
                    base: 0,
                    row: w as isize * g,
                    col: g,
                },
                OperandPlan::Direct => map.b_in_place::<E>(p, j0),
            })
            .collect();
        let panel_cap = match b_plan {
            OperandPlan::Packed => panels
                .iter()
                .map(|&(_, w)| pk::panel_b_len::<E>(p, map.t, w))
                .max()
                .unwrap_or(0),
            OperandPlan::Direct => 0,
        };
        let sel = Self {
            a_plan,
            b_plan,
            pack_b_structural: always || !identity_b,
            a_blocks,
            a_len,
            panel_cap,
            rect,
            panel,
        };
        debug_assert!(sel.addresses_in_bounds::<E>(map, p, panels));
        sel
    }

    /// Whether every group reachable through `rect` / `panel` over the
    /// kernels' extents lies inside the slice its base is taken from — the
    /// invariant the executors' pointer arithmetic rests on.
    fn addresses_in_bounds<E: CompactElement>(
        &self,
        map: &pk::TrsmIndexMap,
        p: usize,
        panels: &[(usize, usize)],
    ) -> bool {
        let g = (p * E::SCALARS) as isize;
        let inside = |acc: &pk::InPlaceAccess, rows: usize, cols: usize, len: usize| {
            let (lo, hi) = acc.envelope(rows, cols);
            lo >= 0 && hi + g <= len as isize
        };
        let a_src_len = match self.a_plan {
            OperandPlan::Packed => self.a_len,
            OperandPlan::Direct => map.t * map.t * g as usize,
        };
        // a block's strip runs on through its triangle: `r0 + mb` columns
        let rect_ok = self
            .a_blocks
            .iter()
            .zip(&self.rect)
            .all(|(blk, acc)| inside(acc, blk.mb, blk.r0 + blk.mb, a_src_len));
        let panel_ok = panels.iter().zip(&self.panel).all(|(&(_, w), acc)| {
            let len = match self.b_plan {
                OperandPlan::Packed => pk::panel_b_len::<E>(p, map.t, w),
                OperandPlan::Direct => map.t * map.bn * g as usize,
            };
            inside(acc, map.t, w, len)
        });
        rect_ok && panel_ok
    }

    /// Packs one pack's coefficient data: full strips + diagonals, or the
    /// `t` diagonal groups alone. `recip` selects reciprocal (TRSM) or
    /// direct (TRMM) diagonals.
    pub fn pack_a<E: CompactElement>(
        &self,
        dst: &mut [E::Real],
        a_pack: &[E::Real],
        p: usize,
        map: &pk::TrsmIndexMap,
        live: usize,
        recip: bool,
    ) {
        match self.a_plan {
            OperandPlan::Packed => {
                pk::pack_a_tri::<E>(dst, a_pack, map.t, p, map, &self.a_blocks, live, recip);
            }
            OperandPlan::Direct => {
                pk::pack_a_diag::<E>(dst, a_pack, map.t, p, map, &self.a_blocks, live, recip);
            }
        }
    }

    /// Scalars one pack's `execute` writes into scratch: packed A plus,
    /// when B is packed, every panel once.
    pub fn packed_scalars<E: CompactElement>(
        &self,
        p: usize,
        t: usize,
        panels: &[(usize, usize)],
    ) -> usize {
        let panel_scalars: usize = match self.b_plan {
            OperandPlan::Packed => panels
                .iter()
                .map(|&(_, w)| pk::panel_b_len::<E>(p, t, w))
                .sum(),
            OperandPlan::Direct => 0,
        };
        self.a_len + panel_scalars
    }

    /// `explain()` string for A.
    pub fn pack_a_str(&self) -> &'static str {
        match self.a_plan {
            OperandPlan::Packed => "packed",
            OperandPlan::Direct => "diagonal-only",
        }
    }

    /// `explain()` string for B.
    pub fn pack_b_str(&self) -> &'static str {
        match self.b_plan {
            OperandPlan::Packed => "packed",
            OperandPlan::Direct => "in-place",
        }
    }
}

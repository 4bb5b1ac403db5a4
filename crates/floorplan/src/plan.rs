//! The longest-path constraint-graph solve and the resulting plan.

use std::collections::BTreeSet;

use crate::{BlockId, BlockShape, FloorplanError, RelativePlacement};

/// A block with its solved geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedBlock {
    /// The block's id in the originating placement.
    pub id: BlockId,
    /// Display name copied from the spec.
    pub name: String,
    /// Lower-left x coordinate (mm).
    pub x: f64,
    /// Lower-left y coordinate (mm).
    pub y: f64,
    /// Width (mm).
    pub width: f64,
    /// Height (mm).
    pub height: f64,
}

impl PlacedBlock {
    /// Geometric centre of the block.
    pub fn center(&self) -> (f64, f64) {
        center(self.x, self.y, self.width, self.height)
    }

    /// Block area (mm²).
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Width/height ratio.
    pub fn aspect(&self) -> f64 {
        self.width / self.height
    }

    /// Whether two placed blocks overlap (strictly, touching edges are
    /// allowed).
    pub fn overlaps(&self, other: &PlacedBlock) -> bool {
        let eps = 1e-9;
        self.x + self.width > other.x + eps
            && other.x + other.width > self.x + eps
            && self.y + self.height > other.y + eps
            && other.y + other.height > self.y + eps
    }
}

/// A solved floorplan: exact block positions and chip extents.
///
/// Produced by [`RelativePlacement::floorplan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    blocks: Vec<PlacedBlock>,
    chip_width: f64,
    chip_height: f64,
}

impl Floorplan {
    /// All placed blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[PlacedBlock] {
        &self.blocks
    }

    /// The placed geometry of one block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn block(&self, id: BlockId) -> &PlacedBlock {
        &self.blocks[id.index()]
    }

    /// Chip bounding-box width (mm).
    pub fn chip_width(&self) -> f64 {
        self.chip_width
    }

    /// Chip bounding-box height (mm).
    pub fn chip_height(&self) -> f64 {
        self.chip_height
    }

    /// Chip bounding-box area (mm²) — the "design area" the paper
    /// reports.
    pub fn chip_area(&self) -> f64 {
        chip_area(self.chip_width, self.chip_height)
    }

    /// Chip aspect ratio (width/height), used for the paper's
    /// "aspect ratios of the design ... within permissible ranges"
    /// feasibility check.
    pub fn chip_aspect(&self) -> f64 {
        chip_aspect(self.chip_width, self.chip_height)
    }

    /// Manhattan distance between the centres of two blocks: the wire
    /// length estimate for a link connecting them (mm).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn link_length(&self, a: BlockId, b: BlockId) -> f64 {
        manhattan(self.block(a).center(), self.block(b).center())
    }

    /// Sum of block areas divided by chip area: the packing utilisation
    /// in `(0, 1]`.
    pub fn utilization(&self) -> f64 {
        let used: f64 = self.blocks.iter().map(PlacedBlock::area).sum();
        used / self.chip_area()
    }
}

/// Centre of the block with lower-left corner `(x, y)`.
fn center(x: f64, y: f64, width: f64, height: f64) -> (f64, f64) {
    (x + width / 2.0, y + height / 2.0)
}

/// Manhattan distance between two block centres (mm).
fn manhattan((ax, ay): (f64, f64), (bx, by): (f64, f64)) -> f64 {
    (ax - bx).abs() + (ay - by).abs()
}

fn chip_area(width: f64, height: f64) -> f64 {
    width * height
}

fn chip_aspect(width: f64, height: f64) -> f64 {
    width / height
}

/// The geometry-only grid solve and its reusable buffers.
///
/// [`GridGeometry::solve`] takes block slots and [`BlockShape`]s as
/// parallel slices and writes every block's size and lower-left corner
/// plus the chip extents into `self`; the buffers keep their capacity,
/// so a steady-state solve does not allocate. Block `i` of the result is
/// element `i` of the input slices. [`RelativePlacement::floorplan`]
/// runs this same solve, so the two agree bit for bit.
///
/// A block's geometry depends only on its own shape and the per-row /
/// per-column maxima of the grid, so the order of the input blocks
/// changes no block's geometry and no chip extent.
#[derive(Debug, Clone, Default)]
pub struct GridGeometry {
    x: Vec<f64>,
    y: Vec<f64>,
    widths: Vec<f64>,
    heights: Vec<f64>,
    /// Per-row heights / per-column widths, then their running sums.
    row_h: Vec<f64>,
    col_w: Vec<f64>,
    row_y: Vec<f64>,
    col_x: Vec<f64>,
    chip_width: f64,
    chip_height: f64,
}

impl GridGeometry {
    /// Empty buffers.
    pub fn new() -> Self {
        GridGeometry::default()
    }

    /// Solves exact block positions and sizes for blocks `shapes` at
    /// grid slots `slots` (`(row, col)`).
    ///
    /// Soft blocks start square and are then stretched vertically to
    /// their row height (within their aspect range), which narrows them
    /// and compacts the chip — a one-step version of the LP resizing.
    /// The constraint-graph longest path is then, on a grid, the running
    /// sums of column widths and row heights; each block is centred in
    /// its slot.
    ///
    /// The caller validates first: every shape passes
    /// [`BlockShape::area_is_valid`] and [`BlockShape::aspect_is_valid`],
    /// no two blocks share a slot, and there is at least one block. The
    /// geometry of input that breaks these rules is unspecified.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, or if a shape's aspect
    /// range is empty or NaN.
    pub fn solve(&mut self, slots: &[(usize, usize)], shapes: &[BlockShape]) {
        assert_eq!(slots.len(), shapes.len(), "one slot per block shape");
        let GridGeometry {
            x,
            y,
            widths,
            heights,
            row_h,
            col_w,
            row_y,
            col_x,
            chip_width,
            chip_height,
        } = self;

        // Initial square shapes.
        widths.clear();
        widths.extend(shapes.iter().map(|s| s.area.sqrt()));
        heights.clear();
        heights.extend_from_slice(widths);

        let rows = slots.iter().map(|p| p.0).max().unwrap_or(0) + 1;
        let cols = slots.iter().map(|p| p.1).max().unwrap_or(0) + 1;

        // Two sizing passes: stretch each soft block to its row height
        // (within its aspect range), which shrinks its width; recompute.
        for _ in 0..2 {
            row_h.clear();
            row_h.resize(rows, 0.0);
            for (i, &(r, _)) in slots.iter().enumerate() {
                row_h[r] = row_h[r].max(heights[i]);
            }
            for (i, s) in shapes.iter().enumerate() {
                let target_h = row_h[slots[i].0];
                // width/height must stay in [min_aspect, max_aspect]:
                // height in [sqrt(area/max), sqrt(area/min)].
                let h_min = (s.area / s.max_aspect).sqrt();
                let h_max = (s.area / s.min_aspect).sqrt();
                let h = target_h.clamp(h_min, h_max);
                heights[i] = h;
                widths[i] = s.area / h;
            }
        }

        // Constraint-graph longest path: on a grid this is column widths
        // / row heights as running maxima.
        col_w.clear();
        col_w.resize(cols, 0.0);
        row_h.clear();
        row_h.resize(rows, 0.0);
        for (i, &(r, c)) in slots.iter().enumerate() {
            col_w[c] = col_w[c].max(widths[i]);
            row_h[r] = row_h[r].max(heights[i]);
        }
        col_x.clear();
        col_x.resize(cols + 1, 0.0);
        for c in 0..cols {
            col_x[c + 1] = col_x[c] + col_w[c];
        }
        row_y.clear();
        row_y.resize(rows + 1, 0.0);
        for r in 0..rows {
            row_y[r + 1] = row_y[r] + row_h[r];
        }

        // Centre each block in its slot.
        x.clear();
        y.clear();
        for (i, &(r, c)) in slots.iter().enumerate() {
            x.push(col_x[c] + (col_w[c] - widths[i]) / 2.0);
            y.push(row_y[r] + (row_h[r] - heights[i]) / 2.0);
        }
        *chip_width = col_x[cols];
        *chip_height = row_y[rows];
    }

    /// Number of blocks in the last solve.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the last solve had no blocks.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Geometric centre of block `i` (as [`PlacedBlock::center`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn center(&self, i: usize) -> (f64, f64) {
        center(self.x[i], self.y[i], self.widths[i], self.heights[i])
    }

    /// Manhattan distance between the centres of blocks `a` and `b`
    /// (as [`Floorplan::link_length`]).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn link_length(&self, a: usize, b: usize) -> f64 {
        manhattan(self.center(a), self.center(b))
    }

    /// Chip bounding-box width (mm).
    pub fn chip_width(&self) -> f64 {
        self.chip_width
    }

    /// Chip bounding-box height (mm).
    pub fn chip_height(&self) -> f64 {
        self.chip_height
    }

    /// Chip bounding-box area (as [`Floorplan::chip_area`]).
    pub fn chip_area(&self) -> f64 {
        chip_area(self.chip_width, self.chip_height)
    }

    /// Chip aspect ratio (as [`Floorplan::chip_aspect`]).
    pub fn chip_aspect(&self) -> f64 {
        chip_aspect(self.chip_width, self.chip_height)
    }
}

/// The named floorplan's checks, in its error order: no blocks, then
/// each block's area and aspect range in block order, then the first
/// slot taken twice.
fn validate(rp: &RelativePlacement) -> Result<(), FloorplanError> {
    let blocks = rp.blocks();
    if blocks.is_empty() {
        return Err(FloorplanError::Empty);
    }
    for b in blocks {
        let shape = b.shape();
        if !shape.area_is_valid() {
            return Err(FloorplanError::InvalidArea {
                name: b.name.clone(),
                area: b.area,
            });
        }
        if !shape.aspect_is_valid() {
            return Err(FloorplanError::InvalidAspect {
                name: b.name.clone(),
            });
        }
    }
    let mut seen = BTreeSet::new();
    for &(row, col) in rp.positions() {
        if !seen.insert((row, col)) {
            return Err(FloorplanError::SlotCollision { row, col });
        }
    }
    Ok(())
}

pub(crate) fn solve(rp: &RelativePlacement) -> Result<Floorplan, FloorplanError> {
    validate(rp)?;
    let shapes: Vec<BlockShape> = rp.blocks().iter().map(|b| b.shape()).collect();
    let mut geometry = GridGeometry::new();
    geometry.solve(rp.positions(), &shapes);
    let placed = rp
        .blocks()
        .iter()
        .enumerate()
        .map(|(i, b)| PlacedBlock {
            id: BlockId(i),
            name: b.name.clone(),
            x: geometry.x[i],
            y: geometry.y[i],
            width: geometry.widths[i],
            height: geometry.heights[i],
        })
        .collect();
    Ok(Floorplan {
        blocks: placed,
        chip_width: geometry.chip_width,
        chip_height: geometry.chip_height,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockSpec;

    fn grid_plan(specs: &[(&str, f64, usize, usize)]) -> Floorplan {
        let mut rp = RelativePlacement::new();
        for (name, area, r, c) in specs {
            rp.add_block(BlockSpec::soft(*name, *area), *r, *c);
        }
        rp.floorplan().unwrap()
    }

    #[test]
    fn no_two_blocks_overlap() {
        let plan = grid_plan(&[
            ("a", 4.0, 0, 0),
            ("b", 9.0, 0, 1),
            ("c", 1.0, 1, 0),
            ("d", 16.0, 1, 1),
        ]);
        let blocks = plan.blocks();
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                assert!(
                    !blocks[i].overlaps(&blocks[j]),
                    "{} overlaps {}",
                    blocks[i].name,
                    blocks[j].name
                );
            }
        }
    }

    #[test]
    fn chip_contains_all_blocks() {
        let plan = grid_plan(&[("a", 4.0, 0, 0), ("b", 25.0, 1, 2), ("c", 2.0, 2, 1)]);
        for b in plan.blocks() {
            assert!(b.x >= -1e-9 && b.y >= -1e-9);
            assert!(b.x + b.width <= plan.chip_width() + 1e-9);
            assert!(b.y + b.height <= plan.chip_height() + 1e-9);
        }
    }

    #[test]
    fn areas_preserved_by_resizing() {
        let plan = grid_plan(&[("a", 4.0, 0, 0), ("b", 9.0, 0, 1), ("c", 2.5, 1, 0)]);
        for (b, area) in plan.blocks().iter().zip([4.0, 9.0, 2.5]) {
            assert!((b.area() - area).abs() < 1e-9, "{} area drifted", b.name);
        }
    }

    #[test]
    fn aspect_bounds_respected() {
        let mut rp = RelativePlacement::new();
        rp.add_block(BlockSpec::with_aspect("tall", 4.0, 0.25, 0.5), 0, 0);
        rp.add_block(BlockSpec::hard("sq", 100.0), 0, 1);
        let plan = rp.floorplan().unwrap();
        let tall = plan.block(BlockId(0));
        assert!(tall.aspect() <= 0.5 + 1e-9);
        assert!(tall.aspect() >= 0.25 - 1e-9);
        let sq = plan.block(BlockId(1));
        assert!((sq.aspect() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_block_is_the_chip() {
        let plan = grid_plan(&[("only", 6.25, 0, 0)]);
        assert!((plan.chip_area() - 6.25).abs() < 1e-9);
        assert!((plan.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn link_length_is_manhattan_between_centers() {
        let plan = grid_plan(&[("a", 4.0, 0, 0), ("b", 4.0, 0, 1), ("c", 4.0, 1, 0)]);
        // Side-by-side 2x2 squares: centres 2 mm apart.
        assert!((plan.link_length(BlockId(0), BlockId(1)) - 2.0).abs() < 1e-9);
        assert!((plan.link_length(BlockId(0), BlockId(2)) - 2.0).abs() < 1e-9);
        // Diagonal: 2 + 2 Manhattan.
        assert!((plan.link_length(BlockId(1), BlockId(2)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_grids_are_allowed() {
        // Slots may be empty; geometry must remain consistent.
        let plan = grid_plan(&[("a", 1.0, 0, 0), ("b", 1.0, 3, 5)]);
        assert!(plan.chip_width() > 0.0 && plan.chip_height() > 0.0);
        assert!(plan.utilization() <= 1.0);
    }

    #[test]
    fn utilization_in_unit_interval() {
        let plan = grid_plan(&[("a", 3.0, 0, 0), ("b", 5.0, 1, 1), ("c", 7.0, 2, 2)]);
        assert!(plan.utilization() > 0.0 && plan.utilization() <= 1.0);
    }
}

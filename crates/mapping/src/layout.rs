//! Relative-placement generation: where cores and switches sit on the
//! floorplan grid for each topology family.
//!
//! The paper's floorplanner consumes "the relative positions of the
//! cores and switches" implied by the mapping (§5). This module derives
//! those positions:
//!
//! * **mesh / torus** — the natural tile grid, each tile holding a core
//!   block and its switch block side by side;
//! * **hypercube** — switches arranged on a `2^(n/2) x 2^(n-n/2)` grid
//!   by splitting the binary label, then tiled like a mesh;
//! * **Clos / butterfly** — switch stages form middle columns with the
//!   core blocks in columns flanking them, which is what makes indirect
//!   links longer than direct ones (the paper measured ~1.5x for the
//!   butterfly);
//! * **custom** — switches on their builder-declared slots, each
//!   switch's mapped cores stacked beside it.
//!
//! Everything but the core slots is placement-independent, so each
//! topology's layout is first derived as a [`LayoutTemplate`]; a
//! placement only decides which cores take which of its slots. The
//! named [`layout_blocks`] and the evaluation engine's allocation-free
//! floorplan both read the same template, so the slot rules exist once.

use crate::Placement;
use sunmap_floorplan::{BlockId, BlockShape, BlockSpec, RelativePlacement};
use sunmap_topology::{NodeCoords, NodeId, TopologyGraph, TopologyKind};
use sunmap_traffic::{CoreGraph, CoreId};

/// The relative placement plus lookup tables from topology vertices and
/// cores to their floorplan blocks. Both tables are flat vectors (node-
/// and core-indexed) rather than maps: the evaluation hot loop probes
/// them for every loaded link of every candidate placement.
#[derive(Debug, Clone)]
pub struct LayoutBlocks {
    /// Blocks on the floorplan grid.
    pub placement: RelativePlacement,
    /// Node-indexed switch blocks (`None` for non-switch vertices).
    pub switch_block: Vec<Option<BlockId>>,
    /// Core-indexed blocks (`None` for unplaced cores).
    pub core_block: Vec<Option<BlockId>>,
}

impl LayoutBlocks {
    /// The floorplan block of the vertex a core or port occupies: for a
    /// mapped core its core block, for a bare switch its switch block.
    pub fn block_of_node(&self, p: &Placement, node: NodeId) -> Option<BlockId> {
        if let Some(core) = p.core_at(node) {
            return self.core_block[core.index()];
        }
        self.switch_block[node.index()]
    }

    /// Number of switch blocks placed.
    pub fn switch_block_count(&self) -> usize {
        self.switch_block.iter().flatten().count()
    }

    /// Number of core blocks placed.
    pub fn core_block_count(&self) -> usize {
        self.core_block.iter().flatten().count()
    }
}

/// Builds the relative placement for `placement` of `app` onto `g`,
/// with per-switch block areas in `switch_areas` (mm², from the area
/// library), indexed by node id.
///
/// This is the named reference layout: it derives the topology's
/// layout template (slots and areas of every block) and names its
/// blocks for one placement. The evaluation engine derives the template
/// once per topology and solves the same slots without names.
///
/// # Panics
///
/// Panics if `switch_areas` is shorter than the graph's node count —
/// callers size every switch via
/// [`sunmap_topology::TopologyGraph::switch_radices`].
pub fn layout_blocks(
    g: &TopologyGraph,
    app: &CoreGraph,
    placement: &Placement,
    switch_areas: &[f64],
) -> LayoutBlocks {
    LayoutTemplate::new(g, switch_areas).blocks(g, app, placement)
}

/// The floorplan shape of `core`: soft or hard at its declared area.
pub(crate) fn core_shape(app: &CoreGraph, core: CoreId) -> BlockShape {
    let c = app.core(core);
    if c.soft {
        BlockShape::soft(c.area)
    } else {
        BlockShape::hard(c.area)
    }
}

/// One entry of a [`LayoutTemplate`], in layout order.
#[derive(Debug, Clone, Copy)]
enum TemplateBlock {
    /// A switch block at a fixed slot.
    Switch {
        node: NodeId,
        slot: (usize, usize),
        area: f64,
    },
    /// The cores mapped onto `members[start..end]`: the `k`-th
    /// *occupied* member (in member order) sits at `(row + k, col)` of
    /// `slot`. Direct and indirect topologies give every mappable
    /// vertex a group of its own; custom topologies stack a switch's
    /// ports in one group.
    Cores {
        slot: (usize, usize),
        start: usize,
        end: usize,
    },
}

/// The placement-independent part of a topology's layout: the slot and
/// area of every switch block, and the slots cores take on each
/// mappable vertex. One placement's relative placement follows from it
/// by [`LayoutTemplate::for_each_core`], the single place where a core
/// gets its slot.
#[derive(Debug, Clone)]
pub(crate) struct LayoutTemplate {
    blocks: Vec<TemplateBlock>,
    members: Vec<NodeId>,
}

impl LayoutTemplate {
    /// Derives the template of `g` for each topology family:
    ///
    /// * **mesh / torus / octagon / hypercube** — each switch at
    ///   `(row, 2·col + 1)` of its tile, the core mapped onto it at
    ///   `(row, 2·col)`;
    /// * **Clos / butterfly / star** — core ports first, in the flanking
    ///   columns, then the switch stages as middle columns;
    /// * **custom** — each switch at its builder-declared slot (rows
    ///   expanded by the largest port count), its ports' cores stacked
    ///   in the column to its left.
    ///
    /// # Panics
    ///
    /// Panics if `switch_areas` is shorter than the graph's node count.
    pub(crate) fn new(g: &TopologyGraph, switch_areas: &[f64]) -> Self {
        let mut t = LayoutTemplate {
            blocks: Vec::new(),
            members: Vec::new(),
        };
        match g.kind() {
            TopologyKind::Mesh { .. } | TopologyKind::Torus { .. } | TopologyKind::Octagon => {
                // Octagon switches carry perimeter grid coordinates, so
                // the tile layout applies unchanged.
                t.direct(g, switch_areas, grid_slot_of_grid);
            }
            TopologyKind::Hypercube { dim } => {
                let half = dim / 2;
                t.direct(g, switch_areas, move |coords| match coords {
                    NodeCoords::Hyper { label } => (
                        (label >> half) as usize,
                        (label & ((1 << half) - 1)) as usize,
                    ),
                    other => panic!("expected hypercube coords, found {other}"),
                });
            }
            TopologyKind::Clos { .. }
            | TopologyKind::Butterfly { .. }
            | TopologyKind::Star { .. } => t.indirect(g, switch_areas),
            TopologyKind::Custom { .. } => t.custom(g, switch_areas),
        }
        t
    }

    fn push_cores(&mut self, slot: (usize, usize), members: &[NodeId]) {
        let start = self.members.len();
        self.members.extend_from_slice(members);
        self.blocks.push(TemplateBlock::Cores {
            slot,
            start,
            end: self.members.len(),
        });
    }

    fn direct(
        &mut self,
        g: &TopologyGraph,
        switch_areas: &[f64],
        slot: impl Fn(NodeCoords) -> (usize, usize),
    ) {
        for s in g.switches() {
            let (row, col) = slot(g.coords(s));
            self.blocks.push(TemplateBlock::Switch {
                node: s,
                slot: (row, 2 * col + 1),
                area: switch_areas[s.index()],
            });
            self.push_cores((row, 2 * col), &[s]);
        }
    }

    fn indirect(&mut self, g: &TopologyGraph, switch_areas: &[f64]) {
        let ports = g.core_ports().count();
        let stages = 1 + g
            .switches()
            .filter_map(|s| match g.coords(s) {
                NodeCoords::Stage { stage, .. } => Some(stage),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut stage_size = vec![0usize; stages];
        for s in g.switches() {
            if let NodeCoords::Stage { stage, .. } = g.coords(s) {
                stage_size[stage] += 1;
            }
        }
        let max_stage = stage_size.iter().copied().max().unwrap_or(1);
        // Layout rows: enough for the tallest stage and a near-square
        // core arrangement.
        let rows = ((ports as f64).sqrt().ceil() as usize)
            .max(max_stage)
            .max(1);
        let core_cols = ports.div_ceil(rows);
        let left_cols = core_cols.div_ceil(2);

        // Core ports flank the switch stages: left columns, then
        // stages, then right columns.
        for port in g.core_ports() {
            let NodeCoords::Port { index } = g.coords(port) else {
                continue;
            };
            let core_col = index / rows;
            let col = if core_col < left_cols {
                core_col
            } else {
                core_col + stages
            };
            self.push_cores((index % rows, col), &[port]);
        }
        for s in g.switches() {
            let NodeCoords::Stage { stage, index } = g.coords(s) else {
                continue;
            };
            self.blocks.push(TemplateBlock::Switch {
                node: s,
                slot: (index * rows / stage_size[stage], left_cols + stage),
                area: switch_areas[s.index()],
            });
        }
    }

    /// Custom topologies: rows are expanded by the largest port count
    /// so stacked cores never collide with neighbouring tiles.
    fn custom(&mut self, g: &TopologyGraph, switch_areas: &[f64]) {
        let mut ports_of: Vec<Vec<NodeId>> = vec![Vec::new(); g.node_count()];
        for port in g.core_ports() {
            if let Ok(sw) = g.ingress_switch(port) {
                ports_of[sw.index()].push(port);
            }
        }
        let expand = ports_of.iter().map(Vec::len).max().unwrap_or(1).max(1);
        for s in g.switches() {
            let NodeCoords::Grid { row, col } = g.coords(s) else {
                continue;
            };
            self.blocks.push(TemplateBlock::Switch {
                node: s,
                slot: (row * expand, 2 * col + 1),
                area: switch_areas[s.index()],
            });
            self.push_cores((row * expand, 2 * col), &ports_of[s.index()]);
        }
    }

    /// Every switch block as `(node, slot, area)`, in layout order.
    pub(crate) fn switches(&self) -> impl Iterator<Item = (NodeId, (usize, usize), f64)> + '_ {
        self.blocks.iter().filter_map(|b| match *b {
            TemplateBlock::Switch { node, slot, area } => Some((node, slot, area)),
            TemplateBlock::Cores { .. } => None,
        })
    }

    /// Calls `f(core, slot)` for every core `placement` maps onto a
    /// vertex of the layout, in layout order.
    pub(crate) fn for_each_core(
        &self,
        placement: &Placement,
        mut f: impl FnMut(CoreId, (usize, usize)),
    ) {
        for b in &self.blocks {
            if let TemplateBlock::Cores { slot, start, end } = *b {
                self.group_cores(slot, start, end, placement, &mut f);
            }
        }
    }

    /// The slot rule: the `k`-th occupied member of a group sits `k`
    /// rows below the group's slot.
    fn group_cores(
        &self,
        (row, col): (usize, usize),
        start: usize,
        end: usize,
        placement: &Placement,
        f: &mut impl FnMut(CoreId, (usize, usize)),
    ) {
        let mut stacked = 0usize;
        for &node in &self.members[start..end] {
            if let Some(core) = placement.core_at(node) {
                f(core, (row + stacked, col));
                stacked += 1;
            }
        }
    }

    /// Whether no placement can put two blocks on one slot: every
    /// switch slot and every slot any group can stack onto are pairwise
    /// distinct.
    pub(crate) fn slots_disjoint(&self) -> bool {
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for b in &self.blocks {
            match *b {
                TemplateBlock::Switch { slot, .. } => slots.push(slot),
                TemplateBlock::Cores {
                    slot: (row, col),
                    start,
                    end,
                } => slots.extend((0..end - start).map(|k| (row + k, col))),
            }
        }
        slots.sort_unstable();
        slots.windows(2).all(|w| w[0] != w[1])
    }

    /// The named relative placement of `placement`, blocks in layout
    /// order.
    pub(crate) fn blocks(
        &self,
        g: &TopologyGraph,
        app: &CoreGraph,
        placement: &Placement,
    ) -> LayoutBlocks {
        let mut rp = RelativePlacement::new();
        let mut switch_block = vec![None; g.node_count()];
        let mut core_block = vec![None; app.core_count()];
        for b in &self.blocks {
            match *b {
                TemplateBlock::Switch { node, slot, area } => {
                    let id =
                        rp.add_block(BlockSpec::soft(format!("sw_{node}"), area), slot.0, slot.1);
                    switch_block[node.index()] = Some(id);
                }
                TemplateBlock::Cores { slot, start, end } => {
                    self.group_cores(slot, start, end, placement, &mut |core, (row, col)| {
                        let spec = BlockSpec::with_shape(
                            app.core(core).name.clone(),
                            core_shape(app, core),
                        );
                        core_block[core.index()] = Some(rp.add_block(spec, row, col));
                    });
                }
            }
        }
        LayoutBlocks {
            placement: rp,
            switch_block,
            core_block,
        }
    }
}

fn grid_slot_of_grid(coords: NodeCoords) -> (usize, usize) {
    match coords {
        NodeCoords::Grid { row, col } => (row, col),
        other => panic!("expected grid coords, found {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmap_power::{switch_area, SwitchConfig, Technology};
    use sunmap_topology::builders;
    use sunmap_traffic::benchmarks;

    fn areas(g: &TopologyGraph) -> Vec<f64> {
        let mut areas = vec![0.0; g.node_count()];
        for (s, i, o) in g.switch_radices() {
            areas[s.index()] = switch_area(SwitchConfig::new(i, o), Technology::um_0_10());
        }
        areas
    }

    fn identity_placement(g: &TopologyGraph, n: usize) -> Placement {
        Placement::new(g.mappable_nodes()[..n].to_vec(), g).unwrap()
    }

    #[test]
    fn mesh_layout_places_every_switch_and_core() {
        let g = builders::mesh(3, 4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let p = identity_placement(&g, 12);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 12);
        assert_eq!(lb.core_block_count(), 12);
        assert_eq!(lb.placement.block_count(), 24);
        lb.placement.floorplan().expect("mesh layout floorplans");
    }

    #[test]
    fn partial_mapping_leaves_empty_tiles() {
        let g = builders::mesh(4, 4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let p = identity_placement(&g, 12);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 16);
        assert_eq!(lb.core_block_count(), 12);
    }

    #[test]
    fn butterfly_layout_floorplans_without_collisions() {
        let g = builders::butterfly(4, 2, 500.0).unwrap();
        let app = benchmarks::vopd();
        let p = identity_placement(&g, 12);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 8);
        assert_eq!(lb.core_block_count(), 12);
        let fp = lb
            .placement
            .floorplan()
            .expect("butterfly layout floorplans");
        assert!(fp.chip_aspect() > 0.2 && fp.chip_aspect() < 5.0);
    }

    #[test]
    fn clos_layout_floorplans() {
        let g = builders::clos(4, 4, 4, 500.0).unwrap();
        let app = benchmarks::network_processor(100.0);
        let p = identity_placement(&g, 16);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 12);
        lb.placement.floorplan().expect("clos layout floorplans");
    }

    #[test]
    fn hypercube_layout_floorplans() {
        let g = builders::hypercube(4, 500.0).unwrap();
        let app = benchmarks::vopd();
        let p = identity_placement(&g, 12);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        assert_eq!(lb.switch_block_count(), 16);
        lb.placement
            .floorplan()
            .expect("hypercube layout floorplans");
    }

    /// Custom topologies stack a switch's cores by rank among its
    /// *occupied* ports: an empty port leaves no gap.
    #[test]
    fn custom_cores_stack_by_occupied_rank() {
        let mut b = sunmap_topology::CustomTopologyBuilder::new("stack");
        let s0 = b.add_switch_at(0, 0);
        let s1 = b.add_switch_at(0, 1);
        b.add_link(s0, s1, 500.0).unwrap();
        for _ in 0..3 {
            b.add_port(s0).unwrap();
        }
        b.add_port(s1).unwrap();
        let g = b.build().unwrap();
        let ports = g.mappable_nodes().to_vec();
        let mut app = CoreGraph::new();
        for i in 0..3 {
            app.add_core(format!("c{i}"), 1.0);
        }
        // Cores 0 and 1 on the first and third port of s0 (the second
        // stays empty), core 2 on s1's port.
        let p = Placement::new(vec![ports[0], ports[2], ports[3]], &g).unwrap();
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        let slot = |core: usize| lb.placement.position(lb.core_block[core].unwrap());
        // Three ports on s0, so rows expand by three; s0's cores sit in
        // column 0, stacked in rows 0 and 1.
        assert_eq!(slot(0), (0, 0));
        assert_eq!(slot(1), (1, 0));
        assert_eq!(slot(2), (0, 2));
        let template = LayoutTemplate::new(&g, &areas(&g));
        assert!(template.slots_disjoint());
        lb.placement.floorplan().expect("custom layout floorplans");
    }

    #[test]
    fn library_templates_never_collide_but_shared_custom_slots_do() {
        for g in builders::standard_library(24, 500.0).unwrap() {
            assert!(
                LayoutTemplate::new(&g, &areas(&g)).slots_disjoint(),
                "{}",
                g.kind()
            );
        }
        let mut b = sunmap_topology::CustomTopologyBuilder::new("clash");
        let s0 = b.add_switch_at(1, 1);
        let s1 = b.add_switch_at(1, 1);
        b.add_link(s0, s1, 500.0).unwrap();
        b.add_port(s0).unwrap();
        b.add_port(s1).unwrap();
        let g = b.build().unwrap();
        assert!(!LayoutTemplate::new(&g, &areas(&g)).slots_disjoint());
    }

    #[test]
    fn block_of_node_prefers_core_block() {
        let g = builders::mesh(2, 2, 500.0).unwrap();
        let app = benchmarks::dsp_filter();
        let p = identity_placement(&g, 4);
        let lb = layout_blocks(&g, &app, &p, &areas(&g));
        let node = g.mappable_nodes()[0];
        let core = p.core_at(node).unwrap();
        assert_eq!(lb.block_of_node(&p, node), lb.core_block[core.index()]);
    }
}

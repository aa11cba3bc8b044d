//! Plan identity: both planners must keep producing *exactly* the plans
//! they produced before the sorted-run kernels replaced the sort-based
//! code. Every constant below is an FNV-1a fingerprint of the full
//! [`CollectivePlan`] — groups, aggregators, every message and I/O
//! extent, `diag` — generated on the commit before that change, so a
//! kernel that drops, reorders, splits or merges one extent anywhere
//! fails here by name rather than as a drifted golden three layers up.
//!
//! The remerge cases pin placement's two partition-tree takeovers
//! (Figures 5a and 5b) by their file domains, not by hash: they are
//! small enough to read.

use mcio_cluster::ProcessMap;
use mcio_core::{
    mcio, twophase, CollectiveConfig, CollectivePlan, CollectiveRequest, Extent, ProcMemory, Rank,
    Rw, Strategy,
};
use mcio_workloads::{CollPerf, Ior};
use std::borrow::Borrow;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A list of extents, read from a slice or a message's view alike.
    fn extents<E: Borrow<Extent>>(&mut self, extents: impl IntoIterator<Item = E>) {
        let extents: Vec<Extent> = extents.into_iter().map(|e| *e.borrow()).collect();
        self.word(extents.len() as u64);
        for e in extents {
            self.word(e.offset);
            self.word(e.len);
        }
    }
}

/// Every field of the plan, in declaration order, with list lengths
/// mixed in so that moving an element across a boundary shows.
fn fingerprint(plan: &CollectivePlan) -> u64 {
    let mut h = Fnv::new();
    h.word(matches!(plan.rw, Rw::Write) as u64);
    h.word(matches!(plan.strategy, Strategy::MemoryConscious) as u64);
    h.word(matches!(plan.sync, mcio_core::SyncMode::PerGroup) as u64);
    h.word(plan.groups.len() as u64);
    for g in &plan.groups {
        h.word(g.ranks.len() as u64);
        for r in &g.ranks {
            h.word(r.0 as u64);
        }
        h.word(g.aggregators.len() as u64);
        for a in &g.aggregators {
            h.word(a.rank.0 as u64);
            h.word(a.fd.offset);
            h.word(a.fd.len);
            h.word(a.buffer);
            h.word(a.data_bytes);
        }
        h.word(g.rounds.len() as u64);
        for round in &g.rounds {
            h.word(round.messages.len() as u64);
            for m in &round.messages {
                h.word(m.src.0 as u64);
                h.word(m.dst.0 as u64);
                h.extents(&m.extents);
            }
            h.word(round.ios.len() as u64);
            for io in &round.ios {
                h.word(io.agg.0 as u64);
                h.word(io.window.offset);
                h.word(io.window.len);
                h.extents(&io.extents);
            }
        }
    }
    h.word(plan.diag.ptree_leaves as u64);
    h.word(plan.diag.remerges as u64);
    h.word(plan.diag.relaxations as u64);
    h.0
}

fn both_plans(
    req: &CollectiveRequest,
    map: &ProcessMap,
    mem: &ProcMemory,
    cfg: &CollectiveConfig,
) -> (CollectivePlan, CollectivePlan) {
    let tp = twophase::plan(req, map, mem, cfg);
    let mc = mcio::plan(req, map, mem, cfg);
    assert_eq!(tp.check(req), Ok(()));
    assert_eq!(mc.check(req), Ok(()));
    (tp, mc)
}

/// `Err` names the pair the planners produced, in the form the
/// constants are written in.
fn pinned(what: &str, got: (u64, u64), want: (u64, u64)) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: (two-phase, memory-conscious) = ({:#018x}, {:#018x}), pinned ({:#018x}, {:#018x})",
            got.0, got.1, want.0, want.1
        ))
    }
}

/// One `perf_suite` cell: the memory draw and knobs of
/// `mcio_bench::Harness::{memories, config_for}` at 12 ranks per node
/// and a 16 MiB nominal buffer.
fn figure_fingerprints(req: &CollectiveRequest, seed: u64) -> (u64, u64) {
    let buffer = 16 * MIB;
    let map = ProcessMap::block_ppn(req.nranks(), 12);
    let mem = ProcMemory::normal(req.nranks(), buffer, 0.35, seed);
    let per_node = (req.total_bytes() / map.nnodes() as u64).max(1);
    let cfg = CollectiveConfig::with_buffer(buffer)
        .nah(2)
        .msg_group(per_node)
        .msg_ind((per_node / 2).max(1))
        .mem_min(buffer / 2);
    let (tp, mc) = both_plans(req, &map, &mem, &cfg);
    (fingerprint(&tp), fingerprint(&mc))
}

#[test]
fn fig6_coll_perf_plans_are_pinned() {
    let req = CollPerf::paper(120, 2).request(Rw::Write);
    let want = (0x8dcf_714e_e7b9_58b8, 0xb343_bf24_5db4_367a);
    assert_eq!(
        pinned("fig6", figure_fingerprints(&req, 0xF166), want),
        Ok(())
    );
}

#[test]
fn fig7_ior_plans_are_pinned() {
    let req = Ior::paper(120, 32 * MIB, 8).request(Rw::Write);
    let want = (0x04c3_1b91_18ac_2e0b, 0xbd67_3b3c_d147_c445);
    assert_eq!(
        pinned("fig7", figure_fingerprints(&req, 0xF167), want),
        Ok(())
    );
}

#[test]
fn fig8_ior_plans_are_pinned() {
    let req = Ior::paper(1080, 8 * MIB, 8).request(Rw::Write);
    let want = (0xd3ad_c432_06bd_5f1f, 0xfa95_b333_6c76_7098);
    assert_eq!(
        pinned("fig8", figure_fingerprints(&req, 0xF168), want),
        Ok(())
    );
}

/// The four access shapes of `diff_props.rs`, same constructions.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Contiguous,
    Strided,
    Nested,
    Overlapping,
}

fn shaped_request(shape: Shape, nranks: u64, bs: u64, blocks: u64) -> CollectiveRequest {
    let per_rank = (0..nranks)
        .map(|r| match shape {
            Shape::Contiguous => vec![Extent::new(r * bs * blocks, bs * blocks)],
            Shape::Strided => (0..blocks)
                .map(|b| Extent::new((b * nranks + r) * bs, bs))
                .collect(),
            Shape::Nested => {
                let inner_span = 2 * bs * blocks;
                let outer_stride = nranks * inner_span;
                (0..2u64)
                    .flat_map(|o| {
                        (0..blocks).map(move |i| {
                            Extent::new(o * outer_stride + r * inner_span + i * 2 * bs, bs)
                        })
                    })
                    .collect()
            }
            Shape::Overlapping => vec![Extent::new(r * bs * blocks / 2, bs * blocks)],
        })
        .collect();
    CollectiveRequest::new(Rw::Write, per_rank)
}

/// 12 ranks on 3 nodes, uneven memory, knobs small enough that every
/// shape splits into several groups, domains and rounds.
fn shape_fingerprints(shape: Shape, seed: u64) -> (u64, u64, usize) {
    let (nranks, bs, blocks) = (12u64, 16 * KIB, 4u64);
    let req = shaped_request(shape, nranks, bs, blocks);
    let map = ProcessMap::block_ppn(nranks as usize, 4);
    let budget = 2 * bs;
    let mem = ProcMemory::normal(nranks as usize, budget, 0.35, seed);
    let cfg = CollectiveConfig::with_buffer(budget)
        .msg_ind(2 * budget)
        .msg_group(8 * budget)
        .mem_min(0);
    let (tp, mc) = both_plans(&req, &map, &mem, &cfg);
    let data_groups = mc
        .groups
        .iter()
        .filter(|g| !g.aggregators.is_empty())
        .count();
    (fingerprint(&tp), fingerprint(&mc), data_groups)
}

#[test]
fn pattern_family_plans_are_pinned() {
    let mut drifted = Vec::new();
    for (shape, seed, want) in [
        (
            Shape::Contiguous,
            11,
            (0x0072_d989_2f0c_363a, 0xea2b_fd9a_a222_5865),
        ),
        (
            Shape::Strided,
            23,
            (0xf32d_0940_e270_4042, 0x8519_aabe_bfe6_6fe6),
        ),
        (
            Shape::Nested,
            37,
            (0x19c5_9a82_7992_021a, 0x1f66_e4dd_95d2_1a41),
        ),
        (
            Shape::Overlapping,
            41,
            (0x7481_00cb_5226_a5d2, 0xe328_fd20_5b8d_2c2f),
        ),
    ] {
        let (tp, mc, data_groups) = shape_fingerprints(shape, seed);
        assert!(data_groups > 1, "{shape:?}: one group only");
        drifted.extend(pinned(&format!("{shape:?}"), (tp, mc), want).err());
    }
    assert!(drifted.is_empty(), "{drifted:#?}");
}

/// In the overlapping family later groups lose bytes to earlier ones:
/// the plan only stays valid through the `claimed` subtraction, so this
/// shape is the one that reaches the owned side of the request mask.
#[test]
fn overlapping_family_subtracts_claimed_bytes() {
    let req = shaped_request(Shape::Overlapping, 12, 16 * KIB, 4);
    let requested: u64 = req.total_bytes();
    let covered: u64 = req.coverage().iter().map(|e| e.len).sum();
    assert!(covered < requested, "ranks overlap");
    let map = ProcessMap::block_ppn(12, 4);
    let mem = ProcMemory::normal(12, 32 * KIB, 0.35, 41);
    let cfg = CollectiveConfig::with_buffer(32 * KIB)
        .msg_ind(64 * KIB)
        .msg_group(256 * KIB)
        .mem_min(0);
    let mc = mcio::plan(&req, &map, &mem, &cfg);
    let io: u64 = mc.groups.iter().map(|g| g.io_bytes()).sum();
    let shuffled: u64 = mc.groups.iter().map(|g| g.message_bytes()).sum();
    assert_eq!(io, covered, "every byte written once");
    assert!(
        shuffled < requested,
        "bytes an earlier group owns are not shuffled again"
    );
}

/// Four ranks on two nodes; `budgets[r]` is rank `r`'s memory.
fn remerge_plan(per_rank: Vec<Vec<Extent>>, budgets: Vec<u64>) -> CollectivePlan {
    let req = CollectiveRequest::new(Rw::Write, per_rank);
    let map = ProcessMap::block_ppn(4, 2);
    let mem = ProcMemory::from_budgets(budgets);
    let cfg = CollectiveConfig::with_buffer(100)
        .msg_group(u64::MAX)
        .msg_ind(100)
        .mem_min(50);
    let plan = mcio::plan(&req, &map, &mem, &cfg);
    assert_eq!(plan.check(&req), Ok(()));
    plan
}

fn domains(plan: &CollectivePlan) -> Vec<(Rank, Extent)> {
    plan.aggregators().map(|a| (a.rank, a.fd)).collect()
}

/// Figure 5a: the starved leaf's sibling is a leaf; the two merge.
/// Dense `[0, 400)`, `Msg_ind` 100: leaves `[0,100) [100,200) [200,300)
/// [300,400)`. Node 0 (ranks 0, 1) holds the first two and is rich;
/// node 1 (ranks 2, 3) holds the last two and has one rank above
/// `Mem_min` — enough for `[200,300)`, nothing left for `[300,400)`,
/// which its sibling's aggregator inherits.
#[test]
fn starved_leaf_with_leaf_sibling_merges_into_it() {
    let plan = remerge_plan(
        (0..4u64).map(|r| vec![Extent::new(r * 100, 100)]).collect(),
        vec![400, 300, 200, 10],
    );
    assert_eq!(plan.diag.ptree_leaves, 4);
    assert_eq!(plan.diag.remerges, 1);
    assert_eq!(plan.diag.relaxations, 0);
    assert_eq!(
        domains(&plan),
        vec![
            (Rank(0), Extent::new(0, 100)),
            (Rank(1), Extent::new(100, 100)),
            (Rank(2), Extent::new(200, 200)),
        ]
    );
}

/// Figure 5b: the starved leaf's sibling is internal; the adjacent leaf
/// of the sibling's subtree absorbs it and the parent is spliced out.
/// Rank 0 (starved node 0) writes `[0,100)`, a hole follows, ranks 2
/// and 3 (rich node 1) write `[200,300)` and `[300,400)`: the root
/// splits into the leaf `[0,200)` (100 bytes) and an internal node over
/// `[200,300) [300,400)`. `[0,200)` finds no host, and the leftmost
/// leaf of its sibling takes it over.
#[test]
fn starved_leaf_with_internal_sibling_is_absorbed_by_the_adjacent_leaf() {
    let plan = remerge_plan(
        vec![
            vec![Extent::new(0, 100)],
            vec![],
            vec![Extent::new(200, 100)],
            vec![Extent::new(300, 100)],
        ],
        vec![10, 10, 300, 200],
    );
    assert_eq!(plan.diag.ptree_leaves, 3);
    assert_eq!(plan.diag.remerges, 1);
    assert_eq!(plan.diag.relaxations, 0);
    assert_eq!(
        domains(&plan),
        vec![
            (Rank(2), Extent::new(0, 300)),
            (Rank(3), Extent::new(300, 100)),
        ]
    );
}

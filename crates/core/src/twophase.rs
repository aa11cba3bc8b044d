//! The ROMIO-style two-phase collective I/O baseline (§2).
//!
//! Faithful to the behaviour the paper compares against:
//!
//! * **One aggregator per node**, chosen statically (the first rank on
//!   each node) — "the ROMIO implementation picks exactly one process per
//!   node as I/O aggregator by default", independent of data distribution
//!   and memory.
//! * The aggregate access region (hull) is **split evenly** into
//!   contiguous file domains, one per aggregator, optionally aligned to
//!   stripe boundaries.
//! * Each aggregator's buffer is `min(cb_buffer, its own process's memory
//!   budget)`; the number of rounds is the **maximum** over aggregators
//!   (`ntimes` in ROMIO), and every round is globally synchronized — one
//!   memory-starved aggregator stalls the entire job.

use crate::config::{CollectiveConfig, Strategy};
use crate::memory::ProcMemory;
use crate::plan::{
    AggregatorAssignment, CollectivePlan, GroupPlan, IoOp, Message, PlanDiag, Round, SyncMode,
};
use crate::request::{CollectiveRequest, Extents, Run};
use mcio_cluster::{NodeId, ProcessMap, Rank};
use mcio_pfs::extent::{clip_sorted, gallop, gallop_from};
use mcio_pfs::{Extent, Rw};

/// Build a two-phase plan.
///
/// ```
/// use mcio_core::{twophase, CollectiveConfig, CollectiveRequest, ProcMemory};
/// use mcio_cluster::ProcessMap;
/// use mcio_pfs::{Extent, Rw};
///
/// let req = CollectiveRequest::new(
///     Rw::Write,
///     (0..4u64).map(|r| vec![Extent::new(r * 1024, 1024)]).collect(),
/// );
/// let map = ProcessMap::block_ppn(4, 2);
/// let mem = ProcMemory::uniform(4, 512);
/// let plan = twophase::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(512));
/// // One aggregator per node, file domains tiling the hull evenly.
/// assert_eq!(plan.naggs(), 2);
/// assert_eq!(plan.check(&req), Ok(()));
/// ```
///
/// # Panics
/// Panics if the request's rank count does not match the process map or
/// memory table, or if the configuration is invalid.
pub fn plan(
    req: &CollectiveRequest,
    map: &ProcessMap,
    mem: &ProcMemory,
    cfg: &CollectiveConfig,
) -> CollectivePlan {
    assert_eq!(req.nranks(), map.nranks(), "request/topology rank mismatch");
    assert_eq!(req.nranks(), mem.nranks(), "request/memory rank mismatch");
    cfg.validate().expect("invalid collective configuration");
    debug_assert!(req.is_sorted_disjoint(), "rank extents out of order");

    let hull = req.hull();
    let all_ranks: Vec<Rank> = (0..req.nranks()).map(Rank).collect();
    if hull.is_empty() {
        return CollectivePlan {
            rw: req.rw,
            strategy: Strategy::TwoPhase,
            sync: SyncMode::Global,
            diag: PlanDiag::default(),
            groups: vec![GroupPlan {
                ranks: all_ranks,
                aggregators: Vec::new(),
                rounds: Vec::new(),
            }],
        };
    }

    // One aggregator per node hosting ranks: the first rank of the node.
    let agg_ranks: Vec<Rank> = (0..map.nnodes())
        .filter_map(|n| map.ranks_on(NodeId(n)).first().copied())
        .collect();
    let naggs = agg_ranks.len();

    // Even file-domain split, optionally stripe-aligned (ROMIO rounds the
    // per-domain size up to a stripe multiple so boundaries land on
    // stripe edges).
    let mut fd_size = hull.len.div_ceil(naggs as u64);
    if let Some(unit) = cfg.align_fd_to_stripes {
        fd_size = fd_size.div_ceil(unit) * unit;
    }
    let mut aggregators = Vec::with_capacity(naggs);
    for (i, &rank) in agg_ranks.iter().enumerate() {
        let start = (hull.offset + i as u64 * fd_size).min(hull.end());
        let end = (start + fd_size).min(hull.end());
        let fd = Extent::from_bounds(start, end);
        let buffer = cfg.cb_buffer.min(mem.budget(rank)).max(1);
        aggregators.push(AggregatorAssignment {
            rank,
            fd,
            buffer,
            data_bytes: 0,
        });
    }

    // Every rank's run cut at the round windows it crosses; an
    // aggregator's data is what its windows are charged.
    let (mut charged, mut from) = (Vec::new(), 0);
    for rr in &req.ranks {
        charge(rr.rank, &rr.extents, &aggregators, &mut from, &mut charged);
    }
    for c in &charged {
        aggregators[c.window as usize % naggs].data_bytes += c.extents.bytes();
    }
    // The exact requested region, united once: every window's I/O
    // extents are its clip.
    let cover = req.coverage();
    let rounds = cut_rounds(
        req.rw,
        &mut charged,
        &mut Vec::new(),
        &aggregators,
        &cover,
        SyncMode::Global,
    );

    CollectivePlan {
        rw: req.rw,
        strategy: Strategy::TwoPhase,
        sync: SyncMode::Global,
        diag: PlanDiag::default(),
        groups: vec![GroupPlan {
            ranks: all_ranks,
            aggregators,
            rounds,
        }],
    }
}

/// A message [`charge`] cut, before [`cut_rounds`] places it: its window
/// in plan order, round-major (`round · aggregators + aggregator`), its
/// requester and its extents. 48 bytes: a group's charges are held
/// together until they are sorted.
pub(crate) struct Charge {
    window: u32,
    requester: u32,
    extents: Extents,
}

/// Charges `run`, the extents `requester` requests, to the round windows
/// of `aggs`: one [`Charge`] per window it has a byte in. Shared with
/// the memory-conscious planner: the strategies differ in *who*
/// aggregates *what*, not in the per-window mechanics.
///
/// The domains of `aggs` are disjoint and in offset order, and windows
/// tile each domain, so a sorted run crosses them in file order: from
/// the window holding the cursor, a gallop over the rest of the run —
/// out from the last message's length, so a regular pattern's search
/// probes near its answer — finds where the next window takes over, one
/// over the domains finds the domain the cursor lands in, and the run's
/// byte-sum table sizes the message from at most a block of extents at
/// either end. That is `O(log)` search and `O(block)` summing per
/// window touched — nothing per window the run skips, no pass over the
/// extents of the windows it crosses, and no search of the run per
/// (rank, window), which is quadratic in the rank count on two-phase's
/// one group of every rank. The walk knows each message's range, clip
/// start and bytes, so no window searches a run again.
///
/// `from` is the domain the previous run's walk ended in, and is left at
/// this one's: the search for the run's first domain starts there when
/// the run starts no earlier, as each rank's does after the rank before
/// in a block layout, and at the first domain otherwise.
pub(crate) fn charge(
    requester: Rank,
    run: &Run,
    aggs: &[AggregatorAssignment],
    from: &mut usize,
    charged: &mut Vec<Charge>,
) {
    let requester = u32::try_from(requester.0).expect("at most 2^32 ranks");
    let mut rest: &[Extent] = run;
    // Everything before `at` is charged; `at` lies inside `rest[0]` when
    // that extent straddles a window edge.
    let mut at = 0;
    // The last message's extent count: a regular pattern cuts about as
    // many from each window, so the search for a window's end starts
    // there.
    let mut hint = 0;
    let mut ai = match (run.first(), aggs.get(*from)) {
        (Some(e), Some(a)) if a.fd.offset <= e.offset => *from,
        _ => 0,
    };
    while let Some(head) = rest.first() {
        at = at.max(head.offset);
        if at >= head.end() {
            rest = &rest[1..];
            continue;
        }
        ai += gallop(&aggs[ai..], |a| a.fd.end() <= at);
        let Some(a) = aggs.get(ai) else {
            break; // past every domain: `check` reports such bytes
        };
        if at < a.fd.offset {
            at = a.fd.offset; // a gap between domains
            continue;
        }
        let r = (at - a.fd.offset) / a.buffer;
        let win_end = (a.fd.offset + r * a.buffer)
            .saturating_add(a.buffer)
            .min(a.fd.end());
        // The extents that start inside this window; only the last can
        // run past its end.
        let part = &rest[..gallop_from(rest, hint, |e| e.offset < win_end)];
        hint = part.len();
        let over = part[part.len() - 1].end().saturating_sub(win_end);
        let lo = run.len() - rest.len();
        let bytes = run.bytes_of(lo..lo + part.len()) - (at - head.offset) - over;
        charged.push(Charge {
            window: u32::try_from(r as usize * aggs.len() + ai)
                .expect("a plan of at most 2^32 windows"),
            requester,
            extents: Extents::from_parts(run, lo..lo + part.len(), at, bytes),
        });
        // A straddler stays at the head, for the window after this.
        rest = &rest[part.len() - usize::from(over > 0)..];
        at = win_end;
    }
    *from = ai;
}

/// The rounds of one group from its [`charge`]s: round `r` carries the
/// messages of its windows, in window order and, within a window, in the
/// order they were charged, and one I/O op per window that holds a byte
/// of `cover`. Under [`SyncMode::Global`] every round up to the longest
/// aggregator's (ROMIO's `ntimes`) is kept, for all ranks step through
/// it; per group, a
/// round with nothing in it is dropped. `charged` is drained and `ios`
/// is scratch; both keep their capacity for the next group, and each
/// round's vectors are allocated at their final length.
pub(crate) fn cut_rounds(
    rw: Rw,
    charged: &mut Vec<Charge>,
    ios: &mut Vec<IoOp>,
    aggs: &[AggregatorAssignment],
    cover: &[Extent],
    sync: SyncMode,
) -> Vec<Round> {
    // Stable, then reversed: the next round's messages sit at the back,
    // where they are taken without moving the rest, their charge order
    // reversed along with the windows'.
    charged.sort_by_key(|c| c.window);
    charged.reverse();
    let naggs = aggs.len();
    let ntimes = aggs
        .iter()
        .map(AggregatorAssignment::rounds)
        .max()
        .unwrap_or(0);
    let mut rounds = Vec::with_capacity(ntimes);
    for r in 0..ntimes {
        let later = charged.partition_point(|c| c.window as usize >= (r + 1) * naggs);
        let messages = charged
            .drain(later..)
            .rev()
            .map(|c| {
                Message::new(
                    rw,
                    Rank(c.requester as usize),
                    aggs[c.window as usize % naggs].rank,
                    c.extents,
                )
            })
            .collect();
        for a in aggs {
            let win_start = a.fd.offset + r as u64 * a.buffer;
            if win_start >= a.fd.end() {
                continue; // this aggregator is already done (r >= its rounds)
            }
            let window = Extent::from_bounds(win_start, (win_start + a.buffer).min(a.fd.end()));
            ios.extend(window_io(cover, a.rank, window));
        }
        // Moved out at its length; the scratch keeps its capacity.
        let mut round_ios = Vec::with_capacity(ios.len());
        round_ios.append(ios);
        let round = Round {
            messages,
            ios: round_ios,
        };
        if sync == SyncMode::Global || !round.is_empty() {
            rounds.push(round);
        }
    }
    rounds
}

/// The I/O op of one aggregator window, if any requested byte lies in
/// it.
///
/// `cover` is the coalesced union of everything the window's messages
/// can carry. The I/O op's extents are the coalesced union of the
/// messages' extents, i.e. of the ranks' lists each clipped to `window`;
/// clipping distributes over union, so that is `cover` clipped to
/// `window` — one slice copy, nothing collected or sorted per window.
fn window_io(cover: &[Extent], agg: Rank, window: Extent) -> Option<IoOp> {
    let extents = clip_sorted(cover, &window);
    (!extents.is_empty()).then_some(IoOp {
        agg,
        window,
        extents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_cluster::Placement;
    use mcio_pfs::Rw;

    fn setup(
        nranks: usize,
        nnodes: usize,
        per_rank: Vec<Vec<Extent>>,
        buffer: u64,
    ) -> (CollectiveRequest, ProcessMap, ProcMemory, CollectiveConfig) {
        let req = CollectiveRequest::new(Rw::Write, per_rank);
        let map = ProcessMap::new(nranks, nnodes, Placement::Block);
        let mem = ProcMemory::uniform(nranks, u64::MAX / 2);
        let mut cfg = CollectiveConfig::with_buffer(buffer);
        cfg.mem_min = 0;
        (req, map, mem, cfg)
    }

    #[test]
    fn one_aggregator_per_node() {
        let (req, map, mem, cfg) = setup(
            8,
            4,
            (0..8).map(|r| vec![Extent::new(r * 10, 10)]).collect(),
            1024,
        );
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.naggs(), 4);
        let aggs: Vec<Rank> = p.aggregators().map(|a| a.rank).collect();
        // First rank of each node: 0, 2, 4, 6.
        assert_eq!(aggs, vec![Rank(0), Rank(2), Rank(4), Rank(6)]);
        assert_eq!(p.check(&req), Ok(()));
    }

    #[test]
    fn file_domains_tile_hull_evenly() {
        let (req, map, mem, cfg) = setup(
            4,
            2,
            (0..4).map(|r| vec![Extent::new(r * 25, 25)]).collect(),
            1024,
        );
        let p = plan(&req, &map, &mem, &cfg);
        let fds: Vec<Extent> = p.aggregators().map(|a| a.fd).collect();
        assert_eq!(fds, vec![Extent::new(0, 50), Extent::new(50, 50)]);
    }

    #[test]
    fn rounds_are_global_max() {
        // Rank 0 (aggregator of node 0) has a tiny budget → many rounds.
        let req = CollectiveRequest::new(
            Rw::Write,
            (0..4).map(|r| vec![Extent::new(r * 100, 100)]).collect(),
        );
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::from_budgets(vec![10, 1000, 1000, 1000]);
        let mut cfg = CollectiveConfig::with_buffer(1000);
        cfg.mem_min = 0;
        let p = plan(&req, &map, &mem, &cfg);
        // Agg 0: fd 200 bytes / buffer 10 = 20 rounds; agg 2: 1 round.
        assert_eq!(p.max_rounds(), 20);
        assert_eq!(p.check(&req), Ok(()));
        // Late rounds only involve the starved aggregator.
        let last = &p.groups[0].rounds[19];
        assert_eq!(last.ios.len(), 1);
        assert_eq!(last.ios[0].agg, Rank(0));
    }

    #[test]
    fn interleaved_request_plans_correctly() {
        // Two ranks interleave 4-byte blocks over [0, 64).
        let per_rank: Vec<Vec<Extent>> = (0..2)
            .map(|r| (0..8).map(|b| Extent::new((b * 2 + r) * 4, 4)).collect())
            .collect();
        let (req, map, mem, cfg) = setup(2, 2, per_rank, 16);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.check(&req), Ok(()));
        // Each window is dense, so each IoOp is one contiguous extent.
        for g in &p.groups {
            for r in &g.rounds {
                for io in &r.ios {
                    assert_eq!(io.extents.len(), 1);
                }
            }
        }
    }

    #[test]
    fn read_plan_reverses_messages() {
        let mut req = CollectiveRequest::new(
            Rw::Read,
            vec![vec![Extent::new(0, 10)], vec![Extent::new(10, 10)]],
        );
        req.rw = Rw::Read;
        let map = ProcessMap::new(2, 1, Placement::Block);
        let mem = ProcMemory::uniform(2, 1 << 30);
        let cfg = CollectiveConfig::with_buffer(1024);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.check(&req), Ok(()));
        for m in &p.groups[0].rounds[0].messages {
            assert_eq!(m.src, Rank(0)); // the aggregator
        }
    }

    #[test]
    fn empty_request_empty_plan() {
        let (req, map, mem, cfg) = setup(3, 3, vec![vec![], vec![], vec![]], 64);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.naggs(), 0);
        assert_eq!(p.max_rounds(), 0);
        assert_eq!(p.check(&req), Ok(()));
    }

    #[test]
    fn single_rank_job() {
        let (req, map, mem, cfg) = setup(1, 1, vec![vec![Extent::new(100, 50)]], 20);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.naggs(), 1);
        assert_eq!(p.max_rounds(), 3); // 50 / 20
        assert_eq!(p.check(&req), Ok(()));
    }

    #[test]
    fn stripe_alignment_rounds_fd_size() {
        let (req, map, mem, mut cfg) = setup(
            4,
            2,
            (0..4).map(|r| vec![Extent::new(r * 25, 25)]).collect(),
            1024,
        );
        cfg.align_fd_to_stripes = Some(64);
        let p = plan(&req, &map, &mem, &cfg);
        let fds: Vec<Extent> = p.aggregators().map(|a| a.fd).collect();
        // fd_size = ceil(ceil(100/2)/64)*64 = 64.
        assert_eq!(fds[0], Extent::new(0, 64));
        assert_eq!(fds[1], Extent::new(64, 36));
        assert_eq!(p.check(&req), Ok(()));
    }

    #[test]
    fn holes_in_request_preserved() {
        // Ranks request [0,10) and [90,10): the hull has a big hole.
        let (req, map, mem, cfg) = setup(
            2,
            2,
            vec![vec![Extent::new(0, 10)], vec![Extent::new(90, 10)]],
            1024,
        );
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.check(&req), Ok(()));
        let stats = p.stats(None);
        assert_eq!(stats.io_bytes, 20); // holes not written
    }

    #[test]
    fn overlapping_writes_single_io() {
        // Two ranks write the same region: messages double, I/O does not.
        let (req, map, mem, cfg) = setup(
            2,
            1,
            vec![vec![Extent::new(0, 10)], vec![Extent::new(0, 10)]],
            1024,
        );
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.check(&req), Ok(()));
        let stats = p.stats(None);
        assert_eq!(stats.message_bytes, 20);
        assert_eq!(stats.io_bytes, 10);
    }
}

//! A message's extents are a view of its requester's run, not a copy.
//! These properties hold the view against the copy it replaced
//! (`clip_sorted`), hold both planners' charge pass's views against
//! views built by a search — on short runs and on runs long enough to
//! carry byte-sum tables — and time `CollectivePlan::check` on the
//! widest group a plan has: two-phase's one group of every rank.

use mcio_cluster::ProcessMap;
use mcio_core::{
    mcio, twophase, CollectiveConfig, CollectiveRequest, Extent, Extents, Message, ProcMemory, Run,
    Rw,
};
use mcio_pfs::extent::{bytes_in_sorted, clip_sorted, subtract, union_sorted};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::time::Instant;

const MIB: u64 = 1 << 20;

/// A sorted run built from `(gap, len)` steps: gap 0 puts an extent
/// against its predecessor, len 0 makes it zero-length.
fn run_of(steps: &[(u64, u64)]) -> Vec<Extent> {
    let mut pos = 0;
    steps
        .iter()
        .map(|&(gap, len)| {
            let e = Extent::new(pos + gap, len);
            pos = e.end();
            e
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The view iterates exactly the clipped copy, holds its bytes and
    /// its length, for windows that are empty, inside one extent, on an
    /// edge or past either end; and a view equals any other view with the
    /// same content, whatever run or range it reads.
    #[test]
    fn view_is_the_clipped_copy(
        steps in proptest::collection::vec((0u64..4, 0u64..5), 0..16),
        offset in 0u64..70,
        len in 0u64..70,
    ) {
        let extents = run_of(&steps);
        let run = Run::from(extents.clone());
        let window = Extent::new(offset, len);
        let copy = clip_sorted(&extents, &window);
        // No byte in the window, no view.
        let Some(view) = Extents::new(&run, &window) else {
            prop_assert!(copy.is_empty());
            return Ok(());
        };
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), copy.clone());
        prop_assert_eq!(view.bytes(), bytes_in_sorted(&extents, &window));
        prop_assert_eq!(view.len(), copy.len());
        prop_assert!(!view.is_empty());

        // Another run: the copy itself.
        let other = Extents::new(&Run::from(copy.clone()), &window);
        prop_assert_eq!(Some(&view), other.as_ref());
        // Another range of the same run: cut to the view's own hull,
        // which leaves out the zero-length extents before its first byte.
        let hull = Extent::from_bounds(copy[0].offset, copy[copy.len() - 1].end());
        prop_assert_eq!(Some(&view), Extents::new(&run, &hull).as_ref());
        // Another run holding more around the window: a zero-length
        // extent in front and an extent past the end of both.
        let mut padded = vec![Extent::new(0, 0)];
        padded.extend(extents.iter().copied());
        let end = extents.last().map_or(0, Extent::end).max(window.end());
        padded.push(Extent::new(end + 1, 5));
        prop_assert_eq!(Some(&view), Extents::new(&Run::from(padded), &window).as_ref());
    }

    /// Every message of a two-phase plan — cut by the charge pass from the
    /// range, clip start and bytes it walked — equals the view a search
    /// of its requester's run over its round window builds. Runs are set
    /// literally, so zero-length and adjacent extents reach the pass.
    #[test]
    fn charge_pass_views_equal_searched_views(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u64..40, 0u64..30), 0..10),
            1..7,
        ),
        ppn in 1usize..4,
        buffer in 1u64..64,
    ) {
        tp_views_match(&runs, ppn, buffer)?;
    }

    /// The memory-conscious twin: every group's messages equal the views
    /// a search builds of its members' masked runs — each run minus the
    /// regions of the groups before, recomputed here with the public
    /// kernels — over the round windows, in the order the search-based
    /// planner emitted them: round by round, aggregator by aggregator,
    /// member by member, rounds with no message dropped. Runs start at
    /// random offsets, so groups overlap in some draws and not in
    /// others, and the last rank requests rank 0's run again from
    /// another node, so some member is always masked while the first
    /// group's members always keep their runs.
    #[test]
    fn mc_charge_pass_views_equal_searched_views(
        runs in proptest::collection::vec(
            (0u64..200, proptest::collection::vec((0u64..40, 0u64..30), 0..10)),
            2..7,
        ),
        ppn in 1usize..3,
        buffer in 1u64..64,
        msg_ind in 1u64..200,
    ) {
        mc_views_match(&runs, 1000, ppn, buffer, msg_ind)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`charge_pass_views_equal_searched_views`] at block scale: runs
    /// of up to 300 extents, dense in zero-length and adjacent ones, so
    /// a message's extents cross the edges of a run's 64-extent blocks,
    /// and buffers from a byte to past a whole run, so windows cut both
    /// inside one block and across several.
    #[test]
    fn charge_pass_views_equal_searched_views_across_blocks(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u64..3, 0u64..5), 0..300),
            1..5,
        ),
        ppn in 1usize..4,
        buffer in 1u64..1500,
    ) {
        tp_views_match(&runs, ppn, buffer)?;
    }

    /// [`mc_charge_pass_views_equal_searched_views`] at block scale, with
    /// masked runs of hundreds of extents among the members.
    #[test]
    fn mc_charge_pass_views_equal_searched_views_across_blocks(
        runs in proptest::collection::vec(
            (0u64..200, proptest::collection::vec((0u64..3, 0u64..5), 0..300)),
            2..5,
        ),
        ppn in 1usize..3,
        buffer in 1u64..1500,
        msg_ind in 1u64..2000,
    ) {
        mc_views_match(&runs, 4000, ppn, buffer, msg_ind)?;
    }
}

/// The two-phase charge-pass property over literal runs of `(gap, len)`
/// steps, one rank each.
fn tp_views_match(runs: &[Vec<(u64, u64)>], ppn: usize, buffer: u64) -> Result<(), TestCaseError> {
    let nranks = runs.len();
    let mut req = CollectiveRequest::new(Rw::Write, vec![Vec::new(); nranks]);
    for (rr, steps) in req.ranks.iter_mut().zip(runs) {
        rr.extents = run_of(steps).into();
    }
    let map = ProcessMap::block_ppn(nranks, ppn);
    let mem = ProcMemory::uniform(nranks, buffer);
    let plan = twophase::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(buffer));
    let g = &plan.groups[0];
    for (r, round) in g.rounds.iter().enumerate() {
        for m in &round.messages {
            let agg = m.agg(plan.rw);
            let requester = if m.src == agg { m.dst } else { m.src };
            let a = g
                .aggregators
                .iter()
                .find(|a| a.rank == agg)
                .expect("an aggregator");
            let start = a.fd.offset + r as u64 * a.buffer;
            let window = Extent::from_bounds(start, (start + a.buffer).min(a.fd.end()));
            let searched = Extents::new(&req.ranks[requester.0].extents, &window);
            prop_assert_eq!(Some(&m.extents), searched.as_ref());
            prop_assert_eq!(m.bytes(), m.extents.iter().map(|e| e.len).sum::<u64>());
        }
    }
    prop_assert_eq!(plan.check(&req), Ok(()));
    Ok(())
}

/// The memory-conscious charge-pass property over runs of `(gap, len)`
/// steps shifted by their bases; rank 0 also holds 7 bytes at `past`,
/// which lies beyond every drawn extent.
fn mc_views_match(
    runs: &[(u64, Vec<(u64, u64)>)],
    past: u64,
    ppn: usize,
    buffer: u64,
    msg_ind: u64,
) -> Result<(), TestCaseError> {
    let mut extents: Vec<Vec<Extent>> = runs
        .iter()
        .map(|(base, steps)| {
            let mut run = run_of(steps);
            for e in &mut run {
                e.offset += base;
            }
            run
        })
        .collect();
    // Past every drawn extent, so rank 0 holds a byte.
    extents[0].push(Extent::new(past, 7));
    extents.push(extents[0].clone());
    let nranks = extents.len();
    let mut req = CollectiveRequest::new(Rw::Write, vec![Vec::new(); nranks]);
    for (rr, run) in req.ranks.iter_mut().zip(extents) {
        rr.extents = run.into();
    }
    let map = ProcessMap::block_ppn(nranks, ppn);
    let mem = ProcMemory::uniform(nranks, buffer);
    // One group per node.
    let cfg = CollectiveConfig::with_buffer(buffer)
        .msg_group(1)
        .msg_ind(msg_ind)
        .mem_min(0);
    let plan = mcio::plan(&req, &map, &mem, &cfg);
    prop_assert_eq!(plan.check(&req), Ok(()));

    let mut claimed: Vec<Extent> = Vec::new();
    let mut masked_any = false;
    for g in &plan.groups {
        let masked: Vec<Run> = g
            .ranks
            .iter()
            .map(|r| Run::from(subtract(&req.ranks[r.0].extents, &claimed)))
            .collect();
        masked_any |= g
            .ranks
            .iter()
            .zip(&masked)
            .any(|(r, run)| run.bytes() < req.ranks[r.0].bytes());
        let ntimes = g.aggregators.iter().map(|a| a.rounds()).max().unwrap_or(0);
        let mut searched: Vec<Vec<Message>> = Vec::new();
        for r in 0..ntimes {
            let mut round = Vec::new();
            for a in &g.aggregators {
                let start = a.fd.offset + r as u64 * a.buffer;
                if start >= a.fd.end() {
                    continue;
                }
                let window = Extent::from_bounds(start, (start + a.buffer).min(a.fd.end()));
                for (&rank, run) in g.ranks.iter().zip(&masked) {
                    if let Some(view) = Extents::new(run, &window) {
                        round.push(Message::new(plan.rw, rank, a.rank, view));
                    }
                }
            }
            if !round.is_empty() {
                searched.push(round);
            }
        }
        let charged: Vec<&[Message]> = g.rounds.iter().map(|r| &r.messages[..]).collect();
        let searched: Vec<&[Message]> = searched.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(charged, searched);
        let runs: Vec<&[Extent]> = g
            .ranks
            .iter()
            .map(|r| &req.ranks[r.0].extents[..])
            .collect();
        claimed = union_sorted(&[&claimed, &union_sorted(&runs)]);
    }
    prop_assert!(masked_any, "no member lost a claimed byte");
    Ok(())
}

/// `des_heavy`'s shape: `exascale_2018` cut to 32,768 nodes, one rank
/// and 1 MiB each, 16 MiB nominal buffers. Two-phase makes it one group
/// of 32,768 ranks and 32,768 aggregators — the case where `check` was
/// quadratic (one search per rank and I/O op, one scan of the
/// aggregators per op and per message): 6.6 s in release, now 9.2 ms.
/// Both plans must check, and each check's time is printed
/// (`--nocapture`).
#[test]
fn check_is_linear_on_a_32768_node_two_phase_plan() {
    let nranks = 32_768;
    let req = CollectiveRequest::new(
        Rw::Write,
        (0..nranks as u64)
            .map(|r| vec![Extent::new(r * MIB, MIB)])
            .collect(),
    );
    let map = ProcessMap::block_ppn(nranks, 1);
    let mem = ProcMemory::normal(nranks, 16 * MIB, 0.35, 0xE2018);
    let cfg = CollectiveConfig::paper(req.total_bytes(), map.nnodes(), 16 * MIB);
    let tp = twophase::plan(&req, &map, &mem, &cfg);
    assert_eq!(tp.groups.len(), 1);
    assert_eq!(tp.naggs(), nranks);
    let mc = mcio::plan(&req, &map, &mem, &cfg);
    for (name, plan) in [("two-phase", &tp), ("memory-conscious", &mc)] {
        let t = Instant::now();
        assert_eq!(plan.check(&req), Ok(()), "{name}");
        println!("{name}: check {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
    }
    // Each rank's file domain is its own mebibyte: every message stays
    // on its node.
    let rounds = &tp.groups[0].rounds;
    assert!(rounds
        .iter()
        .flat_map(|r| &r.messages)
        .all(|m| m.src == m.dst));
}

//! Execution identity: the faulted, adaptive and multi-tenant paths
//! must keep producing *exactly* the bytes they produced before solo,
//! faulted, adaptive and multi-tenant execution were folded onto one
//! lower-and-run core. Every constant below is an FNV-1a fingerprint
//! generated on the commit before that change, over everything a run
//! hands back: the `Debug` rendering of the outcome (timing report,
//! structured metrics, engine counters, the Chrome trace string and —
//! for the fault paths — the executed plan and controller outcome) and
//! the metrics registry's JSON export. Each cell runs under both DES
//! engines.
//!
//! Fault-free N = 1 identity between the paths is proved elsewhere
//! (`multitenant_props.rs`, `diff_props.rs`); this file pins the cells
//! that had no committed golden. `MATRIX` is the fault-free part:
//! direction × pipelining × exchange shape × strategy, generated on the
//! commit before reads and writes were lowered by one round lowerer.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::exec_sim::{simulate_observed, Exchange, Observe, Pipeline};
use mcio_core::{
    mcio, run_multitenant, simulate_adaptive, simulate_faulted, twophase, AdaptivePolicy,
    CollectiveConfig, CollectivePlan, CollectiveRequest, Extent, FaultOutcome, MultiTenantReport,
    ProcMemory, Rw, Strategy, SyncMode, TenantJob,
};
use mcio_des::{SharePolicy, SimDuration};
use mcio_faults::FaultSpec;
use mcio_obs::{export, Registry};
use mcio_workloads::Ior;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

const ENGINES: [SharePolicy; 2] = [SharePolicy::Fifo, SharePolicy::FairShare];

/// FNV-1a over the bytes of `parts`, each closed by a separator so a
/// byte moving between two parts shows.
fn fingerprint(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in part.as_bytes().iter().chain(&[0xff]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `Err` names the pair the cell produced, in the form the constants
/// are written in.
fn pinned(what: &str, got: [u64; 2], want: [u64; 2]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: [fifo, fair] = [{:#018x}, {:#018x}], pinned [{:#018x}, {:#018x}]",
            got[0], got[1], want[0], want[1]
        ))
    }
}

/// Run `cell` under both engines, traced and with a fresh registry,
/// and fingerprint what it returns together with the registry export.
fn both_engines(cell: impl Fn(Observe<'_>) -> String) -> [u64; 2] {
    ENGINES.map(|engine| {
        let reg = Registry::shared();
        let rendered = cell(Observe {
            registry: Some(&reg),
            trace: true,
            prof: None,
            engine,
        });
        fingerprint(&[&rendered, &export::to_json(&reg.snapshot())])
    })
}

/// 16 ranks on 4 nodes writing 1 MiB each through 256 KiB buffers drawn
/// unevenly: several groups, aggregators on every node, many rounds.
struct Solo {
    map: ProcessMap,
    mem: ProcMemory,
    spec: ClusterSpec,
    tp: CollectivePlan,
    mc: CollectivePlan,
}

fn solo() -> Solo {
    let per_rank = |r: u64| vec![Extent::new(r * MIB, MIB)];
    solo_of(Rw::Write, per_rank)
}

/// The same job moving its 1 MiB per rank as four 256 KiB pieces
/// interleaved across the file, so every aggregator exchanges with
/// several ranks of every node and a two-level exchange has pieces to
/// combine.
fn interleaved(rw: Rw) -> Solo {
    let per_rank = |r: u64| {
        (0..4)
            .map(|seg| Extent::new((seg * 16 + r) * 256 * KIB, 256 * KIB))
            .collect()
    };
    solo_of(rw, per_rank)
}

fn solo_of(rw: Rw, per_rank: impl Fn(u64) -> Vec<Extent>) -> Solo {
    let ranks = 16usize;
    let req = CollectiveRequest::new(rw, (0..ranks as u64).map(per_rank).collect());
    let map = ProcessMap::block_ppn(ranks, 4);
    let mem = ProcMemory::normal(ranks, 256 * KIB, 0.35, 7);
    let cfg = CollectiveConfig::with_buffer(256 * KIB)
        .msg_group(4 * MIB)
        .msg_ind(MIB)
        .mem_min(64 * KIB);
    let spec = ClusterSpec::small(map.nnodes(), 4);
    let tp = twophase::plan(&req, &map, &mem, &cfg);
    let mc = mcio::plan(&req, &map, &mem, &cfg);
    assert_eq!(tp.check(&req), Ok(()));
    assert_eq!(mc.check(&req), Ok(()));
    Solo {
        map,
        mem,
        spec,
        tp,
        mc,
    }
}

/// One of every fault kind, all landing while rounds are in flight.
fn all_faults() -> FaultSpec {
    FaultSpec::parse(
        "seed 42\nost_slow(0, 6.0, 0ns..30ms)\nreq_transient_fail(0.2, 7)\n\
         agg_crash(0, 1ms)\nmem_shock(1, 0.6, 500us)\n",
    )
    .expect("fault plan parses")
}

fn adaptive(
    s: &Solo,
    plan: &CollectivePlan,
    policy: AdaptivePolicy,
    obs: Observe<'_>,
) -> FaultOutcome {
    simulate_adaptive(
        plan,
        &s.map,
        &s.spec,
        &s.mem,
        Pipeline::Serial,
        Exchange::Direct,
        &all_faults(),
        policy,
        obs,
    )
}

#[test]
fn faulted_runs_are_pinned() {
    let s = solo();
    let faulted = |plan: &CollectivePlan, obs: Observe<'_>| {
        simulate_faulted(
            plan,
            &s.map,
            &s.spec,
            &s.mem,
            Pipeline::Serial,
            Exchange::Direct,
            &all_faults(),
            obs,
        )
    };
    // The cells exercise what they claim to: failover, re-rounding and
    // retries on the MC plan, an unrecoverable crash on the baseline.
    let mc = faulted(&s.mc, Observe::default());
    assert!(mc.completed && mc.failovers > 0 && mc.degraded_rounds > 0 && mc.retries > 0);
    assert!(!faulted(&s.tp, Observe::default()).completed);

    let mut drifted = Vec::new();
    for (what, plan, want) in [
        (
            "faulted mc",
            &s.mc,
            [0xe180_8ce5_afc6_ce31, 0x1328_5efd_7afc_af97],
        ),
        (
            "faulted two-phase",
            &s.tp,
            [0x1b4d_ab17_710e_b5eb, 0x1aff_63b4_45b2_71e4],
        ),
    ] {
        let got = both_engines(|obs| format!("{:?}", faulted(plan, obs)));
        drifted.extend(pinned(what, got, want).err());
    }
    assert!(drifted.is_empty(), "{drifted:#?}");
}

#[test]
fn adaptive_runs_are_pinned() {
    let s = solo();
    let a = adaptive(&s, &s.mc, AdaptivePolicy::Aggressive, Observe::default()).adaptive;
    assert!(
        a.demotions > 0 && a.resplits > 0 && a.retuned.is_some(),
        "{a:?}"
    );

    let mut drifted = Vec::new();
    for (policy, want) in [
        (
            AdaptivePolicy::Conservative,
            [0xa4cb_2324_1f77_1abb, 0x5d1f_120a_0495_4042],
        ),
        (
            AdaptivePolicy::Aggressive,
            [0xd3c5_9358_85df_f62a, 0x4799_d537_f23e_231c],
        ),
    ] {
        let got = both_engines(|obs| format!("{:?}", adaptive(&s, &s.mc, policy, obs)));
        drifted.extend(pinned(policy.label(), got, want).err());
    }
    assert!(drifted.is_empty(), "{drifted:#?}");
}

/// One IOR tenant planned the way `mcio_bench::mtspec::build_tenant`
/// plans a job directive (its defaults: 4 segments, stddev 0.3).
#[allow(clippy::too_many_arguments)]
fn tenant(
    name: &str,
    strategy: Strategy,
    ranks: usize,
    ppn: usize,
    per_proc: u64,
    buffer: u64,
    seed: u64,
    base: u64,
) -> TenantJob {
    let req = Ior::paper(ranks, per_proc, 4).request(Rw::Write);
    let req = CollectiveRequest::new(
        req.rw,
        req.ranks
            .iter()
            .map(|r| {
                r.extents
                    .iter()
                    .map(|e| Extent::new(e.offset + base, e.len))
                    .collect()
            })
            .collect(),
    );
    let map = ProcessMap::block_ppn(ranks, ppn);
    let mem = ProcMemory::normal(ranks, buffer, 0.3, seed);
    let per_node = (req.total_bytes() / map.nnodes() as u64).max(1);
    let cfg = CollectiveConfig::with_buffer(buffer)
        .nah(2)
        .msg_group(per_node)
        .msg_ind((per_node / 2).max(1))
        .mem_min(buffer / 2);
    let plan = match strategy {
        Strategy::TwoPhase => twophase::plan(&req, &map, &mem, &cfg),
        Strategy::MemoryConscious => mcio::plan(&req, &map, &mem, &cfg),
    };
    TenantJob::new(name, plan, map)
}

/// Three tenants on an 8-node machine whose partitions overlap pairwise
/// (nodes 0..4, 2..6, 4..8), staggered arrivals, both strategies, one
/// pipelined and one two-level, under OST slowdown plus transient
/// request failures.
#[test]
fn overlapping_tenants_under_machine_faults_are_pinned() {
    let jobs = [
        tenant("a", Strategy::MemoryConscious, 8, 2, MIB, 256 * KIB, 3, 0),
        tenant("b", Strategy::TwoPhase, 8, 2, MIB, 256 * KIB, 4, 64 * MIB)
            .node_offset(2)
            .start(SimDuration::from_micros(150))
            .pipeline(Pipeline::DoubleBuffered),
        tenant(
            "c",
            Strategy::MemoryConscious,
            8,
            2,
            512 * KIB,
            128 * KIB,
            5,
            128 * MIB,
        )
        .node_offset(4)
        .start(SimDuration::from_micros(40))
        .exchange(Exchange::TwoLevel),
    ];
    let spec = ClusterSpec::small(8, 4);
    let faults = FaultSpec::parse(
        "seed 9\nost_slow(1, 5.0, 0ns..25ms)\nost_stall(2, 1ms..3ms)\n\
         req_transient_fail(0.15, 3)\n",
    )
    .expect("fault plan parses");
    let run =
        |obs: Observe<'_>| run_multitenant(&jobs, &spec, Some(&faults), AdaptivePolicy::Off, obs);
    let mt = run(Observe::default());
    assert!(mt.jobs.iter().all(|j| j.ost_overlap > 0.0), "{mt:?}");

    let got = both_engines(|obs| format!("{:?}", run(obs)));
    assert_eq!(
        pinned(
            "3 tenants",
            got,
            [0x8ada_5948_79db_187d, 0xb7ae_40d1_3460_ada5]
        ),
        Ok(())
    );
}

/// `crates/bench/tests/fixtures/overlap.mtspec`, rebuilt without the
/// bench crate; the asserts keep the copy honest.
fn overlap_fixture() -> (ClusterSpec, Vec<TenantJob>, FaultSpec) {
    let text = include_str!("../../bench/tests/fixtures/overlap.mtspec");
    for directive in [
        "machine small:6x2",
        "job alpha ranks=8 ppn=2 node_offset=0 per_proc=1M buffer=512K seed=7\n",
        "job beta ranks=8 ppn=2 node_offset=2 start=100us per_proc=1M buffer=512K seed=8 base=64M\n",
        "fault seed 5\nfault ost_slow(0, 4.0, 0ns..20ms)",
    ] {
        assert!(text.contains(directive), "fixture changed: `{directive}`");
    }
    let mc = Strategy::MemoryConscious;
    let jobs = vec![
        tenant("alpha", mc, 8, 2, MIB, 512 * KIB, 7, 0),
        tenant("beta", mc, 8, 2, MIB, 512 * KIB, 8, 64 * MIB)
            .node_offset(2)
            .start(SimDuration::from_micros(100)),
    ];
    let machine = ClusterSpec::parse_compact("small:6x2").expect("machine parses");
    let faults = FaultSpec::parse("seed 5\nost_slow(0, 4.0, 0ns..20ms)\n").expect("faults parse");
    (machine, jobs, faults)
}

fn overlap_run(policy: AdaptivePolicy, obs: Observe<'_>) -> MultiTenantReport {
    let (machine, jobs, faults) = overlap_fixture();
    run_multitenant(&jobs, &machine, Some(&faults), policy, obs)
}

#[test]
fn adaptive_tenants_on_the_overlap_fixture_are_pinned() {
    let deferrals = |policy| -> usize {
        overlap_run(policy, Observe::default())
            .jobs
            .iter()
            .map(|j| j.adaptive.deferrals)
            .sum()
    };
    assert!(deferrals(AdaptivePolicy::Aggressive) > 0);

    let mut drifted = Vec::new();
    for (policy, want) in [
        (
            AdaptivePolicy::Conservative,
            [0x0115_c24b_8737_7a2b, 0xf16a_537f_a0eb_005a],
        ),
        (
            AdaptivePolicy::Aggressive,
            [0xbc84_e052_44ec_7785, 0x0b23_efb9_d7be_3850],
        ),
    ] {
        let got = both_engines(|obs| format!("{:?}", overlap_run(policy, obs)));
        drifted.extend(pinned(policy.label(), got, want).err());
    }
    assert!(drifted.is_empty(), "{drifted:#?}");
}

/// N = 1 off the solo defaults: a late arrival (start gate) and a
/// two-level exchange, so the tenant span is not the makespan.
#[test]
fn late_two_level_single_job_is_pinned() {
    let s = solo();
    let job = [TenantJob::new("late", s.mc.clone(), s.map.clone())
        .start(SimDuration::from_micros(250))
        .exchange(Exchange::TwoLevel)];
    let run = |obs: Observe<'_>| run_multitenant(&job, &s.spec, None, AdaptivePolicy::Off, obs);
    let mt = run(Observe::default());
    assert!(mt.jobs[0].report.elapsed < mt.makespan);

    let got = both_engines(|obs| format!("{:?}", run(obs)));
    assert_eq!(
        pinned(
            "late two-level",
            got,
            [0xa948_31d0_9735_ce53, 0x795e_086d_6d66_a2f0]
        ),
        Ok(())
    );
}

/// `[fifo, fair]` per cell, in the loop order of
/// `fault_free_matrix_is_pinned`.
const MATRIX: [[u64; 2]; 16] = [
    // write Serial Direct two-phase
    [0x99e2_d559_53fe_6648, 0xb2cb_c68a_7e28_b535],
    // write Serial Direct memory-conscious
    [0xf7f0_1861_76f7_629e, 0x343f_8e7e_6a01_0aeb],
    // write Serial TwoLevel two-phase
    [0x8ea5_249d_9972_cc91, 0x4371_621a_0ce7_77df],
    // write Serial TwoLevel memory-conscious
    [0x0367_c0d7_9993_2b4c, 0x96b5_17fb_1a12_877c],
    // write DoubleBuffered Direct two-phase
    [0x845c_6373_5492_a2da, 0x1995_77db_e711_6876],
    // write DoubleBuffered Direct memory-conscious
    [0x949b_c86f_55b7_5e62, 0x23b1_f423_401c_83bf],
    // write DoubleBuffered TwoLevel two-phase
    [0x777e_2d9f_b73b_a1ea, 0xa659_d127_23c3_7c6a],
    // write DoubleBuffered TwoLevel memory-conscious
    [0x639f_6561_4fb3_9827, 0x9eed_7f89_1b82_8d4e],
    // read Serial Direct two-phase
    [0xf4e5_214d_8a91_7178, 0x82b8_da0e_1017_3d76],
    // read Serial Direct memory-conscious
    [0x2af1_0a0c_1052_db89, 0xf183_d6c8_e559_269c],
    // read Serial TwoLevel two-phase
    [0x0ac5_ef2e_c993_b108, 0xf83d_5837_5bbb_50fa],
    // read Serial TwoLevel memory-conscious
    [0x122c_2333_5adb_9964, 0x0e08_845b_b9e8_05b7],
    // read DoubleBuffered Direct two-phase
    [0x4ab8_ce78_a813_fecd, 0x03fa_7cb3_0e4b_7ba8],
    // read DoubleBuffered Direct memory-conscious
    [0xd8bc_159a_a3e1_f9b5, 0xd04d_6f81_e3a9_a63a],
    // read DoubleBuffered TwoLevel two-phase
    [0x0663_7ca3_c2de_99af, 0x52f6_400c_e91a_410e],
    // read DoubleBuffered TwoLevel memory-conscious
    [0xdb57_92a1_c9b7_b4d7, 0xe52c_c69c_5415_21a0],
];

/// Fault-free solo runs over direction × pipelining × exchange shape ×
/// strategy (two-phase chains every group globally, MC per group).
#[test]
fn fault_free_matrix_is_pinned() {
    // Every axis moves the bytes: no two cells share a fingerprint.
    let mut all: Vec<u64> = MATRIX.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 32, "two cells of MATRIX coincide");

    let mut drifted = Vec::new();
    let mut want = MATRIX.iter();
    for rw in [Rw::Write, Rw::Read] {
        let s = interleaved(rw);
        // Both sync modes, and enough rounds that double buffering
        // reaches back two slots.
        assert_eq!(
            (s.tp.sync, s.mc.sync),
            (SyncMode::Global, SyncMode::PerGroup)
        );
        assert!(s.mc.groups.len() > 1 && s.mc.groups.iter().all(|g| g.rounds.len() > 2));
        for pipeline in [Pipeline::Serial, Pipeline::DoubleBuffered] {
            for exchange in [Exchange::Direct, Exchange::TwoLevel] {
                for plan in [&s.tp, &s.mc] {
                    let what = format!(
                        "{} {pipeline:?} {exchange:?} {}",
                        rw.name(),
                        plan.strategy.label()
                    );
                    let got = both_engines(|obs| {
                        let run = simulate_observed(plan, &s.map, &s.spec, pipeline, exchange, obs);
                        format!("{run:?}")
                    });
                    let want = *want.next().expect("one constant per cell");
                    drifted.extend(pinned(&what, got, want).err());
                }
            }
        }
    }
    assert!(drifted.is_empty(), "{drifted:#?}");
}

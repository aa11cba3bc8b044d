//! Never-panics properties of the job-line front end (`JobDesc`), the
//! slice of `MtSpec::parse` / `JobTrace::parse` / `mcio_cli run` that
//! reads user text.
//!
//! * Arbitrary `key=value` words — the key alphabet crossed with empty,
//!   huge, negative, `nan` and printable-garbage values — never panic
//!   `set`, `validate` or `parse_line`, and every `Err` is one line.
//! * Every *accepted* description of modest size builds a request and
//!   a plan that passes `CollectivePlan::check`.
//!
//! The DSL-level `rejects_malformed_specs` / `rejects_malformed_traces`
//! tables pin the exact messages; the edge values they use are all in
//! [`EDGE_VALUES`], so this suite walks their neighbourhood at random.

use mcio_workloads::JobDesc;
use proptest::prelude::*;

/// The 13 job-description keys.
const JOB_KEYS: [&str; 13] = [
    "ranks", "ppn", "workload", "per_proc", "segments", "scale", "buffer", "stddev", "seed",
    "strategy", "rw", "pipeline", "exchange",
];
/// Keys `set` must hand back to its caller (`Ok(false)`).
const FOREIGN_KEYS: [&str; 8] = [
    "node_offset",
    "start",
    "base",
    "arrival",
    "prio",
    "engine",
    "frobnicate",
    "",
];

/// Values on the edges of every arm of `set`.
const EDGE_VALUES: [&str; 30] = [
    "",
    "0",
    "-1",
    "nan",
    "inf",
    "-inf",
    "1e400",
    "abc",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "4K",
    "4k",
    "1G",
    "17179869184G",
    "K",
    "0.5",
    " 7",
    "ior",
    "collperf",
    "checkpoint",
    "mc",
    "tp",
    "two-phase",
    "memory-conscious",
    "read",
    "double",
    "two-level",
    "soon",
    "a=b",
];

fn key() -> impl Strategy<Value = &'static str> {
    let mut keys = JOB_KEYS.to_vec();
    keys.extend(FOREIGN_KEYS);
    prop::sample::select(keys)
}

fn value() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(EDGE_VALUES.to_vec()).prop_map(str::to_string),
        (0u64..70_000).prop_map(|n| n.to_string()),
        any::<u64>().prop_map(|n| n.to_string()),
        any::<i64>().prop_map(|n| format!("{n}K")),
        any::<f64>().prop_map(|x| x.to_string()),
        // Printable ASCII without whitespace: one DSL word.
        prop::collection::vec(0x21u8..0x7f, 0..12)
            .prop_map(|bytes| String::from_utf8(bytes).expect("ascii")),
    ]
}

fn one_line(e: &str) -> bool {
    !e.is_empty() && e.lines().count() == 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn words_never_panic_and_errors_are_one_line(
        words in prop::collection::vec((key(), value()), 0..8),
    ) {
        let mut desc = JobDesc::default();
        for (key, value) in &words {
            match desc.set(key, value) {
                Ok(known) => prop_assert_eq!(known, JOB_KEYS.contains(key), "{}", key),
                Err(e) => {
                    prop_assert!(JOB_KEYS.contains(key), "foreign key `{}` errored", key);
                    prop_assert!(one_line(&e), "{}={}: {:?}", key, value, e);
                }
            }
        }
        if let Err(e) = desc.validate() {
            prop_assert!(one_line(&e), "{:?}", e);
        }

        // The same words as a DSL line: a name, then `key=value`.
        let line: String = words.iter().map(|(k, v)| format!(" {k}={v}")).collect();
        match JobDesc::parse_line(&format!("job0{line}"), |key, _| Ok(key == "arrival")) {
            Ok((name, parsed)) => {
                prop_assert_eq!(name, "job0");
                prop_assert_eq!(parsed.validate(), Ok(()));
            }
            Err(e) => prop_assert!(one_line(&e), "{:?}", e),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accepted_descriptions_build_a_checked_plan(
        ranks in 0usize..=16,
        ppn in 0usize..=8,
        per_proc in 0u64..=64 << 10,
        segments in 0u64..=8,
        scale in prop::sample::select(vec![32u64, 64, 100, 512, 5000]),
        buffer in prop::sample::select(vec!["0", "4K", "64K", "1M"]),
        stddev in prop::sample::select(vec!["0", "0.3", "2", "nan", "-1"]),
        seed in any::<u64>(),
        workload in prop::sample::select(vec!["ior", "collperf", "checkpoint"]),
        words in prop::sample::select(vec![
            "strategy=mc rw=write",
            "strategy=tp rw=read pipeline=double",
            "strategy=two-phase exchange=two-level",
        ]),
        base in prop::sample::select(vec![0u64, 1 << 30]),
    ) {
        let line = format!(
            "j ranks={ranks} ppn={ppn} per_proc={per_proc} segments={segments} scale={scale} \
             buffer={buffer} stddev={stddev} seed={seed} workload={workload} {words}"
        );
        match JobDesc::parse_line(&line, |_, _| Ok(false)) {
            Ok((_, desc)) => {
                let tenant = desc.tenant("j", base);
                prop_assert_eq!(tenant.plan.check(&desc.request(base)), Ok(()), "{}", line);
                prop_assert_eq!(tenant.map.nnodes(), desc.nodes());
            }
            Err(e) => {
                let degenerate = ranks == 0 || ppn == 0 || buffer == "0"
                    || matches!(stddev, "nan" | "-1")
                    || (workload == "checkpoint" && per_proc == 0);
                prop_assert!(degenerate && one_line(&e), "{} → {:?}", line, e);
            }
        }
    }
}

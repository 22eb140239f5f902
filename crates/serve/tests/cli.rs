//! The node command line `pka-serve` and `pka-fabric` share: every flag
//! lands in one `ServeConfig`, and malformed input — an unknown flag
//! included — is refused.

use pka_serve::cli::{
    build_schema, fabric_node, node_config, Options, FABRIC_PROBE_FLAGS, FABRIC_PROBE_SWITCHES,
    NODE_FLAGS, NODE_SWITCHES, SERVE_PROBE_FLAGS, SERVE_PROBE_SWITCHES,
};
use pka_serve::{FabricRole, ServeConfig};
use pka_stream::RefreshPolicy;
use std::time::Duration;

fn parse(args: &[&str], flags: &[&str], switches: &[&str]) -> Result<Options, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    Options::parse(&args, flags, switches)
}

fn options(args: &[&str]) -> Result<Options, String> {
    parse(args, NODE_FLAGS, NODE_SWITCHES)
}

fn fabric(role: &str, args: &[&str]) -> Result<ServeConfig, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    fabric_node(role, &args).map(|(_, config)| config)
}

#[test]
fn node_flags_fill_one_serve_config() {
    let o = options(&[
        "--survey",
        "--port",
        "0",
        "--policy",
        "every=64",
        "--lattice-order",
        "1",
        "--dense-ceiling",
        "0",
        "--max-order",
        "2",
        "--max-line-bytes",
        "4096",
        "--rate-limit-read",
        "100:10",
    ])
    .unwrap();
    assert_eq!(build_schema(&o).unwrap().len(), 3);
    let config = node_config(&o).unwrap();
    assert_eq!(config.stream.policy, RefreshPolicy::EveryNTuples(64));
    assert_eq!(config.stream.lattice_order, 1);
    assert_eq!(config.stream.acquisition.dense_ceiling, 0);
    assert_eq!(config.stream.acquisition.max_order, Some(2));
    assert_eq!(config.max_line_bytes, 4096);
    assert!(config.rate_limit.read.is_some() && config.rate_limit.write.is_none());
}

#[test]
fn malformed_flags_are_refused() {
    assert!(options(&["--max-order", "2", "stray"]).is_err());
    assert!(options(&["--port"]).is_err());
    assert!(node_config(&options(&["--max-order", "two"]).unwrap()).is_err());
    assert!(node_config(&options(&["--policy", "sometimes"]).unwrap()).is_err());
    assert!(build_schema(&options(&["--cards", "2,x"]).unwrap()).is_err());
    assert!(build_schema(&options(&[]).unwrap()).is_err());
}

#[test]
fn unknown_flags_are_refused_by_name() {
    let err = options(&["--survey", "--shards", "4"]).unwrap_err();
    assert!(err.contains("`--shards`"), "{err}");
    let err = fabric("replica", &["--survey", "--pull", "127.0.0.1:1"]).unwrap_err();
    assert!(err.contains("`--pull`"), "{err}");
    let err =
        parse(&["--addr", "127.0.0.1:1", "--shutdwon"], SERVE_PROBE_FLAGS, SERVE_PROBE_SWITCHES)
            .unwrap_err();
    assert!(err.contains("`--shutdwon`"), "{err}");
    let err =
        parse(&["--coordinator", "x", "--shutdwon"], FABRIC_PROBE_FLAGS, FABRIC_PROBE_SWITCHES)
            .unwrap_err();
    assert!(err.contains("`--shutdwon`"), "{err}");
    // A switch of one command is not a switch of another.
    assert!(options(&["--survey", "--shutdown"]).is_err());
}

/// Every node command line the CI workflow and the pipebench harness
/// start parses into a schema and a configuration.
#[test]
fn ci_and_pipebench_node_command_lines_parse() {
    let serve: &[&[&str]] = &[
        &["--port", "0", "--survey", "--policy", "every=128", "--loop-shards", "2"],
        &["--port", "0", "--cards", "2,2,2,2", "--policy", "manual", "--max-order", "2"],
        &["--port", "0", "--schema", "a=x|y;b=u|v", "--policy", "every=64"],
        &["--port", "0", "--cards", "2,3", "--policy", "every=64", "--max-order", "2"],
        &["--port", "0", "--survey", "--journal", "serve.journal"],
    ];
    let roles: &[(&str, &[&str])] = &[
        ("coordinator", &["--port", "0", "--survey", "--policy", "manual"]),
        ("coordinator", &["--port", "0", "--survey", "--policy", "manual", "--engine-queue", "1"]),
        ("coordinator", &["--port", "0", "--survey", "--policy", "manual", "--checkpoint", "c"]),
        ("coordinator", &["--checkpoint-interval-ms", "100", "--journal", "c.journal", "--survey"]),
        ("replica", &["--journal-fsync", "per-record", "--survey"]),
        ("ingest-node", &["--port", "0", "--survey", "--name", "ci-node", "--coordinator", "a:1"]),
        ("replica", &["--port", "0", "--survey", "--coordinator", "a:1", "--lattice-order", "2"]),
        (
            "coordinator",
            &["--port", "0", "--cards", "2,3", "--policy", "every=64", "--replica", "a:1"],
        ),
        ("replica", &["--port", "0", "--survey"]),
        ("ingest-node", &["--port", "0", "--survey", "--name", "ingest-1", "--coordinator", "a:1"]),
        ("ingest-node", &["--survey", "--coordinator", "a:1", "--journal", "ingest.journal"]),
        ("ingest-node", &["--survey", "--coordinator", "a:1", "--journal-fsync", "per-record"]),
    ];
    for args in serve {
        let o = options(args).unwrap_or_else(|e| panic!("pka-serve {args:?}: {e}"));
        build_schema(&o).unwrap_or_else(|e| panic!("pka-serve {args:?}: {e}"));
        node_config(&o).unwrap_or_else(|e| panic!("pka-serve {args:?}: {e}"));
    }
    for (role, args) in roles {
        let config =
            fabric(role, args).unwrap_or_else(|e| panic!("pka-fabric {role} {args:?}: {e}"));
        assert_eq!(config.role.as_str(), *role);
    }
}

/// Each role takes only its own peer flags; a flag of another role is
/// refused by name, not accepted and ignored.
#[test]
fn each_fabric_role_refuses_the_other_roles_flags() {
    for (role, args, flag) in [
        (
            "replica",
            &["--survey", "--port", "0", "--push-interval-ms", "5"][..],
            "--push-interval-ms",
        ),
        ("replica", &["--survey", "--sync-interval-ms", "5"], "--sync-interval-ms"),
        ("replica", &["--survey", "--replica", "a:1"], "--replica"),
        ("ingest-node", &["--survey", "--coordinator", "a:1", "--replica", "b:1"], "--replica"),
        (
            "ingest-node",
            &["--survey", "--coordinator", "a:1", "--sync-interval-ms", "5"],
            "--sync-interval-ms",
        ),
        (
            "ingest-node",
            &["--survey", "--coordinator", "a:1", "--pull-interval-ms", "5"],
            "--pull-interval-ms",
        ),
        ("coordinator", &["--survey", "--coordinator", "a:1"], "--coordinator"),
        ("coordinator", &["--survey", "--push-interval-ms", "5"], "--push-interval-ms"),
        ("coordinator", &["--survey", "--pull-interval-ms", "5"], "--pull-interval-ms"),
    ] {
        let err = fabric(role, args).unwrap_err();
        assert_eq!(err, format!("unknown flag `{flag}`"), "{role} {args:?}");
    }
    assert!(fabric("ingest-node", &["--survey"]).unwrap_err().contains("--coordinator"));
}

/// The peer flags fill the role, spelled and defaulted as the pipebench
/// harness and CI rely on: 25 ms push and sync intervals, 50 ms pull.
#[test]
fn fabric_flags_fill_the_peer_carrying_role() {
    let config = fabric(
        "coordinator",
        &[
            "--survey",
            "--policy",
            "every=8",
            "--checkpoint",
            "c",
            "--replica",
            "a:1",
            "--replica",
            "b:2",
        ],
    )
    .unwrap();
    let replicas = vec!["a:1".to_string(), "b:2".to_string()];
    let sync_interval = Duration::from_millis(25);
    assert_eq!(config.role, FabricRole::Coordinator { replicas, sync_interval });
    assert_eq!(config.stream.policy, RefreshPolicy::EveryNTuples(8));

    let config =
        fabric("ingest-node", &["--survey", "--name", "ingest-1", "--coordinator", "a:1"]).unwrap();
    let push_interval = Duration::from_millis(25);
    assert_eq!(config.role, FabricRole::IngestNode { coordinator: "a:1".into(), push_interval });
    assert_eq!(config.node_name.as_deref(), Some("ingest-1"));

    let config = fabric("replica", &["--survey", "--pull-interval-ms", "7"]).unwrap();
    let pull_interval = Duration::from_millis(7);
    assert_eq!(config.role, FabricRole::Replica { coordinator: None, pull_interval });
    let config = fabric("replica", &["--survey", "--coordinator", "a:1"]).unwrap();
    let pull_interval = Duration::from_millis(50);
    assert_eq!(config.role, FabricRole::Replica { coordinator: Some("a:1".into()), pull_interval });
}

/// Every probe command line the CI workflow runs parses, switches and
/// all.
#[test]
fn ci_probe_command_lines_parse() {
    for args in [
        &["--addr", "127.0.0.1:1", "--idle-hold", "1024", "--shutdown"][..],
        &["--addr", "127.0.0.1:1", "--expect-factored", "--shutdown"],
    ] {
        let o = parse(args, SERVE_PROBE_FLAGS, SERVE_PROBE_SWITCHES).unwrap();
        assert!(o.present("--shutdown"));
    }
    for args in [
        &["--coordinator", "a", "--ingest", "b", "--replica", "c", "--idle-hold", "1024"][..],
        &["--coordinator", "a", "--ingest", "b", "--replica", "c", "--shutdown"],
        &["--coordinator", "a", "--storm-requests", "512", "--shutdown"],
    ] {
        assert!(parse(args, FABRIC_PROBE_FLAGS, FABRIC_PROBE_SWITCHES).is_ok(), "{args:?}");
    }
}

//! The node command line `pka-serve` and `pka-fabric` share: every flag
//! lands in one `ServeConfig`, and malformed input is refused.

use pka_serve::cli::{build_schema, node_config, Options, NODE_FLAGS};
use pka_stream::RefreshPolicy;

fn options(args: &[&str]) -> Result<Options, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    Options::parse(&args, NODE_FLAGS)
}

#[test]
fn node_flags_fill_one_serve_config() {
    let o = options(&[
        "--survey",
        "--port",
        "0",
        "--shards",
        "3",
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
    assert_eq!(config.stream.shard_count, 3);
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

//! The `pka-fabric` binary accepts the node flags `pka-serve` does: a
//! coordinator booted with `--max-order` and `--lattice-order` comes up,
//! serves, and shuts down cleanly over the wire.  Each role refuses the
//! peer flags of the others.

use pka_serve::LineClient;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn coordinator_boots_with_the_shared_node_flags() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pka-fabric"))
        .args(["coordinator", "--survey", "--max-order", "2", "--lattice-order", "2"])
        .args(["--policy", "manual", "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pka-fabric");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let Some(addr) = line.trim().strip_prefix("listening on ") else {
        let output = child.wait_with_output().unwrap();
        panic!("coordinator did not boot: {line:?} {}", String::from_utf8_lossy(&output.stderr));
    };

    let mut client = LineClient::connect(addr).unwrap();
    assert!(client.ping().unwrap());
    assert_eq!(client.schema().unwrap().len(), 3);
    client.shutdown().unwrap();
    assert!(child.wait().unwrap().success());
}

/// A flag of another role is refused by name with exit status 1, before
/// anything binds: each role parses only its own peer flags.
#[test]
fn each_role_refuses_another_roles_flags() {
    for (args, flag) in [
        (
            &["replica", "--survey", "--port", "0", "--push-interval-ms", "5"][..],
            "--push-interval-ms",
        ),
        (&["ingest-node", "--survey", "--port", "0", "--replica", "127.0.0.1:1"], "--replica"),
        (
            &["ingest-node", "--survey", "--coordinator", "127.0.0.1:1", "--sync-interval-ms", "5"],
            "--sync-interval-ms",
        ),
        (
            &["coordinator", "--survey", "--port", "0", "--coordinator", "127.0.0.1:1"],
            "--coordinator",
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pka-fabric"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .output()
            .expect("run pka-fabric");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} must not start a node");
    }
}

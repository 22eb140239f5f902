//! The `pka-fabric` binary accepts the node flags `pka-serve` does: a
//! coordinator booted with `--max-order` and `--lattice-order` comes up,
//! serves, and shuts down cleanly over the wire.

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

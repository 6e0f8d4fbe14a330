//! Integration tests driving the `bagcq` CLI binary end to end.

use bagcq_core::prelude::{path_query, CheckRequest, Schema, Semantics};
use std::process::Command;

fn bagcq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bagcq"))
}

/// The backend this process's environment resolves for an auto-routed
/// pure CQ pair — normally the natural `(semantics, pair)` backend, but
/// a `BAGCQ_CONTAINMENT` matrix run may redirect it, and the spawned
/// binary inherits our environment.
fn resolved_pair_backend(semantics: Semantics) -> &'static str {
    let mut sb = Schema::builder();
    sb.relation("E", 2);
    let schema = sb.build();
    let q = path_query(&schema, "E", 1);
    CheckRequest::new(&q, &q).semantics(semantics).resolved_choice().label()
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = bagcq().args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    // No args behaves like help.
    let (ok, stdout, _) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn count_inline() {
    let dir = std::env::temp_dir().join("bagcq_cli_test_count");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.txt");
    std::fs::write(&db, "vertices: 3\nE: (0,1), (1,2), (2,0)\n").unwrap();
    let (ok, stdout, stderr) =
        run(&["count", "-q", "E(x,y), E(y,z)", "-d", &format!("@{}", db.display())]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("ψ(D) = 3"), "{stdout}");
}

#[test]
fn count_with_inequality() {
    let dir = std::env::temp_dir().join("bagcq_cli_test_count2");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.txt");
    // Complete digraph on 2 vertices with loops: 4 edges.
    std::fs::write(&db, "vertices: 2\nE: (0,0), (0,1), (1,0), (1,1)\n").unwrap();
    let (ok, stdout, _) =
        run(&["count", "-q", "E(x,y), x != y", "-d", &format!("@{}", db.display())]);
    assert!(ok);
    assert!(stdout.contains("ψ(D) = 2"), "{stdout}");
}

#[test]
fn check_refutes_and_prints_counterexample() {
    let (ok, stdout, _) = run(&["check", "-s", "E(x,y)", "-b", "E(u,v), E(v,w)"]);
    assert!(ok);
    assert!(stdout.contains("REFUTED"), "{stdout}");
    assert!(stdout.contains("vertices:"), "{stdout}");
}

#[test]
fn check_proves_with_certificate() {
    let (ok, stdout, _) = run(&["check", "-s", "E(x,x)", "-b", "E(u,v)"]);
    assert!(ok);
    assert!(stdout.contains("PROVED"), "{stdout}");
    let expected = format!("backend = {}", resolved_pair_backend(Semantics::Bag));
    assert!(stdout.contains(&expected), "auto resolves a CQ pair: {stdout}");
}

#[test]
fn check_set_semantics_selects_chandra_merlin() {
    // Set semantics flips the 2-walk/edge pair: the 2-walk query folds
    // into a single edge's canonical database.
    let (ok, stdout, _) =
        run(&["check", "-s", "E(u,v), E(v,w)", "-b", "E(x,y)", "--semantics", "set"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("semantics = set"), "{stdout}");
    let expected = format!("backend = {}", resolved_pair_backend(Semantics::Set));
    assert!(stdout.contains(&expected), "{stdout}");
    assert!(stdout.contains("PROVED"), "{stdout}");
}

#[test]
fn check_union_disjuncts_via_semicolon() {
    // `;` splits union disjuncts; auto picks the UCQ backend per
    // semantics.
    let (ok, stdout, _) =
        run(&["check", "-s", "E(x,y)", "-b", "E(u,v); F(w)", "--semantics", "set"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("backend = set-ucq"), "{stdout}");
    assert!(stdout.contains("PROVED"), "{stdout}");
    let (ok, stdout, _) = run(&["check", "-s", "E(x,y)", "-b", "E(u,v); F(w)"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("backend = bag-ucq"), "{stdout}");
    assert!(stdout.contains("PROVED"), "{stdout}");
}

#[test]
fn check_pinned_backend_and_env_override_agree() {
    // Pinning via --containment and forcing via BAGCQ_CONTAINMENT (which
    // only redirects auto) must land on the same backend.
    let (ok, stdout, _) = run(&[
        "check",
        "-s",
        "E(x,y)",
        "-b",
        "E(u,v)",
        "--semantics",
        "set",
        "--containment",
        "set-chandra-merlin",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("backend = set-chandra-merlin"), "{stdout}");
    let out = bagcq()
        .args(["check", "-s", "E(x,y)", "-b", "E(u,v)", "--semantics", "set"])
        .env("BAGCQ_CONTAINMENT", "set-chandra-merlin")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("backend = set-chandra-merlin"), "{stdout}");
}

#[test]
fn check_unsupported_combination_is_an_error() {
    let (ok, _, stderr) = run(&[
        "check",
        "-s",
        "E(x,y)",
        "-b",
        "E(u,v)",
        "--semantics",
        "set",
        "--containment",
        "bag-search",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bag-search"), "{stderr}");
    let (ok, _, stderr) = run(&["check", "-s", "E(x,y);", "-b", "E(u,v)"]);
    assert!(!ok);
    assert!(stderr.contains("empty disjunct"), "{stderr}");
}

#[test]
fn reduce_rootless_instance() {
    let (ok, stdout, _) = run(&["reduce", "square-plus-one"]);
    assert!(ok);
    assert!(stdout.contains("all satisfy"), "{stdout}");
}

#[test]
fn reduce_solvable_instance() {
    let (ok, stdout, _) = run(&["reduce", "linear-solvable"]);
    assert!(ok);
    assert!(stdout.contains("WITNESSED"), "{stdout}");
}

#[test]
fn instances_lists_corpus() {
    let (ok, stdout, _) = run(&["instances"]);
    assert!(ok);
    assert!(stdout.contains("pell"));
    assert!(stdout.contains("provably rootless"));
}

#[test]
fn errors_are_reported() {
    let (ok, _, stderr) = run(&["reduce", "no-such-instance"]);
    assert!(!ok);
    assert!(stderr.contains("no corpus instance"), "{stderr}");
    let (ok, _, stderr) = run(&["count", "-q", "E(x"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

/// `bagcq serve` stops on `POST /admin/drain`: the drain reply must reach
/// the client whole before the process exits, every time. Twenty fresh
/// servers, one drain each.
#[test]
fn serve_drain_reply_arrives_before_exit() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::process::Stdio;

    for round in 0..20 {
        let mut child = bagcq()
            .args(["serve", "--addr", "127.0.0.1:0", "--rate", "0", "--burst", "0"])
            .args(["--max-in-flight", "0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("serve starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("banner line");
        let addr = banner
            .trim()
            .strip_prefix("bagcq-serve listening on ")
            .unwrap_or_else(|| panic!("round {round}: unexpected banner {banner:?}"))
            .to_string();
        // Keep the pipe drained so shutdown output never blocks the child.
        let rest = std::thread::spawn(move || std::io::copy(&mut stdout, &mut std::io::sink()));

        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.write_all(
            b"POST /admin/drain HTTP/1.1\r\nX-Api-Key: admin-key\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("send drain");
        let mut reply = Vec::new();
        conn.read_to_end(&mut reply).expect("read drain reply");
        let reply = String::from_utf8_lossy(&reply);
        let (head, body) = reply
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("round {round}: truncated reply {reply:?}"));
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
        let length: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string)
            })
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("round {round}: no content-length in {head}"));
        assert_eq!(body.len(), length, "round {round}: partial body {body:?}");
        assert!(body.starts_with("ok: drained\n"), "round {round}: {body}");

        let status = child.wait().expect("serve exits");
        assert!(status.success(), "round {round}: serve exited with {status}");
        rest.join().expect("stdout reader").expect("stdout drained");
    }
}

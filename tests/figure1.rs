//! Integration test for experiment E1: Figure 1, rendered from the
//! pinned records, must agree with the paper on every edge.

use std::sync::OnceLock;

use sl2::figure1::{evaluate, render, EdgeReport, Progress, Verdict, EDGES};

/// The one evaluation the tests share.
fn rows() -> &'static [EdgeReport] {
    static ROWS: OnceLock<Vec<EdgeReport>> = OnceLock::new();
    ROWS.get_or_init(evaluate)
}

#[test]
fn figure1_agrees_with_the_paper() {
    let rows = rows();
    assert_eq!(rows.len(), 13, "all edges evaluated");
    for row in rows {
        assert!(
            row.matches_paper(),
            "edge '{}' ({} → {}) disagrees with the paper:\n{}",
            row.edge.claim,
            row.edge.from,
            row.edge.to,
            render(rows)
        );
    }
}

#[test]
fn figure1_negative_edge_carries_a_witness() {
    let agm = rows()
        .iter()
        .find(|r| r.edge.claim.contains("Thm 17"))
        .expect("Theorem 17 row present");
    match &agm.verdict {
        Verdict::RefutedSl {
            record,
            witness_steps,
        } => {
            assert!(record.starts_with(agm.edge.family), "{record}");
            assert!(*witness_steps > 0, "{record}: empty witness");
        }
        other => panic!("AGM stack must be refuted, got {other:?}"),
    }
}

#[test]
fn figure1_wait_free_edges_have_constant_bounds() {
    for (edge, row) in EDGES.iter().zip(rows()) {
        if !edge.positive || edge.progress != Progress::WaitFree {
            continue;
        }
        match &row.verdict {
            Verdict::VerifiedSl { max_op_steps, .. } => {
                assert!(
                    *max_op_steps <= 3,
                    "edge '{}' exceeded the paper's constant step bound: {max_op_steps}",
                    edge.claim
                );
            }
            other => panic!("positive edge '{}' not verified: {other:?}", edge.claim),
        }
    }
}

#[test]
fn figure1_columns_line_up() {
    // Every column is as wide as its widest cell, so every row puts its
    // separators at the header's offsets (counted in characters).
    let table = render(rows());
    let offsets = |line: &str, sep: char| -> Vec<usize> {
        line.chars()
            .enumerate()
            .filter(|&(_, c)| c == sep)
            .map(|(i, _)| i)
            .collect()
    };
    let mut lines = table.lines();
    let header = offsets(lines.next().expect("header"), '|');
    assert_eq!(header.len(), 5, "{table}");
    let rule = lines.next().expect("rule");
    assert_eq!(offsets(rule, '+'), header, "misaligned rule:\n{table}");
    for line in lines {
        assert_eq!(
            offsets(line, '|'),
            header,
            "misaligned row:\n{line}\n{table}"
        );
    }
}

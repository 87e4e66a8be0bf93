//! JSON and DOT export of the analysis results (`ldx analyze`).
//!
//! The JSON shape is validated in CI against `schemas/sdep_schema.json`
//! (by `scripts/check_sdep_output.py`); keep the two in sync. Like the
//! bench and obs emitters, the writer is hand-rolled — the analysis crate
//! stays serializer-free.

use crate::graph::Node;
use crate::reach::StaticAnalysis;
use ldx_ir::IrProgram;
use ldx_obs::json_string;
use std::fmt::Write as _;

/// Renders the full analysis as a JSON document.
///
/// Shape: `{ "program": ..., "nodes": N, "edges": N, "sites": [...],
/// "reachability": [...] }` — see `schemas/sdep_schema.json`.
pub fn analysis_to_json(program: &IrProgram, analysis: &StaticAnalysis, name: &str) -> String {
    let pdg = analysis.pdg();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"program\": {},", json_string(name));
    let _ = writeln!(out, "  \"functions\": {},", program.iter_funcs().count());
    let _ = writeln!(out, "  \"nodes\": {},", pdg.nodes().len());
    let _ = writeln!(out, "  \"edges\": {},", pdg.edge_count());
    out.push_str("  \"sites\": [\n");
    let mut first = true;
    for info in analysis.sites().values() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let func_name = program.func(info.func).name.clone();
        let reads: Vec<String> = info
            .effects
            .reads
            .iter()
            .map(|c| json_string(&c.to_string()))
            .collect();
        let writes: Vec<String> = info
            .effects
            .writes
            .iter()
            .map(|c| json_string(&c.to_string()))
            .collect();
        let _ = write!(
            out,
            "    {{\"func\": {}, \"site\": {}, \"sys\": {}, \"reads\": [{}], \"writes\": [{}]}}",
            json_string(&func_name),
            info.site.index(),
            json_string(&info.sys.to_string()),
            reads.join(", "),
            writes.join(", ")
        );
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"reachability\": [\n");
    let mut first = true;
    for (&(func, site), reach) in analysis.reach() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let func_name = program.func(func).name.clone();
        let sinks: Vec<String> = reach
            .sinks
            .iter()
            .map(|&(f, s)| {
                format!(
                    "{{\"func\": {}, \"site\": {}}}",
                    json_string(&program.func(f).name),
                    s.index()
                )
            })
            .collect();
        let _ = write!(
            out,
            "    {{\"func\": {}, \"site\": {}, \"affects_end\": {}, \"touches_anything\": {}, \"sinks\": [{}]}}",
            json_string(&func_name),
            site.index(),
            reach.affects_end,
            reach.touches_anything,
            sinks.join(", ")
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders the dependence graph as a Graphviz digraph.
///
/// Instruction/terminator nodes are grouped into per-function clusters;
/// syscall sites are highlighted boxes labeled with their syscall and
/// channels.
pub fn pdg_to_dot(program: &IrProgram, analysis: &StaticAnalysis) -> String {
    let pdg = analysis.pdg();
    let node_name = |id: u32| format!("n{id}");
    let mut out = String::from("digraph pdg {\n  rankdir=LR;\n  node [fontsize=9];\n");

    for (fid, func) in program.iter_funcs() {
        let _ = writeln!(out, "  subgraph cluster_{} {{", fid.index());
        let _ = writeln!(out, "    label={};", json_string(&func.name));
        for (i, node) in pdg.nodes().iter().enumerate() {
            let (nf, label, shape) = match node {
                Node::Ins { func, block, idx } => {
                    let instr = &program.func(*func).block(*block).instrs[*idx];
                    let label = if let Some(sys) = instr.as_syscall() {
                        format!("{block}.{idx} {sys}")
                    } else {
                        format!("{block}.{idx}")
                    };
                    let shape = if instr.as_syscall().is_some() {
                        "box"
                    } else {
                        "ellipse"
                    };
                    (*func, label, shape)
                }
                Node::Term { func, block } => (*func, format!("{block}.term"), "diamond"),
                _ => continue,
            };
            if nf != fid {
                continue;
            }
            let _ = writeln!(
                out,
                "    {} [label={}, shape={}];",
                node_name(i as u32),
                json_string(&label),
                shape
            );
        }
        out.push_str("  }\n");
    }
    // Summary nodes outside the clusters.
    for (i, node) in pdg.nodes().iter().enumerate() {
        let label = match node {
            Node::CallCtl(f) => format!("callctl {}", program.func(*f).name),
            Node::Ret(f) => format!("ret {}", program.func(*f).name),
            Node::Global(g) => format!("global {g}"),
            Node::End => "end".to_string(),
            _ => continue,
        };
        let _ = writeln!(
            out,
            "  {} [label={}, shape=octagon];",
            node_name(i as u32),
            json_string(&label)
        );
    }
    for (i, _) in pdg.nodes().iter().enumerate() {
        for &s in pdg.succs(i as u32) {
            let _ = writeln!(out, "  {} -> {};", node_name(i as u32), node_name(s));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_ir::lower;
    use ldx_lang::compile;

    fn setup() -> (IrProgram, StaticAnalysis) {
        let program = lower(
            &compile(
                r#"fn main() {
                    let fd = open("/in", 0);
                    let x = read(fd, 16);
                    write(1, x);
                }"#,
            )
            .unwrap(),
        );
        let analysis = StaticAnalysis::analyze(&program);
        (program, analysis)
    }

    #[test]
    fn json_has_expected_top_level_keys() {
        let (program, analysis) = setup();
        let json = analysis_to_json(&program, &analysis, "demo");
        for key in [
            "\"program\"",
            "\"functions\"",
            "\"nodes\"",
            "\"edges\"",
            "\"sites\"",
            "\"reachability\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"program\": \"demo\""));
        assert!(json.contains("file:/in"));
    }

    #[test]
    fn dot_is_a_digraph_with_clusters_and_edges() {
        let (program, analysis) = setup();
        let dot = pdg_to_dot(&program, &analysis);
        assert!(dot.starts_with("digraph pdg {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains(" -> "));
        assert!(dot.contains("shape=box"), "syscall sites are boxes");
    }
}

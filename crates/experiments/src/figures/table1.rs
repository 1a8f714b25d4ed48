//! Table 1: description of the networks used in Figure 1.
//!
//! For each suite member we report what the paper's table did — node
//! count, link count, average degree — plus the derived quantities the
//! rest of the paper leans on: average unicast path length `ū`, diameter,
//! and an exponential-reachability score (R² of a line fit to `ln T(r)`,
//! §4's dichotomy).

use crate::config::RunConfig;
use crate::dataset::{Report, TableData};
use crate::networks::{self, NetworkKind};
use mcast_topology::metrics::{exact_path_stats, sampled_path_stats};
use mcast_topology::reachability::AverageReachability;
use mcast_topology::{Graph, NodeId};

/// Exact path stats below this size, sampled above.
const EXACT_LIMIT: usize = 2500;

/// Evenly spread deterministic source sample.
pub fn spread_sources(graph: &Graph, count: usize) -> Vec<NodeId> {
    let n = graph.node_count();
    let count = count.min(n).max(1);
    (0..count).map(|i| (i * n / count) as NodeId).collect()
}

/// Per-network statistics row.
#[derive(Clone, Debug)]
pub struct NetworkStats {
    /// Suite name.
    pub name: &'static str,
    /// Real or generated.
    pub kind: NetworkKind,
    /// Node count.
    pub nodes: usize,
    /// Undirected link count.
    pub links: usize,
    /// Average degree.
    pub avg_degree: f64,
    /// Average unicast path length `ū`.
    pub avg_path: f64,
    /// Diameter (exact below `EXACT_LIMIT` (2500) nodes, otherwise the largest
    /// distance seen from the sampled sources).
    pub diameter: u32,
    /// R² of the `ln T(r)` line fit (1.0 = perfectly exponential growth).
    pub reach_r2: f64,
}

/// Compute the statistics row for one graph.
pub fn network_stats(name: &'static str, kind: NetworkKind, graph: &Graph) -> NetworkStats {
    let (avg_path, diameter) = if graph.node_count() <= EXACT_LIMIT {
        exact_path_stats(graph)
    } else {
        sampled_path_stats(graph, &spread_sources(graph, 200))
    };
    let sources = spread_sources(graph, 64);
    let reach =
        AverageReachability::over_sources(graph, &sources).expect("spread sources are never empty");
    NetworkStats {
        name,
        kind,
        nodes: graph.node_count(),
        links: graph.edge_count(),
        avg_degree: graph.average_degree(),
        avg_path,
        diameter,
        reach_r2: reach.exponential_fit_r2(0.9),
    }
}

/// Run the Table 1 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(
        "table1",
        "Table 1: description of networks used in Figure 1",
    );
    report.note("real maps are stand-ins matched on size/degree/reachability shape (DESIGN.md §3)");
    report.note("avg path & diameter sampled (200 spread sources) above 2500 nodes");
    let mut table = TableData {
        id: "table1".into(),
        title: "network suite".into(),
        headers: [
            "network",
            "kind",
            "nodes",
            "links",
            "avg degree",
            "avg path",
            "diameter",
            "lnT(r) fit R2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows: Vec::new(),
    };
    for net in networks::suite(cfg) {
        let s = network_stats(net.name, net.kind, &net.graph);
        table.push_row(vec![
            s.name.to_string(),
            match s.kind {
                NetworkKind::Real => "real".into(),
                NetworkKind::Generated => "generated".into(),
            },
            s.nodes.to_string(),
            s.links.to_string(),
            format!("{:.2}", s.avg_degree),
            format!("{:.2}", s.avg_path),
            s.diameter.to_string(),
            format!("{:.3}", s.reach_r2),
        ]);
    }
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::graph::from_edges;

    #[test]
    fn spread_sources_are_valid_and_distinct() {
        let g = from_edges(10, &[(0, 1)]);
        let s = spread_sources(&g, 5);
        assert_eq!(s, vec![0, 2, 4, 6, 8]);
        let all = spread_sources(&g, 50);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn stats_on_known_graph() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let s = network_stats("P4", NetworkKind::Generated, &g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.links, 3);
        assert!((s.avg_degree - 1.5).abs() < 1e-12);
        assert!((s.avg_path - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.diameter, 3);
    }

    #[test]
    fn fast_run_produces_eight_rows() {
        let report = run(&RunConfig::fast());
        assert_eq!(report.tables.len(), 1);
        let t = &report.tables[0];
        assert_eq!(t.rows.len(), 8);
        // ARPA row sanity.
        let arpa = t.rows.iter().find(|r| r[0] == "ARPA").unwrap();
        assert_eq!(arpa[2], "47");
        assert_eq!(arpa[3], "68");
    }
}

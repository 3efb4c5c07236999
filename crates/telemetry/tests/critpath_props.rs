//! Property test: the critical-path walk equals a hash-based reference.
//!
//! `CritPath::from_log` takes each on-path event's marks as one
//! contiguous run of the owner-sorted mark log. The reference below is
//! the walk it replaced: collect the path into a `HashSet`, group every
//! on-path mark by owner in a `HashMap`, carve each edge from its group.
//! On any owner-monotone log (which is what dispatch order produces) the
//! two must agree on everything the path reports.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use simcore::MarkKind;
use telemetry::causal::{CausalLog, MarkRec};
use telemetry::CritPath;

const LABELS: [&str; 4] = ["ucp_progress", "nic.tx_post", "net.wire", "lci.progress"];
const KINDS: [MarkKind; 4] = [MarkKind::Wait, MarkKind::Hold, MarkKind::Work, MarkKind::Wire];

/// What the walk reports: `(segments, components, wire_fixed_ns,
/// path_nodes, events_on_path, total_ns)`.
type Walk = (Vec<(String, u64, u64)>, Vec<(String, u64)>, u64, Vec<u64>, usize, u64);

fn push_segment(segments: &mut Vec<(String, u64, u64)>, component: &str, start: u64, end: u64) {
    if end <= start {
        return;
    }
    if let Some(last) = segments.last_mut() {
        if last.2 == start && last.0 == component {
            last.2 = end;
            return;
        }
    }
    segments.push((component.to_string(), start, end));
}

fn carve(
    segments: &mut Vec<(String, u64, u64)>,
    wire_fixed: &mut u64,
    marks: &[&MarkRec],
    t_p: u64,
    t_c: u64,
) {
    if t_c <= t_p {
        return;
    }
    let mut ms: Vec<&MarkRec> =
        marks.iter().copied().filter(|m| m.end > t_p && m.start < t_c).collect();
    ms.sort_by_key(|m| m.start);
    let mut cursor = t_p;
    for m in ms {
        let s = m.start.max(cursor);
        let e = m.end.min(t_c);
        if e <= s {
            continue;
        }
        push_segment(segments, "cpu", cursor, s);
        match m.kind {
            MarkKind::Wait => push_segment(segments, &format!("{}.wait", m.label), s, e),
            MarkKind::Wire => {
                push_segment(segments, m.label, s, e);
                *wire_fixed += m.fixed.min(e - s);
            }
            MarkKind::Hold | MarkKind::Work => push_segment(segments, m.label, s, e),
        }
        cursor = e;
    }
    push_segment(segments, "cpu", cursor, t_c);
}

/// The `HashSet`/`by_owner` walk `from_log` used before it relied on
/// owner order.
fn reference(log: &CausalLog) -> Walk {
    let (base, nodes, marks) = (log.base(), log.nodes(), log.marks());
    if nodes.is_empty() {
        return (vec![], vec![], 0, vec![], 0, 0);
    }
    let last_id = base + nodes.len() as u64 - 1;
    let total = nodes[nodes.len() - 1].at;
    let mut path = vec![last_id];
    let mut cur = last_id;
    loop {
        let parent = nodes[(cur - base) as usize].parent;
        if parent < base || parent >= cur {
            break;
        }
        path.push(parent);
        cur = parent;
    }
    path.reverse();

    let on_path: HashSet<u64> = path.iter().copied().collect();
    let mut by_owner: HashMap<u64, Vec<&MarkRec>> = HashMap::new();
    for m in marks {
        if on_path.contains(&m.owner) {
            by_owner.entry(m.owner).or_default().push(m);
        }
    }
    let mut segments = Vec::new();
    let mut wire_fixed = 0;
    push_segment(&mut segments, "startup", 0, nodes[(path[0] - base) as usize].at);
    for w in path.windows(2) {
        let (p, c) = (w[0], w[1]);
        let (t_p, t_c) = (nodes[(p - base) as usize].at, nodes[(c - base) as usize].at);
        let owned = by_owner.get(&p).map(Vec::as_slice).unwrap_or(&[]);
        carve(&mut segments, &mut wire_fixed, owned, t_p, t_c);
    }

    let mut agg: HashMap<&str, u64> = HashMap::new();
    for (c, s, e) in &segments {
        *agg.entry(c.as_str()).or_default() += e - s;
    }
    let mut components: Vec<(String, u64)> =
        agg.into_iter().map(|(c, ns)| (c.to_string(), ns)).collect();
    components.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let events = path.len();
    (segments, components, wire_fixed, path, events, total)
}

fn walk(cp: &CritPath) -> Walk {
    (
        cp.segments.iter().map(|s| (s.component.clone(), s.start, s.end)).collect(),
        cp.components.iter().map(|c| (c.component.clone(), c.on_path_ns)).collect(),
        cp.wire_fixed_ns,
        cp.path_nodes.clone(),
        cp.events_on_path,
        cp.total_ns,
    )
}

proptest! {
    /// Random dispatch sequences: node ids count up from a random base,
    /// times never decrease, each parent is an earlier node, setup (0) or
    /// a node from before recording started, and each event emits a few
    /// marks that may overlap, start before it, or run past its
    /// successors.
    #[test]
    fn from_log_matches_hash_based_reference(
        base in 1u64..6,
        events in proptest::collection::vec((0u64..400, 0u64..64, 0usize..4), 1..60),
        marks in proptest::collection::vec((0usize..16, 0u64..700, 0u64..900, 0u64..500), 0..150),
    ) {
        let mut log = CausalLog::default();
        let mut at = 0;
        let mut marks = marks.iter();
        for (i, &(step, draw, n_marks)) in events.iter().enumerate() {
            let (node, i) = (base + i as u64, i as u64);
            at += step;
            let parent = match draw % 8 {
                0 => 0,
                1 => base - 1,
                _ if i == 0 => 0,
                _ => base + draw % i,
            };
            log.on_execute(node, at, parent);
            for &(which, offset, len, fixed) in marks.by_ref().take(n_marks) {
                let start = at.saturating_sub(100) + offset;
                log.mark(LABELS[which % 4], KINDS[which / 4], start, start + len, fixed);
            }
            log.end_execute();
        }
        prop_assert!(log.marks().windows(2).all(|w| w[0].owner <= w[1].owner));
        let cp = CritPath::from_log("prop", &log);
        prop_assert_eq!(walk(&cp), reference(&log));
    }
}
